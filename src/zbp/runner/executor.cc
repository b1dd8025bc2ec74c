#include "zbp/runner/executor.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "zbp/common/env.hh"
#include "zbp/common/log.hh"

namespace zbp::runner
{

unsigned
jobsFromEnv()
{
    const unsigned hw = std::max(std::thread::hardware_concurrency(), 1u);
    return envSetting("ZBP_JOBS", hw, [](const char *s, unsigned &v) {
        return parseNumber(s, v) && v >= 1;
    });
}

unsigned
resolveJobs(unsigned requested)
{
    return requested != 0 ? requested : jobsFromEnv();
}

ParallelExecutor::ParallelExecutor(unsigned jobs)
    : nJobs(resolveJobs(jobs))
{
}

std::vector<JobFailure>
ParallelExecutor::run(std::size_t n,
                      const std::function<void(std::size_t)> &fn) const
{
    ZBP_ASSERT(fn != nullptr, "ParallelExecutor::run with null job");
    std::vector<JobFailure> failures;

    auto attempt = [&](std::size_t i, std::mutex *mu) {
        try {
            fn(i);
        } catch (const std::exception &e) {
            JobFailure f{i, e.what()};
            if (mu) {
                std::lock_guard<std::mutex> lock(*mu);
                failures.push_back(std::move(f));
            } else {
                failures.push_back(std::move(f));
            }
        } catch (...) {
            // Non-std::exception throws (ints, custom types) must not
            // tear down the pool thread; capture them like any other
            // failure so the sweep completes.
            JobFailure f{i, "unknown error"};
            if (mu) {
                std::lock_guard<std::mutex> lock(*mu);
                failures.push_back(std::move(f));
            } else {
                failures.push_back(std::move(f));
            }
        }
    };

    const unsigned workers = static_cast<unsigned>(
            std::min<std::size_t>(nJobs, n));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            attempt(i, nullptr);
        return failures;
    }

    std::atomic<std::size_t> cursor{0};
    std::mutex mu;
    auto worker = [&] {
        for (;;) {
            const std::size_t i =
                    cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            attempt(i, &mu);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();

    std::sort(failures.begin(), failures.end(),
              [](const JobFailure &a, const JobFailure &b) {
                  return a.index < b.index;
              });
    return failures;
}

} // namespace zbp::runner
