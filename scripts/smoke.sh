#!/usr/bin/env bash
#
# Smoke-verify the repo: the full tier-1 build + test cycle, then the
# legs that drive ZBP_* environment variables through real binaries.
# What a gtest already checks in-process (CMP records and resume, the
# sampled stitch and its resume, checkpointing being invisible in the
# results) is not repeated here.
#
# Usage:
#   scripts/smoke.sh               # full: configure, build, ctest, legs
#   scripts/smoke.sh --bench-only  # runner+resume, corrupted-trace,
#                                  # bad-config, trace-cache and
#                                  # bench-binary legs
#                                  # (the runner_smoke ctest target, so
#                                  # ctest does not recurse into itself)
#   scripts/smoke.sh --obs-only    # one sweep with ZBP_OBS_* set, then
#                                  # schema-validate the timeline +
#                                  # sidecar (the obs_smoke target)
#   scripts/smoke.sh --ckpt-only   # sweep with ZBP_CKPT_* on, kill it
#                                  # mid-run, resume, compare to golden
#                                  # (the ckpt_smoke target)
#
# Environment:
#   ZBP_SMOKE_BUILD_DIR  build tree (default: <repo>/build)

set -euo pipefail

smoke_start=$SECONDS

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${ZBP_SMOKE_BUILD_DIR:-$repo_root/build}"
jobs=4
scale=0.05
mode="${1:-}"

tmp_dir="$(mktemp -d /tmp/zbp_smoke_XXXXXX)"
trap 'rm -rf "$tmp_dir"' EXIT

# The path of a built binary, or exit naming it.
need() {
    if [[ ! -x "$build_dir/$1" ]]; then
        echo "smoke: missing $build_dir/$1 (build the repo first)" >&2
        exit 1
    fi
    echo "$build_dir/$1"
}

# Observability leg: one small sweep with the full ZBP_OBS_* contract
# enabled — interval sidecar + Perfetto timeline — then schema-validate
# both.  The timeline must parse as trace-event JSON and carry the
# engine's spans on the runner track; the sidecar must contain
# interval rows.
run_obs_leg() {
    echo "== obs smoke: fig2_cpi with ZBP_OBS_INTERVAL + ZBP_OBS_TRACE =="
    local obs_bench obs_trace="$tmp_dir/obs.json" \
        obs_out="$tmp_dir/obs.jsonl"
    obs_bench="$(need bench/fig2_cpi)"

    ZBP_LEN_SCALE="$scale" ZBP_JOBS="$jobs" ZBP_OBS_INTERVAL=2000 \
        ZBP_OBS_OUT="$obs_out" ZBP_OBS_TRACE="$obs_trace" \
        "$obs_bench" >/dev/null

    python3 "$repo_root/scripts/obs_report.py" validate "$obs_trace"
    # The engine draws every job's phases on the orchestration track.
    if ! python3 - "$repo_root/scripts" "$obs_trace" <<'PY'
import sys
sys.path.insert(0, sys.argv[1])
from obs_report import PID_RUNNER, load_events
names = {ev.get("name", "") for ev in load_events(sys.argv[2])
         if ev.get("ph") == "X" and ev.get("pid") == PID_RUNNER}
missing = [n for n in ("load", "run", "chunk")
           if n not in names]
if not any(n.startswith("job:") for n in names):
    missing.append("job:<name>")
if missing:
    sys.exit(f"smoke: no {', '.join(missing)} span on the runner track")
PY
    then
        exit 1
    fi
    if ! python3 "$repo_root/scripts/obs_report.py" intervals \
            "$obs_out" >/dev/null; then
        echo "smoke: interval sidecar $obs_out failed to summarize" >&2
        exit 1
    fi
    local obs_rows
    obs_rows="$(wc -l < "$obs_out")"
    if [[ "$obs_rows" -lt 10 ]]; then
        echo "smoke: expected >=10 interval rows, got $obs_rows" >&2
        exit 1
    fi
    echo "smoke: obs OK (timeline valid, $obs_rows interval rows)"
}

# Compare two JSONL result files by (config, trace) -> (cycles,
# instructions).  Torn trailing lines (a crash mid-write) are skipped,
# matching resume; duplicate keys keep the first record,
# matching resume semantics.
ckpt_compare() {
    python3 - "$1" "$2" <<'PY'
import json, sys

def load(path):
    recs = {}
    for line in open(path):
        line = line.strip()
        if not line.startswith("{") or not line.endswith("}"):
            continue
        r = json.loads(line)
        key = (r.get("config"), r.get("trace"))
        if key not in recs:
            recs[key] = (r.get("ok"), r.get("cycles"), r.get("instructions"))
    return recs

a, b = load(sys.argv[1]), load(sys.argv[2])
if not a or a != b:
    only_a = sorted(set(a) - set(b))
    only_b = sorted(set(b) - set(a))
    diff = sorted(k for k in set(a) & set(b) if a[k] != b[k])
    print(f"ckpt smoke: result mismatch (golden {len(a)} records, "
          f"got {len(b)}; missing {only_a}, extra {only_b}, "
          f"differing {diff})", file=sys.stderr)
    sys.exit(1)
PY
}

# Crash-recovery leg: a golden fig2 sweep, then a kill -9 mid-sweep
# with ZBP_CKPT_* on, followed by a resumed rerun that must reproduce
# the golden record set exactly and leave no snapshots behind.
run_ckpt_leg() {
    echo "== ckpt kill-resume smoke: SIGKILL mid-sweep, then recover =="
    local ckpt_bench ckpt_golden="$tmp_dir/ckpt_golden.jsonl" \
        ckpt_results="$tmp_dir/ckpt.jsonl" ckpt_dir="$tmp_dir/ckpts"
    ckpt_bench="$(need bench/fig2_cpi)"
    mkdir -p "$ckpt_dir"

    ZBP_LEN_SCALE="$scale" ZBP_JOBS="$jobs" \
        ZBP_RESULTS_JSONL="$ckpt_golden" "$ckpt_bench" >/dev/null

    # SIGKILL the sweep once the first record lands, then rerun with
    # the same checkpoint dir and the partial JSONL as both sink and
    # resume file.  The victim runs single-threaded so the kill
    # reliably lands with most of the sweep (and usually a mid-trace
    # snapshot) outstanding.
    ZBP_LEN_SCALE="$scale" ZBP_JOBS=1 \
        ZBP_RESULTS_JSONL="$ckpt_results" \
        ZBP_CKPT_DIR="$ckpt_dir" ZBP_CKPT_INTERVAL=5000 \
        "$ckpt_bench" >/dev/null 2>&1 &
    local victim=$!
    local waited=0
    while kill -0 "$victim" 2>/dev/null && (( waited < 3000 )); do
        if [[ -s "$ckpt_results" ]]; then
            break
        fi
        sleep 0.01
        waited=$((waited + 1))
    done
    kill -9 "$victim" 2>/dev/null || true
    wait "$victim" 2>/dev/null || true
    local partial
    partial="$(wc -l < "$ckpt_results" 2>/dev/null || echo 0)"
    echo "smoke: killed sweep after $partial record(s)"

    ZBP_LEN_SCALE="$scale" ZBP_JOBS="$jobs" \
        ZBP_RESULTS_JSONL="$ckpt_results" \
        ZBP_RESUME_JSONL="$ckpt_results" \
        ZBP_CKPT_DIR="$ckpt_dir" ZBP_CKPT_INTERVAL=5000 \
        "$ckpt_bench" >/dev/null
    ckpt_compare "$ckpt_golden" "$ckpt_results"
    local leftover
    leftover="$(find "$ckpt_dir" -name '*.ckpt' | wc -l)"
    if [[ "$leftover" -ne 0 ]]; then
        echo "smoke: $leftover snapshots left after recovery" >&2
        exit 1
    fi
    echo "smoke: ckpt kill-resume OK (recovered record set matches golden)"
}

# Runner, resume, corrupted-trace, trace-cache and bench-binary legs.
run_bench_legs() {
    echo "== runner smoke: fig6_miss_definition, ZBP_JOBS=$jobs, ZBP_LEN_SCALE=$scale =="
    local bench results="$tmp_dir/fig6.jsonl" \
        resumed="$tmp_dir/fig6_resumed.jsonl" \
        fresh_out="$tmp_dir/fig6.out" replay_out="$tmp_dir/fig6_replay.out"
    bench="$(need bench/fig6_miss_definition)"

    ZBP_LEN_SCALE="$scale" ZBP_JOBS="$jobs" ZBP_RESULTS_JSONL="$results" \
        "$bench" | tee "$fresh_out"

    # The sweep is (baseline + 7 miss definitions) x 13 traces = 104
    # records; every cell must have produced exactly one, all ok.
    local records
    records="$(wc -l < "$results")"
    if [[ "$records" -ne 104 ]]; then
        echo "smoke: expected 104 JSONL records, got $records" >&2
        exit 1
    fi
    if ! grep -q '"config":"no-btb2"' "$results"; then
        echo "smoke: no baseline records in $results" >&2
        exit 1
    fi
    if grep -q '"ok":false' "$results"; then
        echo "smoke: failed jobs recorded in $results:" >&2
        grep '"ok":false' "$results" >&2
        exit 1
    fi
    echo "smoke: OK ($records records, all jobs ok)"

    # Resume leg: replaying the same sweep against its own results
    # file must satisfy every cell from it, write zero new records and
    # print the fresh run's table (the [zbp] banner names the sink, so
    # it is left out).  Records that share a label would pass the count
    # but print one cell's figure on every row.
    echo "== resume smoke: rerun against the results file =="
    ZBP_LEN_SCALE="$scale" ZBP_JOBS="$jobs" ZBP_RESULTS_JSONL="$resumed" \
        ZBP_RESUME_JSONL="$results" "$bench" | tee "$replay_out"
    local new_records
    new_records="$(wc -l < "$resumed" 2>/dev/null || echo 0)"
    if [[ "$new_records" -ne 0 ]]; then
        echo "smoke: resume re-ran $new_records jobs, expected 0" >&2
        exit 1
    fi
    if ! diff <(grep -v '^\[zbp\]' "$fresh_out") \
            <(grep -v '^\[zbp\]' "$replay_out") >&2; then
        echo "smoke: the replayed table differs from the fresh run's" >&2
        exit 1
    fi
    echo "smoke: resume OK (all $records records satisfied from the results file, same table)"

    # Corrupted-trace leg: a damaged trace file must be rejected with a
    # descriptive error and a nonzero exit, never a crash or silent
    # partial parse.
    echo "== corrupted-trace smoke: trace_tool on a damaged file =="
    local tool tracefile="$tmp_dir/trace.zbpt"
    tool="$(need examples/trace_tool)"
    "$tool" gen cb84 "$tracefile" 0.01 >/dev/null
    "$tool" info "$tracefile" >/dev/null   # sanity: intact file parses
    printf '\xff' | dd of="$tracefile" bs=1 seek=9 count=1 \
        conv=notrunc status=none             # corrupt the record count
    if "$tool" info "$tracefile" >/dev/null 2>&1; then
        echo "smoke: trace_tool accepted a corrupted trace" >&2
        exit 1
    fi
    local reject_msg
    reject_msg="$("$tool" info "$tracefile" 2>&1 || true)"
    if ! grep -q "error:" <<<"$reject_msg"; then
        echo "smoke: corrupted trace rejected without an error message" >&2
        exit 1
    fi
    echo "smoke: corrupted-trace OK (rejected with a descriptive error)"

    # Bad-config leg: a machine config that validate() rejects (here a
    # D-cache of 3 sets) must fail with an error and exit 1, not abort.
    echo "== bad-config smoke: trace_tool sim with a 3-set D-cache =="
    "$tool" gen cb84 "$tracefile" 0.01 >/dev/null
    printf 'dcache.sizeBytes = 4608\n' >"$tmp_dir/bad.cfg"
    local rc=0
    reject_msg="$("$tool" sim "$tracefile" 2 "$tmp_dir/bad.cfg" 2>&1)" ||
        rc=$?
    if [[ $rc -ne 1 ]] || ! grep -q "error:.*dcache" <<<"$reject_msg"; then
        echo "smoke: bad machine config not rejected (exit $rc)" >&2
        exit 1
    fi
    echo "smoke: bad-config OK (rejected with a descriptive error)"

    # Trace-cache leg: two consecutive fig2 runs against the same cache
    # directory — the first primes it, the second must satisfy every
    # suite from the cache and generate nothing.
    echo "== trace-cache smoke: fig2_cpi twice with ZBP_TRACE_CACHE =="
    local fig2 cache_dir="$tmp_dir/cache" warm_out
    fig2="$(need bench/fig2_cpi)"
    ZBP_LEN_SCALE="$scale" ZBP_JOBS="$jobs" ZBP_TRACE_CACHE="$cache_dir" \
        "$fig2" >/dev/null
    warm_out="$(ZBP_LEN_SCALE="$scale" ZBP_JOBS="$jobs" \
        ZBP_TRACE_CACHE="$cache_dir" "$fig2")"
    if ! grep -q "13 cache hits, 0 generated" <<<"$warm_out"; then
        echo "smoke: warm-cache run regenerated traces:" >&2
        grep "suite traces:" <<<"$warm_out" >&2 || true
        exit 1
    fi
    echo "smoke: trace cache OK (second run: 13 hits, 0 generated)"

    # Bench-binary leg: every figure/table/ablation binary (each
    # zbp_bench() target in bench/CMakeLists.txt) must run to
    # completion at a tiny trace scale, so a bench that aborts before
    # printing its table fails tier-1 instead of the next full-scale
    # reproduction.
    local bin_scale=0.01 bin_start=$SECONDS bin_count=0 name exe
    echo "== bench-binary smoke: every bench binary at ZBP_LEN_SCALE=$bin_scale =="
    for name in $(sed -n 's/^zbp_bench(\(.*\))$/\1/p' \
            "$repo_root/bench/CMakeLists.txt"); do
        exe="$(need "bench/$name")"
        if ! ZBP_LEN_SCALE="$bin_scale" ZBP_JOBS="$jobs" "$exe" >/dev/null; then
            echo "smoke: $name exited non-zero at ZBP_LEN_SCALE=$bin_scale" >&2
            exit 1
        fi
        bin_count=$((bin_count + 1))
    done
    echo "smoke: bench binaries OK ($bin_count ran, $((SECONDS - bin_start))s)"
}

case "$mode" in
    --obs-only) run_obs_leg ;;
    --ckpt-only) run_ckpt_leg ;;
    --bench-only) run_bench_legs ;;
    *)
        echo "== tier-1: configure + build + ctest =="
        cmake -B "$build_dir" -S "$repo_root"
        cmake --build "$build_dir" -j"$(nproc)"
        (cd "$build_dir" && ctest --output-on-failure -j)
        run_bench_legs
        run_obs_leg
        run_ckpt_leg
        ;;
esac

echo "smoke: total wall-clock $((SECONDS - smoke_start))s"
