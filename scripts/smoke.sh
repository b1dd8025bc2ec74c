#!/usr/bin/env bash
#
# Smoke-verify the repo: the full tier-1 build + test cycle, then one
# sharded bench run exercising zbp::runner end to end (parallel
# execution + JSONL export) at a small trace scale, then every
# figure/table/ablation binary at a tiny scale.
#
# Usage:
#   scripts/smoke.sh               # full: configure, build, ctest, bench
#   scripts/smoke.sh --bench-only  # just the bench legs (what the
#                                  # runner_smoke ctest target runs, so
#                                  # ctest does not recurse into itself)
#   scripts/smoke.sh --cmp-only    # just the CMP leg (the cmp_smoke
#                                  # ctest target)
#   scripts/smoke.sh --obs-only    # just the observability leg (the
#                                  # obs_smoke ctest target): one sweep
#                                  # with ZBP_OBS_* set, then schema-
#                                  # validate the timeline + sidecar
#   scripts/smoke.sh --ckpt-only   # just the crash-recovery leg (the
#                                  # ckpt_smoke ctest target): sweep
#                                  # with ZBP_CKPT_* on, kill it mid-
#                                  # run, resume, compare to golden
#   scripts/smoke.sh --sample-only # just the sampled-simulation leg
#                                  # (the sample_smoke ctest target):
#                                  # exact-tiling bit-identity on a
#                                  # small trace, then a sampled run at
#                                  # 10x the smoke scale with a JSONL
#                                  # resume replay
#
# Environment:
#   ZBP_SMOKE_BUILD_DIR  build tree (default: <repo>/build)
#   ZBP_SMOKE_JOBS       worker threads for the bench leg (default: 4)
#   ZBP_SMOKE_SCALE      trace length scale for the bench leg (default: 0.05)

set -euo pipefail

smoke_start=$SECONDS

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${ZBP_SMOKE_BUILD_DIR:-$repo_root/build}"
jobs="${ZBP_SMOKE_JOBS:-4}"
scale="${ZBP_SMOKE_SCALE:-0.05}"
bench_only=0
cmp_only=0
obs_only=0
ckpt_only=0
sample_only=0
[[ "${1:-}" == "--bench-only" ]] && bench_only=1
[[ "${1:-}" == "--cmp-only" ]] && cmp_only=1
[[ "${1:-}" == "--obs-only" ]] && obs_only=1
[[ "${1:-}" == "--ckpt-only" ]] && ckpt_only=1
[[ "${1:-}" == "--sample-only" ]] && sample_only=1

# CMP leg: a 4-core mini-run of the sharing sweep on the CmpRunner
# path (per-core JSONL records + one sharing record per job), then a
# resume replay that must satisfy every job from the checkpoint.  With
# ZBP_CMP_CORES=4 the sweep is 2 mixes x 1 core count x 2 bank counts
# = 4 jobs, each writing 4 per-core records + 1 sharing record.
run_cmp_leg() {
    echo "== cmp smoke: cmp_sharing, 4 cores, ZBP_LEN_SCALE=$scale =="
    local cmp_bench="$build_dir/bench/cmp_sharing"
    if [[ ! -x "$cmp_bench" ]]; then
        echo "smoke: missing $cmp_bench (build the repo first)" >&2
        exit 1
    fi
    cmp_results="$(mktemp /tmp/zbp_smoke_cmp_XXXXXX.jsonl)"
    cmp_resumed="$(mktemp /tmp/zbp_smoke_cmp_resume_XXXXXX.jsonl)"
    trap 'rm -f ${results:-} ${resumed:-} ${tracefile:-} \
        "$cmp_results" "$cmp_resumed"; rm -rf ${cache_dir:-}' EXIT
    rm -f "$cmp_results" "$cmp_resumed"

    ZBP_LEN_SCALE="$scale" ZBP_JOBS="$jobs" ZBP_CMP_CORES=4 \
        ZBP_RESULTS_JSONL="$cmp_results" "$cmp_bench"

    local cmp_records
    cmp_records="$(wc -l < "$cmp_results")"
    if [[ "$cmp_records" -ne 20 ]]; then
        echo "smoke: expected 20 CMP JSONL records, got $cmp_records" >&2
        exit 1
    fi
    # Sharing records are ok=false by design (they are not re-runnable
    # jobs); a failed job is an ok=false record without the cmp tag.
    if grep '"ok":false' "$cmp_results" | grep -qv '"cmp":true'; then
        echo "smoke: failed CMP jobs recorded in $cmp_results:" >&2
        grep '"ok":false' "$cmp_results" | grep -v '"cmp":true' >&2
        exit 1
    fi
    if ! grep -q '"config":"cmp-hetero-c4-b4#shared"' "$cmp_results"; then
        echo "smoke: missing sharing record in $cmp_results" >&2
        exit 1
    fi
    echo "smoke: cmp OK ($cmp_records records)"

    echo "== cmp resume smoke: rerun against the checkpoint =="
    ZBP_LEN_SCALE="$scale" ZBP_JOBS="$jobs" ZBP_CMP_CORES=4 \
        ZBP_RESULTS_JSONL="$cmp_resumed" ZBP_RESUME_JSONL="$cmp_results" \
        "$cmp_bench" >/dev/null
    local cmp_new
    cmp_new="$(wc -l < "$cmp_resumed" 2>/dev/null || echo 0)"
    if [[ "$cmp_new" -ne 0 ]]; then
        echo "smoke: CMP resume re-ran $cmp_new jobs, expected 0" >&2
        exit 1
    fi
    echo "smoke: cmp resume OK (all jobs satisfied from checkpoint)"
}

# Observability leg: one small sweep with the full ZBP_OBS_* contract
# enabled — interval sidecar + Perfetto timeline — then schema-validate
# both.  The timeline must parse as trace-event JSON and carry spans on
# BOTH tracks (runner orchestration pid 1 and microarchitecture pid 2);
# the sidecar must contain interval rows.
run_obs_leg() {
    echo "== obs smoke: fig2_cpi with ZBP_OBS_INTERVAL + ZBP_OBS_TRACE =="
    local obs_bench="$build_dir/bench/fig2_cpi"
    if [[ ! -x "$obs_bench" ]]; then
        echo "smoke: missing $obs_bench (build the repo first)" >&2
        exit 1
    fi
    obs_trace="$(mktemp /tmp/zbp_smoke_obs_XXXXXX.json)"
    obs_out="$(mktemp /tmp/zbp_smoke_obs_XXXXXX.jsonl)"
    trap 'rm -f ${results:-} ${resumed:-} ${tracefile:-} \
        ${cmp_results:-} ${cmp_resumed:-} "$obs_trace" "$obs_out"; \
        rm -rf ${cache_dir:-}' EXIT
    rm -f "$obs_trace" "$obs_out"

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

# Crash-recovery leg: a golden fig2 sweep, then the same sweep with
# periodic checkpointing enabled (must be invisible in the results and
# leave no snapshots behind), then a kill -9 mid-sweep followed by a
# resumed rerun that must reproduce the golden record set exactly.
run_ckpt_leg() {
    echo "== ckpt smoke: fig2_cpi with ZBP_CKPT_DIR + ZBP_CKPT_INTERVAL =="
    local ckpt_bench="$build_dir/bench/fig2_cpi"
    if [[ ! -x "$ckpt_bench" ]]; then
        echo "smoke: missing $ckpt_bench (build the repo first)" >&2
        exit 1
    fi
    ckpt_golden="$(mktemp /tmp/zbp_smoke_ckpt_gold_XXXXXX.jsonl)"
    ckpt_results="$(mktemp /tmp/zbp_smoke_ckpt_XXXXXX.jsonl)"
    ckpt_dir="$(mktemp -d /tmp/zbp_smoke_ckpt_dir_XXXXXX)"
    trap 'rm -f ${results:-} ${resumed:-} ${tracefile:-} \
        ${cmp_results:-} ${cmp_resumed:-} ${obs_trace:-} ${obs_out:-} \
        "$ckpt_golden" "$ckpt_results"; \
        rm -rf ${cache_dir:-} "$ckpt_dir"' EXIT
    rm -f "$ckpt_golden" "$ckpt_results"

    ZBP_LEN_SCALE="$scale" ZBP_JOBS="$jobs" \
        ZBP_RESULTS_JSONL="$ckpt_golden" "$ckpt_bench" >/dev/null

    # Leg 1: checkpointing on, uninterrupted.  Results must be
    # bit-identical to the golden run and every snapshot consumed.
    ZBP_LEN_SCALE="$scale" ZBP_JOBS="$jobs" \
        ZBP_RESULTS_JSONL="$ckpt_results" \
        ZBP_CKPT_DIR="$ckpt_dir" ZBP_CKPT_INTERVAL=20000 \
        "$ckpt_bench" >/dev/null
    ckpt_compare "$ckpt_golden" "$ckpt_results"
    local leftover
    leftover="$(find "$ckpt_dir" -name '*.ckpt' | wc -l)"
    if [[ "$leftover" -ne 0 ]]; then
        echo "smoke: $leftover snapshots left after a clean sweep" >&2
        exit 1
    fi
    echo "smoke: ckpt OK (checkpointed sweep matches golden, 0 leftover)"

    # Leg 2: SIGKILL the sweep once the first record lands, then rerun
    # with the same checkpoint dir and the partial JSONL as both sink
    # and resume file.  The merged record set must equal golden.  The
    # victim runs single-threaded so the kill reliably lands with most
    # of the sweep (and usually a mid-trace snapshot) outstanding.
    echo "== ckpt kill-resume smoke: SIGKILL mid-sweep, then recover =="
    rm -f "$ckpt_results"
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
    leftover="$(find "$ckpt_dir" -name '*.ckpt' | wc -l)"
    if [[ "$leftover" -ne 0 ]]; then
        echo "smoke: $leftover snapshots left after recovery" >&2
        exit 1
    fi
    echo "smoke: ckpt kill-resume OK (recovered record set matches golden)"
}

# Sampled-simulation leg: first the correctness anchor — an exact-mode
# sampled run whose tiling intervals must stitch bit-identically to the
# monolithic reference (the bench exits non-zero on mismatch) — then a
# fast sampled run at 10x the smoke scale writing per-interval JSONL
# records, replayed against its own results file: the resume pass must
# satisfy every interval from the checkpoint and write zero new records.
run_sample_leg() {
    echo "== sample smoke: sampled_sim exact-tiling cross-check, ZBP_LEN_SCALE=$scale =="
    local sample_bench="$build_dir/bench/sampled_sim"
    if [[ ! -x "$sample_bench" ]]; then
        echo "smoke: missing $sample_bench (build the repo first)" >&2
        exit 1
    fi
    sample_results="$(mktemp /tmp/zbp_smoke_sample_XXXXXX.jsonl)"
    sample_resumed="$(mktemp /tmp/zbp_smoke_sample_resume_XXXXXX.jsonl)"
    trap 'rm -f ${results:-} ${resumed:-} ${tracefile:-} \
        ${cmp_results:-} ${cmp_resumed:-} ${obs_trace:-} ${obs_out:-} \
        ${ckpt_golden:-} ${ckpt_results:-} \
        "$sample_results" "$sample_resumed"; \
        rm -rf ${cache_dir:-} ${ckpt_dir:-}' EXIT
    rm -f "$sample_results" "$sample_resumed"

    local check_out
    check_out="$(ZBP_LEN_SCALE="$scale" ZBP_JOBS="$jobs" \
        ZBP_SAMPLE_CHECK_EXACT=1 "$sample_bench")"
    if ! grep -q "exact-tiling cross-check: bit-identical" \
            <<<"$check_out"; then
        echo "smoke: exact-tiling stitch is not bit-identical:" >&2
        grep "cross-check" <<<"$check_out" >&2 || true
        exit 1
    fi
    echo "smoke: sample OK (exact-tiling stitch bit-identical)"

    local sample_scale
    sample_scale="$(python3 -c "print(10 * $scale)")"
    echo "== sample resume smoke: 10x sampled run (ZBP_LEN_SCALE=$sample_scale), then replay =="
    ZBP_LEN_SCALE="$sample_scale" ZBP_JOBS="$jobs" \
        ZBP_RESULTS_JSONL="$sample_results" "$sample_bench" >/dev/null

    local sample_records
    sample_records="$(wc -l < "$sample_results")"
    if [[ "$sample_records" -lt 2 ]]; then
        echo "smoke: expected >=2 interval records, got $sample_records" >&2
        exit 1
    fi
    if ! grep -q '"config":"sampled-fast#iv0"' "$sample_results"; then
        echo "smoke: missing interval record in $sample_results" >&2
        exit 1
    fi
    if grep -q '"ok":false' "$sample_results"; then
        echo "smoke: failed intervals recorded in $sample_results:" >&2
        grep '"ok":false' "$sample_results" >&2
        exit 1
    fi

    ZBP_LEN_SCALE="$sample_scale" ZBP_JOBS="$jobs" \
        ZBP_RESULTS_JSONL="$sample_resumed" \
        ZBP_RESUME_JSONL="$sample_results" "$sample_bench" >/dev/null
    local sample_new
    sample_new="$(wc -l < "$sample_resumed" 2>/dev/null || echo 0)"
    if [[ "$sample_new" -ne 0 ]]; then
        echo "smoke: sample resume re-ran $sample_new intervals, expected 0" >&2
        exit 1
    fi
    echo "smoke: sample resume OK ($sample_records intervals satisfied from checkpoint)"
}

if [[ "$cmp_only" == 1 ]]; then
    run_cmp_leg
    echo "smoke: total wall-clock $((SECONDS - smoke_start))s"
    exit 0
fi

if [[ "$obs_only" == 1 ]]; then
    run_obs_leg
    echo "smoke: total wall-clock $((SECONDS - smoke_start))s"
    exit 0
fi

if [[ "$ckpt_only" == 1 ]]; then
    run_ckpt_leg
    echo "smoke: total wall-clock $((SECONDS - smoke_start))s"
    exit 0
fi

if [[ "$sample_only" == 1 ]]; then
    run_sample_leg
    echo "smoke: total wall-clock $((SECONDS - smoke_start))s"
    exit 0
fi

if [[ "$bench_only" == 0 ]]; then
    echo "== tier-1: configure + build + ctest =="
    cmake -B "$build_dir" -S "$repo_root"
    cmake --build "$build_dir" -j
    (cd "$build_dir" && ctest --output-on-failure -j)
fi

echo "== runner smoke: fig5_btb2_size, ZBP_JOBS=$jobs, ZBP_LEN_SCALE=$scale =="
bench="$build_dir/bench/fig5_btb2_size"
if [[ ! -x "$bench" ]]; then
    echo "smoke: missing $bench (build the repo first)" >&2
    exit 1
fi

results="$(mktemp /tmp/zbp_smoke_XXXXXX.jsonl)"
trap 'rm -f "$results"' EXIT
rm -f "$results"

ZBP_LEN_SCALE="$scale" ZBP_JOBS="$jobs" ZBP_RESULTS_JSONL="$results" \
    "$bench"

# The sweep is 13 baseline + 5 configurations x 13 traces = 78 jobs;
# every job must have produced exactly one JSONL record, all of them ok.
records="$(wc -l < "$results")"
if [[ "$records" -ne 78 ]]; then
    echo "smoke: expected 78 JSONL records, got $records" >&2
    exit 1
fi
if ! grep -q '"config":"baseline"' "$results"; then
    echo "smoke: no baseline records in $results" >&2
    exit 1
fi
if grep -q '"ok":false' "$results"; then
    echo "smoke: failed jobs recorded in $results:" >&2
    grep '"ok":false' "$results" >&2
    exit 1
fi

echo "smoke: OK ($records records, all jobs ok)"

# Resume leg: replaying the same sweep against its own results file
# must satisfy every job from the checkpoint and write zero new
# records.
echo "== resume smoke: rerun against the checkpoint =="
resumed="$(mktemp /tmp/zbp_smoke_resume_XXXXXX.jsonl)"
trap 'rm -f "$results" "$resumed"' EXIT
rm -f "$resumed"
ZBP_LEN_SCALE="$scale" ZBP_JOBS="$jobs" ZBP_RESULTS_JSONL="$resumed" \
    ZBP_RESUME_JSONL="$results" "$bench"
new_records="$(wc -l < "$resumed" 2>/dev/null || echo 0)"
if [[ "$new_records" -ne 0 ]]; then
    echo "smoke: resume re-ran $new_records jobs, expected 0" >&2
    exit 1
fi
echo "smoke: resume OK (all $records jobs satisfied from checkpoint)"

# Corrupted-trace leg: a damaged trace file must be rejected with a
# descriptive error and a nonzero exit, never a crash or silent
# partial parse.
echo "== corrupted-trace smoke: trace_tool on a damaged file =="
tool="$build_dir/examples/trace_tool"
if [[ ! -x "$tool" ]]; then
    echo "smoke: missing $tool (build the repo first)" >&2
    exit 1
fi
tracefile="$(mktemp /tmp/zbp_smoke_trace_XXXXXX.zbpt)"
trap 'rm -f "$results" "$resumed" "$tracefile"' EXIT
"$tool" gen cb84 "$tracefile" 0.01 >/dev/null
"$tool" info "$tracefile" >/dev/null   # sanity: intact file parses
printf '\xff' | dd of="$tracefile" bs=1 seek=9 count=1 \
    conv=notrunc status=none             # corrupt the header version
if "$tool" info "$tracefile" >/dev/null 2>&1; then
    echo "smoke: trace_tool accepted a corrupted trace" >&2
    exit 1
fi
reject_msg="$("$tool" info "$tracefile" 2>&1 || true)"
if ! grep -q "error:" <<<"$reject_msg"; then
    echo "smoke: corrupted trace rejected without an error message" >&2
    exit 1
fi
echo "smoke: corrupted-trace OK (rejected with a descriptive error)"

# Trace-cache leg: two consecutive fig2 runs against the same cache
# directory — the first primes it, the second must satisfy every suite
# from the cache and generate nothing.
echo "== trace-cache smoke: fig2_cpi twice with ZBP_TRACE_CACHE =="
fig2="$build_dir/bench/fig2_cpi"
if [[ ! -x "$fig2" ]]; then
    echo "smoke: missing $fig2 (build the repo first)" >&2
    exit 1
fi
cache_dir="$(mktemp -d /tmp/zbp_smoke_cache_XXXXXX)"
trap 'rm -f "$results" "$resumed" "$tracefile"; rm -rf "$cache_dir"' EXIT
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
# zbp_bench() target in bench/CMakeLists.txt) must run to completion at
# a tiny trace scale, so a bench that aborts before printing its table
# fails tier-1 instead of the next full-scale reproduction.
bin_scale=0.01
echo "== bench-binary smoke: every bench binary at ZBP_LEN_SCALE=$bin_scale =="
bin_start=$SECONDS
bin_count=0
for name in $(sed -n 's/^zbp_bench(\(.*\))$/\1/p' \
        "$repo_root/bench/CMakeLists.txt"); do
    exe="$build_dir/bench/$name"
    if [[ ! -x "$exe" ]]; then
        echo "smoke: missing $exe (build the repo first)" >&2
        exit 1
    fi
    if ! ZBP_LEN_SCALE="$bin_scale" ZBP_JOBS="$jobs" "$exe" >/dev/null; then
        echo "smoke: $name exited non-zero at ZBP_LEN_SCALE=$bin_scale" >&2
        exit 1
    fi
    bin_count=$((bin_count + 1))
done
echo "smoke: bench binaries OK ($bin_count ran, $((SECONDS - bin_start))s)"

# The bench-only leg is the runner_smoke ctest target; the CMP, obs,
# ckpt and sample legs have their own ctest targets (cmp_smoke,
# obs_smoke, ckpt_smoke, sample_smoke), so only the full run stacks all
# of them.
if [[ "$bench_only" == 0 ]]; then
    run_cmp_leg
    run_obs_leg
    run_ckpt_leg
    run_sample_leg
fi

echo "smoke: total wall-clock $((SECONDS - smoke_start))s"
