#!/usr/bin/env python3
"""Run one zbp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig2_full --seed 0 --seconds 25 --trace 0

Builds zbp_perfbench from perfbench/ (which compiles the zbp libraries from
src/) into .bench_build/perfbench, runs it in a scratch directory under
.bench_build, checks every simulated operation, and prints one JSON
line last: {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics and writes the spans to
.bench_build/perfbench-traces/<workload>-seed<seed>.json.

    python3 perfbench/run.py --workload all   # every workload, as a table
    python3 perfbench/run.py --record         # rewrite reference.json

See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
EXE = os.path.join(BUILD, "zbp_perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("fig2_full", "cmp4_shared", "sampled_long")
JOBS = 4
RUN_TIMEOUT_S = 170


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build zbp_perfbench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "zbp", "CMakeLists.txt")):
        die("the zbp sources (src/zbp) are not next to perfbench/", 2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", str(JOBS)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))


def run_bench(workload, seed, seconds, traced):
    """One zbp_perfbench run in a scratch directory; returns its JSON."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0",
           "--workdir", workdir]
    if traced:
        traces = os.path.join(BUILD_ROOT, "perfbench-traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--chrome-trace",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    # Only the benchmark chooses the library's knobs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZBP_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        die("zbp_perfbench timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        die("zbp_perfbench exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def check_ops(doc, ref):
    """(attempted, failed, problems).  Every repetition must reproduce the
    first one's counter digests (so the traced walk matches the library
    runner); seed 0 must also match the recorded reference."""
    first = {op[0]: op[1] for op in doc["reps"][0]["ops"]}
    attempted = failed = 0
    problems = []
    sets = [(rep["ops"], ref and ref["ops"]) for rep in doc["reps"]]
    if doc["final"]["ops"]:
        sets.append((doc["final"]["ops"], ref and ref["final_ops"]))
    for ops, expect in sets:
        seen = set()
        for op_id, digest, error in ops:
            attempted += 1
            seen.add(op_id)
            if error:
                problem = error
            elif expect is not None and expect.get(op_id) != digest:
                problem = "counter digest %s, reference %s" % (
                    digest, expect.get(op_id))
            elif op_id in first and first[op_id] != digest:
                problem = "counter digest differs from the first repetition"
            else:
                continue
            failed += 1
            problems.append("%s: %s" % (op_id, problem))
        for op_id in sorted(set(expect or ()) - seen):
            attempted += 1
            failed += 1
            problems.append("%s: not run" % op_id)
    return attempted, failed, problems


def median_of(reps, key):
    return statistics.median(key(r) for r in reps)


def end_to_end(doc):
    reps = [r for r in doc["reps"] if not r["traced"]]
    return {
        "setup_s": median_of(reps, lambda r: r["setup_s"]),
        "wall_s": median_of(reps, lambda r: r["wall_s"]),
        "sim_insts_per_s": median_of(
            reps, lambda r: r["sim_insts"] / (r["wall_s"] - r["setup_s"])),
        "peak_rss_mb": median_of(reps, lambda r: r["peak_rss_mb"]),
    }


def fidelity(doc, ref):
    """Simulated accuracy figures: medians over the repetitions (they are
    deterministic, so any repetition gives the same value)."""
    out = {}
    for name in ("sim.fig2.eff_gap_pp", "sim.fig2.gain_gap_pp"):
        if name in doc["reps"][0]["metrics"]:
            out[name] = doc["reps"][0]["metrics"][name]
    exact = doc["final"]["metrics"].get("sample.exact_cpi")
    if exact is None and ref:
        exact = ref.get("exact_cpi")
    cpi = doc["reps"][0]["metrics"].get("sample.cpi")
    if exact and cpi is not None:
        out["sample.cpi_err_pct"] = 100.0 * abs(cpi - exact) / exact
    return out


def per_layer(doc, names, ref):
    traced = [r for r in doc["reps"] if r["traced"]]
    plain = [r for r in doc["reps"] if not r["traced"]]
    out = {}
    for name in names:
        out[name] = statistics.median(
            {**doc["prime"], **r["metrics"]}.get(name, 0.0) for r in traced)
    out.update(fidelity(doc, ref))
    wall_t = median_of(traced, lambda r: r["wall_s"])
    wall_u = median_of(plain, lambda r: r["wall_s"])
    out["tracing.overhead_pct"] = 100.0 * (wall_t - wall_u) / wall_u
    return out


def measure(workload, seed, seconds, traced, spec):
    ref = load_reference()[workload] if seed == 0 else None
    doc = run_bench(workload, seed, seconds, traced)
    attempted, failed, problems = check_ops(doc, ref)
    section = spec["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    values = (per_layer(doc, units, ref) if traced else end_to_end(doc))
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    info = fidelity(doc, ref)
    info["failed_frac"] = failed / attempted
    return doc, problems, info, {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics}


def record():
    """Rewrite reference.json from seed-0 traced runs of every workload."""
    ref = {}
    for w in WORKLOADS:
        doc = run_bench(w, 0, 0, True)
        bad = [op for rep in doc["reps"] + [doc["final"]]
               for op in rep["ops"] if op[2]]
        if bad:
            die("not recording %s: %s" % (w, bad[0]))
        ref[w] = {"ops": {op[0]: op[1] for op in doc["reps"][0]["ops"]},
                  "final_ops": {op[0]: op[1] for op in doc["final"]["ops"]}}
        exact = doc["final"]["metrics"].get("sample.exact_cpi")
        if exact is not None:
            ref[w]["exact_cpi"] = exact
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    print("perfbench: wrote " + REFERENCE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0", 2)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    build()
    if args.record:
        record()
        return

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for w in names:
        doc, problems, info, result = measure(w, args.seed, args.seconds,
                                              bool(args.trace), spec)
        print("== %s seed %d: %d repetitions, %d workers" % (
            w, args.seed, len(doc["reps"]), doc["jobs"]))
        for p in problems:
            print("  FAILED " + p)
        for name, m in result["metrics"].items():
            print("  %-34s %.6g %s" % (name, m["value"], m["unit"]))
        for name, v in sorted(info.items()):
            if name not in result["metrics"]:
                print("  %-34s %.6g" % (name, v))
    if args.workload != "all":
        print(json.dumps(result))


if __name__ == "__main__":
    main()
