#!/usr/bin/env python3
"""Benchmark command: builds the library and the benchmark runner from
source, runs one workload, and prints one JSON result line.

    python3 perfbench/run.py --workload fig4_mlp --seed 1 --trace 0

Run from the repository root. The last line of stdout is
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. Build output and diagnostics go to stderr.

Maintenance modes (also run from the repository root):

    --selftest          check the metric catalogue, then build and run
                        the benchmark's own tests
    --fingerprints      record reference fingerprints for seeds
                        0..FINGERPRINT_SEEDS-1
    --write-spec        rewrite BENCHMARK.json from the metric catalogue
    --record            rewrite BENCHMARK.json, then rerun every workload
                        REPS times per mode on the default and held-out
                        seeds and rewrite the results in perfbench/record.json

The metric catalogue (perfbench/catalogue.json) names every workload and
metric with its unit, direction, bound and, for per-layer metrics, the
end-to-end metric and workload it is expected to move.
"""
import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORD = os.path.join(HERE, "record.json")
CATALOGUE = os.path.join(HERE, "catalogue.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 150
# Fresh processes whose set-up time joins the measured run's own. setup_s
# is the median over the half of these five cold starts that saw the least
# host steal per second, as round_ms is over the least-stolen calls.
SETUP_PROBES = 4
# Runs per workload, seed and mode that --record makes.
REPS = 5
# Seeds 0..FINGERPRINT_SEEDS-1 have a recorded reference fingerprint.
FINGERPRINT_SEEDS = 100
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


NOTES = {
    "socket_hostile_failures":
        "socket_hostile fails at this commit because of ROADMAP item 2: its "
        "in-proc oracle call starts ThreadPool::global(), fork() copies the "
        "pool into each socket worker without its threads, and a worker's "
        "first multi-band GEMM hangs until the coordinator kills it. The "
        "lost edges become crash faults, the trajectory diverges from the "
        "oracle, and the call counts as failed. The failures are reported "
        "as measured; runs are not re-seeded, split into fresh processes "
        "or reshaped to avoid them.",
    "thread_scaling":
        "Thread-scaling rows are omitted until ROADMAP item 2 lands: a "
        "1-thread trainer pool still runs its GEMMs on ThreadPool::global(), "
        "so a 1-thread row would not measure one thread.",
    "worst_edge_acc":
        "worst_edge_acc on fig4_mlp guards the trajectory and is not a "
        "quality signal: at benchmark length the MLP is still near chance.",
    "closure_gap":
        "obs.closure_gap_frac is reported against the ROADMAP target of 5% "
        "but not gated.",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    """Configure (once) and build `target`; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no library sources under src/; run from "
                         "the repository root of a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j",
                    str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, target)


def build_id():
    """Content hash of every source file the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench/cpp", "CMakeLists.txt",
                "perfbench/CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def load_json(path):
    if not os.path.isfile(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def run_process(cmd, scratch):
    os.makedirs(scratch, exist_ok=True)
    try:
        proc = subprocess.run(cmd + ["--scratch", scratch],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("perfbench: hm_perfbench exited with %d"
                         % proc.returncode)
    return json.loads(lines[-1])


def run_measured(binary, workload, seed, seconds, trace, bid):
    """One measured hm_perfbench process (plus set-up probes for --trace 0);
    returns its parsed result object."""
    expect = load_json(RECORD).get("reference_fingerprints", {}) \
        .get(workload, {}).get(str(seed))
    scratch = os.path.join(build_dir(), "scratch-%d" % os.getpid())
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--build-id", bid]
    if expect:
        cmd += ["--expect", expect]
    probes = [run_process(cmd + ["--setup-only"], scratch)
              for _ in range(SETUP_PROBES if trace == 0 else 0)]
    detail = run_process(cmd, scratch)
    if probes:
        # A probe's cold call is a train call like any other.
        for p in probes:
            detail["correct"] = detail["correct"] and p["correct"]
            detail["attempted"] += p["attempted"]
            detail["failed"] += p["failed"]
            detail["errors"] += p["errors"]
        setup = detail["metrics"]["setup_s"]
        starts = [(p["setup_steal_per_s"], p["setup_s"]) for p in probes]
        starts.append((detail["setup"]["steal_per_s"], setup["value"]))
        starts.sort(key=lambda s: s[0])
        values = [v for _, v in starts[:(len(starts) + 1) // 2]]
        q1, median, q3 = statistics.quantiles(values, n=4)
        setup.update(value=median, samples=len(values), q1=q1, q3=q3)
        detail["setup"]["cold_starts"] = [
            {"steal_per_s": r, "setup_s": v} for r, v in starts]
    return detail


def result_line(detail, trace):
    spec = load_json(SPEC).get("per_layer" if trace else "end_to_end", [])
    if not spec:
        raise SystemExit("perfbench: BENCHMARK.json lists no metrics")
    metrics = {}
    for s in spec:
        m = detail["metrics"].get(s["name"])
        if m is None or m["value"] is None:
            raise SystemExit("perfbench: metric %s was not measured"
                             % s["name"])
        metrics[s["name"]] = {"value": m["value"], "unit": s["unit"]}
    return {"correct": bool(detail["correct"]),
            "attempted": int(detail["attempted"]),
            "failed": int(detail["failed"]),
            "metrics": metrics}


def catalogue():
    with open(CATALOGUE) as fh:
        return json.load(fh)


def check_catalogue(cat):
    """Problems with the catalogue's names, units, bounds and targets."""
    problems = []
    e2e = {m["name"] for m in cat["end_to_end"]}
    names = {w["name"] for w in cat["workloads"]}
    seen = set()
    for m in cat["end_to_end"] + cat["per_layer"]:
        name = m["name"]
        if not NAME_RE.fullmatch(name):
            problems.append("illegal metric name %r" % name)
        if name in seen:
            problems.append("duplicate metric %s" % name)
        seen.add(name)
        if not UNIT_RE.fullmatch(m.get("unit", "")):
            problems.append("%s: illegal unit %r" % (name, m.get("unit")))
        if m["better"] not in ("lower", "higher"):
            problems.append("%s: better is %r" % (name, m["better"]))
        if not m["meaning"]:
            problems.append("%s: no meaning" % name)
    for m in cat["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append("%s: bound %r outside (0, 0.25]" %
                            (m["name"], m["bound"]))
    if not any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" and not m["spec_exclusion"]
               for m in cat["end_to_end"]):
        problems.append("no setup_s metric in s, lower is better")
    for m in cat["per_layer"]:
        if m["target_metric"] not in e2e:
            problems.append("%s targets metric %r" %
                            (m["name"], m["target_metric"]))
        if m["target_workload"] not in names:
            problems.append("%s targets workload %r" %
                            (m["name"], m["target_workload"]))
    for w in cat["workloads"]:
        if not NAME_RE.fullmatch(w["name"]):
            problems.append("illegal workload name %r" % w["name"])
        if len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append("%s: why is not one line of <= 200" % w["name"])
        if not w["note"]:
            problems.append("%s: no note" % w["name"])
    if cat["default_seed"] == cat["held_out_seed"]:
        problems.append("default and held-out seeds are the same")
    return problems


def selftest():
    problems = check_catalogue(catalogue())
    # The patterns themselves reject what the spec forbids.
    for bad in ("round ms", "_lead", "x" * 65):
        if NAME_RE.fullmatch(bad):
            problems.append("name pattern accepts %r" % bad)
    if UNIT_RE.fullmatch("GFLOP/s!"):
        problems.append("unit pattern accepts 'GFLOP/s!'")
    for p in problems:
        log("catalogue:", p)
    log("catalogue: %d problem(s)" % len(problems))
    tests = subprocess.run([build("perfbench_tests")]).returncode
    return 1 if problems or tests else 0


def write_spec(cat):
    """BENCHMARK.json, rendered from the catalogue."""
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": cat["run_seconds"],
        "workloads": [{"name": w["name"], "why": w["why"]}
                      for w in cat["workloads"] if not w["spec_exclusion"]],
        "end_to_end": [{"name": m["name"], "unit": m["unit"],
                        "better": m["better"], "bound": m["bound"]}
                       for m in cat["end_to_end"] if not m["spec_exclusion"]],
        "per_layer": [{"name": m["name"], "unit": m["unit"],
                       "better": m["better"]}
                      for m in cat["per_layer"] if not m["spec_exclusion"]],
    }
    with open(SPEC, "w") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")


def fingerprints(binary):
    record = load_json(RECORD)
    refs = {}
    scratch = os.path.join(build_dir(), "scratch-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    for w in catalogue()["workloads"]:
        out = subprocess.run([binary, "--fingerprint", w["name"], "--seed",
                              "0", "--count", str(FINGERPRINT_SEEDS),
                              "--scratch", scratch],
                             stdout=subprocess.PIPE, text=True, check=True)
        refs[w["name"]] = {str(i): fp for i, fp in
                           enumerate(out.stdout.split())}
        log("fingerprints:", w["name"], len(refs[w["name"]]))
    shutil.rmtree(scratch, ignore_errors=True)
    record["reference_fingerprints"] = refs
    with open(RECORD, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def record(binary):
    """Rerun every workload and rewrite the record and BENCHMARK.json."""
    cat = catalogue()
    write_spec(cat)
    run_seconds = cat["run_seconds"]
    bid = build_id()
    seeds = [cat["default_seed"], cat["held_out_seed"]]
    results = {}
    for w in cat["workloads"]:
        per_seed = {}
        for seed in seeds:
            runs = []
            for trace in (0, 1):
                for _ in range(REPS):
                    log("record:", w["name"], "seed", seed, "trace", trace)
                    runs.append(run_measured(binary, w["name"], seed,
                                           run_seconds, trace, bid))
            # End-to-end metrics come from the untraced (--trace 0) runs,
            # per-layer metrics from the traced ones.
            merged = {}
            for m in cat["end_to_end"] + cat["per_layer"]:
                name = m["name"]
                trace = 0 if m in cat["end_to_end"] else 1
                found = [r["metrics"][name] for r in runs
                         if r["trace"] == trace and name in r["metrics"]
                         and r["metrics"][name]["samples"] > 0
                         and r["metrics"][name]["value"] is not None]
                if not found:
                    continue
                values = [f["value"] for f in found]
                merged[name] = {"median": statistics.median(values),
                                "spread": quartile_spread(values),
                                "runs": len(values), "unit": m["unit"],
                                "samples_per_run": [f["samples"]
                                                    for f in found]}
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            merged["failed_frac"] = {"median": failed / attempted,
                                     "spread": 0.0, "runs": len(runs),
                                     "unit": "fraction",
                                     "samples_per_run": [
                                         r["attempted"] for r in runs]}
            per_seed[str(seed)] = {
                "correct": all(r["correct"] for r in runs),
                "attempted": attempted, "failed": failed,
                "errors": sorted({e for r in runs for e in r["errors"]}),
                "reference": runs[0]["reference"],
                "fingerprint": runs[0]["fingerprint"],
                "metrics": merged,
                "span_table": next((r["span_table"] for r in runs
                                    if r["trace"] == 1), {}),
                "manifest": runs[0]["manifest"],
                "host": [r["host"] for r in runs],
            }
        results[w["name"]] = per_seed
    rec = load_json(RECORD)
    rec.update({
        "schema": "hm.perfbench/1",
        "generated_by": "python3 perfbench/run.py --record",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "build_id": bid,
        "run_seconds": run_seconds,
        "repetitions_per_seed_and_mode": REPS,
        "default_seed": cat["default_seed"],
        "held_out_seed": cat["held_out_seed"],
        "catalogue": cat,
        "notes": NOTES,
        "results": results,
    })
    with open(RECORD, "w") as fh:
        json.dump(rec, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int,
                    help="workload seed (default: default_seed of the "
                         "catalogue)")
    ap.add_argument("--seconds", type=float,
                    help="measuring time (default: run_seconds of the "
                         "catalogue; --record always uses run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--fingerprints", action="store_true")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--write-spec", action="store_true")
    args = ap.parse_args()

    os.chdir(ROOT)
    if args.selftest:
        return selftest()
    if args.write_spec:
        write_spec(catalogue())
        return 0
    binary = build("hm_perfbench")
    if args.fingerprints:
        fingerprints(binary)
        return 0
    if args.record:
        record(binary)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    cat = catalogue()
    seed = cat["default_seed"] if args.seed is None else args.seed
    detail = run_measured(binary, args.workload, seed,
                          args.seconds or cat["run_seconds"], args.trace,
                          build_id())
    for e in detail.get("errors", []):
        log("perfbench:", e)
    log("perfbench: host steal ticks over the run:",
        detail["host"]["steal_ticks"])
    print(json.dumps(result_line(detail, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
