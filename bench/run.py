"""Seeded benchmark of the three auctions, end to end and layer by layer.

One run, in its own process, with one caller and no extra threads:

    python3 bench/run.py --workload cut --seed 1 --seconds 20 --trace 0

prints one JSON object as its last line of standard output: with
`--trace 0` the end-to-end metrics of BENCHMARK.json, with `--trace 1`
its per-layer metrics. Repeat mode runs each workload several times,
one process after another, and prints each end-to-end metric's median
and spread against its bound:

    python3 bench/run.py --repeat 10 [--workload vc ...] [--seed 1]

See bench/README.md for the workloads, metrics and reference figures.
"""

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
CONFIG = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 1
# Set-up is measured SETUP_SAMPLES times per run and reported as the
# median: imports once in this process plus in fresh interpreters, and
# input generation plus instance preparation as whole passes. Like the
# auctions, set-up is timed in process CPU time (see workloads.Timer).
SETUP_SAMPLES = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.process_time(); import frugal; "
                "print(time.process_time() - t)")
# A traced run stops early past this many seconds of auctions.
TRACE_LIMIT_S = 90.0


def import_program() -> float:
    """Import `frugal` from this checkout's src/; exit 1 without it."""
    if not (SRC / "frugal" / "__init__.py").is_file():
        sys.exit(f"no frugal package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = process_time()
    import frugal  # noqa: F401
    return process_time() - start


def import_seconds(in_process: float) -> float:
    samples = [in_process]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True, check=True,
                             timeout=60)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    import_s = import_program()
    from spans import Tracer
    from workloads import WORKLOADS, Timer

    config = json.loads(CONFIG.read_text())
    wl = WORKLOADS[workload_name]
    tracer = Tracer()
    if trace:
        tracer.install()

    builds = []
    for _ in range(1 if trace else SETUP_SAMPLES):
        start = process_time()
        inputs = wl.generate(random.Random(seed), seconds)
        tracer.enabled = trace
        state = wl.prepare(inputs)
        tracer.enabled = False
        builds.append(process_time() - start)
    setup_s = (import_s if trace else import_seconds(import_s)) \
        + statistics.median(builds)

    # Untraced runs measure for `seconds` of wall time; a traced run does
    # the rounds an untraced one would on today's code, so its counts
    # repeat exactly.
    quota = math.ceil(seconds * wl.rounds_per_s)
    timer = Timer()
    records = []
    tracer.enabled = trace
    t0 = perf_counter()
    cpu0 = process_time()
    rounds = 0
    while True:
        records += wl.run_round(state, rounds, timer)
        rounds += 1
        elapsed = perf_counter() - t0
        if trace and (rounds >= quota or elapsed >= TRACE_LIMIT_S):
            break
        if not trace and elapsed >= seconds:
            break
    cpu_s = process_time() - cpu0
    tracer.enabled = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = tracer.layer_totals() if trace else {}
    for label, module, cached in (("flow", "frugal.flow", "_flow_vc_instance"),
                                  ("cut", "frugal.cut", "_cut_vc_instance")):
        info = getattr(sys.modules[module], cached).cache_info()
        layers[f"{label}.vc_instance_cache.hits"] = info.hits
        layers[f"{label}.vc_instance_cache.misses"] = info.misses

    # An auction that raised counts as failed; one whose output fails a
    # check counts as failed and makes the run incorrect.
    failed = wrong = 0
    for rec in records:
        problems = [rec.error] if rec.error else wl.problems(state, rec)
        if problems:
            if failed == 0:
                print(f"FAILED {rec.item}: {problems}", file=sys.stderr)
            failed += rec.calls
            wrong += rec.error is None
    controls = wl.controls(state, records)
    for name, rejected in controls.items():
        print(f"control {name}: {'rejected' if rejected else 'ACCEPTED'}",
              file=sys.stderr)

    lat = sorted(timer.latencies)
    completed = len(lat)
    e2e = {
        "auctions_per_cpu_s": completed / cpu_s,
        "auction_cpu_ms_p50": percentile(lat, 0.5) * 1e3,
        "auction_cpu_ms_p90": percentile(lat, 0.9) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"{workload_name} seed {seed}: {rounds} rounds, {timer.attempts} "
          f"auctions in {elapsed:.2f} s wall, {cpu_s:.2f} s CPU "
          f"({e2e['auctions_per_cpu_s']:.2f}/CPU s), setup {setup_s:.3f} s",
          file=sys.stderr)
    if trace:
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace-{workload_name}-seed{seed}.json"
        tracer.write(path, t0)
        print(f"spans written to {path}", file=sys.stderr)
    values = layers if trace else e2e
    wanted = config["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    return {"correct": wrong == 0 and all(controls.values()),
            "attempted": timer.attempts, "failed": failed,
            "metrics": metrics}


def repeat(names, runs: int, seed: int, seconds: int) -> None:
    """Run each workload `runs` times with seeds seed, seed+1, ... and
    print each end-to-end metric's median, quartiles and spread (the
    interquartile distance as a share of the median) against its bound."""
    config = json.loads(CONFIG.read_text())
    summary = {}
    for name in names:
        results = []
        for i in range(runs):
            out = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed + i), "--seconds", str(seconds),
                 "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            if out.returncode != 0:
                sys.exit(f"{name} seed {seed + i} failed:\n{out.stderr}")
            results.append(json.loads(out.stdout.strip().splitlines()[-1]))
        rows = {}
        for m in config["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": m["bound"],
                               "values": values}
            flag = "ok" if spread <= m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "TOO WIDE")
            print(f"{name:7s} {m['name']:15s} median {med:12.4f} {m['unit']:4s}"
                  f" q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:6.3f}"
                  f" bound {m['bound']:.2f}  {flag}")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{name:7s} failed share {sorted(shares)}, correct "
              f"{all(r['correct'] for r in results)}")
        summary[name] = {"seeds": [seed + i for i in range(runs)],
                         "metrics": rows,
                         "attempted": [r["attempted"] for r in results],
                         "failed": [r["failed"] for r in results],
                         "correct": [r["correct"] for r in results]}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"repeat-seed{seed}-x{runs}.json"
    path.write_text(json.dumps(summary, indent=1))
    print(f"summary written to {path}")


def main() -> None:
    workloads = ("vc", "flow", "cut", "replay")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads, action="append")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measured seconds (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="runs per workload; prints medians and spreads")
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(CONFIG.read_text())["run_seconds"]
    if args.repeat:
        repeat(args.workload or workloads, args.repeat, args.seed, seconds)
        return
    if not args.workload or len(args.workload) != 1:
        ap.error("a single run takes exactly one --workload")
    print(json.dumps(run(args.workload[0], args.seed, seconds,
                         bool(args.trace))))


if __name__ == "__main__":
    main()
