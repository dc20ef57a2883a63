"""tdesigncap benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src. The
workload's inputs are built from the seed (set-up), then rounds of its fixed
case list run one case after another, each starting when the previous one
has returned, for about S seconds (at least one round). Every output is
checked against references in workloads.py outside the timed calls. A speed
probe timed around each case scales its user CPU time to a reference machine
speed, because the speed of a shared machine drifts between runs.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics, from
rounds that alternate untraced and traced. The line before it records the
environment and the run's details, and the same record is written to
.perfbench/<workload>-seed<N>-trace<T>.json (spans of a traced run to the
matching .spans.jsonl). See perfbench/README.md for every metric.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from here, before numpy is imported

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
BLAS_THREADS = 1  # no more than nproc; one thread keeps runs on a shared machine steady
WORKERS = 1  # the program's default; the benchmark never passes --workers
SETUP_SAMPLES = 3  # set-ups per run: this process plus fresh child processes
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
PROBES_PER_GAP = 3  # speed probes between consecutive cases
REFERENCE_PROBE_S = 0.0028  # median speed_probe() time on the 2-core Xeon VM of README.md
NEAR_S = 0.1  # least reach of the probes that scale a case: the adjacent probes


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="tdesigncap benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload's inputs, print the set-up time and exit")
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    commit = "unknown"  # a checkout without .git; git would search the parent directories
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "commit": commit, "seed": seed, "workers": WORKERS}


def child_setup_seconds(args) -> float:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                           "--seed", str(args.seed), "--setup-only"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with >= 10 cases beyond it.

    With fewer than 20 cases no percentile from the median up qualifies, and
    the median is reported: the slowest of so few cases is a single sample
    whose time varies too much from run to run to gate on.
    """
    import numpy as np

    n = len(latencies)
    p = next((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10), 50)
    return float(p), float(np.percentile(latencies, p))


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter, small-matrix and memory-bound numpy work.

    The machine's speed drifts by up to 1.8x for seconds at a time, and all
    three kinds of work slow down together; probes taken right before and
    right after a case measure the speed that case ran at.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(15000):
        acc += i * i
    m = np.full((32, 32), 0.01)
    for _ in range(60):
        m = np.tanh(m @ m + 0.5)
    buf = np.ones(1 << 19)
    for _ in range(4):
        buf *= 1.0000001
    return time.perf_counter() - t0


def run_rounds(workload, seconds: float, trace: bool, tracer):
    """Closed loop over rounds of cases; traced runs alternate untraced and traced rounds.

    Returns one record per case, with its raw time and the speed probes taken
    just before it (and when they ended), and the probes taken after the last
    case with their end time.
    """
    records = []
    durations = []  # real time per round, probes and checks included
    t_begin = time.perf_counter()
    r = 0
    while True:
        traced = trace and r % 2 == 1
        if traced:
            tracer.install()
        t_round = time.perf_counter()
        for case in workload.cases(r):
            probes = [speed_probe() for _ in range(PROBES_PER_GAP)]
            probe_t = time.perf_counter()
            if traced:
                tracer.case = f"r{r}:{case.label}"
            u0 = resource.getrusage(resource.RUSAGE_SELF).ru_utime
            t0 = time.perf_counter()
            try:
                raw, error = case.run(), None
            except Exception as exc:  # a raising case is a failed case; the run goes on
                raw, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            user = min(resource.getrusage(resource.RUSAGE_SELF).ru_utime - u0, dt)
            out, failed = None, []
            if error is None:
                try:
                    out = case.read(raw)
                    failed = workload.check(case, out)
                except Exception as exc:  # unreadable output fails the case
                    error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                failed = ["raised"]
            records.append({"round": r, "case": case.label, "seconds": dt, "user_s": user,
                            "traced": traced,
                            "probes": probes, "probe_t": probe_t, "failed": failed,
                            "error": error, "output": out,
                            "_case": case})
        if traced:
            tracer.uninstall()
        durations.append(time.perf_counter() - t_round)
        r += 1
        left = seconds - (time.perf_counter() - t_begin)
        if r >= (2 if trace else 1) and left < statistics.median(durations):
            last = [speed_probe() for _ in range(PROBES_PER_GAP)]
            return records, (last, time.perf_counter())


def normalise(records, last) -> None:
    """Add each case's time at the reference speed, scaled by the probes near it.

    Only the case's user CPU time is scaled: the probe measures the speed of
    user-mode work, and kernel time (page faults of the large certify cases)
    does not drift with it. Probes count as near when taken within the case's
    own duration (at least NEAR_S) before its start or after its end. A short
    case is scaled by the speed just around it; a long one, whose speed
    changes while it runs, by the speed over a stretch of the run as long as
    itself on either side.
    """
    gaps = [(rec["probe_t"], rec["probes"]) for rec in records] + [(last[1], last[0])]
    for rec in records:
        reach = max(rec["seconds"], NEAR_S)
        lo, hi = rec["probe_t"] - reach, rec["probe_t"] + rec["seconds"] + reach
        near = [p for t, probes in gaps if lo <= t <= hi for p in probes]
        rec["norm_s"] = (rec["user_s"] * REFERENCE_PROBE_S / statistics.median(near)
                         + rec["seconds"] - rec["user_s"])


def round_walls(records, key: str, traced: bool) -> list[float]:
    """Summed case times of each round run with the given tracing state."""
    walls: dict[int, float] = {}
    for rec in records:
        if rec["traced"] == traced:
            walls[rec["round"]] = walls.get(rec["round"], 0.0) + rec[key]
    return list(walls.values())


def planted_faults(workload, records) -> dict[str, bool]:
    """Whether each planted perturbation of a real, passing output makes its check fire."""
    good = [rec for rec in records if rec["round"] == 0 and not rec["failed"]]
    return {code: any(code in workload.check(rec["_case"], mutate(rec["output"]))
                      for rec in good)
            for code, mutate in workload.PLANTED}


def oracle_summary(records, tol: float) -> dict:
    outs = [rec["output"] for rec in records if rec["output"] and "bracket" in rec["output"]]
    if not outs:
        return {}
    summary = {"oracle.bracket_miss_ratio": sum(o["bracket"] > tol for o in outs) / len(outs),
               "oracle.gap_max": max(o.get("gap", 0.0) for o in outs)}
    slacks = [o["kl_slack"] for o in outs if "kl_slack" in o]
    if slacks:
        summary["oracle.kl_slack_min"] = min(slacks)
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tdesigncap", "__init__.py")):
        print("perfbench: src/tdesigncap not found; run from the root of a tdesigncap checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)

    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tmp_dir = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](tmp_dir)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload.setup(args.seed)
    setup_s = time.perf_counter() - T_START
    if tracer:
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = environment(args.seed)
    setups = [setup_s]
    if not args.trace:
        setups += [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]

    records, last = run_rounds(workload, args.seconds, bool(args.trace), tracer)
    normalise(records, last)
    planted = planted_faults(workload, records)
    attempted = len(records)
    failed = sum(bool(rec["failed"]) for rec in records)
    untraced = [rec["norm_s"] for rec in records if not rec["traced"]]
    raw = [rec["seconds"] for rec in records if not rec["traced"]]
    tail_p, tail_v = tail(untraced)
    probes = [p for rec in records for p in rec["probes"]] + last[0]
    details = {
        "workload": args.workload, "environment": env, "seconds": args.seconds,
        "rounds": records[-1]["round"] + 1, "cases": attempted,
        "fail_ratio": failed / attempted, "case_s_tail_percentile": tail_p,
        "case_s_tail_count": len(untraced), "setup_samples_s": setups,
        "speed_probe_s": statistics.median(probes),
        "raw_wall_s": statistics.median(round_walls(records, "seconds", False)),
        "raw_case_s_p50": statistics.median(raw), "raw_case_s_tail": tail(raw)[1],
        "planted_faults_fired": planted,
        **oracle_summary(records, workloads.TOL),
        "failures": [{k: rec[k] for k in ("round", "case", "failed", "error")}
                     for rec in records if rec["failed"]],
    }
    if args.trace:
        traced_rounds = len(round_walls(records, "seconds", True))
        layer = tracing.layer_metrics(tracer.spans, tracer.counts, traced_rounds)
        layer.update(oracle_summary(records, workloads.TOL))
        layer["trace.overhead_s"] = (statistics.median(round_walls(records, "seconds", True))
                                     - statistics.median(round_walls(records, "seconds", False)))
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit}
                   for name, unit in per_layer_units().items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(round_walls(records, "norm_s", False)),
                       "unit": "s"},
            "case_s_p50": {"value": statistics.median(untraced), "unit": "s"},
            "case_s_tail": {"value": tail_v, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    correct = failed == 0 and all(planted.values())
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**details, **result,
                   "cases_s": [[rec["round"], rec["case"], rec["seconds"], rec["norm_s"],
                                rec["traced"]] for rec in records]}, fh, indent=1)
    if tracer:
        tracer.write_spans(stem + ".spans.jsonl", T_START)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


def per_layer_units() -> dict[str, str]:
    """Per-layer metric names and units, as listed in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
