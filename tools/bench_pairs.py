"""Benchmark two commits in alternating pairs and write a BENCH_*.json summary.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_prN.json --workdir DIR \
        [--claim WORKLOAD:METRIC] [--note TEXT]

Run it from the root of a git checkout. Each commit is exported with
``git archive`` into DIR/<commit hash>, so the runs see exactly the
committed files. For each workload, pair i runs the benchmark command of
BENCHMARK.json (``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0``, T its ``run_seconds``) in both copies, one after the other: the
parent first in pairs 1, 3, ..., the change first in pairs 2, 4, .... Every
workload of BASE_SEED runs PAIRS pairs, at seeds BASE_SEED[W] + 1 ... + PAIRS;
TRACED_PAIRS ``--trace 1`` pairs follow at the next seeds, in the same
alternating order. Every run's last output line is appended to
DIR/runs.jsonl, keyed by workload, seed, trace flag and commit, and a run
found there is not repeated, so an interrupted run of this script resumes.

The summary holds, per workload and end-to-end metric, each side's median,
inclusive quartiles and runs, the relative change of the medians and the
number of pairs the change reads lower; per workload's traced pairs, every
per-layer metric that is nonzero in any of their runs, with each side's
median and runs and the number of pairs the change reads lower.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

BASE_SEED = {"oracle_sweep": 9300, "oracle_points": 9200, "analytic_sweep": 9000,
             "certify_matrix": 9100}
PAIRS = 10
TRACED_PAIRS = 3  # one pair cannot resolve a 10-15 % move in a per-layer time
SIDES = ("parent", "change")


def export(commit: str, dest: str) -> str:
    """The committed tree of ``commit`` in ``dest`` (reused if it is already there)."""
    if not os.path.isdir(dest):
        with tempfile.TemporaryFile() as tar:
            subprocess.run(["git", "archive", commit], stdout=tar, check=True)
            tar.seek(0)
            with tarfile.open(fileobj=tar) as tf:
                tf.extractall(dest, filter="data")
    return dest


def rev(commit: str) -> str:
    return subprocess.run(["git", "rev-parse", commit], capture_output=True, text=True,
                          check=True).stdout.strip()


class Runs:
    """Benchmark runs by (workload, seed, trace, commit), kept in a JSON-lines file."""

    def __init__(self, path: str, commits: dict[str, str], workdir: str, bench: dict):
        self.path, self.commits, self.bench = path, commits, bench
        self.roots = {side: export(c, os.path.join(workdir, c)) for side, c in commits.items()}
        self.done = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    self.done[tuple(rec["key"])] = rec
        self.environment = next((rec["environment"] for rec in self.done.values()), None)

    def command(self, workload: str, seed: int, trace: int) -> list[str]:
        return [*self.bench["command"], "--workload", workload, "--seed", str(seed),
                "--seconds", str(self.bench["run_seconds"]), "--trace", str(trace)]

    def get(self, workload: str, seed: int, trace: int, side: str) -> dict:
        key = (workload, seed, trace, self.commits[side])
        if key not in self.done:
            cmd = self.command(workload, seed, trace)
            print(f"{side}: {' '.join(cmd)}", file=sys.stderr, flush=True)
            proc = subprocess.run(cmd, cwd=self.roots[side], capture_output=True, text=True,
                                  timeout=20 * self.bench["run_seconds"] + 600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                raise RuntimeError(f"{key}: exit {proc.returncode}: {proc.stderr.strip()[-800:]}")
            details, result = json.loads(lines[-2]), json.loads(lines[-1])
            rec = {"key": list(key), "result": result, "environment": details["environment"]}
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec) + "\n")
            self.done[key] = rec
            self.environment = self.environment or rec["environment"]
        return self.done[key]["result"]


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def paired_runs(runs: Runs, workload: str, seeds: list[int], trace: int):
    """One pair per seed, the parent first at the 1st, 3rd, ... seed: the order per seed and
    each side's results in seed order."""
    order = {seed: SIDES if i % 2 == 0 else SIDES[::-1] for i, seed in enumerate(seeds)}
    results = {side: [] for side in SIDES}
    for seed in seeds:
        for side in order[seed]:
            results[side].append(runs.get(workload, seed, trace, side))
    return order, results


def end_to_end(runs: Runs, workload: str) -> dict:
    seeds = [BASE_SEED[workload] + i for i in range(1, PAIRS + 1)]
    order, results = paired_runs(runs, workload, seeds, 0)
    metrics = {}
    for m in runs.bench["end_to_end"]:
        vals = {side: [r["metrics"][m["name"]]["value"] for r in results[side]] for side in SIDES}
        parent, change = summary(vals["parent"]), summary(vals["change"])
        metrics[m["name"]] = {
            "unit": m["unit"], "bound": m["bound"], "parent": parent, "change": change,
            "relative_change": (change["median"] - parent["median"]) / parent["median"],
            "change_lower_in_pairs": sum(c < p for p, c in zip(vals["parent"], vals["change"])),
        }
    return {
        "seeds": seeds, "pairs": PAIRS,
        "commands": [" ".join(runs.command(workload, seed, 0)) for seed in seeds],
        "order": {str(seed): list(sides) for seed, sides in order.items()},
        "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "correct": {side: all(r["correct"] for r in results[side]) for side in SIDES},
        "metrics": metrics,
    }


def traced_pairs(runs: Runs, workload: str) -> dict:
    seeds = [BASE_SEED[workload] + PAIRS + i for i in range(1, TRACED_PAIRS + 1)]
    order, results = paired_runs(runs, workload, seeds, 1)
    metrics = {}
    for name, m in results["parent"][0]["metrics"].items():
        vals = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        if any(vals["parent"]) or any(vals["change"]):
            metrics[name] = {
                "unit": m["unit"],
                "parent": {"median": statistics.median(vals["parent"]), "runs": vals["parent"]},
                "change": {"median": statistics.median(vals["change"]), "runs": vals["change"]},
                "change_lower_in_pairs": sum(c < p for p, c in zip(vals["parent"],
                                                                   vals["change"])),
            }
    return {
        "seeds": seeds, "pairs": TRACED_PAIRS,
        "commands": [" ".join(runs.command(workload, seed, 1)) for seed in seeds],
        "order": {str(seed): list(sides) for seed, sides in order.items()},
        "metrics": metrics,
    }


def machine(env: dict) -> str:
    return (f"{env['nproc']}-core {env['cpu']} (nproc {env['nproc']}), {env['blas_threads']}"
            f" BLAS thread(s), Python {env['python']}, numpy {env['numpy']},"
            f" scipy {env['scipy']}, {env['blas']}")


METHOD = ("Each command was run from the root of a git archive copy of the parent commit and of"
          " the change commit, alternating which side ran first per seed (order per seed"
          " below), sequentially, with the BLAS thread count set by run.py. Medians and"
          " quartiles over the runs: statistics.quantiles(n=4, method='inclusive')."
          " change_lower_in_pairs counts pairs where the change's value is lower."
          " traced_pairs lists the per-layer metrics that are nonzero in any traced run, with"
          " each side's median over its --trace 1 runs (statistics.median), alternating as"
          " above. Written by tools/bench_pairs.py.")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--out", required=True, help="summary JSON to write")
    p.add_argument("--workdir", required=True, help="directory for the copies and runs.jsonl")
    p.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims to improve")
    p.add_argument("--note", default="", help="what the change does, for the summary")
    args = p.parse_args(argv)

    commits = {"parent": rev(args.parent), "change": rev(args.change)}
    os.makedirs(args.workdir, exist_ok=True)
    change_root = export(commits["change"], os.path.join(args.workdir, commits["change"]))
    with open(os.path.join(change_root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    runs = Runs(os.path.join(args.workdir, "runs.jsonl"), commits, args.workdir, bench)
    e2e = {w: end_to_end(runs, w) for w in BASE_SEED}
    traced = {w: traced_pairs(runs, w) for w in BASE_SEED}
    claim = None
    if args.claim:
        workload, metric = args.claim.split(":")
        claim = {"workload": workload, "metric": metric}
    out = {"change": args.note, "parent_commit": commits["parent"],
           "change_commit": commits["change"], "claim": claim,
           "machine": machine(runs.environment), "method": METHOD,
           "end_to_end": e2e, "traced_pairs": traced}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
