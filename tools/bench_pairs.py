"""Benchmark two commits in alternating pairs and write a BENCH_*.json summary.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_prN.json --workdir DIR \
        [--claim WORKLOAD:METRIC] [--note TEXT] [--setup-only N]

Run it from the root of a git checkout. Each commit is exported with
``git archive`` into DIR/<commit hash>, so the runs see exactly the
committed files. For each workload, pair i runs the benchmark command of
BENCHMARK.json (``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0``, T its ``run_seconds``) in both copies, one after the other: the
parent first in pairs 1, 3, ..., the change first in pairs 2, 4, .... Every
workload of BASE_SEED runs PAIRS pairs, at seeds BASE_SEED[W] + 1 ... + PAIRS;
TRACED_PAIRS ``--trace 1`` pairs follow at the next seeds, in the same
alternating order. With ``--setup-only N``, N alternating ``run.py
--setup-only`` runs per side and workload follow at the next seeds: they time
only the set-up whose ``setup_s`` the pairs gate, which is bimodal from run to
run, so a ``setup_s`` reading can be checked on more runs than the pairs give.
Every run's last output line is appended to DIR/runs.jsonl, keyed by
workload, seed, trace flag (``"setup-only"`` for those runs) and commit, and a
run found there is not repeated, so an interrupted run of this script resumes.

The summary holds, per workload and end-to-end metric, each side's median,
inclusive quartiles and runs, the relative change of the medians, the
number of pairs the change reads lower and two verdicts (see ``verdicts``):
``within_bound`` and ``resolved``. With ``--claim``, the claim records
whether it is met (see ``claim_verdict``). Per workload's traced pairs, it
holds every per-layer metric that is nonzero in any of their runs, with each
side's median and runs and the number of pairs the change reads lower.
Under ``setup_only``, per workload, it holds each side's median, inclusive
quartiles and runs of ``setup_s`` from the ``--setup-only`` runs.
"""

from __future__ import annotations

import argparse
import json
import math
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
CLAIM_SHARE = 0.9  # a claimed gain must read better in at least this share of the pairs
SIDES = ("parent", "change")
SETUP_ONLY = "setup-only"  # the trace slot of a run.py --setup-only run


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
        self.environment = next((rec["environment"] for rec in self.done.values()
                                 if "environment" in rec), None)

    def command(self, workload: str, seed: int, trace: int | str) -> list[str]:
        if trace == SETUP_ONLY:
            return [*self.bench["command"], "--workload", workload, "--seed", str(seed),
                    "--setup-only"]
        return [*self.bench["command"], "--workload", workload, "--seed", str(seed),
                "--seconds", str(self.bench["run_seconds"]), "--trace", str(trace)]

    def get(self, workload: str, seed: int, trace: int | str, side: str) -> dict:
        key = (workload, seed, trace, self.commits[side])
        if key not in self.done:
            cmd = self.command(workload, seed, trace)
            print(f"{side}: {' '.join(cmd)}", file=sys.stderr, flush=True)
            proc = subprocess.run(cmd, cwd=self.roots[side], capture_output=True, text=True,
                                  timeout=20 * self.bench["run_seconds"] + 600)
            lines = proc.stdout.strip().splitlines()
            setup_only = trace == SETUP_ONLY  # one line, {"setup_s": ...}, and no details
            if proc.returncode != 0 or len(lines) < (1 if setup_only else 2):
                raise RuntimeError(f"{key}: exit {proc.returncode}: {proc.stderr.strip()[-800:]}")
            rec = {"key": list(key), "result": json.loads(lines[-1])}
            if not setup_only:
                rec["environment"] = json.loads(lines[-2])["environment"]
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec) + "\n")
            self.done[key] = rec
            self.environment = self.environment or rec.get("environment")
        return self.done[key]["result"]


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdicts(parent: list[float], change: list[float], bound: float, better: str) -> dict:
    """Whether the change's median is within ``bound`` (relative to the parent's median) of
    the parent's in the worse direction, and whether the runs resolve the bound: they do not
    when the parent's interquartile range exceeds it, unless every change run is better than
    every parent run. ``better`` is BENCHMARK.json's "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    p = summary(parent)
    worse = sign * (statistics.median(change) - p["median"]) / p["median"]
    separated = all(sign * (c - q) < 0 for c in change for q in parent)
    return {"within_bound": worse <= bound,
            "resolved": (p["q3"] - p["q1"]) / p["median"] <= bound or separated}


def claim_verdict(parent: list[float], change: list[float], better: str) -> dict:
    """A claimed gain is met when the change is better in at least CLAIM_SHARE of the pairs
    (a tie counts for neither side) and its median beats the parent's by more than the
    parent's interquartile range. Both lists are in pair order."""
    sign = 1.0 if better == "lower" else -1.0
    p = summary(parent)
    better_in = sum(sign * (c - q) < 0 for q, c in zip(parent, change))
    gap = sign * (p["median"] - statistics.median(change))
    iqr = p["q3"] - p["q1"]
    return {"change_better_in_pairs": better_in, "pairs": len(parent), "median_gap": gap,
            "parent_iqr": iqr,
            "claim_met": better_in >= math.ceil(CLAIM_SHARE * len(parent)) and gap > iqr}


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
            "unit": m["unit"], "bound": m["bound"], "better": m["better"],
            "parent": parent, "change": change,
            "relative_change": (change["median"] - parent["median"]) / parent["median"],
            "change_lower_in_pairs": sum(c < p for p, c in zip(vals["parent"], vals["change"])),
            **verdicts(vals["parent"], vals["change"], m["bound"], m["better"]),
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


def setup_only(runs: Runs, workload: str, count: int) -> dict:
    """``count`` alternating ``--setup-only`` runs per side, at the seeds after the traced
    pairs: each side's ``setup_s`` summary and the relative change of the medians."""
    first = BASE_SEED[workload] + PAIRS + TRACED_PAIRS
    seeds = [first + i for i in range(1, count + 1)]
    order, results = paired_runs(runs, workload, seeds, SETUP_ONLY)
    vals = {side: [r["setup_s"] for r in results[side]] for side in SIDES}
    parent, change = summary(vals["parent"]), summary(vals["change"])
    return {
        "seeds": seeds, "runs_per_side": count,
        "commands": [" ".join(runs.command(workload, seed, SETUP_ONLY)) for seed in seeds],
        "order": {str(seed): list(sides) for seed, sides in order.items()},
        "parent": parent, "change": change,
        "relative_change": (change["median"] - parent["median"]) / parent["median"],
        "change_lower_in_pairs": sum(c < p for p, c in zip(vals["parent"], vals["change"])),
    }


def machine(env: dict) -> str:
    """One line naming the machine of a run record; scipy only if the record has it."""
    scipy = f" scipy {env['scipy']}," if "scipy" in env else ""
    return (f"{env['nproc']}-core {env['cpu']} (nproc {env['nproc']}), {env['blas_threads']}"
            f" BLAS thread(s), Python {env['python']}, numpy {env['numpy']},{scipy}"
            f" {env['blas']}")


METHOD = ("Each command was run from the root of a git archive copy of the parent commit and of"
          " the change commit, alternating which side ran first per seed (order per seed"
          " below), sequentially, with the BLAS thread count set by run.py. Medians and"
          " quartiles over the runs: statistics.quantiles(n=4, method='inclusive')."
          " change_lower_in_pairs counts pairs where the change's value is lower."
          " within_bound: the change's median is worse than the parent's by at most the"
          " metric's bound, relative to the parent's median, in its 'better' direction."
          " resolved: the parent's interquartile range is at most the bound (relative to its"
          " median), or every change run is better than every parent run. A claim is met when"
          " the change is better in at least nine tenths of the pairs (ties count for neither"
          " side) and the gap of the medians exceeds the parent's interquartile range."
          " traced_pairs lists the per-layer metrics that are nonzero in any traced run, with"
          " each side's median over its --trace 1 runs (statistics.median), alternating as"
          " above. setup_only, when present, summarises run.py --setup-only runs of each"
          " side, alternating as above. Written by tools/bench_pairs.py.")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--out", required=True, help="summary JSON to write")
    p.add_argument("--workdir", required=True, help="directory for the copies and runs.jsonl")
    p.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims to improve")
    p.add_argument("--note", default="", help="what the change does, for the summary")
    p.add_argument("--setup-only", type=int, default=0, metavar="N",
                   help="also run N >= 2 alternating run.py --setup-only runs per side and"
                        " workload")
    args = p.parse_args(argv)
    if args.setup_only == 1 or args.setup_only < 0:
        p.error(f"--setup-only needs 0 or at least 2 runs per side, got {args.setup_only}")

    commits = {"parent": rev(args.parent), "change": rev(args.change)}
    os.makedirs(args.workdir, exist_ok=True)
    change_root = export(commits["change"], os.path.join(args.workdir, commits["change"]))
    with open(os.path.join(change_root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    runs = Runs(os.path.join(args.workdir, "runs.jsonl"), commits, args.workdir, bench)
    e2e = {w: end_to_end(runs, w) for w in BASE_SEED}
    traced = {w: traced_pairs(runs, w) for w in BASE_SEED}
    setups = {w: setup_only(runs, w, args.setup_only) for w in BASE_SEED if args.setup_only}
    claim = None
    if args.claim:
        workload, metric = args.claim.split(":")
        m = e2e[workload]["metrics"][metric]
        claim = {"workload": workload, "metric": metric,
                 **claim_verdict(m["parent"]["runs"], m["change"]["runs"], m["better"])}
    out = {"change": args.note, "parent_commit": commits["parent"],
           "change_commit": commits["change"], "claim": claim,
           "machine": machine(runs.environment), "method": METHOD,
           "end_to_end": e2e, "traced_pairs": traced}
    if setups:
        out["setup_only"] = setups
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
