"""The verdicts of tools/bench_pairs.py on synthetic runs."""

import importlib.util
import json
import pathlib
import sys

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# median 1.00; inclusive quartiles 0.9825 and 1.0175, so an IQR of 0.035
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


class TestVerdicts:
    def test_within_bound_is_relative_to_the_parents_median(self):
        assert bench_pairs.verdicts(PARENT, [x * 1.2 for x in PARENT], 0.25, "lower")[
            "within_bound"]
        assert not bench_pairs.verdicts(PARENT, [x * 1.3 for x in PARENT], 0.25, "lower")[
            "within_bound"]

    def test_within_bound_follows_the_better_direction(self):
        lower = [x * 0.7 for x in PARENT]
        assert bench_pairs.verdicts(PARENT, lower, 0.25, "lower")["within_bound"]
        assert not bench_pairs.verdicts(PARENT, lower, 0.25, "higher")["within_bound"]
        assert bench_pairs.verdicts(PARENT, [x * 1.7 for x in PARENT], 0.25, "higher")[
            "within_bound"]

    def test_a_tight_parent_resolves_the_bound(self):
        assert bench_pairs.verdicts(PARENT, PARENT, 0.25, "lower")["resolved"]

    def test_a_wide_parent_does_not(self):
        wide = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]  # IQR 0.55 of median 1.0
        got = bench_pairs.verdicts(wide, wide, 0.25, "lower")
        assert got == {"within_bound": True, "resolved": False}

    def test_separated_runs_resolve_a_wide_parent(self):
        wide = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
        assert bench_pairs.verdicts(wide, [0.4] * 10, 0.25, "lower")["resolved"]
        # one change run no better than the best parent run breaks the separation
        assert not bench_pairs.verdicts(wide, [0.4] * 9 + [0.5], 0.25, "lower")["resolved"]
        assert bench_pairs.verdicts(wide, [1.6] * 10, 0.25, "higher")["resolved"]


class TestClaimVerdict:
    def test_met(self):
        got = bench_pairs.claim_verdict(PARENT, [x - 0.1 for x in PARENT], "lower")
        assert got["claim_met"]
        assert got["change_better_in_pairs"] == 10
        assert got["median_gap"] == pytest.approx(0.1)
        assert got["parent_iqr"] == pytest.approx(0.035)

    def test_eight_of_ten_pairs_is_not_enough(self):
        change = [x - 0.1 for x in PARENT[:8]] + [x + 0.1 for x in PARENT[8:]]
        got = bench_pairs.claim_verdict(PARENT, change, "lower")
        assert got["change_better_in_pairs"] == 8
        assert not got["claim_met"]

    def test_ties_count_for_neither_side(self):
        change = [x - 0.1 for x in PARENT[:8]] + PARENT[8:]
        assert bench_pairs.claim_verdict(PARENT, change, "lower")["change_better_in_pairs"] == 8
        change = [x - 0.1 for x in PARENT[:9]] + PARENT[9:]
        assert bench_pairs.claim_verdict(PARENT, change, "lower")["claim_met"]

    def test_the_median_gap_must_exceed_the_parents_iqr(self):
        got = bench_pairs.claim_verdict(PARENT, [x - 0.02 for x in PARENT], "lower")
        assert got["change_better_in_pairs"] == 10
        assert got["median_gap"] < got["parent_iqr"]
        assert not got["claim_met"]

    def test_higher_is_better(self):
        assert bench_pairs.claim_verdict(PARENT, [x + 0.1 for x in PARENT], "higher")[
            "claim_met"]
        assert not bench_pairs.claim_verdict(PARENT, [x + 0.1 for x in PARENT], "lower")[
            "claim_met"]


class TestMachine:
    ENV = {"nproc": 2, "cpu": "Xeon", "blas_threads": 1, "python": "3.11.7", "numpy": "2.4.6",
           "blas": "openblas"}

    def test_names_scipy_when_recorded(self):
        line = bench_pairs.machine({**self.ENV, "scipy": "1.17.1"})
        assert line == ("2-core Xeon (nproc 2), 1 BLAS thread(s), Python 3.11.7, numpy 2.4.6,"
                        " scipy 1.17.1, openblas")

    def test_a_record_without_scipy(self):
        assert bench_pairs.machine(self.ENV) == ("2-core Xeon (nproc 2), 1 BLAS thread(s),"
                                                 " Python 3.11.7, numpy 2.4.6, openblas")


class _SetupRuns:
    """A stand-in for Runs: one synthetic setup_s per (seed, side), and the order of the gets."""

    def __init__(self, values):
        self.values, self.calls = {side: iter(v) for side, v in values.items()}, []

    def command(self, workload, seed, trace):
        return ["run.py", "--workload", workload, "--seed", str(seed), f"--{trace}"]

    def get(self, workload, seed, trace, side):
        self.calls.append((seed, trace, side))
        return {"setup_s": next(self.values[side])}


class TestSetupOnly:
    PARENT_S = [0.14, 0.20, 0.13, 0.21]
    CHANGE_S = [0.15, 0.19, 0.13, 0.20]

    def test_alternating_runs_after_the_traced_pairs(self):
        runs = _SetupRuns({"parent": self.PARENT_S, "change": self.CHANGE_S})
        got = bench_pairs.setup_only(runs, "oracle_sweep", 4)
        first = (bench_pairs.BASE_SEED["oracle_sweep"] + bench_pairs.PAIRS
                 + bench_pairs.TRACED_PAIRS + 1)
        assert got["seeds"] == [first, first + 1, first + 2, first + 3]
        assert [side for _, _, side in runs.calls] == ["parent", "change", "change", "parent"] * 2
        assert {trace for _, trace, _ in runs.calls} == {bench_pairs.SETUP_ONLY}
        assert got["order"][str(first)] == ["parent", "change"]
        assert got["order"][str(first + 1)] == ["change", "parent"]
        assert got["commands"][0].endswith("--setup-only")

    def test_summary(self):
        runs = _SetupRuns({"parent": self.PARENT_S, "change": self.CHANGE_S})
        got = bench_pairs.setup_only(runs, "certify_matrix", 4)
        assert got["runs_per_side"] == 4
        assert got["parent"]["runs"] == self.PARENT_S and got["change"]["runs"] == self.CHANGE_S
        assert got["parent"]["median"] == pytest.approx(0.17)
        assert got["change"]["median"] == pytest.approx(0.17)
        assert got["parent"]["q1"] == pytest.approx(0.1375)
        assert got["parent"]["q3"] == pytest.approx(0.2025)
        assert got["relative_change"] == pytest.approx(0.0)
        assert got["change_lower_in_pairs"] == 2

    def test_a_setup_only_run_is_recorded_and_reused(self, tmp_path):
        # a stand-in benchmark command that prints one {"setup_s": ...} line, as run.py does
        script = tmp_path / "fake_run.py"
        script.write_text("import json, sys\nprint(json.dumps({'setup_s': 0.125, "
                          "'argv': sys.argv[1:]}))\n")
        runs = bench_pairs.Runs.__new__(bench_pairs.Runs)
        runs.path = str(tmp_path / "runs.jsonl")
        runs.commits = {"parent": "p" * 40, "change": "c" * 40}
        runs.bench = {"command": [sys.executable, str(script)], "run_seconds": 1}
        runs.roots = {"parent": str(tmp_path), "change": str(tmp_path)}
        runs.done, runs.environment = {}, None
        got = runs.get("oracle_sweep", 5, bench_pairs.SETUP_ONLY, "change")
        assert got["setup_s"] == 0.125
        assert got["argv"] == ["--workload", "oracle_sweep", "--seed", "5", "--setup-only"]
        assert runs.environment is None
        script.write_text("raise SystemExit(3)\n")  # a cached run is not repeated
        assert runs.get("oracle_sweep", 5, bench_pairs.SETUP_ONLY, "change") == got
        lines = (tmp_path / "runs.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["key"] == ["oracle_sweep", 5, "setup-only", "c" * 40]
