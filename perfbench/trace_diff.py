"""Print the per-layer metrics of two traced runs side by side.

    python3 perfbench/trace_diff.py BASE.json NEW.json

Each file is the record a `run.py --trace 1` run writes under .perfbench/.
Rows show the base value, the new value, their difference and the new value
as a share of the base; metrics that are zero in both runs are left out.
Run both sides with the same workload, seed and --seconds so that the rows
compare like with like.
"""

from __future__ import annotations

import argparse
import json
import sys


def load(path: str) -> tuple[dict, dict[str, float]]:
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    if record.get("environment") is None or "metrics" not in record:
        raise SystemExit(f"{path}: not a perfbench result record")
    return record, {name: m["value"] for name, m in record["metrics"].items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args(argv)
    base_rec, base = load(args.base)
    new_rec, new = load(args.new)
    for rec, path in ((base_rec, args.base), (new_rec, args.new)):
        env = rec["environment"]
        print(f"# {path}: {rec['workload']} seed {env['seed']} commit {env['commit'][:12]}"
              f" {env['cpu']} nproc {env['nproc']} rounds {rec['rounds']}")
    if base_rec["workload"] != new_rec["workload"]:
        print("# warning: the two runs are of different workloads", file=sys.stderr)
    names = list(base) + [n for n in new if n not in base]
    width = max(len(n) for n in names)
    print(f"{'metric':{width}}  {'base':>13}  {'new':>13}  {'new-base':>13}  {'new/base':>9}")
    for name in names:
        a, b = base.get(name), new.get(name)
        if not a and not b:
            continue
        fa = "-" if a is None else f"{a:.6g}"
        fb = "-" if b is None else f"{b:.6g}"
        diff = "-" if a is None or b is None else f"{b - a:+.6g}"
        ratio = f"{b / a:.3f}" if a and b is not None else "-"
        print(f"{name:{width}}  {fa:>13}  {fb:>13}  {diff:>13}  {ratio:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
