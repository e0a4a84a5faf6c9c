"""Compare end-to-end results of two commits, workload by workload.

    python3 perfbench/compare.py --base a/*.json --change b/*.json

Each file is a record written by ``run.py --out``.  Records whose
environment stamps differ in backend, numba availability or thread cap
are not compared: the exit code is 2.  Otherwise every end-to-end
metric of every workload prints the two medians, the change as a share
of the base median, and a verdict against the bound in BENCHMARK.json:
``worse`` beyond the bound, ``unresolved`` when the base runs' own
quartile spread exceeds the bound, else ``ok``.  The exit code is 1 if
any pairing is worse.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAMP_KEYS = ("backend", "numba_importable", "blas_threads")


def load(paths):
    by_workload = {}
    for path in paths:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
        if record.get("trace"):
            continue
        by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--change", nargs="+", required=True)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, change = load(args.base), load(args.change)

    stamps = {
        tuple(r["env"][k] for k in STAMP_KEYS)
        for records in (*base.values(), *change.values())
        for r in records
    }
    if len(stamps) > 1:
        print(f"refusing to compare results from different environments: {sorted(stamps)}",
              file=sys.stderr)
        return 2

    worse = False
    for workload in sorted(base.keys() & change.keys()):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in base[workload]]
            b = [r["metrics"][name]["value"] for r in change[workload]]
            ma, mb = statistics.median(a), statistics.median(b)
            delta = (mb - ma) / ma
            if metric["better"] == "higher":
                delta = -delta
            if delta > bound:
                verdict, worse = "worse", True
            elif len(a) >= 2 and spread(a) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:8s} {name:14s} base {ma:12.5g} change {mb:12.5g} "
                  f"worse by {delta:+7.2%} (bound {bound:.0%}) {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
