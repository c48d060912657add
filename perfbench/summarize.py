"""Tabulate the result records in perfbench/out as Markdown.

    python3 perfbench/summarize.py [RESULT_DIR]

End-to-end metrics (untraced runs) get the median over all seeds found for
a workload, the quartile spread as a share of that median, and the run
count.  Per-layer metrics (traced runs) get one column per workload, the
median over the traced runs found.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["census", "dedekind", "sfchain"]


def load(directory, trace):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, f"result-*-trace{trace}.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        runs.setdefault(rec["provenance"]["workload"], []).append(rec)
    return runs


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(directory):
    plain, traced = load(directory, 0), load(directory, 1)
    some = next(iter(plain.values() or traced.values()), None)
    if some is None:
        print(f"no result records in {directory}", file=sys.stderr)
        return 1
    prov = some[0]["provenance"]
    print(f"Python {prov['python']}, numpy {prov['numpy']}, sympy {prov['sympy']}, "
          f"nproc {prov['nproc']}, commit {prov['commit']}, {prov['platform']}\n")
    if plain:
        print("| workload | metric | median | IQR/median | runs | failed |")
        print("|---|---|---|---|---|---|")
        for w in [w for w in WORKLOADS if w in plain]:
            recs = plain[w]
            failed = sum(r["failed"] for r in recs)
            for name, m in recs[0]["metrics"].items():
                vals = [r["metrics"][name]["value"] for r in recs]
                print(f"| {w} | {name} ({m['unit']}) | {statistics.median(vals):.4g} | "
                      f"{spread(vals):.3f} | {len(vals)} | {failed} |")
        print()
    if traced:
        cols = [w for w in WORKLOADS if w in traced]
        print("| metric | " + " | ".join(cols) + " |")
        print("|---|" + "---|" * len(cols))
        first = traced[cols[0]][0]["metrics"]
        for name, m in first.items():
            cells = [statistics.median(r["metrics"][name]["value"] for r in traced[w])
                     for w in cols]
            print(f"| {name} ({m['unit']}) | " + " | ".join(f"{c:.4g}" for c in cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else os.path.join(HERE, "out")))
