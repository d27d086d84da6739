"""Compare two sets of benchmark records against BENCHMARK.json's bounds.

Usage::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the per-run records that run.py writes to
``perfbench/out/`` (untraced, time-limited runs only; copy them aside
between the two commits).  Records from different machines or thread
settings, and records whose outputs failed a check or a cross-check
(``correct`` false), are refused: the exit code is 2 and nothing is
compared.
Otherwise, for every workload and end-to-end metric, the new median is
set against the base median and the metric's bound.  The exit code is 1
if any metric got worse by more than its bound.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    runs, wrong = {}, []
    for path in sorted(Path(directory).glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        if not rec["correct"]:
            wrong.append(f"{path} ({rec['failed']} of {rec['attempted']} "
                         f"operations failed)")
        elif not rec["full"]:
            runs.setdefault(rec["workload"], []).append(rec)
    return runs, wrong


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (base, base_wrong), (new, new_wrong) = load(argv[0]), load(argv[1])
    if base_wrong or new_wrong:
        print("refused: records with failed outputs:", file=sys.stderr)
        for w in base_wrong + new_wrong:
            print("  " + w, file=sys.stderr)
        return 2
    machines = {json.dumps(r["machine"], sort_keys=True)
                for runs in (base, new) for recs in runs.values() for r in recs}
    if len(machines) > 1:
        print("refused: the records come from different machines or thread "
              "settings:", file=sys.stderr)
        for m in sorted(machines):
            print("  " + m, file=sys.stderr)
        return 2

    worse = False
    print(f"{'workload':14s} {'metric':14s} {'base':>10s} {'new':>10s} "
          f"{'change':>8s} {'bound':>6s} {'base IQR':>8s}  verdict")
    for name in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            b = [r["metrics"][key]["value"] for r in base[name]]
            n = [r["metrics"][key]["value"] for r in new[name]]
            bm, nm = statistics.median(b), statistics.median(n)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            change = sign * (nm - bm) / bm          # > 0 means worse
            lo, hi = quartiles(b)
            spread = (hi - lo) / bm
            if change > bound:
                verdict = "WORSE than bound"
                worse = True
            elif spread > bound and not all(
                    sign * x < sign * y for x in n for y in b):
                verdict = "unresolved (base spread above bound)"
            else:
                verdict = "within bound"
            print(f"{name:14s} {key:14s} {bm:10.4g} {nm:10.4g} "
                  f"{change:+8.1%} {bound:6.2f} {spread:8.1%}  {verdict}"
                  f"  [{len(b)} vs {len(n)} runs]")
    for name in sorted(set(base) ^ set(new)):
        print(f"{name}: records on one side only, not compared")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
