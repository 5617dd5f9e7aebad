"""Compare two sets of untraced results, metric by metric.

    python3 perfbench/compare.py BASE_RESULTS_DIR NEW_RESULTS_DIR

Each directory holds the ``*-trace0-seed*.json`` files ``run.py``
writes to ``perfbench/out/results/`` (run each commit in its own
checkout).  For every workload and end-to-end metric it prints both
medians over seeds, their quartile spreads and the change, and flags
a change worse than the metric's bound in ``BENCHMARK.json``.
Results of ``--tiny`` or smoke-test runs, and incorrect ones, are
skipped with a note on standard error.

It refuses to compare, exiting 2, when any two results carry
different environment stamps (:data:`perfbench.stamp.COMPARED`): a
number measured on another machine, BLAS setting or compiler is not
evidence about the code.  It refuses too when the results measured
windows of different ``--seconds``.  Exits 1 when any metric is worse
than its bound, else 0.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:] = [ROOT] + [
    p for p in sys.path if os.path.abspath(p or ".") != HERE]

from perfbench.stamp import mismatches  # noqa: E402


def load(folder):
    """The full-size, correct untraced results in ``folder``."""
    results = []
    for path in sorted(glob.glob(os.path.join(folder, "*-trace0-*.json"))):
        with open(path) as handle:
            result = json.load(handle)
        skip = ("a --tiny run" if result.get("tiny")
                else "a smoke-test run" if result.get("smoke")
                else "incorrect" if not result["result"]["correct"]
                else None)
        if skip:
            print("skipping %s: %s" % (path, skip), file=sys.stderr)
            continue
        results.append(result)
    return results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("error: no full-size, correct *-trace0-*.json results in "
              "one of the folders",
              file=sys.stderr)
        return 2
    seconds = sorted({result["seconds"] for result in base + new})
    if len(seconds) > 1:
        print("refusing to compare: results measured windows of %s "
              "seconds" % ", ".join("%g" % s for s in seconds),
              file=sys.stderr)
        return 2
    reference = base[0]["stamp"]
    for result in base + new:
        differ = mismatches(reference, result["stamp"])
        if differ:
            print("refusing to compare: environment stamps differ on %s"
                  % ", ".join("%s (%r vs %r)" % (key, reference.get(key),
                                                 result["stamp"].get(key))
                              for key in differ), file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    worse = 0
    print("%-9s %-12s %12s %12s %8s %8s %8s  %s"
          % ("workload", "metric", "base", "new", "change", "spread0",
             "spread1", "verdict"))
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = []
            for results in (base, new):
                values = [r["result"]["metrics"][name]["value"]
                          for r in results if r["workload"] == workload]
                sides.append(values)
            if not sides[0] or not sides[1]:
                continue
            (b1, bm, b3), (n1, nm, n3) = map(quartiles, sides)
            change = (nm - bm) / bm
            if metric["better"] == "higher":
                change = -change
            verdict = "ok"
            if change > metric["bound"]:
                verdict = "WORSE"
                worse += 1
            elif max((b3 - b1) / bm, (n3 - n1) / nm) > metric["bound"]:
                verdict = "unresolved (spread above bound)"
            print("%-9s %-12s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%%  %s"
                  % (workload, name, bm, nm, 100 * change,
                     100 * (b3 - b1) / bm, 100 * (n3 - n1) / nm, verdict))
    print("(change: positive = worse; commits %s -> %s)"
          % (base[0]["stamp"]["commit"], new[0]["stamp"]["commit"]))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
