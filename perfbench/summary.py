"""Summarize traced runs: self time and calls per layer, per workload.

    python3 perfbench/summary.py [TRACE.jsonl ...]

With no arguments it reads every trace in ``perfbench/out/traces/``
(written by ``run.py --trace 1``).  For each workload it prints, per
span, the layer, the number of calls, the inclusive and self time and
the self share of all traced time; then the tracing overhead of each
workload and the layer -> end-to-end metric mapping.
"""

import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:] = [os.path.dirname(HERE)] + [
    p for p in sys.path if os.path.abspath(p or ".") != HERE]

from perfbench import layers  # noqa: E402
from perfbench.tracer import aggregate  # noqa: E402


def load(path):
    with open(path) as handle:
        meta = json.loads(handle.readline())["meta"]
        spans = [json.loads(line) for line in handle]
    return meta, spans


def summarize(path, out=sys.stdout):
    meta, spans = load(path)
    totals = aggregate(spans)
    traced = sum(own for _, _, own in totals.values())
    print("== %s (seed %d): %d spans, %d requests attempted, %d failed"
          % (meta["workload"], meta["seed"], len(spans),
             meta["attempted"], meta["failed"]), file=out)
    print("   %-9s %-28s %9s %12s %12s %7s"
          % ("layer", "span", "calls", "incl ms", "self ms", "self%"),
          file=out)
    for name, (calls, inclusive, own) in sorted(
            totals.items(), key=lambda item: -item[1][2]):
        print("   %-9s %-28s %9d %12.3f %12.3f %6.1f%%"
              % (layers.layer_of(name), name, calls, inclusive * 1e3,
                 own * 1e3, 100 * own / traced if traced else 0.0),
              file=out)
    return meta


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or sorted(
        glob.glob(os.path.join(HERE, "out", "traces", "*.jsonl")))
    if not paths:
        print("no traces: run perfbench/run.py --trace 1 first",
              file=sys.stderr)
        return 1
    metas = [summarize(path) for path in paths]
    print("\n== tracing overhead (p50_ms, traced minus untraced)")
    for meta in metas:
        over = meta["overhead"]
        print("   %-9s seed %-6d untraced %10.4f  traced %10.4f  %+7.1f%%"
              % (meta["workload"], meta["seed"], over["untraced"],
                 over["traced"],
                 100 * (over["traced"] - over["untraced"])
                 / over["untraced"]))
    print("\n== per-layer metric -> the end-to-end metric it should move")
    for name, unit, moves in layers.METRICS:
        print("   %-34s %-9s %s" % (name, unit, moves))
    return 0


if __name__ == "__main__":
    sys.exit(main())
