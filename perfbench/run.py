"""Run one benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program under test is imported
from ``src/``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a readable report
goes to standard error, and the full result, with its environment
stamp and the sample count of every percentile, to
``perfbench/out/results/`` (``--out`` names another folder than
``perfbench/out``).

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` is a separate run that records spans around each
layer's entry points (:mod:`perfbench.tracer`) and reports the
per-layer metrics instead, plus the tracing overhead: it measures an
untraced window and a traced window of ``--seconds / 2`` each.  The
spans go to ``perfbench/out/traces/``; summarize them with
``python3 perfbench/summary.py``.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups per untraced run; ``setup_s`` is their median.  The
#: compile and kernels set-ups convert the fig7/fig8 suites, six to
#: eight seconds each, so they set up once: repeating them would push
#: a run of every workload past the time one benchmark run may take.
SETUPS = {"compile": 1, "dispatch": 7, "kernels": 1, "ingest": 5,
          "batch": 3}

#: End-to-end metrics, in ``BENCHMARK.json`` order.
END_TO_END = {"setup_s": "s", "p50_ms": "ms", "tail_ms": "ms",
              "alt_p50_ms": "ms", "per_s": "1/s", "peak_rss_mb": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and one set-up (smoke tests)")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="corrupt one expected output (smoke tests: "
                             "it must count as failed)")
    parser.add_argument("--noop-kernels", action="store_true",
                        help="after one real round, make every kernel "
                             "write nothing (smoke tests: every request "
                             "that runs a kernel must count as failed)")
    parser.add_argument("--out", type=os.path.abspath,
                        default=os.path.join(HERE, "out"),
                        help="folder for results, traces and scratch "
                             "files (default: perfbench/out)")
    return parser.parse_args(argv)


def _isolate(tmp):
    """Keep every file the run writes inside the checkout and run the
    library at its defaults: no ``FL_*`` setting reaches it, so the
    kernel service, the autotuner, chaos injection and any configured
    store stay off."""
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    for key in [k for k in os.environ if k.startswith("FL_")]:
        del os.environ[key]
    sys.path[:] = [os.path.join(ROOT, "src"), ROOT] + [
        p for p in sys.path if os.path.abspath(p or ".") != HERE]


def _noop_kernels():
    """From now on, make every compiled kernel a function that writes
    nothing: those already built, those built later, and those the
    pool workers rebuild (the warm pool is closed, so its next workers
    fork from this process)."""
    import gc

    import repro.lang as fl
    from repro.compiler.kernel import CompiledKernel

    def nothing(*_):
        return 0

    for obj in gc.get_objects():
        if isinstance(obj, CompiledKernel):
            obj.fn = nothing
    init = CompiledKernel.__init__

    def noop_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.fn = nothing

    CompiledKernel.__init__ = noop_init
    fl.default_pool().close()


def _setups(workload, args, tmp, count, speed, tracer=None):
    """Set the workload up ``count`` times; keeps the last state.

    Returns the state and each set-up's seconds on the reference CPU.
    Set-ups calibrate the CPU speed as they go (the ``tick`` they call
    between steps); the calibrations' own time is not counted.
    """
    from perfbench.common import median

    times = []
    state = None
    for _ in range(count):
        if state is not None:
            workload.teardown(state)
        speed.measure()
        first, spent = len(speed.durations) - 1, speed.spent
        span = tracer.open("setup") if tracer is not None else None
        start = time.perf_counter()
        state = workload.setup(args.seed, args.tiny, tmp,
                               speed.maybe_measure)
        elapsed = time.perf_counter() - start - (speed.spent - spent)
        if span is not None:
            tracer.close(span)
        speed.measure()
        times.append(elapsed * speed.REFERENCE_S
                     / median(speed.durations[first:]))
    if args.corrupt_expected:
        workload.corrupt(state)
    return state, times


def _report(lines, args, rec, extra_lines):
    err = sys.stderr
    print("workload %s  seed %d  trace %d" % (args.workload, args.seed,
                                                args.trace), file=err)
    for name, value, unit, samples in lines:
        count = "" if samples is None else "  (n=%d)" % samples
        print("  %-28s %14.6g %-9s%s" % (name, value, unit, count), file=err)
    print("  %-28s %14.6g %-9s  (%d failed of %d attempted)"
          % ("failed_frac", rec.failed / rec.attempted, "fraction",
             rec.failed, rec.attempted), file=err)
    for label, reason in rec.failures:
        print("    failed: %s: %s" % (label, reason), file=err)
    for line in extra_lines:
        print("  " + line, file=err)


def run(args, tmp):
    from perfbench import layers, stamp
    from perfbench.common import Speed, median, peak_rss_mb, run_window
    from perfbench.tracer import Tracer, aggregate
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    env = stamp.stamp(ROOT)
    speed = Speed()
    extra_lines = []
    if not args.trace:
        count = 1 if args.tiny else SETUPS[args.workload]
        state, setup_times = _setups(workload, args, tmp, count, speed)
        if args.noop_kernels:
            # One real round first fills every output, so a check that
            # read what an earlier request left would pass from here on.
            run_window(workload, state, 0, speed)
            _noop_kernels()
        rec = run_window(workload, state, args.seconds, speed)
        values, lines = workload.metrics(state, rec)
        values["setup_s"] = median(setup_times)
        values["peak_rss_mb"] = peak_rss_mb()
        lines = ([("setup_s", values["setup_s"], "s", len(setup_times))]
                 + lines
                 + [("peak_rss_mb", values["peak_rss_mb"], "MiB", None)])
        units = END_TO_END
    else:
        tracer = Tracer()
        tracer.install()
        try:
            state, setup_times = _setups(workload, args, tmp, 1, speed,
                                         tracer)
        finally:
            tracer.uninstall()
        half = args.seconds / 2.0
        plain = run_window(workload, state, half, speed)
        tracer.install()
        try:
            rec = run_window(workload, state, half, speed, tracer)
        finally:
            tracer.uninstall()
        untraced = workload.metrics(state, plain)[0]["p50_ms"]
        traced, lines = workload.metrics(state, rec)
        extras = workload.extras(state, rec)
        values = layers.compute(aggregate(tracer.spans), tracer.counts,
                                extras)
        values["trace.overhead_frac"] = (
            (traced["p50_ms"] - untraced) / untraced if untraced else 0.0)
        values["failed_frac"] = rec.failed / rec.attempted
        units = layers.UNITS
        lines = [(name, values[name], units[name], None)
                 for name in units]
        extra_lines.append(
            "p50_ms untraced %.6g  traced %.6g  (tracing overhead %+.1f%%)"
            % (untraced, traced["p50_ms"],
               100 * values["trace.overhead_frac"]))
        meta = {"workload": args.workload, "seed": args.seed,
                "stamp": env, "overhead": {
                    "metric": "p50_ms", "untraced": untraced,
                    "traced": traced["p50_ms"]},
                "metrics": values, "attempted": rec.attempted,
                "failed": rec.failed}
        os.makedirs(os.path.join(args.out, "traces"), exist_ok=True)
        tracer.write(os.path.join(args.out, "traces", "%s-seed%d.jsonl"
                                  % (args.workload, args.seed)), meta)
    workload.teardown(state)
    raw = {group: {"p50_ms": median(rec.raw_times(group)) * 1e3,
                   "n": len(rec.raw_times(group))}
           for group in rec.samples}
    extra_lines.append(
        "cpu speed factor %.3f (reference CPU = 1); raw wall p50_ms: %s"
        % (speed.factor(), ", ".join("%s %.4g" % (group, entry["p50_ms"])
                                     for group, entry in raw.items())))
    _report(lines, args, rec, extra_lines)
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    os.makedirs(os.path.join(args.out, "results"), exist_ok=True)
    with open(os.path.join(args.out, "results", "%s-trace%d-seed%d.json"
                           % (args.workload, args.trace, args.seed)),
              "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "seconds": args.seconds,
                   "tiny": args.tiny, "smoke": (args.corrupt_expected
                                                or args.noop_kernels),
                   "stamp": env, "result": result,
                   "report": [list(line) for line in lines],
                   "failed_frac": rec.failed / rec.attempted,
                   "failures": rec.failures,
                   "setup_times_s": setup_times, "raw": raw,
                   "speed_factor": speed.factor()}, handle, indent=1)
    return result


def _stop_processes():
    """Stop every process the run started and wait until each has
    ended: the warm pool's workers, and the resource tracker that
    ``multiprocessing`` starts with the first shared-memory segment
    and otherwise leaves to outlive the run.  The tracker goes last,
    once nothing is left to unlink: stopping it closes its pipe, and
    it unlinks any segment still registered before it exits."""
    pool = sys.modules.get("repro.exec.pool")
    if pool is not None:
        pool.default_pool().close()
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
    tracker = resource_tracker._resource_tracker
    if tracker._pid is not None:
        tracker._stop()


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print("error: %s holds no src/repro to benchmark" % ROOT,
              file=sys.stderr)
        return 2
    tmp = os.path.join(args.out, "tmp", "run-%d" % os.getpid())
    _isolate(tmp)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    try:
        result = run(args, tmp)
    finally:
        _stop_processes()
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
