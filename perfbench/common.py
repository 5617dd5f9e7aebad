"""Timing, statistics, CPU-speed normalization and the closed-loop
request recorder."""

import bisect
import math
import resource
import time
from collections import defaultdict


def percentile(values, q):
    """The ``q``-th percentile (0-100) by linear interpolation; 0.0
    without samples (every request failed: the result is marked
    incorrect anyway)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50)


def geomean(values):
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def geomean_percentile(groups, q):
    """Geomean over sample groups of each group's ``q``-th percentile.

    The summary for a mix of request kinds whose costs differ by
    multiples: a percentile of the pooled samples would land on the
    edge between two kinds and jump with their proportions.  Groups
    without samples are skipped.
    """
    return geomean(percentile(times, q) for times in groups if times)


def steady_percentile(values, q, slices=5):
    """The median over ``slices`` consecutive slices of ``values``, in
    arrival order, of each slice's ``q``-th percentile.

    A tail percentile of a whole window follows the host's slow spells:
    one bad second moves it.  The median over slices of the window
    ignores a spell confined to one or two slices.
    """
    values = list(values)
    if len(values) < slices:
        return percentile(values, q)
    size = len(values) / slices
    return median([percentile(values[round(k * size):
                                     round((k + 1) * size)], q)
                   for k in range(slices)])


def steady_geomean_percentile(groups, q):
    """:func:`geomean_percentile` with :func:`steady_percentile`."""
    return geomean(steady_percentile(times, q) for times in groups
                   if times)


def rate(count, seconds):
    """``count`` per second of ``seconds``; 0.0 for an empty window."""
    return count / seconds if seconds else 0.0


def peak_rss_mb():
    """This process's peak resident set size in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _calibration_loop(n=12000):
    total = 0
    table = {}
    for i in range(n):
        total += i * i
        table[i & 63] = total
    return total


class Speed:
    """The machine's CPU speed over time, relative to a reference CPU.

    Shared hosts slow a process for seconds at a time: on a shared
    2-vCPU Intel Xeon VM (python 3.11, numpy 2.4), a fixed pure-Python
    loop ran at 1.0x to 1.6x its best time in phases of one to ten
    seconds, with no steal time reported, and run-to-run medians of
    raw request times spread by a quarter or more.  So the benchmark times a fixed
    pure-Python calibration loop between requests, about every
    :data:`INTERVAL_S`, and multiplies each request time by
    :meth:`factor_at` its midpoint: :data:`REFERENCE_S` over the
    median of the calibrations within :data:`WINDOW_S` of it.  The
    reported times are milliseconds on a reference CPU that runs the
    loop in exactly :data:`REFERENCE_S`; raw wall times go to the
    result file too.
    """

    #: Seconds the calibration loop takes on the reference CPU.
    REFERENCE_S = 1e-3
    INTERVAL_S = 0.1
    WINDOW_S = 0.5

    def __init__(self):
        self.stamps = []  # midpoints, ascending
        self.durations = []
        self.spent = 0.0  # seconds spent calibrating
        self.last = -math.inf
        self.measure()

    def measure(self):
        start = time.perf_counter()
        _calibration_loop()
        self.last = time.perf_counter()
        self.stamps.append((start + self.last) / 2)
        self.durations.append(self.last - start)
        self.spent += self.last - start
        return self.last - start

    def maybe_measure(self):
        if time.perf_counter() - self.last >= self.INTERVAL_S:
            self.measure()

    def factor_at(self, stamp):
        lo = bisect.bisect_left(self.stamps, stamp - self.WINDOW_S)
        hi = bisect.bisect_right(self.stamps, stamp + self.WINDOW_S)
        if hi - lo < 3:  # too few nearby: take the nearest five
            mid = bisect.bisect_left(self.stamps, stamp)
            lo, hi = max(0, mid - 3), min(len(self.stamps), mid + 2)
        return self.REFERENCE_S / median(self.durations[lo:hi])

    def factor(self):
        """The factor around the latest calibration."""
        return self.factor_at(self.last)


class Recorder:
    """Times the requests of one closed-loop window with one client.

    The client sends the next request only when the previous one has
    returned and been checked.  :meth:`timed` times one request, then
    checks its output outside the timing; a request that raises or
    whose output fails the check counts as failed and contributes no
    latency sample.  :meth:`times` and :meth:`by_label` return samples
    normalized by ``speed`` (:class:`Speed`); :meth:`raw_times` the
    wall-clock ones.  The window closes after ``seconds``, but never
    inside the first round, so every request of a round is attempted
    at least once.
    """

    def __init__(self, seconds, speed, tracer=None):
        self.speed = speed
        self.tracer = tracer
        self.deadline = time.perf_counter() + seconds
        self.first_round = True
        self.samples = defaultdict(list)  # group -> [(label, s, stamp)]
        self.attempted = 0
        self.failed = 0
        self.failures = []  # the first few (label, reason)
        self.extras = {}

    @property
    def expired(self):
        return (not self.first_round
                and time.perf_counter() >= self.deadline)

    def add(self, group, label, seconds, stamp):
        self.samples[group].append((label, seconds, stamp))

    def timed(self, group, label, fn, check, prepare=None):
        """Run ``fn()`` as one request; ``check(result)`` must be True.

        With ``prepare``, the request is ``fn(prepare())`` and only
        ``fn`` is timed.
        """
        self.speed.maybe_measure()
        tracer = self.tracer
        span = tracer.begin_request() if tracer is not None else None
        error = None
        result = None
        start = time.perf_counter()
        try:
            args = () if prepare is None else (prepare(),)
            start = time.perf_counter()
            result = fn(*args)
        except Exception as exc:  # counted, never fatal
            error = exc
        end = time.perf_counter()
        if span is not None:
            tracer.end_request(span)
        self.attempted += 1
        if error is None:
            try:
                ok = bool(check(result))
                reason = "wrong output"
            except Exception as exc:
                ok = False
                reason = "check raised %s: %s" % (type(exc).__name__, exc)
        else:
            ok = False
            reason = "%s: %s" % (type(error).__name__, error)
        if ok:
            self.add(group, label, end - start, (start + end) / 2)
        else:
            self.failed += 1
            if len(self.failures) < 8:
                self.failures.append((label, reason))
        return result

    def by_label(self, group):
        """Normalized seconds per label of ``group``."""
        out = defaultdict(list)
        factor_at = self.speed.factor_at
        for label, seconds, stamp in self.samples[group]:
            out[label].append(seconds * factor_at(stamp))
        return out

    def times(self, group):
        factor_at = self.speed.factor_at
        return [seconds * factor_at(stamp)
                for _, seconds, stamp in self.samples[group]]

    def raw_times(self, group):
        return [seconds for _, seconds, _ in self.samples[group]]


def run_window(workload, state, seconds, speed, tracer=None):
    """Closed-loop rounds of ``workload`` for ``seconds``."""
    rec = Recorder(seconds, speed, tracer)
    while True:
        workload.run_round(state, rec)
        if rec.first_round:
            rec.first_round = False
            if tracer is not None:
                tracer.counting = False
        if rec.expired:
            speed.measure()
            return rec
