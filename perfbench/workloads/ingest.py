"""``ingest``: numpy data in, result out, through a warm kernel.

Each request starts from numpy arrays generated from the seed during
set-up (untimed).  The timed part converts them with ``fl.from_numpy``
into the figure's formats, builds the program and calls
``fl.execute``, which a warm kernel serves.  Requests cycle over fig1
list x band, fig9 masked convolution, fig10 blends in each format and
fig11 all-pairs in each format, at registry sizes.  fig7 and fig8 are
left out: one conversion of theirs takes a large share of a second.

Expected outputs are computed during set-up: the interpreter for
fig1, numpy for the others (see :mod:`perfbench.refs`).
"""

import time

import repro.lang as fl
from repro.bench import figures
from repro.workloads import images, matrices

from perfbench import programs, refs
from perfbench.common import (geomean_percentile, percentile, rate,
                              steady_geomean_percentile)

#: ``(figure, variant)`` of each request kind.
KINDS = (
    [("fig1_dot", None), ("fig9_convolution", None)]
    + [("fig10_alpha", fmt) for fmt in figures.FIG10_FORMATS]
    + [("fig11_allpairs", fmt) for fmt in figures.FIG11_FORMATS]
)


def _kind(figure, variant):
    return "%s/%s" % (figure, variant or "-")


def _inputs(figure, variant, seed, index):
    """``(convert, expected)`` of the ``index``-th input of a kind:
    ``convert()`` builds the tensors.  The seed draws the values; the
    sizes and densities depend on ``index`` only, so every seed asks
    for the same amount of work."""
    if figure == "fig1_dot":
        a, b = figures.fig1_inputs(seed)
        t = programs.dot_tensors(a, b)
        value = refs.interpreted(programs.build(figure, t), t["C"])
        return (lambda: programs.dot_tensors(a, b)), refs.Expect(value)
    if figure == "fig9_convolution":
        density = figures.FIG9_DENSITIES[index
                                         % len(figures.FIG9_DENSITIES)]
        grid = matrices.random_sparse_matrix(
            figures.FIG9_GRID, figures.FIG9_GRID, density, seed=seed)
        return ((lambda: programs.convolution_tensors(
            grid, figures.FIG9_FILTER)),
            refs.Expect(refs.masked_convolution(grid, figures.FIG9_FILTER)))
    if figure == "fig10_alpha":
        img_b, img_c = figures.fig10_image_pair("digit", seed)
        return ((lambda: programs.blend_tensors(img_b, img_c, variant)),
                refs.Expect(refs.alpha_blend(img_b, img_c)))
    batch = images.linearized_batch("digit", figures.FIG11_COUNT, size=20,
                                    seed=seed)
    return ((lambda: programs.all_pairs_tensors(batch, variant)),
            refs.expect(figure, variant, refs.all_pairs(batch)))


class IngestWorkload:
    name = "ingest"

    def setup(self, seed, tiny, tmp, tick):
        pool = 1 if tiny else 4
        kinds = KINDS[:3] if tiny else KINDS
        requests = []
        for d in range(pool):
            for k, (figure, variant) in enumerate(kinds):
                tick()
                convert, expect = _inputs(figure, variant,
                                          seed * 1000 + 10 * d + k, d)
                requests.append({"figure": figure, "variant": variant,
                                 "convert": convert, "expect": expect,
                                 "kind": _kind(figure, variant),
                                 "label": "%s/%d" % (_kind(figure, variant),
                                                     d)})
        # Warm every kernel: the window times conversion, not compiles.
        for req in requests[:len(kinds)]:
            tick()
            fl.execute(programs.build(req["figure"], req["convert"](),
                                      req["variant"]))
        return {"requests": requests}

    def run_round(self, state, rec):
        for req in state["requests"]:
            if rec.expired:
                return
            figure, variant = req["figure"], req["variant"]

            def request(convert=req["convert"], label=req["label"]):
                start = time.perf_counter()
                tensors = convert()
                end = time.perf_counter()
                rec.add("convert", label, end - start, (start + end) / 2)
                fl.execute(programs.build(figure, tensors, variant))
                return tensors

            rec.timed(req["kind"], req["label"], request,
                      lambda t: req["expect"].matches(
                          programs.output_array(figure, t)))

    def corrupt(self, state):
        req = state["requests"][0]
        req["expect"] = req["expect"].corrupted()

    def metrics(self, state, rec):
        kinds = [rec.times(_kind(figure, variant))
                 for figure, variant in KINDS]
        times = [seconds for kind in kinds for seconds in kind]
        convert = rec.times("convert")
        values = {
            "p50_ms": geomean_percentile(kinds, 50) * 1e3,
            "tail_ms": steady_geomean_percentile(kinds, 90) * 1e3,
            "alt_p50_ms": percentile(convert, 50) * 1e3,
            "per_s": rate(len(times), sum(times)),
        }
        report = [
            ("ingest_ms_p50", percentile(times, 50) * 1e3, "ms",
             len(times)),
            ("ingest_ms_p90", percentile(times, 90) * 1e3, "ms",
             len(times)),
            ("from_numpy_ms_p50", values["alt_p50_ms"], "ms",
             len(convert)),
        ]
        return values, report

    def extras(self, state, rec):
        return {}

    def teardown(self, state):
        fl.kernel_cache().clear()
