"""``dispatch``: warm ``fl.execute`` calls whose kernels are tiny.

The six ``warm_start_programs()`` structures, plus fig1 list x band on
the C backend, run over small inputs, so each kernel body costs less
than the warm hit that serves it.  Each request rebuilds its CIN
program over one of a rotating pool of pre-converted datasets and
calls ``fl.execute``, which the memory tier serves: the structural
key, the cache lookup, validate/bind and the call are the work.

Expected outputs come from the reference interpreter (numpy for the
run-length output, which the interpreter cannot hold), compared
bit-for-bit.  The datasets' outputs are reused every round, so they
are poisoned before each request, untimed.
"""

import numpy as np

import repro.lang as fl
from repro.workloads import graphs, images, matrices

from perfbench import programs, refs
from perfbench.common import (geomean_percentile, percentile, rate,
                              steady_geomean_percentile)

#: ``(figure, variant, backend)`` of each request kind.
KINDS = (
    ("fig1_dot", None, "python"),
    ("fig1_dot", None, "c"),
    ("fig7_spmspv", "walk_walk", "python"),
    ("fig8_triangles", "gallop", "python"),
    ("fig9_convolution", None, "python"),
    ("fig10_alpha", "rle", "python"),
    ("fig11_allpairs", "vbl", "python"),
)
FIG1_N = 48
FIG7_N = 6
FIG8_N = 6
FIG9_N, FIG9_FILTER = 5, np.ones((3, 3)) / 9
FIG10_SIZE = 4
FIG11_COUNT, FIG11_SIZE = 2, 3


def _dataset(figure, variant, seed, index):
    """``(tensors, expected value)`` of the ``index``-th small input."""
    rng = np.random.default_rng(seed)
    if figure == "fig1_dot":
        a = np.zeros(FIG1_N)
        a[rng.choice(FIG1_N, 6, replace=False)] = rng.random(6) + 0.1
        b = np.zeros(FIG1_N)
        b[20:28] = rng.random(8) + 0.1
        tensors = programs.dot_tensors(a, b)
    elif figure == "fig7_spmspv":
        suite = matrices.harwell_boeing_like_suite(FIG7_N, seed=seed)
        mat = suite[sorted(suite)[index % len(suite)]]
        vec = matrices.sparse_vector(FIG7_N, density=0.3, seed=seed)
        tensors = programs.spmspv_tensors(mat, vec, variant)
    elif figure == "fig8_triangles":
        tensors = programs.triangle_tensors(
            graphs.erdos_renyi_adjacency(FIG8_N, 0.5, seed=seed))
    elif figure == "fig9_convolution":
        grid = matrices.random_sparse_matrix(FIG9_N, FIG9_N, 0.3,
                                             seed=seed)
        tensors = programs.convolution_tensors(grid, FIG9_FILTER)
    elif figure == "fig10_alpha":
        img_b = images.digit_like(FIG10_SIZE, seed=seed)
        img_c = images.digit_like(FIG10_SIZE, seed=seed + 1)
        tensors = programs.blend_tensors(img_b, img_c, variant)
        return tensors, refs.alpha_blend(img_b, img_c)
    else:
        batch = images.linearized_batch("digit", FIG11_COUNT,
                                        size=FIG11_SIZE, seed=seed)
        tensors = programs.all_pairs_tensors(batch, variant)
    program = programs.build(figure, tensors, variant)
    out = tensors[programs.OUTPUT[figure]]
    return tensors, refs.interpreted(program, out)


class DispatchWorkload:
    name = "dispatch"

    def setup(self, seed, tiny, tmp, tick):
        pool = 2 if tiny else 4
        requests = []
        for d in range(pool):
            for k, (figure, variant, backend) in enumerate(KINDS):
                tick()
                tensors, value = _dataset(figure, variant,
                                          seed * 1000 + 10 * d + k, d)
                requests.append({
                    "figure": figure, "variant": variant,
                    "backend": backend, "tensors": tensors,
                    "expect": refs.Expect(value),
                    "kind": "%s/%s" % (figure, backend),
                    "label": "%s/%s/%d" % (figure, backend, d)})
        # Compile every structure once so the window only sees warm hits.
        for req in requests:
            tick()
            fl.execute(programs.build(req["figure"], req["tensors"],
                                      req["variant"]),
                       backend=req["backend"])
        return {"requests": requests}

    def run_round(self, state, rec):
        for req in state["requests"]:
            if rec.expired:
                return
            figure, variant = req["figure"], req["variant"]
            tensors, backend = req["tensors"], req["backend"]
            rec.timed(
                req["kind"], req["label"],
                lambda program: fl.execute(program, backend=backend),
                lambda _: req["expect"].matches(
                    programs.output_array(figure, tensors)),
                prepare=lambda: self._prepare(figure, tensors, variant))

    @staticmethod
    def _prepare(figure, tensors, variant):
        """Poison the reused outputs (:func:`perfbench.programs.poison`)
        and build the request's program; both untimed."""
        programs.poison(figure, tensors)
        return programs.build(figure, tensors, variant)

    def corrupt(self, state):
        req = state["requests"][0]
        req["expect"] = req["expect"].corrupted()

    def metrics(self, state, rec):
        kinds = [rec.times("%s/%s" % (figure, backend))
                 for figure, _, backend in KINDS]
        calls = [seconds for times in kinds for seconds in times]
        c_calls = rec.times("fig1_dot/c")
        values = {
            "p50_ms": geomean_percentile(kinds, 50) * 1e3,
            # p90, not p99: a call is a fifth of a millisecond, and its
            # p99 follows the host's hiccups (run-to-run spread 0.27).
            "tail_ms": steady_geomean_percentile(kinds, 90) * 1e3,
            "alt_p50_ms": percentile(c_calls, 50) * 1e3,
            "per_s": rate(len(calls), sum(calls)),
        }
        report = [
            ("call_us_p50", percentile(calls, 50) * 1e6, "us", len(calls)),
            ("call_us_p99", percentile(calls, 99) * 1e6, "us", len(calls)),
            ("calls_per_s", values["per_s"], "1/s", len(calls)),
            ("c_call_us_p50", values["alt_p50_ms"] * 1e3, "us",
             len(c_calls)),
        ]
        return values, report

    def extras(self, state, rec):
        return {}

    def teardown(self, state):
        fl.kernel_cache().clear()
