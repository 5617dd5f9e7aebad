"""``kernels``: the paper-size figure kernels, rebound and run.

Every figure's kernels are compiled during set-up on both backends,
``python`` and ``c`` (where C does not apply the kernel falls back to
python, and it is still timed as a C request).  Each request is
``Kernel.rebind`` to one dataset plus ``Kernel.run``, so the generated
code does the work and dispatch is a small share of it.

The kernel set: fig7 strategies over the matrix suite, fig8 walk and
gallop over the graph suite, fig9 densities, fig10 formats over the
three image kinds, fig11 formats over digit and character batches,
and fig1 list x band plus the dense dot.

Datasets share output tensors (both backends of a dataset, the fig7
strategies of a matrix), so every output is poisoned
(:func:`perfbench.programs.poison`) before each request, untimed.
Expected outputs are independent numpy computations (``trace(A^3)``
for triangles), compared bit-for-bit except where
:data:`perfbench.refs.TOLERANCE` says otherwise; fig1 list x band uses
the reference interpreter.
"""

from collections import defaultdict

import repro.lang as fl
from repro.bench import figures
from repro.workloads import images, matrices

from perfbench import programs, refs
from perfbench.common import geomean_percentile, median, rate

BACKENDS = ("python", "c")


def _families(seed, tiny, tick):
    """``(figure, variant, label, tensors, expect)`` per dataset.

    Datasets with equal figure, variant and shapes share one compiled
    kernel per backend.  ``tick`` is called between steps (CPU-speed
    calibration, see :func:`perfbench.run._setups`).
    """
    out = []
    a, b = figures.fig1_inputs(seed)
    t = programs.dot_tensors(a, b)
    program = programs.build("fig1_dot", t)
    out.append(("fig1_dot", "list_band", "list_band", t,
                refs.Expect(refs.interpreted(program, t["C"]))))
    da, db = figures.fig1_dense_inputs(figures.FIG1_DENSE_N, seed=seed)
    out.append(("fig1_dot", "dense", "dense", programs.dot_tensors(
        da, db, ("dense", "dense")),
        refs.expect("fig1_dot", "dense", refs.dot(da, db))))
    for k, density in enumerate(figures.FIG9_DENSITIES):
        tick()
        grid = matrices.random_sparse_matrix(
            figures.FIG9_GRID, figures.FIG9_GRID, density, seed=seed + k)
        out.append(("fig9_convolution", None, "d%.2f" % density,
                    programs.convolution_tensors(grid, figures.FIG9_FILTER),
                    refs.Expect(refs.masked_convolution(
                        grid, figures.FIG9_FILTER))))
    kinds11 = (("digit", 20),) if tiny else (("digit", 20),
                                             ("character", 24))
    for kind, size in kinds11:
        batch = images.linearized_batch(kind, figures.FIG11_COUNT,
                                        size=size, seed=seed)
        value = refs.all_pairs(batch)
        for fmt in figures.FIG11_FORMATS:
            tick()
            out.append(("fig11_allpairs", fmt, "%s/%s" % (kind, fmt),
                        programs.all_pairs_tensors(batch, fmt),
                        refs.expect("fig11_allpairs", fmt, value)))
    if tiny:
        return out
    for k, kind in enumerate(figures.FIG10_KINDS):
        img_b, img_c = figures.fig10_image_pair(kind, seed + k)
        value = refs.alpha_blend(img_b, img_c)
        for fmt in figures.FIG10_FORMATS:
            tick()
            out.append(("fig10_alpha", fmt, "%s/%s" % (kind, fmt),
                        programs.blend_tensors(img_b, img_c, fmt),
                        refs.Expect(value)))
    suite = figures.fig7_suite()
    vectors = {name: matrices.sparse_vector(
        figures.FIG7_N, count=figures.FIG7_N // 10, seed=seed + k)
        for k, name in enumerate(sorted(suite))}
    for fmt, strategies in ((("dense", "sparse"), ("walk_walk", "lead_A",
                                                    "follow_A",
                                                    "gallop_both")),
                            (("dense", "vbl"), ("vbl", "vbl_gallop"))):
        per_matrix = {}
        for name in sorted(suite):
            tick()
            # One A per format and one output per matrix, shared by
            # the strategies that read that format.
            per_matrix[name] = programs.spmspv_tensors(
                suite[name], vectors[name], strategies[0])
        for strategy in strategies:
            for name in sorted(suite):
                out.append(("fig7_spmspv", strategy,
                            "%s/%s" % (name, strategy), per_matrix[name],
                            refs.Expect(refs.spmspv(suite[name],
                                                    vectors[name]))))
    for name, adj in sorted(figures.fig8_suite().items()):
        tick()
        t = programs.triangle_tensors(adj)
        value = refs.triangles(adj)
        for protocol in ("walk", "gallop"):
            out.append(("fig8_triangles", protocol,
                        "%s/%s" % (name, protocol), t,
                        refs.Expect(value)))
    return out


class KernelsWorkload:
    name = "kernels"

    def setup(self, seed, tiny, tmp, tick):
        items = []
        compiled = {}
        for figure, variant, label, tensors, expect in _families(
                seed, tiny, tick):
            shape = tuple(getattr(t, "shape", ())
                          for _, t in sorted(tensors.items()))
            # Both backends of a dataset run back to back, so a slow
            # spell of the machine hits them alike.
            for backend in BACKENDS:
                tick()
                key = (backend, figure, variant, shape)
                if key not in compiled:
                    compiled[key] = fl.compile_kernel(
                        programs.build(figure, tensors, variant),
                        backend=backend)
                items.append({"figure": figure, "variant": variant,
                              "backend": backend, "tensors": tensors,
                              "kernel": compiled[key], "expect": expect,
                              "label": "%s/%s/%s" % (figure, label,
                                                     backend)})
        return {"items": items}

    def run_round(self, state, rec):
        for item in state["items"]:
            if rec.expired:
                return
            kernel, tensors = item["kernel"], item["tensors"]
            figure = item["figure"]
            rec.timed(
                item["backend"], item["label"],
                lambda _: kernel.rebind(tensors).run(),
                lambda _: item["expect"].matches(
                    programs.output_array(figure, tensors)),
                prepare=lambda: programs.poison(figure, tensors))

    def corrupt(self, state):
        item = state["items"][0]
        item["expect"] = item["expect"].corrupted()

    def metrics(self, state, rec):
        runs = rec.times("python") + rec.times("c")
        values = {
            "p50_ms": geomean_percentile(
                rec.by_label("python").values(), 50) * 1e3,
            "tail_ms": geomean_percentile(
                rec.by_label("python").values(), 90) * 1e3,
            "alt_p50_ms": geomean_percentile(
                rec.by_label("c").values(), 50) * 1e3,
            "per_s": rate(len(runs), sum(runs)),
        }
        per_item = [len(t) for b in BACKENDS
                    for t in rec.by_label(b).values()]
        report = [
            ("run_ms_geomean", values["p50_ms"], "ms", min(per_item, default=0)),
            ("run_c_ms_geomean", values["alt_p50_ms"], "ms",
             min(per_item, default=0)),
            ("run_ms_p90_geomean", values["tail_ms"], "ms", min(per_item, default=0)),
            ("kernels_per_backend", len(state["items"]) // 2, "count",
             None),
            ("c_effective", sum(i["kernel"].effective_backend == "c"
                                for i in state["items"]), "count", None),
        ]
        return values, report

    def extras(self, state, rec):
        """Per-figure kernel times of the traced window, and each
        figure's instrumented op count (one untraced run per dataset
        of an instrumented python kernel)."""
        kernel_ms = defaultdict(list)
        figure_of = {i["label"]: i["figure"] for i in state["items"]}
        for backend in BACKENDS:
            for label, times in rec.by_label(backend).items():
                kernel_ms[(figure_of[label], backend)].append(
                    median(times) * 1e3)
        ops = defaultdict(int)
        instrumented = {}
        for item in state["items"]:
            if item["backend"] != "python":
                continue
            key = id(item["kernel"])
            if key not in instrumented:
                instrumented[key] = fl.compile_kernel(
                    programs.build(item["figure"], item["tensors"],
                                   item["variant"]),
                    instrument=True)
            ops[item["figure"]] += int(
                instrumented[key].rebind(item["tensors"]).run())
        return {"kernel_ms": dict(kernel_ms), "ops": dict(ops)}

    def teardown(self, state):
        fl.kernel_cache().clear()
