"""E6 — Figure 10: alpha blending on digit-like and sketch-like images.

``A[i,j] = round_u8(alpha*B[i,j] + beta*C[i,j])`` with dense, sparse,
and RLE input formats; the structured variants assemble the output as
runs.  The paper's shape: RLE wins when images have long background
runs (Humansketches), and loses its edge on noisy small images
(Omniglot).
"""

import numpy as np
import pytest

from repro.baselines import dense_ref
from repro.bench.figures import (
    FIG10_ALPHA as ALPHA,
    FIG10_BETA as BETA,
    FIG10_FORMATS as FORMATS,
    fig10_image_pair as image_pair,
)
from repro.bench.harness import Table, amortization_table, assert_amortized
from repro.bench.kernels import alpha_blend, alpha_blend_program

# Blend weights, formats, and image generation live in
# repro.bench.figures, shared with the AOT kernel-pack builder.


@pytest.mark.parametrize("fmt", FORMATS)
def test_blend_digit_images(benchmark, fmt):
    img_b, img_c = image_pair("digit", seed=1)
    kernel, out = alpha_blend(img_b, img_c, ALPHA, BETA, fmt)
    benchmark(kernel.run)
    np.testing.assert_array_equal(
        out.to_numpy(), dense_ref.alpha_blend_numpy(img_b, img_c,
                                                    ALPHA, BETA))


@pytest.mark.parametrize("fmt", FORMATS)
def test_blend_sketch_images(benchmark, fmt):
    img_b, img_c = image_pair("sketch", seed=2)
    kernel, out = alpha_blend(img_b, img_c, ALPHA, BETA, fmt)
    benchmark(kernel.run)
    np.testing.assert_array_equal(
        out.to_numpy(), dense_ref.alpha_blend_numpy(img_b, img_c,
                                                    ALPHA, BETA))


def test_report_fig10(benchmark, write_report):
    tables = []
    shapes = {}
    for kind in ("digit", "character", "sketch"):
        table = Table("Figure 10 (%s-like images): alpha blending work, "
                      "mean of 4 pairs" % kind,
                      ["format", "mean ops", "vs dense"])
        totals = {fmt: 0 for fmt in FORMATS}
        pairs = 4
        for pair in range(pairs):
            img_b, img_c = image_pair(kind, seed=10 + pair)
            expected = dense_ref.alpha_blend_numpy(img_b, img_c,
                                                   ALPHA, BETA)
            for fmt in FORMATS:
                kernel, out = alpha_blend(img_b, img_c, ALPHA, BETA,
                                          fmt, instrument=True)
                totals[fmt] += kernel.run()
                np.testing.assert_array_equal(out.to_numpy(), expected)
        for fmt in FORMATS:
            table.add(fmt, totals[fmt] / pairs,
                      totals["dense"] / max(totals[fmt], 1))
        shapes[kind] = totals
        tables.append(table)
    write_report("fig10_alpha", tables)
    # RLE beats dense whenever background runs dominate.
    assert shapes["sketch"]["rle"] < shapes["sketch"]["dense"]
    assert shapes["digit"]["rle"] < shapes["digit"]["dense"]
    img_b, img_c = image_pair("digit", seed=1)
    kernel, _ = alpha_blend(img_b, img_c, ALPHA, BETA, "rle")
    benchmark(kernel.run)


def test_report_fig10_amortization(write_report):
    """Compile-once/run-many: one RLE blend artifact serves every
    image pair of the same size via rebinding."""
    seeds = iter(range(1, 100))
    table = amortization_table(
        "Figure 10 amortization: RLE alpha blend, fresh images per run",
        lambda: alpha_blend_program(*image_pair("digit",
                                                seed=next(seeds)),
                                    ALPHA, BETA, "rle")[0])
    write_report("fig10_alpha_amortization", [table])
    assert_amortized(table)


def test_report_fig10_optimization(write_report, write_json_report):
    """Optimizer on vs off for the RLE alpha blend; the uint8 output
    must be bit-identical."""
    from repro.bench.harness import optimization_table

    img_b, img_c = image_pair("digit", seed=1)
    table, payload = optimization_table(
        "Figure 10 optimization: RLE alpha blend (digit-like)",
        lambda: alpha_blend_program(img_b, img_c, ALPHA, BETA,
                                    "rle")[0],
        backends=("c",))
    write_report("fig10_alpha_optimization", [table])
    write_json_report("fig10_alpha", payload)
    assert payload["max_abs_diff"] == 0.0
