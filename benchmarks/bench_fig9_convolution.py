"""E5 — Figure 9: dense vs sparse convolution as sparsity increases.

A masked 2D convolution over a randomly sparse grid.  The paper's
shape: the sparse kernel scales linearly with density and overtakes the
dense kernel below ~5% density (9.5x at 1% on their testbed).  The
grid is scaled to pure-Python sizes (DESIGN.md).
"""

import numpy as np
import pytest

from repro.baselines import dense_ref
from repro.bench.figures import (
    FIG9_DENSITIES as DENSITIES,
    FIG9_FILTER as FILTER,
    FIG9_GRID as GRID,
    fig9_grid as make_grid,
)
from repro.bench.harness import Table, amortization_table, assert_amortized
from repro.bench.kernels import dense_convolution, masked_convolution, masked_convolution_program

# Grid size, filter, and densities live in repro.bench.figures,
# shared with the AOT kernel-pack builder.


@pytest.mark.parametrize("density", [0.01, 0.10])
def test_sparse_convolution(benchmark, density):
    grid = make_grid(density, seed=3)
    kernel, C = masked_convolution(grid, FILTER)
    benchmark(kernel.run)
    np.testing.assert_allclose(
        C.to_numpy(), dense_ref.masked_convolve2d_numpy(grid, FILTER),
        atol=1e-12)


def test_dense_convolution(benchmark):
    grid = make_grid(0.05, seed=3)
    kernel, C = dense_convolution(grid, FILTER)
    benchmark(kernel.run)
    np.testing.assert_allclose(
        C.to_numpy(), dense_ref.convolve2d_numpy(grid, FILTER),
        atol=1e-12)


def test_report_fig9(benchmark, write_report):
    table = Table("Figure 9: convolution work vs density "
                  "(5x5 filter, %dx%d grid)" % (GRID, GRID),
                  ["density", "dense ops", "sparse ops",
                   "sparse speedup"])
    speedup_at = {}
    for density in DENSITIES:
        grid = make_grid(density, seed=3)
        dense_kernel, _ = dense_convolution(grid, FILTER,
                                            instrument=True)
        dense_ops = dense_kernel.run()
        sparse_kernel, C = masked_convolution(grid, FILTER,
                                              instrument=True)
        sparse_ops = sparse_kernel.run()
        np.testing.assert_allclose(
            C.to_numpy(), dense_ref.masked_convolve2d_numpy(grid, FILTER),
            atol=1e-12)
        speedup_at[density] = dense_ops / max(sparse_ops, 1)
        table.add(density, dense_ops, sparse_ops, speedup_at[density])
    write_report("fig9_convolution", [table])
    # The paper's shape: sparse wins at low density, and the advantage
    # shrinks monotonically as density rises.
    assert speedup_at[0.01] > speedup_at[0.20]
    assert speedup_at[0.01] > 2.0
    kernel, _ = masked_convolution(make_grid(0.01, seed=3), FILTER)
    benchmark(kernel.run)


def test_report_fig9_amortization(write_report):
    """Compile-once/run-many: one masked-convolution artifact serves
    every density level (same structure, different data)."""
    densities = iter(list(DENSITIES) * 2)
    table = amortization_table(
        "Figure 9 amortization: masked convolution, fresh grid per run",
        lambda: masked_convolution_program(
            make_grid(next(densities), seed=3), FILTER)[0])
    write_report("fig9_convolution_amortization", [table])
    assert_amortized(table)


def test_report_fig9_optimization(write_report, write_json_report):
    """Optimizer on vs off for the masked convolution over identical
    grids; outputs must match exactly (no dense loop reassociates)."""
    from repro.bench.harness import optimization_table

    grid = make_grid(0.05, seed=3)
    table, payload = optimization_table(
        "Figure 9 optimization: masked convolution (5% density)",
        lambda: masked_convolution_program(grid, FILTER)[0],
        backends=("c",))
    write_report("fig9_convolution_optimization", [table])
    write_json_report("fig9_convolution", payload)
    assert payload["max_abs_diff"] < 1e-12
