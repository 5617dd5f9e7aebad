"""E2/E3 — Figure 7: SpMSpV coiteration strategies.

``y[i] += A[i,j] * x[j]`` with the merge in the inner loop, over a
Harwell-Boeing-like matrix suite, under two x regimes: 10% dense
(Fig. 7a) and exactly 10 nonzeros (Fig. 7b).  Strategies: two-finger
walk, leader A (gallop A), follower A (gallop x), both galloping, and
the VBL format.  The TACO-model baseline is the hand-written two-finger
merge.
"""

import os

import numpy as np
import pytest

from repro.baselines import twofinger
from repro.bench.figures import fig7_suite, fig7_vector
from repro.bench.harness import (
    Table,
    amortization_table,
    assert_amortized,
    summarize,
    throughput_table,
)
from repro.bench.kernels import SPMSPV_STRATEGIES, spmspv, spmspv_program
from repro.cin.analyze import program_tensors

# Suite size and vector regimes live in repro.bench.figures, shared
# with the AOT kernel-pack builder.
make_x = fig7_vector


@pytest.fixture(scope="module")
def suite():
    return fig7_suite()


@pytest.mark.parametrize("strategy", SPMSPV_STRATEGIES)
@pytest.mark.parametrize("regime", ["dense10pct", "count10"])
def test_spmspv_strategy(benchmark, suite, strategy, regime):
    mat = suite["pores_like_clustered"]
    vec = make_x(regime, seed=7)
    kernel, y = spmspv(mat, vec, strategy)
    benchmark(kernel.run)
    np.testing.assert_allclose(y.to_numpy(), mat @ vec)


@pytest.mark.parametrize("regime", ["dense10pct", "count10"])
def test_spmspv_taco_baseline(benchmark, suite, regime):
    mat = suite["pores_like_clustered"]
    vec = make_x(regime, seed=7)
    pos, idx, val = twofinger.csr_of(mat)
    x_idx, x_val = twofinger.coords_of(vec)
    result = benchmark(lambda: twofinger.spmspv_merge(
        pos, idx, val, x_idx, x_val, mat.shape[0]))
    np.testing.assert_allclose(result[0], mat @ vec)


@pytest.mark.parametrize("regime", ["dense10pct", "count10"])
def test_report_fig7(benchmark, suite, regime, write_report):
    """Work-count speedups over the TACO-model merge, across the suite
    (the boxes of Figure 7 as min/median/max)."""
    vec = make_x(regime, seed=7)
    speedups = {s: [] for s in SPMSPV_STRATEGIES}
    for name, mat in suite.items():
        pos, idx, val = twofinger.csr_of(mat)
        x_idx, x_val = twofinger.coords_of(vec)
        ref, merge_steps = twofinger.spmspv_merge(
            pos, idx, val, x_idx, x_val, mat.shape[0])
        for strategy in SPMSPV_STRATEGIES:
            kernel, y = spmspv(mat, vec, strategy, instrument=True)
            ops = kernel.run()
            np.testing.assert_allclose(y.to_numpy(), ref)
            speedups[strategy].append(merge_steps / max(ops, 1))
    table = Table("Figure 7 (%s): SpMSpV work speedup vs two-finger "
                  "merge over HB-like suite" % regime,
                  ["strategy", "min", "median", "max"])
    for strategy, values in speedups.items():
        lo, mid, hi = summarize(values)
        table.add(strategy, lo, mid, hi)
    write_report("fig7_spmspv_%s" % regime, [table])
    if regime == "count10":
        # With a very sparse x, skipping strategies beat plain walking
        # somewhere in the suite (the paper's big-win regime).
        best_skip = max(max(speedups["follow_A"]),
                        max(speedups["vbl"]))
        assert best_skip > max(speedups["walk_walk"])
    kernel, _ = spmspv(suite["pores_like_clustered"], vec, "walk_walk")
    benchmark(kernel.run)


def test_report_fig7_amortization(suite, write_report):
    """Compile-once/run-many: the SpMSpV structure compiles on the
    first matrix and rebinds (cache hit) for every other matrix of the
    same shape/format in the suite."""
    mats = iter(list(suite.values()) * 2)
    vec = make_x("count10", seed=7)
    table = amortization_table(
        "Figure 7 amortization: SpMSpV, fresh matrix per run",
        lambda: spmspv_program(next(mats), vec, "walk_walk")[0])
    write_report("fig7_spmspv_amortization", [table])
    assert_amortized(table)


def test_report_fig7_throughput(suite, write_report,
                                write_json_report):
    """Batched SpMSpV throughput: one kernel, the whole matrix suite.

    The scalar coiteration kernel holds the GIL, so this is the
    process-pool regime: each worker rebuilds the kernel from its
    serialized spec once and then runs every matrix it is handed.
    Outputs and aggregate op counts must match the serial executor
    bit for bit.
    """
    vec = make_x("dense10pct", seed=7)
    mats = list(suite.values()) * 2  # 8+ datasets from the 4 matrices
    template = spmspv_program(mats[0], vec, "walk_walk")[0]
    datasets = [
        program_tensors(spmspv_program(mat, vec, "walk_walk")[0])
        for mat in mats
    ]
    workers = min(4, os.cpu_count() or 1)
    table, payload = throughput_table(
        "Figure 7 throughput: batched SpMSpV over the HB-like suite "
        "(%d datasets)" % len(datasets),
        template, datasets, max_workers=workers)
    write_report("fig7_spmspv_throughput", [table])
    write_json_report("fig7_spmspv_throughput", payload)
    assert payload["identical"], payload
    if workers >= 4:
        # GIL-bound scalar coiteration only scales across processes;
        # the warm pool must turn the fleet into real throughput.
        processes = payload["executors"]["processes"]
        assert processes["efficiency"] >= 0.6, payload


def test_report_fig7_optimization(suite, write_report,
                                  write_json_report):
    """Optimizer on vs off for SpMSpV over identical data: the sparse
    coiteration gains come from LICM/CSE/dead-store cleanup, and the
    results must not change."""
    from repro.bench.harness import optimization_table

    mat = suite["pores_like_clustered"]
    vec = make_x("dense10pct", seed=7)
    table, payload = optimization_table(
        "Figure 7 optimization: SpMSpV walk_walk (pores-like)",
        lambda: spmspv_program(mat, vec, "walk_walk")[0],
        backends=("c",))
    write_report("fig7_spmspv_optimization", [table])
    write_json_report("fig7_spmspv", payload)
    assert payload["max_abs_diff"] < 1e-9
