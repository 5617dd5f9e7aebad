"""E4 — Figure 8: triangle counting with galloping intersections.

``C[] += A[i,j] * A[j,k] * AT[i,k]`` over SNAP-like power-law graphs.
The paper's result: galloping gives order-of-magnitude speedups over
merge-based intersection on skewed degree distributions.
"""

import pytest

from repro.baselines import twofinger
from repro.bench.figures import fig8_suite
from repro.bench.harness import Table, amortization_table, assert_amortized
from repro.bench.kernels import triangle_count, triangle_count_program
from repro.workloads import graphs


@pytest.fixture(scope="module")
def suite():
    # The canonical graph suite lives in repro.bench.figures, shared
    # with the AOT kernel-pack builder.
    return fig8_suite()


@pytest.mark.parametrize("protocol", ["walk", "gallop"])
def test_triangles_looplets(benchmark, suite, protocol):
    adj = suite["ca_like_powerlaw"]
    kernel, C = triangle_count(adj, protocol)
    benchmark(kernel.run)
    assert C.value == graphs.triangle_count_reference(adj)


def test_triangles_taco_merge(benchmark, suite):
    adj = suite["ca_like_powerlaw"]
    pos, idx = graphs.adjacency_to_csr(adj)
    result = benchmark(lambda: twofinger.triangle_count_merge(
        pos, idx, adj.shape[0]))
    assert result[0] == graphs.triangle_count_reference(adj)


def test_report_fig8(benchmark, suite, write_report):
    table = Table("Figure 8: triangle counting work (merge steps / ops)",
                  ["graph", "taco merge", "finch walk", "finch gallop",
                   "gallop speedup"])
    gallop_wins = []
    for name, adj in suite.items():
        expected = graphs.triangle_count_reference(adj)
        pos, idx = graphs.adjacency_to_csr(adj)
        count, merge_steps = twofinger.triangle_count_merge(
            pos, idx, adj.shape[0])
        assert count == expected
        walk_kernel, walk_c = triangle_count(adj, "walk", instrument=True)
        walk_ops = walk_kernel.run()
        assert walk_c.value == expected
        gallop_kernel, gallop_c = triangle_count(adj, "gallop",
                                                 instrument=True)
        gallop_ops = gallop_kernel.run()
        assert gallop_c.value == expected
        table.add(name, merge_steps, walk_ops, gallop_ops,
                  merge_steps / max(gallop_ops, 1))
        gallop_wins.append(merge_steps / max(gallop_ops, 1))
    write_report("fig8_triangles", [table])
    # Galloping beats the merge model on the skewed graphs.
    assert max(gallop_wins) > 1.0
    kernel, _ = triangle_count(suite["p2p_like_sparse"], "gallop")
    benchmark(kernel.run)


def test_report_fig8_amortization(suite, write_report):
    """Compile-once/run-many: one triangle-counting artifact serves
    every same-sized graph in the suite via rebinding."""
    adj = suite["ca_like_powerlaw"]
    table = amortization_table(
        "Figure 8 amortization: gallop triangle count, fresh tensors "
        "per run",
        lambda: triangle_count_program(adj, "gallop")[0])
    write_report("fig8_triangles_amortization", [table])
    assert_amortized(table)


def test_report_fig8_optimization(suite, write_report,
                                  write_json_report):
    """Optimizer on vs off for gallop triangle counting: the A[i,j]
    factor hoists out of the innermost intersection loop, and the
    count must not change."""
    from repro.bench.harness import optimization_table

    adj = suite["ca_like_powerlaw"]
    table, payload = optimization_table(
        "Figure 8 optimization: gallop triangle count (ca-like)",
        lambda: triangle_count_program(adj, "gallop")[0],
        backends=("c",))
    write_report("fig8_triangles_optimization", [table])
    write_json_report("fig8_triangles", payload)
    assert payload["max_abs_diff"] == 0.0
