"""E7 — Figure 11: all-pairs image similarity.

Pairwise Euclidean distances between linearized images via the paper's
two-statement kernel (norms, then a where-scoped inner product).  The
shape to reproduce: VBL exploits the white background and clustered ink
of digit images; RLE is better on noisier Omniglot-like backgrounds
(run-summation over run pairs); dense does the most work.
"""

import os

import numpy as np
import pytest

from repro.baselines import dense_ref
from repro.bench.figures import (
    FIG11_COUNT as COUNT,
    FIG11_FORMATS as FORMATS,
    fig11_batch as batch,
)
from repro.bench.harness import (
    Table,
    amortization_table,
    assert_amortized,
    throughput_table,
)
from repro.bench.kernels import all_pairs_similarity, all_pairs_similarity_program
from repro.cin.analyze import program_tensors
from repro.workloads import images

# Batch size, formats, and image generation live in
# repro.bench.figures, shared with the AOT kernel-pack builder.


@pytest.mark.parametrize("fmt", FORMATS)
def test_all_pairs_digits(benchmark, fmt):
    data = batch("digit", 20)
    kernel, O = all_pairs_similarity(data, fmt)
    benchmark(kernel.run)
    np.testing.assert_allclose(O.to_numpy(),
                               dense_ref.all_pairs_numpy(data),
                               atol=1e-9)


def test_report_fig11(benchmark, write_report):
    tables = []
    results = {}
    for kind, size in (("digit", 20), ("character", 24)):
        table = Table("Figure 11 (%s-like images, %d images of %dx%d)"
                      % (kind, COUNT, size, size),
                      ["format", "ops", "vs dense"])
        data = batch(kind, size)
        expected = dense_ref.all_pairs_numpy(data)
        ops = {}
        for fmt in FORMATS:
            kernel, O = all_pairs_similarity(data, fmt,
                                             instrument=True)
            ops[fmt] = kernel.run()
            np.testing.assert_allclose(O.to_numpy(), expected,
                                       atol=1e-9)
            table.add(fmt, ops[fmt], ops["dense"] / max(ops[fmt], 1))
        results[kind] = ops
        tables.append(table)
    write_report("fig11_allpairs", tables)
    # Structured formats beat dense on white-background images, with
    # VBL the strongest on clustered digit ink (the paper's shape).
    assert results["digit"]["vbl"] < results["digit"]["dense"]
    assert results["digit"]["vbl"] < results["digit"]["sparse"]
    # On Omniglot-like images the uniform nonzero paper tone defeats
    # sparse and VBL, while RLE still sees long runs (the paper's
    # Figure 11 inversion).
    assert results["character"]["rle"] < results["character"]["sparse"]
    assert results["character"]["rle"] < results["character"]["vbl"]
    data = batch("digit", 20)
    kernel, _ = all_pairs_similarity(data, "vbl")
    benchmark(kernel.run)


def test_report_fig11_amortization(write_report):
    """Compile-once/run-many: the two-statement all-pairs program
    compiles once per format and rebinds over fresh batches."""
    table = amortization_table(
        "Figure 11 amortization: all-pairs (vbl), fresh batch per run",
        lambda: all_pairs_similarity_program(batch("digit", 20),
                                             "vbl")[0])
    write_report("fig11_allpairs_amortization", [table])
    assert_amortized(table)


def test_report_fig11_throughput(write_report, write_json_report):
    """Batched all-pairs throughput: one VBL kernel, many image
    batches.

    The two-statement all-pairs program is the heaviest kernel in the
    suite, so it is the end-to-end check that the batch engine keeps
    multi-output programs (norms, distances, and the scalar
    accumulator) deterministic under every executor.
    """
    batches = [
        images.linearized_batch("digit", COUNT, size=20, seed=seed)
        for seed in range(8)
    ]
    template = all_pairs_similarity_program(batches[0], "vbl")[0]
    datasets = [
        program_tensors(all_pairs_similarity_program(data, "vbl")[0])
        for data in batches
    ]
    workers = min(4, os.cpu_count() or 1)
    table, payload = throughput_table(
        "Figure 11 throughput: batched all-pairs (vbl, %d batches)"
        % len(batches),
        template, datasets, max_workers=workers)
    write_report("fig11_allpairs_throughput", [table])
    write_json_report("fig11_allpairs_throughput", payload)
    assert payload["identical"], payload
    if workers >= 4:
        # The heaviest kernel amortizes transport best: multi-core
        # efficiency is the end-to-end warm-pool acceptance check.
        processes = payload["executors"]["processes"]
        assert processes["efficiency"] >= 0.6, payload


def test_report_fig11_optimization(write_report, write_json_report):
    """Optimizer on vs off for all-pairs similarity in both the vbl
    (sparse coiteration) and dense (vectorizable inner product)
    formats, over identical batches."""
    from repro.bench.harness import optimization_table

    data = batch("digit", 20)
    vbl_table, vbl_payload = optimization_table(
        "Figure 11 optimization: all-pairs (vbl)",
        lambda: all_pairs_similarity_program(data, "vbl")[0],
        backends=("c",))
    dense_table, dense_payload = optimization_table(
        "Figure 11 optimization: all-pairs (dense)",
        lambda: all_pairs_similarity_program(data, "dense")[0],
        backends=("c",))
    write_report("fig11_allpairs_optimization",
                 [vbl_table, dense_table])
    write_json_report("fig11_allpairs", {"vbl": vbl_payload,
                                         "dense": dense_payload})
    assert vbl_payload["max_abs_diff"] < 1e-9
    assert dense_payload["max_abs_diff"] < 1e-9
    # Dense all-pairs has a vectorizable inner product: the optimized
    # variant must not be slower.
    assert dense_payload["speedup"] > 1.0
