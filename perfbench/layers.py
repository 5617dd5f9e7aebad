"""The per-layer metrics of a traced run, and what each should move.

Every metric is emitted on every workload.  A layer a workload does
not exercise reads 0 there (no calls, no time); the ``moves`` column
names the workload where the layer does most of its work and the
end-to-end metric a change to it should move.
"""

from perfbench.common import geomean

FIGURES = ("fig1_dot", "fig7_spmspv", "fig8_triangles",
           "fig9_convolution", "fig10_alpha", "fig11_allpairs")

#: ``(name, unit, moves)``, in report order.
METRICS = [
    ("cin.structural_key_us", "us", "dispatch p50_ms (small on compile)"),
    ("compiler.lower_ms", "ms", "compile p50_ms"),
    ("ir.optimize_ms", "ms", "compile p50_ms/tail_ms; not dispatch"),
    ("ir.optimize_share", "fraction", "compile p50_ms/tail_ms"),
    ("ir.fold_constants_ms", "ms", "compile p50_ms/tail_ms"),
    ("ir.dead_code_ms", "ms", "compile p50_ms/tail_ms"),
    ("ir.vectorize_ms", "ms", "compile p50_ms/tail_ms"),
    ("ir.hoist_invariants_ms", "ms", "compile p50_ms/tail_ms"),
    ("ir.eliminate_common_subexprs_ms", "ms", "compile p50_ms/tail_ms"),
    ("ir.walk_statements_calls", "count", "compile p50_ms (deterministic)"),
    ("ir.emit_ms", "ms", "compile p50_ms/tail_ms"),
    ("ir.emit_calls", "count", "compile p50_ms (deterministic)"),
    ("ir.source_bytes", "bytes", "none: guards emitted source"),
    ("codegen.emit_c_ms", "ms", "kernels alt_p50_ms, setup_s"),
    ("codegen.cc_ms", "ms", "kernels setup_s"),
    ("codegen.cc_calls", "count", "kernels setup_s (deterministic)"),
    ("codegen.c_effective_ratio", "fraction", "kernels alt_p50_ms"),
    ("store.save_ms", "ms", "compile p50_ms/tail_ms"),
    ("store.load_ms", "ms", "compile alt_p50_ms"),
    ("store.hit_ratio", "fraction", "compile alt_p50_ms"),
    ("store.bytes", "bytes", "compile alt_p50_ms"),
    ("compiler.cache_lookup_us", "us", "dispatch p50_ms/per_s"),
    ("compiler.cache_hit_ratio", "fraction", "dispatch p50_ms/per_s"),
    ("compiler.validate_us", "us", "dispatch p50_ms/per_s"),
    ("compiler.bind_us", "us", "dispatch p50_ms/per_s"),
    ("compiler.kernel_run_us", "us", "dispatch p50_ms; not kernels"),
]
for _figure in FIGURES:
    METRICS += [
        ("kernels.%s.python_ms" % _figure, "ms", "kernels p50_ms"),
        ("kernels.%s.c_ms" % _figure, "ms", "kernels alt_p50_ms"),
        ("kernels.%s.ops" % _figure, "count",
         "kernels p50_ms (deterministic)"),
    ]
METRICS += [
    ("tensors.from_numpy_ms", "ms", "ingest p50_ms/alt_p50_ms, setup_s"),
    ("tensors.from_numpy_share", "fraction", "ingest p50_ms, setup_s"),
    ("exec.serialize_ms", "ms", "batch per_s"),
    ("exec.transport_ms", "ms", "batch per_s"),
    ("exec.execute_ms", "ms", "batch per_s"),
    ("exec.collect_ms", "ms", "batch per_s"),
    ("exec.retries", "count", "batch per_s"),
    ("exec.crashes", "count", "batch per_s"),
    ("exec.efficiency", "fraction", "batch per_s"),
    ("trace.overhead_frac", "fraction", "none: tracing cost"),
    ("failed_frac", "fraction", "none: correctness"),
]

UNITS = {name: unit for name, unit, _ in METRICS}

#: Optimizer passes, by span name.
PASSES = ("fold_constants", "dead_code", "vectorize", "hoist_invariants",
          "eliminate_common_subexprs")


def _mean(totals, name, scale):
    calls, inclusive, _ = totals.get(name, (0, 0.0, 0.0))
    return inclusive / calls * scale if calls else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def compute(totals, counts, extras):
    """Every per-layer metric from span totals, counters, and the
    workload's own extras (kernel times, op counts, batch overheads,
    store size)."""
    values = dict.fromkeys(UNITS, 0.0)
    inclusive = {name: entry[1] for name, entry in totals.items()}
    calls = {name: entry[0] for name, entry in totals.items()}
    values["cin.structural_key_us"] = _mean(totals, "structural_key", 1e6)
    values["compiler.lower_ms"] = _mean(totals, "lower_stmt", 1e3)
    values["ir.optimize_ms"] = _mean(totals, "optimize_kernel", 1e3)
    values["ir.optimize_share"] = _ratio(
        inclusive.get("optimize_kernel", 0.0),
        inclusive.get("compile_kernel.cold", 0.0))
    optimizes = calls.get("optimize_kernel", 0)
    for name in PASSES:
        values["ir.%s_ms" % name] = _ratio(
            inclusive.get(name, 0.0) * 1e3, optimizes)
    values["ir.walk_statements_calls"] = counts["walk_statements"]
    values["ir.emit_ms"] = _mean(totals, "emit", 1e3)
    values["ir.emit_calls"] = counts["emit"]
    values["ir.source_bytes"] = counts["source_bytes"]
    values["codegen.emit_c_ms"] = _mean(totals, "emit_c", 1e3)
    values["codegen.cc_ms"] = _mean(totals, "cc", 1e3)
    values["codegen.cc_calls"] = counts["cc"]
    values["codegen.c_effective_ratio"] = _ratio(counts["c_effective"],
                                                 counts["c_requested"])
    values["store.save_ms"] = _mean(totals, "store_save", 1e3)
    values["store.load_ms"] = _mean(totals, "store_load", 1e3)
    values["store.hit_ratio"] = _ratio(counts["store_hits"],
                                       counts["store_loads"])
    values["compiler.cache_lookup_us"] = _mean(totals, "cache_lookup", 1e6)
    values["compiler.cache_hit_ratio"] = _ratio(counts["cache_hits"],
                                                counts["cache_lookups"])
    values["compiler.validate_us"] = _mean(totals, "validate", 1e6)
    values["compiler.bind_us"] = _mean(totals, "bind", 1e6)
    values["compiler.kernel_run_us"] = _mean(totals, "kernel_run", 1e6)
    values["tensors.from_numpy_ms"] = _mean(totals, "from_numpy", 1e3)
    values["tensors.from_numpy_share"] = _ratio(
        inclusive.get("from_numpy", 0.0),
        inclusive.get("setup", 0.0) + inclusive.get("request", 0.0))
    for figure in FIGURES:
        for backend in ("python", "c"):
            times = extras.get("kernel_ms", {}).get((figure, backend))
            if times:
                values["kernels.%s.%s_ms" % (figure, backend)] = \
                    geomean(times)
        values["kernels.%s.ops" % figure] = \
            extras.get("ops", {}).get(figure, 0)
    values.update(extras.get("layer", {}))
    return values


def layer_of(span_name):
    """The layer a span name belongs to, for the summary."""
    return {
        "structural_key": "cin",
        "lower_stmt": "compiler",
        "compile_kernel.cold": "compiler",
        "compile_kernel.hit": "compiler",
        "cache_lookup": "compiler",
        "validate": "compiler",
        "bind": "compiler",
        "kernel_run": "kernels",
        "optimize_kernel": "ir",
        "emit": "ir",
        "emit_c": "codegen",
        "cc": "codegen",
        "cc.memo": "codegen",
        "store_load": "store",
        "store_save": "store",
        "from_numpy": "tensors",
        "run_batch": "exec",
        "setup": "bench",
        "request": "bench",
    }.get(span_name, "ir" if span_name in PASSES else "?")
