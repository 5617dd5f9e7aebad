"""Span recording around the program's layer entry points.

The traced run wraps public functions of each layer from outside the
program: :meth:`Tracer.install` swaps every listed function for a
recorder in each ``repro`` module that holds a reference to it (and on
the class, for methods), and :meth:`Tracer.uninstall` puts the
originals back.  Nothing under ``src/`` knows it is being traced.

A span is ``[name, start, end, parent, request]``: ``parent`` is the
index of the enclosing span (-1 at the root) and ``request`` the id
the benchmark gave the request that caused it (0 for set-up and for
work outside any request).  Spans stay in memory; :meth:`Tracer.write` dumps them as JSON
lines when the run ends.  Recursive entry points are recorded at the
outermost call only.

Counts that must repeat exactly (``walk_statements`` calls, emitted
source bytes, ``cc`` invocations) are only taken while
:attr:`Tracer.counting` is set: during set-up and the first round of
the traced window, which do the same work on every run.
"""

import importlib
import json
import sys
import time
from collections import Counter

#: ``(where, span name, kind)``: ``where`` is ``module:function`` or
#: ``module:Class.method``.  ``kind`` is ``span`` (timed), ``count``
#: (call count only: a generator, whose call returns at once) or the
#: name of a hook below that also inspects the result.
TARGETS = (
    ("repro.cin.analyze:structural_key", "structural_key", "span"),
    ("repro.compiler.lower:Lowerer.lower_stmt", "lower_stmt", "span"),
    ("repro.ir.optimize:optimize_kernel", "optimize_kernel", "span"),
    ("repro.ir.optimize:fold_constants", "fold_constants", "span"),
    ("repro.ir.optimize:dead_code", "dead_code", "span"),
    ("repro.ir.optimize:vectorize", "vectorize", "span"),
    ("repro.ir.optimize:hoist_invariants", "hoist_invariants", "span"),
    ("repro.ir.optimize:eliminate_common_subexprs",
     "eliminate_common_subexprs", "span"),
    ("repro.ir.asm:walk_statements", "walk_statements", "count"),
    ("repro.ir.emit:emit", "emit", "emit"),
    ("repro.codegen.c_emit:emit_c", "emit_c", "span"),
    ("repro.codegen.toolchain:compile_shared", "cc", "cc"),
    ("repro.compiler.kernel:compile_kernel", "compile_kernel",
     "compile"),
    ("repro.compiler.kernel:KernelCache.lookup", "cache_lookup",
     "lookup"),
    ("repro.store.disk:KernelStore.load_artifact", "store_load",
     "load"),
    ("repro.store.disk:KernelStore.save_spec", "store_save", "span"),
    ("repro.compiler.kernel:CompiledKernel.validate", "validate",
     "span"),
    ("repro.compiler.kernel:CompiledKernel.bind", "bind", "span"),
    ("repro.compiler.kernel:Kernel.run", "kernel_run", "span"),
    ("repro.tensors.construct:from_numpy", "from_numpy", "span"),
    ("repro.exec.batch:run_batch", "run_batch", "span"),
)


class Tracer:
    """In-memory span and counter store plus the patching machinery."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.counting = True
        self.request = 0
        self._next_request = 0
        self._stack = []
        self._patches = []
        self._cc_seen = set()

    # -- spans -------------------------------------------------------------
    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.request])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def begin_request(self):
        """Open a request span under a fresh request id."""
        self._next_request += 1
        self.request = self._next_request
        return self.open("request")

    def end_request(self, index):
        self.close(index)
        self.request = 0

    # -- patching ----------------------------------------------------------
    def install(self):
        for where, name, kind in TARGETS:
            module_name, attr = where.split(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                setattr(owner, method, self._wrap(name, kind, original))
                self._patches.append((owner, method, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, kind, original)
            for held in list(sys.modules.values()):
                if not getattr(held, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(held).items()):
                    if value is original:
                        setattr(held, key, wrapped)
                        self._patches.append((held, key, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, kind, fn):
        tracer = self
        counts = self.counts
        if kind == "count":
            def counted(*args, **kwargs):
                if tracer.counting:
                    counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        hook = getattr(self, "_after_" + kind, None)
        depth = [0]

        def traced(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
                depth[0] -= 1
            if hook is not None:
                hook(index, args, result)
            return result

        return traced

    # -- result hooks ------------------------------------------------------
    def _after_emit(self, index, args, result):
        if self.counting:
            self.counts["emit"] += 1

    def _after_cc(self, index, args, result):
        from repro.codegen.toolchain import source_digest

        digest = source_digest(args[0])
        if digest in self._cc_seen:
            self.spans[index][0] = "cc.memo"
            return
        self._cc_seen.add(digest)
        if self.counting:
            self.counts["cc"] += 1

    def _after_compile(self, index, args, result):
        cold = not result.from_cache
        self.spans[index][0] = ("compile_kernel.cold" if cold
                                else "compile_kernel.hit")
        if cold and self.counting:
            self.counts["source_bytes"] += len(result.source)
            if result.backend == "c":
                self.counts["c_requested"] += 1
                self.counts["c_effective"] += (
                    result.effective_backend == "c")

    def _after_lookup(self, index, args, result):
        self.counts["cache_lookups"] += 1
        self.counts["cache_hits"] += result is not None

    def _after_load(self, index, args, result):
        self.counts["store_loads"] += 1
        self.counts["store_hits"] += result is not None

    # -- output ------------------------------------------------------------
    def write(self, path, meta):
        with open(path, "w") as handle:
            handle.write(json.dumps({"meta": meta}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def aggregate(spans):
    """Per-name ``(calls, inclusive seconds, self seconds)``.

    Self time is a span's duration minus the time its direct children
    cover; children never overlap because the run is single-threaded.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child_time[parent] += span[2] - span[1]
    totals = {}
    for index, span in enumerate(spans):
        duration = span[2] - span[1]
        calls, inclusive, own = totals.get(span[0], (0, 0.0, 0.0))
        totals[span[0]] = (calls + 1, inclusive + duration,
                           own + duration - child_time[index])
    return totals
