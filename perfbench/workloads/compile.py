"""``compile``: every figure-registry program, compiled cold, then
served by the disk tier.

Each round opens a fresh :class:`~repro.store.KernelStore`, clears the
memory tier and compiles every distinct ``pack_programs()`` entry
cold, which writes it behind into the store.  Then, three times, it
clears the memory tier and compiles every entry again, so the store
serves each one.  Lowering, the optimizer, emission and the store do
the work here; no kernel body runs.

Correctness: a cold compile must not come from a cache, and a disk
hit must return the very source the cold compile of that round wrote.
Kernel outputs are checked by the other workloads.
"""

import os
import random
import shutil

import repro.lang as fl
from repro.bench import figures
from repro.cin.analyze import structural_key

from perfbench.common import percentile, rate

#: Disk-tier passes per cold pass: a load is a tenth of a compile, so
#: one pass alone would leave its percentiles few samples.
LOAD_PASSES = 3
#: Figures kept by ``--tiny``.
TINY_FIGURES = ("fig1_dot", "fig9_convolution", "fig11_allpairs")


class CompileWorkload:
    name = "compile"

    def setup(self, seed, tiny, tmp, tick):
        entries = figures.pack_programs()
        if tiny:
            entries = [e for e in entries if e[0] in TINY_FIGURES][:6]
        programs = []
        seen = set()
        for _, label, make_program, opts in entries:
            tick()
            program = make_program()
            # Registry entries may repeat a structure; a repeat would be
            # a cache hit, not a cold compile.
            key = (structural_key(program), tuple(sorted(opts.items())))
            if key not in seen:
                seen.add(key)
                programs.append((label, program, opts))
        # The seed picks the compile order; structures are fixed by the
        # registry.
        random.Random(seed).shuffle(programs)
        return {"programs": programs, "tmp": tmp, "round": 0,
                "store_bytes": None, "corrupt": None}

    def run_round(self, state, rec):
        state["round"] += 1
        root = os.path.join(state["tmp"], "store-%d" % state["round"])
        shutil.rmtree(os.path.join(state["tmp"],
                                   "store-%d" % (state["round"] - 1)),
                      ignore_errors=True)
        store = fl.KernelStore(root)
        written = {}
        fl.kernel_cache().clear()
        for label, program, opts in state["programs"]:
            if rec.expired:
                return
            kernel = rec.timed(
                "cold", label,
                lambda: fl.compile_kernel(program, store=store, **opts),
                lambda k: not k.from_cache)
            if kernel is not None:
                written[label] = kernel.source
        if state["store_bytes"] is None:
            state["store_bytes"] = store.stats()["bytes"]
        if state["corrupt"] in written:
            written[state["corrupt"]] += "#"
        for _ in range(LOAD_PASSES):
            fl.kernel_cache().clear()
            for label, program, opts in state["programs"]:
                if rec.expired:
                    return
                rec.timed(
                    "load", label,
                    lambda: fl.compile_kernel(program, store=store, **opts),
                    lambda k: (k.from_cache
                               and k.source == written.get(label)))

    def corrupt(self, state):
        state["corrupt"] = state["programs"][0][0]

    def metrics(self, state, rec):
        cold = rec.times("cold")
        load = rec.times("load")
        values = {
            "p50_ms": percentile(cold, 50) * 1e3,
            "tail_ms": percentile(cold, 90) * 1e3,
            "alt_p50_ms": percentile(load, 50) * 1e3,
            "per_s": rate(len(cold), sum(cold)),
        }
        report = [
            ("compile_ms_p50", values["p50_ms"], "ms", len(cold)),
            ("compile_ms_p90", values["tail_ms"], "ms", len(cold)),
            ("load_ms_p50", values["alt_p50_ms"], "ms", len(load)),
            ("load_ms_p90", percentile(load, 90) * 1e3, "ms", len(load)),
            ("programs", len(state["programs"]), "count", None),
        ]
        return values, report

    def extras(self, state, rec):
        return {"layer": {"store.bytes": state["store_bytes"] or 0}}

    def teardown(self, state):
        fl.kernel_cache().clear()
        shutil.rmtree(os.path.join(state["tmp"], "store-%d" % state["round"]),
                      ignore_errors=True)
