"""``batch``: ``fl.run_batch`` on the process pool.

The fig7 ``walk_walk`` kernel is mapped over every matrix of the
registry's suite times a set of seeded vectors (each with exactly 10%
nonzeros, so every seed asks for the same amount of work).  Set-up
converts the datasets, adopts them into an ``fl.ShmArena`` and warms
the shared process pool
(``max_workers=min(2, nproc)``); each request is then one
``run_batch(executor="processes")`` call, followed by the same batch
on the ``serial`` executor, which is the base of the scaling ratio.
The pool, the shared-memory transport and the collect step are on
the critical path here and nowhere else.

Expected outputs are ``y = A x`` summed in row order with numpy,
compared bit-for-bit.
"""

import os

import repro.lang as fl
from repro.bench import figures
from repro.tensors.share import share_dataset
from repro.workloads import matrices

from perfbench import programs, refs
from perfbench.common import percentile, rate

VECTORS = 4


class BatchWorkload:
    name = "batch"

    def setup(self, seed, tiny, tmp, tick):
        workers = min(2, os.cpu_count() or 1)
        # run_batch reuses the shared warm pool only when its size
        # matches max_workers.
        fl.configure(pool_max_workers=workers)
        suite = figures.fig7_suite()
        names = sorted(suite)[:2] if tiny else sorted(suite)
        vectors = [matrices.sparse_vector(figures.FIG7_N,
                                          count=figures.FIG7_N // 10,
                                          seed=seed * 100 + v)
                   for v in range(1 if tiny else VECTORS)]
        arena = fl.ShmArena()
        datasets, expected = [], []
        for name in names:
            tick()
            A = fl.from_numpy(suite[name], ("dense", "sparse"), name="A")
            for vec in vectors:
                datasets.append(share_dataset({
                    "A": A,
                    "x": fl.from_numpy(vec, ("sparse",), name="x"),
                    "y": fl.zeros(figures.FIG7_N, name="y")}, arena))
                expected.append(refs.Expect(refs.spmspv(suite[name], vec)))
        first = datasets[0]
        program = programs.spmspv(first["A"], first["x"], first["y"],
                                  "walk_walk")
        state = {"program": program, "datasets": datasets,
                 "expected": expected, "workers": workers,
                 "arena": arena}
        # Warm the pool: spawn workers and ship them the kernel spec.
        self._batch(state, "processes")
        return state

    def _batch(self, state, executor):
        return fl.run_batch(state["program"], state["datasets"],
                            executor=executor,
                            max_workers=state["workers"])

    def _poison(self, state):
        """Every batch writes the same shared ``y`` buffers, so they are
        poisoned before each one (untimed): a worker that writes
        nothing then fails the check."""
        for dataset in state["datasets"]:
            programs.poison_tensor(dataset["y"])

    def _check(self, state, result):
        return (len(result) == len(state["expected"])
                and all(expect.matches(item.outputs[0])
                        for expect, item in zip(state["expected"],
                                                result)))

    def run_round(self, state, rec):
        results = rec.extras.setdefault("results", [])
        for executor in ("processes", "serial"):
            if rec.expired:
                return
            result = rec.timed(executor, executor,
                               lambda _: self._batch(state, executor),
                               lambda r: self._check(state, r),
                               prepare=lambda: self._poison(state))
            if result is not None and executor == "processes":
                results.append(result)

    def corrupt(self, state):
        state["expected"][0] = state["expected"][0].corrupted()

    def _rates(self, state, rec):
        items = len(state["datasets"])
        procs = rec.times("processes")
        serial = rec.times("serial")
        return (items * rate(len(procs), sum(procs)),
                items * rate(len(serial), sum(serial)))

    def metrics(self, state, rec):
        procs = rec.times("processes")
        serial = rec.times("serial")
        rate, serial_rate = self._rates(state, rec)
        values = {
            "p50_ms": percentile(procs, 50) * 1e3,
            "tail_ms": percentile(procs, 75) * 1e3,
            "alt_p50_ms": percentile(serial, 50) * 1e3,
            "per_s": rate,
        }
        report = [
            ("batch_items_per_s", rate, "1/s", len(procs)),
            ("batch_ms_p50", values["p50_ms"], "ms", len(procs)),
            ("batch_ms_p75", values["tail_ms"], "ms", len(procs)),
            ("serial_items_per_s", serial_rate, "1/s", len(serial)),
            ("items_per_batch", len(state["datasets"]), "count", None),
            ("workers", state["workers"], "count", None),
        ]
        return values, report

    def extras(self, state, rec):
        results = rec.extras.get("results", [])
        layer = {}
        if results:
            for stage in ("serialize", "transport", "execute", "collect"):
                layer["exec.%s_ms" % stage] = sum(
                    r.overhead.get(stage + "_s", 0.0)
                    for r in results) / len(results) * 1e3
            layer["exec.retries"] = sum(r.faults["retries"]
                                        for r in results)
            layer["exec.crashes"] = sum(r.faults["crashes"]
                                        for r in results)
        if rec.times("processes") and rec.times("serial"):
            rate, serial_rate = self._rates(state, rec)
            layer["exec.efficiency"] = rate / (serial_rate
                                               * state["workers"])
        return {"layer": layer}

    def teardown(self, state):
        fl.default_pool().close()
        state["arena"].close()
        fl.kernel_cache().clear()
