"""Differential conformance: one generated case, every oracle pair.

Each case spec is executed through every implementation layer that
must agree bit-for-bit:

``interpreter``
    The naive reference interpreter (:mod:`repro.baselines.reference`)
    — the trusted semantics every other oracle is judged against.

``compiled@0`` / ``compiled@1`` / ``compiled@2``
    The full compiler with the target-IR optimizer off, scalar-only,
    and with vectorization.  Instrumented, so the op-count invariant
    (the optimizer never changes the measured work) is checked too.

``c_backend``
    The same program compiled with ``backend="c"``
    (:mod:`repro.codegen`): the optimized target AST lowered to C99,
    built into a shared object, and called through ctypes.  Cases the
    C emitter cannot express fall back to the python backend — the
    oracle still runs them (the fallback path must agree too) and
    reports the effective backend in any divergence it files.  The
    instrumented op count must equal ``compiled@2``'s: the C lowering
    may never change the measured work.

``spec_roundtrip``
    The ``compiled@2`` artifact serialized through
    :meth:`~repro.compiler.kernel.CompiledKernel.to_spec`, rebuilt
    with ``from_spec`` (a fresh ``exec`` of the carried source), and
    rebound to fresh tensors.

``store_roundtrip``
    The ``compiled@2`` artifact persisted into an on-disk
    :class:`~repro.store.KernelStore` (one per process, in a temp
    directory), loaded back by store key, and rebound to fresh
    tensors — the disk tier's write/read/rebuild path must be
    bit-identical too.

``batch_serial`` / ``batch_threads`` / ``batch_processes``
    :func:`repro.exec.batch.run_batch` mapping the kernel over several
    fresh copies of the dataset under each executor; every per-dataset
    snapshot and the aggregate op count must match.

``batch_chaos``
    (``chaos=True`` only) the processes batch re-run under an armed
    :func:`repro.chaos.chaos` plan — one injected worker crash, with a
    retry budget.  Fault tolerance must be *invisible* in the data
    plane: the recovered batch's snapshots and op totals must still be
    bit-identical to the interpreter.

Case data is integer-valued (see :mod:`repro.fuzz.gen`), so every
intermediate is exact in float64 and all comparisons demand
**bit-identical** arrays — there is no tolerance to hide a real
divergence behind.
"""

import atexit
import shutil
import tempfile
import time

import numpy as np

from repro.baselines.reference import interpret
from repro.compiler.kernel import CompiledKernel, Kernel, compile_kernel
from repro.exec.batch import run_batch
from repro.fuzz.gen import build_case, describe_spec, generate_spec

#: Oracle names, in execution order.
ORACLES = ("interpreter", "compiled@0", "compiled@1", "compiled@2",
           "c_backend", "spec_roundtrip", "store_roundtrip",
           "batch_serial", "batch_threads", "batch_processes")

#: The opt-in fault-injection oracle (``conform_spec(..., chaos=True)``).
CHAOS_ORACLE = "batch_chaos"

#: The chaos plan the ``batch_chaos`` oracle arms: one worker crash,
#: anywhere in the fleet, which the retry machinery must absorb.
CHAOS_PLAN = {"worker_crash": {"nth": 1}}

#: Per-profile batch shape: (datasets per batch, workers).
_BATCH_SHAPE = {"quick": (2, 2), "deep": (3, 3)}


class Divergence:
    """One disagreement between two oracles on one case."""

    __slots__ = ("left", "right", "what", "detail")

    def __init__(self, left, right, what, detail):
        self.left = left
        self.right = right
        self.what = what
        self.detail = detail

    @property
    def pair(self):
        return "%s vs %s" % (self.left, self.right)

    def __repr__(self):
        return "Divergence(%s: %s — %s)" % (self.pair, self.what,
                                            self.detail)

    def __str__(self):
        return "%s: %s (%s)" % (self.pair, self.what, self.detail)


class CaseReport:
    """Everything one conformance run learned about one spec.

    ``c_effective`` says whether the ``c_backend`` oracle actually ran
    the kernel in C (False when it fell back to python or crashed).
    """

    def __init__(self, spec, divergences, oracles_run, seconds,
                 c_effective=False):
        self.spec = spec
        self.divergences = divergences
        self.oracles_run = tuple(oracles_run)
        self.seconds = seconds
        self.c_effective = c_effective

    @property
    def ok(self):
        return not self.divergences

    def summary(self):
        head = describe_spec(self.spec)
        if self.ok:
            return "ok: %s" % head
        lines = ["DIVERGED: %s" % head]
        lines += ["  " + str(d) for d in self.divergences]
        return "\n".join(lines)

    def __repr__(self):
        state = "ok" if self.ok else "%d divergences" % len(
            self.divergences)
        return "CaseReport(seed=%r, %s)" % (self.spec.get("seed"), state)


def _max_abs_delta(left, right):
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    if left.shape != right.shape:
        return "shape %s vs %s" % (left.shape, right.shape)
    if left.size == 0:
        return 0.0
    return float(np.max(np.abs(left - right)))


def _compare(divergences, left_name, right_name, left, right,
             what="output"):
    left_arr = np.asarray(left)
    right_arr = np.asarray(right)
    if left_arr.shape == right_arr.shape and np.array_equal(
            left_arr, right_arr):
        return
    divergences.append(Divergence(
        left_name, right_name, what,
        "max|delta|=%s" % (_max_abs_delta(left_arr, right_arr),)))


def reference_outputs(program):
    """The reference interpreter's outputs for ``program``, as numpy
    arrays in :func:`~repro.cin.analyze.output_tensors` order.

    The trusted side of :func:`verify_candidate`, split out so a
    caller checking many rewrites of one program (the autotuner runs
    dozens of candidates over identical data) pays for the interpreter
    once, not once per candidate.
    """
    from repro.cin.analyze import output_tensors

    reference = interpret(program)
    return [np.asarray(reference.result_for(out))
            for out in output_tensors(program)]


def verify_candidate(program, kernel, name="candidate", expected=None):
    """Bit-identity check of one compiled kernel against the reference
    interpreter — the eligibility gate of the schedule autotuner
    (:mod:`repro.tune`): a candidate with any divergence can never
    become a persisted winner.

    ``kernel`` must be bound to ``program``'s tensors (the tuner's
    protocol rewrite shares tensors, so the rewritten program
    qualifies).  The interpreter runs first — it reads inputs and
    never writes outputs — then the kernel, and every output tensor is
    compared **bit-for-bit** (:func:`numpy.array_equal`, no
    tolerance).  A kernel crash is a divergence too, same as in
    :func:`conform_spec`.  ``expected`` short-circuits the interpreter
    run with precomputed :func:`reference_outputs` (per-candidate
    loops).  Returns a list of :class:`Divergence` (empty =
    conformant).
    """
    from repro.cin.analyze import output_tensors

    divergences = []
    outputs = output_tensors(program)
    if expected is None:
        expected = reference_outputs(program)
    try:
        kernel.run()
    except Exception as exc:
        divergences.append(Divergence(
            "interpreter", name, "crash",
            "%s: %s" % (type(exc).__name__, exc)))
        return divergences
    for pos, (out, want) in enumerate(zip(outputs, expected)):
        to_numpy = getattr(out, "to_numpy", None)
        got = (np.array(to_numpy(), copy=True) if to_numpy is not None
               else np.asarray(out.value))
        _compare(divergences, "interpreter", name, want, got,
                 what="output[%d]" % pos)
    return divergences


def _run_compiled(spec, opt_level):
    """(output array, op count) of a fresh compiled run of ``spec``."""
    case = build_case(spec)
    kernel = compile_kernel(case.program, instrument=True,
                            opt_level=opt_level)
    n_ops = kernel.run()
    return case.output_array(), int(n_ops)


def _run_c_backend(spec):
    """(output, op count, effective backend) of a ``backend="c"`` run.

    The effective backend says whether the case actually exercised the
    C path or fell back to python (both must be bit-identical to the
    interpreter, but a campaign summary wants to know its C coverage).
    """
    case = build_case(spec)
    kernel = compile_kernel(case.program, instrument=True, opt_level=2,
                            backend="c")
    n_ops = kernel.run()
    return case.output_array(), int(n_ops), kernel.effective_backend


def _run_spec_roundtrip(spec):
    """Output of the serialized-then-rebuilt ``compiled@2`` artifact."""
    case = build_case(spec)
    kernel = compile_kernel(case.program, instrument=True, opt_level=2)
    rebuilt = CompiledKernel.from_spec(kernel.to_spec())
    view = Kernel(rebuilt, case.slot_tensors(), case.program)
    n_ops = view.run()
    return case.output_array(), int(n_ops)


_STORE = None


def _oracle_store():
    """One throwaway on-disk store per process, for the disk-tier
    oracle (created lazily, removed at interpreter exit)."""
    global _STORE
    if _STORE is None:
        from repro.store import KernelStore

        root = tempfile.mkdtemp(prefix="fl-conform-store-")
        atexit.register(shutil.rmtree, root, ignore_errors=True)
        _STORE = KernelStore(root)
    return _STORE


def _run_store_roundtrip(spec):
    """Output of the artifact after a disk-store write/read cycle."""
    from repro.store import meta_for_artifact

    case = build_case(spec)
    kernel = compile_kernel(case.program, instrument=True, opt_level=2)
    store = _oracle_store()
    if store.save_artifact(kernel.artifact) is None:
        raise RuntimeError("artifact refused to serialize for the "
                           "store tier")
    rebuilt = store.load_artifact(meta_for_artifact(kernel.artifact))
    if rebuilt is None:
        raise RuntimeError("store round-trip read back a miss for an "
                           "entry written this call")
    view = Kernel(rebuilt, case.slot_tensors(), case.program)
    n_ops = view.run()
    return case.output_array(), int(n_ops)


def _run_batch_oracle(spec, executor, count, workers):
    """Per-dataset snapshots and total ops under one batch executor."""
    template_case = build_case(spec)
    datasets = [build_case(spec).slot_tensors() for _ in range(count)]
    result = run_batch(template_case.program, datasets,
                       executor=executor, max_workers=workers,
                       instrument=True)
    snapshots = [item.outputs[0] for item in result]
    return snapshots, int(result.total_ops)


def _run_chaos_oracle(spec, count, workers):
    """The processes batch with one injected worker crash.

    Returns the same (snapshots, total ops) shape as the plain batch
    oracles plus the batch's fault ledger, so the caller can verify a
    fault actually fired (a chaos oracle that never injects anything
    proves nothing).
    """
    from repro.chaos import chaos as chaos_ctx

    template_case = build_case(spec)
    datasets = [build_case(spec).slot_tensors() for _ in range(count)]
    with chaos_ctx(CHAOS_PLAN):
        result = run_batch(template_case.program, datasets,
                           executor="processes", max_workers=workers,
                           instrument=True, max_retries=3)
    snapshots = [item.outputs[0] for item in result]
    return snapshots, int(result.total_ops), dict(result.faults)


def conform_spec(spec, profile="quick", chaos=False):
    """Run every oracle over ``spec``; returns a :class:`CaseReport`.

    Any oracle *crash* (not just a wrong answer) is recorded as a
    divergence against the interpreter — an engine that errors on a
    grammar-legal case has diverged from the reference, which accepts
    it.
    """
    start = time.perf_counter()
    divergences = []
    oracles_run = ["interpreter"]

    case = build_case(spec)
    reference = interpret(case.program)
    expected = np.asarray(reference.result_for(case.output))

    compiled_ops = {}
    for level in (0, 1, 2):
        name = "compiled@%d" % level
        oracles_run.append(name)
        try:
            got, n_ops = _run_compiled(spec, level)
        except Exception as exc:
            divergences.append(Divergence(
                "interpreter", name, "crash",
                "%s: %s" % (type(exc).__name__, exc)))
            continue
        compiled_ops[level] = n_ops
        _compare(divergences, "interpreter", name, expected, got)
    for level in (1, 2):
        if 0 in compiled_ops and level in compiled_ops \
                and compiled_ops[level] != compiled_ops[0]:
            divergences.append(Divergence(
                "compiled@0", "compiled@%d" % level, "op count",
                "%d vs %d" % (compiled_ops[0], compiled_ops[level])))

    oracles_run.append("c_backend")
    c_effective = False
    try:
        got, n_ops, effective = _run_c_backend(spec)
        c_effective = effective == "c"
        _compare(divergences, "interpreter",
                 "c_backend[%s]" % effective, expected, got)
        if 2 in compiled_ops and n_ops != compiled_ops[2]:
            divergences.append(Divergence(
                "compiled@2", "c_backend[%s]" % effective, "op count",
                "%d vs %d" % (compiled_ops[2], n_ops)))
    except Exception as exc:
        divergences.append(Divergence(
            "interpreter", "c_backend", "crash",
            "%s: %s" % (type(exc).__name__, exc)))

    oracles_run.append("spec_roundtrip")
    try:
        got, n_ops = _run_spec_roundtrip(spec)
        _compare(divergences, "interpreter", "spec_roundtrip",
                 expected, got)
        if 2 in compiled_ops and n_ops != compiled_ops[2]:
            divergences.append(Divergence(
                "compiled@2", "spec_roundtrip", "op count",
                "%d vs %d" % (compiled_ops[2], n_ops)))
    except Exception as exc:
        divergences.append(Divergence(
            "interpreter", "spec_roundtrip", "crash",
            "%s: %s" % (type(exc).__name__, exc)))

    oracles_run.append("store_roundtrip")
    try:
        got, n_ops = _run_store_roundtrip(spec)
        _compare(divergences, "interpreter", "store_roundtrip",
                 expected, got)
        if 2 in compiled_ops and n_ops != compiled_ops[2]:
            divergences.append(Divergence(
                "compiled@2", "store_roundtrip", "op count",
                "%d vs %d" % (compiled_ops[2], n_ops)))
    except Exception as exc:
        divergences.append(Divergence(
            "interpreter", "store_roundtrip", "crash",
            "%s: %s" % (type(exc).__name__, exc)))

    count, workers = _BATCH_SHAPE.get(profile, _BATCH_SHAPE["quick"])
    batch_ops = {}
    for executor in ("serial", "threads", "processes"):
        name = "batch_%s" % executor
        oracles_run.append(name)
        try:
            snapshots, total_ops = _run_batch_oracle(
                spec, executor, count, workers)
        except Exception as exc:
            divergences.append(Divergence(
                "interpreter", name, "crash",
                "%s: %s" % (type(exc).__name__, exc)))
            continue
        batch_ops[executor] = total_ops
        if len(snapshots) != count:
            divergences.append(Divergence(
                "interpreter", name, "dataset count",
                "%d datasets in, %d results out"
                % (count, len(snapshots))))
        if 2 in compiled_ops and total_ops != count * compiled_ops[2]:
            divergences.append(Divergence(
                "compiled@2", name, "op count",
                "%d datasets x %d ops != %d"
                % (count, compiled_ops[2], total_ops)))
        for pos, snapshot in enumerate(snapshots):
            _compare(divergences, "interpreter", name, expected,
                     snapshot, what="output[dataset %d]" % pos)
    executors = [e for e in ("serial", "threads", "processes")
                 if e in batch_ops]
    for other in executors[1:]:
        if batch_ops[other] != batch_ops[executors[0]]:
            divergences.append(Divergence(
                "batch_%s" % executors[0], "batch_%s" % other,
                "op count", "%d vs %d" % (batch_ops[executors[0]],
                                          batch_ops[other])))

    if chaos:
        oracles_run.append(CHAOS_ORACLE)
        try:
            snapshots, total_ops, faults = _run_chaos_oracle(
                spec, count, workers)
        except Exception as exc:
            divergences.append(Divergence(
                "interpreter", CHAOS_ORACLE, "crash",
                "%s: %s" % (type(exc).__name__, exc)))
        else:
            if faults.get("crashes", 0) < 1:
                divergences.append(Divergence(
                    "interpreter", CHAOS_ORACLE, "no fault fired",
                    "armed %r but the ledger shows %r"
                    % (CHAOS_PLAN, faults)))
            if len(snapshots) != count:
                divergences.append(Divergence(
                    "interpreter", CHAOS_ORACLE, "dataset count",
                    "%d datasets in, %d results out"
                    % (count, len(snapshots))))
            if 2 in compiled_ops \
                    and total_ops != count * compiled_ops[2]:
                divergences.append(Divergence(
                    "compiled@2", CHAOS_ORACLE, "op count",
                    "%d datasets x %d ops != %d"
                    % (count, compiled_ops[2], total_ops)))
            for pos, snapshot in enumerate(snapshots):
                _compare(divergences, "interpreter", CHAOS_ORACLE,
                         expected, snapshot,
                         what="output[dataset %d]" % pos)

    return CaseReport(spec, divergences, oracles_run,
                      time.perf_counter() - start, c_effective)


def fuzz_one(seed, profile="quick", chaos=False):
    """Generate the case for ``seed`` and conform it; the one-call API
    (``fl.fuzz_one(seed)``)."""
    return conform_spec(generate_spec(seed, profile), profile=profile,
                        chaos=chaos)
