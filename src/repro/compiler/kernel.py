"""Kernel assembly: compile a CIN program to an executable Python
function, once per program *structure*.

Compilation is decoupled from data.  ``compile_kernel`` analyzes the
program, lowers it, wraps the emitted statements in a function whose
parameters are the bound buffers, and ``exec``s the source — but the
result of all that work is a :class:`CompiledKernel` *artifact* that
depends only on the program's structural key (tree shape plus each
tensor's format signature; see
:func:`repro.cin.analyze.structural_key`), never on the concrete
arrays.  The artifact records a *binding plan* mapping every kernel
parameter to a ``(slot, role)`` pair — slot = the tensor's position in
first-use order, role = which of its buffers (``lvl0_pos``, ``val``,
``builder``, ...) — so the same artifact can be re-bound to any
tensors with matching signatures.

The compile-once/run-many lifecycle::

    kernel = compile_kernel(program)   # miss: lower + emit + exec
    kernel.run()                       # run against the bound tensors
    kernel.rebind({"A": other_A})      # re-point a slot at new data
    kernel.run()
    kernel.run(A=third_A)              # or override for a single call

Artifacts live in a process-wide LRU :class:`KernelCache` keyed by
``(structural_key, instrument, name, constant_loop_rewrite,
opt_level)``.  A
second ``compile_kernel``/``execute`` of a structurally-identical
program — same tree, same formats, fresh data — skips lowering,
emission, and ``exec`` entirely and just rebinds the cached artifact
(``cache=False`` opts out).  ``KernelCache.stats()`` exposes hit/miss
counters; the benchmark harness prints them alongside compile and run
times to show the amortization.

Buffers bound outside the tensor protocol (a custom format's unfurl
closure calling ``ctx.buffer`` on arrays its ``kernel_buffers`` does
not report) get a ``None`` plan entry and keep their compile-time
binding forever; such tensors are identity-pinned by their format
signature, so a cached artifact is never rebound across distinct
custom tensors.

Scalar (0-dimensional) tensors are optimized into local accumulator
variables, loaded once in the preamble and written back at the end.

With ``instrument=True`` the emitted kernel counts every executed
update, giving a deterministic work measure used by the benchmark
harness alongside wall-clock time.
"""

import functools
import os
import threading
import time
from collections import OrderedDict

import numpy as np

from repro.cin.analyze import (
    buffer_alias_groups,
    check_program,
    infer_extents,
    output_tensors,
    program_tensors,
    structural_key,
    tensor_binding_buffers,
    tensor_signature,
)
from repro.compiler.context import Context
from repro.compiler.lower import Lowerer
from repro.ir import asm, emit
from repro.ir.nodes import Literal, Load
from repro.ir.optimize import DEFAULT_OPT_LEVEL, optimize_kernel
from repro.ir.runtime import kernel_globals
from repro.util import config
from repro.util.errors import BindingError, SpecError

#: Version tag of the serialized-artifact format (see
#: :meth:`CompiledKernel.to_spec`); bumped whenever the spec layout
#: changes incompatibly.
#: Version 2 added ``constant_loop_rewrite``: the flag changes what
#: lowering emits, so any consumer keying artifacts by spec content
#: (the on-disk kernel store) needs it carried in the spec itself.
#: Version 3 added the backend axis: ``backend`` (the requested
#: backend), ``c_source`` (the generated C translation unit, or None
#: when the C emitter fell back), and ``c_param_dtypes`` (per-parameter
#: numpy dtype names the C entry validates bindings against).  Specs
#: stay JSON-safe: the shared object itself never rides in a spec —
#: receivers recompile from the carried C source (or load the store's
#: ``.so`` sibling when one is present).
SPEC_VERSION = 3

# The option vocabulary (BACKENDS / CACHE_MODES / TUNE_MODES) and the
# frozen CompileOptions bundle live in repro.compiler.options; they are
# re-exported here because this module historically defined them.
from repro.compiler.options import (  # noqa: F401  (re-exports)
    BACKENDS,
    CACHE_MODES,
    TUNE_MODES,
    CompileOptions,
)


def _plain(value):
    """``value`` with nested tuples rewritten as lists (JSON-safe)."""
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


def _frozen(value):
    """The inverse of :func:`_plain`: nested lists back to tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(item) for item in value)
    return value


def normalize_backend(backend):
    """Resolve a ``backend`` argument to a validated backend name.

    ``None`` falls through the package precedence rule
    (``fl.configure(backend=...)``, then ``FL_KERNEL_BACKEND``,
    default ``"python"`` — see :mod:`repro.util.config`), so a whole
    process — or a whole CI job — can be flipped to the C backend
    without touching call sites.
    """
    backend = config.resolve("backend", override=backend)
    if backend not in BACKENDS:
        raise ValueError(
            "backend must be one of %s; got %r"
            % ("/".join(BACKENDS), backend))
    return backend


def normalize_tune(tune):
    """Resolve a ``tune`` argument to a validated tune mode.

    ``None`` falls through the package precedence rule
    (``fl.configure(tune=...)``, then ``FL_KERNEL_TUNE``, default
    ``"off"`` — see :mod:`repro.util.config`), so a whole process —
    or a whole CI job — can be flipped onto the tuned schedules
    without touching call sites.
    """
    tune = config.resolve("tune", override=tune)
    if tune not in TUNE_MODES:
        raise ValueError(
            "tune must be one of %s; got %r"
            % ("/".join(TUNE_MODES), tune))
    return tune


class CompiledKernel:
    """The data-independent artifact of one compilation.

    Holds the executable function, its source, the binding plan, and
    the per-slot format signatures needed to validate rebinds.  Shared
    (via the cache) between every :class:`Kernel` with the same
    structure; itself immutable after construction.
    """

    __slots__ = ("fn", "name", "source", "raw_source", "opt_level",
                 "plan", "seed_args", "seed_tensors", "signatures",
                 "alias_groups", "instrument", "compile_seconds",
                 "structural_key", "slot_names", "constant_loop_rewrite",
                 "backend", "c_source", "c_param_dtypes", "so_path")

    def __init__(self, fn, name, source, raw_source, opt_level, plan,
                 seed_args, seed_tensors, signatures, alias_groups,
                 instrument, compile_seconds, structural_key=None,
                 slot_names=None, constant_loop_rewrite=True,
                 backend="python", c_source=None, c_param_dtypes=None,
                 c_fn=None, so_path=None):
        # ``fn`` is the *active* entry point: the C wrapper when the C
        # backend produced one, the exec'd Python function otherwise.
        # Both take the same positional buffers, so every runner
        # (Kernel.run, the batch workers) stays backend-agnostic.
        self.fn = c_fn if c_fn is not None else fn
        self.backend = backend
        self.c_source = c_source
        self.c_param_dtypes = (None if c_param_dtypes is None
                               else list(c_param_dtypes))
        self.so_path = so_path if c_fn is not None else None
        self.name = name
        self.source = source
        self.raw_source = raw_source
        self.opt_level = opt_level
        self.plan = plan
        self.seed_args = seed_args
        self.seed_tensors = seed_tensors
        self.signatures = signatures
        self.alias_groups = alias_groups
        self.instrument = instrument
        self.compile_seconds = compile_seconds
        self.structural_key = structural_key
        self.slot_names = tuple(slot_names) if slot_names \
            else ("?",) * len(signatures)
        self.constant_loop_rewrite = bool(constant_loop_rewrite)

    @property
    def effective_backend(self):
        """The backend actually executing: ``"c"`` only when a native
        entry point is live in this process.  May differ from
        :attr:`backend` (the *requested* backend) after an emitter
        fallback or on a machine without a C toolchain."""
        return "c" if self.so_path is not None else "python"

    def to_spec(self, slot_names=None):
        """The artifact as a plain, JSON-serializable dict.

        The spec carries everything a fresh process needs to rebuild
        an equivalent artifact — the optimized source, the binding
        plan, the per-slot format signatures, and the structural key —
        but never the compiled function object or any bound data.
        :meth:`from_spec` re-``exec``\\ s the source on the other side,
        so the function itself never crosses a process boundary.

        ``slot_names`` overrides the display names carried in the spec
        and in error messages.  The artifact's own stored names come
        from whichever binding *compiled* it; a cache-hit kernel is
        bound to different tensors, so callers that know their current
        binding (:meth:`Kernel.to_spec`, the batch engine) pass the
        live names instead.

        Raises :class:`~repro.util.errors.SpecError` for kernels that
        cannot leave the process: those whose binding plan pins
        compile-time buffers (custom formats binding arrays outside
        the tensor protocol) and those whose signatures are keyed by
        object identity (opaque tensors).
        """
        if slot_names is None:
            slot_names = self.slot_names
        else:
            slot_names = tuple(slot_names)
        if any(entry is None for entry in self.plan):
            raise SpecError(
                "kernel %r binds buffers outside the tensor protocol "
                "(a custom format called ctx.buffer directly); such "
                "kernels are pinned to their compile-time data and "
                "cannot be serialized" % self.name,
                structural_key=self.structural_key,
                slot_names=slot_names)
        if self.seed_tensors:
            raise SpecError(
                "kernel %r has identity-keyed tensor signatures; an "
                "identity cannot be rebuilt in another process, so "
                "the artifact cannot be serialized" % self.name,
                structural_key=self.structural_key,
                slot_names=slot_names)
        return {
            "spec_version": SPEC_VERSION,
            "name": self.name,
            "source": self.source,
            "raw_source": self.raw_source,
            "backend": self.backend,
            "c_source": self.c_source,
            "c_param_dtypes": self.c_param_dtypes,
            "opt_level": self.opt_level,
            "plan": _plain(self.plan),
            "signatures": _plain(self.signatures),
            "alias_groups": _plain(self.alias_groups),
            "instrument": self.instrument,
            "constant_loop_rewrite": self.constant_loop_rewrite,
            "compile_seconds": self.compile_seconds,
            "structural_key": _plain(self.structural_key),
            "slot_names": list(slot_names),
        }

    @classmethod
    def from_spec(cls, spec, so_path=None):
        """Rebuild an artifact from :meth:`to_spec` output.

        Re-``exec``\\ s the serialized source against a fresh kernel
        namespace (the only non-declarative step), and freezes the
        plan/signature lists back into the tuple forms ``bind``
        compares against.  The result is rebindable to any tensors
        whose signatures match, exactly like the original.

        A spec carrying C source is recompiled on load (memoized per
        process by source digest); ``so_path`` — the kernel store's
        persisted shared object — is tried first, and any failure
        (missing toolchain, foreign or truncated ``.so``) degrades to
        the python backend with a logged fallback, never an error.
        """
        version = spec.get("spec_version")
        if version != SPEC_VERSION:
            raise SpecError(
                "kernel spec version %r is not supported (expected %d)"
                % (version, SPEC_VERSION))
        namespace = kernel_globals()
        exec(compile(spec["source"], "<repro-kernel-spec>", "exec"),
             namespace)
        plan = _frozen(spec["plan"])
        backend = spec.get("backend", "python")
        c_source = spec.get("c_source")
        c_fn = built_path = None
        if backend == "c" and c_source:
            import repro.codegen as codegen

            try:
                c_fn, built_path = codegen.kernel_entry(
                    c_source, spec["name"], spec["c_param_dtypes"],
                    so_path=so_path)
            except codegen.ToolchainError as exc:
                codegen.note_fallback(spec["name"], str(exc))
        return cls(
            fn=namespace[spec["name"]],
            name=spec["name"],
            source=spec["source"],
            raw_source=spec["raw_source"],
            backend=backend,
            c_source=c_source,
            c_param_dtypes=spec.get("c_param_dtypes"),
            c_fn=c_fn,
            so_path=built_path,
            opt_level=spec["opt_level"],
            plan=plan,
            seed_args=(None,) * len(plan),
            seed_tensors=(),
            signatures=_frozen(spec["signatures"]),
            alias_groups=_frozen(spec["alias_groups"]),
            instrument=spec["instrument"],
            compile_seconds=spec["compile_seconds"],
            structural_key=_frozen(spec["structural_key"]),
            slot_names=spec.get("slot_names"),
            constant_loop_rewrite=spec["constant_loop_rewrite"],
        )

    def validate(self, tensors, signatures=None):
        """Check that ``tensors`` fill every slot with matching format
        signatures; raises :class:`BindingError` otherwise.

        The shared fail-fast half of :meth:`bind`, also used by the
        batch engine to reject bad datasets before dispatching any
        work.  ``signatures`` are the tensors' signatures when the
        caller already has them (a structural-key walk): equal to the
        compiled ones, they settle the check at once; otherwise every
        slot is checked afresh.
        """
        if len(tensors) != len(self.signatures):
            raise BindingError(
                "kernel has %d tensor slots, got %d tensors"
                % (len(self.signatures), len(tensors)))
        if signatures == self.signatures:
            return
        for slot, (tensor, expected) in enumerate(
                zip(tensors, self.signatures)):
            actual = tensor_signature(tensor)
            if actual != expected:
                raise BindingError(
                    "slot %d (%s): format signature %r does not match "
                    "the compiled kernel's %r"
                    % (slot, getattr(tensor, "name", "?"), actual,
                       expected))

    def bind(self, tensors, signatures=None, roles=None):
        """Positional kernel arguments for ``tensors`` (one per slot).

        Validates format signatures and the buffer-aliasing pattern,
        then resolves every plan entry to the new tensor's buffer.
        ``signatures`` and ``roles`` (per tensor, as in
        :class:`~repro.cin.analyze.KeyedProgram`) spare recomputing
        what the caller already knows about ``tensors``.
        """
        tensors = list(tensors)
        self.validate(tensors, signatures)
        if roles is None:
            roles = [tensor_binding_buffers(tensor) for tensor in tensors]
        for group in self.alias_groups:
            distinct = {id(roles[slot][role]) for slot, role in group}
            if len(distinct) != 1:
                raise BindingError(
                    "buffers %s shared one array at compile time but "
                    "the new tensors bind distinct arrays" % (group,))
        args = []
        seen = {}  # id(buffer) -> (slot, role): rejects new aliasing
        for entry, seed in zip(self.plan, self.seed_args):
            if entry is None:
                args.append(seed)
                continue
            slot, role = entry
            buf = roles[slot][role]
            # Distinct parameters were distinct arrays at compile time
            # (aliased buffers collapse into one parameter), so any
            # aliasing between parameters here is new — the emitted
            # code assumes separate storage (e.g. output resets would
            # wipe inputs).
            other = seen.setdefault(id(buf), entry)
            if other != entry:
                raise BindingError(
                    "slots %s and %s bind one array, but the kernel "
                    "was compiled for distinct buffers; use distinct "
                    "arrays or recompile with the shared tensors"
                    % (other, entry))
            args.append(buf)
        return args


class Kernel:
    """A compiled CIN program bound to tensors — a cheap, rebindable
    view over a shared :class:`CompiledKernel` artifact."""

    def __init__(self, artifact, tensors, program, from_cache=False,
                 tuned=False, signatures=None, roles=None):
        self._artifact = artifact
        self._tensors = list(tensors)
        self._args = artifact.bind(self._tensors, signatures, roles)
        self.program = program
        self.from_cache = from_cache
        #: True when the autotuner's winners table rewrote the program
        #: (``compile_kernel(..., tune="apply")`` with a hit).
        self.tuned = tuned

    @property
    def artifact(self):
        """The shared :class:`CompiledKernel` behind this view."""
        return self._artifact

    def to_spec(self):
        """Serialize the underlying artifact; see
        :meth:`CompiledKernel.to_spec`.

        The spec (and any :class:`SpecError`) names the tensors of
        *this* binding — the shared artifact may have been compiled
        against differently named tensors before a cache hit rebound
        it here.
        """
        return self._artifact.to_spec(
            slot_names=tuple(getattr(t, "name", "?")
                             for t in self._tensors))

    @property
    def source(self):
        """The emitted source actually executed (post-optimization)."""
        return self._artifact.source

    @property
    def raw_source(self):
        """The source as lowered, before the optimizer pipeline ran.

        Equal to :attr:`source` at ``opt_level=0``.  Diffing the two
        shows exactly what the optimizer did to this kernel.
        """
        return self._artifact.raw_source

    @property
    def opt_level(self):
        return self._artifact.opt_level

    @property
    def backend(self):
        """The backend this kernel was compiled *for* (cache-key axis)."""
        return self._artifact.backend

    @property
    def effective_backend(self):
        """The backend actually executing; ``"python"`` after a C
        fallback (unsupported construct or no toolchain)."""
        return self._artifact.effective_backend

    @property
    def c_source(self):
        """The generated C99 source, or None (python backend or
        fallback before emission)."""
        return self._artifact.c_source

    @property
    def so_path(self):
        """Path of the compiled shared object, or None (python
        backend, or C fallback before the toolchain ran)."""
        return self._artifact.so_path

    @property
    def instrument(self):
        return self._artifact.instrument

    @property
    def compile_seconds(self):
        """Wall-clock seconds spent lowering/emitting this artifact."""
        return self._artifact.compile_seconds

    @functools.cached_property
    def output_slots(self):
        """Slot positions of the output tensors, in first-write order."""
        # Slots are the program's own tensors, whatever is bound now.
        slots = program_tensors(self.program)
        return tuple(next(slot for slot, t in enumerate(slots) if t is out)
                     for out in output_tensors(self.program))

    @property
    def outputs(self):
        """The currently-bound output tensors, in first-write order."""
        return [self._tensors[slot] for slot in self.output_slots]

    @property
    def tensors(self):
        """The currently-bound tensors, in slot (first-use) order."""
        return list(self._tensors)

    def run(self, **overrides):
        """Execute the kernel; returns the op count when instrumented.

        Keyword arguments override bindings by tensor name for this
        call only: ``kernel.run(A=other_A)`` executes against
        ``other_A`` without changing the kernel's stored binding.
        """
        if overrides:
            tensors = self._with_overrides(overrides)
            result = self._artifact.fn(*self._artifact.bind(tensors))
        else:
            result = self._artifact.fn(*self._args)
        return result if self.instrument else None

    def rebind(self, tensors=None, **named):
        """Persistently re-point binding slots at new tensors.

        ``tensors`` may be a full slot-ordered sequence or a mapping of
        tensor names to replacements; keyword arguments are shorthand
        for the mapping form.  Replacements must have the same format
        signature as the tensors they replace.  Returns ``self``.
        """
        if tensors is None:
            replacement = self._with_overrides(dict(named))
        elif isinstance(tensors, dict):
            mapping = dict(tensors)
            mapping.update(named)
            replacement = self._with_overrides(mapping)
        else:
            if named:
                raise BindingError(
                    "pass either a full tensor sequence or name "
                    "overrides, not both")
            replacement = list(tensors)
        self._args = self._artifact.bind(replacement)
        self._tensors = replacement
        return self

    def _with_overrides(self, mapping):
        """The slot list with named slots replaced."""
        return resolve_name_overrides(self._tensors, mapping)

    def __call__(self, **overrides):
        return self.run(**overrides)


def resolve_name_overrides(template, mapping):
    """``template`` (a slot-ordered tensor list) with named slots
    replaced per ``mapping``.

    Shared by :meth:`Kernel.rebind`/:meth:`Kernel.run` overrides and
    the batch engine's per-dataset resolution
    (:func:`repro.exec.batch.run_batch`): a name must resolve to
    exactly one slot, otherwise a full slot-ordered sequence is
    required.
    """
    by_name = {}
    for slot, tensor in enumerate(template):
        by_name.setdefault(getattr(tensor, "name", None),
                           []).append(slot)
    tensors = list(template)
    for name, replacement in mapping.items():
        slots = by_name.get(name, [])
        if not slots:
            raise BindingError(
                "no tensor named %r bound by this kernel (have: %s)"
                % (name, ", ".join(sorted(
                    str(n) for n in by_name))))
        if len(slots) > 1:
            raise BindingError(
                "tensor name %r is bound to %d slots; rebind with "
                "a full tensor sequence instead"
                % (name, len(slots)))
        tensors[slots[0]] = replacement
    return tensors


class KernelCache:
    """A process-wide, thread-safe LRU cache of compiled artifacts.

    Keys are ``(structural_key, instrument, name,
    constant_loop_rewrite, opt_level)``; values are :class:`CompiledKernel`
    artifacts.  ``maxsize`` bounds the number of artifacts; the least
    recently used entry is evicted first.  ``stats()`` reports hits,
    misses, evictions, and occupancy.
    """

    def __init__(self, maxsize=256):
        self._lock = threading.RLock()
        self._entries = OrderedDict()
        self._maxsize = int(maxsize)
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def maxsize(self):
        return self._maxsize

    def lookup(self, key):
        """The cached artifact for ``key``, or None (counts a miss)."""
        with self._lock:
            artifact = self._entries.get(key)
            if artifact is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return artifact

    def store(self, key, artifact):
        with self._lock:
            if self._maxsize <= 0:
                return
            self._entries[key] = artifact
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

    def resize(self, maxsize):
        """Change the size cap, evicting LRU entries if shrinking."""
        with self._lock:
            self._maxsize = int(maxsize)
            while len(self._entries) > max(self._maxsize, 0):
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self):
        """Drop all entries and reset the statistics counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def stats(self):
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "size": len(self._entries),
                "maxsize": self._maxsize,
            }

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, key):
        with self._lock:
            return key in self._entries


def memory_cache_key(structural_key, instrument, name,
                     constant_loop_rewrite, opt_level,
                     backend="python"):
    """The :data:`KERNEL_CACHE` key for one compile configuration.

    The single definition of the key shape, shared by
    ``compile_kernel`` and every out-of-band cache warmer
    (:func:`repro.store.pack.load_pack`) — the two must never drift,
    or pre-warmed entries silently stop hitting.  ``backend`` is the
    *requested* backend: a C kernel that fell back to python still
    occupies the ``"c"`` slot, so flipping the backend can never serve
    a stale artifact from the other axis.
    """
    return (structural_key, bool(instrument), name,
            bool(constant_loop_rewrite), int(opt_level), str(backend))


def artifact_cache_key(artifact):
    """:func:`memory_cache_key` of a live :class:`CompiledKernel`."""
    return memory_cache_key(
        artifact.structural_key, artifact.instrument, artifact.name,
        artifact.constant_loop_rewrite, artifact.opt_level,
        artifact.backend)


#: The process-wide artifact cache used by ``compile_kernel``.
KERNEL_CACHE = KernelCache()


def kernel_cache():
    """The process-wide :class:`KernelCache`."""
    return KERNEL_CACHE


def _compile_artifact(program, keyed, instrument, name,
                      constant_loop_rewrite, opt_level,
                      backend="python"):
    """Lower, optimize, emit, and exec one program; package the
    artifact.  ``keyed`` is the program's
    :class:`~repro.cin.analyze.KeyedProgram`.

    With ``backend="c"`` the target AST after the scalar optimizer
    passes (level ``min(opt_level, 1)``: no vectorizer) is additionally
    lowered to C99 and compiled into a shared object
    (:mod:`repro.codegen`); the python function is always built too —
    it is the fallback entry and the reference the differential tests
    compare against."""
    start = time.perf_counter()
    tensors = keyed.tensors
    ctx = Context(instrument=instrument,
                  constant_loop_rewrite=constant_loop_rewrite)
    ctx.register_tensors(tensors)
    ctx.extents = infer_extents(program)
    outputs = output_tensors(program)

    lowerer = Lowerer(ctx)
    for tensor in outputs:
        lowerer.emit_reset(tensor)
    lowerer.lower_stmt(program)
    body = ctx.take_block()

    preamble = []
    epilogue = []
    if instrument:
        preamble.append(asm.AssignStmt(ctx.ops_var, Literal(0)))
    for var, tensor, is_output in ctx.scalar_bindings():
        buf = ctx.buffer(tensor.element.val, tensor.name + "_val")
        preamble.append(asm.AssignStmt(var, Load(buf, Literal(0))))
        if is_output:
            epilogue.append(asm.AssignStmt(Load(buf, Literal(0)), var))

    params = [name_ for name_, _ in ctx.bound_buffers()]
    returns = (ctx.ops_var.name,) if instrument else ()
    func = asm.FuncDef(name, params,
                       asm.Block(preamble + [body] + epilogue),
                       returns=returns)
    raw_source = emit(func)
    lowered = func
    if opt_level > 0:
        func = optimize_kernel(lowered, opt_level)
        source = emit(func)
    else:
        source = raw_source
    namespace = kernel_globals()
    exec(compile(source, "<repro-kernel>", "exec"), namespace)

    c_source = None
    c_param_dtypes = None
    c_fn = None
    so_path = None
    if backend == "c":
        from repro import codegen

        try:
            dtype_map = {}
            for pname, array in ctx.bound_buffers():
                if not isinstance(array, np.ndarray):
                    raise codegen.CUnsupportedError(
                        "parameter %r is %r, not an ndarray"
                        % (pname, type(array).__name__))
                dtype_map[pname] = str(array.dtype)
            # Vectorization is a python-target pass: C takes the scalar
            # tree, and ``cc -O2`` vectorizes its loops.
            scalar = (func if opt_level <= 1
                      else optimize_kernel(lowered, 1))
            c_source = codegen.emit_c(scalar, dtype_map)
            c_param_dtypes = [dtype_map[p] for p in scalar.params]
        except codegen.CUnsupportedError as exc:
            codegen.note_fallback(name, str(exc))
            c_source = None
            c_param_dtypes = None
        if c_source is not None:
            try:
                c_fn, so_path = codegen.kernel_entry(
                    c_source, name, c_param_dtypes)
            except codegen.ToolchainError as exc:
                # Keep the C source in the artifact: another process
                # loading this spec may have a working toolchain.
                codegen.note_fallback(name, str(exc))

    plan = ctx.binding_plan()
    # Keep first-run buffers only where rebinding can never replace
    # them (None plan entries); rebindable parameters must not pin
    # their seed data in the process-wide cache.
    seed_args = tuple(
        array if entry is None else None
        for entry, (_, array) in zip(plan, ctx.bound_buffers()))
    signatures = keyed.signatures
    return CompiledKernel(
        fn=namespace[name],
        name=name,
        source=source,
        raw_source=raw_source,
        opt_level=opt_level,
        plan=plan,
        seed_args=seed_args,
        # Pin only identity-keyed tensors: their format signatures
        # embed id(tensor), which must stay unrecycled for as long as
        # the artifact can be looked up.
        seed_tensors=tuple(
            tensor for tensor, sig in zip(tensors, signatures)
            if _identity_pinned(tensor, sig)),
        signatures=signatures,
        alias_groups=buffer_alias_groups(tensors),
        instrument=instrument,
        compile_seconds=time.perf_counter() - start,
        structural_key=keyed.key,
        slot_names=tuple(getattr(t, "name", "?") for t in tensors),
        constant_loop_rewrite=constant_loop_rewrite,
        backend=backend,
        c_source=c_source,
        c_param_dtypes=c_param_dtypes,
        c_fn=c_fn,
        so_path=so_path,
    )


def _identity_pinned(tensor, signature):
    """True when ``signature`` embeds ``id(tensor)`` (opaque or custom
    tensors), which then must outlive the artifact."""
    target = id(tensor)

    def contains(part):
        if isinstance(part, tuple):
            return any(contains(item) for item in part)
        return part == target

    return contains(signature)


def _artifact_from_remote(spec, so_bytes, store, meta):
    """Materialize a remote-tier hit: rebuild the fetched spec (with
    its ``.so`` sidecar bytes, when the service had one) and
    write-behind into the local disk tier.  Returns None when the
    fetched spec does not rebuild — the wire equivalent of a
    quarantined entry, read as a miss."""
    import tempfile

    tmp = None
    try:
        if so_bytes:
            fd, tmp = tempfile.mkstemp(suffix=".so",
                                       prefix="fl-remote-")
            with os.fdopen(fd, "wb") as handle:
                handle.write(so_bytes)
        try:
            artifact = CompiledKernel.from_spec(spec, so_path=tmp)
        except Exception:
            return None
        if store is not None:
            store.save_spec(meta, spec,
                            so_path=artifact.so_path or tmp)
        return artifact
    finally:
        if tmp is not None:
            try:
                # Safe even while the artifact holds the dlopened
                # handle: the inode outlives the unlink.
                os.remove(tmp)
            except OSError:
                pass


def compile_kernel(program, instrument=False, name="kernel",
                   constant_loop_rewrite=True, cache=None,
                   opt_level=None, backend=None, tune=None,
                   remote=None, store=None, options=None):
    """Compile one CIN program into a :class:`Kernel`.

    The compile configuration is one :class:`CompileOptions` value:
    pass it as ``options=``, or use the individual keyword arguments
    (``cache=``, ``opt_level=``, ``backend=``, ``tune=``, ``remote=``,
    ``store=``) as sugar — a kwarg passed alongside ``options=``
    overrides that one field.  Fields left unset resolve through the
    package precedence rule (per-call kwarg > ``fl.configure`` >
    ``FL_*`` env > default; see :mod:`repro.util.config`).

    With ``cache=True`` (the resolved default) the compiled artifact
    is looked up in — and stored into — every configured cache tier:
    the process-wide :class:`KernelCache` first, then the persistent
    on-disk :class:`~repro.store.KernelStore` (``fl.configure(
    store_path=...)`` / ``FL_KERNEL_STORE``; re-point per call with
    ``store=``), then the remote kernel service
    (:mod:`repro.service`; ``fl.configure(service_url=...)`` /
    ``FL_SERVICE_URL`` / ``remote=``).  A disk or remote hit rebuilds
    the artifact from its serialized spec and promotes it into the
    tiers above; a full miss compiles fresh and writes the artifact
    behind into every tier (the remote push rides an async
    server-side compile queue).  An unreachable service degrades to
    the local tiers with a warn-once log line — the remote tier can
    never fail a compile.  ``cache="memory"`` and ``cache="disk"``
    restrict the lookup to one local tier (the remote tier
    participates only in full ``cache=True`` operation), and
    ``cache=False`` always compiles fresh and leaves every cache (and
    its statistics) untouched.

    ``opt_level`` selects the target-IR optimizer pipeline
    (:mod:`repro.ir.optimize`): 0 emits the lowered code untouched, 1
    runs the scalar passes (constant folding, dead code, LICM, CSE),
    and 2 — the default — adds dense-loop vectorization to numpy
    slice operations.  The level is part of the cache key, so kernels
    compiled at different levels never share an artifact.

    ``backend`` selects how the optimized kernel is executed:
    ``"python"`` (the default) ``exec``s the emitted Python source,
    ``"c"`` additionally lowers the same optimized target AST to C99,
    compiles it into a per-kernel shared object, and calls it through
    :mod:`ctypes` (releasing the GIL during each call).  ``None``
    reads the ``FL_KERNEL_BACKEND`` environment variable, defaulting
    to ``"python"``.  Kernels the C emitter cannot express —
    vectorized numpy slice ops, output builders, buffers outside
    int64/float64/bool — and environments with no C compiler fall
    back to the
    python backend loudly but gracefully (one warning per distinct
    reason; see :func:`repro.codegen.fallback_events`); the resulting
    :class:`Kernel` reports the request as ``.backend`` and the
    reality as ``.effective_backend``.  The backend joins
    ``opt_level`` in every cache key, so the two backends never share
    an artifact slot.

    ``tune="apply"`` consults the persisted autotuner winners table
    (:mod:`repro.tune`) before compiling: a hit rewrites the program's
    access protocols to the winning schedule and — only where the
    caller left them ``None`` — adopts the winning ``opt_level`` and
    ``backend``; a miss compiles the program exactly as written.  The
    rewritten program has its own structural key, so the winning
    variant occupies its own cache/store slot (zero extra compiles in
    a process whose store already holds the winner's artifact).
    ``None`` reads the ``FL_KERNEL_TUNE`` environment variable,
    defaulting to ``"off"``.  The returned kernel reports a table hit
    as ``.tuned``.
    """
    check_program(program)
    opts = CompileOptions.build(options, cache=cache,
                                opt_level=opt_level, backend=backend,
                                tune=tune, remote=remote, store=store)
    tune = normalize_tune(opts.tune)
    opt_level = opts.opt_level
    backend = opts.backend
    tuned = False
    if tune == "apply":
        # Imported lazily: repro.tune compiles candidates through this
        # module, so a top-level import would be circular.
        from repro import tune as _tune

        tuning = _tune.lookup_schedule(
            program, constant_loop_rewrite=constant_loop_rewrite)
        if tuning is not None:
            program = _tune.apply_schedule(program, tuning)
            # Explicit caller arguments always win over the table —
            # and the table (a measured decision) wins over the
            # configure/env layers (static ones).
            if opt_level is None:
                opt_level = tuning.get("opt_level")
            if backend is None:
                backend = tuning.get("backend")
            tuned = True
    opt_level = config.resolve("opt_level", override=opt_level)
    if opt_level is None:
        opt_level = DEFAULT_OPT_LEVEL
    opt_level = int(opt_level)
    backend = normalize_backend(backend)
    cache = True if opts.cache is None else opts.cache
    # Identity comparison: `1 in (True, ...)` would pass by equality
    # and then silently disable every tier below.
    if not any(cache is mode for mode in CACHE_MODES):
        raise ValueError(
            "cache must be True, False, 'memory', or 'disk'; got %r"
            % (cache,))
    use_memory = cache is True or cache == "memory"
    use_disk = cache is True or cache == "disk"
    # The remote tier participates only in full read-through mode: a
    # caller narrowing to one local tier is asking for locality.
    use_remote = cache is True
    # One walk yields the key and the binding (tensors, signatures,
    # buffer roles) every tier below hands to Kernel.
    keyed = structural_key(program, binding=True)
    skey = keyed.key

    def view(artifact, from_cache=True):
        return Kernel(artifact, keyed.tensors, program,
                      from_cache=from_cache, tuned=tuned,
                      signatures=keyed.signatures, roles=keyed.roles)

    key = None
    if use_memory:
        key = memory_cache_key(skey, instrument, name,
                               constant_loop_rewrite, opt_level,
                               backend)
        artifact = KERNEL_CACHE.lookup(key)
        if artifact is not None:
            return view(artifact)
    store = None
    meta = None
    if use_disk:
        # Imported lazily: repro.store rebuilds artifacts through this
        # module, so a top-level import would be circular.
        from repro.store import resolve_store

        store = resolve_store(opts.store)
        if store is not None:
            meta = store.key_meta(
                skey, instrument=bool(instrument), name=name,
                constant_loop_rewrite=bool(constant_loop_rewrite),
                opt_level=opt_level, backend=backend)
            artifact = store.load_artifact(meta)
            if artifact is not None:
                if key is not None:
                    KERNEL_CACHE.store(key, artifact)
                return view(artifact)
    client = None
    if use_remote:
        from repro.service.client import active_client

        client = active_client(opts.remote)
        if client is not None:
            if meta is None:
                from repro.store.disk import store_key_meta

                meta = store_key_meta(
                    skey, instrument=bool(instrument), name=name,
                    constant_loop_rewrite=bool(constant_loop_rewrite),
                    opt_level=opt_level, backend=backend)
            fetched = client.fetch(meta)
            if fetched is not None:
                artifact = _artifact_from_remote(
                    fetched[0], fetched[1], store, meta)
                if artifact is not None:
                    if key is not None:
                        KERNEL_CACHE.store(key, artifact)
                    return view(artifact)
    artifact = _compile_artifact(program, keyed, instrument, name,
                                 constant_loop_rewrite, opt_level,
                                 backend=backend)
    if key is not None:
        KERNEL_CACHE.store(key, artifact)
    if store is not None or client is not None:
        # Write-behind: persists the spec for future processes (and
        # pushes it to the fleet service's async compile queue); a
        # kernel that cannot leave the process (SpecError) is simply
        # not persisted.
        try:
            spec = artifact.to_spec()
        except SpecError:
            spec = None
        if spec is not None:
            if store is not None:
                store.save_spec(meta, spec, so_path=artifact.so_path)
            if client is not None:
                client.push(meta, spec)
    return view(artifact, from_cache=False)


def execute(program, instrument=False, cache=None, opt_level=None,
            backend=None, options=None):
    """Compile and run a program once.

    Returns the op count when instrumented, else None.  Results land in
    the program's output tensors.  Routed through the kernel cache, so
    executing the same program structure repeatedly pays for lowering
    only once.  ``backend`` selects ``"python"`` or ``"c"`` kernel
    execution (``None`` reads ``fl.configure(backend=...)`` then
    ``FL_KERNEL_BACKEND``); ``options`` takes a whole
    :class:`CompileOptions` bundle.  See :func:`compile_kernel` for
    cache-key and fallback semantics.
    """
    return compile_kernel(program, instrument=instrument, cache=cache,
                          opt_level=opt_level, backend=backend,
                          options=options).run()
