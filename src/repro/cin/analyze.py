"""Static analysis over CIN programs.

Collects tensors, infers loop extents from tensor dimensions, finds
result (output) tensors, validates the program shape before lowering,
and computes *structural keys* — the program's identity up to the data
it binds, used by the kernel cache to reuse compiled artifacts across
structurally-identical programs.
"""

import hashlib
from typing import NamedTuple

from repro.cin.nodes import (
    Access,
    Assign,
    Forall,
    Multi,
    OffsetExpr,
    Pass,
    PermitExpr,
    Sieve,
    Where,
    WindowExpr,
    collect_accesses,
    stmt_children,
    walk_stmts,
)
from repro.ir import build
from repro.ir.nodes import Call, Extent, Literal, Var
from repro.util.errors import DimensionError, ReproError


def program_tensors(stmt):
    """All distinct tensors in the program, in first-use order."""
    seen = []
    for access in collect_accesses(stmt):
        if not any(access.tensor is tensor for tensor in seen):
            seen.append(access.tensor)
    return seen


def output_tensors(stmt):
    """Tensors written by assignments, in first-write order."""
    seen = []
    for node in walk_stmts(stmt):
        if isinstance(node, Assign):
            tensor = node.lhs.tensor
            if not any(tensor is t for t in seen):
                seen.append(tensor)
    return seen


def forall_indices(stmt):
    """Names of all forall-bound indices, outermost first."""
    return [node.index.name for node in walk_stmts(stmt)
            if isinstance(node, Forall)]


def _dimension_candidate(idx, dim):
    """The loop extent implied by using ``idx`` on a mode of size ``dim``.

    Returns ``(base_name, Extent)`` or ``None`` when the modifier chain
    makes the extent unbounded (permit) or shifted (offset).
    """
    if isinstance(idx, Var):
        return idx.name, Extent(0, dim)
    if isinstance(idx, WindowExpr) and isinstance(idx.base, Var):
        return idx.base.name, Extent(0, build.minus(idx.hi, idx.lo))
    if isinstance(idx, (OffsetExpr, PermitExpr)):
        return None
    return None


def infer_extents(stmt):
    """Map each forall index to its extent.

    Explicit extents on the forall win; otherwise every access using the
    index contributes a candidate from the corresponding mode dimension,
    and all candidates must agree.
    """
    explicit = {}
    for node in walk_stmts(stmt):
        if isinstance(node, Forall) and node.ext is not None:
            explicit[node.index.name] = node.ext

    candidates = {}
    for access in collect_accesses(stmt):
        shape = getattr(access.tensor, "shape", None)
        if shape is None:
            continue
        if len(shape) != len(access.idxs):
            raise DimensionError(
                "access %r has %d indices but the tensor has %d modes"
                % (access, len(access.idxs), len(shape)))
        for mode, idx in enumerate(access.idxs):
            candidate = _dimension_candidate(idx, shape[mode])
            if candidate is None:
                continue
            name, ext = candidate
            candidates.setdefault(name, []).append(ext)

    extents = dict(explicit)
    for name in forall_indices(stmt):
        if name in extents:
            continue
        options = candidates.get(name, [])
        if not options:
            raise DimensionError(
                "cannot infer an extent for index %r; give the forall an "
                "explicit extent" % name)
        first = options[0]
        for other in options[1:]:
            if _statically_conflicting(first, other):
                raise DimensionError(
                    "conflicting extents for index %r: %r vs %r"
                    % (name, first, other))
        extents[name] = first
    return extents


def _statically_conflicting(a, b):
    if a == b:
        return False
    both_static = all(isinstance(e, Literal)
                      for e in (a.start, a.stop, b.start, b.stop))
    return both_static


# --------------------------------------------------------------------------
# Structural keys (the kernel cache's notion of program identity)
# --------------------------------------------------------------------------
def tensor_signature(tensor):
    """The format signature of any tensor-protocol object.

    Objects without a ``format_signature`` method are opaque: they are
    keyed by identity, so they only ever match themselves.
    """
    fn = getattr(tensor, "format_signature", None)
    if fn is not None:
        return fn()
    return ("opaque", id(tensor))


def tensor_binding_buffers(tensor):
    """The canonical role -> buffer mapping for kernel (re)binding."""
    fn = getattr(tensor, "kernel_buffers", None)
    if fn is not None:
        return fn()
    return {}


class KeyedProgram(NamedTuple):
    """One :func:`structural_key` walk, kept whole for the kernel
    binding.

    ``key`` is the structural key.  ``tensors`` lists the tensors a
    kernel binds — every accessed tensor in first-use order, exactly
    :func:`program_tensors` — and ``signatures``/``roles`` hold their
    :func:`tensor_signature` and :func:`tensor_binding_buffers`, one
    per tensor, as the walk computed them for the key.
    """

    key: tuple
    tensors: list
    signatures: tuple
    roles: list


def structural_key(stmt, binding=False):
    """A hashable key identifying the program up to the data it binds.

    The CIN tree is hashed with every tensor replaced by its *slot*
    (position in first-use order) and its :func:`tensor_signature` —
    level nesting, shapes, fill, and dtype, but never the backing
    arrays.  Two programs with equal structural keys lower to the same
    emitted code, so one compiled kernel serves both once rebound
    (the premise of :class:`repro.compiler.kernel.KernelCache`).

    Buffer *aliasing* between slots is part of the key: when two slots
    share a backing array the compiler collapses them into a single
    kernel parameter, so the sharing pattern must match for a cached
    kernel to be rebindable.

    With ``binding=True`` the same walk returns a :class:`KeyedProgram`
    instead, so a caller that binds the program (``compile_kernel``)
    computes no tensor's signature or buffers twice.  Key slots also
    count tensors named only by ``pass_`` (or only inside a loop
    extent); the binding list leaves those out.
    """
    slots = []
    slot_index = {}
    bound = {}  # slots of accessed tensors, in first-access order

    def slot(tensor):
        index = slot_index.get(id(tensor))
        if index is None:
            index = slot_index[id(tensor)] = len(slots)
            slots.append(tensor)
        return index

    def bind(tensor):
        index = slot(tensor)
        bound.setdefault(index)
        return index

    body = _stmt_key(stmt, slot, bind)
    signatures = tuple([tensor_signature(tensor) for tensor in slots])
    roles = [tensor_binding_buffers(tensor) for tensor in slots]
    key = ("cin", body, signatures, _alias_groups(roles))
    if not binding:
        return key
    return KeyedProgram(key, [slots[index] for index in bound],
                        tuple([signatures[index] for index in bound]),
                        [roles[index] for index in bound])


def structural_digest(key, length=12):
    """A short, stable hex digest of a structural key (or any nested
    key tuple), for log lines, error messages, and store keys.

    Structural keys are deeply nested tuples — far too long to print —
    but operators debugging a batch failure or a cache anomaly need a
    stable handle to correlate kernels across processes and log lines.
    ``length`` widens the digest for consumers that address content by
    it (the persistent kernel store uses 40 hex chars); the default 12
    keeps log lines short.  Returns ``"?"`` for ``None`` so message
    formatting never branches.
    """
    if key is None:
        return "?"
    payload = repr(key).encode("utf-8")
    return hashlib.sha1(payload).hexdigest()[:length]


def buffer_alias_groups(tensors):
    """Groups of ``(slot, role)`` pairs whose buffers are one object."""
    return _alias_groups([tensor_binding_buffers(t) for t in tensors])


def _alias_groups(roles):
    owners = {}
    for slot, buffers in enumerate(roles):
        for role, buf in buffers.items():
            owners.setdefault(id(buf), []).append((slot, role))
    return tuple(tuple(group) for group in owners.values()
                 if len(group) > 1)


def _stmt_key(stmt, slot, bind):
    """Key one statement; ``bind`` slots the tensors its accesses
    read or write, ``slot`` the ones it only names (pass, extents)."""
    if isinstance(stmt, Assign):
        op = stmt.op.name if stmt.op is not None else None
        return ("assign", op, _expr_key(stmt.lhs, bind),
                _expr_key(stmt.rhs, bind))
    if isinstance(stmt, Forall):
        return ("forall", stmt.index.name, _extent_key(stmt.ext, slot),
                _stmt_key(stmt.body, slot, bind))
    if isinstance(stmt, Sieve):
        return ("sieve", _expr_key(stmt.cond, bind),
                _stmt_key(stmt.body, slot, bind))
    if isinstance(stmt, Where):
        return ("where", _stmt_key(stmt.consumer, slot, bind),
                _stmt_key(stmt.producer, slot, bind))
    if isinstance(stmt, Multi):
        return ("multi",) + tuple([_stmt_key(child, slot, bind)
                                   for child in stmt.stmts])
    if isinstance(stmt, Pass):
        return ("pass",) + tuple(slot(tensor) for tensor in stmt.tensors)
    raise ReproError("cannot key statement %r" % (stmt,))


def _expr_key(expr, slot):
    if isinstance(expr, Access):
        return (("access", slot(expr.tensor), expr.protocols)
                + tuple([_expr_key(idx, slot) for idx in expr.idxs]))
    children = expr.children()
    if not children:
        # Leaves (Literal, Var) have data-independent keys already.
        return expr.key()
    if isinstance(expr, Call):
        head = ("call", expr.op.name)
    else:
        head = (type(expr).__name__,)
    return head + tuple([_expr_key(child, slot) for child in children])


def _extent_key(ext, slot):
    if ext is None:
        return None
    return ("extent", _expr_key(ext.start, slot), _expr_key(ext.stop, slot))


def check_program(stmt):
    """Validate program shape; raises on malformed programs."""
    names_in_scope = []
    _check(stmt, names_in_scope)


def _check(stmt, names_in_scope):
    if isinstance(stmt, Forall):
        if stmt.index.name in names_in_scope:
            raise ReproError("index %r bound twice" % stmt.index.name)
        names_in_scope.append(stmt.index.name)
        _check(stmt.body, names_in_scope)
        names_in_scope.pop()
        return
    if isinstance(stmt, Assign):
        for idx in stmt.lhs.idxs:
            if not isinstance(idx, Var):
                raise ReproError(
                    "assignment targets must use plain indices, got %r"
                    % (idx,))
        return
    if isinstance(stmt, Sieve):
        _check(stmt.body, names_in_scope)
        return
    for child in stmt_children(stmt):
        _check(child, names_in_scope)


__all__ = [
    "KeyedProgram",
    "buffer_alias_groups",
    "check_program",
    "forall_indices",
    "infer_extents",
    "output_tensors",
    "program_tensors",
    "structural_key",
    "tensor_binding_buffers",
    "tensor_signature",
]
