"""Target statement AST ("assembly") for emitted kernels.

Lowering produces these nodes; :mod:`repro.ir.emit` renders them as
Python source.  The AST is deliberately tiny — blocks, loops, branches,
assignments and comments — because everything interesting happens before
we reach it.

Besides the node classes, this module provides the generic tree
machinery the optimizer pipeline (:mod:`repro.ir.optimize`) is built
on: a postorder statement rewriter (:func:`map_statements`), a
per-statement expression rewriter (:func:`map_statement_exprs`), and a
conservative effects analysis (:func:`stmt_reads`, :func:`stmt_writes`,
:func:`stmt_stores`) that treats :class:`Raw` and :class:`Fill` lines
as touching every identifier they mention.

Statement nodes are immutable, so each one computes its effects once:
an :class:`Effects` record of frozensets, built from its children's
records on first use and cached on the node.  The rewriters (and the
``with_*`` rebuilders the passes use) return the input node itself
when nothing under it changed, so a subtree a pass leaves alone keeps
its cached effects for the passes after it, and "nothing changed" is
a test of node identity.
"""

import re
from collections import namedtuple

from repro.ir.nodes import Expr, Load, Var, as_expr
from repro.ir.ops import Op, get_op
from repro.util.errors import ReproError

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Stmt:
    """Base class for target statements."""

    __slots__ = ("_effects",)

    def is_nop(self):
        return False


class Block(Stmt):
    """A sequence of statements; nested blocks are flattened."""

    __slots__ = ("stmts",)

    def __init__(self, stmts=()):
        flat = []
        for stmt in stmts:
            if stmt is None or stmt.is_nop():
                continue
            if isinstance(stmt, Block):
                flat.extend(stmt.stmts)
            else:
                flat.append(stmt)
        self.stmts = tuple(flat)

    def is_nop(self):
        return not self.stmts

    def __repr__(self):
        return "Block(%d stmts)" % len(self.stmts)


class Nop(Stmt):
    """No operation (elided during emission)."""

    __slots__ = ()

    def is_nop(self):
        return True


class Comment(Stmt):
    """A source comment carried through to emitted code."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


class AssignStmt(Stmt):
    """``target = value`` where target is a Var or a buffer element."""

    __slots__ = ("target", "value")

    def __init__(self, target, value):
        if isinstance(target, str):
            target = Var(target)
        if not isinstance(target, (Var, Load)):
            raise ReproError("bad assignment target: %r" % (target,))
        self.target = target
        self.value = as_expr(value)


class AccumStmt(Stmt):
    """``target <op>= value`` — an in-place reduction update."""

    __slots__ = ("target", "op", "value")

    def __init__(self, target, op, value):
        if isinstance(target, str):
            target = Var(target)
        if isinstance(op, str):
            op = get_op(op)
        if not isinstance(op, Op):
            raise ReproError("bad accumulation op: %r" % (op,))
        self.target = target
        self.op = op
        self.value = as_expr(value)


class ForLoop(Stmt):
    """``for var in range(start, stop): body`` (half-open)."""

    __slots__ = ("var", "start", "stop", "body")

    def __init__(self, var, start, stop, body):
        if isinstance(var, str):
            var = Var(var)
        self.var = var
        self.start = as_expr(start)
        self.stop = as_expr(stop)
        self.body = body if isinstance(body, Block) else Block([body])


class WhileLoop(Stmt):
    """``while cond: body``."""

    __slots__ = ("cond", "body")

    def __init__(self, cond, body):
        self.cond = as_expr(cond)
        self.body = body if isinstance(body, Block) else Block([body])


class If(Stmt):
    """``if/elif/else`` chain.

    ``branches`` is a list of ``(cond, block)`` pairs; a ``None``
    condition marks the trailing ``else``.
    """

    __slots__ = ("branches",)

    def __init__(self, branches):
        cleaned = []
        for cond, body in branches:
            if cond is not None:
                cond = as_expr(cond)
            body = body if isinstance(body, Block) else Block([body])
            cleaned.append((cond, body))
        if not cleaned:
            raise ReproError("If requires at least one branch")
        self.branches = tuple(cleaned)

    def is_nop(self):
        return all(body.is_nop() for _, body in self.branches)


class Raw(Stmt):
    """An opaque line of Python source (used sparingly, e.g. ``pass``)."""

    __slots__ = ("line",)

    def __init__(self, line):
        self.line = line


class Fill(Stmt):
    """``buffer[0:size] = value``: reset a dense output's value buffer.

    ``size`` is the buffer's flat length, fixed by the output's format
    signature; ``value`` is the tensor's fill value as given (python
    renders ``buffer.fill(value)`` with its ``repr``).
    """

    __slots__ = ("buffer", "value", "size")

    def __init__(self, buffer, value, size):
        if isinstance(buffer, str):
            buffer = Var(buffer)
        self.buffer = buffer
        self.value = value
        self.size = int(size)

    @property
    def line(self):
        """The python source line (``buf.fill(value)``)."""
        return "%s.fill(%r)" % (self.buffer.name, self.value)


class FuncDef(Stmt):
    """Top-level function wrapper for a compiled kernel."""

    __slots__ = ("name", "params", "body", "returns")

    def __init__(self, name, params, body, returns=()):
        self.name = name
        self.params = tuple(params)
        self.body = body if isinstance(body, Block) else Block([body])
        self.returns = tuple(returns)


def block(*stmts):
    return Block(stmts)


def walk_statements(stmt):
    """Yield every statement in the tree, preorder."""
    yield stmt
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            yield from walk_statements(child)
    elif isinstance(stmt, (ForLoop, WhileLoop, FuncDef)):
        yield from walk_statements(stmt.body)
    elif isinstance(stmt, If):
        for _, body in stmt.branches:
            yield from walk_statements(body)


def statement_exprs(stmt):
    """Yield the expressions referenced directly by one statement."""
    if isinstance(stmt, AssignStmt):
        yield stmt.target
        yield stmt.value
    elif isinstance(stmt, AccumStmt):
        yield stmt.target
        yield stmt.value
    elif isinstance(stmt, ForLoop):
        yield stmt.start
        yield stmt.stop
    elif isinstance(stmt, WhileLoop):
        yield stmt.cond
    elif isinstance(stmt, If):
        for cond, _ in stmt.branches:
            if isinstance(cond, Expr):
                yield cond


# --------------------------------------------------------------------------
# Generic rewriting
# --------------------------------------------------------------------------
def map_statements(stmt, fn):
    """Postorder statement rewrite.

    Children are rebuilt first, then ``fn`` is applied to the rebuilt
    node; ``fn`` returns a replacement statement (possibly a ``Block``
    or ``Nop``) or ``None`` to keep the node.  Replacements are *not*
    re-visited, so a pass can safely return trees containing nodes of
    the kind it matches on.  A node whose children all come back
    unchanged is kept as is (not rebuilt).
    """
    rebuilt = _map_children(stmt, fn)
    result = fn(rebuilt)
    return rebuilt if result is None else result


def _map_children(stmt, fn):
    if isinstance(stmt, Block):
        return with_stmts(stmt, [map_statements(child, fn)
                                 for child in stmt.stmts])
    if isinstance(stmt, (ForLoop, WhileLoop, FuncDef)):
        return with_body(stmt, map_statements(stmt.body, fn))
    if isinstance(stmt, If):
        return with_branches(stmt, [(cond, map_statements(body, fn))
                                    for cond, body in stmt.branches])
    return stmt


def map_statement_exprs(stmt, fn):
    """Rebuild one statement with ``fn`` applied to each expression.

    Does not recurse into child statements (combine with
    :func:`map_statements` for whole-tree rewrites).  Assignment
    targets keep their ``Var``/``Load`` shape: a ``Var`` target is left
    alone (it is a write, not a read), a ``Load`` target has only its
    index mapped.  Returns ``stmt`` itself when ``fn`` returns every
    expression unchanged.
    """
    if isinstance(stmt, (AssignStmt, AccumStmt)):
        target = stmt.target
        if isinstance(target, Load):
            index = fn(target.index)
            if index is not target.index:
                target = Load(target.buffer, index)
        value = fn(stmt.value)
        if target is stmt.target and value is stmt.value:
            return stmt
        if isinstance(stmt, AssignStmt):
            return AssignStmt(target, value)
        return AccumStmt(target, stmt.op, value)
    if isinstance(stmt, ForLoop):
        start, stop = fn(stmt.start), fn(stmt.stop)
        if start is stmt.start and stop is stmt.stop:
            return stmt
        return ForLoop(stmt.var, start, stop, stmt.body)
    if isinstance(stmt, WhileLoop):
        cond = fn(stmt.cond)
        return stmt if cond is stmt.cond else WhileLoop(cond, stmt.body)
    if isinstance(stmt, If):
        return with_branches(stmt, [(None if cond is None else fn(cond), body)
                                    for cond, body in stmt.branches])
    return stmt


# The three ``with_*`` rebuilders return the input node itself when
# every part they are given is the very object it already holds.
def _same_nodes(new, old):
    return len(new) == len(old) and all(a is b for a, b in zip(new, old))


def with_stmts(block, stmts):
    """``block`` with statements ``stmts``."""
    return block if _same_nodes(stmts, block.stmts) else Block(stmts)


def with_body(stmt, body):
    """A ``ForLoop``, ``WhileLoop`` or ``FuncDef`` with body ``body``."""
    if body is stmt.body:
        return stmt
    if isinstance(stmt, ForLoop):
        return ForLoop(stmt.var, stmt.start, stmt.stop, body)
    if isinstance(stmt, WhileLoop):
        return WhileLoop(stmt.cond, body)
    return FuncDef(stmt.name, stmt.params, body, returns=stmt.returns)


def with_branches(stmt, branches):
    """An ``If`` with ``(cond, body)`` pairs ``branches``."""
    if len(branches) == len(stmt.branches) and all(
            _same_nodes(new, old)
            for new, old in zip(branches, stmt.branches)):
        return stmt
    return If(branches)


# --------------------------------------------------------------------------
# Conservative effects analysis
# --------------------------------------------------------------------------
def raw_identifiers(line):
    """Every identifier mentioned in an opaque :class:`Raw` line."""
    return set(_IDENT_RE.findall(line))


def load_buffers(expr, out=None):
    """Names of all buffers ``expr`` loads from."""
    if out is None:
        out = set()
    if isinstance(expr, Load):
        out.add(expr.buffer.name)
    for child in expr.children():
        load_buffers(child, out)
    return out


#: The effects of one statement tree: ``reads`` are the variable names
#: (buffer names included) it may read, ``writes`` the scalar names it
#: may assign, ``stores`` the buffers it may store into.
Effects = namedtuple("Effects", ("reads", "writes", "stores"))

_NO_NAMES = frozenset()
_NO_EFFECTS = Effects(_NO_NAMES, _NO_NAMES, _NO_NAMES)


def stmt_effects(stmt):
    """The tree's :class:`Effects`, computed once per node and cached."""
    try:
        return stmt._effects
    except AttributeError:
        effects = stmt._effects = _compute_effects(stmt)
        return effects


def _compute_effects(stmt):
    if isinstance(stmt, (AssignStmt, AccumStmt)):
        target = stmt.target
        reads = stmt.value.free_vars()
        if isinstance(target, Var):
            if isinstance(stmt, AccumStmt):
                reads = reads | target.free_vars()
            return Effects(reads, target.free_vars(), _NO_NAMES)
        stored = target.buffer.free_vars()
        return Effects(reads | target.free_vars(), _NO_NAMES, stored)
    if isinstance(stmt, Block):
        return _union_effects(stmt.stmts, ())
    if isinstance(stmt, ForLoop):
        return _union_effects((stmt.body,), (stmt.start, stmt.stop),
                              stmt.var.free_vars())
    if isinstance(stmt, WhileLoop):
        return _union_effects((stmt.body,), (stmt.cond,))
    if isinstance(stmt, If):
        return _union_effects(
            [body for _, body in stmt.branches],
            [cond for cond, _ in stmt.branches if cond is not None])
    if isinstance(stmt, FuncDef):
        return stmt_effects(stmt.body)
    if isinstance(stmt, (Raw, Fill)):
        # A Fill counts as the opaque python line it renders
        # (``buf.fill(v)`` rewrites the whole buffer).
        names = frozenset(raw_identifiers(stmt.line))
        return Effects(names, names, names)
    return _NO_EFFECTS


def _union_effects(children, exprs, writes=_NO_NAMES):
    """Effects of ``children`` plus reads of ``exprs`` (plus ``writes``)."""
    records = [stmt_effects(child) for child in children]
    if len(records) == 1 and not exprs and not writes:
        return records[0]
    return Effects(
        _NO_NAMES.union(*[r.reads for r in records],
                        *[e.free_vars() for e in exprs]),
        writes.union(*[r.writes for r in records]),
        _NO_NAMES.union(*[r.stores for r in records]))


def stmt_reads(stmt):
    """Variable names (including buffer names) possibly read by the
    statement tree.  ``Raw`` lines read every identifier they mention."""
    return stmt_effects(stmt).reads


def stmt_writes(stmt):
    """Scalar variable names possibly assigned by the statement tree
    (assignment/accumulation targets, loop variables, and — to stay
    conservative — every identifier a ``Raw`` line mentions)."""
    return stmt_effects(stmt).writes


def stmt_stores(stmt):
    """Buffer names possibly stored into by the statement tree
    (``buf[i] = ...`` targets plus every identifier in ``Raw`` lines,
    which may call mutating methods such as ``.fill`` or ``.append``)."""
    return stmt_effects(stmt).stores
