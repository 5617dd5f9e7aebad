"""Optimizer pipeline over the target AST.

Lowering (:mod:`repro.compiler.lower`) is organized around *looplet*
structure and deliberately emits naive straight-line code: buffer
elements are re-loaded inside hot loops, position arithmetic repeats,
scalar accumulators are loaded and immediately overwritten, and dense
regions are walked element by element in interpreted CPython.  This
module runs between lowering and emission and cleans all of that up
with composable passes over :mod:`repro.ir.asm` statements:

``fold_constants``
    Forward constant *and copy* propagation with expression
    simplification: literal conditions prune ``If`` branches, loops
    with statically-empty extents disappear, single-trip loops unroll,
    and literal accumulations fold into assignments.

``dead_code``
    Backward liveness: assignments to scalar variables nobody reads
    are deleted (buffer stores always survive — buffers escape the
    kernel), trailing empty ``If`` branches are pruned, and empty
    loops with no live side effects vanish.

``hoist_invariants``
    Loop-invariant code motion: buffer loads and position arithmetic
    whose inputs are not mutated by a ``ForLoop``/``WhileLoop`` body
    are computed once before the loop.  Hoists that could raise (a
    load, a division) are guarded by the loop's entry condition so the
    transformed kernel never evaluates anything the original would not
    have.

``eliminate_common_subexprs``
    Block-local CSE: a repeated pure subexpression (an index
    expression, a comparison, a load) is computed once into a
    temporary at its first unconditional evaluation and reused, with
    availability invalidated by writes to its inputs.

``vectorize``
    Rewrites innermost dense ``ForLoop``s whose body is a single
    affine-indexed assignment/accumulation (plus optional work
    counters) into numpy slice operations: elementwise maps become
    ``out[a:b] = x[c:d] * y[e:f]``-style ``Raw`` statements,
    reductions become ``_np.dot`` / ``_np.<op>.reduce`` calls, and
    instrumentation counters are scaled by the trip count so measured
    op counts are identical with and without vectorization.  Loops
    whose shape does not match are left alone (the scalar fallback).

The pipeline is exposed as :func:`optimize_kernel`, keyed by an
``opt_level``: 0 = untouched, 1 = scalar passes only, 2 (the default
used by :mod:`repro.compiler.kernel`) = scalar passes plus
vectorization.  Vectorization targets the python emitter only: the C
backend emits from the level-1 tree.  Every pass is conservative
around :class:`~repro.ir.asm.Raw` and :class:`~repro.ir.asm.Fill`
statements, which are treated as reading and writing every
identifier they mention.
"""

import re

from repro.ir import build
from repro.ir.asm import (
    AccumStmt,
    AssignStmt,
    Block,
    Comment,
    Fill,
    ForLoop,
    FuncDef,
    If,
    Nop,
    Raw,
    WhileLoop,
    load_buffers,
    map_statement_exprs,
    map_statements,
    stmt_reads,
    stmt_stores,
    stmt_writes,
    with_body,
    with_branches,
    with_stmts,
)
from repro.ir.nodes import Call, Extent, Literal, Load, Var, substitute
from repro.ir.ops import MISSING
from repro.ir.pretty import expr_source, lhs_source, slice_source
from repro.rewrite import simplify_expr
from repro.util.namer import Namer

#: Default optimization level used by the compiler when none is given.
DEFAULT_OPT_LEVEL = 2

_PIPELINE_FINGERPRINT = None


def pipeline_fingerprint():
    """A short stable digest identifying this optimizer pipeline.

    Hashes the pipeline's own source file, so *any* change to a pass
    (or to the pass ordering in :func:`optimize_kernel`) yields a new
    fingerprint.  The persistent kernel store keys entries by it:
    kernels optimized by an older pipeline must read as misses, never
    as stale hits, once the pipeline changes.  Falls back to hashing
    the public pass names when the source file is unavailable (frozen
    or bytecode-only deployments).
    """
    global _PIPELINE_FINGERPRINT
    if _PIPELINE_FINGERPRINT is None:
        import hashlib

        try:
            with open(__file__, "rb") as handle:
                payload = handle.read()
        except OSError:
            payload = repr((
                "fold_constants", "dead_code", "hoist_invariants",
                "eliminate_common_subexprs", "vectorize",
                DEFAULT_OPT_LEVEL)).encode("utf-8")
        _PIPELINE_FINGERPRINT = hashlib.sha256(payload).hexdigest()[:16]
    return _PIPELINE_FINGERPRINT

#: Operators whose later arguments are lazily evaluated in emitted
#: Python (``and``/``or`` short-circuit, ``ifelse`` renders as a
#: conditional expression).  Only the first argument is *strict*.
_LAZY_OPS = ("and", "or", "ifelse")

#: Operators that cannot raise on well-typed scalar inputs.  Anything
#: else (loads, division, user-registered ops) is treated as
#: potentially raising and is only hoisted behind a loop guard.
_SAFE_OPS = frozenset([
    "add", "sub", "mul", "neg", "min", "max", "abs",
    "eq", "ne", "lt", "le", "gt", "ge", "and", "or", "not", "ifelse",
])


# --------------------------------------------------------------------------
# Expression helpers
# --------------------------------------------------------------------------
def strict_children(expr):
    """Children evaluated whenever ``expr`` is evaluated."""
    if isinstance(expr, Call) and expr.op.name in _LAZY_OPS:
        return expr.args[:1]
    return expr.children()

def walk_expr(expr):
    """Every node of an expression tree, preorder."""
    yield expr
    for child in expr.children():
        yield from walk_expr(child)


def walk_strict_expr(expr):
    """Every node evaluated whenever ``expr`` is evaluated (stops at
    the lazy arguments of ``and``/``or``/``ifelse``)."""
    yield expr
    for child in strict_children(expr):
        yield from walk_strict_expr(child)


def can_raise(expr):
    """Whether evaluating ``expr`` may raise (loads can go out of
    bounds, division can hit zero, user ops are opaque)."""
    if isinstance(expr, Load):
        return True
    if isinstance(expr, Call) and expr.op.name not in _SAFE_OPS:
        return True
    return any(can_raise(child) for child in expr.children())


def entry_exprs(stmt):
    """Expressions evaluated unconditionally when ``stmt`` starts.

    For an ``If`` only the first condition qualifies; branch bodies
    and later ``elif`` conditions may never run, so hoisting or
    pre-materializing out of them would speculate.
    """
    if isinstance(stmt, (AssignStmt, AccumStmt)):
        yield stmt.value
        if isinstance(stmt.target, Load):
            yield stmt.target.index
    elif isinstance(stmt, ForLoop):
        yield stmt.start
        yield stmt.stop
    elif isinstance(stmt, WhileLoop):
        yield stmt.cond
    elif isinstance(stmt, If):
        cond = stmt.branches[0][0]
        if cond is not None:
            yield cond


def replace_by_key(expr, mapping):
    """Top-down replacement of subexpressions by structural key."""
    hit = mapping.get(expr.key())
    if hit is not None:
        return hit
    children = expr.children()
    if not children:
        return expr
    new_children = [replace_by_key(child, mapping) for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return expr
    return expr.rebuild(new_children)


def _namer_for(stmt):
    """A fresh-name supply that avoids every identifier in the tree."""
    reserved = set(stmt_reads(stmt) | stmt_writes(stmt) | stmt_stores(stmt))
    if isinstance(stmt, FuncDef):
        reserved |= set(stmt.params)
        reserved.add(stmt.name)
    reserved |= {"min", "max", "abs", "range", "search_ge",
                 "search_abs_ge", "_np", "_coalesce", "_ifelse",
                 "_round_u8", "_sqrt"}
    return Namer(reserved=reserved)


def _literal_truth(expr):
    """True/False when ``expr`` is a literal condition, else None.

    ``missing`` renders as Python ``None`` and is therefore falsy at
    runtime, whatever its compile-time object truthiness says.
    """
    if not isinstance(expr, Literal):
        return None
    if expr.value is MISSING:
        return False
    return bool(expr.value)


# --------------------------------------------------------------------------
# Constant folding and copy propagation
# --------------------------------------------------------------------------
def fold_constants(stmt):
    """Forward constant/copy propagation with simplification."""
    return _fold(stmt, {})


def _resolve(expr, env):
    if env and not expr.free_vars().isdisjoint(env):
        expr = substitute(expr, env)
    return simplify_expr(expr)


def _env_kill(env, names):
    """Drop bindings for ``names`` and any binding reading them."""
    if not names or not env:
        return
    for key in list(env):
        if key in names or (env[key].free_vars() & names):
            del env[key]


def _fold(stmt, env):
    if isinstance(stmt, FuncDef):
        return with_body(stmt, _fold(stmt.body, {}))
    if isinstance(stmt, Block):
        return with_stmts(stmt, [_fold(child, env) for child in stmt.stmts])
    if isinstance(stmt, AssignStmt):
        return _fold_assign(stmt, env)
    if isinstance(stmt, AccumStmt):
        return _fold_accum(stmt, env)
    if isinstance(stmt, ForLoop):
        return _fold_for(stmt, env)
    if isinstance(stmt, WhileLoop):
        return _fold_while(stmt, env)
    if isinstance(stmt, If):
        return _fold_if(stmt, env)
    if isinstance(stmt, (Raw, Fill)):
        _env_kill(env, stmt_writes(stmt))
    return stmt


def _resolve_exprs(stmt, env):
    return map_statement_exprs(stmt, lambda expr: _resolve(expr, env))


def _fold_assign(stmt, env):
    stmt = _resolve_exprs(stmt, env)
    target, value = stmt.target, stmt.value
    if isinstance(target, Load):
        return stmt
    name = target.name
    if isinstance(value, Var) and value.name == name:
        return Nop()
    _env_kill(env, {name})
    if isinstance(value, (Literal, Var)):
        env[name] = value
    return stmt


def _fold_accum(stmt, env):
    stmt = _resolve_exprs(stmt, env)
    target, value = stmt.target, stmt.value
    if isinstance(target, Load):
        return stmt
    name = target.name
    prior = env.get(name)
    if isinstance(prior, Literal) and isinstance(value, Literal) \
            and prior.value is not MISSING and value.value is not MISSING:
        folded = Literal(stmt.op.fold(prior.value, value.value))
        _env_kill(env, {name})
        env[name] = folded
        return AssignStmt(target, folded)
    _env_kill(env, {name})
    return stmt


def _fold_for(stmt, env):
    stmt = _resolve_exprs(stmt, env)
    length = Extent(stmt.start, stmt.stop).static_length()
    if length == 0:
        return Nop()
    if length == 1:
        # Unroll the single iteration; the loop-variable assignment
        # feeds propagation and dead-code cleans it up if unused.
        return _fold(Block([AssignStmt(stmt.var, stmt.start), stmt.body]),
                     env)
    _env_kill(env, stmt_writes(stmt.body) | {stmt.var.name})
    return with_body(stmt, _fold(stmt.body, dict(env)))


def _fold_while(stmt, env):
    _env_kill(env, stmt_writes(stmt.body))
    stmt = _resolve_exprs(stmt, env)
    if _literal_truth(stmt.cond) is False:
        return Nop()
    return with_body(stmt, _fold(stmt.body, dict(env)))


def _fold_if(stmt, env):
    branches = []
    for cond, body in stmt.branches:
        if cond is not None:
            cond = _resolve(cond, env)
            truth = _literal_truth(cond)
            if truth is False:
                continue
            if truth is True:
                cond = None
        branches.append((cond, _fold(body, dict(env))))
        if cond is None:
            break
    if not branches:
        return Nop()
    if branches[0][0] is None:
        body = branches[0][1]
        _env_kill(env, stmt_writes(body))
        return body
    killed = set()
    for _, body in branches:
        killed |= stmt_writes(body)
    _env_kill(env, killed)
    return with_branches(stmt, branches)


# --------------------------------------------------------------------------
# Dead store / dead branch elimination
# --------------------------------------------------------------------------
def dead_code(stmt, live=None):
    """Delete stores to scalar variables that are never read.

    ``live`` seeds the live-out set; for a :class:`FuncDef` the
    function's returns are live.  Buffer stores and ``Raw`` lines are
    always considered live (their effects escape the kernel).
    """
    if isinstance(stmt, FuncDef):
        live = set(stmt.returns) | (live or set())
        return with_body(stmt, _dce_block(stmt.body, live))
    live = set(live) if live else set()
    if isinstance(stmt, Block):
        return _dce_block(stmt, live)
    result = _dce_stmt(stmt, live)
    return Nop() if result is None else result


def _dce_block(block, live):
    kept = []
    for child in reversed(block.stmts):
        result = _dce_stmt(child, live)
        if result is not None:
            kept.append(result)
    kept.reverse()
    return with_stmts(block, kept)


def _dce_stmt(stmt, live):
    if isinstance(stmt, AssignStmt):
        target = stmt.target
        if isinstance(target, Var):
            if target.name not in live:
                return None
            live.discard(target.name)
            live |= stmt.value.free_vars()
            return stmt
        live.add(target.buffer.name)
        live |= target.index.free_vars() | stmt.value.free_vars()
        return stmt
    if isinstance(stmt, AccumStmt):
        target = stmt.target
        if isinstance(target, Var):
            if target.name not in live:
                return None
            live.add(target.name)
            live |= stmt.value.free_vars()
            return stmt
        live |= target.free_vars() | stmt.value.free_vars()
        return stmt
    if isinstance(stmt, ForLoop):
        reads = stmt_reads(stmt.body)
        writes = stmt_writes(stmt.body) | {stmt.var.name}
        if stmt.body.is_nop() and not (writes & live):
            return None
        inner = set(live) | reads
        body = _dce_block(stmt.body, inner)
        live |= inner
        live |= stmt.start.free_vars() | stmt.stop.free_vars()
        return with_body(stmt, body)
    if isinstance(stmt, WhileLoop):
        # Never dropped: a (mis)compiled infinite loop should stay
        # observable rather than silently vanish.
        inner = set(live) | stmt_reads(stmt.body) | stmt.cond.free_vars()
        body = _dce_block(stmt.body, inner)
        live |= inner
        # The block walk treats the body as straight-line code, so a
        # bottom-of-body write to a condition variable discards it
        # from ``inner`` — but the condition is evaluated again before
        # the body ever runs, so its reads are live at loop entry
        # regardless of what the body does (found by the fuzz engine:
        # an initializer feeding only the condition was deleted).
        live |= stmt.cond.free_vars()
        return with_body(stmt, body)
    if isinstance(stmt, If):
        processed = []
        for cond, body in stmt.branches:
            branch_live = set(live)
            processed.append((cond, _dce_block(body, branch_live),
                              branch_live))
        # Only trailing empty branches may go: dropping an empty
        # middle branch would re-route its cases to later conditions.
        while processed and processed[-1][1].is_nop():
            processed.pop()
        if not processed:
            return None
        for cond, _, branch_live in processed:
            live |= branch_live
            if cond is not None:
                live |= cond.free_vars()
        return with_branches(
            stmt, [(cond, body) for cond, body, _ in processed])
    if isinstance(stmt, (Raw, Fill)):
        live |= stmt_reads(stmt)
        return stmt
    if isinstance(stmt, Nop):
        return None
    if isinstance(stmt, Block):
        result = _dce_block(stmt, live)
        return None if result.is_nop() else result
    return stmt


# --------------------------------------------------------------------------
# Loop-invariant code motion
# --------------------------------------------------------------------------
def hoist_invariants(stmt, namer=None):
    """Hoist invariant loads and arithmetic out of loop bodies."""
    if namer is None:
        namer = _namer_for(stmt)

    def visit(node):
        if isinstance(node, ForLoop):
            return _hoist_loop(node, namer, loop_var=node.var.name)
        if isinstance(node, WhileLoop):
            return _hoist_loop(node, namer, loop_var=None)
        return None

    return map_statements(stmt, visit)


def _invariant(expr, mutated, stored):
    return not (expr.free_vars() & mutated) \
        and not (load_buffers(expr) & stored)


def _collect_hoistable(expr, mutated, stored, seen, out):
    if _invariant(expr, mutated, stored):
        if isinstance(expr, (Load, Call)):
            key = expr.key()
            if key not in seen:
                seen.add(key)
                out.append(expr)
        return
    for child in strict_children(expr):
        _collect_hoistable(child, mutated, stored, seen, out)


def _hoist_hint(expr):
    if isinstance(expr, Load):
        return expr.buffer.name + "_x"
    return "inv"


def _hoist_loop(loop, namer, loop_var):
    body = loop.body
    mutated = stmt_writes(body)
    if loop_var is not None:
        mutated = mutated | {loop_var}
    stored = stmt_stores(body)
    seen, candidates = set(), []
    if loop_var is None:
        _collect_hoistable(loop.cond, mutated, stored, seen, candidates)
    for child in body.stmts:
        for expr in entry_exprs(child):
            _collect_hoistable(expr, mutated, stored, seen, candidates)
    if not candidates:
        return None
    mapping = {}
    assigns = []
    for expr in candidates:
        temp = Var(namer.fresh(_hoist_hint(expr)))
        assigns.append(AssignStmt(temp, replace_by_key(expr, mapping)))
        mapping[expr.key()] = temp

    def rewrite(node):
        return map_statement_exprs(
            node, lambda e: replace_by_key(e, mapping))

    new_body = map_statements(body, rewrite)
    if loop_var is not None:
        new_loop = ForLoop(loop.var, loop.start, loop.stop, new_body)
        guard = simplify_expr(build.lt(loop.start, loop.stop))
    else:
        new_loop = WhileLoop(replace_by_key(loop.cond, mapping), new_body)
        guard = loop.cond  # pre-substitution: temps are not bound yet
    hoisted = Block(assigns + [new_loop])
    if any(can_raise(expr) for expr in candidates) \
            and _literal_truth(guard) is not True:
        return If([(guard, hoisted)])
    return hoisted


# --------------------------------------------------------------------------
# Common-subexpression elimination
# --------------------------------------------------------------------------
class _Avail:
    """One available expression: where it was defined, and its temp."""

    __slots__ = ("expr", "index", "temp", "buffers")

    def __init__(self, expr, index, buffers):
        self.expr = expr
        self.index = index
        self.temp = None
        self.buffers = buffers


def eliminate_common_subexprs(stmt, namer=None):
    """Reuse repeated pure subexpressions within each block."""
    if namer is None:
        namer = _namer_for(stmt)

    def visit(node):
        if isinstance(node, Block):
            return _cse_block(node, namer)
        return None

    return map_statements(stmt, visit)


def _read_subexprs(stmt):
    """Every Call/Load subexpression in read position of ``stmt``
    (assignment targets are writes; only their indices count)."""
    roots = []
    if isinstance(stmt, (AssignStmt, AccumStmt)):
        roots.append(stmt.value)
        if isinstance(stmt.target, Load):
            roots.append(stmt.target.index)
    elif isinstance(stmt, ForLoop):
        roots.extend((stmt.start, stmt.stop))
    elif isinstance(stmt, WhileLoop):
        roots.append(stmt.cond)
    elif isinstance(stmt, If):
        roots.extend(cond for cond, _ in stmt.branches if cond is not None)
    for root in roots:
        for expr in walk_expr(root):
            if isinstance(expr, (Call, Load)):
                yield expr


def _cse_block(block, namer):
    avail = {}
    out = []

    def invalidate(writes, stores):
        if not writes and not stores:
            return
        for key, record in list(avail.items()):
            if record.expr.free_vars() & writes \
                    or record.buffers & stores \
                    or (record.temp is not None
                        and record.temp.name in writes):
                del avail[key]

    def materialize(record):
        if record.temp is not None:
            return record.temp
        record.temp = Var(namer.fresh("t"))
        definition = AssignStmt(record.temp, record.expr)
        replaced = {record.expr.key(): record.temp}
        out[record.index] = map_statement_exprs(
            out[record.index], lambda e: replace_by_key(e, replaced))
        out.insert(record.index, definition)
        for other in avail.values():
            if other is not record and other.index >= record.index:
                other.index += 1
        return record.temp

    for stmt in block.stmts:
        if isinstance(stmt, (Comment, Nop)):
            out.append(stmt)
            continue
        mapping = {}
        for expr in _read_subexprs(stmt):
            record = avail.get(expr.key())
            if record is not None and expr.key() not in mapping:
                mapping[expr.key()] = materialize(record)
        if mapping:
            stmt = map_statement_exprs(
                stmt, lambda e: replace_by_key(e, mapping))
        writes = stmt_writes(stmt)
        stores = stmt_stores(stmt)
        invalidate(writes, stores)
        # Register only strict-position subexpressions: an expr under
        # a lazy ifelse/and/or arm may never have been evaluated here,
        # and materializing its temp at this site would speculate it
        # (e.g. hoist a guarded out-of-bounds load past its guard).
        for root in entry_exprs(stmt):
            for expr in walk_strict_expr(root):
                if not isinstance(expr, (Call, Load)):
                    continue
                key = expr.key()
                if key in avail:
                    continue
                if expr.free_vars() & writes:
                    continue
                buffers = load_buffers(expr)
                if buffers & stores:
                    continue
                avail[key] = _Avail(expr, len(out), buffers)
        if isinstance(stmt, AssignStmt) and isinstance(stmt.target, Var) \
                and isinstance(stmt.value, (Call, Load)):
            record = avail.get(stmt.value.key())
            if record is not None and record.temp is None \
                    and record.index == len(out):
                # The assignment itself is the temp for its value.
                record.temp = Var(stmt.target.name)
        out.append(stmt)
    return with_stmts(block, out)


# --------------------------------------------------------------------------
# Dense-loop vectorization
# --------------------------------------------------------------------------
_VEC_INFIX = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
_VEC_PAIRWISE = {"min": "_np.minimum", "max": "_np.maximum"}
_VEC_UNARY = {"abs": "_np.abs", "sqrt": "_np.sqrt"}
_VEC_REDUCE = {"add": "_np.add.reduce", "mul": "_np.multiply.reduce",
               "min": "_np.minimum.reduce", "max": "_np.maximum.reduce"}
_ACCUM_SYMBOL = {"add": "+=", "mul": "*="}

_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+(\.\d+)?")


def vectorize(stmt):
    """Rewrite simple dense inner loops into numpy slice operations."""

    def visit(node):
        if isinstance(node, ForLoop):
            return _vectorize_loop(node)
        return None

    return map_statements(stmt, visit)


def linear_parts(expr, var):
    """Decompose ``expr`` as ``coeff * var + base`` with an integer
    literal ``coeff`` and ``var``-free ``base``; None if not affine."""
    if var not in expr.free_vars():
        return 0, expr
    if isinstance(expr, Var):
        return 1, Literal(0)
    if not isinstance(expr, Call):
        return None
    name = expr.op.name
    if name == "add":
        coeff, bases = 0, []
        for arg in expr.args:
            part = linear_parts(arg, var)
            if part is None:
                return None
            coeff += part[0]
            bases.append(part[1])
        return coeff, build.plus(*bases)
    if name == "sub" and len(expr.args) == 2:
        left = linear_parts(expr.args[0], var)
        right = linear_parts(expr.args[1], var)
        if left is None or right is None:
            return None
        return left[0] - right[0], build.minus(left[1], right[1])
    if name == "neg" and len(expr.args) == 1:
        part = linear_parts(expr.args[0], var)
        if part is None:
            return None
        return -part[0], build.call("neg", part[1])
    if name == "mul":
        with_var = [pos for pos, arg in enumerate(expr.args)
                    if var in arg.free_vars()]
        if len(with_var) != 1:
            return None
        part = linear_parts(expr.args[with_var[0]], var)
        if part is None:
            return None
        others = [arg for pos, arg in enumerate(expr.args)
                  if pos != with_var[0]]
        scale = build.times(*others) if len(others) > 1 else others[0]
        if not (isinstance(scale, Literal)
                and isinstance(scale.value, int)
                and not isinstance(scale.value, bool)):
            return None
        return part[0] * scale.value, build.times(part[1], scale)
    return None


def _slice_src(buffer, coeff, base, start, stop):
    """Source for the slice covering ``coeff*i + base`` over
    ``i in [start, stop)``."""
    lo = simplify_expr(build.plus(build.times(Literal(coeff), start), base))
    hi = simplify_expr(build.plus(build.times(Literal(coeff), stop), base,
                                  Literal(1 - coeff)))
    return slice_source(buffer, lo, hi, coeff)


def _vec_source(expr, var, start, stop):
    """``(source, is_vector)`` rendering of ``expr`` over the loop
    range as a numpy expression, or None when not vectorizable."""
    if var not in expr.free_vars():
        src = expr_source(expr)
        if not _ATOM_RE.fullmatch(src):
            src = "(%s)" % src
        return src, False
    if isinstance(expr, Load):
        part = linear_parts(expr.index, var)
        if part is None or part[0] <= 0:
            return None
        return _slice_src(expr.buffer.name, part[0], part[1],
                          start, stop), True
    if not isinstance(expr, Call):
        return None  # the bare loop variable: no arange materialization
    name = expr.op.name
    parts = []
    for arg in expr.args:
        rendered = _vec_source(arg, var, start, stop)
        if rendered is None:
            return None
        parts.append(rendered[0])
    if name in _VEC_INFIX and len(parts) >= 2:
        return "(%s)" % ((" %s " % _VEC_INFIX[name]).join(parts)), True
    if name == "neg" and len(parts) == 1:
        return "(-%s)" % parts[0], True
    if name in _VEC_PAIRWISE and len(parts) >= 2:
        src = parts[0]
        for nxt in parts[1:]:
            src = "%s(%s, %s)" % (_VEC_PAIRWISE[name], src, nxt)
        return src, True
    if name in _VEC_UNARY and len(parts) == 1:
        return "%s(%s)" % (_VEC_UNARY[name], parts[0]), True
    return None


def _vectorize_loop(loop):
    var = loop.var.name
    stmts = [s for s in loop.body.stmts
             if not isinstance(s, (Comment, Nop))]
    if not stmts:
        return None
    core, counters = None, []
    for child in stmts:
        if isinstance(child, AccumStmt) and isinstance(child.target, Var) \
                and child.op.name == "add" \
                and isinstance(child.value, Literal) \
                and isinstance(child.value.value, (int, float)) \
                and not isinstance(child.value.value, bool):
            counters.append(child)
            continue
        if core is not None:
            return None
        core = child
    core_names = set()
    if core is not None:
        core_names = stmt_reads(core) | stmt_writes(core) | stmt_stores(core)
    for counter in counters:
        if counter.target.name == var or counter.target.name in core_names:
            return None
    line = None
    if core is not None:
        line = _vectorize_core(core, var, loop.start, loop.stop)
        if line is None:
            return None
    elif not counters:
        return None
    trip = build.minus(loop.stop, loop.start)
    out = [Raw(line)] if line is not None else []
    for counter in counters:
        out.append(AccumStmt(counter.target, counter.op,
                             simplify_expr(build.times(counter.value,
                                                       trip))))
    guard = simplify_expr(build.lt(loop.start, loop.stop))
    truth = _literal_truth(guard)
    if truth is True:
        return Block(out)
    if truth is False:
        return Nop()
    return If([(guard, Block(out))])


def _vectorize_core(core, var, start, stop):
    if isinstance(core, AssignStmt):
        if not isinstance(core.target, Load):
            return None
        return _vectorize_elementwise(core, "=", var, start, stop)
    if not isinstance(core, AccumStmt):
        return None
    op = core.op.name
    target = core.target
    if isinstance(target, Var):
        if target.name in core.value.free_vars():
            return None
        return _vectorize_reduction(target, op, core.value, var, start,
                                    stop)
    part = linear_parts(target.index, var)
    if part is None:
        return None
    if part[0] == 0:
        # Fixed element: the loop reduces into one buffer cell.
        if target.buffer.name in load_buffers(core.value):
            return None
        return _vectorize_reduction(target, op, core.value, var, start,
                                    stop)
    symbol = _ACCUM_SYMBOL.get(op)
    if symbol is None and op not in _VEC_PAIRWISE:
        return None
    return _vectorize_elementwise(core, symbol, var, start, stop)


def _vectorize_elementwise(core, symbol, var, start, stop):
    target = core.target
    part = linear_parts(target.index, var)
    if part is None or part[0] <= 0:
        return None
    # Same-buffer loads must hit exactly the written cell, or the
    # slice operation would reorder a loop-carried dependence.
    for expr in walk_expr(core.value):
        if isinstance(expr, Load) and expr.buffer.name == target.buffer.name:
            if expr.index != target.index:
                return None
    rendered = _vec_source(core.value, var, start, stop)
    if rendered is None:
        return None
    target_src = _slice_src(target.buffer.name, part[0], part[1], start,
                            stop)
    if symbol is not None:
        return "%s %s %s" % (target_src, symbol, rendered[0])
    # min/max accumulate elementwise via the pairwise ufunc.
    fn = _VEC_PAIRWISE[core.op.name]
    return "%s = %s(%s, %s)" % (target_src, fn, target_src, rendered[0])


def _vectorize_reduction(target, op, rhs, var, start, stop):
    if op not in _VEC_REDUCE:
        return None
    reduced = None
    if op == "add" and isinstance(rhs, Call) and rhs.op.name == "mul" \
            and len(rhs.args) == 2 \
            and all(isinstance(arg, Load) for arg in rhs.args):
        parts = [linear_parts(arg.index, var) for arg in rhs.args]
        if all(part is not None and part[0] > 0 for part in parts):
            slices = [_slice_src(arg.buffer.name, part[0], part[1],
                                 start, stop)
                      for arg, part in zip(rhs.args, parts)]
            reduced = "_np.dot(%s, %s)" % tuple(slices)
    if reduced is None:
        rendered = _vec_source(rhs, var, start, stop)
        if rendered is None or not rendered[1]:
            return None
        reduced = "%s(%s)" % (_VEC_REDUCE[op], rendered[0])
    target_src = lhs_source(target)
    symbol = _ACCUM_SYMBOL.get(op)
    if symbol is not None:
        return "%s %s %s" % (target_src, symbol, reduced)
    return "%s = %s(%s, %s)" % (target_src, op, target_src, reduced)


# --------------------------------------------------------------------------
# The pipeline
# --------------------------------------------------------------------------
#: Pass names at each level, for documentation and introspection.
PIPELINE = {
    1: ("fold_constants", "dead_code", "hoist_invariants",
        "eliminate_common_subexprs"),
    2: ("fold_constants", "dead_code", "vectorize", "hoist_invariants",
        "eliminate_common_subexprs"),
}


def _scalar_cleanup(stmt, rounds=4):
    """fold+dce to a (bounded) fixpoint.

    A round that changes nothing returns the very same tree (the passes
    keep unchanged nodes), so the fixpoint test is node identity.
    """
    for _ in range(rounds):
        previous = stmt
        stmt = dead_code(fold_constants(stmt))
        if stmt is previous:
            break
    return stmt


def optimize_kernel(func, level=DEFAULT_OPT_LEVEL):
    """Run the optimizer pipeline over a lowered kernel.

    ``level`` 0 returns the tree untouched; 1 runs the scalar passes
    (folding, dead code, LICM, CSE); 2 (default) adds dense-loop
    vectorization.  The returned tree shares no mutable state with the
    input and has identical parameters and returns.
    """
    if level is None:
        level = DEFAULT_OPT_LEVEL
    level = int(level)
    if level <= 0:
        return func
    namer = _namer_for(func)
    func = _scalar_cleanup(func)
    if level >= 2:
        func = vectorize(func)
    func = hoist_invariants(func, namer)
    func = eliminate_common_subexprs(func, namer)
    func = _scalar_cleanup(func)
    return func
