"""Progressive lowering of CIN programs (Section 6 of the paper).

``Lowerer.lower_stmt`` walks the CIN tree emitting target statements.
At each forall it unfurls the accesses led by that index and then
repeatedly applies the highest-priority looplet pass present in the
body (Section 6.2's style resolution):

    Switch > Run > Spike > Pipeline > Jumper > Stepper > Lookup

Each pass rewrites the loop into simpler loops over subregions,
truncating the other looplets to match, and recurses.  Statement
simplification (zero annihilation, ``a[i] += 0 => pass``) runs between
passes, which is how entire subregions of work disappear when a sparse
operand contributes a run of fill.
"""

import math

from repro.cin.nodes import (
    Access,
    Assign,
    Forall,
    Multi,
    Pass,
    Sieve,
    Where,
    stmt_exprs,
    walk_stmts,
)
from repro.cin.analyze import output_tensors
from repro.compiler.context import element_store, fill_literal
from repro.compiler.stmt_simplify import is_identity_literal, simplify_stmt
from repro.compiler.unfurl import (
    Unfurled,
    access_leads_with,
    payload_to_expr,
    unfurl_access,
)
from repro.ir import asm, build, ops
from repro.ir.nodes import Extent, Literal, Var
from repro.looplets import (
    Jumper,
    Lookup,
    Pipeline,
    Run,
    Simplify,
    Spike,
    Stepper,
    Style,
    Switch,
    call_body,
    is_looplet,
    resolve_style,
    truncate,
)
from repro.rewrite import simplify_expr
from repro.tensors.tensor import Tensor
from repro.util.errors import LoweringError

_IDEMPOTENT_REDUCTIONS = ("min", "max", "and", "or")


# --------------------------------------------------------------------------
# Tree rewriting helpers
# --------------------------------------------------------------------------
def replace_in_expr(expr, fn):
    """Preorder expression replacement: ``fn`` returning non-None stops
    descent at that node."""
    replacement = fn(expr)
    if replacement is not None:
        return replacement
    children = expr.children()
    if not children:
        return expr
    new_children = [replace_in_expr(child, fn) for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return expr
    return expr.rebuild(new_children)


def map_stmt_exprs(stmt, fn):
    """Rebuild a CIN statement applying ``fn`` to its read expressions.

    Assignment targets are *not* mapped: outputs are written through
    the locate path, never unfurled as reads.
    """
    if isinstance(stmt, Assign):
        rhs = fn(stmt.rhs)
        if rhs is stmt.rhs:
            return stmt
        return Assign(stmt.lhs, stmt.op, rhs)
    if isinstance(stmt, Forall):
        body = map_stmt_exprs(stmt.body, fn)
        if body is stmt.body:
            return stmt
        return Forall(stmt.index, body, ext=stmt.ext)
    if isinstance(stmt, Sieve):
        cond = fn(stmt.cond)
        body = map_stmt_exprs(stmt.body, fn)
        if cond is stmt.cond and body is stmt.body:
            return stmt
        return Sieve(cond, body)
    if isinstance(stmt, Where):
        consumer = map_stmt_exprs(stmt.consumer, fn)
        producer = map_stmt_exprs(stmt.producer, fn)
        if consumer is stmt.consumer and producer is stmt.producer:
            return stmt
        return Where(consumer, producer)
    if isinstance(stmt, Multi):
        children = [map_stmt_exprs(child, fn) for child in stmt.stmts]
        if all(new is old for new, old in zip(children, stmt.stmts)):
            return stmt
        return Multi(children)
    return stmt


def collect_unfurled(stmt, index_name):
    """All Unfurled nodes tagged with ``index_name``, unique by identity."""
    seen = {}
    for node in walk_stmts(stmt):
        for expr in stmt_exprs(node):
            _collect_unfurled_expr(expr, index_name, seen)
    return list(seen.values())


def _collect_unfurled_expr(expr, index_name, seen):
    if isinstance(expr, Unfurled):
        if expr.index == index_name and id(expr) not in seen:
            seen[id(expr)] = expr
        return
    for child in expr.children():
        _collect_unfurled_expr(child, index_name, seen)


def stmt_uses_var(stmt, name):
    for node in walk_stmts(stmt):
        for expr in stmt_exprs(node):
            if name in expr.free_vars():
                return True
        if isinstance(node, Assign):
            for idx in node.lhs.idxs:
                if name in idx.free_vars():
                    return True
    return False


def ext_is_unit(ext):
    cond = simplify_expr(build.eq(build.plus(ext.start, 1), ext.stop))
    return cond == Literal(True)


def ext_is_empty(ext):
    cond = simplify_expr(build.ge(ext.start, ext.stop))
    return cond == Literal(True)


def ext_nonempty_cond(ext):
    return simplify_expr(build.lt(ext.start, ext.stop))


# --------------------------------------------------------------------------
# The lowerer
# --------------------------------------------------------------------------
class Lowerer:
    """Lowers one CIN program into target statements via a Context."""

    def __init__(self, ctx):
        self.ctx = ctx

    # -- statements ------------------------------------------------------
    def lower_stmt(self, stmt):
        stmt = simplify_stmt(stmt)
        if isinstance(stmt, Pass):
            return
        if isinstance(stmt, Assign):
            self.emit_assign(stmt)
        elif isinstance(stmt, Forall):
            self.lower_forall(stmt)
        elif isinstance(stmt, Where):
            self.lower_where(stmt)
        elif isinstance(stmt, Multi):
            for child in stmt.stmts:
                self.lower_stmt(child)
        elif isinstance(stmt, Sieve):
            self.lower_sieve(stmt)
        else:
            raise LoweringError("cannot lower statement %r" % (stmt,))

    def lower_where(self, stmt):
        for tensor in output_tensors(stmt.producer):
            self.emit_reset(tensor)
        self.lower_stmt(stmt.producer)
        self.lower_stmt(stmt.consumer)

    def lower_sieve(self, stmt):
        cond = simplify_expr(self.resolve_expr(stmt.cond))
        if isinstance(cond, Literal):
            if cond.value:
                self.lower_stmt(stmt.body)
            return
        body = self.ctx.scoped(self.lower_stmt, stmt.body)
        self.ctx.emit(asm.If([(cond, body)]))

    def emit_reset(self, tensor):
        """Initialize a result tensor as it enters scope."""
        from repro.tensors.output import RunOutput, SparseOutput

        if isinstance(tensor, (RunOutput, SparseOutput)):
            buf = self.ctx.buffer(tensor.builder, tensor.name + "_out")
            self.ctx.emit(asm.Raw("%s.reset()" % buf.name))
            return
        if tensor.ndim == 0:
            var = self.ctx.mark_scalar_output(tensor)
            self.ctx.emit(asm.AssignStmt(var, fill_literal(tensor)))
            return
        buf = self.ctx.buffer(tensor.element.val, tensor.name + "_val")
        # Outputs are written through ``locate`` (dense or bitmap
        # levels), so the value buffer holds one element per
        # coordinate and its length is fixed by the shape.
        self.ctx.emit(asm.Fill(buf, tensor.fill,
                               math.prod(tensor.shape)))

    # -- foralls -----------------------------------------------------------
    def lower_forall(self, stmt):
        name = stmt.index.name
        ext = stmt.ext or self.ctx.extents.get(name)
        if ext is None:
            raise LoweringError("no extent known for index %r" % name)
        body = self._unfurl_in_stmt(stmt.body, name)
        self.lower_loop(stmt.index, ext, body)

    def _unfurl_in_stmt(self, stmt, index_name):
        cache = {}

        def transform(expr):
            if isinstance(expr, Access) and access_leads_with(expr, index_name):
                key = expr.key()
                if key not in cache:
                    cache[key] = unfurl_access(self.ctx, expr, index_name)
                return cache[key]
            return None

        return map_stmt_exprs(stmt, lambda e: replace_in_expr(e, transform))

    # -- the progressive loop lowerer -------------------------------------
    def lower_loop(self, index, ext, stmt):
        stmt = simplify_stmt(stmt)
        if isinstance(stmt, Pass) or ext_is_empty(ext):
            return
        nodes = collect_unfurled(stmt, index.name)
        style = resolve_style([node.looplet for node in nodes])
        if style == Style.SIMPLIFY:
            self.lower_simplify(index, ext, stmt, nodes)
        elif style == Style.SWITCH:
            self.lower_switch(index, ext, stmt, nodes)
        elif style == Style.RUN:
            self.lower_run(index, ext, stmt, nodes)
        elif style == Style.SPIKE:
            self.lower_spike(index, ext, stmt, nodes)
        elif style == Style.PIPELINE:
            self.lower_pipeline(index, ext, stmt, nodes)
        elif style == Style.JUMPER:
            self.lower_jumper(index, ext, stmt, nodes)
        elif style == Style.STEPPER:
            self.lower_stepper(index, ext, stmt, nodes)
        elif style == Style.LOOKUP:
            self.lower_lookup(index, ext, stmt, nodes)
        else:
            self.lower_leaf(index, ext, stmt)

    def _replace_nodes(self, stmt, mapping):
        def transform(expr):
            if isinstance(expr, Unfurled):
                return mapping.get(id(expr))
            return None

        return map_stmt_exprs(stmt, lambda e: replace_in_expr(e, transform))

    def _substituted(self, node, value):
        """An Unfurled node's replacement for a looplet-or-payload."""
        if is_looplet(value):
            return node.with_looplet(value)
        return payload_to_expr(self.ctx, value, node)

    # Simplify: a no-op trigger; lower_loop re-simplifies on entry, so
    # unwrapping and recursing is exactly "simplify as early as possible".
    def lower_simplify(self, index, ext, stmt, nodes):
        mapping = {}
        for node in nodes:
            if isinstance(node.looplet, Simplify):
                mapping[id(node)] = self._substituted(node,
                                                      node.looplet.body)
        self.lower_loop(index, ext, self._replace_nodes(stmt, mapping))

    # Switch: hoist runtime case conditions out of the loop.
    def lower_switch(self, index, ext, stmt, nodes):
        node = next(n for n in nodes if isinstance(n.looplet, Switch))
        branches = []
        for case in node.looplet.cases:
            cond = simplify_expr(case.cond)
            if cond == Literal(False):
                continue
            variant = self._replace_nodes(
                stmt, {id(node): self._substituted(node, case.body)})
            block = self.ctx.scoped(self.lower_loop, index, ext, variant)
            if cond == Literal(True):
                branches.append((None, block))
                break
            branches.append((cond, block))
        if not branches:
            return
        if branches[0][0] is None:
            self.ctx.emit(branches[0][1])
            return
        self.ctx.emit(asm.If(branches))

    # Run: unwrap constant regions into their scalar payloads.
    def lower_run(self, index, ext, stmt, nodes):
        mapping = {}
        for node in nodes:
            if isinstance(node.looplet, Run):
                mapping[id(node)] = self._substituted(node, node.looplet.body)
        self.lower_loop(index, ext, self._replace_nodes(stmt, mapping))

    # Spike: split into a body region and a unit tail region.
    def lower_spike(self, index, ext, stmt, nodes):
        body_ext = Extent(ext.start,
                          simplify_expr(build.minus(ext.stop, 1)))
        tail_ext = Extent(body_ext.stop, ext.stop)
        body_map = {}
        tail_map = {}
        for node in nodes:
            if isinstance(node.looplet, Spike):
                body_map[id(node)] = self._substituted(
                    node, Run(node.looplet.body))
                tail_map[id(node)] = self._substituted(
                    node, node.looplet.tail)
            else:
                body_map[id(node)] = self._substituted(
                    node, truncate(node.looplet, body_ext, ext))
                tail_map[id(node)] = self._substituted(
                    node, truncate(node.looplet, tail_ext, ext))

        def emit_regions():
            self.lower_loop(index, body_ext,
                            self._replace_nodes(stmt, body_map))
            self.lower_loop(index, tail_ext,
                            self._replace_nodes(stmt, tail_map))

        nonempty = ext_nonempty_cond(ext)
        if nonempty == Literal(True):
            emit_regions()
        else:
            block = self.ctx.scoped(emit_regions)
            self.ctx.emit(asm.If([(nonempty, block)]))

    # Pipeline: split the extent phase by phase.
    def lower_pipeline(self, index, ext, stmt, nodes):
        node = next(n for n in nodes if isinstance(n.looplet, Pipeline))
        phases = node.looplet.phases
        cur = Var(self.ctx.freshen(index.name + "_start"))
        self.ctx.emit(asm.AssignStmt(cur, ext.start))
        for position, phase in enumerate(phases):
            final = position == len(phases) - 1
            if final:
                p_stop = ext.stop
            else:
                p_stop = Var(self.ctx.freshen(index.name + "_stop"))
                clipped = build.maximum(
                    cur, build.minimum(phase.stride, ext.stop))
                self.ctx.emit(asm.AssignStmt(p_stop, clipped))
            phase_ext = Extent(cur, p_stop)
            declared = Extent(cur, ext.stop if final else phase.stride)
            body = call_body(phase.body, self.ctx, phase_ext)
            body = truncate(body, phase_ext, declared) if is_looplet(body) \
                else body
            mapping = {id(node): self._substituted(node, body)}
            for other in nodes:
                if other is node:
                    continue
                mapping[id(other)] = self._substituted(
                    other, truncate(other.looplet, phase_ext,
                                    Extent(cur, ext.stop)))
            variant = self._replace_nodes(stmt, mapping)
            block = self.ctx.scoped(self.lower_loop, index, phase_ext,
                                    variant)
            if not block.is_nop():
                nonempty = ext_nonempty_cond(phase_ext)
                if nonempty == Literal(True):
                    self.ctx.emit(block)
                else:
                    self.ctx.emit(asm.If([(nonempty, block)]))
            if not final:
                self.ctx.emit(asm.AssignStmt(cur, p_stop))

    # Steppers/jumpers: a while loop over child regions.
    def lower_stepper(self, index, ext, stmt, nodes):
        self._lower_coiteration(index, ext, stmt, nodes, Stepper,
                                leaders_use_max=False)

    def lower_jumper(self, index, ext, stmt, nodes):
        self._lower_coiteration(index, ext, stmt, nodes, Jumper,
                                leaders_use_max=True)

    def _lower_coiteration(self, index, ext, stmt, nodes, cls,
                           leaders_use_max):
        leaders = [n for n in nodes if isinstance(n.looplet, cls)]
        cur = Var(self.ctx.freshen(index.name + "_cur"))
        self.ctx.emit(asm.AssignStmt(cur, ext.start))
        for node in leaders:
            for piece in node.looplet.preamble(self.ctx):
                self.ctx.emit(piece)
            for piece in node.looplet.seek(self.ctx, cur):
                self.ctx.emit(piece)
            # A seek is one unit of coiteration work (a binary search).
            self.ctx.emit(self.ctx.count_op())

        def loop_body():
            # Each merge step is one unit of coiteration work.
            self.ctx.emit(self.ctx.count_op())
            stride_vars = {}
            for node in leaders:
                stride = Var(self.ctx.freshen(index.name + "_stride"))
                self.ctx.emit(asm.AssignStmt(stride, node.looplet.stride))
                stride_vars[id(node)] = stride
            if leaders_use_max:
                widest = build.maximum(*stride_vars.values())
                p_stop_expr = build.minimum(widest, ext.stop)
            else:
                p_stop_expr = build.minimum(
                    *(list(stride_vars.values()) + [ext.stop]))
            p_stop = Var(self.ctx.freshen(index.name + "_stop"))
            self.ctx.emit(asm.AssignStmt(p_stop, p_stop_expr))
            region = Extent(cur, p_stop)
            mapping = {}
            for node in nodes:
                if id(node) in stride_vars:
                    child = call_body(node.looplet.body, self.ctx, region)
                    if is_looplet(child) and not leaders_use_max:
                        child = truncate(
                            child, region,
                            Extent(cur, stride_vars[id(node)]))
                    mapping[id(node)] = self._substituted(node, child)
                else:
                    mapping[id(node)] = self._substituted(
                        node, truncate(node.looplet, region,
                                       Extent(cur, ext.stop)))
            self.lower_loop(index, region, self._replace_nodes(stmt, mapping))
            for node in leaders:
                advance = asm.Block(node.looplet.next(self.ctx))
                if advance.is_nop():
                    continue
                guard = simplify_expr(
                    build.eq(p_stop, stride_vars[id(node)]))
                if guard == Literal(True):
                    self.ctx.emit(advance)
                elif guard != Literal(False):
                    self.ctx.emit(asm.If([(guard, advance)]))
            self.ctx.emit(asm.AssignStmt(cur, p_stop))

        body = self.ctx.scoped(loop_body)
        self.ctx.emit(asm.WhileLoop(build.lt(cur, ext.stop), body))

    # Lookup: emit the for loop; element access happens per iteration.
    def lower_lookup(self, index, ext, stmt, nodes):
        if ext_is_unit(ext):
            mapping = {}
            for node in nodes:
                if isinstance(node.looplet, Lookup):
                    result = node.looplet.body(ext.start)
                    mapping[id(node)] = self._substituted(node, result)
            self.lower_loop(index, ext, self._replace_nodes(stmt, mapping))
            return
        ivar = Var(index.name)
        unit = Extent(ivar, build.plus(ivar, 1))
        body = self.ctx.scoped(self.lower_loop, index, unit, stmt)
        self.ctx.emit(asm.ForLoop(ivar, ext.start, ext.stop, body))

    # No looplets left for this index: bind or loop, with the constant-
    # loop rewrites of Figure 5 (run summation).
    def lower_leaf(self, index, ext, stmt):
        ivar = Var(index.name)
        if ext_is_unit(ext):
            if stmt_uses_var(stmt, index.name) and ext.start != ivar:
                self.ctx.emit(asm.AssignStmt(ivar, ext.start))
            self.lower_stmt(stmt)
            return
        if (isinstance(stmt, Assign) and self.ctx.constant_loop_rewrite
                and self._emit_constant_loop(index, ext, stmt)):
            return
        body = self.ctx.scoped(self.lower_stmt, stmt)
        self.ctx.emit(asm.ForLoop(ivar, ext.start, ext.stop, body))

    def _emit_constant_loop(self, index, ext, stmt):
        """``@loop i ∈ a:b  C[...] += v`` with v independent of i becomes
        a single update scaled by the trip count (Figure 5, last rule)."""
        from repro.tensors.output import RunOutput

        rhs = simplify_expr(self.resolve_expr(stmt.rhs))
        if isinstance(stmt.lhs.tensor, RunOutput):
            return self._emit_run_append(index, ext, stmt, rhs)
        from repro.tensors.output import SparseOutput

        if isinstance(stmt.lhs.tensor, SparseOutput):
            if isinstance(rhs, Literal) and not callable(rhs.value) \
                    and rhs.value == stmt.lhs.tensor.fill:
                return True  # a whole region of fill stores: no code
            return False  # per-element guarded appends
        target = self.assign_target(stmt.lhs)
        used = rhs.free_vars() | target.free_vars()
        for idx in stmt.lhs.idxs:
            used |= idx.free_vars()
        if index.name in used:
            return False
        length = simplify_expr(build.minus(ext.stop, ext.start))
        if stmt.op is not None and stmt.op.name == "add":
            scaled = simplify_expr(build.times(rhs, length))
            self.ctx.emit(asm.AccumStmt(target, stmt.op, scaled))
            self.ctx.emit(self.ctx.count_op())
            return True
        if stmt.op is not None and stmt.op.name == "mul":
            powed = simplify_expr(build.call(ops.POW, rhs, length))
            self.ctx.emit(asm.AccumStmt(target, stmt.op, powed))
            self.ctx.emit(self.ctx.count_op())
            return True
        if stmt.op is None or stmt.op.name in _IDEMPOTENT_REDUCTIONS:
            # Overwrites and idempotent reductions collapse to one step.
            single = self.ctx.scoped(self._emit_resolved_assign,
                                     stmt, target, rhs)
            nonempty = ext_nonempty_cond(ext)
            if nonempty == Literal(True):
                self.ctx.emit(single)
            else:
                self.ctx.emit(asm.If([(nonempty, single)]))
            return True
        return False

    # -- run-length output assembly (Figure 10's RLE results) -----------
    def _flat_position(self, tensor, idxs):
        """Row-major flattened coordinate of an output access."""
        pos = Literal(0)
        for dim, idx in zip(tensor.shape, idxs):
            pos = build.plus(build.times(pos, dim), idx)
        return simplify_expr(pos)

    def _emit_run_append(self, index, ext, stmt, rhs):
        """Append one run covering a whole constant region."""
        from repro.ir.pretty import expr_source

        tensor = stmt.lhs.tensor
        if stmt.op is not None:
            raise LoweringError(
                "run-length outputs support overwrite assignment only")
        if stmt.lhs.idxs[-1].name != index.name:
            return False
        for idx in stmt.lhs.idxs[:-1]:
            if index.name in idx.free_vars():
                return False
        if index.name in rhs.free_vars():
            return False
        buf = self.ctx.buffer(tensor.builder, tensor.name + "_out")
        start = self._flat_position(
            tensor, list(stmt.lhs.idxs[:-1]) + [ext.start])
        stop = self._flat_position(
            tensor, list(stmt.lhs.idxs[:-1]) + [ext.stop])
        self.ctx.emit(asm.Raw("%s.append_run(%s, %s, %s)" % (
            buf.name, expr_source(start), expr_source(stop),
            expr_source(rhs))))
        self.ctx.emit(self.ctx.count_op())
        return True

    def _emit_point_append(self, stmt, rhs):
        """Append a single-element run (non-constant positions)."""
        from repro.ir.pretty import expr_source

        tensor = stmt.lhs.tensor
        if stmt.op is not None:
            raise LoweringError(
                "run-length outputs support overwrite assignment only")
        buf = self.ctx.buffer(tensor.builder, tensor.name + "_out")
        flat = self._flat_position(tensor, stmt.lhs.idxs)
        source = expr_source(flat)
        self.ctx.emit(asm.Raw("%s.append_run(%s, %s + 1, %s)" % (
            buf.name, source, source, expr_source(rhs))))
        self.ctx.emit(self.ctx.count_op())

    def _emit_sparse_append(self, stmt, rhs):
        """Append one coordinate to a sparse output, guarded on fill."""
        from repro.ir.pretty import expr_source

        tensor = stmt.lhs.tensor
        if stmt.op is not None:
            raise LoweringError(
                "sparse outputs support overwrite assignment only")
        if isinstance(rhs, Literal) and not callable(rhs.value) \
                and rhs.value == tensor.fill:
            # Statically-fill stores are elided entirely: the whole
            # point of sparse assembly.
            return
        buf = self.ctx.buffer(tensor.builder, tensor.name + "_out")
        flat = self._flat_position(tensor, stmt.lhs.idxs)
        value = Var(self.ctx.freshen(tensor.name + "_v"))
        self.ctx.emit(asm.AssignStmt(value, rhs))
        guard = build.ne(value, Literal(tensor.fill))
        append = asm.Block([
            asm.Raw("%s.append(%s, %s)" % (buf.name, expr_source(flat),
                                           value.name)),
            self.ctx.count_op(),
        ])
        self.ctx.emit(asm.If([(guard, append)]))

    # -- assignments ---------------------------------------------------
    def emit_assign(self, stmt):
        from repro.tensors.output import RunOutput, SparseOutput

        rhs = simplify_expr(self.resolve_expr(stmt.rhs))
        if is_identity_literal(rhs, stmt.op):
            return
        if isinstance(stmt.lhs.tensor, RunOutput):
            self._emit_point_append(stmt, rhs)
            return
        if isinstance(stmt.lhs.tensor, SparseOutput):
            self._emit_sparse_append(stmt, rhs)
            return
        target = self.assign_target(stmt.lhs)
        self._emit_resolved_assign(stmt, target, rhs)

    def _emit_resolved_assign(self, stmt, target, rhs):
        if stmt.op is None:
            self.ctx.emit(asm.AssignStmt(target, rhs))
        else:
            self.ctx.emit(asm.AccumStmt(target, stmt.op, rhs))
        self.ctx.emit(self.ctx.count_op())

    def assign_target(self, access):
        tensor = access.tensor
        if not isinstance(tensor, Tensor):
            raise LoweringError("outputs must be Tensors, got %r"
                                % (tensor,))
        if tensor.ndim == 0:
            return self.ctx.mark_scalar_output(tensor)
        pos = Literal(0)
        for level, idx in zip(tensor.levels, access.idxs):
            pos = level.locate(self.ctx, pos, idx)
        return element_store(self.ctx, tensor,
                             simplify_expr(pos))

    def resolve_expr(self, expr):
        def transform(node):
            if isinstance(node, Access):
                if isinstance(node.tensor, Tensor) and node.tensor.ndim == 0:
                    return self.ctx.scalar_ref(node.tensor)
                raise LoweringError(
                    "access %r was never unfurled; check that loop order "
                    "matches the access's mode order" % (node,))
            if isinstance(node, Unfurled):
                raise LoweringError(
                    "unlowered looplet remained in a scalar position: %r"
                    % (node,))
            return None

        return replace_in_expr(expr, transform)
