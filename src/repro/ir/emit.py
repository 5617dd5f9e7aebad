"""Emit target AST as Python source text."""

from repro.ir import asm
from repro.ir.pretty import expr_source, lhs_source
from repro.util.errors import ReproError

_INDENT = "    "


def emit(stmt, indent=0):
    """Render a statement tree as Python source."""
    lines = []
    _emit(stmt, indent, lines)
    return "\n".join(lines) + "\n"


def _emit(stmt, depth, lines):
    pad = _INDENT * depth
    if stmt is None or stmt.is_nop():
        return
    if isinstance(stmt, asm.Block):
        for child in stmt.stmts:
            _emit(child, depth, lines)
    elif isinstance(stmt, asm.Comment):
        for line in str(stmt.text).splitlines():
            lines.append("%s# %s" % (pad, line))
    elif isinstance(stmt, asm.AssignStmt):
        lines.append("%s%s = %s" % (pad, lhs_source(stmt.target),
                                    expr_source(stmt.value)))
    elif isinstance(stmt, asm.AccumStmt):
        _emit_accum(stmt, pad, lines)
    elif isinstance(stmt, asm.ForLoop):
        lines.append("%sfor %s in range(%s, %s):" % (
            pad, stmt.var.name, expr_source(stmt.start),
            expr_source(stmt.stop)))
        _emit_body(stmt.body, depth + 1, lines)
    elif isinstance(stmt, asm.WhileLoop):
        lines.append("%swhile %s:" % (pad, expr_source(stmt.cond)))
        _emit_body(stmt.body, depth + 1, lines)
    elif isinstance(stmt, asm.If):
        _emit_if(stmt, depth, lines)
    elif isinstance(stmt, (asm.Raw, asm.Fill)):
        lines.append(pad + stmt.line)
    elif isinstance(stmt, asm.FuncDef):
        lines.append("%sdef %s(%s):" % (pad, stmt.name,
                                        ", ".join(stmt.params)))
        _emit_body(stmt.body, depth + 1, lines)
        if stmt.returns:
            lines.append("%sreturn %s" % (_INDENT * (depth + 1),
                                          ", ".join(stmt.returns)))
    else:
        raise ReproError("cannot emit %r" % (stmt,))


def _emit_accum(stmt, pad, lines):
    target = lhs_source(stmt.target)
    value = expr_source(stmt.value)
    if stmt.op.symbol is not None and stmt.op.name in (
            "add", "sub", "mul", "div", "and", "or"):
        symbol = {"add": "+=", "sub": "-=", "mul": "*=", "div": "/=",
                  "and": "&=", "or": "|="}[stmt.op.name]
        if stmt.op.name in ("and", "or"):
            # Python's &=/|= are bitwise; stay with explicit logic.
            lines.append("%s%s = %s %s (%s)" % (
                pad, target, target, stmt.op.symbol.strip(), value))
        else:
            lines.append("%s%s %s %s" % (pad, target, symbol, value))
    else:
        lines.append("%s%s = %s(%s, %s)" % (
            pad, target, stmt.op.runtime_name, target, value))


def _emit_if(stmt, depth, lines):
    pad = _INDENT * depth
    if stmt.branches and stmt.branches[0][0] is None:
        # Optimizer passes can prune every conditional branch ahead of
        # an ``else``; a leading None condition is always taken, so the
        # body inlines (the remaining branches are unreachable).
        _emit(stmt.branches[0][1], depth, lines)
        return
    first = True
    for cond, body in stmt.branches:
        if cond is None:
            if body.is_nop():
                continue
            lines.append(pad + "else:")
        else:
            keyword = "if" if first else "elif"
            lines.append("%s%s %s:" % (pad, keyword, expr_source(cond)))
        _emit_body(body, depth + 1, lines)
        first = False


def _emit_body(body, depth, lines):
    before = len(lines)
    _emit(body, depth, lines)
    if len(lines) == before:
        lines.append(_INDENT * depth + "pass")
