"""The optimizer does each analysis once per node.

Deterministic work counts over synthetic kernels of nesting depth 4, 8
and 16 (no timing): the effects analysis computes one record per
statement node instead of re-walking every subtree at every nesting
level, the fold/dead-code fixpoint is detected without rendering the
kernel to source, and the default simplifier returns an
already-normalized tree without trying a single rule.
"""

import sys

import pytest

from repro.ir import asm, build
from repro.ir.nodes import Literal, Load, Var
from repro.ir.optimize import (
    dead_code,
    fold_constants,
    hoist_invariants,
    optimize_kernel,
)
from repro.rewrite import DEFAULT_EXPR_RULES, simplify_expr
from repro.rewrite import simplify as simplify_mod

DEPTHS = (4, 8, 16)

# ``repro.ir.emit`` the attribute is the function; patch the module.
emit_mod = sys.modules["repro.ir.emit"]

STMT_CLASSES = (asm.Block, asm.Nop, asm.Comment, asm.AssignStmt,
                asm.AccumStmt, asm.ForLoop, asm.WhileLoop, asm.If,
                asm.Raw, asm.FuncDef)


def nested_kernel(depth):
    """``depth`` nested loops; every level assigns a dead temporary,
    guards the next level and an accumulation with the same
    comparison (a CSE candidate), and the innermost body loads and
    stores through the innermost index."""
    inner = Var("i%d" % (depth - 1))
    body = [asm.AccumStmt(Load("out", inner), "add", Load("x", inner))]
    for level in reversed(range(depth)):
        index = Var("i%d" % level)
        cond = build.lt(index, Var("n"))
        body = [asm.ForLoop(index, Literal(0), Var("n"), asm.Block([
            asm.AssignStmt("dead%d" % level, build.plus(index, Literal(1))),
            asm.If([(cond, asm.Block(body))]),
            asm.If([(cond, asm.AccumStmt(Var("s"), "add",
                                         Load("x", Var("m"))))]),
        ]))]
    return asm.FuncDef(
        "kernel", ("out", "x", "n", "m"),
        asm.Block([asm.AssignStmt("s", Literal(0.0))] + body),
        returns=("s",))


def count_calls(monkeypatch, module, name):
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_statements_built(monkeypatch):
    built = [0]
    for cls in STMT_CLASSES:
        def init(self, *args, _original=cls.__init__, **kwargs):
            built[0] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    return built


@pytest.mark.parametrize("depth", DEPTHS)
def test_one_effect_record_per_statement_node(monkeypatch, depth):
    func = nested_kernel(depth)
    size = sum(1 for _ in asm.walk_statements(func))
    walks = count_calls(monkeypatch, asm, "walk_statements")
    records = count_calls(monkeypatch, asm, "_compute_effects")
    built = count_statements_built(monkeypatch)
    optimize_kernel(func, 2)
    # Every node there was during the run, input or built by a pass,
    # computed its effects at most once ...
    assert records[0] <= size + built[0]
    # ... the passes rebuild only what they change, so that stays
    # linear in the kernel (re-walking per level is depth x size) ...
    assert records[0] <= 3 * size
    # ... and no pass re-walks a subtree to recompute them.
    assert walks[0] == 0


@pytest.mark.parametrize("depth", DEPTHS)
def test_scalar_cleanup_never_emits(monkeypatch, depth):
    emits = count_calls(monkeypatch, emit_mod, "emit")
    optimize_kernel(nested_kernel(depth), 2)
    assert emits[0] == 0


@pytest.mark.parametrize("depth", DEPTHS)
def test_resimplifying_applies_no_rules(monkeypatch, depth):
    exprs = [expr for node in asm.walk_statements(nested_kernel(depth))
             for expr in asm.statement_exprs(node)]
    # Unsimplified shapes on top: a nested sum with literals, a double
    # negation, a self-comparison.
    index = Var("i0")
    exprs.append(build.call("add", build.call("add", index, Literal(2)),
                            Literal(3)))
    exprs.append(build.call("neg", build.call("neg", index)))
    exprs.append(build.call("eq", index, index))
    simplified = [simplify_expr(expr) for expr in exprs]
    tried = count_calls(monkeypatch, simplify_mod, "_apply_first")
    again = [simplify_expr(expr) for expr in simplified]
    assert tried[0] == 0
    assert all(new is old for new, old in zip(again, simplified))


def test_custom_rules_bypass_the_memo():
    seen = []

    def spy(expr):
        seen.append(expr)
        return None

    expr = simplify_expr(build.plus(Var("a"), Var("b")))
    assert simplify_expr(expr, DEFAULT_EXPR_RULES + (spy,)) is expr
    assert seen, "a custom rule set must still be applied"


@pytest.mark.parametrize("depth", DEPTHS)
def test_passes_keep_an_optimized_tree(depth):
    optimized = optimize_kernel(nested_kernel(depth), 1)
    assert fold_constants(optimized) is optimized
    assert dead_code(optimized) is optimized
    assert hoist_invariants(optimized) is optimized

