"""Fixpoint rewrite engine over scalar expressions.

The engine rewrites bottom-up: children first, then the node itself,
repeating at each node until no rule fires.  A global iteration bound
guards against non-terminating user rule sets — hitting it raises
rather than silently returning half-simplified IR.

With the default rule set the engine memoizes: every node it returns
is a fixpoint (simplifying it again returns the very same node), so
it marks the node ``_normal`` and later calls return it at once.  A
custom rule set never reads or sets the mark.
"""

from repro.ir.nodes import Expr
from repro.rewrite.rules import DEFAULT_EXPR_RULES
from repro.util.errors import ReproError

_MAX_NODE_ITERATIONS = 100


def simplify_expr(expr, rules=DEFAULT_EXPR_RULES):
    """Simplify ``expr`` to a fixpoint of ``rules``."""
    if not isinstance(expr, Expr):
        raise ReproError("simplify_expr expects an Expr, got %r" % (expr,))
    rules = tuple(rules)
    return _simplify(expr, rules, rules == DEFAULT_EXPR_RULES)


def _simplify(expr, rules, memo):
    if memo and expr._normal:
        return expr
    expr = _simplify_children(expr, rules, memo)
    for _ in range(_MAX_NODE_ITERATIONS):
        replacement = _apply_first(expr, rules)
        if replacement is None:
            if memo:
                _mark_normal(expr)
            return expr
        if memo and replacement._normal:
            return replacement
        # A rule may build brand-new subtrees; normalize them too.
        expr = _simplify_children(replacement, rules, memo)
    raise ReproError("rewrite did not reach a fixpoint at %r" % (expr,))


def _simplify_children(expr, rules, memo):
    children = expr.children()
    if not children:
        return expr
    new_children = [_simplify(child, rules, memo) for child in children]
    if any(new is not old for new, old in zip(new_children, children)):
        expr = expr.rebuild(new_children)
    return expr


def _mark_normal(expr):
    try:
        expr._normal = True
    except AttributeError:
        pass  # a node class without the slot (CIN modifiers, looplets)


def _apply_first(expr, rules):
    for rule in rules:
        replacement = rule(expr)
        if replacement is not None and replacement != expr:
            return replacement
    return None
