"""Lower the scalar target AST to C99.

The emitter consumes the :mod:`repro.ir.asm` statement tree after the
*scalar* optimizer passes (``optimize_kernel(tree, 1)``: folding, dead
code, LICM, CSE).  Vectorization is a python-target pass — its numpy
slice lines have no C meaning, and ``cc -O2`` vectorizes the scalar
loops itself — so :func:`repro.compiler.kernel._compile_artifact`
emits C from the opt-1 tree whatever ``opt_level`` the python artifact
uses.  The result is one self-contained C99 translation unit exporting
``int64_t <name>(void **args)``.  Every kernel parameter arrives as
one slot of the ``args`` pointer array and is cast to its typed
pointer in the prologue; buffer element types are fixed at compile
time from the seed arrays' dtypes, which is sound because format
signatures pin dtypes across rebinds (see
:meth:`repro.compiler.kernel.CompiledKernel.bind`).

Semantics contract: emitted C must be **bit-identical** to the python
backend on every supported kernel (the ``c_backend`` fuzz oracle and
``tests/codegen`` enforce this).  The translation therefore reproduces
Python semantics exactly where C differs:

* ``/`` always divides in ``double`` (``fl_div``),
* ``//`` and ``%`` use floor-division / sign-of-divisor semantics
  (``fl_floordiv_*`` / ``fl_mod_*``),
* ``min``/``max`` return the *first* minimal/maximal argument like the
  Python builtins (ternary helpers, not ``fmin``/``fmax``),
* ``round_u8`` rounds half-to-even (``rint`` under the default
  rounding mode, matching Python's ``round``),
* the ``search_ge``/``search_abs_ge`` protocol helpers are the same
  binary searches as :mod:`repro.ir.runtime`, over the typed pointer,
* a ``for`` loop steps a hidden induction variable and copies it into
  the kernel's loop variable at the top of every iteration, so the
  variable reads ``stop - 1`` after the loop, keeps its value over a
  zero-trip loop, and can be reassigned in the body without changing
  the iteration — Python's ``for i in range(...)`` exactly,
* ``coalesce`` returns its first operand: a value the emitter can type
  is never missing,
* a :class:`~repro.ir.asm.Fill` output reset is a plain store loop
  over its (signature-fixed) length.

Anything the emitter cannot translate with that guarantee raises
:class:`CUnsupportedError` — :class:`Raw` statements (output-builder
method calls), ``missing`` literals (``permit``), unregistered ops and
buffers outside :data:`SUPPORTED_DTYPES`.  The caller falls back to
the python backend.
"""

from repro.ir import asm
from repro.ir.nodes import Call, Literal, Load, Var
from repro.ir.ops import MISSING
from repro.util.errors import ReproError

#: Internal type lattice: BOOL < I64 < F64 (join = promotion).
BOOL, I64, F64 = "bool", "i64", "f64"

_RANK = {BOOL: 0, I64: 1, F64: 2}

#: numpy dtype names the C backend accepts as kernel buffers.  numpy
#: ``bool_`` is one byte, same as C99 ``bool`` on every mainstream ABI,
#: and C assignment to ``bool`` normalizes nonzero to ``true`` exactly
#: like numpy boolean-array stores.
SUPPORTED_DTYPES = {"int64": I64, "float64": F64, "bool": BOOL}

_CTYPE = {BOOL: "bool", I64: "int64_t", F64: "double"}
_CZERO = {BOOL: "false", I64: "INT64_C(0)", F64: "0.0"}

#: C keywords plus identifiers the prelude reserves; colliding kernel
#: names get a ``v_`` prefix (consistently, via the rename map).
_RESERVED = frozenset("""
    auto break case char const continue default do double else enum
    extern float for goto if inline int long register restrict return
    short signed sizeof static struct switch typedef union unsigned
    void volatile while _Bool bool true false
""".split())

_ATOM = 100
_TERNARY = 3


class CUnsupportedError(ReproError):
    """The C emitter cannot translate this kernel bit-identically."""


_PRELUDE = r"""#include <stdint.h>
#include <stdbool.h>
#include <math.h>

static inline double fl_div(double a, double b) { return a / b; }

static inline int64_t fl_floordiv_i64(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q -= 1;
    return q;
}

static inline int64_t fl_mod_i64(int64_t a, int64_t b) {
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}

static inline double fl_floordiv_f64(double a, double b) {
    return floor(a / b);
}

static inline double fl_mod_f64(double a, double b) {
    double r = fmod(a, b);
    if (r != 0.0 && ((r < 0.0) != (b < 0.0))) r += b;
    return r;
}

static inline int64_t fl_min_i64(int64_t a, int64_t b) {
    return b < a ? b : a;
}

static inline int64_t fl_max_i64(int64_t a, int64_t b) {
    return b > a ? b : a;
}

static inline double fl_min_f64(double a, double b) {
    return b < a ? b : a;
}

static inline double fl_max_f64(double a, double b) {
    return b > a ? b : a;
}

static inline int64_t fl_abs_i64(int64_t a) { return a < 0 ? -a : a; }

static inline int64_t fl_round_u8(double v) {
    double r = rint(v);
    if (r < 0.0) return 0;
    if (r > 255.0) return 255;
    return (int64_t) r;
}

static inline int64_t fl_search_ge(const int64_t *idx, int64_t lo,
                                   int64_t hi, int64_t key) {
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (idx[mid] < key) lo = mid + 1;
        else hi = mid;
    }
    return lo;
}

static inline int64_t fl_search_abs_ge(const int64_t *idx, int64_t lo,
                                       int64_t hi, int64_t key) {
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        int64_t v = idx[mid];
        if ((v < 0 ? -v : v) < key) lo = mid + 1;
        else hi = mid;
    }
    return lo;
}
"""


def _join(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if _RANK[a] >= _RANK[b] else b


def _arith(*types):
    """Result type of +, -, * over ``types`` (bools promote to int)."""
    joined = None
    for t in types:
        joined = _join(joined, t)
    return _join(joined, I64) if joined is not None else None


class _Emitter:
    """One emission pass over one kernel function."""

    def __init__(self, func, param_dtypes):
        self.func = func
        self.params = tuple(func.params)
        self.param_types = {}
        for name in self.params:
            dtype = str(param_dtypes.get(name))
            elem = SUPPORTED_DTYPES.get(dtype)
            if elem is None:
                raise CUnsupportedError(
                    "buffer %r has dtype %s (C backend supports %s)"
                    % (name, dtype,
                       "/".join(sorted(SUPPORTED_DTYPES))))
            self.param_types[name] = elem
        self.env = {}           # scalar name -> lattice type
        self.decl_order = []    # scalar names in first-assignment order
        self.stored = asm.stmt_stores(func)
        self.renames = {}
        self._temp = 0

    # -- analysis ------------------------------------------------------
    def analyze(self):
        self._infer_types()
        self._build_renames()

    def _infer_types(self):
        for _ in range(8):
            before = dict(self.env)
            self._sweep(self.func.body)
            if self.env == before:
                break
        for name in self.env:
            if self.env[name] is None:
                self.env[name] = I64

    def _sweep(self, stmt):
        if isinstance(stmt, asm.Block):
            for child in stmt.stmts:
                self._sweep(child)
        elif isinstance(stmt, asm.AssignStmt):
            value = self._expr_type(stmt.value)
            if isinstance(stmt.target, Var):
                self._assign(stmt.target.name, value)
            else:
                self._store_target(stmt.target)
        elif isinstance(stmt, asm.AccumStmt):
            value = self._expr_type(stmt.value)
            if isinstance(stmt.target, Var):
                name = stmt.target.name
                current = self.env.get(name)
                self._assign(name,
                             self._call_type(stmt.op,
                                             (current, value)))
            else:
                self._store_target(stmt.target)
        elif isinstance(stmt, asm.ForLoop):
            for bound in (stmt.start, stmt.stop):
                if self._expr_type(bound) is F64:
                    raise CUnsupportedError(
                        "float-typed loop bound in for-loop over %r"
                        % stmt.var.name)
            self._assign(stmt.var.name, I64)
            self._sweep(stmt.body)
        elif isinstance(stmt, asm.WhileLoop):
            self._expr_type(stmt.cond)
            self._sweep(stmt.body)
        elif isinstance(stmt, asm.If):
            for cond, body in stmt.branches:
                if cond is not None:
                    self._expr_type(cond)
                self._sweep(body)
        elif isinstance(stmt, asm.FuncDef):
            self._sweep(stmt.body)
        elif isinstance(stmt, asm.Fill):
            self._fill_value(stmt)
        elif isinstance(stmt, asm.Raw):
            raise CUnsupportedError(
                "opaque statement %r (output builder call)" % stmt.line)

    def _fill_value(self, stmt):
        """C source of the value a :class:`~repro.ir.asm.Fill` stores,
        cast to the buffer's element type the way numpy's ``fill``
        converts it."""
        elem = self._param_elem(stmt.buffer, "fill target")
        value = stmt.value
        if hasattr(value, "item"):
            value = value.item()
        exact = isinstance(value, (bool, int)) or (
            isinstance(value, float)
            and (elem is not I64 or value.is_integer()))
        if not exact or (elem is I64 and abs(value) >= 2 ** 63):
            raise CUnsupportedError(
                "fill value %r of a %s buffer" % (stmt.value, elem))
        return "(%s) %s" % (_CTYPE[elem], self._render_literal(value))

    def _assign(self, name, value_type):
        if name in self.params:
            raise CUnsupportedError(
                "kernel reassigns buffer parameter %r" % name)
        if name not in self.env:
            self.env[name] = None
            self.decl_order.append(name)
        self.env[name] = _join(self.env[name], value_type)

    def _store_target(self, load):
        self._param_elem(load.buffer, "store target")
        self._index_type(load.index)

    def _param_elem(self, buffer, what):
        if not isinstance(buffer, Var) or buffer.name not in self.params:
            raise CUnsupportedError(
                "%s %r is not a kernel buffer parameter"
                % (what, getattr(buffer, "name", buffer)))
        return self.param_types[buffer.name]

    def _index_type(self, index):
        if self._expr_type(index) is F64:
            raise CUnsupportedError("float-typed buffer index")
        return I64

    def _expr_type(self, expr):
        if isinstance(expr, Literal):
            value = expr.value
            if value is MISSING:
                raise CUnsupportedError(
                    "missing-valued expression (coalesce/permit)")
            if isinstance(value, bool):
                return BOOL
            if isinstance(value, int):
                return I64
            if isinstance(value, float):
                return F64
            raise CUnsupportedError(
                "literal %r has no C type" % (value,))
        if isinstance(expr, Var):
            name = expr.name
            if name in self.params:
                raise CUnsupportedError(
                    "buffer parameter %r used as a scalar value" % name)
            # Unknown until its assignment is swept; the fixpoint
            # converges because types only move up the lattice.
            return self.env.get(name)
        if isinstance(expr, Load):
            elem = self._param_elem(expr.buffer, "load from")
            self._index_type(expr.index)
            return elem
        if isinstance(expr, Call):
            if expr.op.name in ("search_ge", "search_abs_ge"):
                # First argument is the index buffer itself, not a
                # scalar value; type only the bounds and the key.
                for arg in expr.args[1:]:
                    self._expr_type(arg)
                return self._call_type(expr.op, (), expr)
            return self._call_type(
                expr.op, tuple(self._expr_type(arg)
                               for arg in expr.args), expr)
        raise CUnsupportedError("cannot type %r" % (expr,))

    def _call_type(self, op, arg_types, expr=None):
        name = op.name
        if name in ("add", "sub", "mul"):
            return _arith(*arg_types)
        if name == "neg":
            return _arith(arg_types[0])
        if name == "abs":
            return _arith(arg_types[0])
        if name == "div":
            return F64
        if name in ("floordiv", "mod"):
            joined = _arith(*arg_types)
            return joined
        if name in ("min", "max"):
            joined = None
            for t in arg_types:
                joined = _join(joined, t)
            return joined
        if name in ("eq", "ne", "lt", "le", "gt", "ge", "not"):
            return BOOL
        if name in ("and", "or"):
            for t in arg_types:
                if t not in (BOOL, None):
                    raise CUnsupportedError(
                        "non-boolean operand to %r (Python returns an "
                        "operand, C returns 0/1)" % name)
            return BOOL
        if name == "sqrt":
            return F64
        if name == "ifelse":
            return _join(arg_types[1], arg_types[2])
        if name == "coalesce":
            # A value the C emitter can type is never missing (missing
            # literals raise in ``_expr_type``), so the first operand
            # is always the result.
            return arg_types[0]
        if name == "round_u8":
            return I64
        if name in ("search_ge", "search_abs_ge"):
            if expr is not None:
                elem = self._param_elem(expr.args[0],
                                        "%s index buffer" % name)
                if elem is not I64:
                    raise CUnsupportedError(
                        "%s over a non-int64 buffer" % name)
            return I64
        raise CUnsupportedError("operator %r has no C lowering" % name)

    def _build_renames(self):
        taken = set()
        for name in list(self.params) + self.decl_order:
            safe = name
            if (name in _RESERVED or name.startswith("fl_")
                    or name.startswith("v_")):
                safe = "v_" + name
            while safe in taken:
                safe += "_"
            taken.add(safe)
            self.renames[name] = safe

    def _cname(self, name):
        return self.renames.get(name, name)

    def _fresh_temp(self, stem):
        self._temp += 1
        return "fl_%s_%d" % (stem, self._temp)

    # -- expression rendering ------------------------------------------
    def _render(self, expr):
        """``(source, precedence)`` of one expression, C syntax."""
        if isinstance(expr, Literal):
            return self._render_literal(expr.value), _ATOM
        if isinstance(expr, Var):
            return self._cname(expr.name), _ATOM
        if isinstance(expr, Load):
            index, _ = self._render(expr.index)
            return "%s[%s]" % (self._cname(expr.buffer.name),
                               index), _ATOM
        if isinstance(expr, Call):
            return self._render_call(expr)
        raise CUnsupportedError("cannot render %r" % (expr,))

    def _render_literal(self, value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, int):
            return "INT64_C(%d)" % value
        text = repr(float(value))
        if text == "inf":
            return "INFINITY"
        if text == "-inf":
            return "(-INFINITY)"
        if text == "nan":
            return "NAN"
        if "." not in text and "e" not in text:
            text += ".0"
        return text

    def _infix(self, symbol, precedence, args):
        parts = []
        for position, arg in enumerate(args):
            source, prec = self._render(arg)
            if prec < precedence or (prec == precedence
                                     and position > 0):
                source = "(%s)" % source
            parts.append(source)
        return (" %s " % symbol).join(parts), precedence

    def _call_helper(self, helper, args):
        rendered = ", ".join(self._render(arg)[0] for arg in args)
        return "%s(%s)" % (helper, rendered), _ATOM

    def _typed_helper(self, stem, args):
        joined = None
        for arg in args:
            joined = _join(joined, self._expr_type(arg))
        suffix = "f64" if joined is F64 else "i64"
        return "fl_%s_%s" % (stem, suffix)

    def _fold_pair(self, expr):
        """Left-fold an n-ary call into nested binary calls."""
        folded = expr.args[0]
        for arg in expr.args[1:]:
            folded = Call(expr.op, [folded, arg])
        return folded

    def _render_call(self, expr):
        name = expr.op.name
        args = expr.args
        if name == "add":
            return self._infix("+", 12, args)
        if name == "sub":
            return self._infix("-", 12, args)
        if name == "mul":
            return self._infix("*", 13, args)
        if name == "neg":
            inner, prec = self._render(args[0])
            if prec < 14:
                inner = "(%s)" % inner
            return "-" + inner, 14
        if name == "div":
            return self._call_helper("fl_div", args)
        if name in ("floordiv", "mod"):
            helper = self._typed_helper(name, args)
            return self._call_helper(helper, args)
        if name in ("min", "max"):
            if len(args) > 2:
                return self._render_call(self._fold_pair(expr))
            helper = self._typed_helper(name, args)
            return self._call_helper(helper, args)
        if name in ("eq", "ne", "lt", "le", "gt", "ge"):
            symbol = {"eq": "==", "ne": "!=", "lt": "<",
                      "le": "<=", "gt": ">", "ge": ">="}[name]
            precedence = 9 if name in ("eq", "ne") else 10
            return self._infix(symbol, precedence, args)
        if name in ("and", "or"):
            symbol = "&&" if name == "and" else "||"
            return self._infix(symbol, 5 if name == "and" else 4, args)
        if name == "not":
            inner, prec = self._render(args[0])
            if prec < 14:
                inner = "(%s)" % inner
            return "!" + inner, 14
        if name == "abs":
            if self._expr_type(args[0]) is F64:
                return self._call_helper("fabs", args)
            return self._call_helper("fl_abs_i64", args)
        if name == "sqrt":
            return self._call_helper("sqrt", args)
        if name == "round_u8":
            return self._call_helper("fl_round_u8", args)
        if name == "ifelse":
            cond = self._render(args[0])[0]
            then = self._render(args[1])[0]
            otherwise = self._render(args[2])[0]
            return "(%s ? %s : %s)" % (cond, then, otherwise), _ATOM
        if name == "coalesce":
            return self._render(args[0])
        if name in ("search_ge", "search_abs_ge"):
            buffer = self._cname(args[0].name)
            rest = ", ".join(self._render(arg)[0] for arg in args[1:])
            return "fl_%s(%s, %s)" % (name, buffer, rest), _ATOM
        raise CUnsupportedError("operator %r has no C lowering" % name)

    # -- statement rendering -------------------------------------------
    def _emit(self, stmt, depth, lines):
        pad = "    " * depth
        if stmt is None or stmt.is_nop():
            return
        if isinstance(stmt, asm.Block):
            for child in stmt.stmts:
                self._emit(child, depth, lines)
        elif isinstance(stmt, asm.Comment):
            for line in str(stmt.text).splitlines():
                lines.append("%s/* %s */" % (pad, line))
        elif isinstance(stmt, asm.AssignStmt):
            lines.append(pad + self._assignment(stmt.target,
                                                stmt.value))
        elif isinstance(stmt, asm.AccumStmt):
            lines.append(pad + self._accumulation(stmt))
        elif isinstance(stmt, asm.ForLoop):
            # A hidden induction variable, copied into the kernel's
            # loop variable on every iteration, is Python's ``range``
            # loop exactly: the variable ends at ``stop - 1`` (or is
            # untouched by a zero-trip loop), and assigning it in the
            # body does not change the iteration.
            stop = self._fresh_temp("stop")
            step = self._fresh_temp("i")
            lines.append("%s{" % pad)
            lines.append("%s    int64_t %s = %s;" % (
                pad, stop, self._render(stmt.stop)[0]))
            lines.append("%s    for (int64_t %s = %s; %s < %s; %s++) {" % (
                pad, step, self._render(stmt.start)[0], step, stop,
                step))
            lines.append("%s        %s = %s;" % (
                pad, self._cname(stmt.var.name), step))
            self._emit(stmt.body, depth + 2, lines)
            lines.append("%s    }" % pad)
            lines.append("%s}" % pad)
        elif isinstance(stmt, asm.Fill):
            step = self._fresh_temp("k")
            lines.append(
                "%sfor (int64_t %s = 0; %s < INT64_C(%d); %s++) %s[%s] = %s;"
                % (pad, step, step, stmt.size, step,
                   self._cname(stmt.buffer.name), step,
                   self._fill_value(stmt)))
        elif isinstance(stmt, asm.WhileLoop):
            lines.append("%swhile (%s) {" % (
                pad, self._render(stmt.cond)[0]))
            self._emit(stmt.body, depth + 1, lines)
            lines.append("%s}" % pad)
        elif isinstance(stmt, asm.If):
            self._emit_if(stmt, depth, lines)
        else:
            raise CUnsupportedError("cannot emit %r" % (stmt,))

    def _assignment(self, target, value):
        rendered = self._render(value)[0]
        if isinstance(target, Var):
            return "%s = %s;" % (self._cname(target.name), rendered)
        elem = self.param_types[target.buffer.name]
        index = self._render(target.index)[0]
        return "%s[%s] = (%s)(%s);" % (
            self._cname(target.buffer.name), index, _CTYPE[elem],
            rendered)

    def _accumulation(self, stmt):
        if isinstance(stmt.target, Var) and stmt.op.name in (
                "add", "sub", "mul"):
            symbol = {"add": "+=", "sub": "-=", "mul": "*="}[
                stmt.op.name]
            return "%s %s %s;" % (self._cname(stmt.target.name),
                                  symbol, self._render(stmt.value)[0])
        combined = Call(stmt.op, [stmt.target, stmt.value])
        return self._assignment(stmt.target, combined)

    def _emit_if(self, stmt, depth, lines):
        pad = "    " * depth
        if stmt.branches and stmt.branches[0][0] is None:
            # A leading else-branch is unconditionally taken (optimizer
            # passes prune fully; mirror the python emitter).
            self._emit(stmt.branches[0][1], depth, lines)
            return
        first = True
        for cond, body in stmt.branches:
            if cond is None:
                if body.is_nop():
                    continue
                lines.append("%s} else {" % pad)
            else:
                keyword = "if" if first else "} else if"
                lines.append("%s%s (%s) {" % (
                    pad, keyword, self._render(cond)[0]))
            self._emit(body, depth + 1, lines)
            first = False
        lines.append("%s}" % pad)

    # -- top level -----------------------------------------------------
    def render(self):
        body_lines = []
        self._emit(self.func.body, 1, body_lines)
        lines = [
            "/* generated by repro.codegen.c_emit; do not edit */",
            _PRELUDE,
            "#ifdef _WIN32",
            "#define FL_EXPORT __declspec(dllexport)",
            "#else",
            "#define FL_EXPORT __attribute__((visibility(\"default\")))",
            "#endif",
            "",
            "FL_EXPORT int64_t %s(void **fl_args) {"
            % self.func.name,
        ]
        for position, name in enumerate(self.params):
            elem = self.param_types[name]
            const = "" if name in self.stored else "const "
            lines.append(
                "    %s%s *%s = (%s%s *) fl_args[%d];"
                % (const, _CTYPE[elem], self._cname(name), const,
                   _CTYPE[elem], position))
        for name in self.decl_order:
            elem = self.env[name]
            lines.append("    %s %s = %s;" % (
                _CTYPE[elem], self._cname(name), _CZERO[elem]))
        lines.extend(body_lines)
        if self.func.returns:
            if len(self.func.returns) != 1:
                raise CUnsupportedError(
                    "multi-value kernel return %r"
                    % (self.func.returns,))
            lines.append("    return %s;"
                         % self._cname(self.func.returns[0]))
        else:
            lines.append("    return 0;")
        lines.append("}")
        return "\n".join(lines) + "\n"


def emit_c(func, param_dtypes):
    """Render one :class:`repro.ir.asm.FuncDef` as a C99 source string.

    ``param_dtypes`` maps every kernel parameter name to its numpy
    dtype name (``"int64"`` / ``"float64"``).  Raises
    :class:`CUnsupportedError` when the kernel cannot be translated
    bit-identically; the caller is expected to fall back to the python
    backend.
    """
    if not isinstance(func, asm.FuncDef):
        raise CUnsupportedError("C emission needs a FuncDef, got %r"
                                % (func,))
    missing = [name for name in func.params
               if name not in param_dtypes]
    if missing:
        raise CUnsupportedError(
            "no dtype recorded for parameter(s) %s"
            % ", ".join(missing))
    emitter = _Emitter(func, param_dtypes)
    emitter.analyze()
    return emitter.render()
