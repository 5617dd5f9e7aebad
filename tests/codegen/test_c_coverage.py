"""What the C backend runs, and that it runs it exactly like Python.

* Loop variables: a C ``for`` copies a hidden induction variable into
  the kernel's variable each iteration, so reads after the loop, after
  a zero-trip loop, and reassignments inside the body all match
  Python's ``for i in range(...)``.
* ``coalesce`` lowers to its first operand when that operand has a C
  type; a ``missing`` literal (``permit`` outside its range) still
  falls back.
* The warm-start structures of fig1, fig7, fig8, fig9 and fig11 run in
  C and match the reference interpreter; fig10's run-length output
  (a ``RunBuilder``) falls back, loudly and bit-identically (its
  two-backend check is in ``test_c_end_to_end.py``).
* Fuzz coverage: the first 50 ``quick`` cases of seed 0 all run in C.
"""

import numpy as np
import pytest

import repro.lang as fl
from repro import codegen
from repro.baselines.reference import interpret
from repro.bench import kernels as bench_kernels
from repro.cin.analyze import output_tensors
from repro.codegen import toolchain
from repro.fuzz.engine import case_seed
from repro.fuzz.gen import build_case, generate_spec
from repro.ir import asm, build
from repro.ir.emit import emit
from repro.ir.nodes import Literal, Load, Var
from repro.ir.runtime import kernel_globals
from repro.workloads import graphs, images, matrices

needs_cc = pytest.mark.skipif(
    not codegen.have_toolchain(), reason="no C compiler on PATH")


def _run_both(func, size):
    """Run ``func`` (one float64 buffer parameter ``out``) through the
    python emitter and the C emitter; return both buffers."""
    namespace = kernel_globals()
    exec(compile(emit(func), "<test>", "exec"), namespace)
    py_out = np.zeros(size)
    namespace[func.name](py_out)
    entry, _ = toolchain.kernel_entry(
        codegen.emit_c(func, {"out": "float64"}), func.name, ["float64"])
    c_out = np.zeros(size)
    entry(c_out)
    return py_out, c_out


def _store(slot, value):
    return asm.AssignStmt(Load(Var("out"), Literal(slot)), value)


@needs_cc
class TestLoopVariables:
    def test_read_after_loop_zero_trip_and_reassigned(self):
        i, j, n = Var("i"), Var("j"), Var("n")
        body = asm.Block([
            asm.AssignStmt(n, Literal(0)),
            # After a loop the variable is stop - 1 ...
            asm.ForLoop(i, Literal(0), Literal(5), asm.Block([
                asm.AccumStmt(n, "add", Literal(1))])),
            _store(0, i),
            # ... a zero-trip loop leaves it alone ...
            asm.ForLoop(i, Literal(7), Literal(3), asm.Block([
                asm.AccumStmt(n, "add", Literal(100))])),
            _store(1, i),
            # ... and reassigning it in the body neither changes the
            # iteration nor survives the next iteration's copy.
            asm.ForLoop(j, Literal(0), Literal(4), asm.Block([
                asm.AccumStmt(n, "add", j),
                asm.AssignStmt(j, build.plus(j, Literal(10))),
            ])),
            _store(2, j),
            _store(3, n),
        ])
        func = asm.FuncDef("loopvars", ("out",), body)
        py_out, c_out = _run_both(func, 4)
        np.testing.assert_array_equal(py_out, [4.0, 4.0, 13.0, 11.0])
        np.testing.assert_array_equal(c_out, py_out)

    def test_loop_variable_read_by_a_sibling_loop_bound(self):
        i, k, n = Var("i"), Var("k"), Var("n")
        body = asm.Block([
            asm.AssignStmt(n, Literal(0)),
            asm.ForLoop(i, Literal(2), Literal(6), asm.Block([])),
            asm.ForLoop(k, i, Literal(9), asm.Block([
                asm.AccumStmt(n, "add", k)])),
            asm.ForLoop(i, Literal(0), i, asm.Block([
                asm.AccumStmt(n, "add", Literal(1))])),
            _store(0, n),
            _store(1, i),
        ])
        func = asm.FuncDef("siblings", ("out",), body)
        py_out, c_out = _run_both(func, 2)
        np.testing.assert_array_equal(py_out, [5 + 6 + 7 + 8 + 5, 4])
        np.testing.assert_array_equal(c_out, py_out)


@needs_cc
@pytest.mark.parametrize("fill", [0.0, 1.5])
def test_fill_resets_every_output_element(fill):
    # The dense output's value buffer starts out poisoned: the typed
    # ``Fill`` must reset all of it before the kernel accumulates.
    rng = np.random.default_rng(3)
    m = rng.integers(1, 5, (9, 6)) * (rng.random((9, 6)) < 0.4)
    v = rng.integers(0, 4, 6).astype(float)
    i, j = fl.indices("i", "j")

    def run(backend):
        A = fl.from_numpy(m, ("dense", "sparse"), name="A")
        x = fl.from_numpy(v, ("dense",), name="x")
        y = fl.zeros(9, fill=fill, name="y")
        y.element.val[:] = np.nan
        program = fl.forall(i, fl.forall(j, fl.increment(
            y[i], A[i, j] * x[j])))
        kernel = fl.compile_kernel(program, backend=backend, cache=False)
        kernel.run()
        return y.to_numpy().copy(), kernel

    py_out, _ = run("python")
    c_out, c_kernel = run("c")
    assert c_kernel.effective_backend == "c"
    assert "y_val.fill(%r)" % fill in c_kernel.source
    np.testing.assert_array_equal(c_out, py_out)
    np.testing.assert_array_equal(py_out, fill + m @ v)


def _interpreted(program):
    """The reference interpreter's outputs of ``program``."""
    reference = interpret(program)
    return [np.array(reference.result_for(out), copy=True)
            for out in output_tensors(program)]


def _blended(img_b, img_c):
    """Figure 10's blend in numpy (the interpreter cannot hold a
    run-length output)."""
    blended = 0.4 * img_b.astype(np.float64) + 0.6 * img_c.astype(
        np.float64)
    return [np.clip(np.rint(blended), 0, 255).astype(np.uint8)]


def _outputs(program):
    return [np.array(out.to_numpy() if out.ndim else out.value,
                     copy=True)
            for out in output_tensors(program)]


def _run_c(program):
    codegen.clear_fallback_events()
    kernel = fl.compile_kernel(program, backend="c", cache=False)
    kernel.run()
    return kernel


@needs_cc
class TestCoalesce:
    def test_permit_window_with_coalesce_runs_in_c(self):
        a = np.zeros(12)
        a[[1, 4, 5, 9]] = [3.0, 1.0, 2.0, 5.0]
        A = fl.from_numpy(a, ("sparse",), name="A")
        B = fl.from_numpy(np.arange(1.0, 13.0), ("dense",), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        shifted = fl.coalesce(fl.access(B, fl.permit(fl.offset(i, 3))),
                              0.5)
        program = fl.forall(i, fl.increment(C[()], A[i] * shifted))
        want = _interpreted(program)
        kernel = _run_c(program)
        assert kernel.effective_backend == "c", codegen.fallback_events()
        assert "_coalesce(" in kernel.source   # the C side lowered it
        np.testing.assert_array_equal(_outputs(program), want)

    def test_missing_literal_still_falls_back(self):
        # Under ``ifelse`` the permit's out-of-range region leaves a
        # literal ``missing`` inside the coalesce: no C type exists
        # for it, so the kernel takes the python backend.
        a = np.zeros(12)
        a[[1, 4, 5, 9]] = [3.0, 1.0, 2.0, 5.0]
        A = fl.from_numpy(a, ("sparse",), name="A")
        B = fl.from_numpy(np.arange(12.0), ("dense",), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        picked = fl.call("ifelse", fl.gt(A[i], 0.0),
                         fl.access(B, fl.permit(fl.offset(i, 3))), 1.0)
        program = fl.forall(i, fl.increment(
            C[()], fl.coalesce(picked, 2.0)))
        want = _interpreted(program)
        kernel = _run_c(program)
        assert kernel.effective_backend == "python"
        assert any("missing" in reason
                   for _, reason in codegen.fallback_events())
        np.testing.assert_array_equal(_outputs(program), want)


def _small_programs():
    """``(figure, make_program, reference)``: the warm-start
    structures of the six figures over small inputs (the reference
    interpreter runs each in well under a second)."""
    rng = np.random.default_rng(5)
    a = np.zeros(64)
    a[rng.choice(64, 9, replace=False)] = rng.integers(1, 9, 9)
    b = np.zeros(64)
    b[20:31] = rng.integers(1, 9, 11)
    mat = matrices.harwell_boeing_like_suite(12, seed=2)
    mat = mat[sorted(mat)[0]]
    vec = matrices.sparse_vector(12, density=0.3, seed=2)
    adj = graphs.erdos_renyi_adjacency(10, 0.4, seed=2)
    grid = matrices.random_sparse_matrix(7, 7, 0.3, seed=2)
    filt = np.arange(1.0, 10.0).reshape(3, 3)
    img_b = images.digit_like(6, seed=2)
    img_c = images.digit_like(6, seed=3)
    batch = images.linearized_batch("digit", 3, size=4, seed=2)
    return [
        ("fig1_dot", lambda: _dot(a, b), _interpreted),
        ("fig7_spmspv",
         lambda: bench_kernels.spmspv_program(mat, vec, "walk_walk")[0],
         _interpreted),
        ("fig8_triangles",
         lambda: bench_kernels.triangle_count_program(adj, "gallop")[0],
         _interpreted),
        ("fig9_convolution",
         lambda: bench_kernels.masked_convolution_program(grid, filt)[0],
         _interpreted),
        ("fig10_alpha",
         lambda: bench_kernels.alpha_blend_program(img_b, img_c, 0.4,
                                                   0.6, "rle")[0],
         lambda program: _blended(img_b, img_c)),
        ("fig11_allpairs",
         lambda: bench_kernels.all_pairs_similarity_program(batch,
                                                            "vbl")[0],
         _interpreted),
    ]


def _dot(a, b):
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(b, ("band",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i]))


@needs_cc
@pytest.mark.parametrize("figure,make,reference", _small_programs(),
                         ids=[f for f, _, _ in _small_programs()])
def test_warm_start_structures_run_in_c(figure, make, reference):
    program = make()
    want = reference(program)
    kernel = _run_c(program)
    if figure == "fig10_alpha":
        assert kernel.effective_backend == "python"
        reasons = [reason for _, reason in codegen.fallback_events()]
        assert any("RunBuilder" in reason for reason in reasons), reasons
    else:
        assert kernel.effective_backend == "c", (
            figure, codegen.fallback_events()[-1:])
    for got, expected in zip(_outputs(program), want):
        np.testing.assert_array_equal(got, expected)


@needs_cc
def test_first_quick_fuzz_cases_all_run_in_c():
    fallen = []
    for step in range(50):
        spec = generate_spec(case_seed(0, step), "quick")
        case = build_case(spec)
        codegen.clear_fallback_events()
        kernel = fl.compile_kernel(case.program, instrument=True,
                                   backend="c", cache=False)
        if kernel.effective_backend != "c":
            fallen.append((step, codegen.fallback_events()[-1:]))
    assert not fallen
