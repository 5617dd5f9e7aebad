"""End-to-end tests for the C kernel backend.

The contract under test (docs/backends.md): a kernel compiled with
``backend="c"`` is *bit-identical* to the same kernel on the python
backend — over every level format and every access protocol the
format accepts — and when no C toolchain is available the compile
degrades to the python backend loudly (one ledger entry per fallback)
but gracefully (results stay correct).

Data is integer-valued throughout, so every comparison is exact
``==``; there is no tolerance for a divergence to hide behind.
"""

import numpy as np
import pytest

import repro.lang as fl
from repro import codegen
from repro.codegen import toolchain
from repro.fuzz.gen import FORMATS_INNER, PROTOCOLS_BY_FORMAT

needs_cc = pytest.mark.skipif(
    not codegen.have_toolchain(), reason="no C compiler on PATH")

#: Annotation builders keyed by protocol name (None = bare access).
_PROTO = {
    None: lambda i: i,
    "walk": fl.walk,
    "gallop": fl.gallop,
    "locate": fl.locate,
    "follow": fl.follow,
}

MATRIX = [(fmt, proto)
          for fmt in FORMATS_INNER
          for proto in PROTOCOLS_BY_FORMAT[fmt]]


def _vector_data(rng):
    """An integer-valued vector with runs, gaps, and a dense band."""
    a = np.zeros(64)
    a[5:15] = rng.integers(1, 9, 10)       # a dense band
    a[20:24] = 3.0                         # an actual run (rle/packbits)
    idx = rng.choice(np.arange(30, 60), 6, replace=False)
    a[idx] = rng.integers(1, 9, 6)         # scattered singletons
    return a


def _dot(fmt, proto, backend, a, b):
    """Compile the fmt/proto dot product on ``backend``; run it.

    ``opt_level=1`` (the full scalar pipeline, no vectorizer) keeps
    the python side scalar too; at ``opt_level=2`` C still emits from
    the scalar tree (see :class:`TestUnsupportedConstructFallback`).
    """
    A = fl.from_numpy(a, (fmt,), name="A")
    B = fl.from_numpy(b, ("sparse",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    prog = fl.forall(i, fl.increment(
        C[()], fl.access(A, _PROTO[proto](i)) * fl.access(B, fl.walk(i))))
    kernel = fl.compile_kernel(prog, backend=backend, opt_level=1)
    kernel.run()
    return float(C.value), kernel


@needs_cc
class TestDifferentialMatrix:
    """Every format x protocol: python vs C, exact equality."""

    @pytest.mark.parametrize(
        "fmt,proto", MATRIX,
        ids=["%s-%s" % (f, p or "plain") for f, p in MATRIX])
    def test_dot_bit_identical(self, fmt, proto):
        rng = np.random.default_rng(sum(map(ord, fmt + (proto or ""))))
        a = _vector_data(rng)
        b = np.zeros(64)
        b[rng.choice(64, 9, replace=False)] = rng.integers(1, 9, 9)
        py_val, py_kernel = _dot(fmt, proto, "python", a, b)
        c_val, c_kernel = _dot(fmt, proto, "c", a, b)
        assert py_kernel.effective_backend == "python"
        assert c_kernel.effective_backend == "c", (
            "C emitter fell back on %s/%s: %r"
            % (fmt, proto, codegen.fallback_events()[-3:]))
        assert c_val == py_val          # bit-identity, no tolerance
        assert py_val == float(np.sum(np.rint(a * b)))

    def test_reduce_2d_bit_identical(self):
        rng = np.random.default_rng(11)
        m = np.zeros((12, 16))
        m[rng.random((12, 16)) < 0.3] = 1.0
        m *= rng.integers(1, 7, (12, 16))
        v = np.zeros(16)
        v[rng.choice(16, 5, replace=False)] = rng.integers(1, 7, 5)
        i, j = fl.indices("i", "j")

        def run(backend):
            A = fl.from_numpy(m, ("dense", "sparse"), name="A")
            x = fl.from_numpy(v, ("sparse",), name="x")
            C = fl.Scalar(name="C")
            prog = fl.forall(i, fl.forall(j, fl.increment(
                C[()], fl.access(A, i, fl.gallop(j)) *
                fl.access(x, fl.gallop(j)))))
            kernel = fl.compile_kernel(prog, backend=backend,
                                       opt_level=1)
            kernel.run()
            return float(C.value), kernel

        py_val, _ = run("python")
        c_val, c_kernel = run("c")
        assert c_kernel.effective_backend == "c"
        assert c_val == py_val == float(np.sum(m @ v))

    def test_spmv_dense_output_falls_back_bit_identical(self):
        # Tensor-output kernels reset their value buffer with a typed
        # ``Fill`` whose length the format signature fixes, so they
        # run in C (the name records the fallback this once was) and
        # must be bit-identical.
        rng = np.random.default_rng(12)
        m = np.zeros((8, 10))
        m[rng.random((8, 10)) < 0.4] = 2.0
        v = rng.integers(0, 5, 10).astype(float)
        i, j = fl.indices("i", "j")

        def run(backend):
            A = fl.from_numpy(m, ("dense", "sparse"), name="A")
            x = fl.from_numpy(v, ("dense",), name="x")
            y = fl.from_numpy(np.zeros(8), ("dense",), name="y")
            prog = fl.forall(i, fl.forall(j, fl.increment(
                y[i], fl.access(A, i, fl.gallop(j)) *
                fl.access(x, fl.locate(j)))))
            kernel = fl.compile_kernel(prog, backend=backend,
                                       opt_level=1)
            kernel.run()
            return y.to_numpy().copy(), kernel

        py_out, _ = run("python")
        c_out, c_kernel = run("c")
        assert c_kernel.backend == "c"
        assert c_kernel.effective_backend == "c"
        np.testing.assert_array_equal(c_out, py_out)
        np.testing.assert_array_equal(py_out, m @ v)


@needs_cc
class TestBackendPlumbing:
    def test_backends_occupy_distinct_cache_slots(self):
        a = np.zeros(32)
        a[::3] = 2.0

        def compile_one(backend):
            A = fl.from_numpy(a, ("sparse",), name="A")
            C = fl.Scalar(name="C")
            i = fl.indices("i")
            return fl.compile_kernel(
                fl.forall(i, fl.increment(C[()], fl.access(A, i))),
                backend=backend)

        k_py = compile_one("python")
        k_c = compile_one("c")
        assert k_py.backend == "python" and k_c.backend == "c"
        assert k_c.artifact is not k_py.artifact
        # Same backend again is a cache hit: the artifact is shared.
        assert compile_one("c").artifact is k_c.artifact

    def test_spec_round_trip_recompiles_c(self):
        from repro.compiler.kernel import CompiledKernel

        a = np.zeros(32)
        a[4:9] = 3.0
        A = fl.from_numpy(a, ("sparse",), name="A")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        kernel = fl.compile_kernel(
            fl.forall(i, fl.increment(C[()], fl.access(A, i))),
            backend="c", cache=False)
        assert kernel.effective_backend == "c"
        spec = kernel.to_spec()
        assert spec["backend"] == "c"
        assert "int64_t" in spec["c_source"]      # C source travels
        assert "so_path" not in spec              # the .so never does
        rebuilt = CompiledKernel.from_spec(spec)
        assert rebuilt.so_path is not None        # recompiled on load
        assert rebuilt.backend == "c"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("FL_KERNEL_BACKEND", "c")
        a = np.zeros(16)
        a[3:7] = 4.0
        A = fl.from_numpy(a, ("band",), name="A")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        kernel = fl.compile_kernel(
            fl.forall(i, fl.increment(C[()], fl.access(A, i))),
            opt_level=1, cache=False)
        assert kernel.backend == "c"
        assert kernel.effective_backend == "c"
        kernel.run()
        assert float(C.value) == 16.0

    def test_store_keeps_so_sidecar(self, tmp_path):
        from repro.store import reset_store_config

        fl.configure_store(str(tmp_path))
        try:
            a = np.zeros(24)
            a[2:12] = 5.0
            A = fl.from_numpy(a, ("vbl",), name="A")
            C = fl.Scalar(name="C")
            i = fl.indices("i")
            prog = fl.forall(i, fl.increment(C[()], fl.access(A, i)))
            kernel = fl.compile_kernel(prog, backend="c",
                                       opt_level=1, cache="disk")
            assert kernel.effective_backend == "c"
            sidecars = list(tmp_path.rglob("*.so"))
            assert len(sidecars) == 1
            # A warm start loads the sidecar: no recompile, same dir.
            warm = fl.compile_kernel(prog, backend="c",
                                     opt_level=1, cache="disk")
            assert warm.effective_backend == "c"
            assert warm.so_path == str(sidecars[0])
        finally:
            reset_store_config()


class TestNoCompilerFallback:
    """backend="c" with no toolchain: loud, graceful, correct."""

    @pytest.fixture
    def broken_toolchain(self, monkeypatch):
        monkeypatch.setenv("FL_CC", "/nonexistent/definitely-not-a-cc")
        toolchain.reset()
        codegen.clear_fallback_events()
        yield
        monkeypatch.undo()
        toolchain.reset()

    def test_falls_back_loudly_and_correctly(self, broken_toolchain):
        assert not codegen.have_toolchain()
        a = np.zeros(40)
        a[7:19] = 2.0
        A = fl.from_numpy(a, ("sparse",), name="A")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        kernel = fl.compile_kernel(
            fl.forall(i, fl.increment(C[()], fl.access(A, i))),
            backend="c", cache=False)
        assert kernel.backend == "c"                 # the request
        assert kernel.effective_backend == "python"  # the reality
        assert kernel.so_path is None
        kernel.run()
        assert float(C.value) == 24.0                # still correct
        events = codegen.fallback_events()
        assert events, "fallback must be recorded in the ledger"
        name, reason = events[-1]
        assert "no C compiler" in reason

    def test_fallback_warns_once_per_reason(self, broken_toolchain, caplog):
        import logging

        a = np.zeros(16)
        a[1:5] = 1.0
        i = fl.indices("i")
        with caplog.at_level(logging.WARNING, logger="repro.codegen"):
            for _ in range(3):
                A = fl.from_numpy(a, ("sparse",), name="A")
                C = fl.Scalar(name="C")
                fl.compile_kernel(
                    fl.forall(i, fl.increment(C[()], fl.access(A, i))),
                    backend="c", cache=False)
        warnings = [r for r in caplog.records
                    if "C backend unavailable" in r.getMessage()]
        assert len(warnings) == 1                    # warn-once


@needs_cc
class TestUnsupportedConstructFallback:
    """Where C cannot stand in, the kernel falls back; where it once
    fell back and no longer needs to, the old test name stays and
    asserts the C run."""

    def test_run_builder_output_falls_back_bit_identical(self):
        # A run-length output appends through a ``RunBuilder`` object,
        # which no C buffer can stand for: the kernel must degrade to
        # python, say why, and stay bit-identical.
        from repro.bench.kernels import alpha_blend_program
        from repro.workloads import images

        img_b = images.digit_like(8, seed=4)
        img_c = images.digit_like(8, seed=5)

        def run(backend):
            program, out = alpha_blend_program(img_b, img_c, 0.4, 0.6,
                                               "rle")
            codegen.clear_fallback_events()
            kernel = fl.compile_kernel(program, backend=backend,
                                       cache=False)
            kernel.run()
            return out.to_numpy().copy(), kernel

        py_out, _ = run("python")
        c_out, c_kernel = run("c")
        assert c_kernel.backend == "c"
        assert c_kernel.effective_backend == "python"
        _, reason = codegen.fallback_events()[-1]
        assert "RunBuilder" in reason
        np.testing.assert_array_equal(c_out, py_out)
        blended = 0.4 * img_b.astype(float) + 0.6 * img_c.astype(float)
        np.testing.assert_array_equal(
            c_out, np.clip(np.rint(blended), 0, 255).astype(np.uint8))

    def test_vectorized_kernel_falls_back(self):
        codegen.clear_fallback_events()
        a = np.arange(1.0, 65.0)
        b = np.ones(64)

        def compile_dense(backend):
            A = fl.from_numpy(a, ("dense",), name="A")
            B = fl.from_numpy(b, ("dense",), name="B")
            C = fl.Scalar(name="C")
            i = fl.indices("i")
            prog = fl.forall(i, fl.increment(
                C[()], fl.access(A, i) * fl.access(B, i)))
            kernel = fl.compile_kernel(
                prog, backend=backend, opt_level=2, cache=False)
            kernel.run()
            return float(C.value), kernel

        py_val, py_kernel = compile_dense("python")
        c_val, c_kernel = compile_dense("c")
        assert c_kernel.backend == "c"
        # Vectorization is a python-target pass: the python kernel
        # calls numpy, the C kernel is emitted from the scalar tree
        # (the name records the fallback this once was).
        assert "_np." in py_kernel.source
        assert c_kernel.effective_backend == "c"
        assert "_np" not in c_kernel.c_source
        assert c_val == py_val == float(a @ b)
        assert not codegen.fallback_events()
