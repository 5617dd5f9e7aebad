"""The warm memory-tier hit: one walk of the program, no repeated
per-tensor work, and every binding check still in force on a hit."""

import numpy as np
import pytest

import repro.lang as fl
from repro.cin import analyze
from repro.compiler import kernel as kernel_module
from repro.tensors.tensor import Tensor
from repro.util.errors import BindingError


@pytest.fixture(autouse=True)
def fresh_cache():
    fl.kernel_cache().clear()
    yield
    fl.kernel_cache().clear()


def spmv_program(seed, n=6):
    rng = np.random.default_rng(seed)
    mat = rng.random((n, n))
    mat[mat < 0.5] = 0.0
    A = fl.from_numpy(mat, ("dense", "sparse"), name="A")
    x = fl.from_numpy(rng.random(n), ("dense",), name="x")
    y = fl.from_numpy(np.zeros(n), ("dense",), name="y")
    i, j = fl.indices("i", "j")
    program = fl.forall(i, fl.forall(j, fl.increment(y[i], A[i, j] * x[j])))
    return program, (A, x, y), mat @ x.to_numpy()


def dense_dot_program(a, b):
    A = fl.from_numpy(a, ("dense",), name="A")
    B = fl.from_numpy(b, ("dense",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i])), (A, B, C)


class TestOnePassHit:
    def test_hit_computes_each_fact_once(self, monkeypatch):
        """A warm ``fl.execute`` takes each tensor's signature and
        buffers exactly once and never re-walks the program for its
        tensors or outputs."""
        program, _, _ = spmv_program(0)
        fl.execute(program)  # cold: compile and cache
        program, tensors, expected = spmv_program(1)

        signatures, buffers, walks = {}, {}, []
        format_signature = Tensor.format_signature
        kernel_buffers = Tensor.kernel_buffers

        def counted_signature(self):
            signatures[id(self)] = signatures.get(id(self), 0) + 1
            return format_signature(self)

        def counted_buffers(self):
            buffers[id(self)] = buffers.get(id(self), 0) + 1
            return kernel_buffers(self)

        def counted_walk(name, walk):
            def wrapper(stmt):
                walks.append(name)
                return walk(stmt)
            return wrapper

        monkeypatch.setattr(Tensor, "format_signature", counted_signature)
        monkeypatch.setattr(Tensor, "kernel_buffers", counted_buffers)
        for name in ("program_tensors", "output_tensors"):
            wrapper = counted_walk(name, getattr(analyze, name))
            for module in (analyze, kernel_module):
                monkeypatch.setattr(module, name, wrapper)

        hits = fl.kernel_cache().stats()["hits"]
        fl.execute(program)
        assert fl.kernel_cache().stats()["hits"] == hits + 1
        ids = {id(tensor) for tensor in tensors}
        assert signatures == dict.fromkeys(ids, 1)
        assert buffers == dict.fromkeys(ids, 1)
        assert walks == []
        np.testing.assert_allclose(tensors[2].to_numpy(), expected)

    def test_keyed_binding_matches_program_tensors(self):
        program, _, _ = spmv_program(0)
        keyed = analyze.structural_key(program, binding=True)
        tensors = analyze.program_tensors(program)
        assert keyed.key == analyze.structural_key(program)
        assert [id(t) for t in keyed.tensors] == [id(t) for t in tensors]
        assert keyed.signatures == tuple(
            analyze.tensor_signature(t) for t in tensors)
        assert keyed.roles == [t.kernel_buffers() for t in tensors]


class TestHitPathRejection:
    """Every BindingError of a fresh kernel also fires on a cache hit."""

    def hit(self, a, b):
        fl.compile_kernel(dense_dot_program(a, b)[0])
        program, tensors = dense_dot_program(a, b)
        kernel = fl.compile_kernel(program)
        assert kernel.from_cache
        return kernel, tensors

    def test_dtype_and_shape_mismatch_on_rebind(self):
        kernel, _ = self.hit(np.ones(5), np.ones(5))
        with pytest.raises(BindingError, match="format signature"):
            kernel.rebind(A=fl.from_numpy(np.ones(5, dtype=np.int64),
                                          ("dense",), name="A"))
        with pytest.raises(BindingError, match="format signature"):
            kernel.rebind(A=fl.from_numpy(np.ones(6), ("dense",),
                                          name="A"))

    def test_one_array_in_two_slots_on_a_hit(self):
        kernel, (_, _, C) = self.hit(np.ones(5), np.ones(5))
        shared = fl.from_numpy(np.ones(5), ("dense",), name="T")
        with pytest.raises(BindingError, match="bind one array"):
            kernel.rebind([C, shared, shared])

    def test_broken_alias_group_on_a_hit(self):
        data = np.arange(5.0)

        def shared_program():
            A = fl.from_numpy(data, ("dense",), name="A")
            B = Tensor(A.levels, A.element, name="B")  # same storage
            C = fl.Scalar(name="C")
            i = fl.indices("i")
            return fl.forall(i, fl.increment(C[()], A[i] * B[i])), C

        program, _ = shared_program()
        fl.compile_kernel(program)
        program, C = shared_program()
        kernel = fl.compile_kernel(program)
        assert kernel.from_cache
        A2 = fl.from_numpy(data, ("dense",), name="A")
        B2 = fl.from_numpy(data, ("dense",), name="B")
        with pytest.raises(BindingError, match="shared one array"):
            kernel.rebind([C, A2, B2])
        kernel.run()
        assert C.value == pytest.approx(float(data @ data))


class TestPassOnlyTensors:
    """``pass_`` tensors take key slots but no binding slot."""

    @staticmethod
    def program(seed, pass_input):
        rng = np.random.default_rng(seed)
        x = fl.from_numpy(rng.random(6), ("dense",), name="x")
        y = fl.from_numpy(np.zeros(6), ("dense",), name="y")
        w = fl.from_numpy(np.zeros(6), ("dense",), name="w")
        i = fl.indices("i")
        body = fl.forall(i, fl.store(y[i], x[i] * 2.0))
        # Passing x names an accessed tensor before its first access,
        # so key-slot order and binding order differ.
        named = x if pass_input else w
        return fl.multi(fl.pass_(named), body), x, y

    @pytest.mark.parametrize("pass_input", [False, True])
    def test_compile_hit_rebind_match_fresh(self, pass_input):
        program, x, y = self.program(0, pass_input)
        cold = fl.compile_kernel(program)
        assert [t.name for t in cold.tensors] == ["y", "x"]
        cold.run()
        np.testing.assert_allclose(y.to_numpy(), 2.0 * x.to_numpy())

        program, x2, y2 = self.program(1, pass_input)
        hit = fl.compile_kernel(program)
        assert hit.from_cache
        assert hit.output_slots == (0,)
        hit.run()
        fresh, fx, fy = self.program(1, pass_input)
        fl.compile_kernel(fresh, cache=False).run()
        np.testing.assert_array_equal(y2.to_numpy(), fy.to_numpy())

        _, x3, y3 = self.program(2, pass_input)
        hit.rebind(x=x3, y=y3).run()
        np.testing.assert_allclose(y3.to_numpy(), 2.0 * x3.to_numpy())
        assert hit.outputs == [y3]
