"""Independent reference outputs for every figure the benchmark runs.

Two kinds of reference, neither of them the compiler:

* ``interpret`` runs :mod:`repro.baselines.reference`, the naive CIN
  interpreter the fuzz oracles trust.  It is used where it finishes in
  set-up time (the small dispatch inputs, fig1) and compared
  bit-for-bit.
* The numpy functions recompute each figure directly.  Sums run in
  the kernels' own coordinate order through ``np.cumsum`` (which
  accumulates left to right), so they too are compared bit-for-bit,
  except where noted on :data:`TOLERANCE`.

Expected outputs are computed during set-up; the workloads compare
after each request's timing closes.
"""

import numpy as np

from repro.baselines.reference import interpret
from repro.bench import figures

#: ``(rtol, atol)`` per (figure, variant) whose kernel legitimately
#: reassociates a floating-point sum: the optimizer turns the dense
#: dot into one ``np.dot`` call, which adds pairwise.  Everything else
#: is compared exactly (fig11's dense reductions vectorize too, but
#: its image data are integers, so every order sums exactly).
TOLERANCE = {
    ("fig1_dot", "dense"): (1e-12, 0.0),
}


class Expect:
    """One expected output and how closely a result must match it."""

    __slots__ = ("value", "rtol", "atol")

    def __init__(self, value, tolerance=None):
        self.value = np.asarray(value)
        self.rtol, self.atol = tolerance or (0.0, 0.0)

    def matches(self, got):
        got = np.asarray(got)
        if got.shape != self.value.shape:
            return False
        if self.rtol == 0.0 and self.atol == 0.0:
            return bool(np.array_equal(got, self.value))
        return bool(np.allclose(got, self.value, rtol=self.rtol,
                                atol=self.atol))

    def corrupted(self):
        """A copy that no correct output can match (smoke tests)."""
        bad = np.array(self.value, dtype=np.float64, copy=True)
        bad.flat[0] = bad.flat[0] + 1.0 + abs(bad.flat[0])
        copy = Expect(bad.astype(self.value.dtype, copy=False))
        copy.rtol, copy.atol = self.rtol, self.atol
        return copy


def expect(figure, variant, value):
    return Expect(value, TOLERANCE.get((figure, variant)))


def interpreted(program, out):
    """The interpreter's value of output tensor ``out``."""
    return np.asarray(interpret(program).result_for(out)).copy()


def _sequential_sum(products, axis=-1):
    """Left-to-right sums along ``axis`` (the kernels' order)."""
    if products.shape[axis] == 0:
        return np.zeros(np.delete(products.shape, axis))
    return np.take(np.cumsum(products, axis=axis), -1, axis=axis)


def dot(a, b):
    return _sequential_sum(a * b)


def spmspv(mat, vec):
    return _sequential_sum(mat * vec[None, :], axis=1)


def triangles(adj):
    """``trace(A^3)``: six times the triangle count, which is what
    the kernel sums over ordered (i, j, k)."""
    return float(np.trace(adj @ adj @ adj))


def masked_convolution(grid, filt):
    n, m = grid.shape
    kh, kw = filt.shape
    ch, cw = kh // 2, kw // 2
    padded = np.zeros((n + kh, m + kw))
    padded[ch:ch + n, cw:cw + m] = grid
    acc = np.zeros((n, m))
    for j in range(kh):
        for l in range(kw):
            window = padded[j:j + n, l:l + m]
            acc = acc + window * filt[j, l]
    return np.where(grid != 0.0, acc, 0.0)


def alpha_blend(img_b, img_c):
    blended = figures.FIG10_ALPHA * img_b.astype(np.float64) \
        + figures.FIG10_BETA * img_c.astype(np.float64)
    return np.clip(np.rint(blended), 0, 255).astype(np.uint8)


def all_pairs(images):
    data = images.astype(np.float64)
    norms = _sequential_sum(data * data, axis=1)
    inner = _sequential_sum(data[:, None, :] * data[None, :, :], axis=2)
    return np.sqrt(np.maximum(norms[:, None] + norms[None, :]
                              - 2.0 * inner, 0.0))
