"""Dense reference kernels (the "OpenCV" stand-ins).

Two flavors per kernel:

* ``*_numpy`` — vectorized numpy, used as a correctness oracle.
* ``*_loops`` — plain Python loops over dense arrays, the dense
  baseline measured by the benchmarks.  These share the compiled
  kernels' execution model (see DESIGN.md: comparing emitted Python to
  emitted Python keeps relative factors meaningful).
"""

import numpy as np


def convolve2d_numpy(grid, kernel):
    """Zero-padded, centered 2D convolution oracle (paper Figure 9)."""
    grid = np.asarray(grid, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    out = np.zeros_like(grid)
    kh, kw = kernel.shape
    ch, cw = kh // 2, kw // 2
    n, m = grid.shape
    for dj in range(kh):
        for dl in range(kw):
            src_i0 = max(0, ch - dj)
            src_i1 = min(n, n + ch - dj)
            dst_i0 = max(0, dj - ch)
            dst_i1 = dst_i0 + (src_i1 - src_i0)
            src_k0 = max(0, cw - dl)
            src_k1 = min(m, m + cw - dl)
            dst_k0 = max(0, dl - cw)
            dst_k1 = dst_k0 + (src_k1 - src_k0)
            out[src_i0:src_i1, src_k0:src_k1] += (
                kernel[dj, dl] * grid[dst_i0:dst_i1, dst_k0:dst_k1])
    return out


def masked_convolve2d_numpy(grid, kernel):
    """Convolution evaluated only at nonzero grid points (the paper's
    masked kernel: ``C[i,k] += (A[i,k] != 0) * ...``)."""
    return np.where(np.asarray(grid) != 0.0,
                    convolve2d_numpy(grid, kernel), 0.0)


def alpha_blend_numpy(img_b, img_c, alpha, beta):
    mixed = alpha * img_b.astype(float) + beta * img_c.astype(float)
    return np.clip(np.round(mixed), 0, 255).astype(np.uint8)


def all_pairs_numpy(images):
    """Pairwise Euclidean distances between image rows."""
    images = np.asarray(images, dtype=float)
    norms = (images ** 2).sum(axis=1)
    gram = images @ images.T
    sq = np.maximum(norms[:, None] + norms[None, :] - 2 * gram, 0.0)
    return np.sqrt(sq)


def spmv_loops(mat, vec):
    n, m = mat.shape
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(m):
            acc += mat[i, j] * vec[j]
        out[i] = acc
    return out


def convolve2d_loops(grid, kernel):
    n, m = grid.shape
    kh, kw = kernel.shape
    ch, cw = kh // 2, kw // 2
    out = np.zeros_like(grid, dtype=float)
    for i in range(n):
        for k in range(m):
            acc = 0.0
            for dj in range(kh):
                src_i = i + dj - ch
                if src_i < 0 or src_i >= n:
                    continue
                for dl in range(kw):
                    src_k = k + dl - cw
                    if 0 <= src_k < m:
                        acc += grid[src_i, src_k] * kernel[dj, dl]
            out[i, k] = acc
    return out


def alpha_blend_loops(img_b, img_c, alpha, beta):
    n, m = img_b.shape
    out = np.zeros((n, m), dtype=np.uint8)
    for i in range(n):
        for j in range(m):
            mixed = alpha * float(img_b[i, j]) + beta * float(img_c[i, j])
            out[i, j] = max(0, min(255, int(round(mixed))))
    return out


def all_pairs_loops(images):
    import math

    count, pixels = images.shape
    norms = [0.0] * count
    for k in range(count):
        acc = 0.0
        for p in range(pixels):
            acc += float(images[k, p]) ** 2
        norms[k] = acc
    out = np.zeros((count, count))
    for k in range(count):
        for l in range(count):
            acc = 0.0
            for p in range(pixels):
                acc += float(images[k, p]) * float(images[l, p])
            out[k, l] = math.sqrt(max(norms[k] + norms[l] - 2 * acc, 0.0))
    return out
