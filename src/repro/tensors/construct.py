"""Build tensors from numpy arrays, one level format per mode.

``from_numpy(arr, ("dense", "sparse"))`` scans the array and assembles
the per-level position/coordinate arrays.  Leaf-only formats (rle,
packbits) compress scalar values and therefore must be the innermost
mode.

The builders work generically over nesting: each builder consumes the
list of fiber slices produced by the level above (in position order)
and emits the slices its own stored children correspond to.
"""

import numpy as np

from repro.formats.bitmap import BitmapLevel
from repro.formats.dense import DenseLevel
from repro.formats.element import ElementLevel
from repro.formats.packbits import PackBitsLevel
from repro.formats.ragged import RaggedLevel
from repro.formats.rle import RunLengthLevel
from repro.formats.sparse_band import SparseBandLevel
from repro.formats.sparse_list import SparseListLevel
from repro.formats.vbl import SparseVBLLevel
from repro.formats.virtual import SymmetricLevel, TriangularLevel
from repro.tensors.tensor import Scalar, Tensor
from repro.util.errors import FormatError

#: minimum run length worth a PackBits run group (as in TIFF encoders).
_PACKBITS_MIN_RUN = 3


def _is_fill(slice_, fill):
    return bool(np.all(slice_ == fill))


def _build_dense(slices, dim, fill):
    children = [s[j] for s in slices for j in range(dim)]
    return {}, children


def _build_sparse(slices, dim, fill):
    pos = [0]
    idx = []
    children = []
    for s in slices:
        for j in range(dim):
            if not _is_fill(s[j], fill):
                idx.append(j)
                children.append(s[j])
        pos.append(len(idx))
    return {"pos": pos, "idx": idx}, children


def _build_band(slices, dim, fill):
    pos = [0]
    lo = []
    children = []
    for s in slices:
        stored = [j for j in range(dim) if not _is_fill(s[j], fill)]
        if stored:
            first, last = stored[0], stored[-1]
            lo.append(first)
            children.extend(s[j] for j in range(first, last + 1))
        else:
            lo.append(0)
        pos.append(len(children))
    return {"pos": pos, "lo": lo}, children


def _stored(fiber, fill):
    """Per coordinate of ``fiber``: does its slice hold a non-fill value?

    One vectorized comparison per fiber (``~(s == fill)``, reduced over
    the trailing modes), so NaN fills store everything and ``-0.0``
    counts as a ``0.0`` fill, exactly like :func:`_is_fill`.
    """
    is_fill = np.asarray(fiber == fill)
    if is_fill.ndim > 1:
        is_fill = is_fill.all(axis=tuple(range(1, is_fill.ndim)))
    return ~is_fill


def _build_vbl(slices, dim, fill):
    pos = [0]
    end = []
    ofs = [0]
    children = []
    for s in slices:
        stored = _stored(s, fill).astype(np.int8)
        # Blocks are the maximal runs of stored coordinates: a block
        # starts where the mask rises and ends where it falls.
        edges = np.diff(stored, prepend=0, append=0)
        starts = np.flatnonzero(edges == 1)
        stops = np.flatnonzero(edges == -1)
        for start, stop in zip(starts.tolist(), stops.tolist()):
            end.append(stop)
            children.extend(s[start:stop])
            ofs.append(len(children))
        pos.append(len(end))
    return {"pos": pos, "end": end, "ofs": ofs}, children


def _build_rle(slices, dim, fill):
    pos = [0]
    right = []
    children = []
    for s in slices:
        if s.ndim != 1:
            raise FormatError("rle must be the innermost mode")
        j = 0
        while j < dim:
            start = j
            while j < dim and s[j] == s[start]:
                j += 1
            right.append(j)
            children.append(s[start])
        pos.append(len(right))
    return {"pos": pos, "right": right}, children


def _build_packbits(slices, dim, fill):
    pos = [0]
    idx = []
    vof = [0]
    children = []
    for s in slices:
        if s.ndim != 1:
            raise FormatError("packbits must be the innermost mode")
        for start, stop, is_run in _packbits_groups(s, dim):
            idx.append(stop if is_run else -stop)
            if is_run:
                children.append(s[start])
            else:
                children.extend(s[j] for j in range(start, stop))
            vof.append(len(children))
        pos.append(len(idx))
    # The running end-of-values is exactly the start of the next group,
    # so the accumulated list is vof (with its sentinel) already.
    return {"pos": pos, "idx": idx, "vof": vof}, children


def _packbits_groups(s, dim):
    """Split one row into (start, stop, is_run) groups."""
    groups = []
    j = 0
    literal_start = None
    while j < dim:
        run_end = j
        while run_end < dim and s[run_end] == s[j]:
            run_end += 1
        if run_end - j >= _PACKBITS_MIN_RUN:
            if literal_start is not None:
                groups.append((literal_start, j, False))
                literal_start = None
            groups.append((j, run_end, True))
        elif literal_start is None:
            literal_start = j
        j = run_end
    if literal_start is not None:
        groups.append((literal_start, dim, False))
    return groups


def _build_bitmap(slices, dim, fill):
    tbl = []
    children = []
    for s in slices:
        for j in range(dim):
            tbl.append(not _is_fill(s[j], fill))
            children.append(s[j])
    return {"tbl": tbl}, children


def _build_ragged(slices, dim, fill):
    pos = [0]
    children = []
    for s in slices:
        width = dim
        while width > 0 and _is_fill(s[width - 1], fill):
            width -= 1
        children.extend(s[j] for j in range(width))
        pos.append(len(children))
    return {"pos": pos}, children


_BUILDERS = {
    "dense": _build_dense,
    "sparse": _build_sparse,
    "sparse_list": _build_sparse,
    "band": _build_band,
    "vbl": _build_vbl,
    "rle": _build_rle,
    "packbits": _build_packbits,
    "bitmap": _build_bitmap,
    "ragged": _build_ragged,
}


def _make_level(fmt, dim, child, spec):
    if fmt == "dense":
        return DenseLevel(dim, child)
    if fmt in ("sparse", "sparse_list"):
        return SparseListLevel(dim, child, spec["pos"], spec["idx"])
    if fmt == "band":
        return SparseBandLevel(dim, child, spec["pos"], spec["lo"])
    if fmt == "vbl":
        return SparseVBLLevel(dim, child, spec["pos"], spec["end"],
                              spec["ofs"])
    if fmt == "rle":
        return RunLengthLevel(dim, child, spec["pos"], spec["right"])
    if fmt == "packbits":
        return PackBitsLevel(dim, child, spec["pos"], spec["idx"],
                             spec["vof"])
    if fmt == "bitmap":
        return BitmapLevel(dim, child, spec["tbl"])
    if fmt == "ragged":
        return RaggedLevel(dim, child, spec["pos"])
    raise FormatError("unknown format %r" % (fmt,))


def from_numpy(arr, formats=None, fill=0.0, name=None):
    """Convert a numpy array into a fiber-tree tensor.

    ``formats`` is one name per mode (default: all dense); see
    ``repro.tensors.construct._BUILDERS`` for the available names.
    """
    arr = np.asarray(arr)
    if arr.ndim == 0:
        scalar = Scalar(0.0, name=name, dtype=arr.dtype)
        scalar.element.val[0] = arr[()]
        return scalar
    if formats is None:
        formats = ("dense",) * arr.ndim
    if isinstance(formats, str):
        formats = (formats,) * arr.ndim
    if len(formats) != arr.ndim:
        raise FormatError("need one format per mode")

    slices = [arr]
    specs = []
    for mode, fmt in enumerate(formats):
        if fmt not in _BUILDERS:
            raise FormatError("unknown format %r" % (fmt,))
        spec, slices = _BUILDERS[fmt](slices, arr.shape[mode], fill)
        specs.append((fmt, arr.shape[mode], spec))

    values = np.array([np.asarray(s)[()] for s in slices], dtype=arr.dtype)
    if len(values) == 0:
        values = np.zeros(0, dtype=arr.dtype)
    element = ElementLevel(values, fill_value=fill)

    child = element
    levels = []
    for fmt, dim, spec in reversed(specs):
        child = _make_level(fmt, dim, child, spec)
        levels.append(child)
    levels.reverse()
    return Tensor(levels, element, name=name)


def triangular_from_numpy(arr, fill=0.0, name=None):
    """Pack the lower triangle of a square array (Figure 3a)."""
    arr = np.asarray(arr)
    n = arr.shape[0]
    if arr.shape != (n, n):
        raise FormatError("triangular storage needs a square matrix")
    packed = np.concatenate([arr[i, :i + 1] for i in range(n)]) if n else (
        np.zeros(0, dtype=arr.dtype))
    element = ElementLevel(packed, fill_value=fill)
    inner = TriangularLevel(n, element)
    outer = DenseLevel(n, inner)
    return Tensor([outer, inner], element, name=name)


def symmetric_from_numpy(arr, fill=0.0, name=None):
    """Store a symmetric matrix as its packed lower triangle (Fig. 3c)."""
    arr = np.asarray(arr)
    n = arr.shape[0]
    if arr.shape != (n, n) or not np.allclose(arr, arr.T):
        raise FormatError("symmetric storage needs a symmetric matrix")
    packed = np.concatenate([arr[i, :i + 1] for i in range(n)]) if n else (
        np.zeros(0, dtype=arr.dtype))
    element = ElementLevel(packed, fill_value=fill)
    inner = SymmetricLevel(n, element)
    outer = DenseLevel(n, inner)
    return Tensor([outer, inner], element, name=name)


def zeros(shape, fill=0.0, dtype=np.float64, name=None):
    """A dense output tensor initialized to ``fill``."""
    if isinstance(shape, int):
        shape = (shape,)
    return from_numpy(np.full(shape, fill, dtype=dtype), name=name,
                      fill=fill)
