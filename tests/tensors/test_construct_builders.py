"""``from_numpy``'s vectorized VBL builder matches the per-element one.

The VBL builder finds its blocks from one ``~(s == fill)`` mask per
fiber: a block starts where the mask rises and ends where it falls.
The reference below is the per-element builder it replaced (one
``np.all(s[j] == fill)`` per coordinate); both must produce the same
level arrays and element values for every fill, including NaN (never
equal, so everything is stored) and ``-0.0`` (equal to a ``0.0``
fill), over 1-, 2- and 3-D fibers.
"""

import numpy as np
import pytest

import repro.lang as fl
from repro.tensors import construct


def _is_fill(slice_, fill):
    return bool(np.all(slice_ == fill))


def _ref_vbl(slices, dim, fill):
    pos, end, ofs, children = [0], [], [0], []
    for s in slices:
        j = 0
        while j < dim:
            if _is_fill(s[j], fill):
                j += 1
                continue
            start = j
            while j < dim and not _is_fill(s[j], fill):
                j += 1
            end.append(j)
            children.extend(s[k] for k in range(start, j))
            ofs.append(len(children))
        pos.append(len(end))
    return {"pos": pos, "end": end, "ofs": ofs}, children


def _array(shape, fill, seed):
    """Mostly-fill data with runs, isolated values, ``-0.0`` and an
    all-fill fiber."""
    rng = np.random.default_rng(seed)
    arr = np.full(shape, fill, dtype=np.float64)
    flat = arr.reshape(-1)
    n = flat.size
    stored = rng.random(n) < 0.3
    flat[stored] = rng.integers(1, 9, n)[stored]
    flat[rng.random(n) < 0.1] = -0.0
    start = n // 3
    flat[start:start + 5] = 7.0
    arr[0] = fill                       # one fiber (or row) of fill only
    return arr


CASES = [
    ((23,), ("vbl",)),
    ((6, 17), ("dense", "vbl")),
    ((17, 4), ("vbl", "dense")),
    ((5, 9, 3), ("vbl", "dense", "dense")),
    ((4, 7, 11), ("dense", "vbl", "vbl")),
]


@pytest.mark.parametrize("fill", [0.0, 2.0, float("nan")],
                         ids=["zero", "two", "nan"])
@pytest.mark.parametrize("shape,formats", CASES,
                         ids=["1d", "2d-inner", "2d-fiber", "3d-fiber",
                              "3d-nested"])
def test_level_arrays_match_per_element_builder(fill, shape, formats,
                                                monkeypatch):
    arr = _array(shape, fill, seed=len(shape) * 31)
    fast = fl.from_numpy(arr, formats, fill=fill)
    with monkeypatch.context() as patch:
        patch.setitem(construct._BUILDERS, "vbl", _ref_vbl)
        slow = fl.from_numpy(arr, formats, fill=fill)
    fast_buffers, slow_buffers = fast.buffers(), slow.buffers()
    assert sorted(fast_buffers) == sorted(slow_buffers)
    for role in slow_buffers:
        got = np.asarray(fast_buffers[role])
        want = np.asarray(slow_buffers[role])
        assert got.dtype == want.dtype, role
        np.testing.assert_array_equal(got, want, err_msg=role)
    # ``-0.0`` keeps its sign bit wherever it is stored.
    np.testing.assert_array_equal(np.signbit(fast.element.val),
                                  np.signbit(slow.element.val))
    np.testing.assert_array_equal(fast.to_numpy(), arr)


def test_negative_zero_is_a_zero_fill():
    arr = np.array([0.0, -0.0, 3.0, -0.0, 0.0, 4.0, 5.0])
    level = fl.from_numpy(arr, ("vbl",)).levels[0]
    assert level.end.tolist() == [3, 7]
    assert level.ofs.tolist() == [0, 1, 3]


def test_nan_fill_stores_everything():
    arr = np.array([np.nan, 1.0, np.nan])
    tensor = fl.from_numpy(arr, ("vbl",), fill=float("nan"))
    assert tensor.levels[0].end.tolist() == [3]
    assert tensor.levels[0].ofs.tolist() == [0, 3]
