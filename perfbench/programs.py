"""The six figure programs, built over tensors the caller already holds.

``repro.bench.kernels`` builds each figure's CIN program from numpy
arrays, converting them on every call.  The dispatch, kernels and
ingest workloads need the same program structures over tensors that
were converted once (dispatch, kernels) or whose conversion is timed
on its own (ingest), so these builders take tensors and return only
the program.  Each mirrors its ``repro.bench.kernels`` counterpart
node for node, so the structural keys match the figure registry's.
"""

import numpy as np

import repro.lang as fl
from repro.bench import figures
from repro.tensors.output import RunOutput

#: Row formats of the fig7 strategies, and their protocol pairs.
SPMSPV = {
    "walk_walk": (("dense", "sparse"), fl.walk, fl.walk),
    "lead_A": (("dense", "sparse"), fl.gallop, fl.walk),
    "follow_A": (("dense", "sparse"), fl.walk, fl.gallop),
    "gallop_both": (("dense", "sparse"), fl.gallop, fl.gallop),
    "vbl": (("dense", "vbl"), fl.walk, fl.walk),
    "vbl_gallop": (("dense", "vbl"), fl.gallop, fl.gallop),
}


def dot(A, B, C):
    """Figure 1: ``C[] += A[i] * B[i]``."""
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i]))


def spmspv(A, x, y, strategy):
    """Figure 7: ``y[i] += A[i, j] * x[j]`` under one strategy."""
    _, proto_a, proto_x = SPMSPV[strategy]
    i, j = fl.indices("i", "j")
    return fl.forall(i, fl.forall(j, fl.increment(
        y[i], fl.access(A, i, proto_a(j)) * fl.access(x, proto_x(j)))))


def triangles(A, AT, C, protocol):
    """Figure 8: ``C[] += A[i,j] * A[j,k] * AT[i,k]``."""
    proto = {"walk": fl.walk, "gallop": fl.gallop}[protocol]
    i, j, k = fl.indices("i", "j", "k")
    return fl.forall(i, fl.forall(j, fl.forall(k, fl.increment(
        C[()],
        fl.access(A, i, fl.walk(j)) * fl.access(A, j, proto(k)) *
        fl.access(AT, i, proto(k))))))


def masked_convolution(A, Awin, F, C):
    """Figure 9: the masked 2D convolution."""
    kh, kw = F.shape
    ch, cw = kh // 2, kw // 2
    i, k, j, l = fl.indices("i", "k", "j", "l")
    padded_a = fl.coalesce(fl.access(
        Awin,
        fl.permit(fl.offset(j, ch - i)),
        fl.permit(fl.offset(l, cw - k))), 0.0)
    padded_f = fl.coalesce(fl.access(F, fl.permit(j), fl.permit(l)), 0.0)
    mask = fl.ne(A[i, k], 0.0)
    body = fl.increment(C[i, k], mask * padded_a * padded_f)
    return fl.forall(i, fl.forall(k, fl.forall(
        j, fl.forall(l, body, ext=(0, kw)), ext=(0, kh))))


def alpha_blend(B, C, A, alpha, beta):
    """Figure 10: ``A[i,j] = round_u8(alpha * B[i,j] + beta * C[i,j])``."""
    i, j = fl.indices("i", "j")
    return fl.forall(i, fl.forall(j, fl.store(A[i, j], fl.call(
        fl.ops.ROUND_U8, alpha * B[i, j] + beta * C[i, j]))))


def all_pairs(A, R, O, o):
    """Figure 11: norms, then pairwise Euclidean distances."""
    k, l, ij, ij2 = fl.indices("k", "l", "ij", "ij2")
    norms = fl.forall(k, fl.forall(ij2, fl.increment(
        R[k], A[k, ij2] * A[k, ij2])))
    inner = fl.forall(ij, fl.increment(o[()], A[k, ij] * A[l, ij]))
    distances = fl.forall(k, fl.forall(l, fl.where(
        fl.store(O[k, l], fl.call(fl.ops.SQRT, fl.maximum(
            R[k] + R[l] - 2.0 * o[()], 0.0))),
        inner)))
    return fl.multi(norms, distances)


# -- tensors ------------------------------------------------------------
# Each ``*_tensors`` function converts one figure's numpy inputs into
# the figure's formats plus fresh outputs, named as repro.bench.kernels
# names them (names are part of the rebind mapping).

def dot_tensors(a, b, formats=("sparse", "band")):
    return {"A": fl.from_numpy(a, (formats[0],), name="A"),
            "B": fl.from_numpy(b, (formats[1],), name="B"),
            "C": fl.Scalar(name="C")}


def spmspv_tensors(mat, vec, strategy):
    fmt = SPMSPV[strategy][0]
    return {"A": fl.from_numpy(mat, fmt, name="A"),
            "x": fl.from_numpy(vec, ("sparse",), name="x"),
            "y": fl.zeros(mat.shape[0], name="y")}


def triangle_tensors(adj):
    return {"A": fl.from_numpy(adj, ("dense", "sparse"), name="A"),
            "AT": fl.from_numpy(adj, ("dense", "sparse"), name="AT"),
            "C": fl.Scalar(name="C")}


def convolution_tensors(grid, filt):
    return {"A": fl.from_numpy(grid, ("dense", "sparse"), name="A"),
            "Awin": fl.from_numpy(grid, ("dense", "sparse"), name="Awin"),
            "F": fl.from_numpy(filt, ("dense", "dense"), name="F"),
            "C": fl.zeros(grid.shape, name="C")}


def blend_tensors(img_b, img_c, fmt):
    B = fl.from_numpy(img_b, ("dense", fmt), name="B", fill=0)
    C = fl.from_numpy(img_c, ("dense", fmt), name="C", fill=0)
    if fmt == "dense":
        A = fl.zeros(img_b.shape, dtype=np.uint8, name="A")
    else:
        A = RunOutput(img_b.shape, fill=0, dtype=np.uint8, name="A")
    return {"B": B, "C": C, "A": A}


def all_pairs_tensors(images, fmt):
    count = images.shape[0]
    return {"A": fl.from_numpy(images.astype(float), ("dense", fmt),
                               name="A"),
            "R": fl.zeros(count, name="R"),
            "O": fl.zeros((count, count), name="O"),
            "o": fl.Scalar(name="o")}


def build(figure, t, variant=None):
    """The program of ``figure`` over the tensor mapping ``t``."""
    if figure == "fig1_dot":
        return dot(t["A"], t["B"], t["C"])
    if figure == "fig7_spmspv":
        return spmspv(t["A"], t["x"], t["y"], variant)
    if figure == "fig8_triangles":
        return triangles(t["A"], t["AT"], t["C"], variant)
    if figure == "fig9_convolution":
        return masked_convolution(t["A"], t["Awin"], t["F"], t["C"])
    if figure == "fig10_alpha":
        return alpha_blend(t["B"], t["C"], t["A"], figures.FIG10_ALPHA,
                           figures.FIG10_BETA)
    if figure == "fig11_allpairs":
        return all_pairs(t["A"], t["R"], t["O"], t["o"])
    raise ValueError("unknown figure %r" % (figure,))


#: The output tensor name of each figure's program.
OUTPUT = {"fig1_dot": "C", "fig7_spmspv": "y", "fig8_triangles": "C",
          "fig9_convolution": "C", "fig10_alpha": "A",
          "fig11_allpairs": "O"}
#: Every tensor each figure's program writes: the output plus fig11's
#: norms and inner-product temporaries.
WRITTEN = {figure: (name,) for figure, name in OUTPUT.items()}
WRITTEN["fig11_allpairs"] = ("R", "O", "o")


def poison(figure, t):
    """Fill every tensor the program writes with a value no correct run
    leaves there: NaN, or 0xAB for uint8 images.

    A kernel must reset its outputs, so a run that writes nothing, or
    only part of an output, then fails its check instead of passing on
    what an earlier run left behind.
    """
    for name in WRITTEN[figure]:
        poison_tensor(t[name])


def poison_tensor(out):
    if isinstance(out, RunOutput):
        out.builder.reset()
        out.builder.append_run(0, out.builder.total, 0xAB)
        return
    val = out.element.val
    val[...] = 0xAB if val.dtype == np.uint8 else np.nan


def output_array(figure, t):
    """The program's output as a numpy value (a copy)."""
    out = t[OUTPUT[figure]]
    if isinstance(out, fl.Scalar):
        return np.asarray(out.value).copy()
    return np.array(out.to_numpy(), copy=True)
