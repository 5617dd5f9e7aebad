"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs untraced and traced with ``--tiny``, writing to a
temporary folder; the tests check the result line against
``BENCHMARK.json``, that a corrupted expected output and kernels that
write nothing are counted as failed, that the benchmark's program
builders build the figure registry's structures, that a batch run
leaves no process behind, that the benchmark refuses to run without
the program, and that ``compare.py`` skips
tiny runs and refuses results whose environment stamps or windows
differ.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3

#: A per-layer metric each workload must exercise (non-zero).
EXERCISED = {
    "compile": ("compiler.lower_ms", "ir.optimize_ms", "store.save_ms",
                "store.load_ms", "ir.walk_statements_calls"),
    "dispatch": ("cin.structural_key_us", "compiler.cache_lookup_us",
                 "compiler.bind_us", "compiler.kernel_run_us"),
    "kernels": ("kernels.fig1_dot.python_ms", "kernels.fig1_dot.c_ms",
                "kernels.fig1_dot.ops", "codegen.emit_c_ms"),
    "ingest": ("tensors.from_numpy_ms", "tensors.from_numpy_share"),
    "batch": ("exec.execute_ms", "exec.efficiency"),
}


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    """The runs' output folder, kept out of ``perfbench/out``."""
    return str(tmp_path_factory.mktemp("perfbench-out"))


def run(workload, *extra, out, cwd=ROOT, trace=0):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(SEED),
               "--seconds", "0.5", "--trace", str(trace), "--tiny",
               "--out", out, *extra]
    return subprocess.run(command, capture_output=True, text=True,
                          cwd=cwd, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload, out):
    result = result_of(run(workload, out=out))
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"]
                                       for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert emitted["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload, out):
    result = result_of(run(workload, out=out, trace=1))
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"]
                                       for m in SPEC["per_layer"]]
    for name in EXERCISED[workload]:
        assert result["metrics"][name]["value"] > 0, name
    trace = os.path.join(out, "traces",
                         "%s-seed%d.jsonl" % (workload, SEED))
    with open(trace) as handle:
        meta = json.loads(handle.readline())["meta"]
        first = json.loads(handle.readline())
    assert meta["overhead"]["untraced"] > 0
    assert len(first) == 5  # name, start, end, parent, request


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_expected_output_counts_as_failed(workload, out):
    result = result_of(run(workload, "--corrupt-expected", out=out))
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]
    with open(os.path.join(out, "results",
                           "%s-trace0-seed%d.json" % (workload, SEED))) \
            as handle:
        saved = json.load(handle)
    assert saved["failed_frac"] == result["failed"] / result["attempted"]
    assert saved["failed_frac"] > 0


@pytest.mark.parametrize("workload", [w for w in WORKLOADS
                                      if w != "compile"])
def test_kernels_that_write_nothing_count_as_failed(workload, out):
    # A real round fills every output before the kernels stop writing;
    # outputs are reused between requests (and, in kernels, between
    # datasets), so this holds only if every request poisons them.
    result = result_of(run(workload, "--noop-kernels", out=out))
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


CASES = [("fig1_dot", None), ("fig1_dot", "dense")] + [
    ("fig7_spmspv", s) for s in ("walk_walk", "lead_A", "follow_A",
                                 "gallop_both", "vbl", "vbl_gallop")] + [
    ("fig8_triangles", "walk"), ("fig8_triangles", "gallop"),
    ("fig9_convolution", None)] + [
    ("fig10_alpha", f) for f in ("dense", "sparse", "rle")] + [
    ("fig11_allpairs", f) for f in ("dense", "sparse", "vbl", "rle")]


@pytest.mark.parametrize("figure,variant", CASES)
def test_programs_build_the_registry_structures(figure, variant):
    import numpy as np

    from repro.bench import figures, kernels
    from repro.cin.analyze import structural_key
    from repro.workloads import images, matrices

    from perfbench import programs

    rng = np.random.default_rng(SEED)
    if figure == "fig1_dot":
        a, b = figures.fig1_inputs(SEED)
        if variant:
            mine = programs.dot_tensors(a, b, ("dense", "dense"))
            theirs = figures.fig1_dense_dot_program(a, b)[0]
        else:
            mine = programs.dot_tensors(a, b)
            theirs = figures.fig1_looplet_program(a, b)[0]
    elif figure == "fig7_spmspv":
        mat = matrices.random_sparse_matrix(8, 8, 0.3, seed=SEED)
        vec = matrices.sparse_vector(8, density=0.4, seed=SEED)
        mine = programs.spmspv_tensors(mat, vec, variant)
        theirs = kernels.spmspv_program(mat, vec, variant)[0]
    elif figure == "fig8_triangles":
        adj = (rng.random((6, 6)) < 0.5).astype(float)
        adj = np.triu(adj, 1) + np.triu(adj, 1).T
        mine = programs.triangle_tensors(adj)
        theirs = kernels.triangle_count_program(adj, variant)[0]
    elif figure == "fig9_convolution":
        grid = matrices.random_sparse_matrix(5, 5, 0.3, seed=SEED)
        mine = programs.convolution_tensors(grid, figures.FIG9_FILTER)
        theirs = kernels.masked_convolution_program(
            grid, figures.FIG9_FILTER)[0]
    elif figure == "fig10_alpha":
        img_b = images.digit_like(6, seed=SEED)
        img_c = images.digit_like(6, seed=SEED + 1)
        mine = programs.blend_tensors(img_b, img_c, variant)
        theirs = kernels.alpha_blend_program(
            img_b, img_c, figures.FIG10_ALPHA, figures.FIG10_BETA,
            variant)[0]
    else:
        batch = images.linearized_batch("digit", 3, size=4, seed=SEED)
        mine = programs.all_pairs_tensors(batch, variant)
        theirs = kernels.all_pairs_similarity_program(batch, variant)[0]
    assert (structural_key(programs.build(figure, mine, variant))
            == structural_key(theirs))


#: Runs ``run.main`` in this interpreter, then prints the pids of the
#: children still alive and of the ``multiprocessing`` resource
#: tracker, which the first shared-memory segment starts.
LEFT_BEHIND = """
import json, os, sys
sys.path[:0] = [sys.argv[1], os.path.dirname(sys.argv[1])]
import run
code = run.main(sys.argv[2:])
from multiprocessing import resource_tracker
tasks = "/proc/self/task"
children = [int(pid) for task in os.listdir(tasks)
            for pid in open(os.path.join(tasks, task, "children")).read().split()]
print(json.dumps({"code": code, "tracker": resource_tracker._resource_tracker._pid,
                  "children": children}))
"""


@pytest.mark.parametrize("trace", [0, 1])
def test_batch_run_leaves_no_process_behind(trace, out):
    # The pool workers and the resource tracker are stopped and
    # waited for before the run returns, not left to exit with it.
    proc = subprocess.run(
        [sys.executable, "-c", LEFT_BEHIND, HERE, "--workload", "batch",
         "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace),
         "--tiny", "--out", out], capture_output=True, text=True,
        cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    left = json.loads(proc.stdout.strip().splitlines()[-1])
    assert left == {"code": 0, "tracker": None, "children": []}


def test_refuses_to_run_without_the_program(tmp_path, out):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("compile", cwd=str(tmp_path), out=str(tmp_path / "out"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_summary_reads_the_traces(out):
    result_of(run("dispatch", out=out, trace=1))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "summary.py"),
         os.path.join(out, "traces", "dispatch-seed%d.jsonl"
                      % SEED)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "cache_lookup" in proc.stdout
    assert "tracing overhead" in proc.stdout


def test_compare_skips_tiny_runs_and_refuses_mismatches(tmp_path, out):
    result_of(run("ingest", out=out))
    saved = os.path.join(out, "results", "ingest-trace0-seed%d.json" % SEED)
    compare = [sys.executable, os.path.join(HERE, "compare.py"),
               str(tmp_path / "base"), str(tmp_path / "new")]
    for side in ("base", "new"):
        os.makedirs(tmp_path / side)
        shutil.copy(saved, tmp_path / side)
    tiny = subprocess.run(compare, capture_output=True, text=True)
    assert tiny.returncode == 2
    assert "a --tiny run" in tiny.stderr

    def edit(side, change):
        path = tmp_path / side / os.path.basename(saved)
        payload = json.loads(path.read_text())
        change(payload)
        path.write_text(json.dumps(payload))

    for side in ("base", "new"):  # stand in for full-size runs
        edit(side, lambda payload: payload.update(tiny=False))
    same = subprocess.run(compare, capture_output=True, text=True)
    assert same.returncode == 0, same.stdout + same.stderr
    edit("new", lambda payload: payload.update(seconds=20.0))
    windows = subprocess.run(compare, capture_output=True, text=True)
    assert windows.returncode == 2
    assert "windows" in windows.stderr
    edit("new", lambda payload: payload.update(seconds=0.5))
    edit("new", lambda payload: payload["stamp"].update(
        blas_threads="elsewhere"))
    differ = subprocess.run(compare, capture_output=True, text=True)
    assert differ.returncode == 2
    assert "blas_threads" in differ.stderr
