"""The environment stamp attached to every result.

Two results are comparable only when every key of :data:`COMPARED`
agrees; ``commit`` is recorded but not compared, since comparing two
commits is the point.  BLAS threading is read as the user gets it,
never pinned.
"""

import ctypes
import glob
import hashlib
import os
import platform
import shutil
import subprocess

#: Stamp keys that must match for two results to be compared.
COMPARED = ("nproc", "cpu_model", "python", "numpy", "blas_vendor",
            "blas_threads", "cc", "pool_start_method")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    import numpy as np

    vendor = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError):  # numpy < 1.25 has no dict mode
        pass
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
    if threads is None:
        threads = os.environ.get("OPENBLAS_NUM_THREADS",
                                 os.environ.get("OMP_NUM_THREADS",
                                                "unknown"))
    return vendor, str(threads)


def _cc():
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        return "none"
    proc = subprocess.run([cc, "--version"], capture_output=True,
                          text=True)
    return (proc.stdout.splitlines() or ["unknown"])[0].strip()


def _commit(root):
    """The git commit when ``root`` is a checkout with history, else a
    digest of the ``src/`` tree (the benchmark may run from an export)."""
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def stamp(root):
    import sys

    import numpy as np

    from repro.exec.pool import default_start_method
    from repro.util import config

    vendor, threads = _blas()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_vendor": vendor,
        "blas_threads": threads,
        "cc": _cc(),
        "pool_start_method": (config.resolve("pool_start_method")
                              or default_start_method()),
        "commit": _commit(root),
    }


def mismatches(first, second):
    """The :data:`COMPARED` keys on which two stamps differ."""
    return [key for key in COMPARED if first.get(key) != second.get(key)]
