"""Platform record and a same-run BLAS reference rate."""

from __future__ import annotations

import ctypes
import os
import platform
import time

import numpy as np

# symbol names of openblas_get_num_threads across OpenBLAS builds
DGEMM_N = 1024  # order of the square matrices of the reference product
DGEMM_REPEATS = 5

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> dict:
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": config.get("name", "unknown"), "version": config.get("version", "unknown")}


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def record() -> dict:
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": blas_threads(),
    }


def dgemm_gflops() -> float:
    """Best observed rate of a DGEMM_N x DGEMM_N float64 matrix product, in GFLOP/s."""
    n = DGEMM_N
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    out = np.empty((n, n))
    best = float("inf")
    for _ in range(DGEMM_REPEATS):
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9
