"""Environment record printed with every run.

The page cache is warm and not controlled: dropping caches needs
privileges the benchmark does not assume, so ingest timings measure
parsing, not disk.
"""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np


def _read(path) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _caches() -> dict:
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(f"{base}/{entry}/level")
        kind = _read(f"{base}/{entry}/type")
        size = _read(f"{base}/{entry}/size")
        if level and kind and size and kind.strip() != "Instruction":
            out[f"L{level.strip()}"] = size.strip()
    return out


def _ram_mb() -> int | None:
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) // 1024
    return None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked of the library."""
    libs = {line.split()[-1] for line in (_read("/proc/self/maps") or "").splitlines()
            if "openblas" in line.lower() and line.split()[-1].endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def record() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "ram_mb": _ram_mb(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "page_cache": "warm, not controlled",
    }
