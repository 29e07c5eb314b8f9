"""Machine record and the sustained copy-bandwidth probe (read-only on /sys)."""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cache_sizes() -> dict[str, int]:
    """Per-level data/unified cache sizes in bytes, as cpu0 sees them."""
    out: dict[str, int] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        out[f"L{level}"] = int(size.rstrip("KMG")) * scale
    return out


def record(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "cpu": platform.processor() or platform.machine(),
        "cache_bytes": cache_sizes(),
    }


def copy_bandwidth(np, repeats: int = 5) -> dict:
    """Median GB/s of ``np.copyto`` on arrays of at least 4x the last-level cache.

    Bytes moved count one read and one write of the array per copy.
    """
    caches = cache_sizes()
    llc = caches[max(caches)] if caches else 32 << 20
    nbytes = 4 * llc
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)   # fault the pages in before timing
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * src.nbytes / (time.perf_counter() - t0) / 1e9)
    return {"gbps": statistics.median(rates), "array_bytes": src.nbytes, "llc_bytes": llc}
