"""Machine facts and provenance stored with every benchmark result."""
from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import sys
from pathlib import Path

import numpy as np


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict:
    """Size and sharing of each cache level seen by cpu0, as the kernel reports them."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(Path(index, "level"))
        kind = _read(Path(index, "type"))
        if level is None or kind == "Instruction":
            continue
        out[f"L{level}"] = {"size": _read(Path(index, "size")),
                            "shared_cpu_list": _read(Path(index, "shared_cpu_list"))}
    return out


def _blas() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads, "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def _git_commit(root: Path) -> str | None:
    head = _read(root / ".git" / "HEAD")
    if head is None:
        return None
    if head.startswith("ref: "):
        return _read(root / ".git" / head[5:])
    return head


def _source_digest(root: Path) -> str:
    """sha256 over the package sources, so results are traceable without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "ellipcenters").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def facts(root: Path, seed: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "git_commit": _git_commit(root),
        "source_sha256_16": _source_digest(root),
        "seed": seed,
    }
