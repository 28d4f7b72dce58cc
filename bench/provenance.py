"""Where a result came from: machine, libraries, BLAS threads, source.

``run.py`` pins BLAS to one thread through the environment before numpy is
imported; :func:`blas_threads` asks the loaded OpenBLAS how many threads it
will use, so the pin is checked rather than assumed.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

import numpy as np

# numpy 2 wheels bundle scipy-openblas; numpy 1 wheels bundled openblas64_.
_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_")


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, or None if unknown."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in _THREAD_QUERIES:
            if hasattr(handle, symbol):
                query = getattr(handle, symbol)
                query.restype = ctypes.c_int
                query.argtypes = []
                return int(query())
    return None


def _blas_build() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str | None:
    """Commit of a git checkout at ``root``, read from its files (no git call)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def _source_sha256(root: Path) -> str:
    """Digest of the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, seed: int, threads: int | None) -> dict:
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "seed": seed,
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root),
        "nproc": len(affinity) if affinity else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {**_blas_build(), "threads": threads},
    }
