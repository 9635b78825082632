"""The machine and code fingerprint attached to every result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, Optional

import numpy as np


def _cgroup_quota() -> Optional[str]:
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            return Path(path).read_text().strip()
        except OSError:
            continue
    return None


def _git_sha(root: Path) -> Optional[str]:
    """The checkout's commit, or ``None`` when it is not a git repository."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(src: Path) -> str:
    """sha256 over every ``.py`` file under ``src`` (relative path + bytes)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def gemm_gflops(size: int = 256, seconds: float = 0.3) -> float:
    """Best fp64 ``size``-square GEMM rate over repeated calls, in GFLOP/s."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((size, size))
    b = rng.standard_normal((size, size))
    out = np.empty((size, size))
    np.matmul(a, b, out=out)
    best = float("inf")
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - start)
    return 2.0 * size ** 3 / best / 1e9


def fingerprint(root: Path, dtype) -> Dict[str, object]:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cgroup_cpu_quota": _cgroup_quota(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "simd": config.get("SIMD Extensions"),
        "threads_env": {
            name: value
            for name, value in sorted(os.environ.items())
            if name.endswith("_THREADS") or name.startswith("REPRO_")
        },
        "dtype": str(np.dtype(dtype)),
        "git_sha": _git_sha(root),
        "src_digest": source_digest(root / "src"),
        "gemm_gflops_fp64": gemm_gflops(),
    }
