"""Facts about the host and the code under test, recorded with each result."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Any

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(root), *args],
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_facts(root: Path, pool_jobs: int) -> dict[str, Any]:
    """Core count, CPU, memory, versions and commit of this run.

    ``commit`` and ``dirty`` are ``None`` when ``root`` is not a git
    checkout.  ``pool_exceeds_cores`` flags a run whose worker pool is
    wider than the cores this process may use.
    """
    cores = len(os.sched_getaffinity(0))
    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if commit else None
    return {
        "nproc": cores,
        "cpu_model": _cpu_model(),
        "mem_total_mib": round(os.sysconf("SC_PAGE_SIZE")
                               * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "pool_jobs": pool_jobs,
        "pool_exceeds_cores": pool_jobs > cores,
    }
