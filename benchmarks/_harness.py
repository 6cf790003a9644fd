"""Shared plumbing for the benchmarks that write ``BENCH_*.json``.

:func:`machine` describes the host and the commit a run measured, and
:func:`write_report` writes a report to the repo root.  Every speed-up
a report states compares two legs timed in the same run, so the
machine record is what makes two reports comparable at all.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS
    has one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def git_sha() -> str | None:
    """The checked-out commit, or ``None`` outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def machine() -> dict:
    """Usable CPUs, platform, Python, NumPy and the git sha of a run."""
    return {
        "cpus": usable_cpus(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
    }


def write_report(name: str, report: dict) -> Path:
    """Write ``report`` as ``BENCH_<name>.json`` at the repo root."""
    out = REPO_ROOT / f"BENCH_{name}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    return out
