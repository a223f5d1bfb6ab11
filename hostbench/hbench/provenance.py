"""Host and source stamps printed with every run's numbers."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict


def src_hash(src: Path) -> str:
    """sha-256 over the relative path and bytes of every ``.py`` under ``src``."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        digest.update(path.relative_to(src).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit(root: Path) -> str:
    """The checked-out commit, or ``unknown`` outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: Path) -> Dict[str, object]:
    from repro.kernel import numpy_version, resolve_kernel

    return {
        "commit": commit(root),
        "src_sha256": src_hash(root / "src"),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "kernel": resolve_kernel(None),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }
