"""Commit stamp for benchmark records.

``benchmarks/suite/run.py`` stamps every record with :func:`current_commit`.
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path


def current_commit() -> str:
    """Commit hash from CI env or git; "unknown" outside both."""
    for var in ("GITHUB_SHA", "CI_COMMIT_SHA"):
        value = os.environ.get(var, "").strip()
        if value:
            return value
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            text=True,
            stderr=subprocess.DEVNULL,
        ).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
