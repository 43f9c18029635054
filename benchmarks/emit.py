"""Host fingerprint for benchmark records.

``benchmarks/suite/run.py`` stamps every record with :func:`host_metadata`:
numbers are only comparable across machines when the machine is recorded.
"""

from __future__ import annotations

import os
import platform

import numpy as np


def host_metadata() -> dict:
    """Interpreter and numpy versions, platform and core count.

    Each of these moves the numbers, so each is recorded.
    """
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
