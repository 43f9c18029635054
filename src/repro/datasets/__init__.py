"""Synthetic datasets standing in for the proprietary production data.

* :mod:`repro.datasets.synthetic_logs` — generate production-style playback
  trajectory logs by simulating a heterogeneous user population over their
  bandwidth regimes with a production ABR (the stand-in for the paper's 1.5 M
  trajectories), and run multi-day A/B campaigns with persistent per-user
  ABRs on the same day loop.
* :mod:`repro.datasets.stall_dataset` — turn a log corpus into the
  exit-rate-predictor training matrices of §3.3 (5-feature × length-8 windows
  with ALL / event / stall composition variants).
"""

from repro.datasets.synthetic_logs import (
    GeneratedLogs,
    LogGenerationConfig,
    generate_production_logs,
)
from repro.datasets.stall_dataset import (
    DatasetComposition,
    ExitDataset,
    build_exit_dataset,
)

__all__ = [
    "GeneratedLogs",
    "LogGenerationConfig",
    "generate_production_logs",
    "DatasetComposition",
    "ExitDataset",
    "build_exit_dataset",
]
