"""LingXi core: the paper's primary contribution.

* :mod:`repro.core.state` — dual-layer (short-term / long-term) user state and
  the player snapshot handed to virtual playback.
* :mod:`repro.core.statistics_model` — the overall-statistics (OS) exit-rate
  model for video quality and smoothness.
* :mod:`repro.core.exit_predictor` — the hybrid exit-rate predictor of
  Equation 4 (personalised neural network for stalls + OS for the rest) and
  its batched view.
* :mod:`repro.core.monte_carlo` — the lockstep Monte-Carlo parameter
  evaluator of Algorithm 2 and its sequential reference.
* :mod:`repro.core.parameter_space` — which objective parameters LingXi tunes
  for a given ABR and over what ranges.
* :mod:`repro.core.triggers` — activation threshold and pruning rules (§4).
* :mod:`repro.core.controller` — the online controller of Algorithm 1 and the
  :class:`~repro.core.controller.LingXiABR` wrapper that plugs into any ABR.
* :mod:`repro.core.persistence` — JSON persistence of long-term state.
"""

from repro.core.state import UserState, PlayerSnapshot
from repro.core.statistics_model import OverallStatisticsModel
from repro.core.exit_predictor import ExitRatePredictor
from repro.core.monte_carlo import MonteCarloEvaluator, MonteCarloConfig
from repro.core.parameter_space import ParameterSpace
from repro.core.triggers import TriggerPolicy, PruningPolicy
from repro.core.controller import LingXiController, LingXiABR, ControllerConfig
from repro.core.persistence import (
    controller_state_payload,
    load_long_term_state,
    restore_controller_state,
    save_long_term_state,
)

__all__ = [
    "UserState",
    "PlayerSnapshot",
    "OverallStatisticsModel",
    "ExitRatePredictor",
    "MonteCarloEvaluator",
    "MonteCarloConfig",
    "ParameterSpace",
    "TriggerPolicy",
    "PruningPolicy",
    "LingXiController",
    "LingXiABR",
    "ControllerConfig",
    "save_long_term_state",
    "load_long_term_state",
    "controller_state_payload",
    "restore_controller_state",
]
