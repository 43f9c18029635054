"""Import path for the batched Monte-Carlo classes; re-exports only.

:class:`~repro.core.exit_predictor.BatchedExitPredictor` and
:class:`~repro.core.monte_carlo.BatchedMonteCarloEvaluator` live in
:mod:`repro.core`: every :class:`~repro.core.controller.LingXiController`
builds the lockstep evaluator itself, and ``repro.core`` cannot import
``repro.fleet`` (the fleet package imports the controller).  This module
holds no logic.  It stays only because the benchmark suite's tracer wraps
the two classes through ``repro.fleet.batched``; once the tracer imports
them from ``repro.core``, delete it.
"""

from repro.core.exit_predictor import BatchedExitPredictor
from repro.core.monte_carlo import BatchedMonteCarloEvaluator

__all__ = ["BatchedExitPredictor", "BatchedMonteCarloEvaluator"]
