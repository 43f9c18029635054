"""User models: stall perception, engagement / exit behaviour, populations.

The paper's central observation (§2.3) is that users differ strongly — and
fairly stably — in how stall events drive them to abandon a video, while the
influence of video quality and smoothness is universal and orders of magnitude
smaller.  This package provides:

* :mod:`repro.users.perception` — per-user stall-sensitivity profiles
  (sensitive / threshold / insensitive archetypes of Figure 5b, with
  day-to-day drift);
* :mod:`repro.users.engagement` — exit models plugging into the session
  engine: the QoS-aware behavioural model used to synthesise production logs,
  the deterministic rule-based users of §5.2, and per-user data-driven models
  fitted from engagement histories;
* :mod:`repro.users.population` — heterogeneous user population generation
  matching the distributions reported in Figures 2 and 5;
* :mod:`repro.users.retention` — engagement-driven retention models mapping a
  day's QoE outcome to a next-day arrival probability (the churn loop of the
  longitudinal fleet, :mod:`repro.fleet.longitudinal`).
"""

from repro.users.perception import StallSensitivityProfile, SensitivityArchetype
from repro.users.engagement import (
    BaselineExitModel,
    QoSAwareExitModel,
    RuleBasedUser,
    DataDrivenUser,
    fit_data_driven_user,
    features_from_segments,
)
from repro.users.population import UserProfile, UserPopulation
from repro.users.retention import (
    DataDrivenRetentionModel,
    EngagementSummary,
    RetentionModel,
    RuleBasedRetentionModel,
    fit_retention_model,
    summarize_sessions,
)

__all__ = [
    "StallSensitivityProfile",
    "SensitivityArchetype",
    "BaselineExitModel",
    "QoSAwareExitModel",
    "RuleBasedUser",
    "DataDrivenUser",
    "fit_data_driven_user",
    "features_from_segments",
    "UserProfile",
    "UserPopulation",
    "DataDrivenRetentionModel",
    "EngagementSummary",
    "RetentionModel",
    "RuleBasedRetentionModel",
    "fit_retention_model",
    "summarize_sessions",
]
