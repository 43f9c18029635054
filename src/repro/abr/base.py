"""Common ABR interface and the runtime-adjustable objective parameters.

LingXi "supports arbitrary ABR algorithms (regardless of whether they have
explicit optimization objectives) by incorporating a dynamic QoE adjustment
module that modifies optimization objectives during runtime" (§1).  The
contract that makes this possible is :class:`QoEParameters`: every ABR in
this package reads its tunable objective from such an object and accepts a
replacement at any time through :meth:`ABRAlgorithm.set_parameters`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.sim.session import ABRContext


@dataclass(frozen=True)
class QoEParameters:
    """Tunable objective parameters shared by all ABR algorithms.

    Attributes
    ----------
    stall_penalty:
        Weight ``mu`` of stall time in ``QoE_lin`` (Equation 1).  The paper's
        simulation sweeps this between 1 and 20.
    switch_penalty:
        Weight of the quality-switch term in ``QoE_lin`` (0–4 in the paper).
    beta:
        Aggressiveness parameter of implicit-QoE algorithms such as HYB
        (§5.3): the highest bitrate with ``d_k(Q)/C < beta * B`` is selected,
        so smaller values are more conservative.
    """

    stall_penalty: float = 4.3
    switch_penalty: float = 1.0
    beta: float = 0.9

    def __post_init__(self) -> None:
        if self.stall_penalty < 0:
            raise ValueError("stall_penalty must be non-negative")
        if self.switch_penalty < 0:
            raise ValueError("switch_penalty must be non-negative")
        if not 0 < self.beta <= 2.0:
            raise ValueError("beta must be in (0, 2]")

    def replace(self, **changes) -> "QoEParameters":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def to_array(self) -> np.ndarray:
        """Vector form ``[stall_penalty, switch_penalty, beta]`` (for optimizers)."""
        return np.asarray([self.stall_penalty, self.switch_penalty, self.beta], dtype=float)

    @classmethod
    def from_array(cls, values: np.ndarray) -> "QoEParameters":
        """Inverse of :meth:`to_array`."""
        values = np.asarray(values, dtype=float)
        if values.shape != (3,):
            raise ValueError("expected a length-3 vector")
        return cls(
            stall_penalty=float(values[0]),
            switch_penalty=float(values[1]),
            beta=float(values[2]),
        )


def distinct_policies(policies: Sequence["ABRAlgorithm"]) -> tuple[list, np.ndarray]:
    """The distinct policy objects of a kernel's rows, and each row's owner.

    A user's sessions share one policy object, so a vector kernel reads live
    :class:`QoEParameters` once per distinct object and indexes the values
    back to the rows through ``owner``.
    """
    position: dict[int, int] = {}
    distinct: list = []
    for policy in policies:
        if id(policy) not in position:
            position[id(policy)] = len(distinct)
            distinct.append(policy)
    return distinct, np.asarray([position[id(p)] for p in policies], dtype=int)


def row_parameters(distinct: list, owner: np.ndarray, name: str) -> np.ndarray:
    """Each row's live :class:`QoEParameters` field ``name`` (``owner``
    indexes ``distinct``, see :func:`distinct_policies`).

    Every distinct policy is read once when they are no more than the rows;
    otherwise (a cohort step covers a few of many users' rows) only the
    policies that own one of the rows are read.
    """
    if len(distinct) <= owner.size:
        return np.asarray([getattr(p.parameters, name) for p in distinct])[owner]
    needed = np.zeros(len(distinct), dtype=bool)
    needed[owner] = True
    values = np.empty(len(distinct))
    values[needed] = [
        getattr(distinct[i].parameters, name) for i in np.flatnonzero(needed).tolist()
    ]
    return values[owner]


class ABRAlgorithm(abc.ABC):
    """Base class for all ABR algorithms.

    Subclasses implement :meth:`select_level`; the base class manages the
    runtime-adjustable :class:`QoEParameters` and provides a default
    throughput estimator shared by several rules.
    """

    def __init__(self, parameters: QoEParameters | None = None) -> None:
        self._parameters = parameters or QoEParameters()

    @property
    def parameters(self) -> QoEParameters:
        """Current objective parameters."""
        return self._parameters

    def set_parameters(self, parameters: QoEParameters) -> None:
        """Swap in new objective parameters (LingXi's adjustment hook)."""
        if not isinstance(parameters, QoEParameters):
            raise TypeError("parameters must be a QoEParameters instance")
        self._parameters = parameters

    @abc.abstractmethod
    def select_level(self, context: ABRContext) -> int:
        """Pick the ladder level for the next segment."""

    def reset(self) -> None:
        """Clear per-session state (default: nothing to clear)."""

    @property
    def name(self) -> str:
        """Algorithm name (class name by default)."""
        return type(self).__name__

    @staticmethod
    def estimate_throughput(context: ABRContext, window: int = 5) -> float:
        """Harmonic-mean throughput estimate over the recent window (kbps)."""
        history = context.throughput_history_kbps[-window:]
        if not history:
            return context.bandwidth_mean_kbps
        values = np.asarray(history, dtype=float)
        values = values[values > 0]
        if values.size == 0:
            return context.bandwidth_mean_kbps
        return float(values.size / np.sum(1.0 / values))
