"""Pluggable simulation backends: the seam between *what* to simulate and *how*.

A :class:`SessionSpec` fully describes one playback session (ABR, video,
bandwidth trace, optional exit model, RNG substream, user id) without saying
anything about execution strategy.  A :class:`SimBackend` turns a batch of
specs into :class:`~repro.sim.session.PlaybackTrace` objects, one per spec,
in spec order.

Two backends are registered out of the box:

* ``"scalar"`` — the reference implementation: one
  :class:`~repro.sim.session.PlaybackSession` run per spec, each segment
  advanced by :meth:`~repro.sim.session.LiveSession.step`.
* ``"vector"`` — the struct-of-arrays lockstep engine of
  :mod:`repro.sim.vector` that advances all sessions of a batch one segment
  at a time with NumPy array math (registered on import of
  :mod:`repro.sim.vector`, which :mod:`repro.sim` performs eagerly).

Determinism contract
--------------------
Randomness never flows through a shared generator: every spec owns a
`Philox` substream derived from its ``seed`` (see :func:`session_rng`).
Philox is counter-based, so substreams are cheap to create and statistically
independent, and — crucially — each session consumes *its own* stream in
segment order.  Execution order across sessions therefore cannot change any
session's draws, which is what makes the scalar and vector backends produce
segment-for-segment identical traces for the same specs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.sim.bandwidth import BandwidthTrace
from repro.sim.session import (
    ABRPolicy,
    ExitModel,
    PlaybackSession,
    PlaybackTrace,
    SessionConfig,
)
from repro.sim.video import Video

#: Anything accepted as a per-session seed.
SeedLike = int | None | np.random.SeedSequence


@dataclass(frozen=True)
class SessionSpec:
    """Everything needed to simulate one playback session, backend-agnostic.

    ``seed=None`` (the default) resolves to a distinct batch-position-derived
    substream in :func:`resolve_session_seeds` — unseeded specs in one batch
    never share a stream.

    The last three fields only matter to **networked** runs (``run_batch``
    with a :class:`~repro.net.topology.NetworkTopology`): ``link`` pins the
    session to an edge link by id (``None`` → deterministic attachment by
    ``user_id``), ``start_step`` is the slot the session starts downloading
    at, and ``weight`` is its weighted-fair-share weight.  Un-networked runs
    ignore them — without a shared bottleneck, sessions are independent, so
    shifting one in time or reweighting it cannot change its trace.
    """

    abr: ABRPolicy
    video: Video
    trace: BandwidthTrace
    exit_model: ExitModel | None = None
    seed: SeedLike = None
    user_id: str = "user"
    link: str | None = None
    start_step: int = 0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.start_step < 0:
            raise ValueError("start_step must be non-negative")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


def session_rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    # contract: DET-RNG-001
    """Per-session `Philox` substream generator for a resolved spec seed.

    Both backends build session RNGs exclusively through this function, so a
    spec's stream of exit-decision uniforms is identical no matter which
    backend executes it (or in what order the batch is processed).
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def resolve_session_seeds(specs: Sequence[SessionSpec]) -> list[np.random.SeedSequence]:
    """One seed sequence per spec, in batch order.

    Explicit seeds pass through; unseeded specs get substreams keyed by their
    batch position, so a batch of default-constructed specs draws independent
    randomness per session.  Both backends resolve seeds against the
    *original* batch order before any regrouping, which keeps a spec's stream
    independent of execution strategy.
    """
    return [
        spec.seed
        if isinstance(spec.seed, np.random.SeedSequence)
        else np.random.SeedSequence(spec.seed)
        if spec.seed is not None
        else np.random.SeedSequence(0, spawn_key=(index,))
        for index, spec in enumerate(specs)
    ]


def spawn_session_seeds(seed: int, count: int) -> list[np.random.SeedSequence]:
    """``count`` independent per-session seed sequences derived from ``seed``."""
    return list(np.random.SeedSequence(seed).spawn(count))


class SimBackend(abc.ABC):
    """Executes batches of :class:`SessionSpec` into playback traces."""

    #: Registry name of the backend (set by subclasses).
    name: str = "base"

    @abc.abstractmethod
    def run_batch(
        self,
        specs: Sequence[SessionSpec],
        config: SessionConfig | None = None,
        *,
        network=None,
        link_usage=None,
    ) -> list[PlaybackTrace]:
        """Simulate every spec; results are returned in spec order.

        With ``network`` (a :class:`~repro.net.topology.NetworkTopology`) the
        batch runs **coupled**: at every slot the sessions actively
        downloading on an edge link fair-share its capacity, so each
        session's observed throughput is the allocator's answer instead of
        its trace value (the trace becomes the session's access-link
        *demand*).  ``link_usage`` (a list) collects one
        :class:`~repro.net.allocator.LinkUsageSample` per link per slot.
        """

    def run(
        self,
        spec: SessionSpec,
        config: SessionConfig | None = None,
        *,
        network=None,
        link_usage=None,
    ) -> PlaybackTrace:
        """Single-session convenience wrapper around :meth:`run_batch`."""
        return self.run_batch([spec], config, network=network, link_usage=link_usage)[0]


class ScalarBackend(SimBackend):
    """Reference backend: one sequential :class:`PlaybackSession` per spec.

    Every segment of every session goes through the one scalar step,
    :meth:`~repro.sim.session.LiveSession.step`.  Un-networked batches run
    each session to completion at its trace values; networked batches route
    through the event-ordered reference engine of :mod:`repro.sim.networked`,
    which interleaves the same step slot by slot at the shared allocator's
    answers.
    """

    name = "scalar"

    def run_batch(
        self,
        specs: Sequence[SessionSpec],
        config: SessionConfig | None = None,
        *,
        network=None,
        link_usage=None,
    ) -> list[PlaybackTrace]:
        if network is not None:
            from repro.sim.networked import run_networked_scalar

            return run_networked_scalar(
                specs, network, config, link_usage=link_usage
            )
        engine = PlaybackSession(config)
        return [
            engine.run(
                spec.abr,
                spec.video,
                spec.trace,
                exit_model=spec.exit_model,
                rng=session_rng(seed),
                user_id=spec.user_id,
            )
            for spec, seed in zip(specs, resolve_session_seeds(specs))
        ]


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_REGISTRY: dict[str, Callable[[], SimBackend]] = {}


def register_backend(name: str, factory: Callable[[], SimBackend]) -> None:
    """Register a backend factory under ``name`` (overwrites silently)."""
    _REGISTRY[name] = factory


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def get_backend(backend: str | SimBackend | None) -> SimBackend:
    """Resolve a backend name (or pass an instance through, or default scalar)."""
    if backend is None:
        return ScalarBackend()
    if isinstance(backend, SimBackend):
        return backend
    try:
        factory = _REGISTRY[backend]
    except KeyError:
        raise KeyError(
            f"unknown backend {backend!r}; available: {available_backends()}"
        ) from None
    return factory()


def run_sessions(
    specs: Sequence[SessionSpec],
    config: SessionConfig | None = None,
    backend: str | SimBackend | None = "scalar",
    network=None,
    link_usage=None,
) -> list[PlaybackTrace]:
    """One-call helper: resolve ``backend`` and run ``specs`` through it."""
    return get_backend(backend).run_batch(
        specs, config, network=network, link_usage=link_usage
    )


register_backend("scalar", ScalarBackend)
