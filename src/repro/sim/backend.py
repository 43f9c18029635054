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

A resolved seed is any numpy ``ISeedSequence``: a ``SeedSequence``, or a
:class:`Substream` from :func:`derive_substreams`, which hashes a whole
batch of spawn keys in one pass of ``uint32`` column arithmetic and equals
``SeedSequence(entropy, spawn_key=key)`` word for word, so which of the two
a caller builds never moves a bit.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
SeedLike = int | None | ISeedSequence


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


def session_rng(seed: int | ISeedSequence) -> np.random.Generator:
    # contract: DET-RNG-001
    """Per-session `Philox` substream generator for a resolved spec seed.

    Both backends build session RNGs exclusively through this function, so a
    spec's stream of exit-decision uniforms is identical no matter which
    backend executes it (or in what order the batch is processed).  An int
    seeds ``SeedSequence(seed)``, exactly as ``Philox`` itself does.
    """
    return np.random.Generator(np.random.Philox(seed))


# numpy's SeedSequence constants (``numpy/random/bit_generator.pyx``).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
#: State words precomputed per substream: ``PCG64`` asks for 8 ``uint32``
#: words and ``Philox`` for 4; a longer request falls back to a
#: ``SeedSequence``.
_STATE_WORDS = 8
_UINT32 = np.dtype(np.uint32)
_UINT64 = np.dtype(np.uint64)


def _hash(values: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """numpy's ``hashmix`` (``mult=_MULT_A``) and ``generate_state`` step
    (``mult=_MULT_B``) on a ``uint32`` column; also returns the next hash
    constant, which depends on the step count only, never on the data."""
    values = values ^ np.uint32(const)
    const = (const * mult) & _MASK32
    values = values * np.uint32(const)
    return values ^ (values >> _XSHIFT), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def derive_substreams(entropy: int, spawn_keys) -> list["Substream"]:
    """One :class:`Substream` per row of ``spawn_keys``; row ``i`` equals
    ``SeedSequence(entropy, spawn_key=tuple(spawn_keys[i]))``.

    ``spawn_keys`` is a 2-D array-like of ``uint32`` words, one key per row
    (child ``i`` of ``SeedSequence(entropy, spawn_key=key).spawn(...)`` has
    key ``key + (i,)``).  numpy's entropy mixing runs once over all rows as
    column arithmetic, so a batch costs a few dozen array operations instead
    of one ``SeedSequence`` per row.
    """
    entropy = int(entropy)
    if entropy < 0:
        raise ValueError("entropy must be a non-negative integer")
    keys = np.asarray(spawn_keys)
    if keys.ndim != 2:
        raise ValueError("spawn_keys must be 2-D: one spawn key per row")
    if keys.size and (keys.dtype.kind not in "iu" or keys.min() < 0 or keys.max() > _MASK32):
        raise ValueError("spawn key elements must be integers in [0, 2**32)")
    rows, key_len = keys.shape
    keys = keys.astype(np.uint32)

    # numpy's get_assembled_entropy: the entropy's little-endian words
    # (``[0]`` for 0), zero-padded to the pool size under a spawn key, then
    # the key's words.
    run = [
        (entropy >> shift) & _MASK32
        for shift in range(0, max(entropy.bit_length(), 1), 32)
    ]
    if key_len and len(run) < _POOL_SIZE:
        run += [0] * (_POOL_SIZE - len(run))
    assembled = [np.full(rows, word, dtype=np.uint32) for word in run]
    assembled += [keys[:, j] for j in range(key_len)]

    # numpy's mix_entropy.
    const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        column = assembled[i] if i < len(assembled) else np.zeros(rows, np.uint32)
        mixed, const = _hash(column, const, _MULT_A)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    for column in assembled[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, const = _hash(column, const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)

    # numpy's generate_state: the first _STATE_WORDS words, kept as the
    # little-endian uint64 pairs numpy reads them as.
    words = np.empty((rows, _STATE_WORDS), dtype="<u4")
    const = _INIT_B
    for i in range(_STATE_WORDS):
        words[:, i], const = _hash(pool[i % _POOL_SIZE], const, _MULT_B)
    state = words.view("<u8")
    return [Substream(entropy, keys, state, row) for row in range(rows)]


class Substream:
    """One row of a :func:`derive_substreams` batch: a numpy
    ``ISeedSequence`` equal to ``SeedSequence(entropy, spawn_key=spawn_key)``.

    It holds its entropy and its row of the batch's shared key and state
    arrays, nothing else, so ``Generator(Philox(substream))`` skips numpy's
    hashing.  A request for more state words than the batch holds falls back
    to a real ``SeedSequence``.
    """

    __slots__ = ("entropy", "_keys", "_state", "_row")

    def __init__(self, entropy: int, keys: np.ndarray, state: np.ndarray, row: int) -> None:
        self.entropy = entropy
        self._keys = keys
        self._state = state
        self._row = row

    @property
    def spawn_key(self) -> tuple[int, ...]:
        return tuple(self._keys[self._row].tolist())

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        """numpy's ``SeedSequence.generate_state``, served from the batch."""
        out_dtype = np.dtype(dtype)
        if out_dtype == _UINT64 and 0 <= n_words <= _STATE_WORDS // 2:
            return self._state[self._row, :n_words].astype(np.uint64)
        if out_dtype == _UINT32 and 0 <= n_words <= _STATE_WORDS:
            return self._state[self._row].view("<u4")[:n_words].astype(np.uint32)
        return np.random.SeedSequence(
            self.entropy, spawn_key=self.spawn_key
        ).generate_state(n_words, dtype)

    def __reduce__(self):
        return _rebuild_substream, (self.entropy, self.spawn_key)


def _rebuild_substream(entropy: int, spawn_key: tuple[int, ...]) -> Substream:
    """Unpickle one :class:`Substream` on its own, not its whole batch."""
    return derive_substreams(entropy, np.asarray([spawn_key], dtype=np.uint32))[0]


ISeedSequence.register(Substream)


def resolve_session_seeds(specs: Sequence[SessionSpec]) -> list[ISeedSequence]:
    """One seed sequence per spec, in batch order.

    Explicit seeds pass through; unseeded specs get substreams keyed by their
    batch position, so a batch of default-constructed specs draws independent
    randomness per session.  Both backends resolve seeds against the
    *original* batch order before any regrouping, which keeps a spec's stream
    independent of execution strategy.
    """
    return [
        spec.seed
        if isinstance(spec.seed, ISeedSequence)
        else np.random.SeedSequence(spec.seed)
        if spec.seed is not None
        else np.random.SeedSequence(0, spawn_key=(index,))
        for index, spec in enumerate(specs)
    ]


def spawn_session_seeds(seed: int, count: int) -> list[np.random.SeedSequence]:
    """``count`` independent per-session seed sequences derived from ``seed``."""
    return list(np.random.SeedSequence(seed).spawn(count))


# contract: SIM-BATCH-008
class SimBackend(abc.ABC):
    """Executes batches of :class:`SessionSpec` into playback traces.

    :meth:`run_batch` is the only way code outside :mod:`repro.sim` plays
    sessions (``SIM-BATCH-008`` in CONTRACTS.md).
    """

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


register_backend("scalar", ScalarBackend)
