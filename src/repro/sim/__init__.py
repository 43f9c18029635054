"""Playback simulation substrate.

This package implements the streaming substrate that LingXi's Monte-Carlo
evaluator, the pre-deployment simulation experiments (Figure 10) and the
simulated A/B campaigns (Figures 1, 12, 13) all run on:

* :mod:`repro.sim.video` — bitrate ladders and VBR segment-size models.
* :mod:`repro.sim.bandwidth` — bandwidth models and synthetic trace families.
* :mod:`repro.sim.player` — the player-environment transition of Equation 3
  (buffer, stall, waiting time, dynamic ``B_max``).
* :mod:`repro.sim.session` — the segment-by-segment playback loop that joins
  an ABR algorithm, the player and a user exit model into a
  :class:`~repro.sim.session.PlaybackTrace`.
* :mod:`repro.sim.backend` — the pluggable :class:`SimBackend` seam
  (``SessionSpec`` batches in, ``PlaybackTrace`` lists out) with the
  ``"scalar"`` reference backend and per-session `Philox` RNG substreams.
* :mod:`repro.sim.vector` — the ``"vector"`` struct-of-arrays backend that
  advances N sessions per step as pure array math, reproducing the scalar
  engine's traces segment for segment.
* :mod:`repro.sim.networked` — the event-ordered scalar reference engine for
  **networked** batches, where concurrent sessions fair-share
  :mod:`repro.net` edge-link capacity instead of each playing a private
  trace (the vector backend has a matching lockstep mode).
* :mod:`repro.sim.traces` — trace file I/O and bundled synthetic trace sets.
"""

from repro.sim.video import BitrateLadder, Video, VideoLibrary, QUALITY_TIERS
from repro.sim.bandwidth import (
    BandwidthModel,
    BandwidthTrace,
    StationaryTraceGenerator,
    MarkovTraceGenerator,
    LowBandwidthTraceGenerator,
    MixedTraceGenerator,
)
from repro.sim.player import PlayerEnvironment, SegmentResult
from repro.sim.session import (
    PlaybackSession,
    PlaybackTrace,
    SegmentRecord,
    SessionConfig,
)
from repro.sim.traces import generate_trace_set, save_traces, load_traces
from repro.sim.backend import (
    ScalarBackend,
    SessionSpec,
    SimBackend,
    Substream,
    available_backends,
    derive_substreams,
    get_backend,
    register_backend,
    session_rng,
    spawn_session_seeds,
)
from repro.sim.networked import resolve_link_indices, run_networked_scalar
from repro.sim.vector import ExitStepView, VectorBackend, VectorStepContext

__all__ = [
    "resolve_link_indices",
    "run_networked_scalar",
    "ScalarBackend",
    "SessionSpec",
    "SimBackend",
    "Substream",
    "available_backends",
    "derive_substreams",
    "get_backend",
    "register_backend",
    "session_rng",
    "spawn_session_seeds",
    "ExitStepView",
    "VectorBackend",
    "VectorStepContext",
    "BitrateLadder",
    "Video",
    "VideoLibrary",
    "QUALITY_TIERS",
    "BandwidthModel",
    "BandwidthTrace",
    "StationaryTraceGenerator",
    "MarkovTraceGenerator",
    "LowBandwidthTraceGenerator",
    "MixedTraceGenerator",
    "PlayerEnvironment",
    "SegmentResult",
    "PlaybackSession",
    "PlaybackTrace",
    "SegmentRecord",
    "SessionConfig",
    "generate_trace_set",
    "save_traces",
    "load_traces",
]
