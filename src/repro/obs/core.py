"""Span tracing and the process-local observability state.

The runtime half of :mod:`repro.obs`: a module-level *active collector*
(``None`` when observability is disabled — the default), a
:func:`span` context manager that records a wall-time call tree, and the
counter/gauge/histogram helpers the instrumented hot paths call.

Design constraints, in priority order:

1. **Trace neutrality.**  Nothing here touches simulation state or RNG
   streams; spans only read ``time.perf_counter``.  Golden traces are
   bit-exact with observability on or off.
2. **Cheap when disabled.**  Every helper starts with one global read and
   a ``None`` check; :func:`span` returns a shared no-op context manager,
   so a disabled ``with span(...)`` costs a function call and the ``with``
   protocol — nanoseconds against the array math it wraps.
3. **Deterministic merging.**  Span trees merge by node name (counts and
   totals add, children union), and the serialised form sorts children by
   name, so the merged tree of a fleet run has the same *structure* for
   any shard/worker count executing the same workload.

Spans nest through a per-collector stack: ``span("a")`` inside
``span("b")`` produces the tree path ``b → a``, one node per distinct name
per parent, accumulating ``count`` and ``total_s`` across invocations.
Self time is derived at reporting: ``total_s`` minus the children's.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from repro.obs.registry import MetricsRegistry


class SpanNode:
    """One node of a span tree: a named phase and its accumulated wall time."""

    __slots__ = ("name", "count", "total_s", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.children: dict[str, SpanNode] = {}

    def child(self, name: str) -> "SpanNode":
        """Find or create the child span node called ``name``."""
        node = self.children.get(name)
        if node is None:
            node = SpanNode(name)
            self.children[name] = node
        return node

    def as_payload(self, pending: "dict[int, float] | None" = None) -> dict:
        """JSON form; children sorted by name for cross-process determinism.

        ``pending`` maps ``id(node) -> extra seconds`` for spans that are
        still open when the snapshot is taken (their in-flight elapsed time
        is added so a report written mid-span still accounts for it).
        """
        extra = pending.get(id(self), 0.0) if pending else 0.0
        return {
            "name": self.name,
            "count": self.count + (1 if extra else 0),
            "total_s": self.total_s + extra,
            "children": [
                self.children[name].as_payload(pending)
                for name in sorted(self.children)
            ],
        }

    def merge_payload(self, payload: dict) -> None:
        """Fold a serialised span node (same name) into this node."""
        self.count += int(payload["count"])
        self.total_s += float(payload["total_s"])
        for child in payload.get("children", []):
            self.child(str(child["name"])).merge_payload(child)


class Collector:
    """Process-local observability state: one metrics registry + span tree."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.root = SpanNode("")
        #: Stack of ``(node, perf_counter at entry)`` for open spans; the
        #: root sentinel never closes.
        self.stack: list[tuple[SpanNode, float]] = [(self.root, 0.0)]

    def snapshot(self) -> dict:
        """Serialise the collector (open spans include in-flight elapsed)."""
        now = time.perf_counter()
        pending: dict[int, float] = {}
        for node, started in self.stack[1:]:
            pending[id(node)] = pending.get(id(node), 0.0) + (now - started)
        return {
            "metrics": self.metrics.as_payload(),
            "spans": self.root.as_payload(pending),
        }

    def merge_snapshot(self, payload: dict) -> None:
        """Fold another collector's snapshot into this one.

        Metrics merge per key; the snapshot's span tree is grafted under the
        *currently open* span (the stack top), so a shard's ``shard.run``
        tree lands beneath the orchestrator's ``fleet.run_shards`` phase.
        """
        self.metrics.merge(payload.get("metrics", {}))
        parent = self.stack[-1][0]
        for child in payload.get("spans", {}).get("children", []):
            parent.child(str(child["name"])).merge_payload(child)


class _Span:
    """Live context manager for one span invocation."""

    __slots__ = ("collector", "name")

    def __init__(self, collector: Collector, name: str) -> None:
        self.collector = collector
        self.name = name

    def __enter__(self) -> None:
        stack = self.collector.stack
        node = stack[-1][0].child(self.name)
        stack.append((node, time.perf_counter()))

    def __exit__(self, *exc_info) -> None:
        node, started = self.collector.stack.pop()
        node.count += 1
        node.total_s += time.perf_counter() - started


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NOOP_SPAN = _NoopSpan()

#: The process's active collector; ``None`` → observability disabled.
_ACTIVE: Collector | None = None


def enabled() -> bool:
    """True when an observability collector is active in this process."""
    return _ACTIVE is not None


def active() -> Collector | None:
    """The active collector (``None`` when disabled)."""
    return _ACTIVE


def enable() -> Collector:
    """Install (and return) a fresh active collector."""
    global _ACTIVE
    _ACTIVE = Collector()
    return _ACTIVE


def disable() -> Collector | None:
    """Deactivate observability; returns the collector that was active."""
    global _ACTIVE
    collector, _ACTIVE = _ACTIVE, None
    return collector


@contextmanager
def collect() -> Iterator[Collector]:
    """Scope with a *fresh* collector installed; restores the previous one.

    Shard workers use this so their instrumentation lands in a private
    collector regardless of what the (forked) parent process had active —
    the serialised snapshot travels back with the shard result and the
    orchestrator merges it explicitly.
    """
    global _ACTIVE
    previous = _ACTIVE
    collector = Collector()
    _ACTIVE = collector
    try:
        yield collector
    finally:
        _ACTIVE = previous


def span(name: str):
    """Context manager timing one invocation of the named phase.

    Nested spans build a call tree on the active collector; when
    observability is disabled this returns a shared no-op object.
    """
    collector = _ACTIVE
    if collector is None:
        return _NOOP_SPAN
    return _Span(collector, name)


def counter_add(name: str, value: int | float = 1) -> None:
    """Add to a counter on the active collector (no-op when disabled)."""
    collector = _ACTIVE
    if collector is not None:
        collector.metrics.counter_add(name, value)


def gauge_max(name: str, value: float) -> None:
    """Raise a high-water-mark gauge (no-op when disabled)."""
    collector = _ACTIVE
    if collector is not None:
        collector.metrics.gauge_max(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram observation (no-op when disabled)."""
    collector = _ACTIVE
    if collector is not None:
        collector.metrics.observe(name, value)


def merge_shard_snapshot(payload: dict | None) -> None:
    """Merge a shard worker's snapshot into the active collector.

    No-op when disabled or when the shard carried no snapshot (it ran with
    profiling off).
    """
    collector = _ACTIVE
    if collector is not None and payload is not None:
        collector.merge_snapshot(payload)
