"""Persistent worker pool for fleet shards.

A naive process pool pays three taxes on every fleet run: it forks its
workers anew, it pickles each shard with everything the shard closes over
(population, video library, ABR factory and its NN weights), and it pickles
every result as thousands of per-segment objects.  At fleet scale a shard is
milliseconds of vector math, so that overhead dominates and adding workers
makes the run *slower*; ``tests/test_perf_gates.py`` requires a warm
four-worker pool to beat the inline path instead.

:class:`WorkerPool` removes all three taxes:

* **Long-lived workers.**  Processes are forked once (per pool) and reused
  across fleet runs and campaign days.  :func:`shared_pool` hands out one
  process-global pool per worker count, shut down at interpreter exit.
* **Tasks by reference.**  A run ships the same :class:`ShardTask` the
  inline path runs, in its wire form (:meth:`WorkerPool.by_ref`): the
  task's ``SHARED`` fields — population, scenario, library, ABR factory,
  session config, topology — become :class:`CacheRef` tokens, and each of
  those objects crosses the pipe once per pool lifetime
  (:meth:`WorkerPool.cache`).  The rest — ids, seeds, the shard's own
  controller states — pickles to a few hundred bytes.  A task carries no
  user or link lists: the shard runner derives its members from
  ``(population, network, num_shards, shard_index)``.
* **Results as a few buffers.**  A worker pickles the :class:`ShardOutput`
  its ``_run_shard`` returned — the object the inline path returns — and
  sends it back on its pipe as one frame after a small
  ``("result", has_telemetry, pack_time_s)`` header; the pre-encoded
  telemetry JSONL blob follows as a second, raw frame when the run asks
  for telemetry.  Each session's trace pickles as one structured numpy
  array, so a result is a few buffer copies, not a per-segment object
  stream.  One task is in flight per worker: the parent tops a worker up
  only after it has read that worker's whole result, so a worker blocked
  sending a result is never also sent a task it cannot read.

Heartbeats use the same pipe.  Under a live run (:mod:`repro.obs.live`) a
worker sends its shard's rate-limited ``("beat", shard, beat)`` messages
ahead of the result; the drain loop folds them into the parent's
:class:`~repro.obs.live.LiveRun` and keeps waiting on that worker.  Only a
``"result"`` or ``"error"`` frees it.

Determinism: a worker swaps each token back for its cached object and calls
the same ``_run_shard`` on a task equal to the one the inline path runs, so
pooled fleet and longitudinal results are bit-identical to inline runs —
the property pinned by ``tests/test_pool.py`` (contract ``FLEET-SHARD-009``).
"""

from __future__ import annotations

import atexit
import pickle
import time
import traceback
from collections import OrderedDict, deque
from dataclasses import dataclass, fields, replace
from multiprocessing import connection, get_context
from typing import Sequence

from repro import obs
from repro.obs import live as obs_live

#: Worker-side object-cache capacity (heavy objects: libraries, factories,
#: populations, topologies).  LRU eviction, driven by the parent.
CACHE_CAPACITY = 32


class PoolError(RuntimeError):
    """Base class for worker-pool failures."""


class WorkerCrashError(PoolError):
    """A worker process died without reporting a result."""


class ShardTaskError(PoolError):
    """A shard raised inside a worker; carries the worker traceback."""


@dataclass(frozen=True)
class CacheRef:
    """Handle to an object registered in every worker's cache."""

    token: int


# --------------------------------------------------------------------------- #
# Worker process
# --------------------------------------------------------------------------- #
def _resolve_refs(task, cache: dict):
    """``task`` with every :class:`CacheRef` field swapped for its cached
    object — the inverse of :meth:`WorkerPool.by_ref`."""
    return replace(
        task,
        **{
            f.name: cache[value.token]
            for f in fields(task)
            if isinstance(value := getattr(task, f.name), CacheRef)
        },
    )


def _worker_main(parent_conn, conn) -> None:  # contract: SHM-005
    """Worker loop: resolve tasks, run shards, send heartbeats and each
    result back as frames on the pipe; exits on ``"stop"`` or when the
    parent closes it."""
    parent_conn.close()
    obs.disable()  # a fork may inherit an enabled parent collector
    from repro.fleet.orchestrator import _run_shard
    from repro.fleet.telemetry import encode_shard_events

    cache: dict[int, object] = {}
    try:
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "stop":
                break
            elif kind == "cache":
                cache[message[1]] = message[2]
            elif kind == "uncache":
                cache.pop(message[1], None)
            elif kind == "run":
                _, task, encode_telemetry, heartbeat = message
                obs_live.publish_to_pipe(conn, heartbeat)
                try:
                    output = _run_shard(_resolve_refs(task, cache))
                    telemetry = None
                    if encode_telemetry:
                        # A profiled shard's snapshot gains the encode span.
                        with obs.collect() as collector:
                            if output.obs is not None:
                                collector.merge_snapshot(output.obs)
                            telemetry = encode_shard_events(task.run_id, output)
                        if output.obs is not None:
                            output.obs = collector.snapshot()
                    # The pack: the pickle, nothing else.
                    start = time.perf_counter()  # contract: DET-CLOCK-002 exempt(pack-time telemetry only; excluded from bit-exact comparison)
                    result = pickle.dumps(output, protocol=5)
                    pack_time_s = time.perf_counter() - start  # contract: DET-CLOCK-002 exempt(pack-time telemetry only; excluded from bit-exact comparison)
                except Exception:
                    conn.send(("error", task.shard_index, traceback.format_exc()))
                    continue
                conn.send(("result", telemetry is not None, pack_time_s))
                conn.send_bytes(result)
                if telemetry is not None:
                    conn.send_bytes(telemetry)
                # Free this shard before the next one is built, so a
                # worker's peak holds one shard's objects, not two.
                del output, telemetry, result
            else:
                raise ValueError(f"unknown pool message kind {kind!r}")
    except (EOFError, OSError):
        pass  # the parent closed the pipe: the pool is shutting down
    finally:
        conn.close()


# --------------------------------------------------------------------------- #
# Parent-side pool
# --------------------------------------------------------------------------- #
class WorkerPool:
    """Persistent pool of forked shard workers.

    Create once, call :meth:`run` many times (fleet runs, campaign days),
    :meth:`shutdown` when done — or use :func:`shared_pool`, which owns one
    process-global pool per worker count and shuts them down at exit.
    """

    def __init__(self, num_workers: int) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.num_workers = num_workers
        self.closed = False
        self._context = get_context("fork")
        self._cache: OrderedDict[int, tuple[object, int]] = OrderedDict()
        self._next_token = 0
        self._processes = []
        self._conns = []
        for index in range(num_workers):
            parent_conn, child_conn = self._context.Pipe(duplex=True)
            process = self._context.Process(
                target=_worker_main,
                args=(parent_conn, child_conn),
                name=f"fleet-pool-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._processes.append(process)
            self._conns.append(parent_conn)

    # -- object cache -------------------------------------------------------
    def cache(self, obj) -> CacheRef:
        """Register ``obj`` in every worker's cache (idempotent per object).

        Identity-keyed with a strong reference, so a library or factory used
        across many runs/days is pickled to each worker exactly once.  LRU
        beyond :data:`CACHE_CAPACITY` entries.
        """
        self._ensure_open()
        key = id(obj)
        entry = self._cache.get(key)
        if entry is not None and entry[0] is obj:
            self._cache.move_to_end(key)
            return CacheRef(entry[1])
        token = self._next_token
        self._next_token += 1
        self._broadcast(("cache", token, obj))
        self._cache[key] = (obj, token)
        while len(self._cache) > CACHE_CAPACITY:
            _, (_, old_token) = self._cache.popitem(last=False)
            self._broadcast(("uncache", old_token))
        return CacheRef(token)

    def by_ref(self, task):
        """Wire form of a shard task: each of its ``SHARED`` fields swapped
        for a :class:`CacheRef` (see :meth:`cache`).

        What is left — ids, seeds, the shard's own controller states —
        pickles to a few hundred bytes whatever the fleet size.
        """
        return replace(
            task,
            **{
                name: self.cache(value)
                for name in task.SHARED
                if (value := getattr(task, name)) is not None
            },
        )

    # -- execution ----------------------------------------------------------
    def run(
        self,
        tasks: Sequence,
        *,
        telemetry: bool = False,
        live: obs_live.LiveRun | None = None,
    ) -> list:
        """Execute wire-form tasks (:meth:`by_ref`) across the workers;
        outputs in shard order.

        ``telemetry`` makes every worker pre-encode its shard's telemetry
        events and send them after the output, so the parent streams them
        to disk without re-serialising.  ``live`` is the parent's
        :class:`repro.obs.live.LiveRun`, or ``None``: the workers heartbeat
        at its interval over their pipes and the drain folds the beats into
        it.  Beats are wall-clock only, so pooled results stay bit-identical.

        Emits the ``pool.dispatch``/``pool.drain`` spans and the
        ``pool.*_bytes`` counters.  Raises :class:`ShardTaskError` when a
        shard raised in a worker (in-flight shards are drained first, so the
        pool stays reusable) and :class:`WorkerCrashError` when a worker
        died (the pool is shut down: a fresh :func:`shared_pool` call
        replaces it).
        """
        self._ensure_open()
        heartbeat = live.interval if live is not None else None
        queues: list[deque] = [deque() for _ in range(self.num_workers)]
        for index, task in enumerate(tasks):
            queues[index % self.num_workers].append(
                ("run", task, telemetry, heartbeat)
            )

        # connection -> worker, for each worker with a task in flight
        busy: dict[connection.Connection, int] = {}
        with obs.span("pool.dispatch"):
            obs.gauge_max("pool.workers", self.num_workers)
            if obs.enabled():
                obs.counter_add(
                    "pool.dispatch_bytes",
                    sum(len(pickle.dumps(task)) for task in tasks),
                )
            for worker, queue in enumerate(queues):
                if queue:
                    self._send(worker, queue.popleft())
                    busy[self._conns[worker]] = worker

        with obs.span("pool.drain"):
            try:
                outputs, failures = self._drain(queues, busy, live)
            except BaseException as exc:
                # Results left in the pipes would leak into the next run, so
                # a pool that cannot finish draining closes.
                self.shutdown()
                if isinstance(exc, PoolError) or not isinstance(exc, Exception):
                    raise
                raise PoolError(
                    f"draining pool results failed ({exc!r}); "
                    "pool shut down — acquire a fresh one"
                ) from exc
        if failures:
            shard_index, worker_traceback = failures[0]
            raise ShardTaskError(
                f"shard {shard_index} failed in pool worker "
                f"({len(failures)} failure(s) total):\n{worker_traceback}"
            )
        outputs.sort(key=lambda output: output.shard_index)
        return outputs

    def _drain(
        self,
        queues: list[deque],
        busy: dict[connection.Connection, int],
        live: obs_live.LiveRun | None,
    ) -> tuple[list, list]:
        """Read every busy worker's messages, folding heartbeats into
        ``live`` and topping a worker up from its queue once its whole result
        is read, until the first shard failure; ``(outputs, failures)``."""
        outputs = []
        failures: list[tuple[int, str]] = []
        while busy:
            ready = connection.wait(list(busy), timeout=0.2)
            if not ready:
                self._check_alive()
                continue
            for conn in ready:
                worker = busy[conn]
                try:
                    message = conn.recv()
                    if message[0] == "beat":
                        live.apply_beat(*message[1:])
                        continue
                    if message[0] == "result":
                        outputs.append(self._receive_result(conn, *message[1:]))
                except (EOFError, OSError):
                    self._reap_crash(worker)
                del busy[conn]
                if message[0] == "error":
                    failures.append(message[1:])
                if not failures and queues[worker]:
                    self._send(worker, queues[worker].popleft())
                    busy[conn] = worker
        return outputs, failures

    def _receive_result(self, conn, has_telemetry: bool, pack_time_s: float):
        """Read the frames after a ``"result"`` header: the pickled
        :class:`ShardOutput`, then its telemetry blob if the run asked for it."""
        result = conn.recv_bytes()
        output = pickle.loads(result)
        obs.counter_add("pool.result_bytes", len(result))
        if has_telemetry:
            output.telemetry_blob = conn.recv_bytes()
            obs.counter_add("pool.telemetry_bytes", len(output.telemetry_blob))
        obs.observe("pool.shard_pack_seconds", pack_time_s)
        return output

    # -- failure handling ---------------------------------------------------
    def _check_alive(self) -> None:
        for worker, process in enumerate(self._processes):
            if not process.is_alive():
                self._reap_crash(worker)

    def _reap_crash(self, worker: int) -> None:
        """A worker died mid-run: shut the pool down and raise."""
        self.shutdown()
        raise WorkerCrashError(
            f"pool worker {worker} died "
            f"(exitcode {self._processes[worker].exitcode}); "
            "pool shut down — acquire a fresh one"
        )

    # -- lifecycle ----------------------------------------------------------
    def _ensure_open(self) -> None:
        if self.closed:
            raise PoolError("worker pool is closed")

    def _broadcast(self, message) -> None:
        for worker in range(self.num_workers):
            self._send(worker, message)

    def _send(self, worker: int, message) -> None:
        try:
            self._conns[worker].send(message)
        except OSError:
            self._reap_crash(worker)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop all workers: ``"stop"`` and a closed pipe first, then
        terminate, then kill (a stopped process ignores SIGTERM).  Idempotent.
        """
        if self.closed:
            return
        self.closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except OSError:
                pass
            # Closing also frees a worker blocked on sending a result that
            # will never be read: its send fails and it exits.
            conn.close()
        deadline = time.monotonic() + timeout  # contract: DET-CLOCK-002 exempt(shutdown deadline only; never reaches simulation state)
        for process in self._processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))  # contract: DET-CLOCK-002 exempt(shutdown deadline only; never reaches simulation state)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join()
        self._cache.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# --------------------------------------------------------------------------- #
# Process-global shared pools
# --------------------------------------------------------------------------- #
_SHARED_POOLS: dict[int, WorkerPool] = {}


def shared_pool(num_workers: int) -> WorkerPool:
    """The process-global persistent pool for ``num_workers`` workers.

    Created on first use, reused by every subsequent fleet run and campaign
    day with the same worker count, replaced transparently if its workers
    died, shut down at interpreter exit.
    """
    pool = _SHARED_POOLS.get(num_workers)
    if pool is not None and not pool.closed:
        return pool
    pool = WorkerPool(num_workers)
    _SHARED_POOLS[num_workers] = pool
    return pool


def shutdown_shared_pools() -> None:
    """Shut down every process-global pool (also runs at interpreter exit)."""
    for pool in list(_SHARED_POOLS.values()):
        pool.shutdown()
    _SHARED_POOLS.clear()


atexit.register(shutdown_shared_pools)
