"""Persistent shared-memory worker pool for fleet shards.

A naive process pool pays three taxes on every fleet run: it forks its
workers anew, it pickles each shard with everything the shard closes over
(population, video library, ABR factory and its NN weights), and it pushes
every pickled :class:`ShardOutput` back through the result pipe.  At fleet
scale a shard is milliseconds of vector math, so that overhead dominates
and adding workers makes the run *slower* — the anti-scaling recorded in
``benchmarks/baselines``.

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
* **Shared-memory results.**  A worker pickles the :class:`ShardOutput`
  its ``_run_shard`` returned — the object the inline path returns — into
  one of its two shared-memory arenas, followed by the pre-encoded
  telemetry JSONL blob as raw bytes when the run asks for telemetry.  Only
  the arena name, the slot, the two lengths and two pack statistics cross
  the pipe.  The parent unpickles the output, copies the blob out, and acks
  the slot so the worker may reuse it; results never fill the pipe, and a
  worker packs its next shard while the parent drains the last one.

Determinism: a worker swaps each token back for its cached object and calls
the same ``_run_shard`` on a task equal to the one the inline path runs, so
pooled fleet and longitudinal results are bit-identical to inline runs —
the property pinned by ``tests/test_pool.py`` (contract ``FLEET-SHARD-009``).

Resource-tracker hygiene: ``resource_tracker.ensure_running()`` is called
before the first fork, so parent and workers share one tracker process and
one registry entry per segment (the set in the tracker dedups the attach-side
re-register).  Arenas are unlinked exactly once, by their creating worker on
graceful shutdown (or by the parent when it reaps a crashed worker), so a
clean shutdown leaves no segments and no tracker warnings behind.
"""

from __future__ import annotations

import atexit
import pickle
import secrets
import time
import traceback
from collections import OrderedDict, deque
from dataclasses import dataclass, fields, replace
from multiprocessing import connection, get_context, resource_tracker, shared_memory
from typing import Sequence

from repro import obs
from repro.obs import live as obs_live

#: Arena slots per worker: double buffering lets a worker start its next
#: shard while the parent is still draining the previous one.
ARENAS_PER_WORKER = 2

#: Smallest arena allocation; arenas grow geometrically and never shrink.
MIN_ARENA_BYTES = 1 << 20

#: Tasks in flight per worker.  Two keeps every worker busy while the
#: parent drains, and bounds both pipe directions so dispatch can never
#: deadlock against a worker blocked on sending a result.
MAX_INFLIGHT = 2

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


def _worker_main(parent_conn, conn, worker_index: int, shm_prefix: str) -> None:
    """Worker loop: resolve tasks, run shards, pack results into
    shared-memory arenas, alternate slots under the parent's ack protocol."""
    parent_conn.close()
    obs.disable()  # a fork may inherit an enabled parent collector
    obs_live.reset_after_fork()  # ...and an inherited LiveRun/publisher
    from repro.fleet.orchestrator import _run_shard
    from repro.fleet.telemetry import encode_shard_events

    cache: dict[int, object] = {}
    arenas: list[shared_memory.SharedMemory | None] = [None] * ARENAS_PER_WORKER
    acked = [True] * ARENAS_PER_WORKER
    backlog: deque = deque()
    task_count = 0

    def next_message():
        return backlog.popleft() if backlog else conn.recv()

    def wait_for_ack(slot: int) -> bool:
        """Block until the parent has drained ``slot``; False on stop/EOF."""
        while not acked[slot]:
            try:
                message = conn.recv()
            except EOFError:
                return False
            if message[0] == "ack":
                acked[message[1]] = True
            elif message[0] == "stop":
                return False
            else:
                backlog.append(message)
        return True

    try:
        while True:
            try:
                message = next_message()
            except EOFError:
                break
            kind = message[0]
            if kind == "stop":
                break
            elif kind == "cache":
                cache[message[1]] = message[2]
            elif kind == "uncache":
                cache.pop(message[1], None)
            elif kind == "ack":
                acked[message[1]] = True
            elif kind == "run":
                _, task, encode_telemetry, heartbeat = message
                try:
                    if heartbeat is not None:
                        # Lazy re-attach: the run's progress table was created
                        # after this worker forked, so it arrives by name.
                        obs_live.attach_worker(*heartbeat)
                    output = _run_shard(_resolve_refs(task, cache))
                    telemetry = (
                        encode_shard_events(task.run_id, output)
                        if encode_telemetry
                        else None
                    )
                    slot = task_count % ARENAS_PER_WORKER
                    task_count += 1
                    if not wait_for_ack(slot):
                        break
                    # The pack: the pickle and the arena write, nothing else.
                    start = time.perf_counter()  # contract: DET-CLOCK-002 exempt(pack-time telemetry only; excluded from bit-exact comparison)
                    result = pickle.dumps(output, protocol=5)
                    telemetry_len = None if telemetry is None else len(telemetry)
                    nbytes = len(result) + (telemetry_len or 0)
                    arena = arenas[slot]
                    if arena is None or arena.size < nbytes:
                        if arena is not None:
                            arena.close()
                            arena.unlink()
                            # Forget it now: if the create below fails, the
                            # slot must not keep an unlinked, closed arena.
                            arenas[slot] = None
                        capacity = max(
                            MIN_ARENA_BYTES,
                            arena.size * 2 if arena is not None else 0,
                            nbytes,
                        )
                        # contract: SHM-005 exempt(creating worker unlinks on growth and in its finally; parent reaps via _reap_crash and terminated-worker shutdown)
                        arena = shared_memory.SharedMemory(
                            name=f"{shm_prefix}{worker_index}_{task_count}",
                            create=True,
                            size=capacity,
                        )
                        arenas[slot] = arena
                    arena.buf[: len(result)] = result
                    if telemetry is not None:
                        arena.buf[len(result) : nbytes] = telemetry
                    pack_time_s = time.perf_counter() - start  # contract: DET-CLOCK-002 exempt(pack-time telemetry only; excluded from bit-exact comparison)
                    acked[slot] = False
                    conn.send(
                        (
                            "result",
                            slot,
                            arena.name,
                            len(result),
                            telemetry_len,
                            pack_time_s,
                            nbytes,
                        )
                    )
                    # Free this shard before the next one is built, so a
                    # worker's peak holds one shard's objects, not two.
                    del output, telemetry, result
                except Exception:
                    conn.send(
                        ("error", task.shard_index, traceback.format_exc())
                    )
            else:  # pragma: no cover - protocol guard
                conn.send(("error", -1, f"unknown message kind {kind!r}"))
    finally:
        for arena in arenas:
            if arena is not None:
                arena.close()
                arena.unlink()
        conn.close()


# --------------------------------------------------------------------------- #
# Parent-side pool
# --------------------------------------------------------------------------- #
class WorkerPool:
    """Persistent pool of forked shard workers with shared-memory results.

    Create once, call :meth:`run` many times (fleet runs, campaign days),
    :meth:`shutdown` when done — or use :func:`shared_pool`, which owns one
    process-global pool per worker count and shuts them down at exit.
    """

    def __init__(self, num_workers: int) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        # One resource tracker for the whole process tree: start it before
        # forking so worker-side segment registration lands in the same
        # registry the parent's (sole) unlink balances.
        resource_tracker.ensure_running()
        self.num_workers = num_workers
        # Arena names: rpool_<token>_<worker>_<task>, unique to this pool.
        self.shm_prefix = f"rpool_{secrets.token_hex(4)}_"
        self.closed = False
        self._context = get_context("fork")
        self._cache: OrderedDict[int, tuple[object, int]] = OrderedDict()
        self._next_token = 0
        #: (worker, slot) -> (arena name, parent-side attachment)
        self._attachments: dict[tuple[int, int], tuple[str, shared_memory.SharedMemory]] = {}
        self._processes = []
        self._conns = []
        for index in range(num_workers):
            parent_conn, child_conn = self._context.Pipe(duplex=True)
            process = self._context.Process(
                target=_worker_main,
                args=(parent_conn, child_conn, index, self.shm_prefix),
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
        heartbeat: tuple | None = None,
    ) -> list:
        """Execute wire-form tasks (:meth:`by_ref`) across the workers;
        outputs in shard order.

        ``telemetry`` makes every worker pre-encode its shard's telemetry
        events into the arena, so the parent streams them to disk without
        re-serialising.  ``heartbeat`` is the ``(shm_name, interval_s)``
        token of the parent's :class:`repro.obs.live.LiveRun` progress
        table, or ``None``; workers attach lazily by name (they were forked
        before the run existed) and publish wall-clock heartbeats only, so
        pooled results stay bit-identical.

        Emits the ``pool.dispatch``/``pool.drain`` spans and the
        ``pool.shm_*`` byte counters.  Raises :class:`ShardTaskError` when a
        shard raised in a worker (remaining in-flight shards are drained
        first, so the pool stays reusable) and :class:`WorkerCrashError` when
        a worker died (the pool is shut down: a fresh :func:`shared_pool`
        call replaces it).
        """
        self._ensure_open()
        queues: list[deque] = [deque() for _ in range(self.num_workers)]
        inflight = [0] * self.num_workers
        for index, task in enumerate(tasks):
            queues[index % self.num_workers].append(
                ("run", task, telemetry, heartbeat)
            )

        with obs.span("pool.dispatch"):
            obs.gauge_max("pool.workers", self.num_workers)
            if obs.enabled():
                obs.counter_add(
                    "pool.dispatch_bytes",
                    sum(len(pickle.dumps(task)) for task in tasks),
                )
            for worker in range(self.num_workers):
                while inflight[worker] < MAX_INFLIGHT and queues[worker]:
                    self._send(worker, queues[worker].popleft())
                    inflight[worker] += 1

        with obs.span("pool.drain"):
            try:
                outputs, failures = self._drain(queues, inflight)
            except BaseException as exc:
                # Unacked slots and results left in the pipes would leak into
                # the next run, so a pool that cannot finish draining closes.
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

    def _drain(self, queues: list[deque], inflight: list[int]) -> tuple[list, list]:
        """Collect every in-flight result, topping workers up from ``queues``
        until the first shard failure; ``(outputs, failures)``."""
        outputs = []
        failures: list[tuple[int, str]] = []
        conn_worker = {id(conn): w for w, conn in enumerate(self._conns)}
        while sum(inflight) > 0:
            ready = connection.wait(
                [self._conns[w] for w in range(self.num_workers) if inflight[w] > 0],
                timeout=0.2,
            )
            if not ready:
                self._check_alive()
                continue
            for conn in ready:
                worker = conn_worker[id(conn)]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    self._reap_crash(worker)
                if message[0] == "result":
                    outputs.append(self._drain_result(worker, *message[1:]))
                    self._send(worker, ("ack", message[1]))
                elif message[0] == "error":
                    failures.append((message[1], message[2]))
                inflight[worker] -= 1
                if not failures and queues[worker]:
                    self._send(worker, queues[worker].popleft())
                    inflight[worker] += 1
        return outputs, failures

    def _drain_result(
        self, worker, slot, name, result_len, telemetry_len, pack_time_s, result_bytes
    ):
        """Unpickle one shard's :class:`ShardOutput` from its arena slot and
        copy its telemetry blob out; nothing returned refers to the arena."""
        arena = self._attach(worker, slot, name)
        with arena.buf[:result_len] as view:
            output = pickle.loads(view)
        if telemetry_len is not None:
            end = result_len + telemetry_len
            output.telemetry_blob = bytes(arena.buf[result_len:end])
            obs.counter_add("pool.shm_telemetry_bytes", telemetry_len)
        obs.counter_add("pool.shm_result_bytes", result_bytes)
        obs.gauge_max("pool.shm_arena_bytes", arena.size)
        obs.observe("pool.shard_pack_seconds", pack_time_s)
        return output

    def _attach(self, worker: int, slot: int, name: str) -> shared_memory.SharedMemory:
        """Parent-side arena attachment, cached per (worker, slot).

        The attachment is only ever ``close()``d, never unlinked: the worker
        owns the segment's lifetime (it unlinks on growth and on shutdown).
        """
        key = (worker, slot)
        cached = self._attachments.get(key)
        if cached is not None:
            cached_name, cached_shm = cached
            if cached_name == name:
                return cached_shm
            cached_shm.close()  # worker grew the arena; stale mapping
        shm = shared_memory.SharedMemory(name=name)
        self._attachments[key] = (name, shm)
        return shm

    # -- failure handling ---------------------------------------------------
    def _check_alive(self) -> None:
        for worker, process in enumerate(self._processes):
            if not process.is_alive():
                self._reap_crash(worker)

    def _reap_crash(self, worker: int) -> None:
        """A worker died mid-run: unlink its orphaned arenas, kill the pool."""
        exitcode = self._processes[worker].exitcode
        for (owner, slot), (name, shm) in list(self._attachments.items()):
            if owner == worker:
                shm.close()
                try:
                    shm.unlink()  # the dead creator cannot; reap its segments
                except FileNotFoundError:
                    pass
                del self._attachments[(owner, slot)]
        self.shutdown()
        raise WorkerCrashError(
            f"pool worker {worker} died (exitcode {exitcode}); "
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
        except (BrokenPipeError, OSError):
            self._reap_crash(worker)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop all workers and release every shared-memory segment.

        Graceful first (workers unlink their own arenas), terminate as a
        fallback.  Idempotent.
        """
        if self.closed:
            return
        self.closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + timeout  # contract: DET-CLOCK-002 exempt(shutdown deadline only; never reaches simulation state)
        terminated: set[int] = set()
        for worker, process in enumerate(self._processes):
            process.join(timeout=max(0.0, deadline - time.monotonic()))  # contract: DET-CLOCK-002 exempt(shutdown deadline only; never reaches simulation state)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
                terminated.add(worker)
        for (owner, _slot), (_name, shm) in self._attachments.items():
            shm.close()
            if owner in terminated:
                # A terminated worker never ran its unlink-all finally;
                # reap its known arenas here or they leak in /dev/shm
                # until interpreter exit.  # contract: SHM-005
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass
        self._attachments.clear()
        for conn in self._conns:
            conn.close()
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
