"""Persistent worker pool: bit-identity vs the inline path, lifecycle, and
process hygiene.

The pool's contract is brutal on purpose: a pooled fleet (or campaign) run
must be **bit-identical** to the inline reference path — traces, controller
states, link usage, replayed telemetry — across every shard/worker-count
combination, two runs on one pool must equal two runs on fresh pools, a dead
worker must surface as a clean error (never a hang), a shutdown must leave
no worker alive, and no run may leave a shared-memory segment or a
resource-tracker warning behind.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import textwrap
import time
from collections import deque
from multiprocessing import Pipe
from types import SimpleNamespace

import numpy as np
import pytest

from repro.fleet import (
    FleetConfig,
    FleetOrchestrator,
    LongitudinalCampaign,
    LongitudinalConfig,
    PoolError,
    ShardTaskError,
    TelemetryWriter,
    WorkerCrashError,
    WorkerPool,
    iter_shard_events,
    load_resume_state,
    shared_pool,
    shutdown_shared_pools,
)
from repro.core.exit_predictor import ExitRatePredictor
from repro.core.monte_carlo import MonteCarloConfig
from repro.fleet.orchestrator import HybFleetFactory, LingXiFleetFactory, ShardTask
from repro.fleet.pool import _SHARED_POOLS, CacheRef, _resolve_refs
from repro.fleet.scenarios import get_scenario
from repro.net.topology import CacheModel, EdgeLink, NetworkTopology, get_topology
from repro.obs import monitor
from repro.obs.live import HeartbeatPublisher, LiveRun, live_run
from repro.obs.telemetry_reader import iter_events, read_run_summary, replay_log_collection
from repro.sim.session import SessionConfig
from repro.sim.video import VideoLibrary
from repro.users.population import UserPopulation


@pytest.fixture(autouse=True)
def fresh_pools():
    """Each test starts and ends without process-global pools."""
    shutdown_shared_pools()
    yield
    shutdown_shared_pools()


@pytest.fixture(scope="module")
def population() -> UserPopulation:
    return UserPopulation.generate(16, seed=5, bandwidth_median_kbps=2500.0)


@pytest.fixture(scope="module")
def library() -> VideoLibrary:
    return VideoLibrary(num_videos=3, mean_duration=30.0, std_duration=8.0, seed=2)


def _two_trees() -> NetworkTopology:
    """Two independent edge -> peering -> origin trees under Low-Lapsley.

    Two uplink components, so users split over two shards and 4 shards
    leave 2 of them empty.
    """
    links: list[EdgeLink] = []
    for tree in ("a", "b"):
        uplinks = (f"peer_{tree}", f"origin_{tree}")
        links += [
            EdgeLink(f"edge_{tree}0", 3000.0, user_share=0.6, uplinks=uplinks),
            EdgeLink(f"edge_{tree}1", 2000.0, user_share=0.4, uplinks=uplinks),
            EdgeLink(f"peer_{tree}", 4000.0, tier="peering"),
            EdgeLink(f"origin_{tree}", 4500.0, tier="origin"),
        ]
    return NetworkTopology(
        links=tuple(links),
        name="two_trees",
        cache=CacheModel(hit_ratio=0.7),
        allocator="low_lapsley",
    )


def _run_fleet(population, library, *, shards, workers, pool=None,
               telemetry=None, abr_factory=None, controller_states=None,
               **overrides):
    defaults = dict(
        num_shards=shards,
        num_workers=workers,
        sessions_per_user=2,
        trace_length=40,
        seed=9,
        backend="vector",
        network="dual_isp",
    )
    defaults.update(overrides)
    config = FleetConfig(**defaults)
    return FleetOrchestrator(config, pool=pool).run(
        population, library, telemetry_path=telemetry,
        abr_factory=abr_factory, controller_states=controller_states,
    )


def _fingerprint(result):
    """Everything deterministic about a fleet result, hashable-comparable."""
    return (
        {
            (log.user_id, log.session_index): (
                log.day,
                log.mean_bandwidth_kbps,
                log.trace.video_duration,
                log.trace.segment_duration,
                log.trace.trace_name,
                log.trace.exited_early,
                tuple(log.trace.records),
            )
            for log in result.logs
        },
        result.controller_states,
        tuple(result.link_usage),
        result.metrics.as_dict(),
        result.total_fallback_sessions,
        result.total_batch_sessions,
    )


def _shm_segments(*prefixes: str) -> set[str]:
    """Names of the POSIX shared-memory segments in /dev/shm that start with
    one of ``prefixes``; empty without /dev/shm."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith(prefixes)}


class TestPooledBitIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize(
        "backend,network",
        [
            ("vector", "dual_isp"),
            ("vector", None),
            ("scalar", None),
            pytest.param("vector", _two_trees(), id="vector-two_trees"),
        ],
    )
    def test_pooled_equals_inline_across_shards(
        self, population, library, shards, backend, network
    ):
        inline = _run_fleet(
            population, library, shards=shards, workers=0,
            backend=backend, network=network,
        )
        pooled = _run_fleet(
            population, library, shards=shards, workers=2,
            backend=backend, network=network,
        )
        assert _fingerprint(pooled) == _fingerprint(inline)

    def test_worker_count_does_not_matter(self, population, library):
        reference = _run_fleet(population, library, shards=4, workers=0)
        for workers in (2, 3, 4):
            pooled = _run_fleet(population, library, shards=4, workers=workers)
            assert _fingerprint(pooled) == _fingerprint(reference)

    def test_pool_reuse_is_deterministic(self, population, library):
        """Two runs on one pool == two runs on fresh pools == inline."""
        inline = _fingerprint(_run_fleet(population, library, shards=4, workers=0))
        with WorkerPool(2) as pool:
            first = _run_fleet(population, library, shards=4, workers=2, pool=pool)
            second = _run_fleet(population, library, shards=4, workers=2, pool=pool)
        with WorkerPool(2) as fresh:
            third = _run_fleet(population, library, shards=4, workers=2, pool=fresh)
        assert _fingerprint(first) == _fingerprint(second) == _fingerprint(third) == inline

    def test_pooled_telemetry_replays_identically(
        self, population, library, tmp_path
    ):
        inline_path = tmp_path / "inline.jsonl"
        pooled_path = tmp_path / "pooled.jsonl"
        inline = _run_fleet(
            population, library, shards=4, workers=0, telemetry=inline_path
        )
        _run_fleet(population, library, shards=4, workers=2, telemetry=pooled_path)
        assert list(replay_log_collection(pooled_path)) == list(
            replay_log_collection(inline_path)
        )
        assert [
            event.payload for event in iter_events(pooled_path, event="link_utilization")
        ] == [
            event.payload for event in iter_events(inline_path, event="link_utilization")
        ]
        assert read_run_summary(pooled_path) == read_run_summary(inline_path)
        # Byte-for-byte identical except the wall-clock fields, which differ
        # between *any* two runs (inline vs inline included).
        inline_lines = inline_path.read_text().splitlines()
        pooled_lines = pooled_path.read_text().splitlines()
        assert len(inline_lines) == len(pooled_lines)
        for left, right in zip(inline_lines, pooled_lines):
            if left == right:
                continue
            left_doc, right_doc = json.loads(left), json.loads(right)
            left_doc["payload"].pop("wall_time_s", None)
            right_doc["payload"].pop("wall_time_s", None)
            assert left_doc == right_doc

        # The same shard outputs written one event at a time through emit
        # give the inline file, byte for byte: they come from one result,
        # so even wall_time_s agrees.
        run_start, *_, run_end = iter_events(inline_path)
        per_event_path = tmp_path / "per_event.jsonl"
        with TelemetryWriter(per_event_path) as writer:
            writer.emit(run_start)
            for output in inline.shard_outputs:
                for event in iter_shard_events(inline.run_id, output):
                    writer.emit(event)
            writer.emit(run_end)
        assert per_event_path.read_bytes() == inline_path.read_bytes()

    def test_pooled_lingxi_day_restores_controller_states(
        self, population, library
    ):
        """Day 1 of a LingXi fleet, restored from an inline day 0, is the
        same pooled as inline: each shard gets its own users' states."""
        factory = LingXiFleetFactory(
            ExitRatePredictor(channels=8, hidden=16, seed=0),
            monte_carlo=MonteCarloConfig(num_samples=2, seed=0),
        )
        common = dict(shards=3, network=None, abr_factory=factory)
        day0 = _run_fleet(population, library, workers=0, **common)
        assert len(day0.controller_states) == len(population)
        day1 = {
            workers: _run_fleet(
                population, library, workers=workers, day=1,
                controller_states=day0.controller_states, **common,
            )
            for workers in (0, 2)
        }
        assert _fingerprint(day1[2]) == _fingerprint(day1[0])
        assert day1[2].controller_states == day1[0].controller_states
        assert day1[0].controller_states != day0.controller_states

    def test_descriptors_stay_small(self, population, library, monkeypatch):
        """The dispatch unit is a task's wire form: a few hundred bytes even
        though the task closes over the population, library and factory."""
        sent = []
        run = WorkerPool.run

        def recording_run(pool, tasks, **kwargs):
            sent.extend(tasks)
            return run(pool, tasks, **kwargs)

        monkeypatch.setattr(WorkerPool, "run", recording_run)
        _run_fleet(population, library, shards=4, workers=2)
        assert [task.shard_index for task in sent] == [0, 1]  # dual_isp: 2 links
        for task in sent:
            assert all(
                isinstance(getattr(task, name), CacheRef) for name in ShardTask.SHARED
            )
            assert len(pickle.dumps(task)) < 512

    def test_by_ref_round_trips(self, population, library):
        task = ShardTask(
            run_id="fleet-00000009-s4-d0",
            shard_index=1,
            num_shards=4,
            population=population,
            scenario=get_scenario(None),
            library=library,
            abr_factory=HybFleetFactory(),
            sessions_per_user=2,
            trace_length=40,
            day=0,
            session_config=SessionConfig(),
            controller_states={"u1": {"state": 1}},
            backend="vector",
            seed=9,
            network=get_topology("dual_isp"),
        )
        with WorkerPool(1) as pool:
            wire = pool.by_ref(task)
            tokens = {token: obj for obj, token in pool._cache.values()}
        assert wire != task
        assert _resolve_refs(wire, tokens) == task


class _ExplodingFactory:
    """Picklable factory that raises inside the worker."""

    def __call__(self, profile, seed):
        raise ValueError("boom in worker")


class _CrashingFactory:
    """Picklable factory that hard-kills the worker process."""

    def __init__(self, exitcode: int) -> None:
        self.exitcode = exitcode

    def __call__(self, profile, seed):
        os._exit(self.exitcode)


class TestPoolLifecycle:
    def test_shared_pool_reuses_and_replaces(self):
        pool = shared_pool(2)
        assert shared_pool(2) is pool
        pool.shutdown()
        replacement = shared_pool(2)
        assert replacement is not pool
        assert not replacement.closed
        replacement.shutdown()

    def test_closed_pool_rejects_work(self):
        pool = WorkerPool(1)
        pool.shutdown()
        pool.shutdown()  # idempotent
        with pytest.raises(PoolError):
            pool.run([])

    def test_worker_exception_propagates_and_pool_survives(
        self, population, library
    ):
        with WorkerPool(2) as pool:
            config = FleetConfig(
                num_shards=4, num_workers=2, sessions_per_user=1,
                trace_length=20, seed=3, backend="vector",
            )
            with pytest.raises(ShardTaskError, match="boom in worker"):
                FleetOrchestrator(config, pool=pool).run(
                    population, library, abr_factory=_ExplodingFactory()
                )
            # The pool is still healthy: same workers run the next fleet.
            result = _run_fleet(population, library, shards=4, workers=2, pool=pool)
            assert len(result.logs) > 0

    def test_worker_crash_is_clean_error_not_hang(self, population, library):
        pool = WorkerPool(2)
        config = FleetConfig(
            num_shards=2, num_workers=2, sessions_per_user=1,
            trace_length=20, seed=3, backend="vector",
        )
        with pytest.raises(WorkerCrashError, match="died"):
            FleetOrchestrator(config, pool=pool).run(
                population, library, abr_factory=_CrashingFactory(17)
            )
        assert pool.closed  # crash poisons the pool ...
        fresh = shared_pool(2)  # ... and shared_pool hands out a new one
        assert not fresh.closed

    def test_crashed_shared_pool_is_replaced_transparently(
        self, population, library
    ):
        config = FleetConfig(
            num_shards=2, num_workers=2, sessions_per_user=1,
            trace_length=20, seed=3, backend="vector",
        )
        with pytest.raises(WorkerCrashError):
            FleetOrchestrator(config).run(
                population, library, abr_factory=_CrashingFactory(11)
            )
        # Next orchestrator call transparently gets a fresh shared pool.
        result = _run_fleet(population, library, shards=2, workers=2)
        assert len(result.logs) > 0

    def test_shutdown_kills_workers_that_ignore_stop(self, population, library):
        """Workers that cannot honour "stop" (SIGSTOPped: SIGTERM stays
        pending too) are killed: shutdown returns promptly and leaves no
        worker alive, so interpreter exit cannot hang joining one."""
        import signal

        pool = WorkerPool(2)
        _run_fleet(population, library, shards=4, workers=2, pool=pool)
        pids = [process.pid for process in pool._processes]
        for pid in pids:
            os.kill(pid, signal.SIGSTOP)  # workers can no longer honour "stop"
        try:
            start = time.monotonic()
            pool.shutdown(timeout=0.2)
            assert time.monotonic() - start < 10.0
            assert not any(process.is_alive() for process in pool._processes)
        finally:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGCONT)
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_clean_shutdown_emits_no_resource_tracker_warnings(self, tmp_path):
        """End-to-end in a subprocess: run pooled fleets, then two pooled
        days under a live run opened after the pool forked, shut down, and
        require stderr free of resource_tracker leak chatter at exit."""
        script = textwrap.dedent(
            f"""
            from dataclasses import replace

            from repro.fleet import (
                FleetConfig, FleetOrchestrator, WorkerPool, shutdown_shared_pools,
            )
            from repro.obs.live import live_run
            from repro.sim.video import VideoLibrary
            from repro.users.population import UserPopulation

            population = UserPopulation.generate(12, seed=5)
            library = VideoLibrary(num_videos=2, seed=2)
            config = FleetConfig(num_shards=4, num_workers=2, sessions_per_user=1,
                                 trace_length=20, seed=7, backend="vector")
            for _ in range(2):
                FleetOrchestrator(config).run(population, library)
            shutdown_shared_pools()
            with WorkerPool(2) as pool:  # forked before the live run exists
                with live_run({str(tmp_path / "status.json")!r}, run_id="days",
                              interval=0.05):
                    for day in range(2):
                        FleetOrchestrator(replace(config, day=day), pool=pool).run(
                            population, library
                        )
            print("done")
            """
        )
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=300, cwd=os.path.dirname(os.path.dirname(__file__)), env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "done" in proc.stdout
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr

    def test_large_and_small_results_on_one_pool(self, population, library):
        with WorkerPool(1) as pool:
            small = _run_fleet(population, library, shards=2, workers=2,
                               pool=pool, trace_length=20)
            # Result frames of several socket buffers each.
            large = _run_fleet(population, library, shards=2, workers=2,
                               pool=pool, trace_length=400, sessions_per_user=64)
            again = _run_fleet(population, library, shards=2, workers=2,
                               pool=pool, trace_length=20)
        assert _fingerprint(small) == _fingerprint(again)
        assert len(large.logs) == 32 * len(small.logs)

    def test_pooled_run_creates_no_shared_memory(
        self, population, library, tmp_path, monkeypatch
    ):
        """Results, telemetry and heartbeats come back over the worker pipes
        only: with ``SharedMemory(create=True)`` refused in the parent and
        (patched before the fork) in every worker, a pooled telemetry day
        under a live run still runs, the monitor counts every session, the
        day equals the inline day and leaves no segment in /dev/shm."""
        from multiprocessing import shared_memory

        real = shared_memory.SharedMemory

        def refuse_create(*args, **kwargs):
            if kwargs.get("create") or (len(args) > 1 and args[1]):
                raise AssertionError("the pool created a shared-memory segment")
            return real(*args, **kwargs)

        before = _shm_segments("psm_", "rpool_")
        monkeypatch.setattr(shared_memory, "SharedMemory", refuse_create)
        status = tmp_path / "status.json"
        with WorkerPool(2) as pool:
            with live_run(status, run_id="no-shm", interval=0.05):
                pooled = _run_fleet(population, library, shards=4, workers=2,
                                    pool=pool, telemetry=tmp_path / "pooled.jsonl")
        monkeypatch.undo()
        assert not _shm_segments("psm_", "rpool_") - before
        payload = monitor.snapshot(status)
        assert payload["state"] == "done"
        assert payload["totals"]["sessions_done"] == len(pooled.logs)
        assert payload["totals"]["shards_done"] == len(pooled.shard_outputs)
        inline = _run_fleet(population, library, shards=4, workers=0,
                            telemetry=tmp_path / "inline.jsonl")
        assert _fingerprint(pooled) == _fingerprint(inline)

    def test_beats_before_result_and_error_leave_drain_unchanged(self):
        """Heartbeats interleaved ahead of a ``"result"`` and of an
        ``"error"`` are folded into the live run and change neither the
        drained outputs nor the failures."""

        def drain(live):
            pool = WorkerPool.__new__(WorkerPool)  # no workers: scripted pipes
            pool._processes = []
            ends = [Pipe(duplex=True) for _ in range(2)]
            for worker, (_, child) in enumerate(ends):
                if live is not None:
                    publisher = HeartbeatPublisher(
                        lambda shard, beat, child=child: child.send(("beat", shard, beat)),
                        interval=60.0,
                    )
                    publisher.begin_shard(worker, day=0)
                    publisher.add_sessions(2, 20)
                    if worker == 0:
                        publisher.finish_shard(3, 30)
                    else:
                        publisher.fail_shard("ValueError: boom")
            _, result_end = ends[0]
            result_end.send(("result", True, 0.5))
            result_end.send_bytes(pickle.dumps(SimpleNamespace(shard_index=0, sessions=3)))
            result_end.send_bytes(b"telemetry")
            ends[1][1].send(("error", 1, "Traceback: boom"))
            busy = {parent: worker for worker, (parent, _) in enumerate(ends)}
            return pool._drain([deque(), deque()], busy, live)

        plain_outputs, plain_failures = drain(None)
        live = LiveRun(run_id="drain", watchdog=False)
        outputs, failures = drain(live)
        assert outputs == plain_outputs
        assert outputs == [SimpleNamespace(shard_index=0, sessions=3,
                                           telemetry_blob=b"telemetry")]
        assert failures == plain_failures == [(1, "Traceback: boom")]
        rows = {row.shard: row for row in live.status().shards}
        assert (rows[0].state, rows[0].sessions_done, rows[0].shards_done) == ("done", 3, 1)
        assert (rows[1].state, rows[1].sessions_done, rows[1].error) == (
            "failed", 2, "ValueError: boom")

    def test_failed_drain_closes_the_pool(self, population, library, monkeypatch):
        """A result the parent cannot drain leaves its frames and other
        shards' results in the pipes; the pool must close with a PoolError
        rather than hand them to the next run, and shared_pool replaces it."""
        receive = WorkerPool._receive_result
        calls = []

        def receive_failing_once(pool, *args):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("injected drain failure")
            return receive(pool, *args)

        monkeypatch.setattr(WorkerPool, "_receive_result", receive_failing_once)
        with pytest.raises(PoolError, match="draining") as raised:
            _run_fleet(population, library, shards=4, workers=2)
        assert isinstance(raised.value.__cause__, RuntimeError)
        broken = _SHARED_POOLS[2]
        assert broken.closed
        with pytest.raises(PoolError, match="closed"):
            _run_fleet(population, library, shards=4, workers=2, pool=broken)
        after = _run_fleet(population, library, shards=4, workers=2, seed=123)
        replacement = _SHARED_POOLS[2]
        assert replacement is not broken
        inline = _run_fleet(population, library, shards=4, workers=0, seed=123)
        assert _fingerprint(after) == _fingerprint(inline)

    def test_worker_killed_mid_result_is_a_crash(
        self, population, library, tmp_path, monkeypatch
    ):
        """SIGKILL a worker after the parent has read its result header: the
        frames end early, which is a crash (WorkerCrashError, in bounded
        time), not a drain failure; nothing is left in /dev/shm and the next
        shared pool equals the inline path."""
        import signal

        receive = WorkerPool._receive_result
        killed = []

        def receive_after_kill(pool, conn, *header):
            if not killed:
                worker = pool._conns.index(conn)
                process = pool._processes[worker]
                os.kill(process.pid, signal.SIGKILL)
                process.join()
                killed.append(worker)
            return receive(pool, conn, *header)

        def hung(signum, frame):
            raise TimeoutError("pool hung on a worker killed mid-result")

        before = _shm_segments("psm_", "rpool_")
        monkeypatch.setattr(WorkerPool, "_receive_result", receive_after_kill)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            # Telemetry frames of 1.6-3.1 MB, several times a default socket
            # buffer, so the killed worker cannot have sent its whole result.
            with pytest.raises(WorkerCrashError, match="died"):
                _run_fleet(population, library, shards=2, workers=2,
                           trace_length=400, sessions_per_user=64,
                           telemetry=tmp_path / "killed.jsonl")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        monkeypatch.undo()
        assert killed
        assert _SHARED_POOLS[2].closed
        assert not _shm_segments("psm_", "rpool_") - before
        after = _run_fleet(population, library, shards=2, workers=2)
        inline = _run_fleet(population, library, shards=2, workers=0)
        assert _fingerprint(after) == _fingerprint(inline)

    def test_cache_is_identity_keyed_and_bounded(self):
        from repro.fleet.pool import CACHE_CAPACITY

        pool = WorkerPool(1)
        try:
            obj = ("payload",)
            first = pool.cache(obj)
            assert pool.cache(obj) == first  # same object → same token
            tokens = {pool.cache(("other", i)).token for i in range(CACHE_CAPACITY + 8)}
            assert len(tokens) == CACHE_CAPACITY + 8
            assert len(pool._cache) <= CACHE_CAPACITY
        finally:
            pool.shutdown()


class TestPooledLongitudinal:
    def _config(self, workers, days=3):
        return LongitudinalConfig(
            days=days,
            seed=11,
            num_shards=2,
            num_workers=workers,
            sessions_per_user=2,
            trace_length=30,
            backend="vector",
            network="dual_isp",
        )

    def _day_map(self, result):
        return {
            (day.day, log.user_id, log.session_index): tuple(log.trace.records)
            for day in result.days
            for log in day.result.logs
        }

    def test_campaign_pooled_equals_inline(self, population, library):
        inline = LongitudinalCampaign(self._config(0)).run(population, library)
        pooled = LongitudinalCampaign(self._config(2)).run(population, library)
        assert self._day_map(pooled) == self._day_map(inline)
        np.testing.assert_array_equal(
            [d.retention_rate for d in pooled.days],
            [d.retention_rate for d in inline.days],
        )

    def test_resume_from_checkpoint_unchanged_under_pooled_path(
        self, population, library, tmp_path
    ):
        full = LongitudinalCampaign(self._config(2, days=4)).run(
            population, library,
            checkpoint_dir=tmp_path / "full",
        )
        # Run days 0-1 pooled, then resume days 2-3 pooled from disk state.
        LongitudinalCampaign(self._config(2, days=2)).run(
            population, library, checkpoint_dir=tmp_path / "part"
        )
        resume = load_resume_state(
            tmp_path / "part" / "resume_day_001.json",
            tmp_path / "part" / "day_001.json",
        )
        resumed = LongitudinalCampaign(self._config(2, days=2)).run(
            resume.population(), library,
            checkpoint_dir=tmp_path / "part",
            resume_state=resume,
        )
        full_map = self._day_map(full)
        resumed_map = self._day_map(resumed)
        assert resumed_map == {
            key: value for key, value in full_map.items() if key[0] >= 2
        }


class TestPooledObservability:
    def test_pool_counters_present_in_profiled_pooled_run(
        self, population, library
    ):
        from repro import obs

        obs.enable()
        try:
            result = _run_fleet(population, library, shards=4, workers=2)
        finally:
            obs.disable()
        counters = result.obs_report["metrics"]["counters"]
        assert counters["pool.result_bytes"] > 0
        assert counters.get("pool.telemetry_bytes", 0) == 0  # no telemetry path
        assert counters["pool.dispatch_bytes"] < 4 * 2048
        names = obs.span_names(result.obs_report["spans"])
        assert "fleet.run_day/fleet.run_shards/shard.map/pool.dispatch" in names
        assert "fleet.run_day/fleet.run_shards/shard.map/pool.drain" in names

    def test_pack_time_excludes_the_shard_run(self, population, library, monkeypatch):
        """``pool.shard_pack_seconds`` times the pickle only: a shard that
        takes half a second to run still packs in milliseconds."""
        from repro import obs
        from repro.fleet import orchestrator

        run_shard = orchestrator._run_shard

        def slow_run_shard(task):
            time.sleep(0.5)
            return run_shard(task)

        # In place before the pool forks: a worker imports _run_shard after.
        monkeypatch.setattr(orchestrator, "_run_shard", slow_run_shard)
        obs.enable()
        try:
            with WorkerPool(2) as pool:
                result = _run_fleet(population, library, shards=2, workers=2, pool=pool)
        finally:
            obs.disable()
        pack = result.obs_report["metrics"]["histograms"]["pool.shard_pack_seconds"]
        assert pack["count"] == 2
        assert pack["max"] < 0.25
