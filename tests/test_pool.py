"""Persistent worker pool: bit-identity vs the inline path, lifecycle, and
shared-memory hygiene.

The pool's contract is brutal on purpose: a pooled fleet (or campaign) run
must be **bit-identical** to the inline reference path — traces, controller
states, link usage, replayed telemetry — across every shard/worker-count
combination, two runs on one pool must equal two runs on fresh pools, a dead
worker must surface as a clean error (never a hang), and a graceful shutdown
must leave zero shared-memory segments and zero resource-tracker warnings
behind.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import textwrap
import time

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
    one of ``prefixes`` (pools' ``shm_prefix``); empty without /dev/shm."""
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

    def test_shutdown_reaps_arenas_of_terminated_workers(self, population, library):
        """SHM-005 regression: a worker that never honours "stop" gets
        terminated by shutdown(); its finally-block unlink never runs, so
        the parent must reap the arenas it knows about or they leak in
        /dev/shm until interpreter exit."""
        import signal

        pool = WorkerPool(2)
        _run_fleet(population, library, shards=4, workers=2, pool=pool)
        names = sorted({name for name, _shm in pool._attachments.values()})
        assert names, "expected parent-side arena attachments after a pooled run"
        pids = [process.pid for process in pool._processes]
        for pid in pids:
            os.kill(pid, signal.SIGSTOP)  # workers can no longer honour "stop"
        try:
            pool.shutdown(timeout=0.2)
            if os.path.isdir("/dev/shm"):
                leaked = [
                    n for n in names if os.path.exists("/dev/shm/" + n.lstrip("/"))
                ]
                assert not leaked, f"terminated workers' arenas leaked: {leaked}"
        finally:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGCONT)
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_shutdown_releases_all_shm_segments(self, population, library):
        pool = WorkerPool(2)
        _run_fleet(population, library, shards=4, workers=2, pool=pool)
        if os.path.isdir("/dev/shm"):
            assert _shm_segments(pool.shm_prefix), "arenas carry the pool's prefix"
        pool.shutdown()
        leaked = _shm_segments(pool.shm_prefix)
        assert not leaked, f"segments left behind: {leaked}"

    def test_clean_shutdown_emits_no_resource_tracker_warnings(self, tmp_path):
        """End-to-end in a subprocess: run pooled fleets, shut down, and
        require stderr free of resource_tracker leak chatter at exit."""
        script = textwrap.dedent(
            """
            from repro.fleet import FleetConfig, FleetOrchestrator, shutdown_shared_pools
            from repro.sim.video import VideoLibrary
            from repro.users.population import UserPopulation

            population = UserPopulation.generate(12, seed=5)
            library = VideoLibrary(num_videos=2, seed=2)
            config = FleetConfig(num_shards=4, num_workers=2, sessions_per_user=1,
                                 trace_length=20, seed=7, backend="vector")
            for _ in range(2):
                FleetOrchestrator(config).run(population, library)
            shutdown_shared_pools()
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

    def test_arena_grows_for_large_results_and_is_reused(self, population, library):
        with WorkerPool(1) as pool:
            small = _run_fleet(population, library, shards=2, workers=2,
                               pool=pool, trace_length=20)
            large = _run_fleet(population, library, shards=2, workers=2,
                               pool=pool, trace_length=160)
            again = _run_fleet(population, library, shards=2, workers=2,
                               pool=pool, trace_length=20)
        assert _fingerprint(small) == _fingerprint(again)
        assert len(large.logs) == len(small.logs)

    def test_failed_arena_growth_leaves_the_pool_usable(
        self, population, library, tmp_path, monkeypatch, capfd
    ):
        """SHM-005: a worker whose arena cannot grow (ENOSPC on /dev/shm)
        reports the shard as failed, and the slot it emptied keeps no
        unlinked arena: the next run on the same pool equals a fresh pool's,
        and shutdown unlinks every segment without a worker traceback."""
        import errno
        from multiprocessing import shared_memory

        from repro.fleet import pool as pool_module

        full = tmp_path / "shm_full"

        class FullSharedMemory(shared_memory.SharedMemory):
            def __init__(self, name=None, create=False, size=0):
                if create and full.exists():
                    raise OSError(errno.ENOSPC, "No space left on device")
                super().__init__(name=name, create=create, size=size)

        # Both patches must be in place before the pool forks its worker.
        monkeypatch.setattr(shared_memory, "SharedMemory", FullSharedMemory)
        monkeypatch.setattr(pool_module, "MIN_ARENA_BYTES", 4096)
        small = dict(shards=2, workers=2, trace_length=20)
        pool = WorkerPool(1)
        try:
            _run_fleet(population, library, pool=pool, **small)
            full.touch()
            with pytest.raises(ShardTaskError, match=r"\[Errno 28\]"):
                _run_fleet(population, library, pool=pool,
                           **dict(small, trace_length=160))
            full.unlink()
            again = _run_fleet(population, library, pool=pool, **small)
        finally:
            pool.shutdown()
        with WorkerPool(1) as fresh:
            reference = _run_fleet(population, library, pool=fresh, **small)
        assert _fingerprint(again) == _fingerprint(reference)
        assert not _shm_segments(pool.shm_prefix, fresh.shm_prefix)
        assert "Traceback" not in capfd.readouterr().err

    def test_failed_drain_closes_the_pool(self, population, library, monkeypatch):
        """A result the parent cannot drain leaves an unacked slot and other
        shards' results in the pipes; the pool must close with a PoolError
        rather than hand them to the next run, and shared_pool replaces it."""
        drain = WorkerPool._drain_result
        calls = []

        def drain_failing_once(pool, *args):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("injected drain failure")
            return drain(pool, *args)

        monkeypatch.setattr(WorkerPool, "_drain_result", drain_failing_once)
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
        shutdown_shared_pools()
        assert not _shm_segments(broken.shm_prefix, replacement.shm_prefix)

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
        assert counters["pool.shm_result_bytes"] > 0
        assert counters.get("pool.shm_telemetry_bytes", 0) == 0  # no telemetry path
        assert counters["pool.dispatch_bytes"] < 4 * 2048
        names = obs.span_names(result.obs_report["spans"])
        assert "fleet.run_day/fleet.run_shards/shard.map/pool.dispatch" in names
        assert "fleet.run_day/fleet.run_shards/shard.map/pool.drain" in names

    def test_pack_time_excludes_the_shard_run(self, population, library, monkeypatch):
        """``pool.shard_pack_seconds`` times the pickle and the arena write:
        a shard that takes half a second to run still packs in milliseconds."""
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
