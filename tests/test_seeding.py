"""Batch-derived seeds (:func:`repro.sim.backend.derive_substreams`) equal
numpy's ``SeedSequence`` word for word, and the fleet's and the
longitudinal campaign's seeds equal the per-user ``SeedSequence`` chains
they replace."""

from __future__ import annotations

import copy
import pickle
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import SeedSequence
from numpy.random.bit_generator import ISeedSequence

from repro.fleet import FleetConfig, FleetOrchestrator, HybFleetFactory
from repro.fleet import longitudinal
from repro.fleet import orchestrator as orchestrator_module
from repro.fleet.scenarios import Scenario
from repro.net.topology import stable_user_key
from repro.sim.backend import (
    ScalarBackend,
    SessionSpec,
    Substream,
    derive_substreams,
    resolve_session_seeds,
    session_rng,
)
from repro.sim.video import VideoLibrary
from repro.users.population import UserPopulation

ENTROPY = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**127 - 1),
    # 128 bits, the size of the entropy `SeedSequence()` draws.
    st.integers(2**127, 2**128 - 1),
)
KEY_WORD = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))


def _keys(rows: list[tuple[int, ...]], key_len: int) -> np.ndarray:
    return np.array(rows, dtype=np.uint64).reshape(len(rows), key_len)


@settings(max_examples=150, deadline=None)
@given(entropy=ENTROPY, key_len=st.integers(0, 4), data=st.data())
def test_rows_equal_numpy_seed_sequence(entropy, key_len, data):
    rows = data.draw(
        st.lists(st.tuples(*[KEY_WORD] * key_len), min_size=1, max_size=5)
    )
    substreams = derive_substreams(entropy, _keys(rows, key_len))
    assert len(substreams) == len(rows)
    for key, substream in zip(rows, substreams):
        reference = SeedSequence(entropy, spawn_key=key)
        assert isinstance(substream, ISeedSequence)
        assert substream.entropy == entropy
        assert substream.spawn_key == key
        for n_words in range(1, 13):
            for dtype in (np.uint32, np.uint64):
                got = substream.generate_state(n_words, dtype)
                want = reference.generate_state(n_words, dtype)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox])
@pytest.mark.parametrize("entropy", [0, 12345, 2**32 + 5, 2**128 - 1])
def test_first_draws_match(bit_generator, entropy):
    keys = [(), (0,), (2**32 - 1, 3), (1, 2, 3, 4)]
    for key in keys:
        (substream,) = derive_substreams(entropy, _keys([key], len(key)))
        got = np.random.Generator(bit_generator(substream))
        want = np.random.Generator(bit_generator(SeedSequence(entropy, spawn_key=key)))
        np.testing.assert_array_equal(got.random(1000), want.random(1000))
        np.testing.assert_array_equal(
            got.bit_generator.random_raw(1000), want.bit_generator.random_raw(1000)
        )


def test_oversized_key_words_raise():
    with pytest.raises(ValueError, match="spawn key elements"):
        derive_substreams(0, [(1, 2**32)])
    with pytest.raises(ValueError, match="spawn key elements"):
        derive_substreams(0, [(-1,)])
    with pytest.raises(ValueError, match="non-negative"):
        derive_substreams(-1, [(1,)])
    with pytest.raises(ValueError, match="2-D"):
        derive_substreams(0, [1, 2])


def test_unsupported_dtype_raises_like_numpy():
    (substream,) = derive_substreams(3, [(1,)])
    with pytest.raises(ValueError):
        SeedSequence(3, spawn_key=(1,)).generate_state(2, np.int32)
    with pytest.raises(ValueError):
        substream.generate_state(2, np.int32)


def test_pickle_and_deepcopy_round_trip():
    substreams = derive_substreams(2**40 + 9, [(5, 6, i) for i in range(50)])
    substream = substreams[17]
    # One row pickles on its own, not with its whole batch.
    assert len(pickle.dumps(substream)) < 200
    for clone in (pickle.loads(pickle.dumps(substream)), copy.deepcopy(substream)):
        assert isinstance(clone, Substream)
        assert clone.entropy == substream.entropy
        assert clone.spawn_key == substream.spawn_key
        for dtype in (np.uint32, np.uint64):
            np.testing.assert_array_equal(
                clone.generate_state(12, dtype), substream.generate_state(12, dtype)
            )
    generator = np.random.Generator(np.random.PCG64(substream))
    generator.random(3)
    clone = pickle.loads(pickle.dumps(generator))
    np.testing.assert_array_equal(clone.random(10), generator.random(10))


def test_session_rng_and_resolution_accept_substreams():
    (substream,) = derive_substreams(9, [(4, 2)])
    np.testing.assert_array_equal(
        session_rng(substream).random(64),
        session_rng(SeedSequence(9, spawn_key=(4, 2))).random(64),
    )
    spec = SessionSpec(abr=None, video=None, trace=None, seed=substream)
    assert resolve_session_seeds([spec])[0] is substream


class _RecordingScenario(Scenario):
    """Steady state that records each user's generator as it draws the trace."""

    def __init__(self) -> None:
        self.user_states: dict[str, dict] = {}
        self.user_streams: dict[str, ISeedSequence] = {}

    def trace_for(self, profile, rng, length):
        self.user_states[profile.user_id] = rng.bit_generator.state
        self.user_streams[profile.user_id] = rng.bit_generator.seed_seq
        return super().trace_for(profile, rng, length)


class _RecordingBackend(ScalarBackend):
    def __init__(self) -> None:
        self.specs: list[SessionSpec] = []

    def run_batch(self, specs, config=None, *, network=None, link_usage=None):
        self.specs.extend(specs)
        return super().run_batch(specs, config, network=network, link_usage=link_usage)


def test_fleet_seeds_equal_the_per_user_seed_sequence_chain(monkeypatch):
    """Every user stream and spec seed of ``_run_shard_batched`` equals
    ``SeedSequence(seed, spawn_key=user_key)`` spawned once (the user) and
    then once per session."""
    seed = 31
    population = UserPopulation.generate(12, seed=5)
    library = VideoLibrary(num_videos=3, mean_duration=20.0, std_duration=5.0, seed=2)
    backend = _RecordingBackend()
    monkeypatch.setattr(orchestrator_module, "get_backend", lambda _name: backend)
    scenario = _RecordingScenario()
    config = FleetConfig(num_shards=3, num_workers=0, seed=seed, trace_length=20)
    FleetOrchestrator(config).run(population, library, scenario, HybFleetFactory())

    sessions_by_user: dict[str, list[SessionSpec]] = defaultdict(list)
    for spec in backend.specs:
        sessions_by_user[spec.user_id].append(spec)
    assert set(sessions_by_user) == {profile.user_id for profile in population}
    for profile in population:
        parent = SeedSequence(seed, spawn_key=stable_user_key(profile.user_id))
        (user_child,) = parent.spawn(1)
        old_rng = np.random.default_rng(user_child)
        old_rng.integers(2**31 - 1)  # the ABR seed, drawn before the trace
        assert scenario.user_states[profile.user_id] == old_rng.bit_generator.state
        np.testing.assert_array_equal(
            scenario.user_streams[profile.user_id].generate_state(12),
            user_child.generate_state(12),
        )
        specs = sessions_by_user[profile.user_id]
        for spec, child in zip(specs, parent.spawn(len(specs)), strict=True):
            assert spec.seed.spawn_key == child.spawn_key
            for dtype in (np.uint32, np.uint64):
                np.testing.assert_array_equal(
                    spec.seed.generate_state(8, dtype), child.generate_state(8, dtype)
                )


@pytest.mark.parametrize("kind", ["retention", "drift"])
def test_campaign_decision_streams_equal_the_per_decision_chain(kind):
    """A day's batch of retention or drift streams draws exactly what
    ``Philox(SeedSequence(seed, spawn_key=(kind key, day, md5(uid))))``,
    built once per decision, draws."""
    user_ids = [p.user_id for p in UserPopulation.generate(6, seed=3)] + ["new-d003-0001"]
    for seed, day in ((0, 0), (17, 3), (2**40, 2**32 - 1)):
        rngs = longitudinal._user_decision_rngs(seed, kind, day, user_ids)
        for uid, rng in zip(user_ids, rngs, strict=True):
            key = (longitudinal._DECISION_KEYS[kind], day, *stable_user_key(uid, salt=kind))
            old = np.random.Generator(np.random.Philox(SeedSequence(seed, spawn_key=key)))
            np.testing.assert_array_equal(rng.random(16), old.random(16))
            np.testing.assert_array_equal(rng.normal(size=4), old.normal(size=4))
    assert longitudinal._user_decision_rngs(0, kind, 0, []) == []
