"""Tests for synthetic log generation and the exit-predictor datasets."""

import hashlib
import json

import numpy as np
import pytest

from repro.abr.bba import BBA
from repro.datasets import (
    DatasetComposition,
    LogGenerationConfig,
    build_exit_dataset,
    generate_production_logs,
)
from repro.datasets.stall_dataset import (
    DEFAULT_TOLERANCE_PRIOR_S,
    NUM_FEATURES,
    WINDOW_LENGTH,
    ExitDataset,
    estimate_tolerance,
)
from repro.sim.video import VideoLibrary
from repro.users.population import UserPopulation


#: sha256 digests of ``build_exit_dataset(corpus, composition)`` per
#: composition: any change to a sample, label or its metadata shows here.
_DATASET_DIGESTS = {
    "all": {
        "features": "cf1a0c5df1300e00ed2a6e484cb55786d30d4fdf49e32d699db0eb11a3b499ed",
        "labels": "9b7c6695b455dd8a7fd295e87b363750930cf8e812c6898dbbe74b4452c476cb",
        "user_ids": "14f88080459b83e08b258c3359817e15b0c3cc0f1609f02eb15cbd4a35a69001",
        "stall_ordinals": "5711bff38388648d4cea14e9b28c6bd27bf70ed6c3c26ae5249a27473ce8f770",
    },
    "event": {
        "features": "fcdc628694bdf91353a844906973304e31dd89a128a680d6078e7cbcc6951194",
        "labels": "749e2aca3f75041e52222bd41589dd0d67be65b0d5463eddd5a56c0ee294db87",
        "user_ids": "55e608c5177e01d6afda5474569fddbc07b8cec5605e6a0cc7249ea3fa247727",
        "stall_ordinals": "ed5d32c74b0d16772b38358e2f90e77ae7640e8dd20f4eaec4a2e367bc9aa37f",
    },
    "stall": {
        "features": "19e45bf2a17a0f6db5afe45b0c783abcecb03e8e48dfa74fff73d79356aae45c",
        "labels": "5f150f81580d7a0d601af49434e9abdc407394d09ea16bbc8f8448aa2da71a24",
        "user_ids": "b6a17743fad6171876846c0034b673f8726543d8283562e55e6318746294ac8d",
        "stall_ordinals": "e5caccaace403605cb4629bd5d51b34478b90ad132b147ad0aae23921a44afe7",
    },
}


@pytest.fixture(scope="module")
def corpus():
    population = UserPopulation.generate(25, seed=9, bandwidth_median_kbps=3000)
    library = VideoLibrary(num_videos=4, seed=2)
    return generate_production_logs(
        population,
        library,
        LogGenerationConfig(days=2, sessions_per_user_per_day=3, seed=4),
    ).logs


class TestLogGeneration:
    def test_schema(self, corpus):
        assert len(corpus) == 25 * 2 * 3
        session = corpus[0]
        assert session.user_id.startswith("u")
        assert session.day in (0, 1)
        assert session.mean_bandwidth_kbps > 0
        assert len(session.records) >= 1

    def test_custom_abr_factory(self):
        population = UserPopulation.generate(3, seed=1)
        library = VideoLibrary(num_videos=2, seed=1)
        logs = generate_production_logs(
            population,
            library,
            LogGenerationConfig(days=1, sessions_per_user_per_day=1),
            abr_factory=lambda _profile: BBA(),
        )
        assert len(logs.logs) == 3
        assert set(logs.abrs) == {profile.user_id for profile in population}

    def test_dual_isp_corpus_is_pinned(self, log_digests):
        """A networked corpus, pinned to the digest of the scalar and vector
        engines (which agreed) with the Markov traces drawn as two blocks."""
        population = UserPopulation.generate(12, seed=3, bandwidth_median_kbps=2000)
        library = VideoLibrary(num_videos=3, seed=2)
        result = generate_production_logs(
            population,
            library,
            LogGenerationConfig(
                days=2, sessions_per_user_per_day=2, trace_length=60, seed=5,
                network="dual_isp",
            ),
        )
        assert len(result.logs) == 48
        assert log_digests(result)["segments"] == (
            "cfd3c972ad0166500afb628bd15a42621276d0f1f7a42f2037feee6b6909b859"
        )

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LogGenerationConfig(days=0)
        with pytest.raises(ValueError):
            LogGenerationConfig(sessions_per_user_per_day=0)
        with pytest.raises(ValueError):
            LogGenerationConfig(start_day=-1)


class TestEstimateTolerance:
    def test_uses_exit_history_when_available(self):
        assert estimate_tolerance(12.0, 3, 50.0) == pytest.approx(4.0)

    def test_falls_back_to_survived_or_prior(self):
        assert estimate_tolerance(0.0, 0, 9.0) == 9.0
        assert estimate_tolerance(0.0, 0, 0.0) == DEFAULT_TOLERANCE_PRIOR_S


class TestExitDataset:
    def test_shapes_and_metadata(self, corpus):
        dataset = build_exit_dataset(corpus, DatasetComposition.ALL)
        assert dataset.features.shape[1:] == (NUM_FEATURES, WINDOW_LENGTH)
        assert dataset.labels.shape == (len(dataset),)
        assert len(dataset.user_ids) == len(dataset)
        assert dataset.stall_ordinals is not None
        assert set(np.unique(dataset.labels)) <= {0, 1}

    def test_composition_sizes_nested(self, corpus):
        all_ds = build_exit_dataset(corpus, DatasetComposition.ALL)
        event_ds = build_exit_dataset(corpus, DatasetComposition.EVENT)
        stall_ds = build_exit_dataset(corpus, DatasetComposition.STALL)
        assert len(stall_ds) <= len(event_ds) <= len(all_ds)
        assert stall_ds.exit_fraction >= all_ds.exit_fraction

    def test_stall_samples_have_recent_stall(self, corpus):
        stall_ds = build_exit_dataset(corpus, DatasetComposition.STALL)
        # Row 3 is "segments since last stall"; the current segment stalled, so
        # the last entry of that row must be zero for every sample.
        assert np.allclose(stall_ds.features[:, 3, -1], 0.0)

    def test_features_are_finite_and_non_negative(self, corpus):
        dataset = build_exit_dataset(corpus, DatasetComposition.EVENT)
        assert np.all(np.isfinite(dataset.features))
        assert np.all(dataset.features >= 0.0)

    def test_subset_preserves_alignment(self, corpus):
        dataset = build_exit_dataset(corpus, DatasetComposition.ALL)
        indices = np.arange(0, len(dataset), 7)
        subset = dataset.subset(indices)
        assert len(subset) == len(indices)
        np.testing.assert_array_equal(subset.labels, dataset.labels[indices])
        assert subset.user_ids[0] == dataset.user_ids[indices[0]]

    @pytest.mark.parametrize("composition", list(DatasetComposition))
    def test_dataset_is_pinned_bit_for_bit(self, corpus, composition):
        """The samples of every composition, pinned to sha256 digests (the
        features as little-endian float64, the integer columns as int64)."""
        dataset = build_exit_dataset(corpus, composition)

        def sha(data: bytes) -> str:
            return hashlib.sha256(data).hexdigest()

        digests = {
            "features": sha(np.ascontiguousarray(dataset.features, "<f8").tobytes()),
            "labels": sha(np.ascontiguousarray(dataset.labels, "<i8").tobytes()),
            "user_ids": sha(json.dumps(list(dataset.user_ids)).encode()),
            "stall_ordinals": sha(
                np.ascontiguousarray(dataset.stall_ordinals, "<i8").tobytes()
            ),
        }
        assert digests == _DATASET_DIGESTS[composition.value]

    def test_validation(self):
        with pytest.raises(ValueError):
            ExitDataset(
                features=np.zeros((3, 2, 2)),
                labels=np.zeros(3, dtype=int),
                composition=DatasetComposition.ALL,
            )
        with pytest.raises(ValueError):
            ExitDataset(
                features=np.zeros((3, NUM_FEATURES, WINDOW_LENGTH)),
                labels=np.zeros(4, dtype=int),
                composition=DatasetComposition.ALL,
            )

    def test_exit_fraction_empty_handling(self):
        dataset = ExitDataset(
            features=np.zeros((2, NUM_FEATURES, WINDOW_LENGTH)),
            labels=np.asarray([0, 1]),
            composition=DatasetComposition.STALL,
        )
        assert dataset.exit_fraction == 0.5
