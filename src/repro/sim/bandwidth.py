"""Bandwidth substrate: observation model and synthetic trace families.

Two roles are covered here:

* :class:`BandwidthModel` is the client-side model the paper uses in
  Equation 3 and Algorithm 2 — the bandwidth perceived while downloading the
  last few segments is summarised as a normal distribution
  ``N(mu_Cpast, sigma_Cpast^2)`` and *future* bandwidth is sampled from it
  during Monte-Carlo virtual playback.  It also feeds the pre-playback pruning
  rule of §4 (``mu - 3*sigma > Q_max``).

* The trace generators produce the synthetic "production" bandwidth traces the
  simulated experiments run on.  The paper slices results by bandwidth regime
  (the long tail below 2000 kbps up to >10 Mbps, Figures 2, 8, 13), so the
  generators cover stationary, Markov-modulated (bursty cellular-like) and
  explicitly low-bandwidth families, plus a mixture that follows a log-normal
  population distribution similar to Figure 2(a).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

_MIN_BANDWIDTH_KBPS = 10.0


@dataclass
class BandwidthModel:
    """Running normal model of recently observed throughput (``C_past``).

    The model keeps a sliding window of throughput observations (kbps) and
    exposes the mean / standard deviation that Equation 3 samples future
    bandwidth from.
    """

    window: int = 8
    prior_mean_kbps: float = 3000.0
    prior_std_kbps: float = 1000.0
    _samples: list[float] = field(default_factory=list, repr=False)
    #: Memoised mean/std — ``mean``/``std`` are read several times per
    #: simulated segment (buffer-cap rule, ABR context, Equation 3 sampling)
    #: between updates, so the window statistics are computed once per update
    #: instead of once per access.
    _cached_mean: float | None = field(default=None, repr=False, compare=False)
    _cached_std: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.prior_mean_kbps <= 0 or self.prior_std_kbps < 0:
            raise ValueError("prior must be positive")

    def update(self, throughput_kbps: float) -> None:
        """Record one throughput observation (kbps)."""
        if throughput_kbps <= 0:
            raise ValueError("throughput must be positive")
        self._samples.append(float(throughput_kbps))
        if len(self._samples) > self.window:
            del self._samples[: len(self._samples) - self.window]
        self._cached_mean = None
        self._cached_std = None

    def extend(self, throughputs_kbps: Iterable[float]) -> None:
        """Record several observations at once."""
        for value in throughputs_kbps:
            self.update(value)

    @property
    def num_observations(self) -> int:
        """Observations currently in the window."""
        return len(self._samples)

    @property
    def mean(self) -> float:
        """``mu_Cpast`` (kbps)."""
        if not self._samples:
            return self.prior_mean_kbps
        if self._cached_mean is None:
            self._cached_mean = float(np.mean(self._samples))
        return self._cached_mean

    @property
    def std(self) -> float:
        """``sigma_Cpast`` (kbps)."""
        if len(self._samples) < 2:
            return self.prior_std_kbps
        if self._cached_std is None:
            self._cached_std = float(max(np.std(self._samples, ddof=1), 1e-6))
        return self._cached_std

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Sample future bandwidth ``C_k ~ N(mu, sigma^2)`` (kbps, clipped > 0)."""
        draw = rng.normal(self.mean, self.std, size=size)
        return np.maximum(draw, _MIN_BANDWIDTH_KBPS) if size is not None else max(
            float(draw), _MIN_BANDWIDTH_KBPS
        )

    def stall_risk_negligible(self, max_bitrate_kbps: float) -> bool:
        """Pre-playback pruning rule of §4: ``mu - 3*sigma > Q_max``."""
        return self.mean - 3.0 * self.std > max_bitrate_kbps

    def copy(self) -> "BandwidthModel":
        """Independent copy (used when forking state into virtual playback)."""
        clone = BandwidthModel(
            window=self.window,
            prior_mean_kbps=self.prior_mean_kbps,
            prior_std_kbps=self.prior_std_kbps,
        )
        clone._samples = list(self._samples)
        return clone


@dataclass(frozen=True)
class BandwidthTrace:
    """A time series of available bandwidth.

    ``values_kbps[i]`` is the bandwidth available during the ``i``-th
    download; traces are indexed per segment download and wrap around when a
    session outlives the trace.
    """

    values_kbps: tuple[float, ...]
    name: str = "trace"

    def __post_init__(self) -> None:
        if not self.values_kbps:
            raise ValueError("a trace needs at least one sample")
        # ``0.0 < v`` is False for NaN as well as for v <= 0; ``operator.lt``
        # falls back to the sample's own comparison for non-float numbers.
        if not all(map(operator.lt, itertools.repeat(0.0), self.values_kbps)):
            raise ValueError("bandwidth samples must be positive")

    def __len__(self) -> int:
        return len(self.values_kbps)

    def bandwidth_at(self, index: int) -> float:
        """Bandwidth (kbps) for download ``index`` (wraps around)."""
        return self.values_kbps[index % len(self.values_kbps)]

    @property
    def mean(self) -> float:
        """Mean bandwidth of the trace (kbps)."""
        return float(np.mean(self.values_kbps))

    @property
    def std(self) -> float:
        """Standard deviation of the trace (kbps)."""
        return float(np.std(self.values_kbps))

    def scaled(self, factor: float, name: str | None = None) -> "BandwidthTrace":
        """Return a copy of the trace scaled by ``factor``."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return BandwidthTrace(
            values_kbps=tuple(max(v * factor, _MIN_BANDWIDTH_KBPS) for v in self.values_kbps),
            name=name or f"{self.name}_x{factor:g}",
        )


class StationaryTraceGenerator:
    """Gaussian bandwidth around a fixed mean — the regime of Equation 3."""

    def __init__(self, mean_kbps: float, std_kbps: float | None = None) -> None:
        if mean_kbps <= 0:
            raise ValueError("mean bandwidth must be positive")
        self.mean_kbps = float(mean_kbps)
        self.std_kbps = float(std_kbps if std_kbps is not None else 0.25 * mean_kbps)

    def generate(self, length: int, rng: np.random.Generator, name: str | None = None) -> BandwidthTrace:
        """Generate a trace of ``length`` samples."""
        values = rng.normal(self.mean_kbps, self.std_kbps, size=length)
        values = np.maximum(values, _MIN_BANDWIDTH_KBPS)
        return BandwidthTrace(tuple(values.tolist()), name=name or f"stationary_{self.mean_kbps:.0f}")


class MarkovTraceGenerator:
    """Two-state (good/bad) Markov-modulated bandwidth, cellular-like bursts.

    A trace of ``n`` samples takes two blocks from ``rng``: first
    ``z = rng.standard_normal(n)``, then ``u = rng.random(n)``.  The chain
    starts good; sample ``i`` is ``mean + std * z[i]`` of its state's regime,
    and ``u[i]`` picks the state of sample ``i + 1``: a good state stays good
    when ``u[i] >= p_good_to_bad``, a bad state turns good when
    ``u[i] < p_bad_to_good``.
    """

    def __init__(
        self,
        good_mean_kbps: float = 6000.0,
        bad_mean_kbps: float = 1200.0,
        good_std_kbps: float = 1200.0,
        bad_std_kbps: float = 400.0,
        p_good_to_bad: float = 0.1,
        p_bad_to_good: float = 0.3,
    ) -> None:
        for p in (p_good_to_bad, p_bad_to_good):
            if not 0 <= p <= 1:
                raise ValueError("transition probabilities must be in [0, 1]")
        if good_mean_kbps <= 0 or bad_mean_kbps <= 0:
            raise ValueError("means must be positive")
        # ``>= 0`` is False for NaN too.
        if not (good_std_kbps >= 0 and bad_std_kbps >= 0):
            raise ValueError("standard deviations must be non-negative")
        self.good_mean_kbps = good_mean_kbps
        self.bad_mean_kbps = bad_mean_kbps
        self.good_std_kbps = good_std_kbps
        self.bad_std_kbps = bad_std_kbps
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good

    def generate(self, length: int, rng: np.random.Generator, name: str | None = None) -> BandwidthTrace:
        """Generate a trace of ``length`` samples."""
        z = rng.standard_normal(length)
        u = rng.random(length)[:-1]
        # Entry i maps the state of sample i - 1 to that of sample i: a good
        # state goes to ``stay[i]``, a bad one to ``turn[i]``.  Where the two
        # agree the entry resets the state to that value (entry 0 resets to
        # the good start); otherwise it keeps the state or flips it.
        stay = np.ones(length, dtype=bool)
        turn = np.ones(length, dtype=bool)
        stay[1:] = u >= self.p_good_to_bad
        turn[1:] = u < self.p_bad_to_good
        reset = stay == turn
        flips = np.cumsum(turn > stay)
        # Each sample takes the value of the last reset at or before it,
        # flipped by the parity of the flips since that reset.
        last = np.flatnonzero(reset)[np.cumsum(reset) - 1]
        good = stay[last] != ((flips - flips[last]) % 2 == 1)
        values = np.where(
            good,
            self.good_mean_kbps + self.good_std_kbps * z,
            self.bad_mean_kbps + self.bad_std_kbps * z,
        )
        values = np.maximum(values, _MIN_BANDWIDTH_KBPS)
        return BandwidthTrace(tuple(values.tolist()), name=name or "markov")


class LowBandwidthTraceGenerator:
    """Long-tail low-bandwidth regime (< 2000 kbps) of Figures 8 and 13."""

    def __init__(self, mean_kbps: float = 1200.0, std_kbps: float = 500.0, dropout_prob: float = 0.05) -> None:
        if mean_kbps <= 0:
            raise ValueError("mean bandwidth must be positive")
        if not 0 <= dropout_prob < 1:
            raise ValueError("dropout_prob must be in [0, 1)")
        self.mean_kbps = mean_kbps
        self.std_kbps = std_kbps
        self.dropout_prob = dropout_prob

    def generate(self, length: int, rng: np.random.Generator, name: str | None = None) -> BandwidthTrace:
        """Generate a trace of ``length`` samples with occasional deep fades."""
        values = rng.normal(self.mean_kbps, self.std_kbps, size=length)
        fades = rng.random(length) < self.dropout_prob
        values[fades] *= 0.2
        values = np.maximum(values, _MIN_BANDWIDTH_KBPS)
        return BandwidthTrace(tuple(values.tolist()), name=name or "low_bandwidth")


class MixedTraceGenerator:
    """Population-level mixture following a log-normal bandwidth distribution.

    Figure 2(a) shows the platform-wide bandwidth CDF: roughly 10% of users sit
    below the top encoding bitrate and the median is several Mbps.  Sampling
    per-user mean bandwidth from a log-normal with those properties and then
    generating a stationary (or Markov, for bursty users) trace reproduces the
    same CDF shape.
    """

    def __init__(
        self,
        median_kbps: float = 8000.0,
        sigma_log: float = 0.9,
        burst_fraction: float = 0.3,
        relative_std: float = 0.25,
    ) -> None:
        if median_kbps <= 0:
            raise ValueError("median bandwidth must be positive")
        if not 0 <= burst_fraction <= 1:
            raise ValueError("burst_fraction must be in [0, 1]")
        self.median_kbps = median_kbps
        self.sigma_log = sigma_log
        self.burst_fraction = burst_fraction
        self.relative_std = relative_std

    def sample_user_mean(self, rng: np.random.Generator) -> float:
        """Draw one user's long-run mean bandwidth (kbps)."""
        return float(
            max(rng.lognormal(mean=np.log(self.median_kbps), sigma=self.sigma_log), _MIN_BANDWIDTH_KBPS)
        )

    def generate(self, length: int, rng: np.random.Generator, name: str | None = None) -> BandwidthTrace:
        """Generate one user's trace: draw their mean, then a per-user trace."""
        mean = self.sample_user_mean(rng)
        if rng.random() < self.burst_fraction:
            generator = MarkovTraceGenerator(
                good_mean_kbps=mean * 1.2,
                bad_mean_kbps=max(mean * 0.35, _MIN_BANDWIDTH_KBPS),
                good_std_kbps=mean * self.relative_std,
                bad_std_kbps=mean * self.relative_std * 0.5,
            )
        else:
            generator = StationaryTraceGenerator(mean, mean * self.relative_std)
        return generator.generate(length, rng, name=name or f"mixed_{mean:.0f}")

    def generate_population(
        self, num_users: int, length: int, rng: np.random.Generator
    ) -> list[BandwidthTrace]:
        """Generate one trace per user for a population of ``num_users``."""
        return [self.generate(length, rng, name=f"user_{i}") for i in range(num_users)]


def harmonic_mean(values: Sequence[float]) -> float:
    """Harmonic mean of positive throughput samples (RobustMPC's estimator)."""
    arr = np.asarray([v for v in values if v > 0], dtype=float)
    if arr.size == 0:
        raise ValueError("harmonic mean needs at least one positive sample")
    return float(arr.size / np.sum(1.0 / arr))
