"""Goodness-of-fit distances, Monte-Carlo thresholds, and verdicts.

Measures how far the empirical distribution of a row-sum vector sits from a
target law: the Kolmogorov-Smirnov sup-distance and the squared-quantile
(L2-Wasserstein) distance, each compared against the median value the same
statistic takes on genuine iid samples of equal size.  A sum is declared
indistinguishable from the target when it beats both medians at once.
One check refuses an empty or non-finite sample; one scorer takes both distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .matrix import _count

__all__ = [
    "TargetDistribution",
    "GofVerdict",
    "Thresholds",
    "ks_distance",
    "w2_distance",
    "median_threshold",
    "kolmogorov_asymptotic_cdf",
    "default_thresholds",
    "verdict",
]

_GRID_POINTS = 50_000  # midpoint nodes of the distance grids

# Medians of W2 on iid samples of size 10^6, used as default acceptance
# thresholds at that size: per unit variance (normal target) and per unit
# squared half-width (uniform target), they rescale quadratically.
_W2_MEDIAN_NORMAL_1E6 = 3.5e-6
_W2_MEDIAN_UNIFORM_1E6 = 4.7e-7

@dataclass(frozen=True)
class TargetDistribution:
    """A law to compare row sums against: cdf, quantile, sampler.

    Three families, checked however built: normal(mu, sigma), uniform(lo, hi),
    and empirical (the discrete uniform law on a table, kept sorted, read-only).
    """

    family: str
    params: Tuple[float, ...] = ()
    table: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        params = tuple(float(p) for p in self.params)
        if self.family == "empirical":
            tab = np.array(self.table, dtype=np.float64)  # None reads as a 0-d NaN
            if params or tab.ndim != 1 or tab.size == 0 or not np.isfinite(tab).all():
                raise ValueError("empirical target needs a non-empty vector of finite values")
            tab.sort()
            tab.setflags(write=False)
            object.__setattr__(self, "table", tab)
        elif self.family not in ("normal", "uniform") or len(params) != 2 or self.table is not None:
            raise ValueError(f"unknown target {self.family!r}, or not two parameters and no table")
        elif self.family == "normal" and not (math.isfinite(params[0]) and 0 < params[1] < math.inf):
            raise ValueError("normal target needs a finite mu and a finite sigma > 0")
        elif self.family == "uniform" and not 0 < params[1] - params[0] < math.inf:
            raise ValueError("uniform target needs lo < hi, a finite width apart")
        object.__setattr__(self, "params", params)

    @classmethod
    def normal(cls, mu: float = 0.0, sigma: float = 1.0) -> "TargetDistribution":
        return cls("normal", (mu, sigma))

    @classmethod
    def uniform(cls, lo: float = -1.0, hi: float = 1.0) -> "TargetDistribution":
        return cls("uniform", (lo, hi))

    @classmethod
    def empirical(cls, values: Sequence[float]) -> "TargetDistribution":
        return cls("empirical", table=values)

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.family == "normal":
            from scipy.special import ndtr
            mu, sigma = self.params
            return ndtr((x - mu) / sigma)
        if self.family == "uniform":
            lo, hi = self.params
            return np.clip((x - lo) / (hi - lo), 0.0, 1.0)
        return np.searchsorted(self.table, x, side="right") / self.table.size

    def quantile(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        if np.any(u <= 0.0) or np.any(u >= 1.0):
            raise ValueError("quantile requires probabilities strictly inside (0,1)")
        if self.family == "normal":
            from scipy.special import ndtri
            mu, sigma = self.params
            return mu + sigma * ndtri(u)
        if self.family == "uniform":
            lo, hi = self.params
            return lo + u * (hi - lo)
        k = np.ceil(u * self.table.size).astype(np.intp)  # step inverse
        return self.table[k - 1]

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        if self.family == "normal":
            mu, sigma = self.params
            return rng.normal(mu, sigma, m)
        if self.family == "uniform":
            lo, hi = self.params
            return rng.uniform(lo, hi, m)
        return self.table[rng.integers(0, self.table.size, m)]


@dataclass(frozen=True)
class Thresholds:
    """Median-based acceptance levels for the two distances."""

    ks: float
    w2: float


@dataclass(frozen=True)
class GofVerdict:
    d_ks: float
    t_w2: float
    med_ks: float
    med_w2: float
    ks_ok: bool
    w2_ok: bool
    both_ok: bool


def _sample(values, sort: bool) -> np.ndarray:
    """A user's sample as a flat float vector: non-empty, finite, sorted or checked sorted."""
    xs = np.asarray(values, dtype=np.float64).ravel()
    if xs.size == 0 or not np.isfinite(xs).all():
        raise ValueError("sum values must be a non-empty sample of finite numbers")
    if not sort and np.any(np.diff(xs) < 0):
        raise ValueError("sum values must be sorted ascending")
    return np.sort(xs) if sort else xs


def _nodes(target: TargetDistribution, m: int):
    """The target quantiles at the W2 nodes u, the sample index each u reads, and i/m, i = 0..m."""
    u = (np.arange(_GRID_POINTS) + 0.5) / _GRID_POINTS
    return target.quantile(u), np.minimum(np.ceil(u * m).astype(np.intp), m) - 1, np.arange(m + 1) / m


def _distances(xs: np.ndarray, target: TargetDistribution, tests: Sequence[str],
               nodes=None) -> list[float]:
    """The distances named in ``tests`` ("ks", "w2") of the sorted sample ``xs``."""
    xg, at, steps = nodes or _nodes(target, xs.size)
    out = []
    for test in tests:
        if test == "ks":  # i/m - F(x_(i)) and F(x_(i)-) - (i-1)/m; a table's F(x-) is its share < x
            f_at = target.cdf(xs)
            f_below = (f_at if target.table is None
                       else np.searchsorted(target.table, xs, side="left") / target.table.size)
            out.append(float(max(np.max(steps[1:] - f_at), np.max(f_below - steps[:-1]))))
        else:
            gap = xs[at] - xg
            out.append(float(np.mean(gap * gap)))
    return out


def ks_distance(sum_values, target: TargetDistribution) -> float:
    """sup_x |G_m(x) - F(x)| between the empirical cdf and the target.

    The supremum lies at the empirical steps for any target; the gap below
    a step reads a tabulated target's left limit there.
    """
    return _distances(_sample(sum_values, sort=True), target, ("ks",))[0]


def w2_distance(sum_values_sorted, target: TargetDistribution) -> float:
    """Integral over (0,1) of the squared quantile gap, midpoint rule.

    The empirical quantile is the order-statistic step function.  Midpoint
    nodes keep the integration strictly inside (0,1): the range
    [1/(2G), 1 - 1/(2G)] with G = 50,000 nodes is covered and the unbounded
    tails of e.g. a normal target are truncated at those endpoints.
    """
    return _distances(_sample(sum_values_sorted, sort=False), target, ("w2",))[0]


def _size(m) -> int:
    """Sample size ``m`` as an int: "m must be positive" below 1, and by name if not an integer."""
    if m < 1:
        raise ValueError("m must be positive")
    return _count("m", m)


def median_threshold(test: str, target: TargetDistribution, m: int,
                     n_replicates: int = 41, rng_seed: int = 0) -> float:
    """Median of the chosen statistic over iid target samples of size m.

    Each replicate draws from its own child stream, so results do not
    depend on evaluation order and replicates can run in parallel.
    """
    if test not in ("ks", "w2"):
        raise ValueError("test must be 'ks' or 'w2'")
    return _replicate_medians((test,), target, _size(m), n_replicates, rng_seed)[0]


def _replicate_medians(tests: Sequence[str], target: TargetDistribution, m: int,
                       n_replicates: int, rng_seed: int) -> list[float]:
    """Medians of each statistic in ``tests`` over the same iid replicates.

    Replicate ``rep`` draws from the child stream ``[rng_seed, rep]`` and is
    sorted once for every statistic; the size-m nodes are built once.  ``m`` comes checked by ``_size``.
    """
    n_replicates, rng_seed = _count("n_replicates", n_replicates, 11), _count("rng_seed", rng_seed, 0)
    nodes = _nodes(target, m)
    stats = np.empty((len(tests), n_replicates), dtype=np.float64)
    for rep in range(n_replicates):
        rng = np.random.default_rng([rng_seed, rep])
        stats[:, rep] = _distances(np.sort(target.sample(m, rng)), target, tests, nodes)
    return [float(np.median(row)) for row in stats]


def kolmogorov_asymptotic_cdf(t: float) -> float:
    """Limit law of sqrt(m) * D_m: H(t) = 1 - 2 sum (-1)^(k-1) exp(-2 k^2 t^2).

    scipy's ``kolmogorov`` is the survival function 1 - H; nonpositive t
    maps to 0.
    """
    from scipy.special import kolmogorov
    if t <= 0.0:
        return 0.0
    return float(1.0 - kolmogorov(t))


def default_thresholds(target: TargetDistribution, m: int, *,
                       n_replicates: int = 41, rng_seed: int = 0) -> Thresholds:
    """Median thresholds for a given sample size.

    KS is distribution-free for a normal or uniform target, with median about
    (kolmogi(1/2) - 1/(6 sqrt(m))) / sqrt(m): within 7e-4 relative of the exact
    median from m = 100 up, 3% below that, and 12% low at m = 1.  W2 takes the
    calibrated constants at m = 10^6, rescaled by the variance or squared
    half-width, and is simulated elsewhere.  An empirical target simulates both.
    """
    m = _size(m)
    if target.family == "empirical":
        return Thresholds(*_replicate_medians(("ks", "w2"), target, m, n_replicates, rng_seed))
    from scipy.special import kolmogi
    ks = (float(kolmogi(0.5)) - 1.0 / (6.0 * math.sqrt(m))) / math.sqrt(m)
    if m == 10**6 and target.family == "normal":
        return Thresholds(ks=ks, w2=_W2_MEDIAN_NORMAL_1E6 * target.params[1] ** 2)
    if m == 10**6:
        half = (target.params[1] - target.params[0]) / 2.0
        return Thresholds(ks=ks, w2=_W2_MEDIAN_UNIFORM_1E6 * half * half)
    return Thresholds(ks=ks, w2=_replicate_medians(("w2",), target, m, n_replicates, rng_seed)[0])


def verdict(sum_values, target: TargetDistribution,
            thresholds: Optional[Thresholds] = None) -> GofVerdict:
    """Evaluate both distances and compare each against its median level.

    Without ``thresholds`` the levels are those for a sample as large as
    the values given.
    """
    xs = _sample(sum_values, sort=True)
    if thresholds is None:
        thresholds = default_thresholds(target, xs.size)
    d_ks, t_w2 = _distances(xs, target, ("ks", "w2"))
    ks_ok = d_ks <= thresholds.ks
    w2_ok = t_w2 <= thresholds.w2
    return GofVerdict(
        d_ks=d_ks,
        t_w2=t_w2,
        med_ks=thresholds.ks,
        med_w2=thresholds.w2,
        ks_ok=ks_ok,
        w2_ok=w2_ok,
        both_ok=ks_ok and w2_ok,
    )
