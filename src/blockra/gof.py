"""Goodness-of-fit distances, Monte-Carlo thresholds, and verdicts.

Measures how far the empirical distribution of a row-sum vector sits from a
target law: the Kolmogorov-Smirnov sup-distance and the squared-quantile
(L2-Wasserstein) distance, each compared against the median value the same
statistic takes on genuine iid samples of equal size.  A sum is declared
indistinguishable from the target when it beats both medians at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

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

# Medians of the two statistics on iid samples of size 10^6, used as default
# acceptance thresholds at that size.  The KS median is distribution-free;
# the W2 medians are per unit variance (normal target) and per unit squared
# half-width (uniform target) and rescale quadratically.
_KS_MEDIAN_1E6 = 8.2e-4
_W2_MEDIAN_NORMAL_1E6 = 3.5e-6
_W2_MEDIAN_UNIFORM_1E6 = 4.7e-7
_KS_MEDIAN_SQRT_M = 0.8276  # asymptotic median of sqrt(m) * D_m

@dataclass(frozen=True)
class TargetDistribution:
    """A law to compare row sums against: cdf, quantile, sampler.

    Three families: normal(mu, sigma), uniform(lo, hi), and empirical (the
    discrete uniform law on a fixed table of values).
    """

    family: str
    params: Tuple[float, ...] = ()
    table: Optional[np.ndarray] = None

    @classmethod
    def normal(cls, mu: float = 0.0, sigma: float = 1.0) -> "TargetDistribution":
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        return cls(family="normal", params=(float(mu), float(sigma)))

    @classmethod
    def uniform(cls, lo: float = -1.0, hi: float = 1.0) -> "TargetDistribution":
        if not hi > lo:
            raise ValueError("uniform target needs hi > lo")
        return cls(family="uniform", params=(float(lo), float(hi)))

    @classmethod
    def empirical(cls, values: Sequence[float]) -> "TargetDistribution":
        tab = np.sort(np.asarray(values, dtype=np.float64))
        if tab.size == 0:
            raise ValueError("empirical target table is empty")
        if not np.all(np.isfinite(tab)):
            raise ValueError("empirical target table has non-finite entries")
        tab.setflags(write=False)
        return cls(family="empirical", table=tab)

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


def ks_distance(sum_values, target: TargetDistribution) -> float:
    """sup_x |G_m(x) - F(x)| between the empirical cdf and the target.

    The supremum against a continuous target is attained at the empirical
    step locations; both one-sided gaps are taken there.  A target-quantile
    grid refines between-step behavior, which matters when the target
    itself has jumps.
    """
    values = np.asarray(sum_values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("ks_distance needs at least one value")
    xg = target.quantile(_midpoints())
    return _ks_sorted(np.sort(values), target, xg, target.cdf(xg))


def _midpoints() -> np.ndarray:
    return (np.arange(_GRID_POINTS) + 0.5) / _GRID_POINTS


def _ks_sorted(xs: np.ndarray, target: TargetDistribution, xg: np.ndarray,
               f_xg: np.ndarray) -> float:
    """KS distance of sorted values, given the target quantile grid and its cdf."""
    m = xs.size
    f_at = target.cdf(xs)
    upper = np.max(np.arange(1, m + 1) / m - f_at)
    lower = np.max(f_at - np.arange(0, m) / m)
    d = max(upper, lower)
    g_at = np.searchsorted(xs, xg, side="right") / m
    d_grid = float(np.max(np.abs(g_at - f_xg)))
    return float(max(d, d_grid, 0.0))


def w2_distance(sum_values_sorted, target: TargetDistribution) -> float:
    """Integral over (0,1) of the squared quantile gap, midpoint rule.

    The empirical quantile is the order-statistic step function.  Midpoint
    nodes keep the integration strictly inside (0,1): the range
    [1/(2G), 1 - 1/(2G)] with G = 50,000 nodes is covered and the unbounded
    tails of e.g. a normal target are truncated at those endpoints.
    """
    xs = np.asarray(sum_values_sorted, dtype=np.float64).ravel()
    if xs.size == 0:
        raise ValueError("w2_distance needs at least one value")
    if np.any(np.diff(xs) < 0):
        raise ValueError("sum values must be sorted ascending")
    u = _midpoints()
    return _w2_sorted(xs, u, target.quantile(u))


def _w2_sorted(xs: np.ndarray, u: np.ndarray, xg: np.ndarray) -> float:
    """W2 distance of sorted values, given the midpoint nodes and their target quantiles."""
    m = xs.size
    k = np.minimum(np.ceil(u * m).astype(np.intp), m)
    gap = xs[k - 1] - xg
    return float(np.mean(gap * gap))


def median_threshold(test: str, target: TargetDistribution, m: int,
                     n_replicates: int = 41, rng_seed: int = 0) -> float:
    """Median of the chosen statistic over iid target samples of size m.

    Each replicate draws from its own child stream, so results do not
    depend on evaluation order and replicates can run in parallel.
    """
    if test not in ("ks", "w2"):
        raise ValueError("test must be 'ks' or 'w2'")
    (med,) = _replicate_medians((test,), target, m, n_replicates, rng_seed)
    return med


def _replicate_medians(tests: Sequence[str], target: TargetDistribution, m: int,
                       n_replicates: int, rng_seed: int) -> list[float]:
    """Medians of each statistic in ``tests`` over the same iid replicates.

    Replicate ``rep`` draws from the child stream ``[rng_seed, rep]`` and is
    sorted once for every statistic; the quantile grid is evaluated once.
    """
    if n_replicates < 11:
        raise ValueError("n_replicates must be at least 11")
    if m < 1:
        raise ValueError("m must be positive")
    u = _midpoints()
    xg = target.quantile(u)
    f_xg = target.cdf(xg) if "ks" in tests else None
    stats = np.empty((len(tests), n_replicates), dtype=np.float64)
    for rep in range(n_replicates):
        rng = np.random.default_rng([rng_seed, rep])
        xs = np.sort(target.sample(m, rng))
        for i, test in enumerate(tests):
            if test == "ks":
                stats[i, rep] = _ks_sorted(xs, target, xg, f_xg)
            else:
                stats[i, rep] = _w2_sorted(xs, u, xg)
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
                       ks_asymptotic: bool = False,
                       n_replicates: int = 41, rng_seed: int = 0) -> Thresholds:
    """Median thresholds for a given sample size.

    At m = 10^6 the calibrated constants are used directly (KS is
    distribution-free; W2 rescales by the target's variance or squared
    half-width).  Other sizes simulate, except that the KS level may come
    from the asymptotic 0.8276/sqrt(m) when ks_asymptotic is set.
    """
    if m == 10**6:
        ks = _KS_MEDIAN_1E6
        if target.family == "normal":
            return Thresholds(ks=ks, w2=_W2_MEDIAN_NORMAL_1E6 * target.params[1] ** 2)
        if target.family == "uniform":
            lo, hi = target.params
            half = (hi - lo) / 2.0
            return Thresholds(ks=ks, w2=_W2_MEDIAN_UNIFORM_1E6 * half * half)
        return Thresholds(
            ks=ks,
            w2=median_threshold("w2", target, m, n_replicates, rng_seed),
        )
    if ks_asymptotic:
        return Thresholds(ks=_KS_MEDIAN_SQRT_M / math.sqrt(m),
                          w2=median_threshold("w2", target, m, n_replicates, rng_seed))
    ks, w2 = _replicate_medians(("ks", "w2"), target, m, n_replicates, rng_seed)
    return Thresholds(ks=ks, w2=w2)


def verdict(sum_values, target: TargetDistribution,
            thresholds: Optional[Thresholds] = None) -> GofVerdict:
    """Evaluate both distances and compare each against its median level.

    Without ``thresholds`` the levels are those for a sample as large as
    the values given.
    """
    values = np.asarray(sum_values, dtype=np.float64).ravel()
    if thresholds is None:
        thresholds = default_thresholds(target, values.size)
    d_ks = ks_distance(values, target)
    t_w2 = w2_distance(np.sort(values), target)
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
