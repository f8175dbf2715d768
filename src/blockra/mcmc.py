"""Metropolis search over arrangement classes with Gumbel-ranked proposals.

Each iteration picks a uniform random two-block column split, proposes a new
joint ordering of the second block by ranking Gumbel-perturbed negative
first-block sums, and accepts with probability min(1, f_current/f_proposed),
i.e. a Metropolis step targeting a distribution proportional to 1/f.  States
with objective at (numerical) zero absorb the chain.  The draws come in blocks
of iterations, three generator calls a block: masks, noise, uniforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .matrix import (RearrangementMatrix, _as_matrix, _block_sums, _count, _fair_masks,
                     _permute_rows, _split_of_mask, sample_variance)

__all__ = [
    "ObjectiveSpec",
    "McmcConfig",
    "ChainTrace",
    "propose_permutation",
    "resolve_rate",
    "mcmc_block_ra",
]

# Default Gumbel rate: noise scale is this fraction of the starting row-sum spread.
_RATE_OVER_SD = 5.0
_TINY = np.finfo(np.float64).tiny
# A block of chain iterations draws at most about this many numbers.
_BLOCK_WORDS = 1 << 14


@dataclass(frozen=True)
class ObjectiveSpec:
    """What the chain minimizes over the row sums.

    Without ``f`` it is the sample variance (m-1 divisor) of the row sums;
    with a convex ``f`` it is the mean of f over the row sums, f mapping an
    ndarray elementwise.  Calling the spec on the row sums evaluates it.
    """

    f: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.f is not None and not callable(self.f):
            raise ValueError("expected-convex objective needs a function f")

    @property
    def kind(self) -> str:
        return "variance" if self.f is None else "expected-convex"

    def __call__(self, s: np.ndarray) -> float:
        return sample_variance(s) if self.f is None else float(np.mean(self.f(s)))


@dataclass(frozen=True)
class McmcConfig:
    """Chain settings.

    ``r`` is the Gumbel rate (noise scale 1/r); None resolves it once at
    chain start to 5 / sd(starting row sums).  Keeping the rate fixed for
    the whole run preserves uphill mobility after the objective has shrunk.
    ``absorb_tol`` is the objective level at which the state is declared
    absorbing and the run stops; the state's own row sums must confirm it,
    else the chain resumes from them.
    """

    objective: ObjectiveSpec = ObjectiveSpec()
    r: Optional[float] = None
    n_iter: int = 10_000
    rng_seed: int = 0
    absorb_tol: float = 1e-14

    def __post_init__(self) -> None:
        if self.r is not None and not self.r > 0:
            raise ValueError("Gumbel rate r must be positive")
        _count("n_iter", self.n_iter)
        if not self.absorb_tol >= 0:
            raise ValueError("absorb_tol must be nonnegative")
        _count("rng_seed", self.rng_seed, 0)


@dataclass(frozen=True)
class ChainTrace:
    """Per-iteration record of the chain.

    ``objective_per_iter[k]`` is the objective of the state occupied after
    iteration k, from the chain's running row sums; ``best_matrix`` is the
    best state visited by that record (including the start), and
    ``best_objective`` the objective of its own row sums (for the variance,
    ``best_matrix.row_sum_variance``).  ``absorbed_at`` is the iteration
    count at an absorption confirmed on the state's own row sums, 0 when the
    start already absorbs, None otherwise.
    """

    objective_per_iter: np.ndarray
    accepted: np.ndarray
    best_objective: float
    best_matrix: RearrangementMatrix
    absorbed_at: Optional[int]


def _gumbel_sample(r: float, rng: np.random.Generator, size=None) -> Union[float, np.ndarray]:
    """Inverse-CDF draw(s) from the Gumbel law with rate r (scale 1/r).

    z = -ln(-ln(u))/r, so u = exp(-1) maps to z = 0 and the median is
    -ln(ln 2)/r.
    """
    if not r > 0:
        raise ValueError("Gumbel rate r must be positive")
    u = np.asarray(rng.random(size))  # computed in place: ln(-ln max(u, tiny)) / -r
    np.maximum(u, _TINY, out=u)
    np.log(np.negative(np.log(u, out=u), out=u), out=u)
    return np.divide(u, -r, out=u)


def propose_permutation(s_pi: np.ndarray, r: float, rng: np.random.Generator) -> np.ndarray:
    """Random rank pattern for the block opposite the given sums.

    Draws w_i = Y_i - s_pi[i] with iid Gumbel(r) noise Y and returns the
    0-based ranks of w.  Placing the block rows sorted ascending by block
    sum into these slots makes the rearranged block sums ranked identically
    to w: the largest block sum lands where w is largest.  As r grows the
    noise vanishes and the pattern tends to the countermonotone one; a
    constant s_pi yields a uniformly random permutation.
    """
    s_pi = np.asarray(s_pi, dtype=np.float64)
    m = s_pi.size
    if m == 1:
        return np.zeros(1, dtype=np.intp)
    w = _gumbel_sample(r, rng, m)
    w -= s_pi
    return _place(w, np.arange(m), np.empty(m, dtype=np.intp))


def _place(w: np.ndarray, s_bar: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The proposal rule, into ``out``: rows ascending by ``s_bar`` fill slots ascending by ``w``."""
    out[w.argsort(kind="stable")] = s_bar.argsort(kind="stable")
    return out


def _chain_draws(rng: np.random.Generator, m: int, n: int, rate: float,
                 count: int) -> tuple[list, np.ndarray, list]:
    """Masks, ``(count, m)`` Gumbel noise and acceptance uniforms of ``count`` iterations."""
    masks = (rng.integers(1, 1 << (n - 1), size=count).tolist() if n <= 63  # int64 bounds
             else _fair_masks(rng, n - 1, count, 1 << (n - 1)))
    return masks, _gumbel_sample(rate, rng, (count, m)), rng.random(count).tolist()


def resolve_rate(X, config: Optional[McmcConfig] = None) -> float:
    """The Gumbel rate the chain will use from this start.

    An explicit config.r wins; otherwise the rate is set once from the
    spread of the starting row sums so the noise scale matches the
    objective landscape (degenerate starts get an effectively rigid rate).
    """
    cfg = config or McmcConfig()
    if cfg.r is not None:
        return cfg.r
    sd = math.sqrt(_as_matrix(X).row_sum_variance)
    return _RATE_OVER_SD / sd if sd > 0 else 1e12


def mcmc_block_ra(X, config: Optional[McmcConfig] = None) -> ChainTrace:
    """Run the Metropolis chain from a starting matrix.

    Deterministic given the seed: each iteration uses one partition mask,
    m Gumbel variates and one acceptance uniform.  A block of
    ``_BLOCK_WORDS // (m + 2)`` iterations draws its masks, then its noise,
    then its uniforms, and every block is drawn whole.  The chain targets
    1/f, so a negative objective, at the start or accepted, raises ValueError.
    """
    cfg = config or McmcConfig()
    mat = _as_matrix(X)
    m, n = mat.shape
    arr = np.array(mat.values, order="F")  # the state, each column contiguous
    cols = list(arr.T)
    rng = np.random.default_rng(cfg.rng_seed)
    spec = cfg.objective

    s_cur = mat.values.sum(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        f_cur = spec(s_cur)
    if not np.isfinite(f_cur):
        raise ValueError("objective is not finite at the start")
    if f_cur < 0:
        raise ValueError("objective < 0 at the start: the chain targets 1/f")
    best_f = f_cur
    best_arr = mat.values

    rate = resolve_rate(mat, cfg)
    objectives = np.empty(cfg.n_iter, dtype=np.float64)
    accepted = np.zeros(cfg.n_iter, dtype=bool)
    # An absorbing start runs no iteration.
    absorbed_at: Optional[int] = 0 if f_cur <= cfg.absorb_tol else None
    block = max(1, _BLOCK_WORDS // (m + 2))  # iterations whose draws fit the budget
    sigma = np.empty(m, dtype=np.intp)
    it = 0
    while absorbed_at is None and it < cfg.n_iter:
        masks, noise, uniforms = _chain_draws(rng, m, n, rate, block)
        for mask, y, u in zip(masks[:cfg.n_iter - it], noise, uniforms):
            pi, comp = _split_of_mask(mask, n)
            s_pi = _block_sums(arr, cols, pi)  # may view the state: never written in place
            s_bar = s_cur - s_pi
            _place(y - s_pi, s_bar, sigma)
            s_new = s_pi + s_bar.take(sigma)
            f_prop = spec(s_new)
            if f_prop <= 0 or u * f_prop < f_cur:  # min(1, f_cur/f_prop) Metropolis rule
                if f_prop < 0:
                    raise ValueError(f"objective < 0 at iteration {it + 1}: the chain targets 1/f")
                _permute_rows(arr, cols, comp, sigma)
                s_cur, f_cur = s_new, f_prop
                if f_cur <= cfg.absorb_tol:  # the running sums drift: absorb on the state's own
                    s_cur = np.ascontiguousarray(arr).sum(axis=1)
                    f_cur = spec(s_cur)
                accepted[it] = True
                if f_cur < best_f:
                    best_f = f_cur
                    best_arr = arr.copy()
            objectives[it] = f_cur
            it += 1
            if f_cur <= cfg.absorb_tol:
                absorbed_at = it
                break

    n_done = cfg.n_iter if absorbed_at is None else absorbed_at
    best = RearrangementMatrix(best_arr)
    return ChainTrace(
        objective_per_iter=objectives[:n_done].copy(),
        accepted=accepted[:n_done].copy(),
        best_objective=spec(best.values.sum(axis=1)),  # its own: best_f is of the running sums
        best_matrix=best,
        absorbed_at=absorbed_at,
    )
