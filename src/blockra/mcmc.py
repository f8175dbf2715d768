"""Metropolis search over arrangement classes with Gumbel-ranked proposals.

Each iteration picks a uniform random two-block column split, proposes a new
joint ordering of the second block by ranking Gumbel-perturbed negative
first-block sums, and accepts with probability min(1, f_current/f_proposed),
i.e. a Metropolis step targeting a distribution proportional to 1/f.  States
with objective at (numerical) zero absorb the chain.  The draws come in blocks
of raw generator words with the values of one-at-a-time draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .matrix import (RearrangementMatrix, _as_matrix, _block_sums, _row_masks, _split_of_mask,
                     sample_variance)

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
# The chain draws its randomness in blocks of at most about this many raw words.
_BLOCK_WORDS = 1 << 14


@dataclass(frozen=True)
class ObjectiveSpec:
    """What the chain minimizes over the row sums.

    Without ``f`` it is the sample variance (m-1 divisor) of the row sums;
    with a convex ``f`` it is the mean of f over the row sums, f mapping an
    ndarray elementwise.  Calling the spec on the row sums evaluates it.
    """

    f: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def kind(self) -> str:
        return "variance" if self.f is None else "expected-convex"

    def __call__(self, s: np.ndarray) -> float:
        return sample_variance(s) if self.f is None else float(np.mean(self.f(s)))

    @classmethod
    def variance(cls) -> "ObjectiveSpec":
        return cls()

    @classmethod
    def expected_convex(cls, f: Callable[[np.ndarray], np.ndarray]) -> "ObjectiveSpec":
        if not callable(f):
            raise ValueError("expected-convex objective needs a function f")
        return cls(f)


@dataclass(frozen=True)
class McmcConfig:
    """Chain settings.

    ``r`` is the Gumbel rate (noise scale 1/r); None resolves it once at
    chain start to 5 / sd(starting row sums).  Keeping the rate fixed for
    the whole run preserves uphill mobility after the objective has shrunk.
    ``absorb_tol`` is the objective level at which the state is declared
    absorbing and the run stops.
    """

    objective: ObjectiveSpec = ObjectiveSpec.variance()
    r: Optional[float] = None
    n_iter: int = 10_000
    rng_seed: int = 0
    absorb_tol: float = 1e-14

    def __post_init__(self) -> None:
        if self.r is not None and not self.r > 0:
            raise ValueError("Gumbel rate r must be positive")
        if self.n_iter < 1:
            raise ValueError("n_iter must be positive")
        if not self.absorb_tol >= 0:
            raise ValueError("absorb_tol must be nonnegative")


@dataclass(frozen=True)
class ChainTrace:
    """Per-iteration record of the chain.

    ``objective_per_iter[k]`` is the objective of the state occupied after
    iteration k; ``best_matrix`` is the best state actually visited
    (including the start).  ``absorbed_at`` is the iteration count at
    absorption, 0 when the start already absorbs, None otherwise.
    """

    objective_per_iter: np.ndarray
    accepted: np.ndarray
    best_objective: float
    best_matrix: RearrangementMatrix
    absorbed_at: Optional[int]


def _gumbel(u: np.ndarray, r: float) -> np.ndarray:
    """Gumbel(r) variates from uniforms ``u``, in place: ln(-ln max(u, tiny)) / -r."""
    np.maximum(u, _TINY, out=u)
    np.log(np.negative(np.log(u, out=u), out=u), out=u)
    return np.divide(u, -r, out=u)


def _gumbel_sample(r: float, rng: np.random.Generator, size=None) -> Union[float, np.ndarray]:
    """Inverse-CDF draw(s) from the Gumbel law with rate r (scale 1/r).

    z = -ln(-ln(u))/r, so u = exp(-1) maps to z = 0 and the median is
    -ln(ln 2)/r.
    """
    if not r > 0:
        raise ValueError("Gumbel rate r must be positive")
    return _gumbel(np.asarray(rng.random(size)), r)


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
    slots = np.empty(m, dtype=np.intp)
    slots[w.argsort(kind="stable")] = np.arange(m)  # ties broken by position
    return slots


def _draw_canonical_mask(n: int, rng: np.random.Generator) -> int:
    width = n - 1
    if width <= 62:
        return int(rng.integers(1, (1 << width)))
    while True:  # wide matrices: assemble the mask from raw bits
        mask = _row_masks(rng.integers(0, 2, size=(1, width)))[0]
        if mask:
            return mask


def _chain_draws(rng: np.random.Generator, m: int, n: int, rate: float,
                 count: int) -> tuple[list, np.ndarray, list]:
    """Masks, ``(count, m)`` Gumbel noise and acceptance uniforms of ``count`` iterations.

    Bit for bit, generator state included, ``count`` rounds of the replay
    below.  Up to n = 33 one block of raw PCG64 words holds them, a row per
    two iterations: numpy draws a mask by Lemire's method from the low half
    of a word and keeps the high half for the next one, and a uniform is
    ``(word >> 11) * 2**-53``.  A half word buffered already (as a rejection
    leaves) gives the first mask, each row's mask word then follows an
    iteration, and the last high half is buffered again.  A rejected
    multiply or another generator replays the block.
    """
    bitgen = rng.bit_generator
    state = bitgen.state
    excl = (1 << (n - 1)) - 1
    if n <= 33 and state["bit_generator"] == "PCG64":
        head = int(excl > 1)  # integers(1, 2) draws nothing
        shift = (m + 1) * head * state["has_uint32"]  # column of the mask words
        words = bitgen.random_raw(count // 2 * (head + 2 * m + 2)).reshape(count // 2, -1)
        # At n = 2 (excl = 1) any word yields mask 1 and no rejection.
        halves = np.column_stack((words[:, shift] & 0xFFFFFFFF, words[:, shift] >> np.uint64(32)))
        halves = np.r_[np.uint64(state["uinteger"]), halves.ravel()] if shift else halves.ravel()
        product = halves[:count] * np.uint64(excl)
        if not ((product & 0xFFFFFFFF) < ((1 << 32) - excl) % excl).any():
            words >>= np.uint64(11)  # the mask words are read already
            rows = np.delete(words, shift, axis=1) if shift else words[:, head:]
            rows = rows.reshape(count // 2, 2, m + 1)  # m noise words, acceptance word
            noise = np.multiply(rows[..., :m], 2.0**-53).reshape(count, m)
            if shift:
                bitgen.state = {**bitgen.state, "uinteger": int(halves[-1])}
            return ((1 + (product >> np.uint64(32))).tolist(), _gumbel(noise, rate),
                    np.multiply(rows[..., m], 2.0**-53).ravel().tolist())
        bitgen.state = state
    masks, uniforms, noise = [], [], np.empty((count, m))
    for y in noise:
        masks.append(_draw_canonical_mask(n, rng))
        y[:] = _gumbel_sample(rate, rng, m)
        uniforms.append(rng.random())
    return masks, noise, uniforms


def resolve_rate(X, config: Optional[McmcConfig] = None) -> float:
    """The Gumbel rate the chain will use from this start.

    An explicit config.r wins; otherwise the rate is set once from the
    spread of the starting row sums so the noise scale matches the
    objective landscape (degenerate starts get an effectively rigid rate).
    """
    cfg = config or McmcConfig()
    if cfg.r is not None:
        return cfg.r
    mat = _as_matrix(X)
    sd = float(mat.values.sum(axis=1).std(ddof=1))
    return _RATE_OVER_SD / sd if sd > 0 else 1e12


def mcmc_block_ra(X, config: Optional[McmcConfig] = None) -> ChainTrace:
    """Run the Metropolis chain from a starting matrix.

    Deterministic given the seed: each iteration consumes one partition
    draw, m Gumbel variates, and one acceptance uniform, in that order.
    They come in blocks of raw words with the same values (``_chain_draws``).
    """
    cfg = config or McmcConfig()
    mat = _as_matrix(X)
    arr = np.array(mat.values, copy=True)
    m, n = arr.shape
    rng = np.random.default_rng(cfg.rng_seed)
    spec = cfg.objective

    s_cur = arr.sum(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        f_cur = spec(s_cur)
    if not np.isfinite(f_cur):
        raise ValueError("objective is not finite at the start")
    best_f = f_cur
    best_arr = arr.copy()

    rate = resolve_rate(mat, cfg)
    objectives = np.empty(cfg.n_iter, dtype=np.float64)
    accepted = np.zeros(cfg.n_iter, dtype=bool)
    # An absorbing start runs no iteration.
    absorbed_at: Optional[int] = 0 if f_cur <= cfg.absorb_tol else None
    block = 2 * max(1, _BLOCK_WORDS // (2 * m + 3))  # iterations whose draws fit the budget
    sigma = np.empty(m, dtype=np.intp)
    it = 0
    while absorbed_at is None and it < cfg.n_iter:
        left = cfg.n_iter - it
        masks, noise, uniforms = _chain_draws(rng, m, n, rate, min(block, left + left % 2))
        for mask, y, u in zip(masks[:left], noise, uniforms):
            pi, comp = _split_of_mask(mask, n)
            s_pi = _block_sums(arr, pi)  # may be a view: accepted moves leave pi's columns alone
            s_bar = s_cur - s_pi
            # propose_permutation's slots, then the block rows ascending by sum placed in them
            sigma[(y - s_pi).argsort(kind="stable")] = s_bar.argsort(kind="stable")
            s_new = s_pi + s_bar.take(sigma)
            f_prop = spec(s_new)
            if f_prop <= 0 or u * f_prop < f_cur:  # min(1, f_cur/f_prop) Metropolis rule
                arr[:, comp] = arr[:, comp].take(sigma, axis=0)
                s_cur = s_new
                f_cur = f_prop
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
    return ChainTrace(
        objective_per_iter=objectives[:n_done].copy(),
        accepted=accepted[:n_done].copy(),
        best_objective=best_f,
        best_matrix=RearrangementMatrix(best_arr),
        absorbed_at=absorbed_at,
    )
