"""Shared 4x4 and 8x3 fixture matrices, and a per-vector Spearman reference.

All five 4x4 matrices share the same column margins; they differ only in the
within-column orderings and were chosen to exercise specific behaviors:

* SIGMA_CM_LOCAL_MIN: every two-block split countermonotone, yet row-sum
  variance 0.04346 > 0 (a strict local minimum that is not a complete mix).
* COMPLETE_MIX: same margins rearranged to constant (zero) row sums.
* RA_STUCK: a fixed point of the column-cycling RA whose dependence measure
  is still above -1, so block moves keep improving it.
* START_TO_LOCAL_MIN / START_TO_GLOBAL_MIN: two starts one transposition
  apart whose greedy block runs end in different basins.

UNIFORM_8X3 has three columns holding the same eight values in [0,1].
"""

import numpy as np
import pytest

SIGMA_CM_LOCAL_MIN = np.array([
    [0.0662, 0.2571, 0.0000, -0.5842],
    [0.3271, 1.0061, -1.3218, -0.0833],
    [0.6524, -0.6509, -0.0549, 0.2495],
    [1.0826, -0.9444, 0.9248, -0.9263],
])

COMPLETE_MIX = np.array([
    [0.0662, 1.0061, -1.3218, 0.2495],
    [0.3271, 0.2571, 0.0000, -0.5842],
    [0.6524, -0.6509, 0.9248, -0.9263],
    [1.0826, -0.9444, -0.0549, -0.0833],
])

RA_STUCK = np.array([
    [1.1423, 0.3674, 1.8266, 2.1637],
    [1.9135, 0.9880, 0.5237, 2.0392],
    [2.8994, 0.0377, 1.5924, 1.0061],
    [4.0077, 0.8852, 0.1974, 0.4097],
])

START_TO_LOCAL_MIN = np.array([
    [0.0662, -0.9444, 0.0000, -0.5842],
    [0.6524, 1.0061, -0.0549, 0.2495],
    [0.3271, -0.6509, -1.3218, -0.0833],
    [1.0826, 0.2571, 0.9248, -0.9263],
])

START_TO_GLOBAL_MIN = np.array([
    [0.0662, -0.9444, 0.0000, -0.5842],
    [0.6524, -0.6509, -0.0549, 0.2495],
    [0.3271, 1.0061, -1.3218, -0.0833],
    [1.0826, 0.2571, 0.9248, -0.9263],
])

UNIFORM_8X3 = np.array([
    [0.0074, 0.8657, 0.8574],
    [0.2957, 0.2957, 0.3569],
    [0.3569, 0.6067, 0.6067],
    [0.4638, 0.8574, 0.4850],
    [0.4850, 0.0074, 0.2957],
    [0.6067, 0.4638, 0.8657],
    [0.8574, 0.4850, 0.4638],
    [0.8657, 0.3569, 0.0074],
])

# Row-sum variances of the known block-RA limits reachable from column
# permutations of the shared 4x4 margins.
KNOWN_LIMIT_VARIANCES = (0.0, 0.0049, 0.0151, 0.0217, 0.0435)


@pytest.fixture
def local_min_4x4():
    return SIGMA_CM_LOCAL_MIN.copy()


@pytest.fixture
def complete_mix_4x4():
    return COMPLETE_MIX.copy()


@pytest.fixture
def ra_stuck_4x4():
    return RA_STUCK.copy()


@pytest.fixture
def uniform_8x3():
    return UNIFORM_8X3.copy()


def ref_spearman(x, y):
    """Spearman's rho of two vectors, one vector at a time: a frozen reference.

    Midranks from a stable argsort; tie-free pairs take the integer formula,
    tied pairs the correlation of their centred midranks through ``np.sum``
    and ``np.dot``.  The package's scorer must give these values bit for bit.
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    m = x.size
    ranks = []
    for v in (x, y):
        order = np.argsort(v, kind="stable")
        sorted_v = v[order]
        starts = np.flatnonzero(np.r_[True, sorted_v[1:] != sorted_v[:-1]])
        ends = np.r_[starts[1:], m]
        r = np.empty(m)
        r[order] = np.repeat((starts + ends - 1) / 2.0 + 1.0, ends - starts)
        ranks.append(r)
    rx, ry = ranks
    if np.unique(x).size == m and np.unique(y).size == m:
        d = rx.astype(np.int64) - ry.astype(np.int64)
        return 1.0 - 6.0 * int(np.sum(d * d, dtype=np.int64)) / (m * (m * m - 1))
    rx -= rx.mean()
    ry -= ry.mean()
    sx = float(np.sqrt(np.sum(rx * rx)))
    sy = float(np.sqrt(np.sum(ry * ry)))
    return float(np.dot(rx, ry) / (sx * sy))
