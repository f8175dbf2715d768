"""Block rearrangement toolkit: variance-minimizing rearrangements of matrix
columns, dependence diagnostics, exact oracles, an MCMC search variant, and
a workflow that fits joint dependence so row sums match a target law."""

__version__ = "0.1.0"

from . import algorithms, bench, dependence, gof, matrix, mcmc, oracle, targetfit
from .algorithms import *  # noqa: F401,F403
from .bench import *  # noqa: F401,F403
from .dependence import *  # noqa: F401,F403
from .gof import *  # noqa: F401,F403
from .matrix import *  # noqa: F401,F403
from .mcmc import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .targetfit import *  # noqa: F401,F403

__all__ = sorted(["__version__"] + [
    name for module in (algorithms, bench, dependence, gof, matrix, mcmc, oracle, targetfit)
    for name in module.__all__
])
