#!/usr/bin/env python3
"""Fit n-margin sums to a target law and report the fitted scale and distances.

The two headline cases: two U[-a,a] margins whose sum is driven to N(0,1)
(the half-width a is the support bound, the largest target quantile over
n(m-1)/(m+1): 2.3767 at m=10^6 and n=2), and two N(0,sigma) margins driven
to U[-1,1] (sigma settles near 0.337).  Each case prints the
fitted scale, the pass count and why the fit stopped (settled or out of
passes), both distances against their m=10^6 median thresholds, and the
wall time.  Defaults reproduce both at m=10^6; expect a few minutes.
"""

import argparse
import sys
import time

from blockra.gof import TargetDistribution, default_thresholds
from blockra.targetfit import FitConfig, MarginSpec, fit_sum_to_target


def run_case(name: str, margins: MarginSpec, target: TargetDistribution,
             m: int, seed: int) -> None:
    t0 = time.time()
    report = fit_sum_to_target(margins, target, m, FitConfig(rng_seed=seed))
    dt = time.time() - t0
    print(f"{name}: scale={report.fitted_scale:.4f} passes={report.iterations} "
          f"stop={report.stop_reason} "
          f"ks={report.ks:.2e} (<= {report.ks_threshold:.1e}) "
          f"w2={report.w2:.2e} (<= {report.w2_threshold:.1e}) "
          f"verdict={report.verdict} ({dt:.0f}s)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=10**6)
    parser.add_argument("--n", type=int, default=2, help="margin columns")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", nargs="+", default=["uniform-to-normal", "normal-to-uniform"],
                        choices=["uniform-to-normal", "normal-to-uniform"])
    args = parser.parse_args()

    if "uniform-to-normal" in args.cases:
        run_case(
            f"U[-a,a]^{args.n} -> N(0,1), m={args.m}",
            MarginSpec.uniform_symmetric(args.n),
            TargetDistribution.normal(0.0, 1.0),
            args.m, args.seed,
        )
    if "normal-to-uniform" in args.cases:
        run_case(
            f"N(0,s)^{args.n} -> U[-1,1], m={args.m}",
            MarginSpec.normal(args.n),
            TargetDistribution.uniform(-1.0, 1.0),
            args.m, args.seed,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
