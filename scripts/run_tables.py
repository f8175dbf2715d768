#!/usr/bin/env python3
"""Regenerate the three RA/BRA comparison tables at a chosen replicate count.

Prints one aligned table per protocol.  At the default 200 replicates the
cell means are stable to roughly a factor-of-three band around the values
obtained with 10,000 replicates; pass --replicates 10000 to reproduce the
reference scale (slow).
"""

import argparse
import sys
import time

from blockra.bench import run_table_benchmark


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicates", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--tables", nargs="+", default=["tcomp", "t1b", "t3b"],
                        choices=["tcomp", "t1b", "t3b"])
    args = parser.parse_args()

    for table in args.tables:
        t0 = time.perf_counter()
        report = run_table_benchmark(table, replicates=args.replicates,
                                     rng_seed=args.seed, jobs=args.jobs)
        dt = time.perf_counter() - t0
        print(f"\n{table}  ({args.replicates} replicates, seed {args.seed}, {dt:.0f}s)")
        field, label = ("gap", "gap ") if table == "t1b" else ("v", "V ")
        print(f"{'cell':>10} {label + 'RA':>12} {label + 'BRA':>12} {'se RA':>10} {'se BRA':>10}")
        for c in report.cells:
            mean_ra, mean_bra, se_ra, se_bra = (getattr(c, f"{stat}_{field}_{stage}")
                                                for stat in ("mean", "se") for stage in ("ra", "bra"))
            print(f"({c.m:>3},{c.n:>2}) {mean_ra:>12.3e} {mean_bra:>12.3e} {se_ra:>10.1e} {se_bra:>10.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
