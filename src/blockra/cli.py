"""Command-line front end: one verb per workflow, JSON reports on stdout.

Matrices travel as headerless CSV (17 significant digits per entry),
traces as CSV with the header ``iter,objective,accepted``.  Every report
embeds the package version and the fully resolved configuration, seeds
included, so a run is reproducible bit for bit from its own output.
stdout carries the report only; diagnostics go to stderr.  Exit codes:
0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import Optional, Sequence

import numpy as np

from . import __version__, gof
from .algorithms import BlockRaConfig, RunResult, block_ra1, block_ra2, standard_ra
from .bench import _DEFAULT_CELLS, enumerate_starts, run_table_benchmark
from .dependence import (
    EXACT_PARTITION_CAP,
    multivariate_dependence_exact,
    multivariate_dependence_sampled,
    spearman,
)
from .gof import _GRID_POINTS, TargetDistribution, default_thresholds, median_threshold, verdict
from .matrix import read_matrix_csv, write_matrix_csv
from .mcmc import McmcConfig, mcmc_block_ra, resolve_rate
from .oracle import (
    _MAX_ARRANGEMENTS,
    brute_force_minimum,
    haus_integer_matrix,
    haus_integer_minimum,
    make_zero_sum_normal_matrix,
)
from .targetfit import FitConfig, MarginSpec, fit_sum_to_target, spread_dependence

__all__ = ["build_parser", "main"]


class UsageError(Exception):
    """Bad flag combination that argparse alone cannot catch."""


def _uint64(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _fields(result, *skip: str) -> dict:
    """The result's fields in declaration order, minus those named in skip.

    Values are the result's own objects, not copies: the report leaves out
    matrices and arrays rather than serializing them.
    """
    return {f.name: getattr(result, f.name) for f in fields(result) if f.name not in skip}


def _report(body: dict, args: argparse.Namespace, **resolved) -> dict:
    """The verb's result keys, then the verb, the version and the config.

    The config is every option of the verb under its JSON name, plus the
    values the verb resolved from them (``resolved``).
    """
    out = dict(body)  # result keys first so the headline numbers lead the report
    out["verb"] = args.verb
    out["version"] = __version__
    config = {k: v for k, v in vars(args).items() if k not in ("func", "verb", "out")}
    config.update(resolved)
    out["config"] = config
    return out


def _write_json(report: dict, out_path: Optional[str]) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_trace(path: str, objectives: Sequence[float], accepted: Sequence[bool]) -> None:
    # Row 0 is the starting objective, never accepted.
    rows = np.column_stack((np.arange(len(objectives)), objectives, accepted))
    np.savetxt(path, rows, "%d,%.17g,%d", header="iter,objective,accepted", comments="")


def _read_column(path: str, name: str) -> np.ndarray:
    values = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=1)
    if values.ndim != 1:
        raise UsageError(f"--{name} must be a single-column CSV")
    return values


def _config(cls, args: argparse.Namespace):
    """A ``cls`` from the verb's flags that name its fields; the rest keep their defaults."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)})


# ---------------------------------------------------------------- verbs


def _cmd_rearrange(args: argparse.Namespace) -> dict:
    census = getattr(args, "enumerate_starts", False)
    if census and (args.matrix_out or args.trace_out):
        raise UsageError("--enumerate-starts writes no matrix or trace; "
                         "drop --matrix-out and --trace-out")
    mat = read_matrix_csv(args.input)
    cfg = _config(BlockRaConfig, args)
    if census:
        result = enumerate_starts(mat, cfg)
        body = {
            "starts": result.starts,
            "limits": [{"objective": v, "starts": c} for v, c in result.limits],
            "m": mat.m,
            "n": mat.n,
        }
        return _report(body, args)
    runner = {"ra": standard_ra, "bra1": block_ra1, "bra2": block_ra2}[args.verb]
    result: RunResult = runner(mat, cfg)
    if args.matrix_out:
        write_matrix_csv(result.final_matrix, args.matrix_out)
    trace = result.objective_trace
    if args.trace_out:  # a sweep is accepted when it strictly lowered the objective
        _write_trace(args.trace_out, trace, [False, *(b < a for a, b in zip(trace, trace[1:]))])
    body = _fields(result, "final_matrix", "objective_trace")
    body["start_objective"] = float(trace[0])
    body["m"], body["n"] = mat.m, mat.n
    if args.verb == "ra":  # column moves: no splits to resolve
        return _report(body, args)
    return _report(body, args, n_sim_resolved=cfg.resolve_n_sim(mat.n))


def _cmd_mcmc(args: argparse.Namespace) -> dict:
    mat = read_matrix_csv(args.input)
    cfg = _config(McmcConfig, args)
    trace = mcmc_block_ra(mat, cfg)
    if args.matrix_out:
        write_matrix_csv(trace.best_matrix, args.matrix_out)
    if args.trace_out:
        _write_trace(args.trace_out, [mat.row_sum_variance, *trace.objective_per_iter],
                     [False, *trace.accepted])
    body = {
        "iterations": int(trace.objective_per_iter.size),
        "best_objective": trace.best_objective,
        "acceptance_rate": float(trace.accepted.mean()) if trace.accepted.size else 0.0,
        "absorbed_at": trace.absorbed_at,
        "start_objective": mat.row_sum_variance,
        "m": mat.m,
        "n": mat.n,
    }
    return _report(body, args, r_resolved=resolve_rate(mat, cfg), objective=cfg.objective.kind)


def _cmd_oracle(args: argparse.Namespace) -> dict:
    if args.mode == "brute":
        if not args.input:
            raise UsageError("oracle --mode brute needs --input")
        mat = read_matrix_csv(args.input)
        result = brute_force_minimum(mat, max_arrangements=args.max_arrangements)
        if args.matrix_out:
            write_matrix_csv(result.argmin_matrix, args.matrix_out)
        body = _fields(result, "argmin_matrix")
        body["m"], body["n"] = mat.m, mat.n
        return _report(body, args)

    if args.m is None or args.n is None:
        raise UsageError(f"oracle --mode {args.mode} needs --m and --n")
    if args.mode == "haus":
        min_variance, lo_value, count_lo = haus_integer_minimum(args.m, args.n)
        if args.matrix_out:
            write_matrix_csv(haus_integer_matrix(args.m, args.n), args.matrix_out)
        body = {
            "min_variance": min_variance,
            "lo_value": lo_value,
            "count_lo": count_lo,
        }
        return _report(body, args)

    # zerosum: emit the construction whose row sums vanish identically.
    mat = make_zero_sum_normal_matrix(args.m, args.n, rng_seed=args.rng_seed)
    if args.matrix_out:
        write_matrix_csv(mat, args.matrix_out)
    body = {"row_sum_variance": mat.row_sum_variance, "m": args.m, "n": args.n}
    return _report(body, args)


def _cmd_measure(args: argparse.Namespace) -> dict:
    mat = read_matrix_csv(args.input)
    mode = args.mode
    if mode == "auto":
        mode = "exact" if mat.n <= EXACT_PARTITION_CAP else "sampled"
    if mode == "exact":
        report = multivariate_dependence_exact(mat)
    else:
        report = multivariate_dependence_sampled(mat, args.n_samples, args.rng_seed)
    body = _fields(report, "per_partition")
    body["row_sum_variance"] = mat.row_sum_variance
    body["m"], body["n"] = mat.m, mat.n
    return _report(body, args, mode_resolved=mode)


def _cmd_fit_sum(args: argparse.Namespace) -> dict:
    margins = {"uniform": MarginSpec.uniform_symmetric, "normal": MarginSpec.normal}[args.margins]
    report = fit_sum_to_target(margins(args.n), getattr(TargetDistribution, args.target)(),
                               args.m, _config(FitConfig, args))
    if args.matrix_out:
        write_matrix_csv(report.final_matrix, args.matrix_out)
    if args.emit_joint:
        # First two margin columns: the fitted dependence sample.
        write_matrix_csv(report.final_matrix.values[:, :2], args.emit_joint)
    body = _fields(report, "final_matrix")
    body["m"] = args.m
    return _report(body, args, grid_points=_GRID_POINTS)


def _cmd_spread(args: argparse.Namespace) -> dict:
    fp = _read_column(args.fp, "fp")
    fg = _read_column(args.fg, "fg")
    fs = _read_column(args.fs, "fs")
    if not fp.size == fg.size == fs.size:
        raise UsageError(
            f"quantile tables disagree on length: fp={fp.size} fg={fg.size} fs={fs.size}"
        )
    result = spread_dependence(fp, fg, fs, _config(FitConfig, args))
    if args.emit_joint:
        write_matrix_csv(result.copula, args.emit_joint)
    body = {
        "residual_variance": result.residual_variance,
        "rows": result.copula.m,
        "rho_joint": spearman(result.copula.values[:, 0], result.copula.values[:, 1]),
        **_fields(result, "copula", "residual_variance"),
    }
    return _report(body, args, m=int(fp.size))


def _cmd_gof(args: argparse.Namespace) -> dict:
    values = gof._sample(_read_column(args.input, "input"), sort=True)  # before any threshold
    target = getattr(TargetDistribution, args.target)()
    m = args.m if args.m is not None else int(values.size)
    thresholds = default_thresholds(target, m, n_replicates=args.reps, rng_seed=args.rng_seed)
    return _report(_fields(verdict(values, target, thresholds)), args, m=m)


def _cmd_thresholds(args: argparse.Namespace) -> dict:
    level = median_threshold(args.test, getattr(TargetDistribution, args.target)(), args.m,
                             n_replicates=args.reps, rng_seed=args.rng_seed)
    return _report({"test": args.test, "threshold": level}, args)


def _cmd_bench(args: argparse.Namespace) -> dict:
    report = run_table_benchmark(args.table, replicates=args.replicates, rng_seed=args.rng_seed,
                                 m=args.m, n=args.n, jobs=args.jobs)
    body = {
        "table": report.table,
        "replicates": report.replicates,
        "cells": [_fields(cell) for cell in report.cells],
    }
    return _report(body, args)


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockra",
        description="Variance-minimizing rearrangements, dependence diagnostics, "
        "exact oracles, MCMC search, target-sum fitting, and table benchmarks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    # Option groups several verbs share.  Each option's dest is its key in
    # the report's config.
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", dest="rng_seed", type=_uint64, default=0)
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--input", required=True, help="matrix CSV, no header")
    io.add_argument("--matrix-out", help="write the final (mcmc: best visited) matrix CSV here")
    io.add_argument("--trace-out", help="write the per-sweep (mcmc: per-iteration) trace CSV here")
    rearrange = argparse.ArgumentParser(add_help=False)
    rearrange.add_argument("--max-sweeps", type=int, default=BlockRaConfig.max_sweeps)
    blocks = argparse.ArgumentParser(add_help=False)
    blocks.add_argument("--n-sim", type=int,
                        help="partitions per pass (default: all up to 512)")
    law = argparse.ArgumentParser(add_help=False)
    law.add_argument("--target", choices=("normal", "uniform"), required=True)
    law.add_argument("--reps", type=int, default=41)

    def add(name: str, func, help_text: str, parents=()) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text, parents=list(parents))
        sp.set_defaults(func=func)
        sp.add_argument("--out", help="write the JSON report to this file instead of stdout")
        return sp

    add("ra", _cmd_rearrange, "column-cycling rearrangement to a sweep-stable point",
        [io, rearrange])
    sp = add("bra1", _cmd_rearrange, "block rearrangement guided by the dependence measure",
             [io, blocks, rearrange, seed])
    sp.add_argument("--rho-stop", type=float, default=BlockRaConfig.rho_stop)
    sp = add("bra2", _cmd_rearrange, "block rearrangement over sampled partitions per pass",
             [io, blocks, rearrange, seed])
    sp.add_argument("--improvement-tol", type=float, default=BlockRaConfig.improvement_tol)
    sp.add_argument("--enumerate-starts", action="store_true",
                    help="census every canonical column-permuted start instead of one run")

    sp = add("mcmc", _cmd_mcmc, "Metropolis search with Gumbel-ranked proposals", [io, seed])
    sp.add_argument("--iterations", dest="n_iter", type=int, default=McmcConfig.n_iter)
    sp.add_argument("--rate", dest="r", type=float,
                    help="Gumbel rate (default: set from the start)")
    sp.add_argument("--absorb-tol", type=float, default=McmcConfig.absorb_tol)

    sp = add("oracle", _cmd_oracle, "exact minimum-variance references", [seed])
    sp.add_argument("--mode", choices=("brute", "haus", "zerosum"), default="brute")
    sp.add_argument("--input", help="matrix CSV (brute mode)")
    sp.add_argument("--max-arrangements", type=int, default=_MAX_ARRANGEMENTS)
    sp.add_argument("--m", type=int, help="rows (haus and zerosum modes)")
    sp.add_argument("--n", type=int, help="columns (haus and zerosum modes)")
    sp.add_argument("--matrix-out", help="write the reference matrix CSV here")

    sp = add("measure", _cmd_measure, "multivariate dependence measure of a matrix", [seed])
    sp.add_argument("--input", required=True)
    sp.add_argument("--mode", choices=("auto", "exact", "sampled"), default="auto")
    sp.add_argument("--n-samples", type=int, default=512)

    sp = add("fit-sum", _cmd_fit_sum, "fit margin dependence so row sums match a target law",
             [seed])
    sp.add_argument("--margins", choices=("uniform", "normal"), required=True)
    sp.add_argument("--n", type=int, default=2, help="number of margin columns")
    sp.add_argument("--target", choices=("normal", "uniform"), required=True)
    sp.add_argument("--m", type=int, required=True, help="discretization rows")
    sp.add_argument("--n-sim", type=int)
    sp.add_argument("--rel-tol", type=float, default=FitConfig.rel_tol)
    sp.add_argument("--max-passes", type=int, default=FitConfig.max_passes)
    sp.add_argument("--matrix-out", help="write the fitted (n+1)-column matrix CSV here")
    sp.add_argument("--emit-joint", help="write the first two fitted columns as CSV here")

    sp = add("spread", _cmd_spread, "two-asset dependence from three marginal quantile tables",
             [seed])
    sp.add_argument("--fp", required=True, help="first asset quantile CSV")
    sp.add_argument("--fg", required=True, help="second asset quantile CSV")
    sp.add_argument("--fs", required=True, help="spread quantile CSV")
    sp.add_argument("--max-passes", type=int, default=FitConfig.max_passes)
    sp.add_argument("--emit-joint", help="write the recovered joint sample CSV here")

    sp = add("gof", _cmd_gof, "distance verdict of a value sample against a target law",
             [law, seed])
    sp.add_argument("--input", required=True, help="single-column values CSV")
    sp.add_argument("--m", type=int, help="threshold sample size (default: input length)")

    sp = add("thresholds", _cmd_thresholds, "simulated median threshold for one distance",
             [law, seed])
    sp.add_argument("--test", choices=("ks", "w2"), required=True)
    sp.add_argument("--m", type=int, required=True)

    sp = add("bench", _cmd_bench, "re-run one comparison table at desk scale", [seed])
    sp.add_argument("--table", choices=tuple(_DEFAULT_CELLS), required=True)
    sp.add_argument("--replicates", type=int, default=200)
    sp.add_argument("--m", type=int, help="single-cell row count")
    sp.add_argument("--n", type=int, help="single-cell column count")
    sp.add_argument("--jobs", type=int, default=1)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed; keep main callable
        return int(exc.code or 0)
    try:
        report = args.func(args)
        _write_json(report, args.out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: diagnostic on stderr, exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
