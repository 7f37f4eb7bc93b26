"""Command-line front-end: fit, simulate, expectile, transform.

Outputs are deterministic functions of (input bytes, flags, seed), each
a table written by ``panel.write_table`` in CSV or JSON.  Exit codes: 0 on
success with full convergence, 1 on file/parse/rank errors, 2 when some
requested fit did not converge (best-effort estimates are still printed).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .covariance import conf_intervals, sandwich_stack, validate_level
from .errors import ErfeError, NoConvergenceError, SingularGramError
from .estimator import fit_stack
from .expectiles import sample_expectile
from .montecarlo import (
    ERROR_LAWS,
    SimulationConfig,
    estimates_table,
    metrics_table,
    run_monte_carlo,
)
from .panel import (
    read_csv_column,
    read_panel_csv,
    stack_panels,
    validate_taus,
    write_table,
)
from .within import apply_within, subject_weights, within_constant

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2


class _UsageExit(SystemExit):
    def __init__(self, message):
        print(message, file=sys.stderr)
        super().__init__(EXIT_ERROR)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the parse-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageExit(f"{self.prog}: error: {message}")


def _argument(parse):
    """``parse`` as an argparse type that reports the message of the
    ValueError it raises, which argparse would replace."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _worker_count(text) -> int:
    count = int(text)
    if count < 1:
        raise ValueError(f"need at least 1 worker, got {count}")
    return count


def _emit(header, columns, fmt: str, out: str | None):
    if out in (None, "-"):
        write_table(sys.stdout, header, columns, fmt)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write_table(fh, header, columns, fmt)


def _split_estimable(panel):
    """Partition regressors into estimable and within-constant columns."""
    dropped = np.flatnonzero(within_constant(panel)).tolist()
    kept = [j for j in range(panel.n_regressors) if j not in dropped]
    if dropped:
        names = [panel.column_names[j] for j in dropped]
        print(
            f"warning: regressor(s) {names} are constant within subjects; "
            "dropped from estimation (reported as NA)",
            file=sys.stderr,
        )
    return kept, dropped


_FIT_HEADER = ["tau", "term", "estimate", "std_error", "ci_lower", "ci_upper",
               "iterations", "converged"]


def _stop_on_failure(errors):
    """Raise the first of ``errors`` that stopped a fit or a sandwich for
    another reason than running out of rounds."""
    for error in errors:
        if error is not None and not isinstance(error, NoConvergenceError):
            raise error


def cmd_fit(args) -> int:
    panel = read_panel_csv(args.input, args.subject_col, args.response_col)
    kept, dropped = _split_estimable(panel)
    if not kept:
        print("error: no estimable regressors remain", file=sys.stderr)
        return EXIT_ERROR
    reduced = panel.keep_regressors(kept) if dropped else panel
    stack = stack_panels([reduced])
    fit = fit_stack(stack, args.tau, args.v, joint=args.joint)
    cov, errors = sandwich_stack(stack, fit)
    try:
        _stop_on_failure(errors[0])
    except SingularGramError as exc:
        names = exc.columns or reduced.column_names
        print(f"error: singular weighted Gram matrix involving columns "
              f"{list(names)}: {exc}", file=sys.stderr)
        return EXIT_ERROR

    # estimate, std_error, ci_lower, ci_upper per (tau, regressor): NaN for a
    # dropped regressor; a fit that ran out of rounds has no sandwich, so
    # only its estimates are numbers.
    q, width = len(fit.taus), panel.n_regressors
    values = np.full((q, width, 4), np.nan)
    values[:, kept] = np.concatenate([
        fit.betas[0, :, :, None], cov.se[0].reshape(q, -1, 1),
        conf_intervals(fit, cov, args.level)[0].reshape(q, -1, 2)], axis=2)
    converged = [str(error is None).lower() for error in fit.errors[0]]
    columns = [np.repeat(fit.taus, width), list(panel.column_names) * q,
               *values.reshape(-1, 4).T, np.repeat(fit.iterations[0], width).tolist(),
               np.repeat(converged, width).tolist()]
    _emit(_FIT_HEADER, columns, args.format, args.out)
    return EXIT_PARTIAL if any(e is not None for e in fit.errors[0]) else EXIT_OK


def cmd_simulate(args) -> int:
    config = SimulationConfig(
        n=args.n, m=args.m, gamma=args.gamma, error_dist=args.error_dist,
        taus=args.tau, replications=args.replications, seed=args.seed,
        joint=args.joint,
    )
    metrics = run_monte_carlo(config, workers=args.workers)
    _emit(*metrics_table(metrics), args.format, args.out)
    if args.dump_estimates:
        _emit(*estimates_table(config, metrics), "csv", args.dump_estimates)
    return EXIT_OK


def cmd_expectile(args) -> int:
    values = read_csv_column(args.input, args.response_col)
    expectiles = [float(sample_expectile(values, tau)) for tau in args.tau]
    _emit(["tau", "expectile"], [list(args.tau), expectiles], args.format, args.out)
    return EXIT_OK


def cmd_transform(args) -> int:
    panel = read_panel_csv(args.input, args.subject_col, args.response_col)
    kept, dropped = _split_estimable(panel)
    reduced = panel.keep_regressors(kept) if dropped else panel
    # tau = 0.5 is the plain within transform; every other tau needs a fit.
    fitted = tuple(tau for tau in args.tau if tau != 0.5)
    partial = False
    if fitted:
        if not kept:
            print("error: no estimable regressors; weighted transform "
                  "requires a fit", file=sys.stderr)
            return EXIT_ERROR
        fit = fit_stack(stack_panels([reduced]), fitted)
        _stop_on_failure(fit.errors[0])
        partial = any(e is not None for e in fit.errors[0])
    y_blocks, x_blocks = [], []
    for tau in args.tau:
        if tau == 0.5:
            weights = subject_weights(np.zeros(panel.n_obs), 0.5, panel)
        else:
            weights = subject_weights(fit.residuals_star[0, fitted.index(tau)], tau,
                                      reduced)
        y_blocks.append(apply_within(panel.y, weights, panel))
        x_blocks.append(apply_within(panel.X, weights, panel))
    header = ["tau", "subject", f"{args.response_col}_star",
              *(f"{name}_star" for name in panel.column_names)]
    columns = [np.repeat(np.asarray(args.tau, dtype=float), panel.n_obs),
               list(map(str, panel.subject_ids.tolist())) * len(args.tau),
               np.concatenate(y_blocks),
               *np.concatenate(x_blocks).T]
    _emit(header, columns, args.format, args.out)
    return EXIT_PARTIAL if partial else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="erfe",
                     description="Expectile regression with fixed effects")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, need_panel=True):
        p.add_argument("--input", required=True, help="long-format CSV file")
        if need_panel:
            p.add_argument("--subject-col", required=True)
        p.add_argument("--response-col", required=True)

    def add_common(p):
        p.add_argument("--tau", type=_argument(lambda s: validate_taus(s.split(","))),
                       default=(0.5,),
                       help="comma-separated asymmetric points in (0,1)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    fit = sub.add_parser("fit", help="fit the panel expectile model on a CSV")
    add_io(fit)
    add_common(fit)
    fit.add_argument("--v", type=_argument(lambda s: tuple(map(float, s.split(",")))),
                     default=None,
                     help="influence weights for --joint (default uniform)")
    fit.add_argument("--joint", action="store_true",
                     help="fit all asymmetric points jointly")
    fit.add_argument("--level", type=_argument(validate_level), default=0.95,
                     help="confidence level (default 0.95)")
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", help="run a Monte Carlo scenario cell")
    sim.add_argument("--n", type=int, default=100, help="number of subjects")
    sim.add_argument("--m", type=int, default=5, help="observations per subject")
    sim.add_argument("--gamma", type=float, default=0.0,
                     help="heteroskedasticity strength (0 = location shift)")
    sim.add_argument("--error-dist", choices=tuple(ERROR_LAWS), default="gaussian")
    sim.add_argument("--replications", type=int, default=200)
    sim.add_argument("--joint", action="store_true")
    sim.add_argument("--dump-estimates", default=None,
                     help="also write per-replication estimates to this path")
    add_common(sim)
    sim.add_argument("--seed", type=int, default=0, help="random seed")
    sim.set_defaults(func=cmd_simulate, tau=(0.1, 0.3, 0.5, 0.8, 0.9))

    exp = sub.add_parser("expectile", help="expectiles of one CSV column")
    add_io(exp, need_panel=False)
    add_common(exp)
    exp.set_defaults(func=cmd_expectile)

    tr = sub.add_parser("transform",
                        help="emit the within-transformed data at given taus")
    add_io(tr)
    add_common(tr)
    tr.set_defaults(func=cmd_transform)

    # fit and transform accept --workers and ignore it, as the benchmark's
    # command lines pass it to every command.
    for p in (fit, sim, tr):
        p.add_argument("--workers", type=_argument(_worker_count), default=1,
                       help="parallel workers (governs simulate only)")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        return args.func(args)
    except (OSError, ValueError, ErfeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
