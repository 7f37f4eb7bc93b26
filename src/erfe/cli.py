"""Command-line front-end: fit, simulate, expectile, transform.

Outputs are deterministic functions of (input bytes, flags, seed), each
a table written in CSV or JSON by ``panel.write_table`` from numpy columns,
or, for ``transform``, by ``panel.write_blocks`` from blocks of rows made
as they are written from each tau's subject means, its subjects given as
the panel's labels and codes.  ``fit`` and ``transform`` fit one stack,
the input's panel less the regressors constant within subjects.  Every
failure reaches ``main``, which prints one ``error:`` line.  Exit codes: 0
on success with full convergence, 1 on file/parse/rank errors, 2 when some
requested fit did not converge (best-effort estimates are still printed).
"""

from __future__ import annotations

import argparse
import contextlib
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
    validate_workers,
)
from .panel import (
    block_rows,
    read_csv_column,
    read_panel_csv,
    stack_panels,
    validate_taus,
    validate_v,
    write_blocks,
    write_table,
)
from .within import subject_means, subject_weights

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the parse-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _argument(parse):
    """``parse`` as an argparse type that reports the message of the
    ValueError it raises, which argparse would replace."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


@contextlib.contextmanager
def _output(out: str | None):
    """The text stream of ``--out``: stdout for none or "-"."""
    if out in (None, "-"):
        yield sys.stdout
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _emit(header, columns, fmt: str, out: str | None):
    with _output(out) as fh:
        write_table(fh, header, columns, fmt)


def _read_estimable(args):
    """The panel of ``args.input``, the indices of its regressors that are
    not constant within subjects, and its stack of one with only those
    regressors; the others are named in a warning."""
    panel = read_panel_csv(args.input, args.subject_col, args.response_col)
    stack = stack_panels([panel])
    constant = stack.constant[0]
    kept = np.flatnonzero(~constant).tolist()
    if constant.any():
        names = [panel.column_names[j] for j in np.flatnonzero(constant)]
        print(f"warning: regressor(s) {names} are constant within subjects; "
              "dropped from estimation", file=sys.stderr)
        stack = stack.keep_regressors(kept)
    return panel, kept, stack


_FIT_HEADER = ["tau", "term", "estimate", "std_error", "ci_lower", "ci_upper",
               "iterations", "converged"]


def _stop_on_failure(errors):
    """Raise the first of ``errors`` that stopped a fit or a sandwich for
    another reason than running out of rounds; a singular Gram matrix is
    reported with the regressors it involves."""
    for error in errors:
        if isinstance(error, SingularGramError):
            raise SingularGramError(f"singular weighted Gram matrix involving "
                                    f"columns {list(error.columns)}: {error}")
        if error is not None and not isinstance(error, NoConvergenceError):
            raise error


def cmd_fit(args) -> int:
    validate_v(args.v, len(args.tau), args.joint)
    panel, kept, stack = _read_estimable(args)
    if not kept:
        raise ValueError("no estimable regressors remain")
    fit = fit_stack(stack, args.tau, args.v, joint=args.joint)
    cov, errors = sandwich_stack(stack, fit)
    _stop_on_failure(errors[0])

    # estimate, std_error, ci_lower, ci_upper per (tau, regressor): NaN for a
    # dropped regressor; a fit that ran out of rounds has no sandwich, so
    # only its estimates are numbers.
    q, width = len(fit.taus), panel.n_regressors
    values = np.full((q, width, 4), np.nan)
    values[:, kept] = np.concatenate([
        fit.betas[0, :, :, None], cov.se[0].reshape(q, -1, 1),
        conf_intervals(fit, cov, args.level)[0].reshape(q, -1, 2)], axis=2)
    converged = np.array([str(error is None).lower() for error in fit.errors[0]])
    columns = [np.repeat(fit.taus, width), np.tile(panel.column_names, q),
               *values.reshape(-1, 4).T, np.repeat(fit.iterations[0], width),
               np.repeat(converged, width)]
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
    expectiles = np.array([sample_expectile(values, tau) for tau in args.tau])
    _emit(["tau", "expectile"], [np.array(args.tau), expectiles], args.format, args.out)
    return EXIT_OK


def _transform_blocks(panel, taus, means):
    """The blocks of the transform's table, tau by tau: of each row its tau,
    its subject, as the panel's (labels, codes), and its y and X less its
    subject's weighted means at that tau, one (n, p + 1) array of ``means``
    per tau, as ``within.apply_within`` subtracts them."""
    for tau, mean in zip(taus, means):
        for rows in block_rows(panel.n_obs):
            codes = panel.codes[rows]
            at = mean[codes]
            yield [np.full(codes.size, tau), (panel.subject_labels, codes),
                   panel.y[rows] - at[:, 0], *(panel.X[rows] - at[:, 1:]).T]


def cmd_transform(args) -> int:
    panel, kept, stack = _read_estimable(args)
    # tau = 0.5 is the plain within transform; every other tau needs a fit.
    fitted = tuple(tau for tau in args.tau if tau != 0.5)
    partial = False
    if fitted:
        if not kept:
            raise ValueError("no estimable regressors; weighted transform "
                             "requires a fit")
        fit = fit_stack(stack, fitted)
        _stop_on_failure(fit.errors[0])
        partial = any(e is not None for e in fit.errors[0])
    # Per tau, each subject's weighted means of y and of every regressor,
    # (n, p + 1); the table's rows are made from them as they are written.
    means = []
    for tau in args.tau:
        residuals = (np.zeros(panel.n_obs) if tau == 0.5
                     else fit.residuals_star[0, fitted.index(tau)])
        weights = subject_weights(residuals, tau, panel)
        means.append(np.column_stack([subject_means(col, weights, panel)
                                      for col in (panel.y, *panel.X.T)]))
    header = ["tau", "subject", f"{args.response_col}_star",
              *(f"{name}_star" for name in panel.column_names)]
    with _output(args.out) as fh:
        write_blocks(fh, header, _transform_blocks(panel, args.tau, means), args.format)
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
    cell = SimulationConfig  # whose field defaults are the flags' defaults
    sim.add_argument("--n", type=int, default=cell.n, help="number of subjects")
    sim.add_argument("--m", type=int, default=cell.m, help="observations per subject")
    sim.add_argument("--gamma", type=float, default=cell.gamma,
                     help="heteroskedasticity strength (0 = location shift)")
    sim.add_argument("--error-dist", choices=tuple(ERROR_LAWS), default=cell.error_dist)
    sim.add_argument("--replications", type=int, default=cell.replications)
    sim.add_argument("--joint", action="store_true")
    sim.add_argument("--dump-estimates", default=None,
                     help="also write per-replication estimates to this path")
    add_common(sim)
    sim.add_argument("--seed", type=int, default=cell.seed, help="random seed")
    sim.set_defaults(func=cmd_simulate, tau=cell.taus)

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
        p.add_argument("--workers", type=_argument(lambda s: validate_workers(int(s))),
                       default=1, help="parallel workers (governs simulate only)")

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
