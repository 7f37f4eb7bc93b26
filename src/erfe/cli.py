"""Command-line front-end: fit, simulate, expectile, transform.

Outputs are deterministic functions of (input bytes, flags, seed): numbers
are serialized with 17 significant digits so CSV and JSON carry identical
values, and CSV rows always use "\\n" line endings.  Exit codes: 0 on
success with full convergence, 1 on file/parse/rank errors, 2 when some
requested fit did not converge (best-effort estimates are still printed).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from .covariance import conf_intervals, sandwich_multi, sandwich_single
from .errors import ErfeError, NoConvergenceError, SingularGramError
from .estimator import fit_erfe_multi, fit_erfe_single
from .expectiles import sample_expectile
from .montecarlo import (
    SimulationConfig,
    estimates_to_csv,
    metrics_to_csv,
    run_monte_carlo,
)
from .panel import format_number, read_csv_column, read_panel_csv, validate_taus
from .within import (
    apply_within,
    subject_demeaned,
    subject_weights,
    within_constant_columns,
)

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


def _parse_taus(text: str) -> tuple[float, ...]:
    try:
        return validate_taus(text.split(","))
    except ValueError as exc:  # argparse would replace the message
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _write_text(text: str, out: str | None):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# Output tables are passed as columns: sequences of Python values, or numpy
# arrays of floats.  Both formats are written a block of rows at a time, so
# that only one block of cells is alive at once.
_BLOCK_ROWS = 65536


def _blocks(columns):
    n_rows = len(columns[0]) if columns else 0
    for start in range(0, n_rows, _BLOCK_ROWS):
        yield [col[start:start + _BLOCK_ROWS] for col in columns]


def _write_csv(fh, header, columns):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for block in _blocks(columns):
        writer.writerows(zip(*(
            list(map(format_number, col.tolist())) if isinstance(col, np.ndarray)
            else [format_number(v) if isinstance(v, float) else str(v) for v in col]
            for col in block
        )))


def _write_json(fh, header, columns):
    """The rows as ``json.dumps(records, indent=2) + "\\n"``, one record
    per row with NaN as null, written a block of records at a time."""
    opening = "[\n"
    for block in _blocks(columns):
        records = [
            {key: None if isinstance(value, float) and math.isnan(value) else value
             for key, value in zip(header, row)}
            for row in zip(*(col.tolist() if isinstance(col, np.ndarray) else col
                             for col in block))
        ]
        # Strip the list's own "[\n" and "\n]": the records in between are
        # laid out as in a dump of the whole table.
        fh.write(opening)
        fh.write(json.dumps(records, indent=2)[2:-2])
        opening = ",\n"
    fh.write("[]\n" if opening == "[\n" else "\n]\n")


def _emit(header, columns, fmt: str, out: str | None):
    write = _write_json if fmt == "json" else _write_csv
    if out in (None, "-"):
        write(sys.stdout, header, columns)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write(fh, header, columns)


def _split_estimable(panel):
    """Partition regressors into estimable and within-constant columns."""
    dropped = within_constant_columns(
        panel, subject_demeaned(panel.X.T, panel)).tolist()
    kept = [j for j in range(panel.n_regressors) if j not in dropped]
    if dropped:
        names = [panel.column_names[j] for j in dropped]
        print(
            f"warning: regressor(s) {names} are constant within subjects; "
            "dropped from estimation (reported as NA)",
            file=sys.stderr,
        )
    return kept, dropped


def _reduced_panel(panel, kept):
    """The panel with only the regressor columns ``kept``; other fields are shared."""
    # C order, as the fits' BLAS calls round differently on other layouts.
    X = np.ascontiguousarray(panel.X[:, kept])
    X.flags.writeable = False
    return dataclasses.replace(
        panel, X=X, column_names=tuple(panel.column_names[j] for j in kept))


_FIT_HEADER = ["tau", "term", "estimate", "std_error", "ci_lower", "ci_upper",
               "iterations", "converged"]


def cmd_fit(args) -> int:
    panel = read_panel_csv(args.input, args.subject_col, args.response_col)
    taus = args.tau
    kept, dropped = _split_estimable(panel)
    if not kept:
        print("error: no estimable regressors remain", file=sys.stderr)
        return EXIT_ERROR
    reduced = _reduced_panel(panel, kept)

    rows = []
    partial = False

    def emit_tau(tau, beta, se, ci, iterations, converged):
        pos = 0
        for j in range(panel.n_regressors):
            name = panel.column_names[j]
            if j in dropped:
                rows.append([float(tau), name, float("nan"), float("nan"),
                             float("nan"), float("nan"), iterations,
                             str(bool(converged)).lower()])
            else:
                rows.append([
                    float(tau), name, float(beta[pos]),
                    float(se[pos]) if se is not None else float("nan"),
                    float(ci[pos][0]) if ci is not None else float("nan"),
                    float(ci[pos][1]) if ci is not None else float("nan"),
                    iterations, str(bool(converged)).lower(),
                ])
                pos += 1

    try:
        if args.joint and len(taus) > 1:
            v = args.v if args.v is not None else tuple([1.0] * len(taus))
            if len(v) != len(taus):
                print("error: --v length must match --tau", file=sys.stderr)
                return EXIT_ERROR
            try:
                fit = fit_erfe_multi(reduced, taus, v)
                cov = sandwich_multi(reduced, fit)
                ci = conf_intervals(fit, cov, args.level)
            except NoConvergenceError as exc:
                fit, cov, ci = exc.result, None, None
                partial = True
            p = reduced.n_regressors
            for k, tau in enumerate(taus):
                se_k = cov.se[k * p:(k + 1) * p] if cov is not None else None
                ci_k = ci[k * p:(k + 1) * p] if ci is not None else None
                emit_tau(tau, fit.betas[k], se_k, ci_k,
                         fit.iterations, fit.converged)
        else:
            for tau in taus:
                try:
                    fit = fit_erfe_single(reduced, tau)
                    cov = sandwich_single(reduced, fit)
                    ci = conf_intervals(fit, cov, args.level)
                    emit_tau(tau, fit.beta, cov.se, ci,
                             fit.iterations, fit.converged)
                except NoConvergenceError as exc:
                    partial = True
                    fit = exc.result
                    emit_tau(tau, fit.beta, None, None,
                             fit.iterations, fit.converged)
    except SingularGramError as exc:
        names = exc.columns or reduced.column_names
        print(f"error: singular weighted Gram matrix involving columns "
              f"{list(names)}: {exc}", file=sys.stderr)
        return EXIT_ERROR

    _emit(_FIT_HEADER, list(zip(*rows)), args.format, args.out)
    return EXIT_PARTIAL if partial else EXIT_OK


def cmd_simulate(args) -> int:
    config = SimulationConfig(
        n=args.n, m=args.m, gamma=args.gamma, error_dist=args.error_dist,
        taus=args.tau, replications=args.replications, seed=args.seed,
        joint=args.joint,
    )
    metrics = run_monte_carlo(config, workers=args.workers)
    if args.format == "json":
        header = ["tau", "coefficient", "true_value", "mean_estimate", "bias",
                  "sd", "mean_se", "se_sd_ratio", "replications_used",
                  "failures"]
        columns = [[getattr(r, name) for r in metrics.rows] for name in header]
        _emit(header, columns, "json", args.out)
    else:
        _write_text(metrics_to_csv(metrics), args.out)
    if args.dump_estimates:
        _write_text(estimates_to_csv(config, metrics), args.dump_estimates)
    return EXIT_OK


def cmd_expectile(args) -> int:
    values = read_csv_column(args.input, args.response_col)
    expectiles = [float(sample_expectile(values, tau)) for tau in args.tau]
    _emit(["tau", "expectile"], [list(args.tau), expectiles], args.format, args.out)
    return EXIT_OK


def cmd_transform(args) -> int:
    panel = read_panel_csv(args.input, args.subject_col, args.response_col)
    kept, _dropped = _split_estimable(panel)
    partial = False
    y_blocks, x_blocks = [], []
    for tau in args.tau:
        if tau == 0.5 or not kept:
            if tau != 0.5 and not kept:
                print("error: no estimable regressors; weighted transform "
                      "requires a fit", file=sys.stderr)
                return EXIT_ERROR
            weights = subject_weights(np.zeros(panel.n_obs), 0.5, panel)
        else:
            reduced = _reduced_panel(panel, kept)
            try:
                fit = fit_erfe_single(reduced, tau)
            except NoConvergenceError as exc:
                fit = exc.result
                partial = True
            weights = subject_weights(fit.residuals_star, tau, reduced)
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
        p.add_argument("--tau", type=_parse_taus, default=(0.5,),
                       help="comma-separated asymmetric points in (0,1)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=0,
                       help="random seed (simulate only)")
        p.add_argument("--workers", type=int, default=1,
                       help="parallel workers (governs simulate only)")

    fit = sub.add_parser("fit", help="fit the panel expectile model on a CSV")
    add_io(fit)
    add_common(fit)
    fit.add_argument("--v", type=_parse_floats, default=None,
                     help="influence weights for --joint (default uniform)")
    fit.add_argument("--joint", action="store_true",
                     help="fit all asymmetric points jointly")
    fit.add_argument("--level", type=float, default=0.95,
                     help="confidence level (default 0.95)")
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", help="run a Monte Carlo scenario cell")
    sim.add_argument("--n", type=int, default=100, help="number of subjects")
    sim.add_argument("--m", type=int, default=5, help="observations per subject")
    sim.add_argument("--gamma", type=float, default=0.0,
                     help="heteroskedasticity strength (0 = location shift)")
    sim.add_argument("--error-dist", choices=("gaussian", "student_t3", "chi2_3"),
                     default="gaussian")
    sim.add_argument("--replications", type=int, default=200)
    sim.add_argument("--joint", action="store_true")
    sim.add_argument("--dump-estimates", default=None,
                     help="also write per-replication estimates to this path")
    add_common(sim)
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
