"""Correctness checks on the program's outputs, in the benchmark's own numpy.

Each check returns ``(name, ok, detail)``.  None of them calls into the
program: the references are plain per-subject demeaning with least
squares, and the first-order conditions of the expectile objective with
the subject effects solved for directly.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# Relative size of the expectile score that still counts as a root, and the
# agreement required of the midpoint fit with the within estimator.
SCORE_TOL = 1e-8
WITHIN_TOL = 1e-8
TRANSFORM_TOL = 1e-9
# Monte Carlo bias gate, in standard errors of the mean estimate.
BIAS_Z = 4.0
# Away from the midpoint x1 carries a small O(1/m) incidental-parameter
# bias as well: over 240 seeds of the mc-cell design its mean was +1.03
# (tau 0.1) and -0.54 (tau 0.9) standard errors of the mean, so a bare
# BIAS_Z gate failed about one run in 400 on correct output.  There the
# gate also allows a bias of sd / (BIAS_M_DIVISOR * m), a tenth of sd at
# m = 5, three times the largest mean bias seen.
BIAS_M_DIVISOR = 2.0


def read_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _subject_sums(codes, values, n):
    return np.bincount(codes, weights=values, minlength=n)


def within_estimator(codes, y, X):
    """Slopes of the fixed-effects model by subject demeaning and lstsq."""
    n = int(codes.max()) + 1
    counts = np.bincount(codes, minlength=n)
    y_dm = y - (_subject_sums(codes, y, n) / counts)[codes]
    X_dm = np.column_stack([
        X[:, j] - (_subject_sums(codes, X[:, j], n) / counts)[codes]
        for j in range(X.shape[1])
    ])
    beta, *_ = np.linalg.lstsq(X_dm, y_dm, rcond=None)
    return beta


def _pooled_effects(codes, residual_blocks, taus):
    """Subject effects solving sum_k sum_t psi_k(e - a)(e - a) = 0.

    With one block this is each subject's sample expectile of ``e``; with
    several it is the effect shared by all blocks (unit influence
    weights).  The map a -> weighted mean is monotone and its weights
    depend only on signs, so iterating it reaches the root exactly.
    """
    n = int(codes.max()) + 1
    alpha = sum(_subject_sums(codes, e, n) for e in residual_blocks)
    alpha /= len(residual_blocks) * np.bincount(codes, minlength=n)
    for _ in range(200):
        num = np.zeros(n)
        den = np.zeros(n)
        for e, tau in zip(residual_blocks, taus):
            psi = np.where(e - alpha[codes] > 0.0, tau, 1.0 - tau)
            num += _subject_sums(codes, psi * e, n)
            den += _subject_sums(codes, psi, n)
        new = num / den
        if np.array_equal(new, alpha):
            break
        alpha = new
    return alpha


def score_residual(codes, y, X, betas, taus) -> float:
    """Largest relative slope score of the expectile fixed-effects objective.

    ``betas`` holds one slope vector per asymmetric point; with more than
    one they share the subject effects (the joint model).  Each slope
    score sum_i psi r x_j is divided by sum_i |psi r x_j|.
    """
    blocks = [y - X @ b for b in betas]
    alpha = _pooled_effects(codes, blocks, taus)
    worst = 0.0
    for e, tau in zip(blocks, taus):
        r = e - alpha[codes]
        terms = (np.where(r > 0.0, tau, 1.0 - tau) * r)[:, None] * X
        worst = max(worst, float(np.max(np.abs(terms.sum(axis=0))
                                        / np.abs(terms).sum(axis=0))))
    return worst


def check_fit(rows, panel, taus, joint) -> list[tuple[str, bool, str]]:
    """Checks on ``erfe fit`` output for the generated ``panel``."""
    results = []
    p = panel.X.shape[1]
    by_tau = {}
    for row in rows:
        by_tau.setdefault(float(row["tau"]), []).append(row)
    shape_ok = sorted(by_tau) == sorted(taus) and all(len(v) == p for v in by_tau.values())
    results.append(("fit.rows", shape_ok, f"{len(rows)} rows for {len(taus)} taus x {p}"))
    if not shape_ok:
        return results
    betas = [np.array([float(r["estimate"]) for r in by_tau[t]]) for t in taus]
    se = np.array([float(r["std_error"]) for r in rows])
    results.append(("fit.se_finite_positive", bool(np.all(np.isfinite(se) & (se > 0))),
                    f"min se {np.min(se):.3g}"))
    if joint:
        worst = score_residual(panel.codes, panel.y, panel.X, betas, taus)
        results.append(("fit.joint_first_order", worst <= SCORE_TOL,
                        f"max relative score {worst:.2e}"))
        return results
    for tau, beta in zip(taus, betas):
        if tau == 0.5:
            ref = within_estimator(panel.codes, panel.y, panel.X)
            err = float(np.max(np.abs(beta - ref)) / np.max(np.abs(ref)))
            results.append(("fit.midpoint_within", err <= WITHIN_TOL,
                            f"relative difference {err:.2e}"))
        else:
            worst = score_residual(panel.codes, panel.y, panel.X, [beta], [tau])
            results.append((f"fit.first_order_tau{tau:g}", worst <= SCORE_TOL,
                            f"max relative score {worst:.2e}"))
    return results


def check_transform(path, panel, taus) -> list[tuple[str, bool, str]]:
    """Checks on ``erfe transform`` output: row count, labels, tau=0.5 block."""
    n_obs = panel.y.shape[0]
    labels = np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, dtype=str)
    values = np.loadtxt(path, delimiter=",", skiprows=1,
                        usecols=[0] + list(range(2, 3 + panel.X.shape[1])))
    results = [("transform.rows", values.shape[0] == n_obs * len(taus),
                f"{values.shape[0]} rows, expected {n_obs} x {len(taus)}")]
    if values.shape[0] != n_obs * len(taus):
        return results
    expected_labels = np.array(panel.labels)[panel.codes]
    results.append(("transform.subjects",
                    all(np.array_equal(labels[k * n_obs:(k + 1) * n_obs], expected_labels)
                        for k in range(len(taus))),
                    "subject column repeats the input rows per tau"))
    k = list(taus).index(0.5)
    block = values[k * n_obs:(k + 1) * n_obs]
    n = int(panel.codes.max()) + 1
    counts = np.bincount(panel.codes, minlength=n)
    data = np.column_stack([panel.y, panel.X])
    worst = 0.0
    for j in range(data.shape[1]):
        col = data[:, j]
        ref = col - (_subject_sums(panel.codes, col, n) / counts)[panel.codes]
        worst = max(worst, float(np.max(np.abs(block[:, j + 1] - ref))
                                 / (1.0 + np.max(np.abs(col)))))
    results.append(("transform.midpoint_demeaning",
                    bool(np.all(block[:, 0] == 0.5)) and worst <= TRANSFORM_TOL,
                    f"max scaled difference {worst:.2e}"))
    return results


def check_simulate(rows, taus, replications, occasions) -> list[tuple[str, bool, str]]:
    """Checks on ``erfe simulate`` output: shape, failures, bias gates.

    At tau = 0.5 the fit is the within estimator, so both slopes are
    unbiased and gated at BIAS_Z standard errors.  Away from it x1 is
    gated with an allowance for its small O(1/m) bias; the large x2 bias
    there is the incidental-parameter bias of the design and is reported
    by the caller, never gated here.
    """
    results = [("simulate.rows", len(rows) == 2 * len(taus),
                f"{len(rows)} metric rows, expected {2 * len(taus)}")]
    failures = sum(int(r["failures"]) for r in rows)
    results.append(("simulate.no_failures", failures == 0, f"{failures} failed fits"))
    for r in rows:
        tau = float(r["tau"])
        if tau != 0.5 and r["coefficient"] != "x1":
            continue
        bias, sd = float(r["bias"]), float(r["sd"])
        gate = BIAS_Z * sd / math.sqrt(replications)
        if tau != 0.5:
            gate += sd / (BIAS_M_DIVISOR * occasions)
        results.append((f"simulate.bias_{r['coefficient']}_tau{tau:g}",
                        abs(bias) <= gate, f"|bias| {abs(bias):.4f} <= {gate:.4f}"))
    return results
