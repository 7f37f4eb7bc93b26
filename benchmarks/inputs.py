"""Seeded, vectorized generators for the benchmark's panel inputs.

The same seed always gives the same panel.  Rows are drawn subject by
subject and then laid out grouped or interleaved, so one seed gives the
same observations in either layout.  Numbers are written with 17
significant digits, which round-trip float64 exactly, so the arrays kept in
memory equal what the program parses from the file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# True slopes of (x1, x2, x3) and the heteroskedasticity strength: the
# error scale is 1 + GAMMA * x2.
BETA = np.array([1.0, -0.5, 0.25])
GAMMA = 0.5
REGRESSORS = ("x1", "x2", "x3")


@dataclass(frozen=True)
class PanelShape:
    """Layout of a generated panel, recorded with every run."""

    subjects: int
    occasions: int
    order: str  # "grouped": a subject's rows are adjacent; "interleaved": occasion-major
    labels: str  # "int": 0, 1, ...; "s7": s0000000, s0000001, ...

    @property
    def rows(self) -> int:
        return self.subjects * self.occasions

    def describe(self) -> dict:
        return {
            "subjects": self.subjects, "occasions": self.occasions,
            "rows": self.rows, "row_order": self.order,
            "label_form": "short integer" if self.labels == "int" else "8-char string s%07d",
            "p": len(REGRESSORS),
            "error_law": f"centered chi2_3 / sqrt(6), scale 1 + {GAMMA} * x2",
        }


@dataclass(frozen=True)
class Panel:
    """A generated panel in file row order, with dense subject codes."""

    labels: list
    codes: np.ndarray
    y: np.ndarray
    X: np.ndarray


def generate(shape: PanelShape, seed: int) -> Panel:
    """Draw the panel for ``seed``.

    Subject effects share a factor with x1, so pooled least squares is
    biased and the fixed effects matter; x2 drives the error scale, so
    its slope varies with the asymmetric point.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, shape.subjects, shape.occasions]))
    n, m = shape.subjects, shape.occasions
    subject = np.repeat(np.arange(n), m)
    alpha = rng.standard_normal(n)
    x1 = 0.5 * alpha[subject] + rng.standard_normal(n * m)
    x2 = rng.uniform(0.0, 2.0, n * m)
    x3 = rng.standard_normal(n * m)
    errors = (rng.chisquare(3.0, n * m) - 3.0) / np.sqrt(6.0)
    X = np.column_stack([x1, x2, x3])
    y = alpha[subject] + X @ BETA + (1.0 + GAMMA * x2) * errors
    if shape.order == "interleaved":
        rows = np.arange(n * m).reshape(n, m).T.ravel()
        subject, y, X = subject[rows], y[rows], X[rows]
    elif shape.order != "grouped":
        raise ValueError(f"unknown row order {shape.order!r}")
    if shape.labels == "int":
        labels = [str(i) for i in range(n)]
    else:
        labels = [f"s{i:07d}" for i in range(n)]
    # In both layouts subject i first appears before subject i + 1, so the
    # subject index is the dense code the program assigns.
    return Panel(labels=labels, codes=subject,
                 y=np.ascontiguousarray(y), X=np.ascontiguousarray(X))


def write_csv(path, panel: Panel) -> int:
    """Write ``panel`` as a long-format CSV; returns the file size in bytes."""
    fmt = "{:.17g}".format
    labels = np.array(panel.labels, dtype=object)[panel.codes].tolist()
    columns = [labels, list(map(fmt, panel.y.tolist()))]
    columns += [list(map(fmt, col.tolist())) for col in panel.X.T]
    text = ",".join(("id", "y") + REGRESSORS) + "\n" + "\n".join(map(",".join, zip(*columns))) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return len(text)
