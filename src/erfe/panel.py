"""Long-format panel data model, check-function primitives and CSV ingestion.

A panel holds one row per (subject, occasion) observation.  Subjects are
identified by an integer code array rather than an N x n incidence matrix:
every projection downstream reduces to grouped sums over the codes, which
keeps all transforms O(N).

CSV input is UTF-8 text with a header row, ``,`` as the delimiter and
``"`` as the quote character: a quoted field starts right after a
delimiter or at the start of a line, may hold delimiters and doubled
quotes (``""``), and ends on its own line.  There are no comment lines,
empty lines are skipped, and numbers use ``.`` as the decimal separator.
Each column is parsed once, by ``np.loadtxt``; a malformed line, a field
that does not parse and a non-finite value are reported as ``path:line``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    NonincreasingTausError,
    RaggedRowError,
    ShapeMismatchError,
    SingletonSubjectError,
)

__all__ = [
    "PanelData",
    "asymmetric_loss",
    "build_panel",
    "check_weight",
    "format_number",
    "read_csv_column",
    "read_panel_csv",
    "validate_tau",
    "validate_taus",
]


def validate_tau(tau: float) -> float:
    """Validate an asymmetric point, which must lie strictly inside (0, 1)."""
    t = float(tau)
    if not (0.0 < t < 1.0):
        raise ValueError(
            f"asymmetric point must lie in the open interval (0, 1), got {tau!r}"
        )
    return t


def validate_taus(taus) -> tuple[float, ...]:
    """Validate a sequence of asymmetric points: each in (0, 1), strictly increasing.

    Accepts a scalar as a one-point sequence and returns a tuple of floats.
    """
    taus = tuple(validate_tau(t) for t in ([taus] if np.ndim(taus) == 0 else taus))
    if not taus:
        raise ValueError("need at least one asymmetric point")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise NonincreasingTausError(
            f"asymmetric points must be strictly increasing, got {taus}")
    return taus


def check_weight(t, tau):
    """Asymmetric weight of a residual: tau if t > 0, else 1 - tau.

    A zero residual counts as non-positive and receives weight 1 - tau.
    Accepts a scalar or an array and returns the matching shape.
    """
    tau = validate_tau(tau)
    arr = np.asarray(t, dtype=float)
    w = np.where(arr > 0.0, tau, 1.0 - tau)
    return float(w) if w.ndim == 0 else w


def asymmetric_loss(t, tau):
    """Asymmetric square loss: the check weight times the squared residual.

    Nonnegative, zero only at t = 0, and continuously differentiable in t.
    """
    arr = np.asarray(t, dtype=float)
    out = check_weight(arr, tau) * arr * arr
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PanelData:
    """Immutable long-format panel.

    Attributes
    ----------
    subject_ids : ndarray, shape (N,)
        Original subject label of each row (integers or strings).
    y : ndarray, shape (N,)
        Response vector.
    X : ndarray, shape (N, p)
        Regressor matrix.
    column_names : tuple of str
        One label per regressor column.
    codes : ndarray, shape (N,)
        Dense subject code per row, 0..n-1 in order of first appearance.
    counts : ndarray, shape (n,)
        Observations per subject; every entry is at least 2.
    subject_labels : ndarray, shape (n,)
        Distinct subject labels in order of first appearance.
    """

    subject_ids: np.ndarray
    y: np.ndarray
    X: np.ndarray
    column_names: tuple[str, ...]
    codes: np.ndarray
    counts: np.ndarray
    subject_labels: np.ndarray

    @property
    def n_obs(self) -> int:
        return int(self.y.shape[0])

    @property
    def n_subjects(self) -> int:
        return int(self.counts.shape[0])

    @property
    def n_regressors(self) -> int:
        return int(self.X.shape[1])

    def groups(self) -> list[np.ndarray]:
        """Row indices of each subject, in subject-code order."""
        order = np.argsort(self.codes, kind="stable")
        bounds = np.cumsum(self.counts)[:-1]
        return np.split(order, bounds)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _assemble_panel(subject_ids, y, X, column_names) -> PanelData:
    subject_ids = np.asarray(subject_ids)
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if y.ndim != 1 or X.ndim != 2 or subject_ids.ndim != 1:
        raise ShapeMismatchError("expected 1-d y/subject_ids and 2-d X")
    n_obs = y.shape[0]
    if n_obs == 0:
        raise EmptyInputError("panel has no observations")
    if subject_ids.shape[0] != n_obs or X.shape[0] != n_obs:
        raise ShapeMismatchError(
            f"row counts differ: subjects={subject_ids.shape[0]}, "
            f"y={n_obs}, X={X.shape[0]}"
        )
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(X))):
        raise ValueError("panel contains missing or non-finite values")

    if column_names is None:
        column_names = tuple(f"x{j + 1}" for j in range(X.shape[1]))
    else:
        column_names = tuple(str(c) for c in column_names)
        if len(column_names) != X.shape[1]:
            raise ShapeMismatchError(
                f"{len(column_names)} column names for {X.shape[1]} regressors"
            )

    # Number the distinct labels in order of first appearance.
    distinct, first, inverse = np.unique(
        subject_ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    codes = rank[inverse]
    labels = distinct[order]

    counts = np.bincount(codes, minlength=labels.size)
    singles = labels[counts < 2].tolist()
    if singles:
        raise SingletonSubjectError(
            f"subject(s) with a single observation: {singles!r}"
        )

    return PanelData(
        subject_ids=_freeze(subject_ids.copy()),
        y=_freeze(y.copy()),
        X=_freeze(X.copy()),
        column_names=column_names,
        codes=_freeze(codes),
        counts=_freeze(counts),
        subject_labels=_freeze(labels),
    )


def build_panel(records, column_names=None) -> PanelData:
    """Build a panel from an iterable of (subject_id, y, x_row) records.

    Within-subject row order is preserved as given; subjects may interleave.
    Raises EmptyInputError on no records, RaggedRowError on inconsistent row
    widths, and SingletonSubjectError when a subject has only one row.
    """
    records = list(records)
    if not records:
        raise EmptyInputError("no records supplied")

    subjects = []
    ys = []
    rows = []
    width = None
    for idx, (sid, yval, xrow) in enumerate(records):
        xrow = tuple(float(v) for v in np.atleast_1d(xrow))
        if width is None:
            width = len(xrow)
        elif len(xrow) != width:
            raise RaggedRowError(
                f"record {idx} has {len(xrow)} regressors, expected {width}"
            )
        subjects.append(sid)
        ys.append(float(yval))
        rows.append(xrow)

    return _assemble_panel(subjects, ys, np.asarray(rows, dtype=float), column_names)


# np.loadtxt arguments for the accepted CSV dialect (see the module docstring).
_DIALECT = dict(delimiter=",", quotechar='"', comments=None, encoding="utf-8")
_SCAN_BLOCK = 1 << 22


def format_number(value) -> str:
    """A number as CSV text: 17 significant digits, NaN as NA."""
    value = float(value)
    if math.isnan(value):
        return "NA"
    return format(value, ".17g")


def _read_header(path) -> list[str]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
    if header is None:
        raise EmptyInputError(f"{path}: file is empty")
    return [h.strip() for h in header]


def _column_index(path, header, name) -> int:
    if name not in header:
        raise ValueError(f"{path}: column {name!r} not in header {header}")
    return header.index(name)


def _scan(path, n_fields, label_col):
    """Line numbers of the data lines, and the widest ``label_col`` field in bytes.

    Fields are counted per line from the raw bytes: delimiters on lines
    without a quote, the csv module on the few lines with one.  A line with
    too few or too many fields raises RaggedRowError; np.loadtxt alone would
    silently drop the extra fields of a long line.  The width bounds the
    characters of every field of ``label_col`` (a whole line's bytes where
    quotes hide which delimiters are real), so a str column of that width
    loses nothing.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    raw = np.frombuffer(data, dtype=np.uint8)
    # Positions of every line break and delimiter, between sentinels for the
    # start and the end of the file; blocks keep the byte masks in cache.
    # Positions are int32 below 2 GiB, which halves the largest arrays here.
    index = np.int32 if raw.size < 2**31 else np.int64
    parts = [np.array([-1], dtype=index)]
    for at in range(0, raw.size, _SCAN_BLOCK):
        block = raw[at:at + _SCAN_BLOCK]
        hits = np.flatnonzero((block == ord("\n")) | (block == ord(",")))
        parts.append(hits.astype(index) + at)
    parts.append(np.array([raw.size], dtype=index))
    seps = np.concatenate(parts)
    del parts
    bounds = np.concatenate(
        ([0], np.flatnonzero(raw[seps[1:-1]] == ord("\n")) + 1, [seps.size - 1]),
        dtype=index)
    starts = seps[bounds[:-1]] + 1
    ends = seps[bounds[1:]]
    ends -= (ends > starts) & (raw[np.maximum(ends - 1, 0)] == ord("\r"))
    fields = np.diff(bounds)

    quoted = np.zeros(starts.size, dtype=bool)
    if data.find(b'"') >= 0:
        quotes = np.flatnonzero(raw == ord('"'))
        quoted[np.searchsorted(starts, quotes, side="right") - 1] = True
        fields[quoted] = [
            len(next(csv.reader([data[a:b].decode("utf-8")])))
            for a, b in zip(starts[quoted].tolist(), ends[quoted].tolist())
        ]

    rows = np.flatnonzero(ends[1:] > starts[1:]) + 1
    ragged = rows[fields[rows] != n_fields]
    if ragged.size:
        i = ragged[0]
        raise RaggedRowError(
            f"{path}:{i + 1}: {fields[i]} fields, expected {n_fields}"
        )
    if not rows.size:
        raise EmptyInputError(f"{path}: no data rows")
    if label_col is None:
        return rows + 1, 0

    left = bounds[rows] + label_col
    width = np.where(quoted[rows], ends[rows] - starts[rows],
                     seps[left + 1] - seps[left] - 1)
    return rows + 1, max(1, int(width.max()))


def _parses(lines, usecols) -> bool:
    try:
        np.loadtxt(lines, usecols=usecols, **_DIALECT)
    except ValueError:
        return False
    return True


def _parse_error(path, header, usecols, lines) -> ValueError:
    """The error for the first data line whose ``usecols`` np.loadtxt rejects.

    Runs only after a parse failed: bisects the data lines with np.loadtxt
    itself, so the line it names is the one the parser rejected.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read().split("\n")
    rows = [text[line - 1] for line in lines.tolist()]
    lo, hi = 0, len(rows)
    while hi - lo > 1:  # rows[lo:hi] holds the first unparsable line
        mid = (lo + hi) // 2
        if _parses(rows[lo:mid], usecols):
            lo = mid
        else:
            hi = mid
    fields = next(csv.reader([rows[lo].rstrip("\r")]))
    for j in usecols:
        if not _parses(rows[lo:hi], [j]):
            return ValueError(f"{path}:{lines[lo]}: column {header[j]!r}: "
                              f"cannot parse {fields[j]!r} as a number")
    return ValueError(f"{path}:{lines[lo]}: cannot parse {rows[lo]!r}")


def _read_table(path, header, float_cols, label_col=None):
    """Columns ``float_cols`` of the data lines as floats, shape (rows, k),
    and column ``label_col`` as str (None when not asked for), in one pass.
    """
    lines, width = _scan(path, len(header), label_col)
    dtype = [("v", float, (len(float_cols),))]
    usecols = list(float_cols)
    if label_col is not None:
        dtype.insert(0, ("s", f"<U{width}"))
        usecols.insert(0, label_col)
    try:
        table = np.loadtxt(path, dtype=dtype, usecols=usecols, skiprows=1,
                           ndmin=1, **_DIALECT)
    except ValueError:
        raise _parse_error(path, header, float_cols, lines) from None
    if table.shape[0] != lines.size:
        raise ValueError(f"{path}: {lines.size} data lines hold {table.shape[0]} "
                         "rows; a quoted field spans lines")
    values = table["v"]
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(f"{path}:{lines[row]}: column {header[float_cols[col]]!r}: "
                         f"non-finite value {float(values[row, col])}")
    return values, (table["s"] if label_col is not None else None)


def read_csv_column(path, column: str) -> np.ndarray:
    """Read one numeric column of a CSV file with a header row."""
    header = _read_header(path)
    values, _ = _read_table(path, header, [_column_index(path, header, column)])
    return values[:, 0]


def read_panel_csv(path, subject_col: str, response_col: str) -> PanelData:
    """Read a long-format panel from a CSV file.

    The file must have a header row.  ``subject_col`` holds the subject
    label (string or integer; surrounding whitespace is stripped),
    ``response_col`` the response, and every remaining column is parsed as
    a numeric regressor.  A malformed line, unparsable number or non-finite
    value raises an error naming ``path:line``.
    """
    header = _read_header(path)
    s_idx = _column_index(path, header, subject_col)
    y_idx = _column_index(path, header, response_col)
    x_idx = [i for i in range(len(header)) if i not in (s_idx, y_idx)]
    values, labels = _read_table(path, header, [y_idx, *x_idx], s_idx)
    labels = np.char.strip(labels)
    # Width of the longest stripped label, as np.asarray gives a list of str.
    labels = labels.astype(f"<U{max(1, int(np.char.str_len(labels).max()))}")
    return _assemble_panel(labels, values[:, 0], values[:, 1:],
                           [header[i] for i in x_idx])
