"""Long-format panel data model, check-function primitives, CSV ingestion and
table output.

A panel holds one row per (subject, occasion) observation.  Subjects are
identified by an integer code array rather than an N x n incidence matrix:
every projection downstream reduces to grouped sums over the codes, which
keeps all transforms O(N).

CSV input is UTF-8 text, after an optional byte-order mark, with a header
row, the first non-empty record, ``,`` as the delimiter and ``"`` as the
quote character, as in RFC 4180: a quoted field starts right after a
delimiter or at the start of a line and may hold delimiters, doubled quotes
(``""``) and line breaks, each read as "\\n".  Lines end in "\\n", "\\r\\n" or
"\\r".  There are no comment lines, empty lines are skipped, and numbers use
``.`` as the decimal separator.  The file is parsed by one ``np.loadtxt``
call, made again only to widen a column of labels longer than those of the
first records; a record with the wrong number of fields, a field that does
not parse, a non-finite value and bytes that are not UTF-8 are reported as
``path:line``, the physical line the record or byte is on, which is looked
up only once the read has failed.

Tables are written by ``write_table`` from a header and numpy columns, one
dtype each: as CSV with "\\n" line endings, float columns in 17 significant
digits, NaN as NA, and every other column as ``str`` of its values, quoted
as ``csv.writer`` quotes them, a value holding a bare "\\r" too, so that
the reader reads it back, or as the text of one
``json.dumps(records, indent=2)``, NaN as null: both carry identical values.
Both are written a block of rows at a time: only one block's cells and text
are alive at once, where one string of a table twice the input's rows would
raise the peak memory.  A CSV block is one byte matrix, a row per table row
and a fixed run of bytes per cell, padded with a byte that UTF-8 text never
holds and that one ``bytes.translate`` drops.  A float cell is 25 bytes laid
out from the value's 17 significant digits, computed exactly with integer and
float64 arithmetic, its point moved into place for all the rows of one
exponent at once; only zeros, non-finite values and the values ``"%.17g"``
writes with an exponent are formatted one by one.  The cells of every other
column are encoded once per distinct value and table.  A JSON block is
written through one ``%``-template, a row's text with one format per column:
finite floats and ints enter as those numbers, and every other column as
text cells, each distinct label dumped once.
"""

from __future__ import annotations

import codecs
import csv
import dataclasses
import functools
import io
import itertools
import json
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    NonincreasingTausError,
    RaggedRowError,
    ShapeMismatchError,
    SingletonSubjectError,
    WeightDimensionMismatchError,
)

__all__ = [
    "PanelData",
    "PanelStack",
    "asymmetric_loss",
    "build_panel",
    "build_stack",
    "check_weight",
    "read_csv_column",
    "read_panel_csv",
    "stack_panels",
    "validate_tau",
    "validate_taus",
    "validate_v",
    "write_table",
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


def validate_v(v, q: int, joint: bool) -> np.ndarray:
    """Validate influence weights: None for uniform ones, else, for a
    ``joint`` fit only, one finite, strictly positive weight per asymmetric
    point of ``q``.  Returns them as a float vector."""
    if v is None:
        return np.ones(q)
    if not joint:
        raise ValueError("influence weights apply to a joint fit only")
    v = np.asarray(v, dtype=float).ravel()
    if v.shape[0] != q:
        raise WeightDimensionMismatchError(
            f"{v.shape[0]} influence weights for {q} asymmetric points"
        )
    if not np.all(np.isfinite(v) & (v > 0.0)):
        raise ValueError("influence weights must be finite and strictly positive")
    return v


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

    Every array is read-only.  Fits read panels through a stack
    (``stack_panels``), on which regressor columns are dropped
    (``PanelStack.keep_regressors``).
    """

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


@dataclass(frozen=True)
class PanelStack:
    """B panels of one shape (N rows, n subjects, p regressors) on a leading
    replication axis, as every fit reads them; made by ``build_stack``.

    ``y`` is (B, N) and ``X`` (B, N, p).  ``codes`` (B, N) offsets panel b's
    subject codes by b * n, so that one ``np.bincount`` over all of them
    with B * n bins gives every panel's subject sums, each accumulated in
    the order a bincount of that panel alone would take.  ``demeaned``
    (B, p + 1, N) holds the rows [X; y] less their subject means, shared by
    every fit and sandwich; ``constant`` (B, p) marks the regressors
    constant within subjects, which no within transform identifies.
    ``keep_regressors`` drops regressor columns without demeaning again.
    """

    n_subjects: int
    column_names: tuple[str, ...]
    y: np.ndarray
    X: np.ndarray
    codes: np.ndarray
    demeaned: np.ndarray
    constant: np.ndarray

    @property
    def size(self) -> int:
        return self.y.shape[0]

    def keep_regressors(self, kept) -> "PanelStack":
        """The stack with only the regressor columns ``kept``, in that order.
        Each row of ``demeaned`` is demeaned on its own, so it takes the kept
        rows and the y row, which are the reduced stack's bit for bit."""
        kept = list(kept)
        # C order, as the fits' BLAS calls round differently on other layouts.
        return dataclasses.replace(
            self, column_names=tuple(self.column_names[j] for j in kept),
            X=_freeze(np.ascontiguousarray(self.X[..., kept])),
            demeaned=_freeze(self.demeaned[:, [*kept, -1]]),
            constant=_freeze(self.constant[:, kept]))

    def part(self, idx, *arrays):
        """The subject codes of the panels ``idx`` (an index array), offset as
        if those panels were the whole stack, followed by those panels of
        each stacked array in ``arrays``.  When ``idx`` is every panel these
        are the stack's codes and the arrays themselves, not copies."""
        if idx.size == self.size:
            return (self.codes, *arrays)
        shift = self.n_subjects * (np.arange(idx.size) - idx)
        return (self.codes[idx] + shift[:, None], *(a[idx] for a in arrays))


def build_stack(n_subjects: int, column_names, y, X, codes) -> PanelStack:
    """The stack of ``y`` (B, N), ``X`` (B, N, p) and ``codes`` (B, N), offset
    as in ``PanelStack``, its arrays frozen: the one place panels are
    demeaned.  A regressor whose demeaned norm is at most 1e-10 times its
    raw norm is constant within subjects."""
    # C order, as the fits' BLAS calls round differently on other layouts.
    demeaned = np.empty((X.shape[0], X.shape[2] + 1, X.shape[1]))
    demeaned[:, :-1] = X.transpose(0, 2, 1)
    demeaned[:, -1] = y
    _demean(demeaned, codes, np.bincount(codes.ravel()))
    raw = np.einsum("...ij,...ij->...j", X, X)
    left = np.einsum("...jn,...jn->...j", demeaned[:, :-1], demeaned[:, :-1])
    constant = np.sqrt(left) <= 1e-10 * np.maximum(np.sqrt(raw), 1e-300)
    return PanelStack(n_subjects, tuple(column_names),
                      *map(_freeze, (y, X, codes, demeaned, constant)))


def stack_panels(panels) -> PanelStack:
    """Stack panels of one shape; a stack of one holds views of its arrays."""
    panels = tuple(panels)
    first = panels[0]
    if any(p.X.shape != first.X.shape or p.n_subjects != first.n_subjects
           for p in panels):
        raise ShapeMismatchError("stacked panels must share rows, subjects "
                                 "and regressors")
    if len(panels) == 1:
        return build_stack(first.n_subjects, first.column_names, first.y[None],
                           first.X[None], first.codes[None])
    codes = (np.stack([p.codes for p in panels])
             + first.n_subjects * np.arange(len(panels))[:, None])
    return build_stack(first.n_subjects, first.column_names,
                       np.stack([p.y for p in panels]),
                       np.stack([p.X for p in panels]), codes)


def _demean(rows, codes, counts):
    """Subtract in place from each row of ``rows`` (..., k, N) every subject's
    plain mean; ``codes`` (..., N) numbers the subjects 0 .. counts.size - 1."""
    for j in range(rows.shape[-2]):
        row = rows[..., j, :]
        row -= (np.bincount(codes.ravel(), weights=row.ravel(),
                            minlength=counts.size) / counts)[codes]


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


# np.loadtxt arguments for the accepted CSV dialect (see the module docstring);
# "utf-8-sig" skips a byte-order mark.
_DIALECT = dict(delimiter=",", quotechar='"', comments=None, encoding="utf-8-sig")
# A label column is first read _LABEL_SLACK characters wider than the longest
# label of the first _HEAD_RECORDS data records (see ``_read_table``).
_LABEL_SLACK, _HEAD_RECORDS = 4, 1024


# Both formats are written a block of rows at a time: only one block's cells
# and text are alive at once.  A CSV block of 16384 rows of five float
# columns and a label is a byte matrix of about 2.2 MB.
_BLOCK_ROWS = 16384
# A field holding one of these is quoted (see ``_csv_fields``).
_CSV_SPECIAL = re.compile('[,"\r\n]').search
# Fills the slots of a CSV block's byte matrix that hold no character; UTF-8
# text never holds this byte.
_PAD = b"\xff"
# The bytes of a float cell and its separator (see ``_float_tables``).
_FLOAT_WIDTH = 25


def _split(x):
    """Veltkamp's split of each x into hi + lo, exactly, each with at most
    26 significant bits, so that a product of two halves is exact."""
    c = 134217729.0 * x  # 2 ** 27 + 1
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _float_tables():
    """The tables of ``_float_cells``, made on its first call, so that a
    command that writes no float cell makes none.  A float cell is seven
    4-byte words: "-0.0", "00" and the first digit and a point, four of
    the other 16 digits each, the separator.  Returns the words of each
    4-digit group (0 .. 9999) and of each first digit (10000 .. 10009); each
    group's trailing zeros, as written with four digits; per (sign, exponent
    -4 .. 16, index of the last nonzero digit), as 7 rows of words, those
    OR-ed into a cell, which hold "-0.000" and the point as if the exponent
    were 0, and pad every byte ``"%.17g"`` leaves out; and the rows 10 ** s,
    its hi and its lo half (``_split``), for s = 0 .. 21, each exact in
    float64 as 5 ** s < 2 ** 53."""
    # In bytes throughout: int64 temporaries would leave heap resident.
    ascii_digits = np.arange(48, 58, dtype=np.uint8)
    words = np.zeros((10_010, 4), np.uint8)
    words[:10_000] = np.stack(np.meshgrid(*[ascii_digits] * 4, indexing="ij"), -1).reshape(-1, 4)
    words[10_000:, 2] = ascii_digits
    trailing = np.cumprod(words[:10_000, ::-1] == 48, axis=1, dtype=np.uint8).sum(1, np.uint8)
    exp, last = np.arange(-4, 17)[:, None, None], np.arange(17)[:, None]
    text = np.zeros((2, 21, 17, 28), np.uint8)
    text[..., :8] = np.frombuffer(b"-0.000\0.", np.uint8)
    pad = np.zeros(text.shape, bool)
    pad[0, ..., 0] = True
    pad[..., 1:3] = exp >= 0
    pad[..., 3:6] = np.arange(3) >= -1 - exp
    pad[..., 7:8] = (exp < 0) | (last <= exp)
    pad[..., 8:24] = np.arange(1, 17) > np.maximum(exp, last)
    text[pad] = _PAD[0]
    powers = np.cumprod(np.r_[1.0, np.full(21, 10.0)])
    # Read-only, as every call shares them.
    return tuple(map(_freeze, (words.view("<u4")[:, 0], trailing,
                               text.reshape(-1, 28).view("<u4").T.copy(),
                               np.stack([powers, *_split(powers)]))))


def _significands(a, exps, powers):
    """round(a * 10 ** (16 - exps)) half to even, exactly, as int64: the 17
    digits of each ``a`` > 0 where ``exps`` (-4 .. 16) is its decimal
    exponent; ``powers`` are the rows of ``_float_tables``.

    The product is p + e exactly, p its float64 rounding and e the error,
    by Dekker's product of the halves of a and 10 ** (16 - exps).  Where the
    product is at least 10 ** 16 > 2 ** 53, p is an even integer, so rint(e),
    half to even, rounds p + e; below, the result is at most 10 ** 16."""
    b, b_hi, b_lo = powers.take(16 - exps, axis=1)
    p = a * b
    a_hi, a_lo = _split(a)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _float_cells(col, sep):
    """The cells of a float column as ``"%.17g"`` writes them, NaN as NA,
    each followed by ``sep``: the first 25 bytes of each row of a (rows, 28)
    byte matrix, padded with _PAD.

    A value x whose decimal exponent E is in -4 .. 16, where "%.17g" writes
    no exponent, is written from its 17 digits
    D = round(|x| * 10 ** (16 - E)), half to even (``_significands``).
    E starts as floor(log10 |x|), which may be one off either way, and is
    tried one higher where D >= 10 ** 17 and one lower where D <= 10 ** 16,
    to which a product just below 10 ** 16 also rounds.  Zeros, non-finite
    values and every other exponent are formatted one by one.  A column of
    another float dtype is written as its float64 values, as "%.17g" takes
    them."""
    word_table, trailing_zeros, masks, powers = _float_tables()
    col = col.astype(np.float64, copy=False)
    a = np.abs(col)
    with np.errstate(divide="ignore", invalid="ignore"):
        guess = np.floor(np.log10(a))
    fast = (guess >= -4) & (guess <= 16)
    a = np.where(fast, a, 2.0)
    exps = np.where(fast, guess, 0.0).astype(np.intp)
    digits = _significands(a, exps, powers)
    up, down = digits >= 10 ** 17, digits <= 10 ** 16
    exps += up
    exps -= down
    redo = np.flatnonzero((up | down) & (exps >= -4) & (exps <= 16))
    if redo.size:
        again = _significands(a[redo], exps[redo], powers)
        # One exponent lower, a product of at least 10 ** 16 - 0.05 rounds
        # to 10 ** 17 or more: it keeps its exponent, and D = 10 ** 16.
        carry = again >= 10 ** 17
        again[carry] = 10 ** 16
        exps[redo[carry]] += 1
        digits[redo] = again
    slow = np.flatnonzero(~(fast & (exps >= -4) & (exps <= 16)))
    exps[slow] = 0

    # Each cell's words: its first digit's, then those of its four groups.
    index = np.empty((5, col.size), np.intp)
    lead = np.floor_divide(digits, 10 ** 16, out=index[0])
    rest = digits - lead * 10 ** 16
    top = rest // 10 ** 8
    for k, half in ((1, top), (3, rest - top * 10 ** 8)):
        high = np.floor_divide(half, 10 ** 4, out=index[k])
        np.subtract(half, high * 10 ** 4, out=index[k + 1])
    # Trailing zeros, read further only where a group is all zeros.
    trailing = trailing_zeros.take(index[4])
    rows = np.flatnonzero(index[4] == 0)
    for k in (3, 2, 1):
        trailing[rows] += trailing_zeros.take(index[k, rows])
        rows = rows[index[k, rows] == 0]
    index[0] += 10_000
    # Word by word, then one copy to a row per cell.
    words = masks.take(((col < 0) * 21 + exps + 4) * 17 + 16 - trailing, axis=1)
    words[1:6] |= word_table.take(index)
    cells = np.ascontiguousarray(words.T).view(np.uint8)
    cells[:, _FLOAT_WIDTH - 1] = ord(sep)
    # The point follows digit E: for all rows of each E > 0 at once, the E
    # digits after the first move one byte back, the point or its pad after.
    moved = np.flatnonzero(exps > 0)
    for e in np.flatnonzero(np.bincount(exps[moved], minlength=17)[1:]) + 1:
        rows = moved[exps[moved] == e]
        cells[rows, 7:8 + e] = cells[rows[:, None], [*range(8, 8 + e), 7]]
    if slow.size:
        text = b"".join(("NA" if v != v else "%.17g" % v).encode().ljust(
            _FLOAT_WIDTH - 1, _PAD) + sep.encode() for v in col[slow].tolist())
        cells[slow, :_FLOAT_WIDTH] = np.frombuffer(text, np.uint8).reshape(slow.size, -1)
    return cells


def _blocks(columns):
    n_rows = len(columns[0]) if columns else 0
    for start in range(0, n_rows, _BLOCK_ROWS):
        yield [col[start:start + _BLOCK_ROWS] for col in columns]


def _csv_line(fields) -> str:
    """One row of fields as csv.writer writes it, ending in "\\n".  The writer
    quotes a field holding a character of its line terminator, so it is
    given "\\r\\n": a field with a bare "\\r" is quoted too, and reads back."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(fields)
    return out.getvalue()[:-2] + "\n"


def _csv_fields(values, lone):
    """The str of each value as ``_csv_line`` writes it as a field of a row
    with other fields, or, when ``lone``, as the only one.  csv.writer is
    asked only for the distinct values it quotes: those holding a delimiter,
    a quote or a line break ("\\r" or "\\n"), and the empty field of a
    one-field row."""
    texts = list(map(str, values))
    quoted = {s: _csv_line([s])[:-1] for s in set(texts)
              if _CSV_SPECIAL(s) or (lone and not s)}
    return list(map(quoted.get, texts, texts)) if quoted else texts


def _text_cells(col, lone, sep, cache):
    """The cells of a column that is not float, as ``_csv_fields`` writes
    them, each followed by ``sep``: a (rows, width) byte matrix padded with
    _PAD.  ``cache``, [sorted keys, their rows, table of cells], keeps the
    column's distinct values across blocks, each encoded once, until it
    holds more than a block's rows.  A value's key is its identity in an
    object column, as equal objects of different types write differently
    (1 == 1.0 == True), and the value itself in any other."""
    keys = np.fromiter(map(id, col), np.intp, col.size) if col.dtype.kind == "O" else col
    known, rows, table = cache
    if known.size > _BLOCK_ROWS or known.dtype != keys.dtype:
        known, rows, table = keys[:0], rows[:0], table[:0, :0]
    at = np.minimum(np.searchsorted(known, keys), known.size - 1)
    fresh = np.flatnonzero(known[at] != keys) if known.size else np.arange(keys.size)
    if fresh.size:
        _, first = np.unique(keys[fresh], return_index=True)
        first = fresh[first]
        # "surrogatepass" carries a lone surrogate through, for ``fh`` to judge.
        encoded = [cell.encode("utf-8", "surrogatepass") + sep.encode()
                   for cell in _csv_fields(col[first].tolist(), lone)]
        width = max(table.shape[1], *map(len, encoded))
        table = np.concatenate([
            np.pad(table, ((0, 0), (0, width - table.shape[1])), constant_values=_PAD[0]),
            np.frombuffer(b"".join(cell.ljust(width, _PAD) for cell in encoded),
                          np.uint8).reshape(len(encoded), width)])
        known = np.concatenate([known, keys[first]])
        order = np.argsort(known, kind="stable")
        known, rows = known[order], np.r_[rows, len(rows) + np.arange(first.size)][order]
        at = np.searchsorted(known, keys)
    cache[:] = known, rows, table
    return table.take(rows[at], axis=0)


def _json_column(col):
    """One block of a column as its row-template format and its values, as
    ``json.dumps`` writes them: finite floats and ints as "%r", every other
    value pre-formatted, NaN as null, each distinct value dumped once."""
    values, kind = col.tolist(), col.dtype.kind
    if kind in "iu":
        return "%r", values
    if kind == "f":
        bad = np.flatnonzero(~np.isfinite(col)).tolist()
        if not bad:
            return "%r", values
        cells = list(map(repr, values))
        for i in bad:
            cells[i] = "null" if values[i] != values[i] else json.dumps(values[i])
        return "%s", cells
    # Objects are told apart by identity, not equality, as equal objects of
    # different types dump differently (1 == 1.0 == True).
    keys = list(map(id, values)) if kind == "O" else values
    dumped = {key: json.dumps(v) for key, v in dict(zip(keys, values)).items()}
    return "%s", list(map(dumped.__getitem__, keys))


def _write_csv(fh, header, columns):
    fh.write(_csv_line(header))
    lone = len(columns) == 1
    seps = [","] * (len(columns) - 1) + ["\n"]
    caches = [[np.empty(0), np.empty(0, np.intp), np.empty((0, 0), np.uint8)]
              for _ in columns]
    for block in _blocks(columns):
        # Text cells are encoded first, as their width is known only then;
        # each float column's cells are made as they are copied in.
        text_cells = [None if col.dtype.kind == "f" else _text_cells(col, lone, sep, cache)
                      for col, sep, cache in zip(block, seps, caches)]
        widths = [_FLOAT_WIDTH if cells is None else cells.shape[1] for cells in text_cells]
        data = bytearray(len(block[0]) * sum(widths))
        rows = np.frombuffer(data, np.uint8).reshape(len(block[0]), -1)
        start = 0
        for col, sep, cells, width in zip(block, seps, text_cells, widths):
            if cells is None:
                cells = _float_cells(col, sep)
            # Each row's cell is copied as one item of ``width`` bytes.
            item = f"V{width}"
            rows[:, start:start + width].view(item)[:, 0] = cells[:, :width].view(item)[:, 0]
            start += width
        fh.write(data.translate(None, _PAD).decode("utf-8", "surrogatepass"))


def _write_json(fh, header, columns):
    # The records are dicts: a key repeated in the header keeps its first
    # place and its last column.
    index = {key: j for j, key in enumerate(header)}
    keys = [json.dumps(key).replace("%", "%%") for key in index]
    columns = [columns[j] for j in index.values()]
    opening = "[\n"
    for block in _blocks(columns):
        formats, cells = zip(*map(_json_column, block))
        fields = ",\n".join(f"    {key}: {fmt}" for key, fmt in zip(keys, formats))
        # Each record starts with the separator from the one before it, laid
        # out as in json.dumps(records, indent=2).
        rows = map(f",\n  {{\n{fields}\n  }}".__mod__, zip(*cells))
        if opening:
            fh.write(opening + next(rows)[2:])
            opening = ""
        fh.writelines(rows)
    fh.write("[]\n" if opening else "\n]\n")


def write_table(fh, header, columns, fmt: str = "csv"):
    """Write a table, given as its header and its columns, each taken as one
    numpy array, to ``fh`` as ``fmt``, "csv" or "json" (see the module docstring)."""
    columns = [np.asarray(col) for col in columns]
    (_write_json if fmt == "json" else _write_csv)(fh, header, columns)


def _read_header(path) -> tuple[list[str], int, list[int]]:
    """The header's fields, stripped, the number of lines it spans, and each
    column's longest field among the next ``_HEAD_RECORDS`` records that
    have one field per column.  The header is the first non-empty record,
    and a name may appear only once."""
    try:
        with open(path, "r", encoding=_DIALECT["encoding"], newline="") as fh:
            reader = csv.reader(fh)
            header = next(filter(None, reader), None)
            skiprows, longest = reader.line_num, [0] * len(header or ())
            for fields in itertools.islice(reader, _HEAD_RECORDS):
                if len(fields) == len(longest):
                    longest = list(map(max, longest, map(len, fields)))
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if header is None:
        raise EmptyInputError(f"{path}: file is empty")
    names = [h.strip() for h in header]
    for j, name in enumerate(names):
        if name in names[:j]:
            raise ValueError(f"{path}: column {name!r} appears more than once in header")
    return names, skiprows, longest


def _column_index(path, header, name) -> int:
    if name not in header:
        raise ValueError(f"{path}: column {name!r} not in header {header}")
    return header.index(name)


def _row_dtype(n_fields, float_cols, label_col, width) -> np.dtype:
    """The np.loadtxt dtype of a data row: one field per column, so that a
    row with too few or too many fields is rejected.

    Field ``f{j}`` reads column j.  Columns ``float_cols`` are floats laid
    side by side from offset 0, in that order, so that together they read
    as one (rows, k) block; ``label_col``, when not None, is str of
    ``width`` characters after them; every other column is a zero-width str.
    """
    k = len(float_cols)
    fields = {j: (float, 8 * i) for i, j in enumerate(float_cols)}
    if label_col is not None:
        fields[label_col] = (f"<U{width}", 8 * k)
    formats, offsets = zip(*(fields.get(j, ("<U0", 0)) for j in range(n_fields)))
    return np.dtype({"names": [f"f{j}" for j in range(n_fields)], "formats": formats,
                     "offsets": offsets, "itemsize": 8 * k + 4 * width})


def _data_records(path):
    """The start line (1-based, physical) and the fields of each non-blank
    data record, as the csv module splits them, and the record's text."""
    try:
        with open(path, "r", encoding=_DIALECT["encoding"], newline="") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    reader = csv.reader(lines)
    next(filter(None, reader), None)  # the header
    records, start = [], reader.line_num
    for fields in reader:
        if fields:
            records.append((start + 1, fields, "".join(lines[start:reader.line_num])))
        start = reader.line_num
    return records


def _not_utf8(path) -> ValueError:
    """The error for a file that is not UTF-8 text, naming the line of its
    first bad byte.  The line is counted in the file's bytes, as the error
    of a text-mode read places the byte within one decoded chunk."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return ValueError(f"{path}:{line}: not UTF-8 text (byte 0x{data[exc.start]:02x})")
    return ValueError(f"{path}: not UTF-8 text")


def _read_error(path, header, float_cols, message) -> ValueError:
    """The error for the first bad data record, after np.loadtxt rejected
    the file with ``message``.

    A record with the wrong number of fields comes first, wherever it is.
    Otherwise the records are bisected with np.loadtxt itself, so the line
    named is that of the first record the parser rejects.
    """
    records = _data_records(path)
    for line, fields, _ in records:
        if len(fields) != len(header):
            return RaggedRowError(
                f"{path}:{line}: {len(fields)} fields, expected {len(header)}")

    def parses(lo, hi, usecols):
        try:
            np.loadtxt([text for _, _, text in records[lo:hi]], usecols=usecols,
                       **_DIALECT)
        except ValueError:
            return False
        return True

    lo, hi = 0, len(records)
    if not records or parses(lo, hi, float_cols):
        return ValueError(f"{path}: {message}")
    while hi - lo > 1:  # records[lo:hi] holds the first unparsable record
        mid = (lo + hi) // 2
        if parses(lo, mid, float_cols):
            lo = mid
        else:
            hi = mid
    line, fields, text = records[lo]
    for j in float_cols:
        if not parses(lo, hi, [j]):
            return ValueError(f"{path}:{line}: column {header[j]!r}: "
                              f"cannot parse {fields[j]!r} as a number")
    return ValueError(f"{path}:{line}: cannot parse {text!r}")


def _read_table(path, header, skiprows, longest, float_cols, label_col=None):
    """Columns ``float_cols`` of the data rows, after the ``skiprows`` lines
    of the header, as floats, shape (rows, k), and column ``label_col`` as
    str (None when not asked for).

    One np.loadtxt call reads the file.  Labels are read a little wider than
    the first records' ``longest`` (see ``_LABEL_SLACK``); np.loadtxt cuts a
    longer one short, so while a label fills the width, the same call is
    made again four times as wide.  Line numbers are looked up only to
    report an error.
    """
    width = 0 if label_col is None else longest[label_col] + _LABEL_SLACK
    while True:
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                table = np.loadtxt(
                    path, dtype=_row_dtype(len(header), float_cols, label_col, width),
                    skiprows=skiprows, ndmin=1, **_DIALECT)
        except ValueError as exc:
            raise _read_error(path, header, float_cols, exc) from None
        if not table.size:
            raise EmptyInputError(f"{path}: no data rows")
        labels = None if label_col is None else table[f"f{label_col}"]
        if labels is None or np.char.str_len(labels).max() < width:
            break
        table = labels = None  # free the cut-short read before the next
        width *= 4
    block = (float, (len(float_cols),))
    values = table.view(np.dtype({"names": ["v"], "formats": [block],
                                  "itemsize": table.itemsize}))["v"]
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(values))[0]
        line = _data_records(path)[row][0]
        raise ValueError(f"{path}:{line}: column {header[float_cols[col]]!r}: "
                         f"non-finite value {float(values[row, col])}")
    return values, labels


def read_csv_column(path, column: str) -> np.ndarray:
    """Read one numeric column of a CSV file with a header row."""
    header, skiprows, longest = _read_header(path)
    values, _ = _read_table(path, header, skiprows, longest,
                            [_column_index(path, header, column)])
    return values[:, 0]


def read_panel_csv(path, subject_col: str, response_col: str) -> PanelData:
    """Read a long-format panel from a CSV file.

    The file must have a header row.  ``subject_col`` holds the subject
    label (string or integer; surrounding whitespace is stripped),
    ``response_col``, another column, the response, and every remaining
    column is parsed as a numeric regressor.  A malformed record, an
    unparsable number or a non-finite value raises an error naming
    ``path:line``.
    """
    header, skiprows, longest = _read_header(path)
    s_idx = _column_index(path, header, subject_col)
    y_idx = _column_index(path, header, response_col)
    if s_idx == y_idx:
        raise ValueError(f"{path}: column {subject_col!r} cannot hold both the "
                         "subject and the response")
    x_idx = [i for i in range(len(header)) if i not in (s_idx, y_idx)]
    values, labels = _read_table(path, header, skiprows, longest,
                                 [y_idx, *x_idx], s_idx)
    labels = np.char.strip(labels)
    # Width of the longest stripped label, as np.asarray gives a list of str.
    labels = labels.astype(f"<U{max(1, int(np.char.str_len(labels).max()))}")
    return _assemble_panel(labels, values[:, 0], values[:, 1:],
                           [header[i] for i in x_idx])
