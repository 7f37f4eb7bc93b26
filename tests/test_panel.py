"""Panel data model, check-function primitives, CSV ingestion."""

import csv
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import erfe
from erfe.errors import (
    EmptyInputError,
    RaggedRowError,
    ShapeMismatchError,
    SingletonSubjectError,
)
from erfe.panel import read_csv_column, stack_panels

import oracles

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------
# check_weight
# ---------------------------------------------------------------------

def test_check_weight_positive_residual():
    assert erfe.check_weight(1.5, 0.3) == 0.3


def test_check_weight_negative_residual():
    assert erfe.check_weight(-2.0, 0.3) == 0.7


def test_check_weight_zero_counts_as_nonpositive():
    assert erfe.check_weight(0.0, 0.9) == pytest.approx(0.1, abs=1e-15)


def test_check_weight_vectorized():
    out = erfe.check_weight(np.array([1.0, -1.0, 0.0]), 0.2)
    assert np.allclose(out, [0.2, 0.8, 0.8])


def test_check_weight_bounds():
    rng = np.random.default_rng(0)
    t = rng.standard_normal(100)
    for tau in (0.1, 0.5, 0.9):
        w = erfe.check_weight(t, tau)
        assert np.all(w >= min(tau, 1 - tau)) and np.all(w <= max(tau, 1 - tau))


def test_check_weight_reflection_complement():
    # For t != 0 exactly one of t, -t is positive, so the weights at the
    # same asymmetric point sum to one.
    rng = np.random.default_rng(1)
    t = rng.standard_normal(200)
    t = t[t != 0]
    for tau in (0.2, 0.5, 0.77):
        total = erfe.check_weight(t, tau) + erfe.check_weight(-t, tau)
        assert np.allclose(total, 1.0, atol=1e-15)


def test_tau_validation_rejects_boundaries():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            erfe.validate_tau(bad)
        with pytest.raises(ValueError):
            erfe.check_weight(1.0, bad)
    assert erfe.validate_tau(0.5) == 0.5


# ---------------------------------------------------------------------
# asymmetric_loss
# ---------------------------------------------------------------------

def test_loss_values():
    assert erfe.asymmetric_loss(2.0, 0.5) == pytest.approx(2.0, rel=1e-14)
    assert erfe.asymmetric_loss(-1.0, 0.9) == pytest.approx(0.1, rel=1e-12)
    assert erfe.asymmetric_loss(3.0, 0.1) == pytest.approx(0.9, rel=1e-12)


def test_loss_nonnegative_zero_only_at_origin():
    rng = np.random.default_rng(2)
    t = rng.standard_normal(500)
    vals = erfe.asymmetric_loss(t, 0.3)
    assert np.all(vals >= 0)
    assert np.all(vals[t != 0] > 0)
    assert erfe.asymmetric_loss(0.0, 0.3) == 0.0


def test_loss_derivative_matches_central_difference():
    # d/dt of the loss is 2 psi(t) t; the check weight is constant on each
    # side of zero so a central difference away from the kink is clean.
    rng = np.random.default_rng(3)
    for tau in (0.2, 0.5, 0.8):
        for t in rng.uniform(0.5, 3.0, 20) * rng.choice([-1.0, 1.0], 20):
            h = 1e-6 * abs(t)
            numeric = (erfe.asymmetric_loss(t + h, tau)
                       - erfe.asymmetric_loss(t - h, tau)) / (2 * h)
            analytic = 2.0 * erfe.check_weight(t, tau) * t
            assert numeric == pytest.approx(analytic, rel=1e-6)


# ---------------------------------------------------------------------
# build_panel
# ---------------------------------------------------------------------

def test_build_panel_groups_subjects():
    records = [(1, 1.0, [0.5]), (1, 2.0, [1.5]), (2, 3.0, [2.5]), (2, 4.0, [3.5])]
    panel = erfe.build_panel(records)
    assert panel.n_subjects == 2
    assert panel.n_obs == 4
    assert list(panel.counts) == [2, 2]
    assert panel.column_names == ("x1",)


def test_build_panel_single_subject():
    panel = erfe.build_panel([(1, float(i), [float(i)]) for i in range(3)])
    assert panel.n_subjects == 1
    assert panel.n_obs == 3


def test_build_panel_singleton_subject_rejected():
    with pytest.raises(SingletonSubjectError):
        erfe.build_panel([(7, 1.0, [1.0])])
    with pytest.raises(SingletonSubjectError):
        erfe.build_panel([(1, 1.0, [1.0]), (1, 2.0, [2.0]), (7, 1.0, [1.0])])


def test_build_panel_empty_rejected():
    with pytest.raises(EmptyInputError):
        erfe.build_panel([])


def test_build_panel_ragged_rows_rejected():
    with pytest.raises(RaggedRowError):
        erfe.build_panel([(1, 1.0, [1.0, 2.0]), (1, 2.0, [1.0])])


def test_build_panel_rejects_non_finite():
    with pytest.raises(ValueError):
        erfe.build_panel([(1, np.nan, [1.0]), (1, 2.0, [1.0])])


def test_build_panel_interleaved_subjects():
    records = [(1, 1.0, [1.0]), (2, 2.0, [2.0]), (1, 3.0, [3.0]), (2, 4.0, [4.0])]
    panel = erfe.build_panel(records)
    assert panel.n_subjects == 2
    assert list(panel.codes) == [0, 1, 0, 1]
    assert panel.subject_labels.dtype == np.asarray([1, 2]).dtype
    labels = ["b", "cc", "b", "cc"]
    panel = erfe.build_panel((label, y, x) for label, (_, y, x) in zip(labels, records))
    assert panel.subject_labels[panel.codes].tolist() == labels
    assert panel.subject_labels.dtype == np.asarray(labels).dtype


def test_panel_arrays_are_immutable():
    panel = erfe.build_panel([(1, 1.0, [1.0]), (1, 2.0, [2.0])])
    with pytest.raises(ValueError):
        panel.y[0] = 99.0
    with pytest.raises(ValueError):
        panel.X[0, 0] = 99.0


def test_total_observations_sum_of_subject_counts():
    rng = np.random.default_rng(4)
    panel, _, _ = oracles.unbalanced_panel(rng, [2, 5, 3], p=2)
    assert panel.n_obs == int(np.sum(panel.counts))
    assert list(panel.counts) == [2, 5, 3]


# ---------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------

def _write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_read_panel_csv(tmp_path):
    path = _write_csv(tmp_path / "p.csv",
                      "id,y,a,b\n"
                      "s1,1.5,0.25,1\n"
                      "s1,2.5,0.75,2\n"
                      "s2,0.5,-0.5,3\n"
                      "s2,1.0,0.5,4\n")
    panel = erfe.read_panel_csv(path, "id", "y")
    assert panel.n_subjects == 2
    assert panel.column_names == ("a", "b")
    assert np.allclose(panel.y, [1.5, 2.5, 0.5, 1.0])
    assert np.allclose(panel.X[:, 1], [1, 2, 3, 4])
    assert list(panel.subject_labels) == ["s1", "s2"]


def test_read_panel_csv_missing_column(tmp_path):
    path = _write_csv(tmp_path / "p.csv", "id,y\n1,2.0\n1,3.0\n")
    with pytest.raises(ValueError, match="not in header"):
        erfe.read_panel_csv(path, "id", "resp")
    with pytest.raises(ValueError, match="cannot hold both"):
        erfe.read_panel_csv(path, "y", "y")
    # A header names each column once, after stripping, whichever readers ask.
    for name, text in (("x", "id,y,x,x\n1,2.0,1.0,2.0\n"), ("id", "id,y, id\n1,2.0,1.0\n")):
        path = _write_csv(tmp_path / "d.csv", text)
        message = rf"d\.csv: column '{name}' appears more than once in header"
        with pytest.raises(ValueError, match=message):
            erfe.read_panel_csv(path, "id", "y")
        with pytest.raises(ValueError, match=message):
            read_csv_column(path, "y")


def test_read_panel_csv_ragged(tmp_path):
    path = _write_csv(tmp_path / "p.csv", "id,y,a\n1,2.0,1.0\n1,3.0\n")
    with pytest.raises(RaggedRowError):
        erfe.read_panel_csv(path, "id", "y")
    # A ragged line is reported before an unparsable number above it.
    path = _write_csv(tmp_path / "q.csv", "id,y,a\n1,oops,1.0\n1,3.0\n")
    with pytest.raises(RaggedRowError, match=r"q\.csv:3: 2 fields, expected 3"):
        erfe.read_panel_csv(path, "id", "y")
    # A line too short to hold the subject column is reported the same way.
    path = _write_csv(tmp_path / "r.csv", "y,a,id\n2.0,1.0,1\n3.0\n")
    with pytest.raises(RaggedRowError, match=r"r\.csv:3: 1 fields, expected 3"):
        erfe.read_panel_csv(path, "id", "y")


def test_read_panel_csv_overlong_row(tmp_path):
    path = _write_csv(tmp_path / "p.csv", "id,y,a\n1,2.0,1.0\n\n1,3.0,2.0,9\n")
    with pytest.raises(RaggedRowError, match=r"p\.csv:4: 4 fields, expected 3"):
        erfe.read_panel_csv(path, "id", "y")


def test_read_panel_csv_non_finite(tmp_path):
    path = _write_csv(tmp_path / "p.csv", "id,y,a\n1,2.0,1.0\n1,3.0,inf\n")
    with pytest.raises(ValueError, match=r"p\.csv:3: column 'a': non-finite value inf"):
        erfe.read_panel_csv(path, "id", "y")
    path = _write_csv(tmp_path / "q.csv", "id,y,a\r\n1,2.0,1.0\r\n1,nan,2.0\r\n")
    with pytest.raises(ValueError, match=r"q\.csv:3: column 'y': non-finite value nan"):
        erfe.read_panel_csv(path, "id", "y")
    # Blank lines count, and a lone "\r" ends a line as "\r\n" does.
    path = _write_csv(tmp_path / "r.csv",
                      "id,y,a\r\n\r\n1,2.0,1.0\r\n\r\n\r1,3.0,-inf\r\n")
    with pytest.raises(ValueError, match=r"r\.csv:6: column 'a': non-finite value -inf"):
        erfe.read_panel_csv(path, "id", "y")


def test_read_panel_csv_quoted_labels(tmp_path):
    # The longest label sits on a quoted line whose comma is not a delimiter.
    path = _write_csv(tmp_path / "p.csv",
                      'y,id,a\n1,"s, long label",2\n2,s,3\n'
                      '3,"s, long label",4\n4, s ,5\n')
    panel = erfe.read_panel_csv(path, "id", "y")
    assert panel.subject_labels[panel.codes].tolist() == ["s, long label", "s"] * 2
    assert panel.subject_labels.dtype == np.dtype("<U13")
    assert list(panel.codes) == [0, 1, 0, 1]
    # A quoted field, in the header too, may hold a line break; errors name
    # physical lines.
    text = 'id,y,"a\nb"\n"s\n1",1,2\n"s\n1",2,3\nt,3,4\nt,{},5\n'
    panel = erfe.read_panel_csv(_write_csv(tmp_path / "q.csv", text.format(4)), "id", "y")
    assert panel.column_names == ("a\nb",)
    assert panel.subject_labels.tolist() == ["s\n1", "t"]
    assert panel.y.tolist() == [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(ValueError,
                       match=r"r\.csv:8: column 'y': cannot parse 'oops' as a number"):
        erfe.read_panel_csv(_write_csv(tmp_path / "r.csv", text.format("oops")), "id", "y")


def test_a_written_table_with_a_bare_cr_label_reads_back(tmp_path):
    # A label holding a bare "\r" is quoted, so the line break stays inside
    # its field; the reader reads it as "\n".
    path = tmp_path / "cr.csv"
    y, x = np.array([1.0, 2.5, -3.0, 4.0]), np.array([0.5, 1.0, 2.0, -1.0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        erfe.panel.write_table(fh, ["id", "y", "x"],
                               [np.array(["a\rb", "a\rb", "c", "c"]), y, x])
    assert path.read_bytes().split(b"\n")[1] == b'"a\rb",1,0.5'
    panel = erfe.read_panel_csv(path, "id", "y")
    assert panel.subject_labels.tolist() == ["a\nb", "c"]
    assert panel.codes.tolist() == [0, 0, 1, 1]
    assert panel.y.tolist() == y.tolist()
    assert panel.X[:, 0].tolist() == x.tolist()


def test_a_read_is_one_loadtxt_call(tmp_path, monkeypatch):
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
    path = _write_csv(tmp_path / "p.csv", "id,y,a\ns1,1,2\ns1,2,3\n")
    erfe.read_panel_csv(path, "id", "y")
    assert len(calls) == 1
    assert read_csv_column(path, "a").tolist() == [2.0, 3.0]
    assert len(calls) == 2
    # The first records size the label column: long labels take one call...
    label = "s" * 40
    path = _write_csv(tmp_path / "q.csv", f"id,y,a\n{label},1,2\n{label},2,3\n")
    assert erfe.read_panel_csv(path, "id", "y").subject_labels.tolist() == [label]
    assert len(calls) == 3
    # ...and a longer label after them fills the first read's 1 + 4
    # characters, so the file is read again, 20 characters wide.
    monkeypatch.setattr(erfe.panel, "_HEAD_RECORDS", 2)
    path = _write_csv(tmp_path / "r.csv",
                      "id,y,a\ns,1,2\ns,2,3\nsssss,3,4\nsssss,4,5\n")
    assert erfe.read_panel_csv(path, "id", "y").subject_labels.tolist() == ["s", "sssss"]
    assert len(calls) == 5


def _reference_read(path, subject_col, response_col):
    """Row-by-row csv-module reader: the fields read_panel_csv must produce."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header = [h.strip() for h in rows[0]]
    s_idx, y_idx = header.index(subject_col), header.index(response_col)
    x_idx = [i for i in range(len(header)) if i not in (s_idx, y_idx)]
    rows = [row for row in rows[1:] if row]
    labels = [row[s_idx].strip() for row in rows]
    code_of = {}
    codes = [code_of.setdefault(label, len(code_of)) for label in labels]
    return {
        "y": np.array([float(row[y_idx]) for row in rows]),
        "X": np.array([[float(row[i]) for i in x_idx] for row in rows],
                      dtype=float).reshape(len(rows), len(x_idx)),
        "codes": np.array(codes, dtype=np.int64),
        "counts": np.bincount(codes),
        "subject_labels": np.asarray(list(code_of)),
    }


_LABEL_TEXT = st.text(alphabet='ab7 ,"\t\u00e9-', min_size=1, max_size=40)
_LABEL_INT = st.integers(0, 10**6).map(str)


@st.composite
def _csv_panels(draw):
    n = draw(st.integers(1, 5))
    labels = draw(st.lists(st.one_of(_LABEL_TEXT, _LABEL_INT), min_size=n,
                           max_size=n, unique_by=str.strip))
    pads = st.sampled_from(["", " ", "  ", "\t"])
    p = draw(st.integers(0, 3))
    numbers = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    rows = []
    for label in labels:
        for _ in range(draw(st.integers(2, 4))):
            rows.append([draw(pads) + label + draw(pads), draw(numbers),
                         *(draw(numbers) for _ in range(p))])
    rows = draw(st.permutations(rows))
    names = ["id", "y", *(f"x{j}" for j in range(p))]
    order = draw(st.permutations(range(len(names))))
    blanks = draw(st.sets(st.integers(0, len(rows)), max_size=3))
    # Records that size the label column: with none, a label of 4 or more
    # characters is read again wider.
    head = draw(st.sampled_from([0, 2, 1024]))
    return (names, order, rows, blanks, draw(st.sampled_from(["\n", "\r\n"])),
            head)


@settings(max_examples=80, deadline=None)
@given(_csv_panels())
def test_read_panel_csv_matches_csv_module_reference(case):
    names, order, rows, blanks, newline, head = case
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(erfe.panel, "_HEAD_RECORDS", head):
        path = os.path.join(tmp, "p.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator=newline)
            writer.writerow([names[i] for i in order])
            for k, row in enumerate(rows):
                if k in blanks:
                    fh.write(newline)
                writer.writerow([row[i] for i in order])
        panel = erfe.read_panel_csv(path, "id", "y")
        expected = _reference_read(path, "id", "y")
    assert panel.column_names == tuple(n for n in (names[i] for i in order)
                                       if n not in ("id", "y"))
    for field, want in expected.items():
        got = getattr(panel, field)
        assert got.dtype == want.dtype, field
        assert got.shape == want.shape, field
        assert got.tobytes() == want.tobytes(), field


def test_read_panel_csv_bad_number(tmp_path):
    path = _write_csv(tmp_path / "p.csv", "id,y,a\n1,2.0,1.0\n1,oops,2.0\n")
    with pytest.raises(ValueError, match="p.csv:3"):
        erfe.read_panel_csv(path, "id", "y")


def test_a_bad_number_after_blank_first_lines_names_its_physical_line(tmp_path):
    path = _write_csv(tmp_path / "p.csv", "\r\n\nid,y,a\n1,2.0,1.0\n1,oops,2.0\n")
    with pytest.raises(ValueError, match=r"p\.csv:5: column 'y': cannot parse 'oops'"):
        erfe.read_panel_csv(path, "id", "y")
    with pytest.raises(ValueError, match=r"p\.csv:5: column 'y': cannot parse 'oops'"):
        read_csv_column(path, "y")


def _late_bad_byte():
    """A file whose first bad byte is on line 2501, past the records the
    header read looks at, so that np.loadtxt meets it first."""
    rows = [b"id,y,x"] + [b"%d,%d.5,%d" % (i // 2, i, i % 7) for i in range(3000)]
    rows[2500] += b"\xe9"
    return b"\n".join(rows) + b"\n"


@pytest.mark.parametrize("data, where", [
    (b"i\xe9d,y,x\n1,2,3\n1,3,4\n", "1: not UTF-8 text (byte 0xe9)"),
    # Line breaks of every kind count, and a byte-order mark is no line.
    (b"\xef\xbb\xbfid,y,x\n1,2,3\r\n1,3,4\r2,5\xe9,6\n2,6,7\n",
     "4: not UTF-8 text (byte 0xe9)"),
    (_late_bad_byte(), "2501: not UTF-8 text (byte 0xe9)"),
    ("id,y,x\n1,2,3\n1,3,4\n".encode("utf-16"), "1: not UTF-8 text (byte 0xff)"),
], ids=["header", "record", "past-header-read", "utf-16"])
def test_bytes_that_are_not_utf8_name_their_line(data, where, tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(data)
    message = re.escape(f"p.csv:{where}")
    with pytest.raises(ValueError, match=message):
        erfe.read_panel_csv(path, "id", "y")
    with pytest.raises(ValueError, match=message):
        read_csv_column(path, "y")


def test_a_bad_byte_past_the_header_read_is_found_after_loadtxt(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(_late_bad_byte())
    erfe.panel._read_header(path)
    with pytest.raises(ValueError, match=r"p\.csv:2501: not UTF-8") as raised:
        erfe.read_panel_csv(path, "id", "y")
    # np.loadtxt's own decode error is left behind as the context.
    assert isinstance(raised.value.__context__, UnicodeDecodeError)


def test_read_panel_csv_empty_file(tmp_path):
    path = _write_csv(tmp_path / "p.csv", "")
    with pytest.raises(EmptyInputError):
        erfe.read_panel_csv(path, "id", "y")
    for text in ("id,y\n", "id,y\n\n\r\n"):
        path = _write_csv(tmp_path / "q.csv", text)
        with pytest.raises(EmptyInputError, match=r"q\.csv: no data rows"):
            erfe.read_panel_csv(path, "id", "y")
        with pytest.raises(EmptyInputError, match=r"q\.csv: no data rows"):
            read_csv_column(path, "y")


# ---------------------------------------------------------------------
# Stacks
# ---------------------------------------------------------------------

def test_stacks_mark_the_regressors_constant_within_subjects():
    panel = erfe.read_panel_csv(DATA / "small_panel.csv", "id", "y")
    assert panel.column_names == ("x1", "x2", "zconst")
    assert stack_panels([panel]).constant.tolist() == [[False, False, True]]

    rng = np.random.default_rng(5)
    panels = [oracles.random_panel(rng, 6, 4, 2)[0] for _ in range(3)]
    flat = panels[1]
    X = np.column_stack([flat.X[:, 0], 1.0 + flat.codes])
    panels[1] = erfe.build_panel(zip(flat.subject_labels[flat.codes], flat.y, X),
                                 flat.column_names)
    stack = stack_panels(panels)
    assert stack.constant.tolist() == [[False, False], [False, True], [False, False]]
    assert stack.keep_regressors([1, 0]).constant.tolist() == [
        [False, False], [True, False], [False, False]]
    assert stack.keep_regressors([0]).constant.tolist() == [[False]] * 3


# ---------------------------------------------------------------------
# Shape checks
# ---------------------------------------------------------------------

def test_assemble_shape_mismatch():
    from erfe.panel import _assemble_panel
    with pytest.raises(ShapeMismatchError):
        _assemble_panel([1, 1], [1.0, 2.0, 3.0], np.ones((2, 1)), None)
    with pytest.raises(ShapeMismatchError):
        _assemble_panel([1, 1], [1.0, 2.0], np.ones((2, 1)), ["a", "b"])
