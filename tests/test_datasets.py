"""Case-study loader checks on synthetic stand-in files, and the delimited-text reader."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcselect import PROSTATE_ENV, ParseError, load_prostate, datasets
from cmcselect.datasets import (
    FETCH_INSTRUCTION,
    PROSTATE_PREDICTORS,
    PROSTATE_ROWS,
    locate_prostate,
)

COLUMNS = PROSTATE_PREDICTORS + ("lpsa",)


def cell(r: int, c: int) -> float:
    return round(0.1 * r + 0.01 * c + ((r * 7 + c * 3) % 5) * 0.2, 4)


def write_esl_style(path, rows: int = PROSTATE_ROWS) -> None:
    """The published layout: index column, tab delimiter, trailing train flag."""
    lines = ["\t" + "\t".join(COLUMNS) + "\ttrain"]
    for r in range(rows):
        vals = [str(cell(r, c)) for c in range(len(COLUMNS))]
        lines.append(f"{r + 1}\t" + "\t".join(vals) + ("\tT" if r % 3 else "\tF"))
    path.write_text("\n".join(lines) + "\n")


def write_plain_csv(path, rows: int = PROSTATE_ROWS, order=None) -> None:
    names = list(order or COLUMNS)
    lines = [",".join(names)]
    for r in range(rows):
        lines.append(",".join(str(cell(r, COLUMNS.index(n))) for n in names))
    path.write_text("\n".join(lines) + "\n")


def test_load_esl_layout(tmp_path):
    f = tmp_path / "prostate.data"
    write_esl_style(f)
    data = load_prostate(f)
    assert data.n == PROSTATE_ROWS
    assert data.names == PROSTATE_PREDICTORS
    assert data.y[0] == cell(0, 8)
    assert data.X[5, 0] == cell(5, 0)


def test_load_plain_csv_any_column_order(tmp_path):
    # spreadsheet exports often start UTF-8 files with a byte-order mark
    for bom in (b"", b"\xef\xbb\xbf"):
        f = tmp_path / "prostate.csv"
        write_plain_csv(f, order=("lpsa",) + PROSTATE_PREDICTORS[::-1])
        f.write_bytes(bom + f.read_bytes())
        data = load_prostate(f)
        assert data.names == PROSTATE_PREDICTORS
        np.testing.assert_array_equal(data.X[:, 2], [cell(r, 2) for r in range(PROSTATE_ROWS)])
        np.testing.assert_array_equal(data.y, [cell(r, 8) for r in range(PROSTATE_ROWS)])


def test_wrong_row_count(tmp_path):
    f = tmp_path / "prostate.data"
    write_esl_style(f, rows=96)
    with pytest.raises(ParseError, match="97"):
        load_prostate(f)


def test_missing_column(tmp_path):
    f = tmp_path / "prostate.csv"
    write_plain_csv(f, order=[c for c in COLUMNS if c != "svi"])
    with pytest.raises(ParseError, match="svi"):
        load_prostate(f)
    # a repeated name would make the column it stands for ambiguous
    write_plain_csv(f, order=COLUMNS + ("age",))
    with pytest.raises(ParseError, match="duplicate"):
        load_prostate(f)


def test_non_numeric_cell(tmp_path):
    f = tmp_path / "prostate.csv"
    for value in ("high", ""):
        write_plain_csv(f)
        body = f.read_text().splitlines()
        parts = body[13].split(",")
        parts[2] = value
        body[13] = ",".join(parts)
        f.write_text("\n".join(body) + "\n")
        with pytest.raises(ParseError) as err:
            load_prostate(f)
        assert (err.value.row, err.value.col) == (14, 3)


def test_ragged_row(tmp_path):
    f = tmp_path / "prostate.csv"
    write_plain_csv(f)
    body = f.read_text().splitlines()
    body[40] += ",0.5"
    f.write_text("\n".join(body) + "\n")
    with pytest.raises(ParseError) as err:
        load_prostate(f)
    assert err.value.row == 41


def test_locate_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv(PROSTATE_ENV, raising=False)
    assert locate_prostate() is None
    assert locate_prostate(tmp_path / "absent.data") is None
    f = tmp_path / "prostate.data"
    write_esl_style(f)
    monkeypatch.setenv(PROSTATE_ENV, str(f))
    assert locate_prostate() == f
    # an explicit argument wins over the environment
    g = tmp_path / "other.data"
    write_esl_style(g)
    assert locate_prostate(g) == g


def test_missing_fixture_names_the_fetch_step(tmp_path, monkeypatch):
    monkeypatch.delenv(PROSTATE_ENV, raising=False)
    with pytest.raises(ParseError) as err:
        load_prostate()
    assert PROSTATE_ENV in str(err.value)
    assert "curl" in FETCH_INSTRUCTION


def test_non_utf8_file(tmp_path):
    path = tmp_path / "prostate.data"
    write_plain_csv(path)
    path.write_bytes(path.read_bytes().replace(b"lcavol", b"lc\xffvol"))
    with pytest.raises(ParseError):
        load_prostate(path)


def test_empty_file(tmp_path, monkeypatch):
    path = tmp_path / "prostate.data"
    path.write_bytes(b"")
    monkeypatch.setenv(PROSTATE_ENV, str(path))
    with pytest.raises(ParseError):
        load_prostate()


# spellings numpy's pass accepts, with float()'s bits
NUMPY_CELLS = ("1", "+1", "-2.5", ".5", "5.", "-0", "-0.0", "1E+05", "1e-5", " 3 ", "\t7\t",
               "007", "1.7976931348623157e308", "5e-324", "0.1", "123456789012345678901234567890")
# spellings both accept as a value that is not finite, which the cell loop refuses
NON_FINITE_CELLS = ("nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e999")
# spellings only float() accepts, or neither: each sends a text to the cell loop
OTHER_CELLS = ("1_000", "0x10", '"1"', '"1,5"', "", "  ", "\u0661", "\ufeff1", "\xa01",
               "1d5", "1 2", "abc", "- 1", "1e")


@st.composite
def delimited_texts(draw):
    """A header-first text, its delimiter and the columns to pick."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    k = draw(st.integers(1, 4))
    names = [f"{' ' * draw(st.integers(0, 1))}c{j}" for j in range(k)]
    cells = st.sampled_from(NUMPY_CELLS)
    for more in (NON_FINITE_CELLS, OTHER_CELLS):
        if draw(st.booleans()):
            cells = st.one_of(cells, st.sampled_from(more))
    floats = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    row = st.lists(st.one_of(cells, floats), min_size=k, max_size=k)
    if draw(st.booleans()):
        row = st.one_of(row, st.lists(cells, min_size=0, max_size=k + 1))
    blank = st.sampled_from(["", " ", "\t", "  \t "])
    lines = draw(st.lists(st.one_of(row.map(delimiter.join), blank), max_size=6))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = draw(st.sampled_from(["", "\ufeff"])) + end.join([delimiter.join(names), *lines])
    if draw(st.booleans()):
        text += end
    cols = draw(st.lists(st.integers(0, k - 1), unique=True, min_size=1, max_size=k))
    return text, delimiter, cols


def cells_only(text: str, delimiter: str, pick):
    """The header, then every row through datasets._read_cells: the reader without its numpy pass."""
    reader = csv.reader(text.splitlines(), delimiter=delimiter)
    names = [h.strip() for h in next(reader)]
    return names, datasets._read_cells("t.csv", reader, names, pick(names))


def outcome(read, text: str, delimiter: str, cols):
    # a warning would reach the command's stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            names, table = read(text, delimiter, lambda names: cols)
            # the bytes tell -0.0 from 0.0
            result = names, table.dtype.str, table.shape, table.flags.c_contiguous, table.tobytes()
        except ParseError as exc:
            result = str(exc), exc.row, exc.col
    assert caught == []
    return result


@settings(max_examples=400, derandomize=True, deadline=None)
@given(delimited_texts())
def test_read_table_is_the_cell_loop_property(case):
    # the numpy pass keeps a table only where the cell loop gives the same
    # bits; anywhere else both give the same ParseError, row and column
    text, delimiter, cols = case
    table = outcome(lambda *a: datasets._read_table("t.csv", *a), text, delimiter, cols)
    assert table == outcome(cells_only, text, delimiter, cols)


def test_numpy_pass_reads_every_plain_spelling(monkeypatch):
    # a text of plain spellings, blank lines between rows, never reaches the cell loop
    rows = [",".join(NUMPY_CELLS[i : i + 4]) for i in range(0, len(NUMPY_CELLS), 4)]
    text = "a,b,c,d\r\n\r\n" + "\r\n\n".join(rows) + "\r\n"
    expected = np.array([[float(c) for c in row.split(",")] for row in rows])

    def refuse(*args):
        raise AssertionError("cell loop reached")

    monkeypatch.setattr(datasets, "_read_cells", refuse)
    names, table = datasets._read_table("t.csv", text, ",", lambda names: [3, 0, 1, 2])
    assert names == ["a", "b", "c", "d"]
    assert table.tobytes() == expected[:, [3, 0, 1, 2]].tobytes()


def test_esl_layout_takes_the_cell_loop(tmp_path, monkeypatch):
    # the published file's T/F column is not numeric, so the numpy pass
    # refuses it and the cell loop, which never parses that column, reads it
    f = tmp_path / "prostate.data"
    write_esl_style(f)
    calls = []
    read_cells = datasets._read_cells

    def counted(*args):
        calls.append(args)
        return read_cells(*args)

    monkeypatch.setattr(datasets, "_read_cells", counted)
    data = load_prostate(f)
    assert len(calls) == 1
    assert data.n == PROSTATE_ROWS
    np.testing.assert_array_equal(data.y, [cell(r, 8) for r in range(PROSTATE_ROWS)])
    write_plain_csv(f)
    load_prostate(f)
    assert len(calls) == 1
