"""Case-study loader checks on synthetic stand-in files."""

import numpy as np
import pytest

from cmcselect import PROSTATE_ENV, ParseError, load_prostate
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
