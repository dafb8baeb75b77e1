"""Delimited-text reading and the prostate-cancer case-study fixture.

One reader parses every data file: `select --data` CSVs and the prostate
file.  The prostate dataset (97 prostatectomy patients; response lpsa =
log PSA, eight clinical predictors) is public but not redistributed here.
The loader reads the standard published file from an explicit path or
the CMC_PROSTATE_PATH environment variable, validates its structure, and
logs the file's sha256 so runs are attributable to an exact input.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
import os
import warnings
from pathlib import Path

import numpy as np

from .errors import ParseError
from .linalg import Dataset

log = logging.getLogger(__name__)

PROSTATE_ENV = "CMC_PROSTATE_PATH"
PROSTATE_ROWS = 97
PROSTATE_RESPONSE = "lpsa"
PROSTATE_PREDICTORS = ("lcavol", "lweight", "age", "lbph", "svi", "lcp", "gleason", "pgg45")

FETCH_INSTRUCTION = (
    "curl -fsSL -o prostate.data "
    "https://hastie.su.domains/ElemStatLearn/datasets/prostate.data\n"
    f"export {PROSTATE_ENV}=$PWD/prostate.data"
)


def _read_text(path) -> tuple[bytes, str]:
    """A file's bytes and their UTF-8 text, a leading byte-order mark dropped."""
    try:
        raw = Path(path).read_bytes()
        return raw, raw.decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _read_table(path, text: str, delimiter: str | None, pick) -> tuple[list[str], np.ndarray]:
    """Parse header-first delimited text: the header names and an (n, k) array.

    A None delimiter is a tab if the header line holds one, else a comma.
    pick(names) gets the stripped, unique header names and returns the k
    column indices to parse, in array order.  Blank rows are skipped; a
    ragged row or an empty, non-numeric or non-finite (nan, inf) cell
    names its 1-based row and column.

    The data lines are parsed in one numpy pass, kept only when every
    line gives exactly one finite value per header name.  numpy splits a
    line with no quote character as csv.reader does, and accepts a subset
    of float()'s spellings with the same bits; any other text goes
    through _read_cells, the one owner of blank-row skipping and of
    every error.
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    if delimiter is None:
        delimiter = "\t" if "\t" in lines[0] else ","
    reader = csv.reader(lines, delimiter=delimiter)
    names = [h.strip() for h in next(reader)]
    if len(set(names)) != len(names):
        raise ParseError(f"{path}: duplicate column names in header")
    cols = pick(names)
    try:
        with warnings.catch_warnings():
            # an all-blank body warns instead of raising
            warnings.simplefilter("error")
            table = np.loadtxt(lines[reader.line_num :], delimiter=delimiter, comments=None, ndmin=2)
        if table.shape[1] == len(names) and np.isfinite(table).all():
            # take keeps the cell loop's C order, which fancy indexing does not
            return names, table.take(cols, axis=1)
    except (ValueError, Warning):
        # numpy refuses a text it cannot read with a ValueError, or here a warning;
        # the cell loop reports it
        pass
    return names, _read_cells(path, reader, names, cols)


def _read_cells(path, reader, names: list[str], cols: list[int]) -> np.ndarray:
    """The cell-by-cell parse of the data rows left in a csv reader, as _read_table defines it."""
    rows: list[list[float]] = []
    for r, cells in enumerate(reader, start=2):
        if not cells or all(not c.strip() for c in cells):
            continue
        if len(cells) != len(names):
            raise ParseError(f"{path}: row {r} has {len(cells)} cells, expected {len(names)}", row=r)
        row = []
        for c in cols:
            cell = cells[c].strip()
            try:
                v = float(cell)
                what = None if math.isfinite(v) else f"not finite: {cell!r}"
            except ValueError:
                what = f"not numeric: {cell!r}" if cell else "missing value"
            if what:
                raise ParseError(f"{path}: row {r}, column {names[c]!r}: {what}", row=r, col=c + 1)
            row.append(v)
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(len(rows), len(cols))


def locate_prostate(path: str | os.PathLike | None = None) -> Path | None:
    """Resolve the fixture path from the argument or the environment; None if absent."""
    cand = path or os.environ.get(PROSTATE_ENV)
    if not cand:
        return None
    p = Path(cand)
    return p if p.is_file() else None


def load_prostate(path: str | os.PathLike | None = None) -> Dataset:
    """Load and validate the prostate file (tab- or comma-separated).

    Accepts the published tab-separated layout (leading row-index column,
    trailing train/test indicator) as well as a plain CSV holding the same
    nine named columns.  Predictors come back in the case study's order.

    Raises
    ------
    ParseError
        If the file is missing, unreadable, not UTF-8, empty, or its
        structure does not match.
    """
    resolved = locate_prostate(path)
    if resolved is None:
        raise ParseError(
            "prostate fixture not found; fetch it and point "
            f"{PROSTATE_ENV} at it:\n{FETCH_INSTRUCTION}"
        )
    raw, text = _read_text(resolved)
    log.info("prostate fixture %s sha256=%s", resolved, hashlib.sha256(raw).hexdigest())
    columns = (*PROSTATE_PREDICTORS, PROSTATE_RESPONSE)

    def pick(names: list[str]) -> list[int]:
        missing = set(columns) - set(names)
        if missing:
            raise ParseError(f"{resolved}: missing expected column(s) {sorted(missing)}")
        return [names.index(name) for name in columns]

    table = _read_table(resolved, text, None, pick)[1]
    if len(table) != PROSTATE_ROWS:
        raise ParseError(f"{resolved}: expected {PROSTATE_ROWS} data rows, found {len(table)}")
    return Dataset(X=table[:, :-1], y=table[:, -1], names=PROSTATE_PREDICTORS)
