"""Prostate-cancer case-study fixture.

The dataset (97 prostatectomy patients; response lpsa = log PSA, eight
clinical predictors) is public but not redistributed here.  The loader
reads the standard published file from an explicit path or the
CMC_PROSTATE_PATH environment variable, validates its structure, and
logs the file's sha256 so runs are attributable to an exact input.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import os
from pathlib import Path

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
    try:
        raw = resolved.read_bytes()
        lines = raw.decode("utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {resolved}: {exc}") from exc
    log.info("prostate fixture %s sha256=%s", resolved, hashlib.sha256(raw).hexdigest())
    if not lines:
        raise ParseError(f"{resolved}: empty file")
    reader = csv.reader(lines, delimiter="\t" if "\t" in lines[0] else ",")
    header = [h.strip() for h in next(reader)]
    needed = set(PROSTATE_PREDICTORS) | {PROSTATE_RESPONSE}
    missing = needed - set(header)
    if missing:
        raise ParseError(f"{resolved}: missing expected column(s) {sorted(missing)}")
    keep = {name: header.index(name) for name in needed}
    rows: list[list[float]] = []
    for r, cells in enumerate(reader, start=2):
        if not cells or all(not c.strip() for c in cells):
            continue
        if len(cells) != len(header):
            raise ParseError(f"{resolved}: row {r} has {len(cells)} cells, expected {len(header)}", row=r)
        try:
            rows.append([float(cells[keep[name]]) for name in (*PROSTATE_PREDICTORS, PROSTATE_RESPONSE)])
        except ValueError as exc:
            raise ParseError(f"{resolved}: row {r}: {exc}", row=r) from exc
    if len(rows) != PROSTATE_ROWS:
        raise ParseError(f"{resolved}: expected {PROSTATE_ROWS} data rows, found {len(rows)}")
    X = [row[:-1] for row in rows]
    y = [row[-1] for row in rows]
    return Dataset(X=X, y=y, names=PROSTATE_PREDICTORS)
