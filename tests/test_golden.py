"""Pinned Monte Carlo results: a refactor that keeps every choice keeps these exactly.

Rates are means of exact fractions, so they depend only on the masks
each replicate chooses.  golden.json holds the `results` of two `tables`
runs and the rates of one stress scenario whose run QR-refits two reps.
It is regenerated, after an output change is declared, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import pathlib

from cmcselect import cli, run_monte_carlo
from conftest import STRESS

GOLDEN = pathlib.Path(__file__).with_name("golden.json")

TABLES = {"table2": ["--table", "2", "--reps", "5"], "table3": ["--table", "3", "--reps", "3"]}


def _tables_results(args: list[str]) -> list:
    return json.loads(cli.run_tables(cli._build_parser().parse_args(
        ["tables", *args, "--seed", "3", "--format", "json"])))["results"]


def _stress_rates() -> dict:
    res = run_monte_carlo(STRESS[1], reps=20, seed=4)
    return {lab: [*res.rates[lab], res.zero_fraction[lab]] for lab in res.labels}


def _current() -> dict:
    return {**{k: _tables_results(v) for k, v in TABLES.items()}, "stress1": _stress_rates()}


def test_tables_and_stress_rates_match_the_golden_file():
    want = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(_current()))
    for key in want:
        assert got[key] == want[key], key
    assert sorted(got) == sorted(want)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_current(), indent=1, sort_keys=True) + "\n")
