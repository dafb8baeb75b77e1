"""Command-line round trips: parsing, serialization, and exit codes."""

import ast
import csv
import importlib
import importlib.metadata
import importlib.util
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmcselect
import cmcselect.subsets
from cmcselect import (
    InputError,
    MissingResponseError,
    NumericalError,
    ParseError,
    PROSTATE_ENV,
    RankDeficientError,
    TooFewRowsError,
    best_per_size,
    cli,
    select_many,
    standardize,
)
from cmcselect.cli import (
    _round2,
    load_csv,
    main,
    read_candidate_list,
    to_canonical_json,
)
from conftest import naive_canonical_json, spy_calls

D1_CSV = "y,x\n0,0\n1,1\n2,2\n4,3\n"
REPO_ROOT = Path(__file__).resolve().parents[1]


def write(tmp_path, name: str, text: str):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def test_load_csv_shapes(tmp_path):
    path = write(tmp_path, "d.csv", "a,y,b\n1,10,4\n2,20,5\n3,30,6\n0,5,9\n7,1,2\n")
    data = load_csv(path, "y")
    assert data.names == ("a", "b")
    assert data.n == 5 and data.p == 2
    assert list(data.y) == [10.0, 20.0, 30.0, 5.0, 1.0]
    assert list(data.X[:, 1]) == [4.0, 5.0, 6.0, 9.0, 2.0]


def test_load_csv_errors(tmp_path):
    bad_cell = write(tmp_path, "c.csv", "y,x\n1,2\n3,oops\n4,5\n6,7\n")
    with pytest.raises(ParseError) as err:
        load_csv(bad_cell, "y")
    assert err.value.row == 3 and err.value.col == 2

    ragged = write(tmp_path, "r.csv", "y,x\n1,2\n3,4,5\n6,7\n8,9\n")
    with pytest.raises(ParseError) as err:
        load_csv(ragged, "y")
    assert err.value.row == 3

    empty_cell = write(tmp_path, "e.csv", "y,x\n1,\n2,3\n4,5\n6,7\n")
    with pytest.raises(ParseError) as err:
        load_csv(empty_cell, "y")
    assert err.value.row == 2 and err.value.col == 2

    dup = write(tmp_path, "dup.csv", "y,x,x\n1,2,3\n")
    with pytest.raises(ParseError):
        load_csv(dup, "y")

    with pytest.raises(MissingResponseError):
        load_csv(write(tmp_path, "m.csv", "a,b\n1,2\n3,4\n5,6\n"), "y")

    short = write(tmp_path, "s.csv", "y,a,b\n1,2,3\n4,5,6\n7,8,9\n")
    with pytest.raises(TooFewRowsError):
        load_csv(short, "y")

    for cell in ("nan", "inf", "-inf"):
        # float() accepts these, but a model cannot be fitted to them
        path = write(tmp_path, "f.csv", f"y,a,b\n1,2,3\n4,5,6\n7,8,{cell}\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, "y")
        assert err.value.row == 4 and err.value.col == 3
        assert f"not finite: {cell!r}" in str(err.value)

    with pytest.raises(ParseError):
        load_csv(write(tmp_path, "0.csv", ""), "y")

    with pytest.raises(ParseError):
        load_csv(str(tmp_path / "nope.csv"), "y")


def test_candidate_list_parsing(tmp_path):
    path = write(tmp_path, "cands.txt", "x2\nx1,x3\n\n x2 , x1 \n")
    # indices as written; best_per_size canonicalizes them
    assert read_candidate_list(path, ("x1", "x2", "x3")) == [[1], [0, 2], [1, 0]]

    bad = write(tmp_path, "bad.txt", "x1\nz9\n")
    with pytest.raises(ParseError) as err:
        read_candidate_list(bad, ("x1", "x2"))
    assert err.value.row == 2

    with pytest.raises(ParseError):
        read_candidate_list(write(tmp_path, "blank.txt", "\n\n"), ("x1",))


def test_canonical_json_round_trip():
    obj = {
        "meta": {"b_first": 2, "a_second": [0.1, 1.0 / 3.0, 1e300, -0.0]},
        "flags": [True, False, None],
        "text": "line\nbreak",
        "count": 42,
    }
    s1 = to_canonical_json(obj)
    s2 = to_canonical_json(json.loads(s1))
    assert s1 == s2
    # insertion order is preserved, not sorted
    assert s1.index("b_first") < s1.index("a_second")


def test_canonical_json_non_finite():
    s = to_canonical_json({"hi": math.inf, "lo": -math.inf, "gap": math.nan})
    assert '"inf"' in s and '"-inf"' in s and '"nan"' in s
    assert to_canonical_json(json.loads(s)) == s


class _Str(str):
    pass


class _FreshRows(list):
    """A list whose iteration builds a new row each time, so that a freed row's id can recur."""

    def __iter__(self):
        for i in range(len(self)):
            yield [i]


def test_canonical_json_edge_document_matches_oracle():
    shared = [1.5, "x", {"k": []}]
    doc = {
        "zeros": [-0.0, 0.0, 0, False],
        "non_finite": (math.inf, -math.inf, math.nan),
        "tiny": [5e-324, 2.2250738585072014e-308 / 3, 1e308],
        "empty": [{}, [], ()],
        "text": ["é€😀", 'quo"te', "back\\slash", "ctl\x00\x1f\n\t"],
        1: {2: "int keys", None: "none key", 1.5: "float key"},
        "same_depth": [shared, shared, (shared,)],
        "two_depths": {"a": shared, "b": [[shared]]},
        "subclasses": [np.float64(0.1), np.float64(-0.0), _Str("sub"), {_Str("k"): 1}],
        "fresh_rows": _FreshRows(range(4)),
    }
    assert to_canonical_json(doc) == naive_canonical_json(doc)
    for bad in (np.int64(1), {1, 2}, [b"bytes"]):
        with pytest.raises(TypeError):
            to_canonical_json(bad)


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([True, 1, False, 0, -0.0, 5e-324, 1e-310, math.inf, -math.inf, math.nan]),
    st.floats(),
    st.text(),
    st.sampled_from(['"', "\\", "\n", "\x00", "\x7f", "é", "€", "😀", "\u2028"]),
)


def _json_trees(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.lists(kids, max_size=4),
            st.lists(kids, max_size=4).map(tuple),
            st.dictionaries(st.one_of(st.text(max_size=3), st.integers(-3, 3)), kids, max_size=4),
        ),
        max_leaves=16,
    )


@st.composite
def _json_docs(draw):
    # a container drawn once, then placed at random depths and at one depth twice
    shared = draw(_json_trees(_JSON_LEAVES).filter(lambda o: isinstance(o, (dict, list, tuple))))
    body = draw(_json_trees(st.one_of(_JSON_LEAVES, st.just(shared))))
    return {"twice": [shared, shared], "deeper": [[shared]], "body": body}


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_json_docs())
def test_canonical_json_matches_oracle(doc):
    assert to_canonical_json(doc) == naive_canonical_json(doc)


def test_rounding_is_half_even():
    # exact binary halves land on the even digit
    assert _round2(0.125) == "0.12"
    assert _round2(0.375) == "0.38"
    assert _round2(0.625) == "0.62"
    assert _round2(0.875) == "0.88"


def test_select_table_output(tmp_path, capsys):
    path = write(tmp_path, "d1.csv", D1_CSV)
    code = main(["select", "--data", path, "--response", "y",
                 "--criteria", "cmc", "--alphas", "0.5,0,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "chosen (1 of 1): x" in out
    kappas = [line.split("kappa = ")[1] for line in out.splitlines() if "kappa = " in line]
    assert kappas[1:] == ["inf", "0"]
    sizes = [line for line in out.splitlines() if line.lstrip().startswith("size ")]
    assert len(sizes) == 6 and all("score=" in line for line in sizes)


def test_select_without_predictors(tmp_path, capsys):
    # a response-only file selects the intercept-only model in every format
    path = write(tmp_path, "y.csv", "y\n1\n2\n4\n")
    outs = {}
    for fmt in ("table", "json", "csv"):
        code = main(["select", "--data", path, "--response", "y", "--format", fmt])
        outs[fmt] = capsys.readouterr().out
        assert code == 0, fmt
    assert "chosen (0 of 0): (intercept only)" in outs["table"]
    assert "  intercept   2.3333" in outs["table"]
    assert json.loads(outs["json"])["results"][0]["chosen"] == []


def test_select_json_round_trip(tmp_path, capsys):
    path = write(tmp_path, "d1.csv", D1_CSV)
    code = main(["select", "--data", path, "--response", "y",
                 "--criteria", "cmc,bic", "--alphas", "0.5", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["command"] == "select"
    assert doc["meta"]["response"] == "y"
    assert [r["criterion"] for r in doc["results"]] == ["cmc", "bic"]
    assert doc["results"][0]["chosen"] == ["x"]
    assert doc["results"][0]["coefficients"]["intercept"] == pytest.approx(-0.2)
    assert to_canonical_json(doc) == naive_canonical_json(doc) == out


def test_select_standardize(tmp_path, capsys):
    rng = np.random.default_rng(11)
    X = rng.standard_normal((25, 4)) * [1.0, 10.0, 0.1, 3.0] + [0.0, 5.0, -2.0, 1.0]
    y = 1.0 + X[:, 0] + 0.1 * X[:, 1] + rng.standard_normal(25)
    path = write(tmp_path, "s.csv", "a,b,c,d,y\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in np.column_stack([X, y]).tolist()))
    argv = ["select", "--data", path, "--response", "y", "--criteria", "cmc,bic,cp,adjr2",
            "--alphas", "0.9,0.1", "--format", "json"]
    docs = []
    for extra in ([], ["--standardize"]):
        assert main(argv + extra) == 0
        docs.append(json.loads(capsys.readouterr().out))
    plain, std = docs
    assert plain["meta"]["standardize"] is False and std["meta"]["standardize"] is True
    reports = select_many(standardize(load_csv(path, "y")), ("cmc", "bic", "cp_aic", "adjr2"), (0.9, 0.1))
    assert [(r["criterion"], r["alpha"]) for r in std["results"]] == [(r.criterion, r.alpha) for r in reports]
    for res, rep in zip(std["results"], reports):
        assert list(res["coefficients"].values()) == rep.fit.beta.tolist()
    # selection is invariant to rescaling and shifting the predictors
    assert [r["chosen"] for r in std["results"]] == [r["chosen"] for r in plain["results"]]
    assert [r["coefficients"] for r in std["results"]] != [r["coefficients"] for r in plain["results"]]


def test_select_alpha_zero_serializes_inf(tmp_path, capsys):
    path = write(tmp_path, "d1.csv", D1_CSV)
    code = main(["select", "--data", path, "--response", "y",
                 "--criteria", "cmc", "--alphas", "0", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["kappa"] == "inf"
    assert doc["results"][0]["chosen"] == []
    assert to_canonical_json(doc) == naive_canonical_json(doc) == out


def test_select_csv_format(tmp_path, capsys):
    path = write(tmp_path, "d1.csv", D1_CSV)
    code = main(["select", "--data", path, "--response", "y",
                 "--criteria", "bic", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "criterion,alpha,name,coefficient"
    assert lines[1].startswith("bic,,intercept,")


def test_select_criterion_aliases(tmp_path, capsys):
    path = write(tmp_path, "d1.csv", D1_CSV)
    code = main(["select", "--data", path, "--response", "y",
                 "--criteria", "cp", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["results"][0]["criterion"] == "cp_aic"
    # names are case-free, and a repeat under another spelling is dropped
    code = main(["select", "--data", path, "--response", "y",
                 "--criteria", "CP,cp_aic,Cmc", "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["meta"]["criteria"] == ["cp_aic", "cmc"]


def test_select_candidate_list(tmp_path, capsys):
    path = write(tmp_path, "d1.csv", D1_CSV)
    cands = write(tmp_path, "cands.txt", "x\n")
    code = main(["select", "--data", path, "--response", "y",
                 "--criteria", "cmc", "--alphas", "0.5",
                 "--candidates", f"list:{cands}", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["chosen"] == ["x"]
    assert [e["size"] for e in doc["results"][0]["per_size"]] == [1]


def test_select_json_per_size_is_the_search_table(tmp_path, capsys):
    rng = np.random.default_rng(17)
    X = rng.standard_normal((30, 5))
    y = 1.0 + X[:, 0] - X[:, 2] + 0.5 * rng.standard_normal(30)
    path = write(tmp_path, "d5.csv", "a,b,c,d,e,y\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in np.column_stack([X, y]).tolist()))
    # the list's sizes are 1, 3 and 5: sizes 0, 2 and 4 are gaps
    cands = write(tmp_path, "cands.txt", "c\na,c,e\nb\na,b,c,d,e\n")
    data = load_csv(path, "y")
    for candidates, masks in (("all", None), (f"list:{cands}", [[2], [0, 2, 4], [1], list(range(5))])):
        code = main(["select", "--data", path, "--response", "y", "--criteria", "cmc,bic,cp,adjr2",
                     "--alphas", "0.9,0.1", "--candidates", candidates, "--format", "json"])
        assert code == 0
        results = json.loads(capsys.readouterr().out)["results"]
        table = best_per_size(data, masks)
        want = [
            {"size": s, "variables": [data.names[i] for i in table.entries[s].mask],
             "rss": table.entries[s].rss}
            for s in table.sizes()
        ]
        assert len(results) == 5
        assert all(r["per_size"] == want for r in results), candidates
    assert [e["size"] for e in want] == [1, 3, 5]


def test_select_negative_zero_alpha_is_alpha_zero(tmp_path, capsys):
    path = write(tmp_path, "d1.csv", D1_CSV)
    argv = ["select", "--data", path, "--response", "y", "--criteria", "cmc"]
    outs = {}
    for alphas in ("0", "-0"):
        for fmt in ("table", "json", "csv"):
            assert main(argv + ["--alphas", alphas, "--format", fmt]) == 0
            outs[alphas, fmt] = capsys.readouterr().out
    for fmt in ("table", "json", "csv"):
        assert outs["-0", fmt] == outs["0", fmt], fmt
    assert "== cmc (alpha=0) ==" in outs["-0", "table"]
    assert "cmc,0,intercept," in outs["-0", "csv"]

    # 0 and -0 are one alpha, so they ask for the same report twice
    assert main(argv + ["--alphas", "0,-0"]) == 2
    assert "duplicate result labels in ['cmc_0', 'cmc_0']" in capsys.readouterr().err
    assert main(["simulate", "--n", "20", "--p", "3", "--p-active", "1", "--reps", "1",
                 "--threads", "1", "--alphas", "0,-0"]) == 2
    assert "duplicate result labels" in capsys.readouterr().err
    assert main(["simulate", "--n", "20", "--p", "3", "--p-active", "1", "--reps", "1",
                 "--threads", "1", "--criteria", "cmc", "--alphas=-0,0.5", "--format", "csv"]) == 0
    assert [row[6] for row in csv.reader(io.StringIO(capsys.readouterr().out))][1:] == [
        "cmc_0", "cmc_0.5"]


def test_select_searches_once(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "d4.csv",
                 "y,a,b,c\n1,0,2,1\n3,1,0,2\n4,2,1,0\n8,3,3,1\n9,4,2,2\n13,5,4,0\n")
    searches = spy_calls(monkeypatch, cmcselect.subsets.best_per_size)
    factors = spy_calls(monkeypatch, cmcselect.linalg._factor)
    fits = spy_calls(monkeypatch, cmcselect.linalg._fit_masks)
    code = main(["select", "--data", path, "--response", "y", "--criteria", "cmc,bic,cp,adjr2",
                 "--alphas", "0.9,0.5,0.1", "--format", "json"])
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["results"]) == 6
    assert len(searches) == 1
    # one R factor, and one fit per size of the p + 1 per-size table entries;
    # the full-model statistics and the reports reuse the table's fits
    assert [len(datas) for datas, in factors] == [1]
    assert [len(masks[0]) for _, _, _, masks in fits] == [0, 1, 2, 3]


def test_select_exit_codes(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "d1.csv", D1_CSV)

    assert main(["select", "--data", str(tmp_path / "nope.csv"),
                 "--response", "y"]) == 2
    assert "error" in capsys.readouterr().err

    assert main(["select", "--data", path]) == 2
    assert "response" in capsys.readouterr().err

    assert main(["select", "--data", path, "--response", "y",
                 "--criteria", "lasso"]) == 2
    assert "unknown criterion 'lasso'" in capsys.readouterr().err

    assert main(["select", "--data", path, "--response", "y",
                 "--alphas", "1.5"]) == 2
    capsys.readouterr()

    assert main(["select", "--data", path, "--response", "y",
                 "--alphas", "0.9,0.9"]) == 2
    assert "duplicate" in capsys.readouterr().err

    assert main(["select", "--data", path, "--response", "y",
                 "--candidates", "best-per-size"]) == 2
    assert "list:<path>" in capsys.readouterr().err

    for flag, value, message in (("--criteria", ",", "no criteria requested"),
                                 ("--alphas", "abc", "bad --alphas value"),
                                 ("--alphas", ",", "no alphas given")):
        assert main(["select", "--data", path, "--response", "y", flag, value]) == 2
        assert message in capsys.readouterr().err

    monkeypatch.delenv(PROSTATE_ENV, raising=False)
    assert main(["select"]) == 2
    assert PROSTATE_ENV in capsys.readouterr().err


def error_classes(base: type) -> list[type]:
    """Every subclass of base, at any depth, so a new error class is covered unasked."""
    found = []
    for sub in base.__subclasses__():
        found += [sub] + error_classes(sub)
    return found


# one command line per subcommand; its run_* function is replaced, so the
# arguments only have to parse
ERROR_ARGV = {
    "run_select": ["select", "--data", "d.csv", "--response", "y"],
    "run_simulate": ["simulate", "--n", "20", "--p", "3", "--p-active", "1"],
    "run_tables": ["tables", "--table", "1"],
}


@pytest.mark.parametrize("runner", sorted(ERROR_ARGV))
def test_every_error_maps_to_its_exit_code(runner, capsys, monkeypatch):
    cases = [(cls, 2, "error") for cls in error_classes(InputError)]
    cases += [(cls, 3, "numerical error") for cls in error_classes(NumericalError)]
    assert {ParseError, TooFewRowsError, RankDeficientError} <= {cls for cls, _, _ in cases}
    for cls, code, prefix in cases:
        def fail(args, cls=cls):
            raise cls(f"{cls.__name__} raised")

        monkeypatch.setattr(cli, runner, fail)
        assert main(ERROR_ARGV[runner]) == code, cls
        out, err = capsys.readouterr()
        assert out == "", cls
        assert err == f"{prefix}: {cls.__name__} raised\n", cls


def test_non_utf8_input_exits_2(tmp_path, capsys):
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_bytes(b"y,x\n1,0\n2,\xff\n3,2\n4,3\n")
    assert main(["select", "--data", str(bad_csv), "--response", "y"]) == 2
    assert capsys.readouterr().err.startswith("error:")

    path = write(tmp_path, "d1.csv", D1_CSV)
    bad_list = tmp_path / "cands.txt"
    bad_list.write_bytes(b"x\n\xff\n")
    assert main(["select", "--data", path, "--response", "y",
                 "--candidates", f"list:{bad_list}"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_byte_order_mark_is_not_a_name(tmp_path, capsys):
    # spreadsheet exports often start UTF-8 files with a byte-order mark
    bom = b"\xef\xbb\xbf"
    plain = write(tmp_path, "d1.csv", D1_CSV)
    marked = tmp_path / "bom.csv"
    marked.write_bytes(bom + D1_CSV.encode())
    args = ["--response", "y", "--criteria", "cmc", "--alphas", "0.5", "--format", "json"]
    assert main(["select", "--data", plain] + args) == 0
    expect = json.loads(capsys.readouterr().out)["results"]
    assert main(["select", "--data", str(marked)] + args) == 0
    assert json.loads(capsys.readouterr().out)["results"] == expect

    cands = tmp_path / "cands.txt"
    cands.write_bytes(bom + b"x1,x3\nx2\n")
    assert read_candidate_list(str(cands), ("x1", "x2", "x3")) == [[0, 2], [1]]


def test_select_numerical_exit_code(tmp_path, capsys):
    exact = write(tmp_path, "exact.csv", "y,x\n1,0\n3,1\n5,2\n7,3\n9,4\n")
    assert main(["select", "--data", exact, "--response", "y"]) == 3
    assert "numerical error" in capsys.readouterr().err

    dup = write(tmp_path, "dup.csv", "y,a,b\n1,2,2\n0,1,1\n4,5,5\n2,0,0\n9,3,3\n")
    assert main(["select", "--data", dup, "--response", "y"]) == 3
    capsys.readouterr()


def test_simulate_json(capsys):
    code = main(["simulate", "--n", "25", "--p", "4", "--p-active", "2",
                 "--reps", "3", "--seed", "5", "--threads", "1",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["command"] == "simulate"
    assert doc["meta"]["labels"] == [
        "cmc_0.9", "cmc_0.5", "cmc_0.1", "bic", "cp_aic", "adjr2",
    ]
    rates = doc["results"][0]["rates"]
    assert set(rates) == set(doc["meta"]["labels"])
    for cell in rates.values():
        assert 0.0 <= cell["fir"] <= 1.0
        assert 0.0 <= cell["far"] <= 1.0
        assert 0.0 <= cell["zero_fraction"] <= 1.0
    assert doc["results"][0]["scenario"]["extension"] is False
    assert to_canonical_json(doc) == out


def test_simulate_table_format(capsys):
    code = main(["simulate", "--n", "25", "--p", "4", "--p-active", "2",
                 "--reps", "2", "--seed", "5", "--threads", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(25, 4, 2)" in out


def test_simulate_exit_codes(capsys):
    assert main(["simulate", "--n", "25", "--p", "4", "--p-active", "2",
                 "--criteria", "lasso", "--reps", "2", "--threads", "1"]) == 2
    assert "unknown criterion 'lasso'" in capsys.readouterr().err
    assert main(["simulate", "--n", "25", "--p", "4", "--p-active", "9",
                 "--reps", "2", "--threads", "1"]) == 2
    capsys.readouterr()
    assert main(["simulate", "--n", "25", "--p", "4", "--p-active", "2",
                 "--reps", "0", "--threads", "1"]) == 2
    capsys.readouterr()
    assert main(["simulate", "--n", "25", "--p", "4", "--p-active", "2",
                 "--reps", "2", "--threads", "0"]) == 2
    capsys.readouterr()
    # rho has no effect on a weak design, so it is refused, not echoed
    assert main(["simulate", "--n", "25", "--p", "4", "--p-active", "2",
                 "--rho", "0.5", "--reps", "2", "--threads", "1"]) == 2
    capsys.readouterr()
    # n = p+1 leaves no residual degree of freedom
    assert main(["simulate", "--n", "11", "--p", "10", "--p-active", "5",
                 "--reps", "1", "--threads", "1"]) == 2
    assert "n > p+1" in capsys.readouterr().err
    # beyond the exhaustive-search limit of 30 predictors
    assert main(["simulate", "--n", "40", "--p", "31", "--p-active", "5",
                 "--reps", "1", "--threads", "1"]) == 2
    assert "p=31" in capsys.readouterr().err
    # raised in a worker process, the error keeps its type and exit code
    assert main(["simulate", "--n", "40", "--p", "31", "--p-active", "5",
                 "--reps", "2", "--threads", "2"]) == 2
    assert "p=31" in capsys.readouterr().err
    # the default groups of 5 do not fit 4 active columns; the error names
    # what the command line can change
    assert main(["simulate", "--scenario", "correlated", "--n", "40", "--p", "8",
                 "--p-active", "4", "--rho", "0.5", "--threads", "1"]) == 2
    assert "p_active" in capsys.readouterr().err
    # numpy refuses a negative seed; both commands report it as a bad option
    assert main(["simulate", "--n", "30", "--p", "4", "--p-active", "2",
                 "--reps", "2", "--seed", "-1", "--threads", "1"]) == 2
    assert "seed" in capsys.readouterr().err
    assert main(["tables", "--table", "2", "--reps", "1", "--seed", "-1",
                 "--threads", "1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_simulate_at_the_subset_limit(capsys):
    # p = 30 is searched exhaustively; a strong signal keeps the search short
    assert main(["simulate", "--n", "200", "--p", "30", "--p-active", "15", "--sigma", "0.1",
                 "--reps", "1", "--threads", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][0]["scenario"]["p"] == 30
    assert doc["results"][0]["rates"]["bic"] == {"fir": 0.0, "far": 0.0, "zero_fraction": 1.0}


def test_tables_two_structure(capsys):
    code = main(["tables", "--table", "2", "--reps", "2", "--seed", "3",
                 "--threads", "1", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["table"] == 2
    assert [r["scenario"]["n"] for r in doc["results"]] == [40, 60, 100]
    assert list(doc["results"][0]["rates"]) == ["cmc_0.9"]
    assert list(doc["results"][1]["rates"]) == ["cmc_0.5"]
    assert list(doc["results"][2]["rates"]) == ["cmc_0.1"]
    assert to_canonical_json(doc) == out


def test_tables_two_rate_writers(capsys):
    # each Table 2 row runs its own alpha, so the table format takes the
    # one-criterion-per-row layout; csv prints the repr of the json rates
    argv = ["tables", "--table", "2", "--reps", "2", "--seed", "1", "--threads", "1", "--format"]
    out = {}
    for fmt in ("json", "csv", "table"):
        assert main(argv + [fmt]) == 0
        out[fmt] = capsys.readouterr().out
    cells = [(res["scenario"]["n"], lab, rate)
             for res in json.loads(out["json"])["results"] for lab, rate in res["rates"].items()]
    assert [(n, lab) for n, lab, _ in cells] == [(40, "cmc_0.9"), (60, "cmc_0.5"), (100, "cmc_0.1")]
    keys = ("fir", "far", "zero_fraction")

    rows = list(csv.reader(io.StringIO(out["csv"])))
    assert rows[0] == ["scenario", "kind", "n", "p", "p_active", "rho", "criterion", *keys]
    assert len(rows) == 1 + len(cells)
    for row, (n, lab, rate) in zip(rows[1:], cells):
        assert row[0] == f"({n}, 20, 10) a={lab[4:]}"
        assert row[1:7] == ["weak", str(n), "20", "10", "0", lab]
        assert row[7:] == [repr(float(rate[k])) for k in keys]

    lines = out["table"].splitlines()
    assert lines[0].split() == ["scenario", "criterion", "(fir,", "far)", "zero_fraction"]
    assert len(lines) == 1 + len(cells)
    for line, row, (_, lab, rate) in zip(lines[1:], rows[1:], cells):
        assert line.startswith(row[0] + " ")
        assert line[len(row[0]):].split() == [
            lab, f"({_round2(rate['fir'])},", f"{_round2(rate['far'])})", _round2(rate["zero_fraction"])]


def test_tables_rejects_simulate_only_flags(capsys):
    # tables runs fixed criteria and alphas per grid, so it takes neither flag
    for flag, value in (("--criteria", "bic"), ("--alphas", "0.5")):
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--table", "2", flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.slow
def test_tables_one_structure(capsys):
    code = main(["tables", "--table", "1", "--reps", "1", "--seed", "3",
                 "--threads", "1", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    shapes = [
        (r["scenario"]["n"], r["scenario"]["p"], r["scenario"]["p_active"])
        for r in doc["results"]
    ]
    assert len(shapes) == 12
    assert shapes[0] == (20, 10, 5)
    assert shapes[-1] == (150, 30, 15)
    assert all(len(r["rates"]) == 6 for r in doc["results"])


def _declared_script() -> str:
    """The `cmcselect` entry of `[project.scripts]` in the repository's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["cmcselect"]


def _run_script(target: str, args: list[str], cwd) -> subprocess.CompletedProcess:
    """Run a `module:function` target in a fresh interpreter as pip's wrapper does."""
    module, _, func = target.partition(":")
    code = (
        "import importlib, sys\n"
        f"main = getattr(importlib.import_module({module!r}), {func!r})\n"
        "sys.argv[0] = 'cmcselect'\n"
        "sys.exit(main())\n"
    )
    env = dict(os.environ)
    src = str(Path(cmcselect.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def _assert_select_help(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: cmcselect select")
    assert "--criteria" in proc.stdout


def test_console_script_installed(tmp_path):
    target = _declared_script()
    assert target == "cmcselect.cli:main"
    _assert_select_help(_run_script(target, ["select", "--help"], tmp_path))


def test_console_script_exit_status(tmp_path):
    missing = str(tmp_path / "missing.csv")
    proc = _run_script(
        _declared_script(), ["select", "--data", missing, "--response", "y"], tmp_path
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr


@pytest.mark.skipif(shutil.which("cmcselect") is None, reason="cmcselect not installed on PATH")
def test_console_script_executable(tmp_path):
    installed = importlib.metadata.entry_points(group="console_scripts", name="cmcselect")
    if installed:
        assert [ep.value for ep in installed] == [_declared_script()]
    proc = subprocess.run(
        ["cmcselect", "select", "--help"], capture_output=True, text=True, cwd=tmp_path
    )
    _assert_select_help(proc)


def test_benchmark_span_targets_exist():
    # the benchmark's traced run wraps these functions by name, and a missing
    # one breaks it; its span list is read from the file, not a copy
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", REPO_ROOT / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPAN_TARGETS
    for module, attr, _ in spans.SPAN_TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_benchmark_imports_resolve():
    # the benchmark imports these names from the package; a rename that
    # misses one would only show when the benchmark runs
    tree = ast.parse((REPO_ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module and node.module.split(".")[0] == "cmcselect"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
