"""Pinned Monte Carlo results: a refactor that keeps every choice keeps these exactly.

Rates are means of exact fractions, so they depend only on the masks
each replicate chooses.  golden.json holds the `results` of two `tables`
runs and the rates of one stress scenario whose run QR-refits two reps.
It is regenerated, after an output change is declared, with

    PYTHONPATH=src python tests/test_golden.py

The same choices hold across BLAS kernels, though the printed bits do
not: test_decisions_hold_across_blas_kernels runs `select` and
`simulate` under the default kernel and under a forced older one.
"""

import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

import cmcselect
from cmcselect import cli, run_monte_carlo
from cmcselect.simulate import gen_correlated_design, gen_response
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


def _kernel_masks() -> dict | None:
    """Child environment settings that force OpenBLAS's Haswell kernel and mask numpy's AVX-512 loops.

    None where numpy's OpenBLAS cannot switch kernels at run time (no
    DYNAMIC_ARCH), the machine cannot run the Haswell kernel, or numpy's
    show_config predates its mode argument and has no dict to read.
    """
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        return None
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {})
    found = list(simd.get("found", []))
    if ("DYNAMIC_ARCH" not in blas.get("openblas configuration", "")
            or platform.machine().lower() not in ("x86_64", "amd64")
            or not {"X86_V3", "AVX2"} & set(found + list(simd.get("baseline", [])))):
        return None
    avx512 = [f for f in found if "AVX512" in f or f == "X86_V4"]
    return {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": " ".join(avx512)}


# a child's run: each command line's exit code must be 0, its JSON goes to stdout as a list
_CHILD = """if True:
    import contextlib, io, json, sys
    from cmcselect.cli import main
    docs = []
    for argv in json.loads(sys.argv[1]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        docs.append(json.loads(out.getvalue()))
    print(json.dumps(docs))
"""


def test_decisions_hold_across_blas_kernels(tmp_path, monkeypatch):
    # select on two fixed CSVs and a small simulate, in child processes with
    # the default kernels and with OpenBLAS forced to Haswell and numpy's
    # AVX-512 loops masked: the printed RSS may move in their low bits, but
    # every chosen mask and every rate stays
    with monkeypatch.context() as mp:
        # a show_config without the mode argument skips the test, not raises
        mp.setattr(np, "show_config", lambda: None)
        assert _kernel_masks() is None
    masks = _kernel_masks()
    if masks is None:
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS on an AVX2 x86 machine")
    argvs = []
    for i, sc in enumerate((STRESS[0], STRESS[4])):
        rng = np.random.default_rng([11, i])
        X = rng.standard_normal((sc.n, sc.p)) if sc.kind == "weak" else gen_correlated_design(sc, rng)
        rows = np.column_stack([X, gen_response(X, sc, rng)]).tolist()
        path = tmp_path / f"d{i}.csv"
        path.write_text(",".join([f"x{j + 1}" for j in range(sc.p)] + ["y"]) + "\n"
                        + "".join(",".join(map(repr, row)) + "\n" for row in rows))
        argvs.append(["select", "--data", str(path), "--response", "y",
                      "--alphas", "0.9,0.5,0.1", "--format", "json"])
    argvs.append(["simulate", "--n", "50", "--p", "10", "--p-active", "5", "--reps", "40",
                  "--seed", "3", "--threads", "1", "--format", "json"])
    src = os.path.dirname(os.path.dirname(cmcselect.__file__))
    base = {k: v for k, v in os.environ.items() if k not in masks}
    runs = []
    for env in (base, {**base, **masks}):
        done = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs)], capture_output=True,
                              text=True, timeout=120, env={**env, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        docs = json.loads(done.stdout)
        runs.append([[(r["criterion"], r["alpha"], r["chosen"]) for r in doc["results"]]
                     for doc in docs[:-1]] + [docs[-1]["results"]])
    assert runs[0] == runs[1]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_current(), indent=1, sort_keys=True) + "\n")
