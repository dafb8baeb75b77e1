"""Monte Carlo harness checks: generators, seeding, and reproducibility."""

import logging
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import cmcselect
from cmcselect import (
    CRITERIA,
    ConfigError,
    Dataset,
    MonteCarloResult,
    RankDeficientError,
    Scenario,
    TooFewRowsError,
    classify,
    cli,
    cmc_select,
    criteria,
    labels_for,
    run_monte_carlo,
    select_many,
    simulate,
)
from cmcselect.simulate import _gen_design, _rho_to_w, gen_correlated_design, gen_response
from conftest import ORDINARY, STRESS, spy_calls


@pytest.fixture(autouse=True)
def no_worker_outlives_its_test():
    yield
    assert multiprocessing.active_children() == []


def test_scenario_validation():
    with pytest.raises(ConfigError):
        Scenario(kind="strong", n=40, p=10, p_active=5)
    with pytest.raises(ConfigError):
        Scenario(kind="weak", n=40, p=10, p_active=11)
    with pytest.raises(ConfigError):
        Scenario(kind="correlated", n=40, p=20, p_active=10, rho=1.0)
    with pytest.raises(ConfigError):
        Scenario(kind="correlated", n=40, p=20, p_active=10, rho=-0.1)
    with pytest.raises(ConfigError):
        Scenario(kind="weak", n=40, p=0, p_active=0)
    with pytest.raises(TooFewRowsError):
        Scenario(kind="weak", n=0, p=1, p_active=0)
    with pytest.raises(ConfigError):
        Scenario(kind="weak", n=40, p=10, p_active=5, sigma=0.0)
    with pytest.raises(ConfigError):
        Scenario(kind="correlated", n=40, p=20, p_active=10, rho=0.5, group_size=11)
    with pytest.raises(ConfigError):
        # a weak design has no groups to correlate
        Scenario(kind="weak", n=40, p=10, p_active=5, rho=0.5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="beta0"):
            Scenario(kind="weak", n=40, p=10, p_active=5, beta0=bad)
        with pytest.raises(ConfigError, match="active_value"):
            Scenario(kind="weak", n=40, p=10, p_active=5, active_value=bad)


def test_scenario_truth_and_extension():
    ref = Scenario(kind="correlated", n=40, p=20, p_active=10, rho=0.5)
    assert ref.truth == tuple(range(10))
    assert not ref.extension
    assert not Scenario(kind="weak", n=40, p=10, p_active=5).extension
    other = Scenario(kind="correlated", n=60, p=24, p_active=12, rho=0.5, group_size=6)
    assert other.extension


def test_weak_design_deterministic():
    sc = Scenario(kind="weak", n=20, p=4, p_active=2)
    a = _gen_design(sc, np.random.default_rng(42))
    b = _gen_design(sc, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_weak_design_moments():
    X = _gen_design(Scenario(kind="weak", n=10000, p=3, p_active=1), np.random.default_rng(1))
    assert np.abs(X.mean(axis=0)).max() < 0.05
    assert np.abs(X.std(axis=0) - 1.0).max() < 0.05
    corr = np.corrcoef(X, rowvar=False)
    off = corr[~np.eye(3, dtype=bool)]
    assert np.abs(off).max() < 0.05


def test_rho_to_w_values():
    assert _rho_to_w(0.0) == 0.0
    assert abs(_rho_to_w(0.5) - 0.5) < 1e-15
    assert abs(_rho_to_w(0.8) - 2.0 / 3.0) < 1e-15
    for rho in (0.1, 0.3, 0.5, 0.8, 0.95):
        w = _rho_to_w(rho)
        back = w * w / ((1.0 - w) ** 2 + w * w)
        assert abs(back - rho) < 1e-12


def test_correlated_design_correlations():
    sc = Scenario(kind="correlated", n=10000, p=20, p_active=10, rho=0.5)
    X = gen_correlated_design(sc, np.random.default_rng(3))
    corr = np.corrcoef(X, rowvar=False)
    # within the two factor groups
    for block in (range(0, 5), range(10, 15)):
        for i in block:
            for j in block:
                if i < j:
                    assert abs(corr[i, j] - 0.5) < 0.05
    # across groups and among ungrouped columns
    for i in range(0, 5):
        for j in range(10, 15):
            assert abs(corr[i, j]) < 0.05
    for i in range(5, 10):
        for j in range(i + 1, 10):
            assert abs(corr[i, j]) < 0.05


def test_correlated_rho_zero_matches_weak():
    sc = Scenario(kind="correlated", n=30, p=20, p_active=10, rho=0.0)
    X = gen_correlated_design(sc, np.random.default_rng(7))
    Z = _gen_design(Scenario(kind="weak", n=30, p=20, p_active=10), np.random.default_rng(7))
    np.testing.assert_array_equal(X, Z)


def test_response_composition():
    sc = Scenario(kind="weak", n=50, p=4, p_active=2, sigma=1e-9, beta0=2.5)
    rng = np.random.default_rng(11)
    X = _gen_design(sc, rng)
    y = gen_response(X, sc, rng)
    expect = 2.5 + X[:, 0] + X[:, 1]
    assert np.abs(y - expect).max() < 1e-6
    none = Scenario(kind="weak", n=50, p=4, p_active=0, sigma=1e-9, beta0=-1.0)
    rng = np.random.default_rng(11)
    X = _gen_design(none, rng)
    y0 = gen_response(X, none, rng)
    assert np.abs(y0 + 1.0).max() < 1e-6


def test_labels_for():
    assert labels_for(("bic", "cmc"), (0.9, 0.5)) == ("bic", "cmc_0.9", "cmc_0.5")
    assert labels_for(("adjr2",), ()) == ("adjr2",)
    assert labels_for(("cmc",), (0.25,)) == ("cmc_0.25",)
    # -0.0 is alpha 0: one label, so asking for both is a duplicate
    assert labels_for(("cmc",), (-0.0,)) == ("cmc_0",)
    with pytest.raises(ConfigError, match="duplicate"):
        labels_for(("cmc",), (0.0, -0.0))


def test_monte_carlo_validation():
    sc = Scenario(kind="weak", n=30, p=5, p_active=2)
    with pytest.raises(ConfigError):
        run_monte_carlo(sc, reps=0)
    with pytest.raises(ConfigError):
        run_monte_carlo(sc, criteria=("ridge",), reps=1)
    with pytest.raises(ConfigError):
        run_monte_carlo(sc, alphas=(1.5,), reps=1)
    with pytest.raises(ConfigError):
        run_monte_carlo(sc, reps=2, threads=0)
    with pytest.raises(ConfigError):
        run_monte_carlo(sc, criteria=("cmc",), alphas=(), reps=1)
    with pytest.raises(ConfigError, match="seed"):
        run_monte_carlo(sc, reps=1, seed=-1)


def test_monte_carlo_rejects_duplicate_labels():
    # both alphas label as cmc_0.123456, so one column of rates would be lost
    sc = Scenario(kind="weak", n=30, p=5, p_active=2)
    with pytest.raises(ConfigError):
        run_monte_carlo(sc, criteria=("cmc",), alphas=(0.1234561, 0.1234564), reps=3)


def _select_many_rates(sc: Scenario, seed: int, rep: int, draws: int = 1):
    """Per-label fir and far of select_many on draw `draws` of default_rng([seed, rep])."""
    rng = np.random.default_rng([seed, rep])
    for _ in range(draws):
        X = _gen_design(sc, rng)
        y = gen_response(X, sc, rng)
    reports = select_many(Dataset(X=X, y=y), CRITERIA, (0.9, 0.5, 0.1))
    rates = [classify(r.chosen, sc.truth, sc.p) for r in reports]
    return [r.fir for r in rates], [r.far for r in rates]


def record_rows(monkeypatch) -> list:
    """Route _run_chunk through a recorder; returns the list its rows are appended to."""
    rows: list = []
    run_chunk = simulate._run_chunk

    def recorded(args):
        out = run_chunk(args)
        rows.extend(out)
        return out

    monkeypatch.setattr(simulate, "_run_chunk", recorded)
    return rows


def test_replicate_runs_select_many(monkeypatch):
    # each rep's rates are select_many's on the data drawn from default_rng([seed, rep]),
    # on a small weak shape, a correlated one and one at p = 20; a rep scores its
    # table with the rules select_many's reports come from, and builds no report
    rows = record_rows(monkeypatch)
    built = spy_calls(monkeypatch, criteria._reports)
    scenarios = (
        Scenario(kind="weak", n=30, p=6, p_active=3, sigma=1.5),
        Scenario(kind="correlated", n=80, p=14, p_active=7, rho=0.8),
        Scenario(kind="weak", n=60, p=20, p_active=10),
    )
    for sc in scenarios:
        for seed in (1, 2, 3):
            rows.clear()
            res = run_monte_carlo(sc, reps=5, seed=seed)
            assert built == []
            per_rep = {rep: (firs, fars) for rep, firs, fars, _ in rows}
            assert sorted(per_rep) == list(range(5))
            for rep, got in per_rep.items():
                assert got == _select_many_rates(sc, seed, rep), (sc, seed, rep)
            built.clear()
            assert len(res.labels) == 6


def test_a_chunk_makes_one_small_qr_per_size_and_no_beta_solve(monkeypatch):
    # a 25-rep (50, 10, 5) chunk factors its datasets' [1 | X | y] with one
    # batched QR, fits each size above 0 with one stacked small QR across the
    # chunk, and solves no coefficients: no FitSummary, no report
    qr_shapes, solves = [], []
    qr, solve = np.linalg.qr, np.linalg.solve

    def spy_qr(a, *args, **kwargs):
        qr_shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    def spy_solve(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    summaries = spy_calls(monkeypatch, cmcselect.linalg._summary)
    built = spy_calls(monkeypatch, criteria._reports)
    monkeypatch.setattr(np.linalg, "qr", spy_qr)
    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    sc = Scenario("weak", 50, 10, 5)
    rows = simulate._run_chunk((sc, CRITERIA, (0.9, 0.5, 0.1), 1, range(25)))
    monkeypatch.undo()
    assert sorted(row[0] for row in rows) == list(range(25))
    assert qr_shapes == [(25, 50, 12)] + [(25, 12, s + 2) for s in range(1, 11)]
    assert solves == summaries == built == []


def test_replicates_choose_what_select_many_chooses_on_stress_scenarios(monkeypatch):
    # near-collinear groups, an almost noise-free response, a large intercept
    # and a large signal, and the benchmark's and two Table 1 shapes: every
    # rep gets select_many's rates
    rows = record_rows(monkeypatch)
    for sc in STRESS + ORDINARY:
        rows.clear()
        run_monte_carlo(sc, reps=12, seed=1)
        assert sorted(row[0] for row in rows) == list(range(12))
        for rep, firs, fars, _ in rows:
            assert (firs, fars) == _select_many_rates(sc, 1, rep), (sc, rep)


def test_replicates_are_select_many_at_a_large_intercept(monkeypatch):
    # at an intercept of 1e10 and noise of 1e-4 every fit loses most of its
    # digits to the uncentered [1 | X | y]; a chunk's reps still choose what
    # select_many chooses on each rep alone, fitted from the same R factor
    sc = Scenario(kind="weak", n=50, p=10, p_active=5, sigma=1e-4, beta0=1e10)
    rows = record_rows(monkeypatch)
    run_monte_carlo(sc, reps=40, seed=1)
    assert sorted(row[0] for row in rows) == list(range(40))
    for rep, firs, fars, _ in rows:
        assert (firs, fars) == _select_many_rates(sc, 1, rep), rep


def test_pool_workers_start_with_numpy_random_imported():
    # importing the package leaves numpy.random unimported; run_monte_carlo
    # imports it before its pool forks, so a worker's first chunk finds it
    script = """if True:
        import os, sys
        import cmcselect
        from cmcselect import Scenario, run_monte_carlo, simulate
        assert "numpy.random" not in sys.modules
        parent = os.getpid()
        run_chunk = simulate._run_chunk

        def probe(args):
            if os.getpid() != parent and "numpy.random" not in sys.modules:
                raise RuntimeError("a worker imported numpy.random itself")
            return run_chunk(args)

        simulate._run_chunk = probe
        run_monte_carlo(Scenario("weak", 30, 4, 2), reps=4, threads=2)
        print("ok")
    """
    assert run_fresh(script) == "ok\n"


def test_importing_the_package_loads_no_process_or_hash_module():
    # multiprocessing is imported by a pooled run, hashlib by load_prostate
    script = """if True:
        import sys
        import cmcselect, cmcselect.cli
        print(sorted(m for m in ("multiprocessing", "concurrent.futures", "hashlib")
                     if m in sys.modules))
    """
    assert run_fresh(script) == "[]\n"


def run_fresh(script: str) -> str:
    """The stdout of `script` run in a fresh interpreter that imports the package from source."""
    src = os.path.dirname(os.path.dirname(cmcselect.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("reps", [13, 50])
def test_chunking_does_not_change_results(monkeypatch, reps):
    # 13 reps run as one chunk serially, 6+7 at two threads and 4+4+5 at three;
    # 50 run as 25+25 at one or two threads and 16+17+17 at three; all match
    # unstacked one-rep chunks
    sc = Scenario(kind="weak", n=20, p=6, p_active=3, sigma=1.5)
    runs = [run_monte_carlo(sc, reps=reps, seed=7, threads=t) for t in (1, 2, 3)]
    monkeypatch.setattr(simulate, "_MAX_CHUNK", 1)
    runs.append(run_monte_carlo(sc, reps=reps, seed=7, threads=1))
    first = runs[0]
    for res in runs[1:]:
        assert res.rates == first.rates
        assert res.zero_fraction == first.zero_fraction
        assert res.regenerated == first.regenerated


def test_every_chunk_runs_once_with_more_workers_than_cores():
    # the shared counter hands out each chunk index to exactly one worker
    sc = Scenario(kind="weak", n=20, p=4, p_active=2)
    tasks = [(sc, ("bic",), (), 3, range(r, r + 1)) for r in range(64)]
    workers = (os.cpu_count() or 1) + 1
    reps = [row[0] for rows in simulate._pooled(tasks, workers) for row in rows]
    assert sorted(reps) == list(range(64))


def test_collinear_draw_is_redrawn_inside_its_chunk(monkeypatch):
    # the first draws of reps 1 and 4 (both in the first chunk of 20) get a duplicated
    # column; only those reps redraw, from their own streams
    sc = Scenario(kind="weak", n=30, p=6, p_active=3, sigma=1.5)
    seed, reps = 3, 40
    fresh = {np.random.default_rng([seed, r]).bit_generator.state["state"]["state"]: r
             for r in (1, 4)}
    gen = simulate._gen_design

    def collinear_first(scenario, rng):
        first = fresh.get(rng.bit_generator.state["state"]["state"])
        X = gen(scenario, rng)
        if first is not None:
            X[:, 5] = X[:, 0]
        return X

    monkeypatch.setattr(simulate, "_gen_design", collinear_first)
    res = run_monte_carlo(sc, reps=reps, seed=seed)
    assert res.regenerated == 2
    fir = np.empty((reps, 6))
    far = np.empty((reps, 6))
    for r in range(reps):
        fir[r], far[r] = _select_many_rates(sc, seed, r, draws=2 if r in (1, 4) else 1)
    mean_fir, mean_far = fir.mean(axis=0), far.mean(axis=0)
    for i, label in enumerate(res.labels):
        assert tuple(res.rates[label]) == (mean_fir[i], mean_far[i])


def test_redraws_stop_at_the_cap(monkeypatch, capsys):
    # a design that stays collinear however often it is redrawn fails the run
    draws = []
    gen = simulate._gen_design

    def always_collinear(scenario, rng):
        X = gen(scenario, rng)
        X[:, 3] = X[:, 0]
        draws.append(1)
        return X

    monkeypatch.setattr(simulate, "_gen_design", always_collinear)
    sc = Scenario(kind="weak", n=20, p=4, p_active=2)
    with pytest.raises(RankDeficientError):
        run_monte_carlo(sc, reps=1, seed=1)
    assert len(draws) == 1 + simulate._MAX_REGEN
    assert cli.main(["simulate", "--n", "20", "--p", "4", "--p-active", "2",
                     "--reps", "2", "--threads", "1"]) == 3
    assert capsys.readouterr().err.startswith("numerical error: ")
    # raised in a worker process, the error reaches the caller with its type
    with pytest.raises(RankDeficientError):
        run_monte_carlo(sc, reps=2, seed=1, threads=2)
    assert cli.main(["simulate", "--n", "20", "--p", "4", "--p-active", "2",
                     "--reps", "2", "--threads", "2"]) == 3
    assert capsys.readouterr().err.startswith("numerical error: ")


def test_a_dead_worker_fails_the_run(monkeypatch):
    # a worker that exits without a word fails the run at once; the alarm
    # turns a hang into an error
    parent = os.getpid()
    run_chunk = simulate._run_chunk

    def dies(args):
        if os.getpid() != parent:
            os._exit(7)
        return run_chunk(args)

    def hung(signum, frame):
        raise TimeoutError("run_monte_carlo hung on a dead worker")

    monkeypatch.setattr(simulate, "_run_chunk", dies)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="exited with code 7"):
            run_monte_carlo(Scenario(kind="weak", n=20, p=4, p_active=2), reps=4, threads=2)
        assert time.monotonic() - start < 1.0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_progress_is_logged_per_chunk(monkeypatch, caplog):
    sc = Scenario(kind="weak", n=20, p=4, p_active=2)
    with caplog.at_level(logging.INFO, logger="cmcselect.simulate"):
        run_monte_carlo(sc, reps=20, seed=1)
    # a run shorter than the interval logs nothing
    assert caplog.records == []
    caplog.clear()
    monkeypatch.setattr(simulate, "_PROGRESS_EVERY_S", 0.0)
    with caplog.at_level(logging.INFO, logger="cmcselect.simulate"):
        run_monte_carlo(sc, reps=20, seed=1)
    lines = [rec.getMessage() for rec in caplog.records]
    # 20 serial reps are one chunk
    assert len(lines) == 1
    assert lines[0].startswith("20/20 reps done, ") and lines[0].endswith("ETA 0.0 s")
    caplog.clear()
    monkeypatch.setattr(simulate, "_MAX_CHUNK", 8)
    with caplog.at_level(logging.INFO, logger="cmcselect.simulate"):
        run_monte_carlo(sc, reps=20, seed=1)
    lines = [rec.getMessage() for rec in caplog.records]
    # chunks of at most 8: 6 + 7 + 7
    assert [line.split(" ")[0] for line in lines] == ["6/20", "13/20", "20/20"]
    assert lines[-1].endswith("ETA 0.0 s")
    assert all(rec.levelno == logging.INFO for rec in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="cmcselect.simulate"):
        run_monte_carlo(sc, reps=20, seed=1, threads=2)
    lines = [rec.getMessage() for rec in caplog.records]
    # two workers share four chunks of 5; the parent logs each as it arrives
    assert [line.split(" ")[0] for line in lines] == ["5/20", "10/20", "15/20", "20/20"]
    assert lines[-1].endswith("ETA 0.0 s")


def test_chunk_plan(monkeypatch):
    # every worker gets the same number of chunks, as few as keep each
    # within _MAX_CHUNK reps, with sizes that differ by at most one
    assert [len(c) for c in simulate._chunks(100, 1)] == [25] * 4
    assert [len(c) for c in simulate._chunks(100, 2)] == [25] * 4
    for max_chunk in (1, 5, simulate._MAX_CHUNK):
        monkeypatch.setattr(simulate, "_MAX_CHUNK", max_chunk)
        for reps in (1, 2, 3, 7, 13, 20, 31, 32, 33, 64, 65, 100, 257):
            for workers in range(1, min(reps, 5) + 1):
                chunks = simulate._chunks(reps, workers)
                sizes = [len(c) for c in chunks]
                case = (max_chunk, reps, workers)
                assert len(chunks) % workers == 0, case
                assert max(sizes) - min(sizes) <= 1, case
                assert max(sizes) <= max_chunk, case
                assert len(chunks) == workers or reps > (len(chunks) - workers) * max_chunk, case
                assert [r for c in chunks for r in c] == list(range(reps)), case


def test_monte_carlo_reproducible():
    sc = Scenario(kind="weak", n=30, p=5, p_active=2)
    a = run_monte_carlo(sc, reps=8, seed=99)
    b = run_monte_carlo(sc, reps=8, seed=99)
    assert a.labels == b.labels == ("adjr2", "cp_aic", "bic", "cmc_0.9", "cmc_0.5", "cmc_0.1")
    assert a.rates == b.rates
    assert a.zero_fraction == b.zero_fraction
    assert a.regenerated == 0
    for label in a.labels:
        fir, far = a.rates[label]
        assert 0.0 <= fir <= 1.0 and 0.0 <= far <= 1.0
        assert 0.0 <= a.zero_fraction[label] <= 1.0


def test_pool_starts_at_most_reps_workers(monkeypatch):
    # every worker forks up front; count the starts
    started = []
    start = multiprocessing.Process.start

    def counted(proc):
        started.append(proc)
        start(proc)

    monkeypatch.setattr(multiprocessing.Process, "start", counted)
    sc = Scenario(kind="weak", n=20, p=4, p_active=2)
    pooled = run_monte_carlo(sc, reps=3, seed=4, threads=64)
    assert len(started) == 3
    assert pooled.rates == run_monte_carlo(sc, reps=3, seed=4, threads=1).rates
    run_monte_carlo(sc, reps=1, seed=4, threads=8)
    assert len(started) == 3


def test_monte_carlo_seed_changes_rates():
    sc = Scenario(kind="weak", n=25, p=5, p_active=2, sigma=2.0)
    a = run_monte_carlo(sc, reps=12, seed=1)
    b = run_monte_carlo(sc, reps=12, seed=2)
    assert any(a.rates[lab] != b.rates[lab] for lab in a.labels)


def test_monte_carlo_near_noiseless_is_perfect():
    # sigma well above the degenerate-fit floor but far below the signal
    sc = Scenario(kind="weak", n=50, p=5, p_active=2, sigma=1e-4)
    res = run_monte_carlo(sc, reps=2, seed=2)
    for label in res.labels:
        if label.startswith("cmc") or label == "bic":
            assert tuple(res.rates[label]) == (0.0, 0.0)
            assert res.zero_fraction[label] == 1.0
    # cross-check replication 0 by rebuilding its data stream directly
    rng = np.random.default_rng([2, 0])
    X = _gen_design(sc, rng)
    y = gen_response(X, sc, rng)
    report = cmc_select(Dataset(X=X, y=y), alpha=0.5)
    assert report.chosen == sc.truth


def test_monte_carlo_result_type():
    sc = Scenario(kind="weak", n=30, p=4, p_active=2)
    res = run_monte_carlo(sc, criteria=("bic",), alphas=(), reps=3, seed=5)
    assert isinstance(res, MonteCarloResult)
    assert res.labels == ("bic",)
    assert res.reps == 3 and res.seed == 5
    assert set(res.rates) == {"bic"}
