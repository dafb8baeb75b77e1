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
from hypothesis import given, settings
from hypothesis import strategies as st

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
    subsets,
)
from cmcselect.simulate import _gen_design, _rho_to_w, gen_correlated_design, gen_response
from conftest import ORDINARY, STRESS, spy_calls


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


def record_searches(monkeypatch) -> list:
    """Route _run_chunk's stacked searches through a recorder; returns the list of their _Fits."""
    fits: list = []
    search = simulate._search

    def recorded(A, caps):
        fits.append(search(A, caps))
        return fits[-1]

    monkeypatch.setattr(simulate, "_search", recorded)
    return fits


def test_a_chunk_makes_one_small_qr_per_size_and_no_beta_solve(monkeypatch):
    # a 25-rep (50, 10, 5) chunk factors its datasets' [1 | X | y] with one
    # batched QR, fits each size its caps keep with at most one stacked small
    # QR across the chunk, and solves no coefficients: no FitSummary, no report
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
    searched = record_searches(monkeypatch)
    monkeypatch.setattr(np.linalg, "qr", spy_qr)
    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    sc = Scenario("weak", 50, 10, 5)
    rows = simulate._run_chunk((sc, CRITERIA, (0.9, 0.5, 0.1), 1, range(25)))
    monkeypatch.undo()
    assert sorted(row[0] for row in rows) == list(range(25))
    (fits,) = searched
    # size 0 is the mean fit and size p the full mask, which every rep fits
    kept = (fits.keys >= 0).sum(axis=0).tolist()
    assert kept[sc.p] == 25 and sum(kept[1:sc.p]) < 25 * (sc.p - 1)
    assert qr_shapes == [(25, 50, 12)] + [(k, 12, s + 2) for s, k in enumerate(kept) if s and k]
    assert solves == summaries == built == []


def test_a_chunk_reads_no_table_and_scores_every_rep_in_one_pass(monkeypatch):
    # a 25-rep (50, 10, 5) chunk draws its reps into one stack for one
    # stacked search, builds no Dataset and no per-size table, and one pass
    # of the selection rules scores all 25 reps, not one pass per rep
    searched = record_searches(monkeypatch)
    tables = spy_calls(monkeypatch, subsets.best_per_size)
    datasets = []
    post_init = cmcselect.linalg.Dataset.__post_init__

    def counted(self):
        datasets.append(self)
        post_init(self)

    monkeypatch.setattr(cmcselect.linalg.Dataset, "__post_init__", counted)
    passes = spy_calls(monkeypatch, criteria._decisions)
    sc = Scenario("weak", 50, 10, 5)
    rows = simulate._run_chunk((sc, CRITERIA, (0.9, 0.5, 0.1), 1, range(25)))
    monkeypatch.undo()
    assert sorted(row[0] for row in rows) == list(range(25))
    assert [f.rss.shape for f in searched] == [(25, 11)]
    assert tables == datasets == []
    assert len(passes) == 1 and passes[0][0].shape == (25, 11)


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
    # at an intercept of 1e10 and noise of 1e-4 the centering's own rounding
    # is far above the noise; a chunk's reps still choose what select_many
    # chooses on each rep alone, fitted from the same R factor
    sc = Scenario(kind="weak", n=50, p=10, p_active=5, sigma=1e-4, beta0=1e10)
    rows = record_rows(monkeypatch)
    run_monte_carlo(sc, reps=40, seed=1)
    assert sorted(row[0] for row in rows) == list(range(40))
    for rep, firs, fars, _ in rows:
        assert (firs, fars) == _select_many_rates(sc, 1, rep), rep


def test_a_large_intercept_searches_again_uncapped(monkeypatch):
    # the large-intercept refits stray far from the sweep's RSS, on which the
    # caps pruned, so the chunk searches its reps again, uncapped (a search
    # called with no caps), and still chooses what select_many chooses
    searches = spy_calls(monkeypatch, subsets._leaps_and_bounds)
    rows = record_rows(monkeypatch)
    sc = Scenario(kind="weak", n=50, p=10, p_active=5, sigma=1e-4, beta0=1e10)
    run_monte_carlo(sc, reps=12, seed=1)
    assert [len(args) for args in searches] == [3, 2]
    assert len(searches[1][0]) > 0
    for rep, firs, fars, _ in rows:
        assert (firs, fars) == _select_many_rates(sc, 1, rep), rep


def test_tiny_noise_is_searched_once(monkeypatch):
    # the caps' slack in TSS units covers the sweep's rounding against the
    # refits, both of the one centered stack, so a chunk whose RSS lie far
    # below its TSS searches each rep once, capped, and gets the rows of the
    # same chunk searched with no caps
    args = (Scenario("weak", n=60, p=20, p_active=10, sigma=1e-4), CRITERIA, (0.9, 0.5, 0.1), 1, range(25))
    searches = spy_calls(monkeypatch, subsets._leaps_and_bounds)
    capped = simulate._run_chunk(args)
    assert [len(call) for call in searches] == [3]
    monkeypatch.setattr(simulate, "_caps", lambda *request: None)
    assert capped == simulate._run_chunk(args)


def test_the_tables_never_search_uncapped(monkeypatch):
    # the refits of the paper's designs stay within _CAP_DRIFT of the sweep,
    # so no Table 1-3 row at seed 1 searches a rep twice
    searches = spy_calls(monkeypatch, subsets._leaps_and_bounds)
    for table in (1, 2, 3):
        for i, (label, sc, crits, alphas) in enumerate(cli._TABLES[table]):
            searches.clear()
            run_monte_carlo(sc, crits, alphas, reps=25, seed=1 + i)
            assert [len(args) for args in searches] == [3], (table, label)


def _outcome(args):
    """A chunk's rows, or the type and message of what it raised."""
    try:
        return simulate._run_chunk(args)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(data=st.data())
def test_capped_chunks_give_the_uncapped_rows_property(data):
    # every rep's FIR and FAR for every criterion and alpha are those of the
    # same chunk searched with no caps, on weak and correlated designs up to
    # rho = 0.999999, large intercepts, rescaled columns and exactly
    # duplicated columns (a collinear full design, which is redrawn)
    p = data.draw(st.integers(2, 9), label="p")
    p_active = data.draw(st.integers(1, p - 1), label="p_active")
    n = data.draw(st.integers(p + 2, 4 * p + 10), label="n")
    shape = dict(n=n, p=p, p_active=p_active,
                 sigma=data.draw(st.sampled_from([1.0, 0.1, 1e-3]), label="sigma"),
                 beta0=data.draw(st.sampled_from([1.0, 1e4, 1e10]), label="beta0"))
    if data.draw(st.booleans(), label="correlated"):
        sc = Scenario("correlated", rho=data.draw(st.sampled_from([0.3, 0.9, 0.999, 0.999999]), label="rho"),
                      group_size=data.draw(st.integers(1, min(p_active, p - p_active)), label="group"), **shape)
    else:
        sc = Scenario("weak", **shape)
    scales = 10.0 ** np.array(data.draw(st.lists(st.sampled_from([-3, 0, 0, 3]), min_size=p, max_size=p),
                                        label="log10 column scales"))
    twins = data.draw(st.permutations(range(p)), label="twin columns")[:2]
    duplicate = data.draw(st.booleans(), label="duplicate a column")
    alphas = tuple(data.draw(st.lists(st.sampled_from([0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0]),
                                      min_size=1, max_size=4, unique=True), label="alphas"))
    args = (sc, CRITERIA, alphas, data.draw(st.integers(0, 2**16), label="seed"),
            range(data.draw(st.integers(1, 8), label="reps")))
    draw = simulate._gen_design

    def gen(scenario, rng):
        X = draw(scenario, rng) * scales
        # half the draws copy one column onto another
        if duplicate and rng.random() < 0.5:
            X[:, twins[1]] = X[:, twins[0]]
        return X

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_gen_design", gen)
        capped = _outcome(args)
        mp.setattr(simulate, "_caps", lambda *request: None)
        assert capped == _outcome(args)


def test_pool_workers_start_with_numpy_random_imported():
    # importing the package leaves numpy.random unimported; run_monte_carlo
    # imports it before its pool forks, so a worker's first chunk finds it.
    # The parent runs chunks too: a slow one leaves the worker chunks to take,
    # and the worker counts the chunks it checked
    script = """if True:
        import multiprocessing, os, sys, time
        import cmcselect
        from cmcselect import Scenario, run_monte_carlo, simulate
        assert "numpy.random" not in sys.modules
        parent = os.getpid()
        checked = multiprocessing.Value("i", 0)
        run_chunk = simulate._run_chunk

        def probe(args):
            if os.getpid() == parent:
                time.sleep(0.2)
            else:
                if "numpy.random" not in sys.modules:
                    raise RuntimeError("a worker imported numpy.random itself")
                with checked.get_lock():
                    checked.value += 1
            return run_chunk(args)

        simulate._run_chunk = probe
        simulate._MAX_CHUNK = 1
        run_monte_carlo(Scenario("weak", 30, 4, 2), reps=16, threads=2)
        print(checked.value > 0)
    """
    assert run_fresh(script) == "True\n"


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
    # a worker that exits without a word fails the run once the parent's
    # chunk is done; the alarm turns a hang into an error
    parent = os.getpid()
    run_chunk = simulate._run_chunk

    def dies(args):
        if os.getpid() != parent:
            os._exit(7)
        # the parent runs chunks too; a slow one leaves the worker chunks to take
        time.sleep(0.2)
        return run_chunk(args)

    def hung(signum, frame):
        raise TimeoutError("run_monte_carlo hung on a dead worker")

    monkeypatch.setattr(simulate, "_run_chunk", dies)
    monkeypatch.setattr(simulate, "_MAX_CHUNK", 1)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="exited with code 7"):
            run_monte_carlo(Scenario(kind="weak", n=20, p=4, p_active=2), reps=16, threads=2)
        assert time.monotonic() - start < 1.0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_an_error_in_the_parents_own_chunk_stops_the_pool(monkeypatch):
    # the parent runs chunks too; what its own chunk raises reaches the caller
    # with its type, and the autouse fixture checks that no worker outlives it
    parent = os.getpid()
    run_chunk = simulate._run_chunk

    def fails_in_the_parent(args):
        if os.getpid() == parent:
            raise LookupError("the parent's chunk failed")
        # a slow worker leaves the parent chunks to take
        time.sleep(0.05)
        return run_chunk(args)

    monkeypatch.setattr(simulate, "_run_chunk", fails_in_the_parent)
    monkeypatch.setattr(simulate, "_MAX_CHUNK", 1)
    with pytest.raises(LookupError, match="the parent's chunk failed"):
        run_monte_carlo(Scenario(kind="weak", n=20, p=4, p_active=2), reps=16, threads=2)


def test_an_error_in_a_workers_chunk_reaches_the_caller_with_its_type(monkeypatch):
    # the mirror image of the test above: only the forked worker's chunks
    # raise, so the error crosses the worker's pipe and the parent raises it
    # with its own type; the autouse fixture checks that no worker outlives it
    parent = os.getpid()
    run_chunk = simulate._run_chunk

    def fails_in_a_worker(args):
        if os.getpid() != parent:
            raise LookupError("a worker's chunk failed")
        # a slow parent leaves the worker chunks to take
        time.sleep(0.05)
        return run_chunk(args)

    monkeypatch.setattr(simulate, "_run_chunk", fails_in_a_worker)
    monkeypatch.setattr(simulate, "_MAX_CHUNK", 1)
    with pytest.raises(LookupError, match="a worker's chunk failed"):
        run_monte_carlo(Scenario(kind="weak", n=20, p=4, p_active=2), reps=16, threads=2)


def test_a_worker_is_not_starved_while_the_parent_computes(monkeypatch):
    # four of these rows fill a 64 KB pipe; the parent reads the pipes after
    # each chunk of its own, so the worker runs on while the parent computes
    # and does most of the chunks; unread, it blocks after about four rows
    # and leaves the parent nearly all 40
    parent = os.getpid()

    def slow_in_the_parent(args):
        if os.getpid() == parent:
            time.sleep(0.05)
        return [(os.getpid(), bytes(16384))]

    monkeypatch.setattr(simulate, "_run_chunk", slow_in_the_parent)
    pids = [pid for rows in simulate._pooled(range(40), 2) for pid, _ in rows]
    assert len(pids) == 40
    assert pids.count(parent) < 20


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap behaviour")
def test_a_search_after_a_lockstep_search_does_not_fault_in_its_heap_again():
    # a lockstep search frees its block arrays as subtrees finish; if glibc
    # hands those pages back to the kernel, the next chunk faults them in
    # again: 12-27k minor faults on a 2-core x86 host with numpy 2.4 and
    # glibc trimming, against about 1k when the heap is kept
    script = """if True:
        import resource
        from cmcselect import CRITERIA, Scenario, simulate

        def chunk(shape, reps):
            simulate._run_chunk((Scenario("weak", *shape), CRITERIA, (0.9, 0.5, 0.1), 1, range(reps)))

        chunk((60, 20, 10), 30)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        chunk((52, 26, 13), 16)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
    assert int(run_fresh(script)) < 5000


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
    # every worker forks up front and the parent is one of them; count the starts
    started = []
    start = multiprocessing.Process.start

    def counted(proc):
        started.append(proc)
        start(proc)

    monkeypatch.setattr(multiprocessing.Process, "start", counted)
    sc = Scenario(kind="weak", n=20, p=4, p_active=2)
    pooled = run_monte_carlo(sc, reps=3, seed=4, threads=64)
    assert len(started) == 2
    assert pooled.rates == run_monte_carlo(sc, reps=3, seed=4, threads=1).rates
    run_monte_carlo(sc, reps=1, seed=4, threads=8)
    assert len(started) == 2


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
