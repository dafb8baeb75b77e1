"""Shared test oracles and the acceptance-line reporter.

The oracles here are deliberately independent of the package's fitting
path: least squares is solved through the raw normal equations, and the
per-size search QR-factors every subset's design on its own, with no
Gram matrix, no centering and no pruning, so agreement is evidence
rather than tautology.  The canonical-JSON oracle writes every container
it meets, with no memo, so it checks the package writer's reuse of
repeated containers.  An autouse fixture checks that no pool worker
outlives the test that started it.
"""

from __future__ import annotations

import itertools
import json
import math
import multiprocessing
import sys

import numpy as np
import pytest

from cmcselect import Dataset, Scenario
from cmcselect.linalg import RANK_TOL


@pytest.fixture(autouse=True)
def no_worker_outlives_its_test():
    yield
    assert multiprocessing.active_children() == []


def normal_eq_fit(data: Dataset, mask) -> tuple[np.ndarray, float]:
    """Independent least-squares oracle: solve A'A c = A'y directly."""
    mask = tuple(sorted(mask))
    A = np.column_stack([np.ones(data.n)] + [data.X[:, i] for i in mask])
    coef = np.linalg.solve(A.T @ A, A.T @ data.y)
    resid = data.y - A @ coef
    beta = np.zeros(data.p + 1)
    beta[0] = coef[0]
    for j, i in enumerate(mask):
        beta[i + 1] = coef[j + 1]
    return beta, float(resid @ resid)


def naive_best_per_size(data: Dataset) -> dict[int, tuple[tuple[int, ...], float]]:
    """Per-size minimum RSS over all 2^p subsets, one batched Householder QR per size.

    Each subset's stacked design [1 | X_S | y] is factored whole, so its RSS
    is R[-1, -1]**2.  A subset whose R diagonal fails fit_subset's RANK_TOL
    ratio test is collinear and left out.  Subsets come in lexicographic
    order and ties go to the first strict minimum.
    """
    best: dict[int, tuple[tuple[int, ...], float]] = {}
    for s in range(data.p + 1):
        combos = np.array(list(itertools.combinations(range(data.p), s)), dtype=np.intp)
        A = np.empty((len(combos), data.n, s + 2))
        A[:, :, 0] = 1.0
        A[:, :, 1:-1] = data.X[:, combos].transpose(1, 0, 2)
        A[:, :, -1] = data.y
        R = np.linalg.qr(A, mode="r")
        diag = np.abs(np.diagonal(R, axis1=1, axis2=2)[:, :-1])
        full_rank = diag.min(axis=1) > RANK_TOL * diag.max(axis=1)
        rss = np.where(full_rank, R[:, -1, -1] ** 2, np.inf)
        k = int(np.argmin(rss))
        if np.isfinite(rss[k]):
            best[s] = (tuple(combos[k].tolist()), float(rss[k]))
    return best


def naive_canonical_json(obj) -> str:
    """Canonical-JSON oracle: one recursive pass that writes every container it meets.

    No memo and no exact-type dispatch: the isinstance order None, bool,
    str, int, float, dict, list/tuple.  Keys are str(k); non-finite floats
    are the strings "inf"/"-inf"/"nan"; other floats print at 17
    significant digits, with -0.0 as 0.
    """
    out: list[str] = []

    def write(o, depth: int) -> None:
        pad = "  " * (depth + 1)
        if o is None:
            out.append("null")
        elif o is True or o is False:
            out.append("true" if o else "false")
        elif isinstance(o, str):
            out.append(json.dumps(o))
        elif isinstance(o, int):
            out.append(str(o))
        elif isinstance(o, float):
            if math.isnan(o):
                out.append('"nan"')
            elif math.isinf(o):
                out.append('"inf"' if o > 0 else '"-inf"')
            else:
                out.append(format(o if o != 0.0 else 0.0, ".17g"))
        elif isinstance(o, dict):
            if not o:
                out.append("{}")
                return
            out.append("{\n")
            for i, (k, v) in enumerate(o.items()):
                out.append(pad + json.dumps(str(k)) + ": ")
                write(v, depth + 1)
                out.append(",\n" if i < len(o) - 1 else "\n")
            out.append("  " * depth + "}")
        elif isinstance(o, (list, tuple)):
            if not o:
                out.append("[]")
                return
            out.append("[\n")
            for i, v in enumerate(o):
                out.append(pad)
                write(v, depth + 1)
                out.append(",\n" if i < len(o) - 1 else "\n")
            out.append("  " * depth + "]")
        else:
            raise TypeError(f"cannot serialize {type(o).__name__}")

    write(obj, 0)
    return "".join(out) + "\n"


# scenarios hardest on the search and the fits: near-collinear groups, a
# response almost free of noise (sigma 1e-6 with a signal small enough for
# the full fit to stay above DEGENERATE_TOL), a large intercept and a large
# signal
STRESS = (
    Scenario("correlated", n=80, p=14, p_active=7, rho=0.99),
    Scenario("correlated", n=80, p=14, p_active=7, rho=0.999),
    Scenario("weak", n=60, p=20, p_active=10, sigma=1e-4),
    Scenario("weak", n=50, p=10, p_active=1, sigma=1e-6, active_value=0.5),
    Scenario("weak", n=50, p=10, p_active=5, beta0=1e6),
    Scenario("weak", n=50, p=10, p_active=5, active_value=1e3),
)
# the benchmark's shape and two Table 1 shapes
ORDINARY = (
    Scenario("weak", n=50, p=10, p_active=5),
    Scenario("weak", n=20, p=10, p_active=5),
    Scenario("weak", n=60, p=20, p_active=10),
)


def random_dataset(rng: np.random.Generator, n: int, p: int, sigma: float = 1.0) -> Dataset:
    X = rng.standard_normal((n, p))
    k = max(1, p // 2)
    y = 0.5 + X[:, :k].sum(axis=1) + sigma * rng.standard_normal(n)
    return Dataset(X=X, y=y)


def spy_calls(monkeypatch, original) -> list:
    """Route every package-level binding of `original` through a recorder; returns its call list."""
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "cmcselect" or name.startswith("cmcselect."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


_ACCEPTANCE_PREFIX = "tests/test_acceptance.py"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One visible pass/fail line per acceptance criterion."""
    lines = []
    for outcome in ("passed", "failed", "skipped"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if _ACCEPTANCE_PREFIX in nodeid and rep.when in ("call", "setup"):
                name = nodeid.split("::")[-1]
                lines.append((name, outcome.upper()))
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in sorted(lines):
        terminalreporter.write_line(f"{outcome:7s} {name}")
