"""Shared test oracles and the acceptance-line reporter.

The oracles here are deliberately independent of the package's fitting
path: least squares is solved through the raw normal equations, and the
per-size search QR-factors every subset's design on its own, with no
Gram matrix, no centering and no pruning, so agreement is evidence
rather than tautology.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

from cmcselect import Dataset
from cmcselect.linalg import RANK_TOL


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
