"""Shared test oracles and the acceptance-line reporter.

The oracles here are deliberately independent of the package's fitting
path: least squares is solved through the raw normal equations, and the
per-size search is a naive double loop, so agreement is evidence rather
than tautology.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

from cmcselect import Dataset


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
    """Brute-force per-size minimum RSS over all 2^p subsets."""
    best: dict[int, tuple[tuple[int, ...], float]] = {}
    for s in range(data.p + 1):
        for combo in itertools.combinations(range(data.p), s):
            _, rss = normal_eq_fit(data, combo)
            if s not in best or rss < best[s][1]:
                best[s] = (combo, rss)
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
