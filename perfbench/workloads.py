"""The benchmark's two workloads: inputs from a seed, one op, and its checks.

Each workload is a closed loop from one process: op i starts only after
op i-1 has returned.  Op i reads input i, which depends only on the
benchmark seed and i.

- select-corr-p14: `cmcselect select` on a factor-correlated CSV (n=80,
  p=14, rho=0.8, groups of 5), four criteria and three cmc alphas, JSON
  out.  The only path that searches one dataset six times and runs CSV
  ingest and JSON serialization.  At p=20 an op takes 1-3 s, so a run
  sees too few datasets to be steady across seeds; p=14 takes 0.2 s.
- mc-weak-p10-pool: 100 replicates at (50, 10, 5) in a fresh two-worker
  process pool per op, as `cmcselect tables` does per row.  Thousands of
  tiny searches, so per-call overhead (refits, kappa, dispatch) shows.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from cmcselect import simulate
from cmcselect.cli import main as cli_main
from cmcselect.cli import to_canonical_json
from cmcselect.simulate import Scenario, gen_correlated_design, gen_response

# seed whose chosen masks and rates are compared with reference.json
DEFAULT_SEED = 1

# per-size RSS of the QR refits may rise with size by rounding only
RSS_RTOL = 1e-9

_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def op_seed(seed: int, i: int) -> int:
    """Seed handed to the program for op i."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


class SelectCorrP14:
    name = "select-corr-p14"
    reps_per_op = 1
    threads = None  # the select command has no worker pool
    scenario = Scenario("correlated", n=80, p=14, p_active=7, rho=0.8, group_size=5)
    alphas = (0.9, 0.5, 0.1)
    # (criterion, alpha) of each result, in the order the command reports them
    expected = [("cmc", a) for a in alphas] + [("bic", None), ("cp_aic", None), ("adjr2", None)]

    def __init__(self, seed: int, workdir: str, n_inputs: int) -> None:
        self.seed = seed
        self.dir = os.path.join(workdir, self.name)
        self.n_inputs = n_inputs
        self.names = [f"x{j + 1}" for j in range(self.scenario.p)]

    def setup(self) -> None:
        """Write one CSV per op; ops past n_inputs reuse them in order."""
        os.makedirs(self.dir, exist_ok=True)
        header = ",".join(self.names + ["y"]) + "\n"
        for i in range(self.n_inputs):
            rng = np.random.default_rng(op_seed(self.seed, i))
            X = gen_correlated_design(self.scenario, rng)
            y = gen_response(X, self.scenario, rng)
            rows = np.column_stack([X, y])
            with open(self._path(i), "w", encoding="utf-8") as fh:
                fh.write(header)
                fh.writelines(",".join(map(repr, row.tolist())) + "\n" for row in rows)

    def _path(self, i: int) -> str:
        return os.path.join(self.dir, f"d{i % self.n_inputs:04d}.csv")

    def op(self, i: int, threads: int | None = None):
        argv = ["select", "--data", self._path(i), "--response", "y",
                "--criteria", "cmc,bic,cp,adjr2", "--alphas", ",".join(map(str, self.alphas)),
                "--format", "json"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        return code, buf.getvalue()

    def check(self, i: int, result, reference) -> list[str]:
        code, out = result
        if code != 0:
            return [f"exit code {code}"]
        doc = json.loads(out)
        errors = []
        if to_canonical_json(doc) != out:
            errors.append("JSON does not re-serialize byte for byte")
        meta, results = doc["meta"], doc["results"]
        if (meta["n"], meta["p"]) != (self.scenario.n, self.scenario.p):
            errors.append(f"meta shape {(meta['n'], meta['p'])}")
        got = [(r["criterion"], r["alpha"]) for r in results]
        if got != self.expected:
            return errors + [f"results {got}"]
        for r in results:
            tag = f"{r['criterion']}@{r['alpha']}"
            rss = [e["rss"] for e in r["per_size"]]
            if any(b > a + RSS_RTOL * a for a, b in zip(rss, rss[1:])):
                errors.append(f"{tag}: per-size RSS increases with size")
            if r["size"] != len(r["chosen"]):
                errors.append(f"{tag}: size {r['size']} != {len(r['chosen'])} chosen")
            if r["criterion"] == "cmc":
                lam, kap, size = r["lambda"], r["kappa"], r["size"]
                if not lam <= kap:
                    errors.append(f"{tag}: lambda {lam} > kappa {kap}")
                if r["scores"][str(size)] != lam:
                    errors.append(f"{tag}: lambda is not the chosen size's score")
                smaller = [s for s in r["scores"] if int(s) < size]
                if any(not r["scores"][s] > kap for s in smaller):
                    errors.append(f"{tag}: a smaller size is already feasible")
        if reference is not None and i % self.n_inputs < len(reference):
            want = reference[i % self.n_inputs]
            if [r["chosen"] for r in results] != want:
                errors.append(f"chosen masks differ from reference: {want}")
        return errors

    def record(self, result):
        return [r["chosen"] for r in json.loads(result[1])["results"]]


class McWeakP10Pool:
    """One op is one run_monte_carlo call on the op's own seed; set-up has nothing to write."""

    name = "mc-weak-p10-pool"
    scenario = Scenario("weak", n=50, p=10, p_active=5)
    reps_per_op = 100
    threads = 2
    labels = ("adjr2", "cp_aic", "bic", "cmc_0.9", "cmc_0.5", "cmc_0.1")

    def __init__(self, seed: int, workdir: str, n_inputs: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        pass

    def op(self, i: int, threads: int):
        # looked up on the module so that a traced run sees the call
        return simulate.run_monte_carlo(self.scenario, reps=self.reps_per_op,
                                        seed=op_seed(self.seed, i), threads=threads)

    def check(self, i: int, res, reference) -> list[str]:
        errors = []
        if res.labels != self.labels or res.reps != self.reps_per_op:
            return [f"labels {res.labels}, reps {res.reps}"]
        for lab in res.labels:
            values = (res.rates[lab].fir, res.rates[lab].far, res.zero_fraction[lab])
            if not all(0.0 <= v <= 1.0 for v in values):
                errors.append(f"{lab}: rate outside [0, 1]: {values}")
        if reference is not None and i < len(reference):
            want = reference[i]
            if self.record(res) != want:
                errors.append(f"rates differ from reference: {want}")
        return errors

    def record(self, res):
        return {lab: [res.rates[lab].fir, res.rates[lab].far] for lab in res.labels}


WORKLOADS = {w.name: w for w in (SelectCorrP14, McWeakP10Pool)}


def load_reference(name: str, seed: int):
    """Recorded per-op outputs for the default seed, or None for any other seed."""
    if seed != DEFAULT_SEED:
        return None
    with open(_REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[name]
