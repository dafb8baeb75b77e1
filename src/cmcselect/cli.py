"""Command-line surface: CSV ingestion, selection runs, table reproduction.

Three subcommands: `select` runs criteria on a dataset, `simulate` runs
one Monte Carlo scenario, `tables` reproduces the built-in experiment
grids.  Results go to stdout (table, json, or csv); diagnostics go to
stderr.  Exit codes: 0 success, 2 input problems, 3 numerical problems.
"""

from __future__ import annotations

import argparse
import csv as _csv
import dataclasses
import io
import json
import logging
import math
import os
import sys

from . import __version__
from .criteria import CRITERIA, SelectionReport, select_many
from .datasets import PROSTATE_ENV, PROSTATE_RESPONSE, _read_table, _read_text, load_prostate
from .errors import ConfigError, InputError, MissingResponseError, NumericalError, ParseError
from .linalg import Dataset, standardize
from .simulate import MonteCarloResult, Scenario, run_monte_carlo

# command-line spellings that are not CRITERIA names; labels_for refuses unknown ones
_CRITERION_ALIASES = {"cp": "cp_aic"}

_ALPHAS = (0.9, 0.5, 0.1)

# each built-in grid, one (row label, scenario, criteria, alphas) per row
_TABLES = {
    1: [
        (f"({n}, {p}, {pa})", Scenario("weak", n, p, pa), CRITERIA, _ALPHAS)
        for n, p, pa in [
            (20, 10, 5), (30, 10, 5), (40, 10, 5), (50, 10, 5),
            (40, 20, 10), (60, 20, 10), (80, 20, 10), (100, 20, 10),
            (60, 30, 15), (90, 30, 15), (120, 30, 15), (150, 30, 15),
        ]
    ],
    2: [
        (f"({n}, 20, 10) a={a:g}", Scenario("weak", n, 20, 10), ("cmc",), (a,))
        for n, a in [(40, 0.9), (60, 0.5), (100, 0.1)]
    ],
    3: [
        (f"({rho:g}, {n})", Scenario("correlated", n, 20, 10, rho=rho), CRITERIA, _ALPHAS)
        for rho, n in [
            (0.3, 40), (0.3, 60), (0.3, 100), (0.3, 200),
            (0.5, 40), (0.5, 60), (0.5, 100), (0.5, 200),
            (0.8, 40), (0.8, 60), (0.8, 100), (0.8, 200), (0.8, 400),
        ]
    ],
}


# ---------------------------------------------------------------- ingestion

def load_csv(path: str, response_name: str) -> Dataset:
    """Read a numeric, comma-separated, header-first file into a Dataset.

    The response column is pulled out by name; remaining columns become
    predictors in file order.  Any non-numeric, non-finite or missing
    cell is an error naming its 1-based row and column.
    """
    def pick(names: list[str]) -> list[int]:
        if response_name not in names:
            raise MissingResponseError(
                f"{path}: response column {response_name!r} not in header {names}"
            )
        ri = names.index(response_name)
        return [i for i in range(len(names)) if i != ri] + [ri]

    names, table = _read_table(path, _read_text(path)[1], ",", pick)
    names.remove(response_name)
    return Dataset(X=table[:, :-1], y=table[:, -1], names=tuple(names))


def read_candidate_list(path: str, names: tuple[str, ...]) -> list[list[int]]:
    """Parse a text file of comma-separated variable names, one model per line.

    Returns one list of column indices per model, as written: best_per_size
    canonicalizes them.
    """
    masks: list[list[int]] = []
    for ln, line in enumerate(_read_text(path)[1].splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        idx = []
        for token in line.split(","):
            token = token.strip()
            if token not in names:
                raise ParseError(f"{path}: line {ln}: unknown variable {token!r}", row=ln)
            idx.append(names.index(token))
        masks.append(idx)
    if not masks:
        raise ParseError(f"{path}: no candidate models found")
    return masks


# ------------------------------------------------------------- serialization

def to_canonical_json(obj) -> str:
    """Stable JSON: insertion-ordered keys, floats at 17 significant digits.

    Non-finite floats become the strings "inf"/"-inf"/"nan" (JSON has no
    literals for them).  Output re-serializes to the identical document.
    """
    out: list[str] = []
    _write_json(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _write_json(o, out: list[str], depth: int) -> None:
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
            # negative zero would re-parse as int 0 and break round-tripping
            out.append(format(o if o != 0.0 else 0.0, ".17g"))
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(o.items()):
            out.append(pad)
            out.append(json.dumps(str(k)))
            out.append(": ")
            _write_json(v, out, depth + 1)
            out.append(",\n" if i < len(o) - 1 else "\n")
        out.append("  " * depth + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(o):
            out.append(pad)
            _write_json(v, out, depth + 1)
            out.append(",\n" if i < len(o) - 1 else "\n")
        out.append("  " * depth + "]")
    else:
        raise TypeError(f"cannot serialize {type(o).__name__}")


def _round2(x: float) -> str:
    return format(x, ".2f")


def _rate_cell(pair) -> str:
    return f"({_round2(pair.fir)}, {_round2(pair.far)})"


# ------------------------------------------------------------------- select

def _parse_criteria(raw: str) -> list[str]:
    out = []
    for tok in raw.split(","):
        tok = tok.strip().lower()
        if not tok:
            continue
        label = _CRITERION_ALIASES.get(tok, tok)
        if label not in out:
            out.append(label)
    if not out:
        raise ConfigError("no criteria requested")
    return out


def _parse_alphas(raw: str) -> list[float]:
    try:
        alphas = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --alphas value: {raw!r}") from exc
    if not alphas:
        raise ConfigError("no alphas given")
    return alphas


def _parse_candidates(raw: str, names: tuple[str, ...]) -> list[list[int]] | None:
    if raw == "all":
        return None
    if raw.startswith("list:"):
        return read_candidate_list(raw[5:], names)
    raise ConfigError(
        f"bad --candidates value {raw!r}; expected all or list:<path>"
    )


def _report_dict(rep: SelectionReport, names: tuple[str, ...]) -> dict:
    coef = {"intercept": float(rep.fit.beta[0])}
    for i, nm in enumerate(names):
        coef[nm] = float(rep.fit.beta[i + 1])
    per_size = [
        {
            "size": s,
            "variables": [names[i] for i in rep.per_size.entries[s].mask],
            "rss": rep.per_size.entries[s].rss,
        }
        for s in rep.per_size.sizes()
    ]
    return {
        "criterion": rep.criterion,
        "alpha": rep.alpha,
        "chosen": [names[i] for i in rep.chosen],
        "size": len(rep.chosen),
        "coefficients": coef,
        "lambda": rep.lambda_,
        "kappa": rep.kappa,
        "scores": {str(s): rep.scores[s] for s in sorted(rep.scores)},
        "per_size": per_size,
    }


def _select_table(reports: list[SelectionReport], names: tuple[str, ...]) -> str:
    buf = io.StringIO()
    for rep in reports:
        head = rep.criterion if rep.alpha is None else f"{rep.criterion} (alpha={rep.alpha:g})"
        print(f"== {head} ==", file=buf)
        chosen = "+".join(names[i] for i in rep.chosen) or "(intercept only)"
        print(f"chosen ({len(rep.chosen)} of {len(names)}): {chosen}", file=buf)
        if rep.criterion == "cmc":
            print(f"lambda = {rep.lambda_:.6g}   kappa = {rep.kappa:.6g}", file=buf)
        print("coefficients:", file=buf)
        width = max(map(len, ("intercept", *names))) + 2
        print(f"  {'intercept':<{width}}{rep.fit.beta[0]: .4f}", file=buf)
        for i in rep.chosen:
            print(f"  {names[i]:<{width}}{rep.fit.beta[i + 1]: .4f}", file=buf)
        print("per-size best models:", file=buf)
        for s in rep.per_size.sizes():
            entry = rep.per_size.entries[s]
            label = "+".join(names[i] for i in entry.mask) or "-"
            print(f"  size {s:>2}: rss={entry.rss:.6g}  score={rep.scores[s]:.6g}  {label}", file=buf)
        print(file=buf)
    return buf.getvalue()


def _select_csv(reports: list[SelectionReport], names: tuple[str, ...]) -> str:
    buf = io.StringIO()
    w = _csv.writer(buf, lineterminator="\n")
    w.writerow(["criterion", "alpha", "name", "coefficient"])
    for rep in reports:
        alpha = "" if rep.alpha is None else format(rep.alpha, "g")
        w.writerow([rep.criterion, alpha, "intercept", repr(float(rep.fit.beta[0]))])
        for i in rep.chosen:
            w.writerow([rep.criterion, alpha, names[i], repr(float(rep.fit.beta[i + 1]))])
    return buf.getvalue()


def run_select(args: argparse.Namespace) -> str:
    """Run the requested criteria on one dataset and serialize the reports."""
    if args.data:
        if not args.response:
            raise ConfigError("--response is required with --data")
        data = load_csv(args.data, args.response)
        source = args.data
        response = args.response
    else:
        # no --data: fall back to the prostate fixture
        if args.response and args.response != PROSTATE_RESPONSE:
            raise ConfigError(
                f"the prostate fixture's response is {PROSTATE_RESPONSE!r}; "
                "pass --data for other datasets"
            )
        data = load_prostate()
        source = f"prostate fixture (${PROSTATE_ENV})"
        response = PROSTATE_RESPONSE
    if args.standardize:
        data = standardize(data)
    criteria = _parse_criteria(args.criteria)
    alphas = _parse_alphas(args.alphas)
    candidates = _parse_candidates(args.candidates, data.names)
    reports = select_many(data, criteria, alphas, candidates)
    if args.format == "json":
        meta = {
            "command": "select",
            "version": __version__,
            "data": source,
            "response": response,
            "n": data.n,
            "p": data.p,
            "standardize": bool(args.standardize),
            "criteria": criteria,
            "alphas": alphas,
            "candidates": args.candidates,
        }
        return to_canonical_json(
            {"meta": meta, "results": [_report_dict(r, data.names) for r in reports]}
        )
    if args.format == "csv":
        return _select_csv(reports, data.names)
    return _select_table(reports, data.names)


# --------------------------------------------------------- simulate / tables

def _scenario_dict(sc: Scenario) -> dict:
    return {**dataclasses.asdict(sc), "extension": sc.extension}


def _result_dict(res: MonteCarloResult) -> dict:
    return {
        "scenario": _scenario_dict(res.scenario),
        "seed": res.seed,
        "reps": res.reps,
        "rates": {
            lab: {
                "fir": res.rates[lab].fir,
                "far": res.rates[lab].far,
                "zero_fraction": res.zero_fraction[lab],
            }
            for lab in res.labels
        },
        "regenerated": res.regenerated,
    }


def _rates_csv(rows: list[tuple[str, MonteCarloResult]]) -> str:
    buf = io.StringIO()
    w = _csv.writer(buf, lineterminator="\n")
    w.writerow(
        ["scenario", "kind", "n", "p", "p_active", "rho",
         "criterion", "fir", "far", "zero_fraction"]
    )
    for label, res in rows:
        sc = res.scenario
        for lab in res.labels:
            w.writerow(
                [label, sc.kind, sc.n, sc.p, sc.p_active, format(sc.rho, "g"), lab,
                 repr(res.rates[lab].fir), repr(res.rates[lab].far),
                 repr(res.zero_fraction[lab])]
            )
    return buf.getvalue()


def _rates_table(rows: list[tuple[str, MonteCarloResult]]) -> str:
    labels = rows[0][1].labels
    uniform = all(res.labels == labels for _, res in rows)
    name_w = max(len("scenario"), *(len(r[0]) for r in rows)) + 2
    buf = io.StringIO()
    if uniform:
        cell_w = max(len("(0.00, 0.00)"), *(len(lab) for lab in labels)) + 2
        head = f"{'scenario':<{name_w}}" + "".join(f"{lab:<{cell_w}}" for lab in labels)
        print(head, file=buf)
        for label, res in rows:
            line = f"{label:<{name_w}}"
            line += "".join(f"{_rate_cell(res.rates[lab]):<{cell_w}}" for lab in res.labels)
            print(line, file=buf)
    else:
        # one criterion per row (the consistency-schedule layout)
        crit_w = max(len("criterion"), *(len(lab) for res in (r for _, r in rows) for lab in res.labels)) + 2
        print(f"{'scenario':<{name_w}}{'criterion':<{crit_w}}{'(fir, far)':<16}zero_fraction", file=buf)
        for label, res in rows:
            for lab in res.labels:
                cell = _rate_cell(res.rates[lab])
                print(
                    f"{label:<{name_w}}{lab:<{crit_w}}{cell:<16}{_round2(res.zero_fraction[lab])}",
                    file=buf,
                )
    return buf.getvalue()


def _serialize_runs(
    rows: list[tuple[str, MonteCarloResult]], meta: dict, fmt: str
) -> str:
    if fmt == "json":
        return to_canonical_json(
            {"meta": meta, "results": [_result_dict(res) for _, res in rows]}
        )
    if fmt == "csv":
        return _rates_csv(rows)
    return _rates_table(rows)


def run_simulate(args: argparse.Namespace) -> str:
    """Run one scenario and serialize its rate summary."""
    scenario = Scenario(
        kind=args.scenario,
        n=args.n,
        p=args.p,
        p_active=args.p_active,
        rho=args.rho,
        sigma=args.sigma,
    )
    criteria = _parse_criteria(args.criteria)
    alphas = _parse_alphas(args.alphas)
    res = run_monte_carlo(
        scenario, criteria, alphas, reps=args.reps, seed=args.seed, threads=args.threads
    )
    label = f"({scenario.n}, {scenario.p}, {scenario.p_active})"
    meta = {
        "command": "simulate",
        "version": __version__,
        "seed": args.seed,
        "reps": args.reps,
        "threads": args.threads,
        "criteria": criteria,
        "alphas": alphas,
        "labels": list(res.labels),
    }
    return _serialize_runs([(label, res)], meta, args.format)


def run_tables(args: argparse.Namespace) -> str:
    """Reproduce one built-in experiment grid at a configurable rep count."""
    rows = [
        (label, run_monte_carlo(sc, criteria, alphas, reps=args.reps, seed=args.seed + i,
                                threads=args.threads))
        for i, (label, sc, criteria, alphas) in enumerate(_TABLES[args.table])
    ]
    meta = {
        "command": "tables",
        "version": __version__,
        "table": args.table,
        "seed": args.seed,
        "reps": args.reps,
        "threads": args.threads,
    }
    return _serialize_runs(rows, meta, args.format)


# --------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmcselect",
        description="Best-subset variable selection via the constrained minimum criterion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("select", help="run selection criteria on a dataset")
    ps.add_argument("--data", help=f"CSV file; omit to use the prostate fixture (${PROSTATE_ENV})")
    ps.add_argument("--response", help="response column name (required with --data)")
    ps.add_argument("--criteria", default="cmc,bic,cp,adjr2",
                    help="comma list of cmc,bic,cp,adjr2 (default: all)")
    ps.add_argument("--alphas", default="0.9", help="comma list of cmc alpha levels (default 0.9)")
    ps.add_argument("--standardize", action="store_true",
                    help="standardize predictors (mean 0, sd 1, n-1 denominator)")
    ps.add_argument("--candidates", default="all", metavar="{all|list:<path>}",
                    help="candidate models (default all)")
    ps.add_argument("--format", choices=("table", "json", "csv"), default="table")

    def add_mc_flags(sp):
        sp.add_argument("--reps", type=int, default=100)
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="worker processes, at most one per rep (default: machine parallelism)")
        sp.add_argument("--format", choices=("table", "json", "csv"), default="table")

    pm = sub.add_parser("simulate", help="Monte Carlo rates for one scenario")
    pm.add_argument("--scenario", choices=("weak", "correlated"), default="weak",
                    help="correlated uses two groups of 5 columns: needs --p-active >= 5 "
                         "and --p minus --p-active >= 5")
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument("--p", type=int, required=True)
    pm.add_argument("--p-active", dest="p_active", type=int, required=True)
    pm.add_argument("--rho", type=float, default=0.0,
                    help="within-group correlation (correlated scenario only)")
    pm.add_argument("--sigma", type=float, default=1.0)
    pm.add_argument("--criteria", default="cmc,bic,cp,adjr2")
    pm.add_argument("--alphas", default="0.9,0.5,0.1")
    add_mc_flags(pm)

    pt = sub.add_parser("tables", help="reproduce a built-in experiment grid")
    pt.add_argument("--table", type=int, choices=(1, 2, 3), required=True)
    add_mc_flags(pt)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "select":
            out = run_select(args)
        elif args.command == "simulate":
            out = run_simulate(args)
        else:
            out = run_tables(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
