"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from outside the package: `patched` swaps every
module-level binding of a traced public function (the defining module
and each module that re-imported it by name) for a wrapper that opens a
span around the call, and swaps the originals back on exit.  numpy's
`linalg.solve` and `linalg.lstsq` are wrapped as counters that tick only
while `subsets.best_per_size` is the innermost open span, which makes
them stand-ins for search nodes visited and for collinear fallbacks.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name); the four public selectors share one name
SPAN_TARGETS = (
    ("cmcselect.subsets", "best_per_size", "subsets.best_per_size"),
    ("cmcselect.linalg", "fit_subset", "linalg.fit_subset"),
    ("cmcselect.criteria", "kappa", "criteria.kappa"),
    ("cmcselect.fdist", "f_cdf", "fdist.f_cdf"),
    ("cmcselect.criteria", "cmc_select", "criteria.select"),
    ("cmcselect.criteria", "bic_select", "criteria.select"),
    ("cmcselect.criteria", "cp_select", "criteria.select"),
    ("cmcselect.criteria", "adjr2_select", "criteria.select"),
    ("cmcselect.cli", "load_csv", "cli.load_csv"),
    ("cmcselect.cli", "to_canonical_json", "cli.to_canonical_json"),
    ("cmcselect.simulate", "run_monte_carlo", "simulate.run_monte_carlo"),
)

SEARCH_SPAN = "subsets.best_per_size"

# numpy calls counted while SEARCH_SPAN is innermost: (attribute, counter name)
NUMPY_COUNTERS = (
    ("solve", "subsets.np_solve_calls"),
    ("lstsq", "subsets.np_lstsq_calls"),
)

OP_SPAN = "op"


class Tracer:
    """Spans of a traced run, kept in memory until `write`.

    A span is [op id, name, parent index, start, end]; the parent is the
    index of the span that was innermost when it opened.  Every op opens
    one root span named OP_SPAN.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self._op, name, parent, time.perf_counter(), None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self):
        """Open the root span of one op; spans opened inside share its id."""
        self._op += 1
        idx = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(idx)

    def span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def counter_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][1] == SEARCH_SPAN:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict:
        """Per-name call count, total self seconds, and total op seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans of one process never overlap except by nesting.
        """
        child_time = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        op_s = 0.0
        for i, (_, name, _, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
            if name == OP_SPAN:
                op_s += end - start
        return {"ops": calls[OP_SPAN], "op_s": op_s, "calls": calls, "self_s": self_s,
                "counts": self.counts}

    def write(self, path: str) -> None:
        """One JSON object per span: op, name, parent index, start and end seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, parent, start, end in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")


def _package_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "cmcselect" or k.startswith("cmcselect."))]


@contextmanager
def patched(tracer: Tracer):
    """Route every traced function and counted numpy call through `tracer`."""
    import numpy.linalg

    swaps = []  # (namespace, attribute, original)
    try:
        for mod_name, attr, span in SPAN_TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = tracer.span_wrapper(span, original)
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        swaps.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for attr, counter in NUMPY_COUNTERS:
            original = getattr(numpy.linalg, attr)
            swaps.append((numpy.linalg, attr, original))
            setattr(numpy.linalg, attr, tracer.counter_wrapper(counter, original))
        yield tracer
    finally:
        for mod, key, original in reversed(swaps):
            setattr(mod, key, original)
