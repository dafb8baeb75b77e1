"""Record reference.json: each op's chosen masks (select) or rates (Monte Carlo) for the default seed.

Run from the repository root, with the code whose outputs are the reference:

    python3 perfbench/record_reference.py

Timed and traced runs with --seed 1 then compare ops 0..N-1 against it.
"""

from __future__ import annotations

import json
import os
import sys

import run  # pins the BLAS threads before numpy loads

# ops recorded per workload: more than a timed run completes today
RECORDED_OPS = {"select-corr-p14": 200, "mc-weak-p10-pool": 100}


def format_reference(reference: dict) -> str:
    """JSON with one line per op, so that a changed op shows as one changed line."""
    blocks = [f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(out)}" for out in outputs)
              + "\n ]" for name, outputs in reference.items()]
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    import workloads

    os.makedirs(run.OUT_DIR, exist_ok=True)
    reference = {}
    for name, n in RECORDED_OPS.items():
        wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, run.OUT_DIR, n)
        wl.setup()
        outputs = []
        for i in range(n):
            result = wl.op(i, wl.threads)
            errors = wl.check(i, result, None)
            if errors:
                print(f"{name} op {i}: {errors}", file=sys.stderr)
                return 1
            outputs.append(wl.record(result))
        reference[name] = outputs
        print(f"{name}: {n} ops recorded", file=sys.stderr)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_reference(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
