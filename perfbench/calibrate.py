#!/usr/bin/env python3
"""Recompute references.json: the target F* and reference outputs.

    python3 perfbench/calibrate.py > perfbench/references.json

Runs each workload once on its unpermuted instance. F* is, for ONMF, the
objective plain ``bmm`` reaches after the full sweep budget and, for
completion, the objective at half the step budget; it is rounded up to seven
significant digits so that rounding-level changes to the iterates cannot move
the sweep at which it is first reached. Only rerun this when a change is
meant to alter the iterates, and say so with the change.
"""

import dataclasses
import json
import math
import sys
from decimal import ROUND_CEILING, Decimal

import run

# Allowed relative deviation from each reference. Permuting rows and columns
# moves the final objective by about 1e-12 relative; accuracy moves in steps
# of 1/n columns.
RTOL = {"final_objective": 1e-6, "accuracy": 0.01, "rmse_test": 1e-4}


def round_up(x, digits=7):
    exponent = math.floor(math.log10(abs(x))) - digits + 1
    return float(Decimal(x).quantize(Decimal(1).scaleb(exponent),
                                     rounding=ROUND_CEILING))


def reference(wl, w):
    inst, _ = w.setup(None)
    out = wl.solve(w, inst, math.inf)
    if w.kind == "onmf":
        plain = dataclasses.replace(w, algorithm="bmm")
        target = wl.solve(plain, inst, math.inf).final_objective
    else:
        half = dataclasses.replace(w, steps=w.steps // 2)
        target = wl.solve(half, inst, math.inf).final_objective
    values = {"final_objective": out.final_objective, **out.quality}
    return {
        "target_objective": round_up(target),
        "checks": {k: {"value": v, "rtol": RTOL[k]} for k, v in values.items()},
    }


def main():
    run.import_package()
    import workloads as wl
    refs = {name: reference(wl, w) for name, w in wl.WORKLOADS.items()}
    json.dump(refs, sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
