#!/usr/bin/env python3
"""Bit-identity fingerprints of the benchmark workloads.

    python3 tools/fingerprint.py [--workload W ...] [--seeds 3 11]

Run from the root of a source checkout; the package is imported from
``src/`` there, and the workloads from ``perfbench/workloads.py``, which is
read as it stands. Each workload (all by default) is set up and solved once
per seed, untimed, with BLAS on one thread as in the benchmark. For each it
prints one line: the workload, the seed, one SHA-256, ``final_objective``
and the workload's quality measure (``accuracy`` or ``rmse_test``).

The hash covers, in order, every trace record's objective, per-block beta
and shrinks, descent slack, sum of L * D and line-search sides; every
certificate's (L, l, beta); and the final iterates' bytes, dtype, shape and
strides. Floats enter through ``repr``, which round-trips float64, so any
change in any bit of any of them changes the hash. Hashes depend on the
BLAS build and the CPU, so none is stored: run this at two commits in the
same environment and compare the lines.

A later benchmark change can fold this script into ``perfbench/run.py`` as
a ``--fingerprint`` mode (ROADMAP item 14).
"""

import argparse
import hashlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = (3, 11)


def load_workloads():
    """Import ``perfbench/workloads.py`` with this checkout's package.

    Importing ``perfbench/run.py`` first sets one BLAS thread, before numpy
    loads, and its ``import_package`` puts ``src/`` first on the path.
    """
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import run
    run.import_package()
    import workloads
    return workloads


def run_hash(res):
    """SHA-256 of a ``RunResult``'s trace, certificates and final iterates."""
    h = hashlib.sha256()
    for rec in res.trace.records:
        h.update(repr((rec.objective, rec.per_block_beta,
                       rec.per_block_shrinks, rec.descent_slack,
                       rec.sum_block_divergence,
                       rec.per_block_line_search)).encode())
    for c in res.state.certificates:
        h.update(repr((c.L, c.l, c.beta)).encode())
    for x in res.final:
        h.update(repr((x.dtype.str, x.shape, x.strides)).encode())
        h.update(x.tobytes(order="A"))
    return h.hexdigest()


def fingerprint(workload, seed):
    """(hash, final objective, quality dict) of one untimed solve."""
    inst, _ = workload.setup(seed)
    res = workload.call(inst.problem, inst.init, inst.objective)
    return (run_hash(res), res.trace.records[-1].objective,
            workload.quality(inst, res))


def line(name, seed, result):
    digest, objective, quality = result
    extra = " ".join(f"{k} {v!r}" for k, v in quality.items())
    return f"{name} seed {seed} {digest} final_objective {objective!r} {extra}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    help="workload name (repeatable; default: all)")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True  # a run writes nothing into the checkout
    wl = load_workloads()
    names = args.workload or list(wl.WORKLOADS)
    unknown = sorted(set(names) - set(wl.WORKLOADS))
    if unknown:
        ap.error(f"unknown workload(s) {', '.join(unknown)}; choose from "
                 f"{', '.join(wl.WORKLOADS)}")
    for name in names:
        for seed in args.seeds:
            print(line(name, seed, fingerprint(wl.WORKLOADS[name], seed)),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
