#!/usr/bin/env python3
"""Run one benchmark workload of the bmme solvers and print its metrics.

    python3 perfbench/run.py --workload onmf-large --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there, never from an installed copy. One process, one solve at a
time (a closed loop with a single caller). ``--trace 0`` prints the
end-to-end metrics, with times scaled by a host speed probe (see
hostspeed.py); ``--trace 1`` runs untraced and traced solves in turn and
prints the per-layer metrics. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for what each metric means.
"""

import os

# One BLAS thread, fixed before numpy loads. On a 2-CPU x86_64 VM, 100 ONMF
# 1000x2000 sweeps took 1.46-2.04 s with two OpenBLAS threads against
# 1.85-1.99 s with one, and the final objective changed in its last digits.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402

sys.dont_write_bytecode = True  # a run writes nothing into the checkout

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import Probe, Scaler  # noqa: E402
from spans import Spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_SOLVES = 3        # timed solves per run, whatever --seconds allows
MIN_SETUPS = 5
SETUP_SHARE = 0.1     # set-up timing budget, as a share of --seconds
MAX_SETUPS = 1000
MAX_FAILURES = 3      # stop a run early once this many solves have failed
COVERAGE_TOL = 0.05   # spans plus solver self time must cover solve_s this well

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "time_to_target_s": "s",
    "final_objective": "objective",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "solver.block_update_s": "s",
    "solver.outside_update_s": "s",
    "solver.self_s": "s",
    "solver.extrapolation_s": "s",
    "solver.beta_shrinks": "count",
    "solver.beta_accept_ratio": "ratio",
    "solver.beta_candidates_per_step": "count/step",
    "solver.upper_tries_per_step": "count/step",
    "bregman.divergence_calls": "count",
    "bregman.divergence_s": "s",
    "onmf.spectral_norm_calls": "count",
    "onmf.spectral_norm_s": "s",
    "onmf.constants_s": "s",
    "onmf.kernel_s": "s",
    "onmf.grad_U_s": "s",
    "onmf.grad_V_s": "s",
    "onmf.subproblem_s": "s",
    "onmf.objective_calls": "count",
    "onmf.objective_s": "s",
    "onmf.data_passes_per_sweep": "count/sweep",
    "onmf.spa_init_s": "s",
    "matcomp.f_eval_calls": "count",
    "matcomp.f_eval_s": "s",
    "matcomp.grad_calls": "count",
    "matcomp.grad_s": "s",
    "matcomp.subproblem_s": "s",
    "matcomp.objective_s": "s",
    "matcomp.residual_passes_per_step": "count/step",
    "matcomp.certificates_mb": "MB",
    "datakit.generate_s": "s",
    "trace_overhead_s": "s",
}

clock = time.perf_counter


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import ``bmme`` from this checkout's ``src/``; exit if it is missing."""
    if not (SRC / "bmme" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import bmme
    if Path(bmme.__file__).resolve().parent != SRC / "bmme":
        raise SystemExit(f"perfbench: bmme imported from {bmme.__file__}, "
                         f"not from {SRC}")


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": openblas, "machine": platform.machine()}


class Runner:
    """Set-up, warm-up and the timed solves of one workload in one process."""

    def __init__(self, wl, workload, seed, ref):
        self.wl, self.w, self.seed, self.ref = wl, workload, seed, ref
        self.attempted = 0
        self.failed = 0
        self.inst = None

    def setup_once(self):
        self.inst = None  # drop the old instance before building the next
        self.inst, segments = self.w.setup(self.seed)
        return segments

    def warm_up(self):
        """One untimed set-up and solve: caches fill and lazy imports finish."""
        self.setup_once()
        self.solve()
        self.attempted = self.failed = 0

    def time_setups(self, budget_s, scaler=None):
        """Set-up segment timings, scaled by ``scaler`` when one is given."""
        reps = []
        t_end = clock() + budget_s
        while len(reps) < MIN_SETUPS or (clock() < t_end and len(reps) < MAX_SETUPS):
            segments = self.setup_once()
            if scaler is not None:
                factor = scaler.next()[0]
                segments = {k: v * factor for k, v in segments.items()}
            reps.append(segments)
        return reps

    def rounds(self, seconds, min_rounds):
        """Yield until ``seconds`` are used, ending rather than overrunning
        them by more than half a round, after at least ``min_rounds``."""
        t_end = clock() + seconds
        done, last = 0, 0.0
        while not self.gave_up():
            t = clock()
            if done >= min_rounds and t + last / 2 > t_end:
                return
            yield
            done, last = done + 1, clock() - t

    def solve(self, spans=None):
        """One attempted solve; returns its Outcome, or None if it failed."""
        self.attempted += 1
        try:
            out = self.wl.solve(self.w, self.inst, self.ref["target_objective"],
                                spans)
        except Exception:  # any raise is a failed run, reported and counted
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        errors = self.wl.check(out, self.ref)
        if errors:
            self.failed += 1
            for e in errors:
                print(f"check failed: {e}", file=sys.stderr)
            return None
        return out

    def gave_up(self):
        return self.failed >= MAX_FAILURES


median = statistics.median


def describe(name, values, unit):
    lo, hi = min(values), max(values)
    print(f"  {name:<34} median {median(values):.6g} {unit} "
          f"(min {lo:.6g}, max {hi:.6g}, n={len(values)})")


def end_to_end(runner, seconds):
    runner.warm_up()
    # one set-up and solve, taken before the probe allocates its arrays
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaler = Scaler(Probe(runner.w.probe))
    setups = [sum(r.values())
              for r in runner.time_setups(SETUP_SHARE * seconds, scaler)]
    wall, outs = [], []
    for _ in runner.rounds(seconds, MIN_SOLVES):
        out = runner.solve()
        whole, start = scaler.next()
        if out is None:
            continue
        wall.append(out)
        # F* is reached early in a solve, so the probe just before it
        # follows the host's speed over that stretch better than the mean
        outs.append(dataclasses.replace(
            out, solve_s=out.solve_s * whole,
            time_to_target_s=out.time_to_target_s * start))
    if not outs:
        return None
    values = {
        "setup_s": setups,
        "solve_s": [o.solve_s for o in outs],
        "time_to_target_s": [o.time_to_target_s for o in outs],
        "final_objective": [o.final_objective for o in outs],
    }
    for name, vals in values.items():
        describe(name, vals, END_TO_END_UNITS[name])
    for name in outs[0].quality:
        describe(name, [o.quality[name] for o in outs], "")
    describe("wall solve_s (unscaled)", [o.solve_s for o in wall], "s")
    describe("wall time_to_target_s (unscaled)",
             [o.time_to_target_s for o in wall], "s")
    describe(f"probe {scaler.probe.kind} (nominal {scaler.probe.nominal_s} s)",
             scaler.probe_s, "s")
    metrics = {k: median(v) for k, v in values.items()}
    metrics["peak_rss_mb"] = peak_rss_mb
    print(f"  {'peak_rss_mb':<34} {peak_rss_mb:.6g} MB")
    return metrics


def per_layer(runner, seconds):
    runner.warm_up()
    reps = runner.time_setups(SETUP_SHARE * seconds)
    plain, traced = [], []
    for _ in runner.rounds(seconds, MIN_SOLVES - 1):
        out = runner.solve()
        if out is not None:
            plain.append(out)
        out = runner.solve(Spans())
        if out is not None:
            traced.append(out)
    if not plain or not traced:
        return None, False
    covered_ok = True
    rows = [layer_values(runner.w, o) for o in traced]
    for o in traced:
        covered = sum(excl for _, _, excl in o.spans.values())
        if abs(covered - o.solve_s) > COVERAGE_TOL * o.solve_s:
            covered_ok = False
            print(f"self-check failed: spans cover {covered:.6g} s of "
                  f"{o.solve_s:.6g} s", file=sys.stderr)
    metrics = {k: median(r[k] for r in rows) for k in rows[0]}
    metrics["solver.block_update_s"] = median(o.block_update_s for o in plain)
    metrics["solver.outside_update_s"] = median(
        o.solve_s - o.block_update_s for o in plain)
    metrics["trace_overhead_s"] = (median(o.solve_s for o in traced)
                                   - median(o.solve_s for o in plain))
    metrics["datakit.generate_s"] = median(r["generate"] for r in reps)
    metrics["onmf.spa_init_s"] = (median(r["init"] for r in reps)
                                  if runner.w.kind == "onmf" else 0.0)
    print_layers(traced, metrics)
    return {k: metrics[k] for k in PER_LAYER_UNITS}, covered_ok


def layer_values(w, out):
    """Per-layer metrics of one traced solve."""
    s = out.spans

    def calls(name):
        return s.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return s.get(name, (0, 0.0, 0.0))[1]

    grads = ("onmf.grad_U", "onmf.grad_V") if w.kind == "onmf" else ("matcomp.grad",)
    grad_calls = sum(calls(g) for g in grads)
    steps = out.steps
    v = {
        "solver.self_s": s["solver.run"][2],
        "solver.extrapolation_s": incl("solver.extrapolation"),
        "solver.beta_shrinks": out.shrinks,
        "solver.beta_accept_ratio": out.block_steps / (out.block_steps + out.shrinks),
        "solver.beta_candidates_per_step": grad_calls / steps,
        "solver.upper_tries_per_step": calls(f"{w.kind}.subproblem") / steps,
        "bregman.divergence_calls": calls("bregman.divergence"),
        "bregman.divergence_s": incl("bregman.divergence"),
        "onmf.spectral_norm_calls": calls("onmf.spectral_norm"),
        "onmf.spectral_norm_s": incl("onmf.spectral_norm"),
        "onmf.constants_s": incl("onmf.constants"),
        "onmf.kernel_s": incl("onmf.kernel"),
        "onmf.grad_U_s": incl("onmf.grad_U"),
        "onmf.grad_V_s": incl("onmf.grad_V"),
        "onmf.subproblem_s": incl("onmf.subproblem"),
        "onmf.objective_calls": calls("onmf.objective"),
        "onmf.objective_s": incl("onmf.objective"),
        "onmf.data_passes_per_sweep": 0.0,
        "matcomp.f_eval_calls": calls("matcomp.f_eval"),
        "matcomp.f_eval_s": incl("matcomp.f_eval"),
        "matcomp.grad_calls": calls("matcomp.grad"),
        "matcomp.grad_s": incl("matcomp.grad"),
        "matcomp.subproblem_s": incl("matcomp.subproblem"),
        "matcomp.objective_s": incl("matcomp.objective"),
        "matcomp.residual_passes_per_step": 0.0,
        "matcomp.certificates_mb": out.certificates_mb,
    }
    if w.kind == "onmf":
        # each gradient and each objective call reads X once
        v["onmf.data_passes_per_sweep"] = (grad_calls + calls("onmf.objective")) / steps
    else:
        # f_eval, grad and the objective each make one pass over the residuals
        v["matcomp.residual_passes_per_step"] = (
            calls("matcomp.f_eval") + grad_calls + calls("matcomp.objective")) / steps
    return v


def print_layers(traced, metrics):
    """Self time per span name, largest first, as a share of solve_s."""
    last = traced[-1]
    print(f"  layer self time of one traced solve ({last.solve_s:.4g} s):")
    ranked = sorted(last.spans.items(), key=lambda kv: -kv[1][2])
    for name, (n, incl, excl) in ranked:
        print(f"    {name:<24} self {excl:9.4f} s  {100 * excl / last.solve_s:5.1f}%"
              f"  incl {incl:9.4f} s  calls {n}")
    for name, unit in PER_LAYER_UNITS.items():
        print(f"  {name:<34} {metrics[name]:.6g} {unit}")


def main(argv=None):
    args = parse_args(argv)
    import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    ref = workloads.load_references()[w.name]
    print(json.dumps({"environment": environment()}))
    print(f"{w.name} seed {args.seed}")
    runner = Runner(workloads, w, args.seed, ref)
    if args.trace:
        metrics, covered_ok = per_layer(runner, args.seconds)
        units = PER_LAYER_UNITS
    else:
        metrics, covered_ok = end_to_end(runner, args.seconds), True
        units = END_TO_END_UNITS
    result = {
        "correct": runner.failed == 0 and covered_ok and metrics is not None,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {} if metrics is None else {
            k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if metrics is not None else 1


if __name__ == "__main__":
    sys.exit(main())
