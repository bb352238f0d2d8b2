"""The benchmark's workloads: inputs from a seed, set-up, one solve, checks.

Every workload solves one fixed instance, generated by ``datakit`` from data
seed ``BASE_SEED``. The benchmark's ``--seed`` permutes that instance's rows
and columns (and, for completion, the order of the observed entries). The
permuted problem is the same problem up to rounding, so the target ``F*`` and
the reference outputs in ``references.json`` hold for every seed, and the
spread between runs measures the code and the machine rather than the
instance. Fresh data per seed is not used because the instance decides the
work: on ONMF 100x100, data seeds 1-8 gave 500-sweep solve times from 0.55 s
to 2.9 s on a 2-CPU x86_64 VM, and final objectives from 0.07 to 7.5
(different local minima).
"""

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bmme import datakit, matcomp, onmf, solver
from bmme.solver import SolverConfig

from spans import patched

BASE_SEED = 1
REFERENCES = Path(__file__).with_name("references.json")

clock = time.perf_counter

# Module functions the solver and problems look up at call time; a traced
# solve replaces them by span-recording wrappers.
TRACED_FUNCTIONS = [(solver, "search_extrapolation", "solver.extrapolation"),
                    (solver, "bregman_divergence", "bregman.divergence"),
                    (onmf, "spectral_norm", "onmf.spectral_norm")]


def load_references():
    return json.loads(REFERENCES.read_text())


def _permutations(seed, m, n):
    """Row and column orders for ``seed``; ``None`` keeps the generated order."""
    if seed is None:
        return np.arange(m), np.arange(n)
    rng = np.random.default_rng([seed, 0x6270])
    return rng.permutation(m), rng.permutation(n)


@dataclass
class Instance:
    """Everything a solve needs, built by a workload's ``setup``."""

    problem: object        # list of BlockProblem, or one BacktrackingProblem
    init: object
    objective: object
    truth: object          # planted labels (ONMF) or held-out entries (completion)
    model: object          # OnmfProblem or McProblem


@dataclass
class Outcome:
    """What one solve produced, as seen from outside the package."""

    solve_s: float
    time_to_target_s: object   # None when the objective never reached F*
    final_objective: float
    quality: dict
    block_update_s: float
    steps: int
    block_steps: int       # blocks updated, summed over steps
    shrinks: int
    certificates_mb: float
    spans: object = None       # Spans.summary() of a traced solve


@dataclass(frozen=True)
class OnmfWorkload:
    """Penalized orthogonal NMF on planted clusters, solved by ``run``."""

    name: str
    m: int
    n: int
    r: int
    lam: float
    sweeps: int
    verify: bool
    probe: str             # hostspeed probe kind that scales its times
    algorithm: str = "bmme"
    noise: float = 0.05
    kind = "onmf"

    def config(self):
        return SolverConfig(max_iters=self.sweeps, verify_descent=self.verify,
                            tol_rel_change=0.0)

    def setup(self, seed):
        """Build the instance; returns it and the timed set-up segments."""
        t0 = clock()
        syn = datakit.gen_synthetic_onmf(self.m, self.n, self.r,
                                         noise=self.noise, seed=BASE_SEED)
        t1 = clock()
        rows, cols = _permutations(seed, self.m, self.n)
        X = np.ascontiguousarray(syn.X[rows][:, cols])
        labels = syn.labels[cols]
        t2 = clock()
        U0, V0 = onmf.spa_init(X, self.r)
        t3 = clock()
        p = onmf.OnmfProblem(X=X, r=self.r, lam=self.lam)
        problems = onmf.onmf_block_problems(p)

        def objective(blocks):
            return onmf.onmf_objective(p, blocks[0], blocks[1])

        t4 = clock()
        inst = Instance(problem=problems, init=[U0, V0], objective=objective,
                        truth=labels, model=p)
        return inst, {"generate": t1 - t0, "init": t3 - t2, "construct": t4 - t3}

    def wrap_problem(self, problems, spans):
        out = []
        for block, grad_name in zip(problems, ("onmf.grad_U", "onmf.grad_V")):
            out.append(dataclasses.replace(
                block,
                partial_grad=spans.wrap(grad_name, block.partial_grad),
                kernel_for=spans.wrap("onmf.kernel", block.kernel_for),
                constants_for=spans.wrap("onmf.constants", block.constants_for),
                solve_subproblem=spans.wrap("onmf.subproblem",
                                            block.solve_subproblem),
                feasible=spans.wrap("onmf.feasible", block.feasible)))
        return out

    def call(self, problems, init, objective):
        return solver.run(problems, init, self.config(), objective,
                          algorithm=self.algorithm)

    def quality(self, inst, res):
        labels = onmf.predict_clusters(res.final[1])
        return {"accuracy": onmf.clustering_accuracy(inst.truth, labels)}


@dataclass(frozen=True)
class CompletionWorkload:
    """Sparse matrix completion solved by ``run_backtracking``."""

    name: str
    m: int
    n: int
    r: int
    lam: float
    theta: float
    obs_fraction: float
    train_fraction: float
    steps: int
    probe: str
    kind = "matcomp"

    def config(self):
        return SolverConfig(max_iters=self.steps, verify_descent=False,
                            tol_rel_change=0.0, keep_certificates=True)

    def setup(self, seed):
        t0 = clock()
        obs = datakit.gen_synthetic_ratings(self.m, self.n, self.r,
                                            self.obs_fraction, seed=BASE_SEED)
        train, test = datakit.train_test_split(obs, self.train_fraction,
                                               seed=BASE_SEED)
        t1 = clock()
        rows, cols = _permutations(seed, self.m, self.n)
        train, test = _relabel(train, rows, cols), _relabel(test, rows, cols)
        t2 = clock()
        p = matcomp.McProblem(observed=train, r=self.r, lam=self.lam,
                              theta=self.theta)
        s0 = matcomp.mc_random_init(p, seed=BASE_SEED)
        t3 = clock()
        # the generated start, expressed in the permuted row/column order
        Z0 = matcomp.pack_state(matcomp.McState(U=s0.U[rows], V=s0.V[:, cols]))
        problem = matcomp.mc_backtracking_problem(p)
        objective = matcomp.mc_objective_packed(p)
        t4 = clock()
        inst = Instance(problem=problem, init=Z0, objective=objective,
                        truth=test, model=p)
        return inst, {"generate": t1 - t0, "init": t3 - t2, "construct": t4 - t3}

    def wrap_problem(self, problem, spans):
        return dataclasses.replace(
            problem,
            f_eval=spans.wrap("matcomp.f_eval", problem.f_eval),
            grad=spans.wrap("matcomp.grad", problem.grad),
            solve_subproblem=spans.wrap("matcomp.subproblem",
                                        problem.solve_subproblem),
            feasible=spans.wrap("matcomp.feasible", problem.feasible))

    def call(self, problem, init, objective):
        return solver.run_backtracking(problem, init, self.config(), objective)

    def quality(self, inst, res):
        state = matcomp.unpack_state(res.final[0], inst.model.shape[0])
        return {"rmse_test": matcomp.rmse(inst.truth, state)}


def _relabel(observed, rows, cols):
    """Observed entries of the matrix whose row k is old row ``rows[k]``."""
    new_r = np.argsort(rows)[observed.row_idx]
    new_c = np.argsort(cols)[observed.col_idx]
    order = np.lexsort((new_c, new_r))
    return datakit.ObservedMatrix(
        rows=observed.rows, cols=observed.cols, row_idx=new_r[order],
        col_idx=new_c[order], values=observed.values[order])


# Why each workload was chosen: see README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    OnmfWorkload(
        name="onmf-small-verified", m=100, n=100, r=5, lam=1000.0, sweeps=500,
        verify=True, probe="loops"),
    OnmfWorkload(
        name="onmf-large", m=1000, n=2000, r=10, lam=1000.0, sweeps=200,
        verify=False, probe="dense"),
    CompletionWorkload(
        name="mc-large-bt", m=2000, n=2000, r=5, lam=0.1, theta=5.0,
        obs_fraction=0.05, train_fraction=0.7, steps=100, probe="sparse"),
)}


class _Watch:
    """Objective wrapper noting when the objective first reaches a target."""

    def __init__(self, fn, target):
        self.fn, self.target, self.hit = fn, target, None

    def __call__(self, blocks):
        f = self.fn(blocks)
        if self.hit is None and f <= self.target:
            self.hit = clock()
        return f


def solve(workload, inst, target, spans=None):
    """One whole solver call on ``inst``; tracing when ``spans`` is given."""
    problem, objective, call = inst.problem, inst.objective, workload.call
    if spans is not None:
        problem = workload.wrap_problem(problem, spans)
        objective = spans.wrap(f"{workload.kind}.objective", objective)
        call = spans.wrap("solver.run", call)
    watch = _Watch(objective, target)
    with patched(spans, TRACED_FUNCTIONS if spans is not None else []):
        t0 = clock()
        res = call(problem, inst.init, watch)
        t1 = clock()
    shrinks = [s for rec in res.trace.records for s in rec.per_block_shrinks]
    return Outcome(
        solve_s=t1 - t0,
        time_to_target_s=None if watch.hit is None else watch.hit - t0,
        final_objective=res.trace.records[-1].objective,
        quality=workload.quality(inst, res),
        block_update_s=res.state.elapsed_seconds,
        steps=len(res.trace.records),
        block_steps=len(shrinks),
        shrinks=sum(shrinks),
        certificates_mb=_certificates_mb(getattr(res.state, "certificates", [])),
        spans=None if spans is None else spans.summary())


def _certificates_mb(certificates):
    """Bytes held by the retained certificates' arrays, counted once each."""
    arrays = {}
    for c in certificates:
        for a in (c.x_prev, c.x_curr, c.x_bar, c.x_new):
            arrays[id(a)] = a.nbytes
    return sum(arrays.values()) / 2**20


def check(outcome, ref):
    """Differences between a solve's outputs and the references; [] if none."""
    errors = []
    if outcome.time_to_target_s is None:
        errors.append(f"objective never reached F* = {ref['target_objective']!r}")
    values = {"final_objective": outcome.final_objective, **outcome.quality}
    for name, spec in ref["checks"].items():
        got, want = values[name], spec["value"]
        if not abs(got - want) <= spec["rtol"] * abs(want):
            errors.append(f"{name} = {got!r}, reference {want!r} "
                          f"(rtol {spec['rtol']})")
    return errors
