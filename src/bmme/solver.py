"""Block-alternating Bregman majorization-minimization with extrapolation.

Each outer iteration sweeps the blocks in order. For block i it

1. picks a tentative extrapolation weight ``beta`` from the Nesterov sequence
   (one per run, advanced once per sweep) and shrinks it geometrically until the Bregman distance of the extrapolated
   point satisfies

       D_k(x_i, xbar_i) <= delta_i * L_i^{k-1} / (L_i^k + l_i^k)
                           * D_{k-1}(x_i^{k-1}, x_i^k),

2. minimizes the majorizer built from the linearized smooth part, the block
   kernel scaled by L_i^k, and the surrogate of the nonsmooth part.

Each block either supplies (L_i^k, l_i^k) or has them found by line search
in the sweep (see :class:`BlockProblem`). Both kinds of block pass the same
test in step 1, against the pair the step ends with. With ``beta`` forced to
zero the method reduces to plain block majorization-minimization
(``algorithm="bmm"``).

The right-hand side's D_{k-1}(x_i^{k-1}, x_i^k) is also the relaxation term
of the descent inequality that :func:`run` verifies. The verifier computes
each block's D_k(x_i^k, x_i^{k+1}) once and carries it in
:class:`SolverState` for the next step's test and verifier. Without
verification the test computes it, and only when it tries a candidate.
The left-hand side D_k(x_i, xbar_i) is a quartic in beta. Every block
decides each candidate from three scalars computed once per search, and
forms an array divergence only for a candidate within rounding of the
bound. A backtracked block's line search forms D_k(x_i, xbar_i) once, for
the xbar it accepted.
"""

import math
import numbers
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .bregman import BlockKernel, RelSmoothConstants, bregman_divergence

__all__ = [
    "BlockProblem",
    "BacktrackingProblem",
    "SolverConfig",
    "SolverState",
    "Trace",
    "TraceRecord",
    "RunResult",
    "StopReason",
    "DescentViolation",
    "SubproblemError",
    "nesterov_next",
    "search_extrapolation",
    "run",
    "run_backtracking",
    "initial_state",
]

# Extrapolation weights tried per block update before falling back to 0.
MAX_SHRINKS = 50
# Relative tolerance of the descent verifier: slack * (1 + |F(x^k)|).
DESCENT_SLACK = 1e-8
# Unit roundoff of float64, for the extrapolation screen's margin.
_EPS = float(np.finfo(np.float64).eps) / 2.0
# Doublings allowed to each line search for a backtracked (L, l).
MAX_DOUBLINGS = 60
# The (L, l) a backtracked block's first line searches start from.
BT_FLOORS = RelSmoothConstants(L=1e-2, l=1e-3)


class DescentViolation(RuntimeError):
    """The certified descent inequality failed; the block problem is wrong."""


class SubproblemError(RuntimeError):
    """A block update left the feasible set or diverged."""


class StopReason(str, Enum):
    MAX_ITERS = "max_iters"
    TIME_BUDGET = "time_budget"
    TOL_REACHED = "tol_reached"


class NesterovStep(NamedTuple):
    nu: float
    beta_init: float


def nesterov_next(nu_prev):
    """Advance the Nesterov weight sequence.

    nu = (1 + sqrt(1 + 4 nu_prev^2)) / 2 and beta_init = (nu_prev - 1) / nu.
    Starting from nu = 1 the first beta_init is exactly 0.
    """
    if not (math.isfinite(nu_prev) and nu_prev >= 1.0):
        raise ValueError(f"nu_prev must be >= 1, got {nu_prev}")
    nu = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * nu_prev * nu_prev))
    return NesterovStep(nu=nu, beta_init=float((nu_prev - 1.0) / nu))


class ExtrapolationResult(NamedTuple):
    beta: float
    x_bar: np.ndarray
    shrinks: int
    d_prev: Optional[float]


def _screen(kernel, beta, terms, rhs):
    """Decide ``D_kernel(x, x + beta d) <= rhs`` from scalars, or return None.

    ``terms`` is (||d||^2, <x, d>, ||x||^2, x.size); <x, d> may be None when
    c1 = 0. True and False are the answers the array formula gives; None
    means the quartic lies within the rounding margin of ``rhs`` (or is not
    finite, or ||beta d|| is zero) and the caller must use that formula.
    """
    s, p, q, n = terms
    dd = beta * (beta * s)
    if not dd > 0.0:
        return None
    value = mag = 0.5 * kernel.c2 * dd
    if kernel.c1 != 0.0:
        t = beta * (2.0 * p + beta * s)
        value += kernel.c1 * (0.25 * t * t + 0.5 * (q + t) * dd)
        mag += 0.5 * kernel.c1 * dd * (math.sqrt(q) + math.sqrt(dd)) ** 2
    margin = 32.0 * _EPS * (n + math.sqrt(q / dd) + 4.0) * mag
    if value + margin < rhs:
        return True
    if value - margin > rhs:
        return False
    return None


def search_extrapolation(kernel, constants, prev_kernel, prev_constants,
                         x_curr, x_prev, beta_init, delta, eta,
                         max_shrinks=MAX_SHRINKS, d_prev=None):
    """Find the largest admissible extrapolation weight by geometric shrinking.

    Tries ``beta = beta_init * eta**j`` for j = 0, 1, ... and accepts the first
    beta whose extrapolated point ``xbar = x + beta (x - x_prev)`` satisfies

        D_kernel(x, xbar) <= delta * prev_L / (L + l) * D_prev(x_prev, x).

    Falls back to beta = 0 (condition trivially true) after ``max_shrinks``
    rejections; a budget of zero or less tries no candidate. The right-hand
    side is formed only when a candidate is tried, from ``d_prev`` if given
    (it must equal ``D_prev(x_prev, x)``) and otherwise from one divergence
    call, so beta_init = 0 or a spent budget costs no divergence.

    Each candidate is first screened from scalars. With d = x - x_prev,
    D(x, x + beta d) is the quartic in beta of :mod:`bmme.bregman`, built
    from ||d||^2, <x, d> and ||x||^2 (only ||d||^2 when c1 = 0), which are
    computed once per search. The screen decides when the quartic clears
    the right-hand side by more than a rounding margin. Only a candidate
    inside the margin falls back to the array formula (xbar and
    :func:`bregman.bregman_divergence`), so every decision, and with it
    beta, shrinks and xbar, equals the array formula's.

    The margin. Let u be the unit roundoff, a = ||x||, b = |beta| ||d||,
    rho = a / b and n = x.size. The array formula's xbar = fl(x + beta d)
    and fl(x - xbar) differ from x + beta d and -beta d by at most
    u (a + 2b) and u (a + 3b) in norm, and a dot product of length n errs
    by at most n u times the product of its operands' norms, in any
    summation order. Carried through the three terms of D, with the
    scalars' own dot products, this bounds the gap between the two values
    by u M (12 n + 14 rho + 40) to first order in u, where
    M = b^2/2 (c2 + c1 (a + b)^2) is the scale of the terms (each is at
    most 2M). The final products and sums of both values add less than
    40 u M. The screen's margin 32 u (n + rho + 4) M exceeds the sum in
    each coefficient, leaving room for the second-order terms.

    Returns
    -------
    ExtrapolationResult with fields beta, x_bar, shrinks (the number of
    rejected candidates) and d_prev, the right-hand side's divergence (None
    if it was neither given nor needed).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must be in (0, 1), got {eta}")
    beta = float(beta_init)
    shrinks = 0
    if beta != 0.0 and max_shrinks > 0:
        if d_prev is None:
            d_prev = bregman_divergence(prev_kernel, x_prev, x_curr)
        rhs = delta * prev_constants.L / (constants.L + constants.l) * d_prev
        diff = x_curr - x_prev
        terms = (float(np.vdot(diff, diff)),
                 float(np.vdot(x_curr, diff)) if kernel.c1 else None,
                 float(np.vdot(x_curr, x_curr)), x_curr.size)
    while beta != 0.0 and shrinks < max_shrinks:
        ok = _screen(kernel, beta, terms, rhs)
        if ok is not False:
            x_bar = x_curr + beta * diff
            if ok or bregman_divergence(kernel, x_curr, x_bar) <= rhs:
                return ExtrapolationResult(beta, x_bar, shrinks, d_prev)
        beta *= eta
        shrinks += 1
    return ExtrapolationResult(0.0, x_curr, shrinks, d_prev)


@dataclass(frozen=True)
class BlockProblem:
    """Callbacks describing one block of a block-separable problem.

    Every callable receives ``blocks``, the list of all block values with
    blocks earlier in the sweep already holding their updated iterates and
    this block holding its current iterate.

    The block's relative-smoothness pair (L, l) is either fixed, given by
    ``constants_for``, or backtracked: with ``constants_for`` None, doubling
    line searches on ``smooth_eval`` find it, starting from the block's
    previous pair (initially ``BT_FLOORS``). Either way the
    extrapolation weight passes :func:`search_extrapolation` against the
    step's final (L, l).

    Attributes
    ----------
    partial_grad : callable(blocks) -> ndarray
        Gradient of the smooth part with respect to this block, evaluated at
        ``blocks`` (the solver substitutes the extrapolated point there).
    kernel_for : callable(blocks) -> BlockKernel
        The distance-generating kernel for this block, which may depend on the
        other blocks' current values.
    constants_for : callable(blocks) -> RelSmoothConstants, or None
        None selects backtracked constants.
    solve_subproblem : callable(blocks, x_bar, grad_bar, L, kernel) -> ndarray
        Exact minimizer of the block majorizer; ``kernel`` is the one
        ``kernel_for`` returned for this update.
    feasible : callable(x) -> bool
        Membership test for the block's feasible set.
    smooth_eval : callable(blocks) -> float, or None
        Smooth part of the objective; read only with backtracked constants.
    """

    partial_grad: Callable
    kernel_for: Callable
    constants_for: Optional[Callable]
    solve_subproblem: Callable
    feasible: Callable = lambda x: True
    smooth_eval: Optional[Callable] = None


def _unit_setting(v):
    """A float, or a 1-D sequence as a tuple of floats, if all in (0, 1)."""
    seq = type(v) in (list, tuple) or getattr(v, "ndim", 0) == 1
    vals = tuple(v) if seq else (v,)
    if all(isinstance(x, numbers.Real) and 0.0 < x < 1.0 for x in vals):
        return tuple(map(float, vals)) if seq else float(v)
    return None


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by all solver variants, checked when built.

    delta/eta are stored as a float or a tuple of per-block floats in (0, 1).
    ``keep_certificates`` only matters for blocks with backtracked constants.
    """

    delta: float | Sequence[float] = 0.99
    eta: float | Sequence[float] = 0.9
    max_iters: int = 500
    time_budget: Optional[float] = None
    tol_rel_change: float = 1e-9
    verify_descent: bool = True
    keep_certificates: bool = False

    def __post_init__(self):
        unit = [_unit_setting(self.delta), _unit_setting(self.eta)]
        unit_want = "a real in (0, 1) or a 1-D sequence of them"
        n, tol, budget = self.max_iters, self.tol_rel_change, self.time_budget
        for name, ok, want in (
                ("delta", unit[0] is not None, unit_want),
                ("eta", unit[1] is not None, unit_want),
                ("max_iters", isinstance(n, numbers.Integral) and n >= 0,
                 "an integer >= 0"),
                ("tol_rel_change", tol >= 0.0, ">= 0"),
                ("time_budget", budget is None or budget > 0.0, "positive")):
            if not ok:
                raise ValueError(
                    f"{name} must be {want}, got {getattr(self, name)!r}")
        for name, value in zip(("delta", "eta"), unit):  # stored normalized
            object.__setattr__(self, name, value)

    def per_block(self, which, m):
        v = getattr(self, which)
        out = (v,) * m if isinstance(v, float) else v
        if len(out) != m:
            raise ValueError(f"{which} has {len(out)} entries for {m} blocks")
        return out


@dataclass
class TraceRecord:
    iter: int
    elapsed_seconds: float
    objective: float
    per_block_beta: tuple
    per_block_shrinks: tuple
    descent_slack: Optional[float] = None
    sum_block_divergence: Optional[float] = None


@dataclass
class Trace:
    records: list = field(default_factory=list)

    def objectives(self):
        return np.array([r.objective for r in self.records])

    def __len__(self):
        return len(self.records)


@dataclass
class BacktrackCertificate:
    """Everything needed to re-verify one backtracked step after the fact."""

    x_prev: np.ndarray
    x_curr: np.ndarray
    x_bar: np.ndarray
    x_new: np.ndarray
    L: float
    l: float
    beta: float


@dataclass
class SolverState:
    """Mutable iteration state of :func:`run`.

    ``objective`` is F(current); :func:`run` evaluates it once at the start
    and each step keeps it up to date. ``prev_divergences[i]`` is block i's
    D(previous[i], current[i]) under ``prev_kernels[i]``, the last step's
    D_k(x_i^k, x_i^{k+1}). The descent verifier computes it for its sum of
    L * D; the next step's extrapolation test and verifier read it. It is
    None after an unverified step, and the search then computes it itself.
    """

    current: list
    previous: list
    prev_kernels: list
    prev_constants: list
    nesterov_nu: float
    prev_divergences: list
    objective: Optional[float] = None
    iter: int = 0
    elapsed_seconds: float = 0.0
    trace: Trace = field(default_factory=Trace)
    certificates: list = field(default_factory=list)


def initial_state(problems, init_blocks):
    """Build a SolverState at ``init_blocks`` with x^{-1} = x^0.

    The previous kernels/constants are evaluated at the initial point, which
    makes the first extrapolation condition vacuous (its right-hand side is
    D(x^0, x^0) = 0, stored exactly as 0.0) and beta^0 = 0 through nu_0 = 1.
    """
    blocks = [np.array(b, dtype=np.float64, copy=True) for b in init_blocks]
    if len(blocks) != len(problems):
        raise ValueError("one initial value per block problem required")
    for i, (p, b) in enumerate(zip(problems, blocks)):
        if p.constants_for is None and p.smooth_eval is None:
            raise ValueError(
                f"block {i} needs constants_for or, to backtrack, smooth_eval")
        if not np.all(np.isfinite(b)):
            raise ValueError(f"block {i} initial value has non-finite entries")
        if not p.feasible(b):
            raise ValueError(f"block {i} initial value is infeasible")
    return SolverState(
        current=blocks,
        previous=[b.copy() for b in blocks],
        prev_kernels=[p.kernel_for(blocks) for p in problems],
        prev_constants=[BT_FLOORS if p.constants_for is None
                        else p.constants_for(blocks) for p in problems],
        nesterov_nu=1.0,
        prev_divergences=[0.0] * len(blocks),
    )


def _at(blocks, i, x):
    point = list(blocks)
    point[i] = x
    return point


def _finite(i, x):
    if not np.isfinite(x).all():
        raise SubproblemError(f"block {i} update produced non-finite values")
    return x


def _block_update(p, i, blocks, kernel, state, beta, delta, eta):
    """Block i's extrapolation, gradient and majorizer solve.

    Every block accepts its extrapolation weight with
    :func:`search_extrapolation` against its (L, l) for this step. A fixed
    block takes (L, l) from ``constants_for``. A backtracked block starts from
    its previous pair and, at the accepted ``xbar``, doubles ``l`` until
    ``f(x) - f(xbar) - <grad f(xbar), x - xbar> >= -l * D(x, xbar)``, then
    solves and doubles ``L`` (re-solving) until
    ``f(x_new) - f(xbar) - <grad f(xbar), x_new - xbar> <= L * D(x_new, xbar)``
    (f is ``p.smooth_eval``). If either constant grew, the search runs again
    from the accepted beta against the grown pair. Constants never shrink,
    beta only shrinks and beta = 0 always passes, so the loop ends. The lower
    search is the only reader of D(x, xbar); it forms it once per accepted
    xbar. Returns (x_bar, beta, shrinks, (L, l), x_new).
    """
    x, x_prev = state.current[i], state.previous[i]
    fixed = p.constants_for is not None
    cons = p.constants_for(blocks) if fixed else state.prev_constants[i]
    fx = None if fixed else float(p.smooth_eval(blocks))
    shrinks, solved_beta, d_prev = 0, None, state.prev_divergences[i]
    while True:
        beta, x_bar, s, d_prev = search_extrapolation(
            kernel, cons, state.prev_kernels[i], state.prev_constants[i],
            x, x_prev, beta, delta, eta, MAX_SHRINKS - shrinks, d_prev)
        shrinks += s
        if beta == solved_beta:  # the last solve already used this x_bar
            break
        point = _at(blocks, i, x_bar)
        if fixed:
            g_bar = p.partial_grad(point)
            x_new = _finite(i, p.solve_subproblem(blocks, x_bar, g_bar,
                                                  cons.L, kernel))
            break
        d_bar = bregman_divergence(kernel, x, x_bar) if beta else 0.0
        f_bar = float(p.smooth_eval(point))
        g_bar = p.partial_grad(point)
        gap = fx - f_bar - float(np.vdot(g_bar, x - x_bar))
        if d_bar == 0.0 and gap < 0.0 and beta > 0.0:
            # x_bar indistinguishable from x up to roundoff: no finite l can
            # absorb the residue, so retire this beta candidate instead.
            shrinks += 1
            beta *= eta  # a spent budget makes the search return 0
            continue
        L, l = cons.L, cons.l
        doublings = 0
        while gap < -l * d_bar:
            if doublings >= MAX_DOUBLINGS:
                raise SubproblemError(
                    f"block {i}: lower-constant search failed to terminate; "
                    "the kernel does not dominate the objective's curvature")
            l *= 2.0
            doublings += 1
        doublings = 0
        while True:
            x_new = _finite(i, p.solve_subproblem(blocks, x_bar, g_bar, L,
                                                  kernel))
            gap_new = (float(p.smooth_eval(_at(blocks, i, x_new))) - f_bar
                       - float(np.vdot(g_bar, x_new - x_bar)))
            if gap_new <= L * bregman_divergence(kernel, x_new, x_bar):
                break
            if doublings >= MAX_DOUBLINGS:
                raise SubproblemError(
                    f"block {i}: upper-constant search failed to terminate; "
                    "gradient or kernel implementation is inconsistent")
            L *= 2.0
            doublings += 1
        grew = (L, l) != (cons.L, cons.l)
        cons, solved_beta = RelSmoothConstants(L=L, l=l), beta
        if not grew:
            break
    return x_bar, beta, shrinks, cons, x_new


def _step(problems, state, config, objective, force_beta_zero, deltas, etas):
    m = len(problems)
    t0 = time.perf_counter()
    blocks = list(state.current)
    betas, shrinks = [], []
    kernels_k, constants_k = [], []
    nu, beta_init = nesterov_next(state.nesterov_nu)
    if force_beta_zero:
        beta_init = 0.0
    for i, p in enumerate(problems):
        kern = p.kernel_for(blocks)
        x_bar, beta, shrink, cons, x_new = _block_update(
            p, i, blocks, kern, state, beta_init, deltas[i], etas[i])
        if p.constants_for is None and config.keep_certificates:
            state.certificates.append(BacktrackCertificate(
                x_prev=state.previous[i], x_curr=state.current[i],
                x_bar=x_bar, x_new=x_new, L=cons.L, l=cons.l, beta=beta))
        if not p.feasible(x_new):
            raise SubproblemError(f"block {i} update left the feasible set")
        blocks[i] = x_new
        betas.append(beta)
        shrinks.append(shrink)
        kernels_k.append(kern)
        constants_k.append(cons)
    state.elapsed_seconds += time.perf_counter() - t0

    # Instrumentation below is deliberately outside the timed section.
    f_new = float(objective(blocks))
    slack = None
    sum_div = None
    divs = [None] * m
    if config.verify_descent:
        f_old = state.objective
        sum_div = 0.0
        relaxation = 0.0
        for i in range(m):
            divs[i] = bregman_divergence(kernels_k[i], state.current[i],
                                         blocks[i])
            sum_div += constants_k[i].L * divs[i]
            relaxation += (deltas[i] * state.prev_constants[i].L
                           * state.prev_divergences[i])
        bound = f_old - sum_div + relaxation
        slack = f_new - bound
        if slack > DESCENT_SLACK * (1.0 + abs(f_old)):
            raise DescentViolation(
                f"iteration {state.iter + 1}: objective {f_new:.12e} exceeds "
                f"certified bound {bound:.12e} by {slack:.3e}")

    state.previous = state.current
    state.current = blocks
    state.prev_kernels = kernels_k
    state.prev_constants = constants_k
    state.nesterov_nu = nu
    state.prev_divergences = divs
    state.objective = f_new
    state.iter += 1
    state.trace.records.append(TraceRecord(
        iter=state.iter,
        elapsed_seconds=state.elapsed_seconds,
        objective=f_new,
        per_block_beta=tuple(betas),
        per_block_shrinks=tuple(shrinks),
        descent_slack=slack,
        sum_block_divergence=sum_div,
    ))


@dataclass
class RunResult:
    final: list
    trace: Trace
    stop_reason: StopReason
    state: object


def run(problems, init_blocks, config, objective, algorithm="bmme"):
    """Drive repeated sweeps until an iteration/time/tolerance limit.

    With ``algorithm="bmme"`` each sweep extrapolates; ``"bmm"`` forces every
    extrapolation weight to zero. When ``config.verify_descent`` is on, each
    sweep asserts the certified inequality

        F(x^{k+1}) <= F(x^k) - sum_i L_i^k D_k(x_i^k, x_i^{k+1})
                      + sum_i delta_i L_i^{k-1} D_{k-1}(x_i^{k-1}, x_i^k)

    up to slack ``DESCENT_SLACK * (1 + |F(x^k)|)`` and raises
    :class:`DescentViolation` otherwise.

    Parameters
    ----------
    problems : sequence of BlockProblem
    init_blocks : sequence of ndarray
    config : SolverConfig
    objective : callable(blocks) -> float
        Full objective (smooth part plus nonsmooth terms), traced per
        iteration.
    algorithm : {"bmme", "bmm"}

    Returns
    -------
    RunResult
        ``final`` holds the last iterate, ``trace`` one record per completed
        iteration, ``stop_reason`` why the loop ended.
    """
    if algorithm not in ("bmme", "bmm"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    state = initial_state(problems, init_blocks)
    deltas = config.per_block("delta", len(problems))
    etas = config.per_block("eta", len(problems))
    state.objective = float(objective(state.current))
    for _ in range(config.max_iters):
        f_prev = state.objective
        _step(problems, state, config, objective, algorithm == "bmm", deltas,
              etas)
        if (abs(state.objective - f_prev)
                <= config.tol_rel_change * (1.0 + abs(f_prev))):
            reason = StopReason.TOL_REACHED
            break
        if (config.time_budget is not None
                and state.elapsed_seconds >= config.time_budget):
            reason = StopReason.TIME_BUDGET
            break
    else:
        reason = StopReason.MAX_ITERS
    return RunResult(final=state.current, trace=state.trace,
                     stop_reason=reason, state=state)


@dataclass(frozen=True)
class BacktrackingProblem:
    """Single-block problem whose (L, l) pair is found by line search.

    ``f_eval``/``grad`` describe the smooth part only; the nonsmooth part
    enters through ``solve_subproblem``.
    """

    f_eval: Callable
    grad: Callable
    kernel: BlockKernel
    solve_subproblem: Callable  # (x_bar, grad_bar, L, x_prev) -> ndarray
    feasible: Callable = lambda x: True


def run_backtracking(problem, init, config, objective):
    """:func:`run` on ``problem`` as one block with backtracked constants.

    ``objective`` takes the block value itself rather than a block list.
    """
    block = BlockProblem(
        partial_grad=lambda blocks: problem.grad(blocks[0]),
        kernel_for=lambda blocks: problem.kernel,
        constants_for=None,
        solve_subproblem=lambda blocks, x_bar, g, L, kernel:
            problem.solve_subproblem(x_bar, g, L, blocks[0]),
        feasible=problem.feasible,
        smooth_eval=lambda blocks: problem.f_eval(blocks[0]),
    )
    return run([block], [init], config, lambda blocks: objective(blocks[0]))
