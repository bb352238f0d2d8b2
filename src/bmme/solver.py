"""Block-alternating Bregman majorization-minimization with extrapolation.

Each outer iteration sweeps the blocks in order. For block i it

1. picks a tentative extrapolation weight ``beta`` from the Nesterov sequence
   (one per run, advanced once per sweep) and shrinks it by the factor eta
   until the Bregman distance of the extrapolated point satisfies

       D_k(x_i, xbar_i) <= delta * L_i^{k-1} / (L_i^k + l_i^k)
                           * D_{k-1}(x_i^{k-1}, x_i^k),

   where delta and eta are two reals in (0, 1), the same for every block,

2. minimizes the majorizer built from the linearized smooth part, the block
   kernel scaled by L_i^k, and the surrogate of the nonsmooth part.

Each block either supplies (L_i^k, l_i^k) or has them found by line search
in the sweep (see :class:`BlockProblem`). Both kinds of block pass the same
test in step 1, against the pair the step ends with. With ``beta`` forced to
zero the method reduces to plain block majorization-minimization
(``algorithm="bmm"``).

The right-hand side's D_{k-1}(x_i^{k-1}, x_i^k) is also the relaxation term
of the descent inequality that :func:`run` verifies. Each step computes
block i's D_k(x_i^k, x_i^{k+1}) once, right after the block's update and
with its kernel, and carries it in :class:`SolverState`; the next step's
test, the verifier and the trace all read that value. The left-hand side
D_k(x_i, xbar_i) is a quartic in beta. Every block decides each candidate
from three scalars computed once per search, and forms an array divergence
only for a candidate within rounding of the bound. A backtracked block's
line search forms D_k(x_i, xbar_i) once, for the xbar it accepted.

Every iterate the solver holds is a read-only float64 copy it made itself:
each initial block and each ``solve_subproblem`` result passes one gate,
:func:`_hold`, which checks it finite (``bregman._all_finite``) and
feasible; each xbar is a new read-only array. No array a callback keeps can
reach an iterate, so the problems' memos keep iterates by reference and hit
them by identity (see :class:`bmme.bregman.ValueMemo`).
"""

import math
import numbers
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .bregman import (BlockKernel, RelSmoothConstants, _all_finite, _number,
                      bregman_divergence)

__all__ = [
    "BlockProblem",
    "SolverConfig",
    "SolverState",
    "Trace",
    "TraceRecord",
    "LineSearchSides",
    "RunResult",
    "StopReason",
    "DescentViolation",
    "SubproblemError",
    "nesterov_next",
    "search_extrapolation",
    "run",
    "initial_state",
]

# Extrapolation weights tried per block update before falling back to 0.
MAX_SHRINKS = 50
# Relative tolerance of the descent verifier: slack * (1 + |F(x^k)|).
DESCENT_SLACK = 1e-8
# Unit roundoff of float64, for the extrapolation screen's margin.
_EPS = float(np.finfo(np.float64).eps) / 2.0
_MARGIN = 32.0 * _EPS
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
    if not (_number(nu_prev) and math.isfinite(nu_prev) and nu_prev >= 1.0):
        raise ValueError(f"nu_prev must be >= 1, got {nu_prev!r}")
    nu = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * nu_prev * nu_prev))
    return NesterovStep(nu=nu, beta_init=float((nu_prev - 1.0) / nu))


class ExtrapolationResult(NamedTuple):
    beta: float
    x_bar: np.ndarray
    shrinks: int


def _screen(kernel, beta, terms, rhs):
    """Decide ``D_kernel(x, x + beta d) <= rhs`` from scalars, or return None.

    ``terms`` holds the search's constants: (||d||^2, 2 <x, d>, ||x||^2,
    ||x||, c2/2, x.size as a float); 2 <x, d> is None when c1 = 0. True and
    False are the answers the array formula gives; None means the quartic
    lies within the rounding margin of ``rhs`` (or is not finite, or
    ||beta d|| is zero) and the caller must use that formula.
    """
    s, p2, q, sqrt_q, half_c2, n = terms
    dd = beta * (beta * s)
    if not dd > 0.0:
        return None
    value = mag = half_c2 * dd
    c1 = kernel.c1
    if c1 != 0.0:
        t = beta * (p2 + beta * s)
        value += c1 * (0.25 * t * t + 0.5 * (q + t) * dd)
        mag += 0.5 * c1 * dd * (sqrt_q + math.sqrt(dd)) ** 2
    margin = _MARGIN * (n + math.sqrt(q / dd) + 4.0) * mag
    if value + margin < rhs:
        return True
    if value - margin > rhs:
        return False
    return None


def search_extrapolation(kernel, constants, prev_constants, x_curr, x_prev,
                         d_prev, beta_init, config,
                         max_shrinks=MAX_SHRINKS):
    """Find the first admissible extrapolation weight on a geometric grid.

    Tries ``beta = beta_init * eta**j`` for j = 0, 1, ... and accepts the first
    beta whose extrapolated point ``xbar = x + beta (x - x_prev)`` satisfies

        D_kernel(x, xbar) <= delta * prev_L / (L + l) * d_prev,

    where ``d_prev`` is the previous step's D(x_prev, x), carried by the
    caller, and delta and eta are read from ``config``, the run's
    :class:`SolverConfig`, which checked them when it was built. That beta
    need not be the largest admissible weight: a weight between it and the
    last rejected candidate, a factor 1/eta above it, may pass too. Falls
    back to beta = 0 (condition trivially true) after ``max_shrinks``
    rejections; a budget of zero or less tries no candidate, and neither
    that nor beta_init = 0 reads ``d_prev``.

    Each candidate is first screened from scalars. With d = x - x_prev,
    D(x, x + beta d) is the quartic in beta of :mod:`bmme.bregman`, built
    from ||d||^2, <x, d> and ||x||^2 (only ||d||^2 when c1 = 0). These, with
    ||x|| and c2/2, are computed from ``x_curr`` and ``x_prev`` once per
    search and passed to ``_screen`` with each candidate. The screen
    decides when the quartic clears the right-hand side by more than a
    rounding margin. Only a candidate inside the margin falls back to the
    array formula (xbar and :func:`bregman.bregman_divergence`), so every
    decision, and with it beta, shrinks and xbar, equals the array formula's.

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
    ExtrapolationResult with fields beta, x_bar and shrinks (the number of
    rejected candidates). ``x_bar`` is a new read-only array, or ``x_curr``
    itself when beta = 0.
    """
    beta = float(beta_init)
    shrinks = 0
    if beta != 0.0 and max_shrinks > 0:
        rhs = (config.delta * prev_constants.L / (constants.L + constants.l)
               * d_prev)
        diff = x_curr - x_prev
        q = float(np.vdot(x_curr, x_curr))
        terms = (float(np.vdot(diff, diff)),
                 2.0 * float(np.vdot(x_curr, diff)) if kernel.c1 else None,
                 q, math.sqrt(q), 0.5 * kernel.c2, float(x_curr.size))
    while beta != 0.0 and shrinks < max_shrinks:
        ok = _screen(kernel, beta, terms, rhs)
        if ok is not False:
            x_bar = x_curr + beta * diff
            x_bar.setflags(write=False)
            if ok or bregman_divergence(kernel, x_curr, x_bar) <= rhs:
                return ExtrapolationResult(beta, x_bar, shrinks)
        beta *= config.eta
        shrinks += 1
    return ExtrapolationResult(0.0, x_curr, shrinks)


@dataclass(frozen=True)
class BlockProblem:
    """Callbacks describing one block of a block-separable problem.

    Every callable receives ``blocks``, the list of all block values with
    blocks earlier in the sweep already holding their updated iterates and
    this block holding its current iterate. Every iterate is a read-only
    copy the solver made (:func:`_hold`), and ``x_bar`` is read-only too.

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


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by all solver variants, checked when built.

    delta and eta are each one real in (0, 1) for every block, stored as a
    Python float. ``keep_certificates`` only matters for blocks with
    backtracked constants.
    """

    delta: float = 0.99
    eta: float = 0.9
    max_iters: int = 500
    time_budget: Optional[float] = None
    tol_rel_change: float = 1e-9
    verify_descent: bool = True
    keep_certificates: bool = False

    def __post_init__(self):
        n, tol, budget = self.max_iters, self.tol_rel_change, self.time_budget
        for name, ok, want in (
                *((f, _number(v) and 0.0 < v < 1.0, "a real in (0, 1)")
                  for f, v in (("delta", self.delta), ("eta", self.eta))),
                ("max_iters", _number(n, numbers.Integral) and n >= 0,
                 "an integer >= 0"),
                ("tol_rel_change", _number(tol) and tol >= 0.0, "a real >= 0"),
                ("time_budget", budget is None or _number(budget)
                 and budget > 0.0, "None or a positive real"),
                *((f, type(getattr(self, f)) is bool, "a bool")
                  for f in ("verify_descent", "keep_certificates"))):
            if not ok:
                raise ValueError(
                    f"{name} must be {want}, got {getattr(self, name)!r}")
        for name in ("delta", "eta"):  # np.float32(0.5) is stored as 0.5
            object.__setattr__(self, name, float(getattr(self, name)))


class LineSearchSides(NamedTuple):
    """Both sides of a backtracked step's two line-search inequalities.

    With f the block's ``smooth_eval``, g its gradient at xbar and (L, l) the
    step's final pair, the step accepted

        lower_gap = f(x) - f(xbar) - <g, x - xbar>             >= -lower_div
        upper_gap = f(x_new) - f(xbar) - <g, x_new - xbar>     <= upper_div

    where lower_div = l D(x, xbar) and upper_div = L D(x_new, xbar).
    """

    lower_gap: float
    lower_div: float
    upper_gap: float
    upper_div: float


@dataclass
class TraceRecord:
    """One sweep. ``descent_slack`` (F minus :func:`run`'s certified bound)
    and ``sum_block_divergence`` (sum_i L_i^k D_k(x_i^k, x_i^{k+1})) are
    None only in an unverified ``bmm`` run, which computes no divergence.
    ``per_block_line_search`` holds each block's :class:`LineSearchSides`,
    None for a block with fixed constants."""

    iter: int
    elapsed_seconds: float
    objective: float
    per_block_beta: tuple
    per_block_shrinks: tuple
    descent_slack: Optional[float] = None
    sum_block_divergence: Optional[float] = None
    per_block_line_search: tuple = ()


@dataclass
class Trace:
    records: list = field(default_factory=list)

    def __len__(self):
        return len(self.records)


@dataclass
class BacktrackCertificate:
    """Everything needed to re-verify one backtracked step after the fact.

    The iterates are the ones the run itself holds, so consecutive
    certificates share arrays and each step adds one array, ``x_new``.
    ``x_bar`` is not stored: each read rebuilds it with the operations
    :func:`search_extrapolation` used, bit for bit. A read with beta = 0
    returns ``x_curr`` itself; any other read makes three passes over arrays
    of ``x_curr``'s size and returns a new one.
    """

    x_prev: np.ndarray
    x_curr: np.ndarray
    x_new: np.ndarray
    L: float
    l: float
    beta: float

    @property
    def x_bar(self):
        if self.beta == 0.0:
            return self.x_curr
        return self.x_curr + self.beta * (self.x_curr - self.x_prev)


@dataclass
class SolverState:
    """Mutable iteration state of :func:`run`.

    ``objective`` is F(current); :func:`run` evaluates it once at the start
    and each step keeps it up to date. ``prev_divergences[i]`` is block i's
    D(previous[i], current[i]) under the last step's kernel. Each step of a
    run that extrapolates or verifies computes it, for the next step's
    extrapolation test and verifier; an unverified ``bmm`` run leaves None.
    Each array in ``current`` and ``previous`` is a read-only copy made by
    :func:`_hold`.
    """

    current: list
    previous: list
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

    Each block passes :func:`_hold`, so x^0 is a read-only float64 copy that
    neither the caller's later writes to ``init_blocks`` nor any callback
    can change. x^{-1} and x^0 are that same copy: a second one would only
    add one array per block to what the certificates hold.

    No kernel or constants are evaluated: every previous pair is
    ``BT_FLOORS``, which only multiplies D(x^0, x^0) = 0 (stored exactly)
    and starts a backtracked block's first line searches. beta^0 = 0
    through nu_0 = 1.
    """
    if len(init_blocks) != len(problems):
        raise ValueError("one initial value per block problem required")
    for i, p in enumerate(problems):
        if p.constants_for is None and p.smooth_eval is None:
            raise ValueError(
                f"block {i} needs constants_for or, to backtrack, smooth_eval")
    blocks = [_hold(p, i, b, initial=True)
              for i, (p, b) in enumerate(zip(problems, init_blocks))]
    return SolverState(
        current=blocks,
        previous=list(blocks),
        prev_constants=[BT_FLOORS] * len(blocks),
        nesterov_nu=1.0,
        prev_divergences=[0.0] * len(blocks),
    )


def _at(blocks, i, x):
    point = list(blocks)
    point[i] = x
    return point


def _hold(p, i, x, initial=False):
    """Block i's value ``x`` (x^0 if ``initial``, else a ``solve_subproblem``
    result) as a new read-only float64 copy in x's memory layout, which no
    array a caller or callback keeps can reach. A copy that fails
    ``bregman._all_finite`` or ``p.feasible`` raises ValueError for x^0,
    SubproblemError for an update.
    """
    x = np.array(x, dtype=np.float64)
    x.setflags(write=False)
    error, nonfinite, infeasible = (
        (ValueError, "initial value has non-finite entries",
         "initial value is infeasible") if initial else
        (SubproblemError, "update produced non-finite values",
         "update left the feasible set"))
    if not _all_finite(x):
        raise error(f"block {i} {nonfinite}")
    if not p.feasible(x):
        raise error(f"block {i} {infeasible}")
    return x


def _block_update(p, i, blocks, kernel, state, beta, config):
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
    xbar. Returns (beta, shrinks, (L, l), x_new, sides), with ``sides``
    the final pair's :class:`LineSearchSides`, None for a fixed block.
    """
    x, x_prev = state.current[i], state.previous[i]
    fixed = p.constants_for is not None
    cons = p.constants_for(blocks) if fixed else state.prev_constants[i]
    fx = None if fixed else float(p.smooth_eval(blocks))
    shrinks, solved_beta, sides = 0, None, None
    while True:
        beta, x_bar, s = search_extrapolation(
            kernel, cons, state.prev_constants[i], x, x_prev,
            state.prev_divergences[i], beta, config, MAX_SHRINKS - shrinks)
        shrinks += s
        if beta == solved_beta:  # the last solve already used this x_bar
            break
        point = _at(blocks, i, x_bar)
        if fixed:
            g_bar = p.partial_grad(point)
            x_new = _hold(p, i, p.solve_subproblem(blocks, x_bar, g_bar,
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
            beta *= config.eta  # a spent budget makes the search return 0
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
            x_new = _hold(p, i, p.solve_subproblem(blocks, x_bar, g_bar,
                                                   L, kernel))
            gap_new = (float(p.smooth_eval(_at(blocks, i, x_new))) - f_bar
                       - float(np.vdot(g_bar, x_new - x_bar)))
            upper_div = L * bregman_divergence(kernel, x_new, x_bar)
            if gap_new <= upper_div:
                break
            if doublings >= MAX_DOUBLINGS:
                raise SubproblemError(
                    f"block {i}: upper-constant search failed to terminate; "
                    "gradient or kernel implementation is inconsistent")
            L *= 2.0
            doublings += 1
        grew = (L, l) != (cons.L, cons.l)
        cons, solved_beta = RelSmoothConstants(L=L, l=l), beta
        sides = LineSearchSides(gap, l * d_bar, gap_new, upper_div)
        if not grew:
            break
    return beta, shrinks, cons, x_new, sides


def _step(problems, state, config, objective, force_beta_zero):
    t0 = time.perf_counter()
    blocks = list(state.current)
    betas, shrinks, constants_k, divs, sides = [], [], [], [], []
    nu, beta_init = nesterov_next(state.nesterov_nu)
    if force_beta_zero:
        beta_init = 0.0
    # D_k(x_i^k, x_i^{k+1}), read by the next step's test and the verifier
    carry = config.verify_descent or not force_beta_zero
    for i, p in enumerate(problems):
        kern = p.kernel_for(blocks)
        beta, shrink, cons, x_new, side = _block_update(
            p, i, blocks, kern, state, beta_init, config)
        if p.constants_for is None and config.keep_certificates:
            state.certificates.append(BacktrackCertificate(
                x_prev=state.previous[i], x_curr=state.current[i],
                x_new=x_new, L=cons.L, l=cons.l, beta=beta))
        blocks[i] = x_new
        betas.append(beta)
        shrinks.append(shrink)
        constants_k.append(cons)
        sides.append(side)
        divs.append(bregman_divergence(kern, state.current[i], x_new)
                    if carry else None)
    state.elapsed_seconds += time.perf_counter() - t0

    # Instrumentation below is deliberately outside the timed section.
    f_new = float(objective(blocks))
    slack = sum_div = None
    if carry:
        f_old = state.objective
        sum_div = relaxation = 0.0
        for i, (cons, d) in enumerate(zip(constants_k, divs)):
            sum_div += cons.L * d
            relaxation += (config.delta * state.prev_constants[i].L
                           * state.prev_divergences[i])
        bound = f_old - sum_div + relaxation
        slack = f_new - bound
        if (config.verify_descent
                and slack > DESCENT_SLACK * (1.0 + abs(f_old))):
            raise DescentViolation(
                f"iteration {state.iter + 1}: objective {f_new:.12e} exceeds "
                f"certified bound {bound:.12e} by {slack:.3e}")

    state.previous = state.current
    state.current = blocks
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
        per_block_line_search=tuple(sides),
    ))


@dataclass
class RunResult:
    final: list
    trace: Trace
    stop_reason: StopReason
    state: object


def run(problems, init_blocks, config, objective, algorithm="bmme"):
    """Drive repeated sweeps until an iteration/time/tolerance limit.

    The run stops by tolerance after the first sweep with
    ``|F(x^{k+1}) - F(x^k)| <= config.tol_rel_change * |F(x^k)|``. The rule
    is relative, so scaling F by a constant leaves the sweep it stops at
    unchanged; ``tol_rel_change=0`` stops only when F repeats exactly.

    With ``algorithm="bmme"`` each sweep extrapolates; ``"bmm"`` forces every
    extrapolation weight to zero. When ``config.verify_descent`` is on, each
    sweep asserts the certified inequality

        F(x^{k+1}) <= F(x^k) - sum_i L_i^k D_k(x_i^k, x_i^{k+1})
                      + delta sum_i L_i^{k-1} D_{k-1}(x_i^{k-1}, x_i^k)

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
        ``final`` holds the last iterate, as read-only arrays (copy one
        before editing it), ``trace`` one record per completed iteration,
        ``stop_reason`` why the loop ended.
    """
    if algorithm not in ("bmme", "bmm"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    state = initial_state(problems, init_blocks)
    state.objective = float(objective(state.current))
    for _ in range(config.max_iters):
        f_prev = state.objective
        _step(problems, state, config, objective, algorithm == "bmm")
        if (abs(state.objective - f_prev)
                <= config.tol_rel_change * abs(f_prev)):
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
    enters through ``solve_subproblem``. This adapter and
    :func:`run_backtracking` are not exported and are kept only for the
    mc-large-bt workload in ``perfbench/workloads.py``, until ROADMAP item
    6a; other code runs a :class:`BlockProblem` with ``constants_for=None``.
    """

    f_eval: Callable
    grad: Callable
    kernel: BlockKernel
    solve_subproblem: Callable  # (x_bar, grad_bar, L, x_prev) -> ndarray
    feasible: Callable = lambda x: True


def run_backtracking(problem, init, config, objective):
    """:func:`run` on ``problem`` as one block with backtracked constants."""
    block = BlockProblem(
        partial_grad=lambda blocks: problem.grad(blocks[0]),
        kernel_for=lambda blocks: problem.kernel,
        constants_for=None,
        solve_subproblem=lambda blocks, x_bar, g, L, kernel:
            problem.solve_subproblem(x_bar, g, L, blocks[0]),
        feasible=problem.feasible,
        smooth_eval=lambda blocks: problem.f_eval(blocks[0]),
    )
    return run([block], [init], config, objective)
