"""Low-rank matrix completion with a bounded concave sparsity penalty.

Objective over factors U (m x r) and V (r x n), with P masking to the
observed entries of A:

    F(U, V) = 0.5 ||P(A - U V)||_F^2
              + lam * sum_ij (1 - exp(-theta |U_ij|))
              + lam * sum_ij (1 - exp(-theta |V_ij|)).

The smooth part is (1, 1)-relatively smooth against the joint kernel
``phi(Z) = c1/4 ||Z||_F^4 + c2/2 ||Z||_F^2`` of the norm-polynomial family
(:mod:`bmme.bregman`), with ``c1 = 3`` and ``c2 = ||P(A)||_F``. The concave
penalty is majorized at the current iterate by a weighted l1 term (weights
``lam * theta * exp(-theta |.|)``), which gives the subproblem a closed form:
soft-threshold, then invert the kernel gradient, which rescales by the
positive root of a scalar cubic.

Internally the factor pair is packed into a single (m + n) x r array
``Z = [U; V^T]`` so the joint kernel and the penalty act entrywise on one
matrix.

Every smooth evaluation and gradient rests on one residual pass over the
observed entries: one gather of V^T's rows, one sparse mat-vec over U's
entries, and a subtraction of A. The gathered rows are the data of an
n_obs x (m r) CSR matrix whose fixed pattern indexes ``U.ravel()``: row e
holds entry e's r products, so the mat-vec sums them left to right from 0,
at every r. Each :class:`McProblem` lazily builds a helper, used by the
packed evaluations (``f_eval``, ``grad``, ``partial_grad``,
:func:`mc_objective_packed`), that holds three things:

- the residual pass's CSR pattern, built once;
- the CSR pattern of the observed entries, built once. The entries are
  row-major, so a gradient's matrix takes the memo's residual array as
  its data;
- a one-entry residual memo keyed by value: a snapshot copy of the last Z,
  a hit only on the same dtype, the same shape and equal entries. A caller
  may update Z in place, so the memo never trusts array identity.

The backtracked solver asks for f and grad f at x̄, then for f at x_new in
the upper check, in the trace objective and at the start of the next step.
With the memo, each of those points costs one pass. The memo sits in the
problem rather than in the solver because the solver sees the trace
objective only as an opaque callable.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix

from .bregman import (BlockKernel, RelSmoothConstants, ValueMemo,
                      _check_problem, cubic_norm_scale)
from .solver import BacktrackingProblem, BlockProblem

__all__ = [
    "McProblem",
    "McState",
    "mc_kernel",
    "surrogate_weights",
    "soft_threshold",
    "cubic_step_scale",
    "mc_surrogate",
    "rmse",
    "mc_random_init",
    "mc_block_problem",
    "mc_backtracking_problem",
    "mc_objective_packed",
    "pack_state",
    "unpack_state",
]


@dataclass(frozen=True)
class McProblem:
    """Observed entries plus factorization rank and penalty weights."""

    observed: object  # ObservedMatrix
    r: int
    lam: float
    theta: float

    def __post_init__(self):
        _check_problem(self.shape, self.r, lam=self.lam, theta=self.theta)

    @property
    def shape(self):
        return (self.observed.rows, self.observed.cols)

    @cached_property
    def _passes(self):
        return _ResidualPasses(self.observed, self.r)


@dataclass(frozen=True)
class McState:
    """Factor pair; U is m x r, V is r x n."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        if self.U.ndim != 2 or self.V.ndim != 2:
            raise ValueError("factors must be 2-D")
        if self.U.shape[1] != self.V.shape[0]:
            raise ValueError(
                f"inner dimensions differ: {self.U.shape} vs {self.V.shape}")


def pack_state(state):
    """Stack the factors into one (m + n) x r block [U; V^T]."""
    return np.vstack([state.U, state.V.T])


def unpack_state(Z, m):
    return McState(U=Z[:m], V=Z[m:].T)


def _pass_pattern(observed, r):
    """CSR indices and indptr of the residual pass at rank r."""
    n = observed.n_obs
    indices = (observed.row_idx[:, None] * r + np.arange(r)).ravel()
    # scipy picks the index dtype here, once, so no pass re-checks it
    A = csr_matrix((np.empty(indices.size), indices, np.arange(n + 1) * r),
                   shape=(n, observed.rows * r))
    return A.indices, A.indptr


def _residuals(observed, U, Vt, pattern=None):
    # predicted minus observed, on observed positions only; U is m x r and
    # Vt is n x r. Row e of the mat-vec is entry e's prediction, its r
    # products summed left to right (module docstring).
    indices, indptr = pattern or _pass_pattern(observed, U.shape[1])
    data = np.take(Vt, observed.col_idx, axis=0)
    res = csr_matrix((data.ravel(), indices, indptr),
                     shape=(indptr.size - 1, U.size)) @ U.ravel()
    res -= observed.values
    return res


class _ResidualPasses:
    """CSR patterns of the observed entries and the last packed residuals."""

    def __init__(self, observed, r):
        # the entries are row-major, so entry e fills slot e of the
        # gradient's CSR matrix; scipy picks the index dtype here, once
        m = observed.rows
        pattern = csr_matrix(
            (np.empty(observed.n_obs), observed.col_idx,
             np.searchsorted(observed.row_idx, np.arange(m + 1))),
            shape=(m, observed.cols))
        self.indices, self.indptr = pattern.indices, pattern.indptr
        # residuals at packed Z: one fresh pass unless Z equals the last Z
        pass_pattern = _pass_pattern(observed, r)
        self.residuals = ValueMemo(
            lambda Z: _residuals(observed, Z[:m], Z[m:], pass_pattern))


def _penalty(lam, theta, M):
    return lam * float(np.sum(1.0 - np.exp(-theta * np.abs(M))))


def _smooth_eval_packed(p, Z):
    res = p._passes.residuals(Z)
    return 0.5 * float(res @ res)


def _smooth_grad_packed(p, Z):
    m, passes = p.observed.rows, p._passes
    R = csr_matrix((passes.residuals(Z), passes.indices, passes.indptr),
                   shape=p.shape)
    return np.vstack([R @ Z[m:], R.T @ Z[:m]])


def mc_kernel(p):
    """Joint kernel 3/4 ||Z||^4 + c2/2 ||Z||^2 on packed factors: (3, ||P(A)||_F).

    The smooth part is (1, 1)-relatively smooth against it for any factor
    pair.
    """
    c2 = p.observed.frobenius()
    if c2 == 0.0:
        raise ValueError("kernel needs at least one nonzero observed entry")
    return BlockKernel(c1=3.0, c2=c2)


def surrogate_weights(M, lam, theta):
    """Majorizer slopes lam * theta * exp(-theta |M|), elementwise."""
    return lam * theta * np.exp(-theta * np.abs(M))


def mc_surrogate(p):
    """Weighted-l1 majorizer ``u(x, y)`` of the packed penalty, anchored at y.

    u(x, y) = g(y) + <w(y), |x| - |y|> with w(y) the surrogate weights; equals
    g at x = y and lies above g everywhere by concavity of t -> 1 - exp(-t).
    """
    lam, theta = p.lam, p.theta

    def u(x, y):
        w = surrogate_weights(y, lam, theta)
        return (_penalty(lam, theta, y)
                + float(np.vdot(w, np.abs(x) - np.abs(y))))

    return u


def soft_threshold(A, B):
    """sign(A) * max(|A| - B, 0) elementwise, with sign(0) = 0."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    if not (B >= 0).all():  # also rejects NaN
        raise ValueError("thresholds must be nonnegative numbers")
    return np.sign(A) * np.maximum(np.abs(A) - B, 0.0)


def cubic_step_scale(c1, c2, s):
    """Unique positive root of ``c1 * s * t^3 + c2 * t - 1 = 0``.

    Its reciprocal rho solves ``rho^2 (rho - c2) = c1 * s``, the cubic of
    :func:`bmme.bregman.cubic_norm_scale`.
    """
    if c1 <= 0 or c2 <= 0 or s < 0:
        raise ValueError("need c1 > 0, c2 > 0, s >= 0")
    return 1.0 / cubic_norm_scale(c2, c1 * s)


def _subproblem_packed(p, kernel, Z_anchor, Z_bar, grad_bar, L):
    # grad phi(Z_new) = -soft(grad f(Zbar) - L * grad phi(Zbar), weights) / L,
    # with the majorizer weights taken at the anchor.
    W = surrogate_weights(Z_anchor, p.lam, p.theta)
    S = soft_threshold(grad_bar - L * kernel.grad(Z_bar), W)
    return kernel.grad_inverse(-S / L)


def rmse(observed, state):
    """Root mean squared error of state.U state.V on the observed entries."""
    if observed.n_obs == 0:
        raise ValueError("no observed entries to evaluate")
    res = _residuals(observed, state.U, state.V.T)
    return float(np.sqrt(res @ res / res.size))


def mc_random_init(p, seed=0):
    """Gaussian factors scaled so U V entries match the data magnitude.

    Warning: ``gen_synthetic_ratings``' own seed redraws its planted factors.
    """
    rng = np.random.default_rng(seed)
    m, n = p.shape
    mean_abs = float(np.mean(np.abs(p.observed.values))) or 1.0
    scale = np.sqrt(mean_abs / np.sqrt(p.r))
    return McState(U=scale * rng.standard_normal((m, p.r)),
                   V=scale * rng.standard_normal((p.r, n)))


def mc_block_problem(p):
    """Single packed BlockProblem with known constants (L, l) = (1, 1).

    Its ``solve_subproblem`` is the only implementation of the completion
    step; it anchors the penalty weights at the current iterate. With
    ``constants_for`` replaced by None, (L, l) are backtracked on the
    ``smooth_eval`` it carries.
    """
    kernel = mc_kernel(p)
    constants = RelSmoothConstants(L=1.0, l=1.0)
    return BlockProblem(
        partial_grad=lambda blocks: _smooth_grad_packed(p, blocks[0]),
        kernel_for=lambda blocks: kernel,
        constants_for=lambda blocks: constants,
        solve_subproblem=lambda blocks, z_bar, g, L, kern:
            _subproblem_packed(p, kern, blocks[0], z_bar, g, L),
        smooth_eval=lambda blocks: _smooth_eval_packed(p, blocks[0]),
    )


def mc_backtracking_problem(p):
    """Packed single-block problem for the backtracked (L, l) solver."""
    kernel = mc_kernel(p)
    return BacktrackingProblem(
        f_eval=lambda Z: _smooth_eval_packed(p, Z),
        grad=lambda Z: _smooth_grad_packed(p, Z),
        kernel=kernel,
        solve_subproblem=lambda z_bar, g, L, z_prev:
            _subproblem_packed(p, kernel, z_prev, z_bar, g, L),
    )


def mc_objective_packed(p):
    """The objective F on the packed representation ``Z = [U; V^T]``."""
    lam, theta = p.lam, p.theta

    def eval_(Z):
        return _smooth_eval_packed(p, Z) + _penalty(lam, theta, Z)

    return eval_
