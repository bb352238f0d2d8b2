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
at every r. The mat-vecs and the gradient's two products call the C loops
of ``scipy.sparse._sparsetools`` directly, the same loops ``csr_matrix @``
runs, with no sparse matrix object built per call. Those loops do not check
bounds, so every packed Z is first checked to be float64 of shape
(m + n, r). Each :class:`McProblem` lazily builds a helper, used by the
packed evaluations (``f_eval``, ``grad``, ``partial_grad``,
:func:`mc_objective_packed`), that holds three things:

- the residual pass's index arrays, ``(indptr, indices)`` per part of the
  entries (below), built once;
- the CSR pattern of the observed entries, built once. The entries are
  row-major, so a gradient's products read the memo's residual array in
  place as their data;
- a one-entry residual memo (:class:`bmme.bregman.ValueMemo`) keyed by the
  last Z. The solver's iterates and extrapolated points are read-only and
  own their data, so the memo keeps such a Z by reference and hits it by
  identity: no copy on a fresh pass and no entry compare on a hit. Any
  other Z, which its caller may update in place, costs a fresh pass at
  every call and is never kept. Beside the residuals the memo keeps
  1/2 ||r||^2 once an evaluation has asked for it.

The backtracked solver asks for f and grad f at x̄, then for f at x_new in
the upper check, in the trace objective and at the start of the next step.
With the memo, each of those points costs one pass and one dot product. The
memo sits in the problem rather than in the solver because the solver sees
the trace objective only as an opaque callable. A second one-entry memo
holds exp(-theta |Z|): the trace objective's penalty forms it at x_new, and
the next step's surrogate weights, anchored at that same iterate, read it.

A residual pass runs its parts through :func:`bmme.bregman._shared`, each
part a gather, a mat-vec into its slice of the pass's residual array and
the subtraction of its values. Below ``_SPLIT_SIZE`` entries of the pass
matrix (n_obs r) there is one part, which runs on the calling thread, so
no thread starts. From there on a pass has ``_PARTS`` fixed parts and a
gradient two, its products R V^T and R^T U, each run whole into its rows
of the gradient (split by rows of R, R^T U would reorder its sums); the
calling thread and one pool worker each take the next part not yet
started. Every output entry keeps its operands and its summation order, so
the results are the same bits whichever thread runs which part.
"""

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy.sparse import _sparsetools

from .bregman import (BlockKernel, RelSmoothConstants, ValueMemo,
                      _check_problem, _check_square, _shared)
from .solver import BacktrackingProblem, BlockProblem

__all__ = [
    "McProblem",
    "McState",
    "mc_kernel",
    "surrogate_weights",
    "soft_threshold",
    "mc_surrogate",
    "rmse",
    "mc_random_init",
    "mc_block_problem",
    "mc_objective_packed",
    "pack_state",
    "unpack_state",
]

# n_obs * r, the residual pass's stored entries, from which passes and
# gradients are shared with a worker thread. Per backtracked step (f and
# grad f at x_bar, f at x_new), shared against single in one process
# (medians of 6 interleaved timings, 2 CPUs, r = 2, 5, 10), in phases when
# the second CPU was free: below 0.11M entries sharing lost (1.02-3.9x), at
# 0.13M-0.35M it broke about even (0.79-1.21x), at 0.69M-0.70M it won
# (0.67-0.92x) and at 1.4M by 0.65-0.77x. While the host kept the second
# CPU busy it lost at every size, by 1.06-1.21x from 0.28M on, so the
# threshold sits above the even range. Those timings built csr_matrix
# objects per pass; with the kernels called directly (medians of 8, free
# phases) sharing won by 0.75-0.94x at 0.14M-0.35M, 0.60-0.86x at 0.70M
# and 0.57-0.60x at 1.4M, and lost 1.20x at 0.09M. No busy phase was
# timed on that form, so the threshold stays.
_SPLIT_SIZE = 2**19
# fixed parts of a shared pass's entries: a worker that starts late holds up
# at most the part it took. Each part also costs Python work under the GIL:
# in one-process timings of a form that built each part's matrix per pass,
# 8 parts made a step 2-18% slower than 4. With the kernels called directly,
# from 0.28M entries on, 2 parts ran between 2% faster and 6% slower than 4.
_PARTS = 4


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

    @cached_property
    def _decay(self):
        # exp(-theta |Z|) at the last Z: read by the penalty and the weights
        theta = self.theta
        return ValueMemo(lambda Z: np.exp(-theta * np.abs(Z)))


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


def _checked(Z, observed, r):
    """Z, if it is float64 of shape (m + n, r): the sparse kernels read
    their operands unchecked, so no other array may reach them."""
    want = (observed.rows + observed.cols, r)
    if Z.dtype != np.float64 or Z.shape != want:
        raise ValueError(f"packed factors must be float64 of shape {want}, "
                         f"got {Z.dtype} of shape {Z.shape}")
    return Z


def _index_dtype(bound):
    # int32, as scipy picks for sparse indices, unless a bound needs more
    return np.int32 if bound < 2**31 else np.int64


def _pass_parts(observed, r, k):
    """The residual pass's k parts of the entries: (slice, indptr, indices)
    of the rows of its n_obs x (m r) CSR matrix (module docstring)."""
    idx = _index_dtype(max(observed.n_obs, observed.rows) * r)
    bounds = [observed.n_obs * i // k for i in range(k + 1)]
    parts = []
    for s in map(slice, bounds[:-1], bounds[1:]):
        slots = (observed.row_idx[s, None] * r + np.arange(r)).ravel()
        parts.append((s, np.arange(0, slots.size + 1, r, dtype=idx),
                      slots.astype(idx)))
    return parts


def _residuals(observed, Z, parts):
    # predicted minus observed, on observed positions only, at a checked
    # packed Z. ``parts`` are _pass_parts, which _shared runs; row e of a
    # part's mat-vec is entry e's prediction, its r products summed left to
    # right from the zero it starts at (module docstring).
    m = observed.rows
    U, Vt, res = Z[:m], Z[m:], np.zeros(observed.n_obs)

    def part(s, indptr, indices):
        out = res[s]
        _sparsetools.csr_matvec(indptr.size - 1, U.size, indptr, indices,
                                np.take(Vt, observed.col_idx[s], axis=0), U,
                                out)
        np.subtract(out, observed.values[s], out=out)

    _shared(*(partial(part, *q) for q in parts))
    return res


class _Pass:
    """One pass's residuals, and 1/2 ||r||^2 computed on first use."""

    def __init__(self, res):
        self.res = res

    @cached_property
    def half_sq(self):
        return 0.5 * float(self.res @ self.res)


class _ResidualPasses:
    """CSR patterns of the observed entries and the last packed residuals."""

    def __init__(self, observed, r):
        # the entries are row-major, so entry e is slot e of the gradient's
        # CSR pattern and the residual array is its data as it stands
        m, n_obs = observed.rows, observed.n_obs
        idx = _index_dtype(max(n_obs, m, observed.cols))
        self.indptr = np.searchsorted(observed.row_idx,
                                      np.arange(m + 1)).astype(idx)
        self.indices = observed.col_idx.astype(idx)
        self.split = n_obs * r >= _SPLIT_SIZE
        parts = _pass_parts(observed, r, _PARTS if self.split else 1)
        # residuals at packed Z: one fresh pass unless Z is the last iterate
        self.residuals = ValueMemo(lambda Z: _Pass(
            _residuals(observed, _checked(Z, observed, r), parts)))


def _smooth_eval_packed(p, Z):
    return p._passes.residuals(Z).half_sq


def _smooth_grad_packed(p, Z):
    (m, n), r, passes = p.shape, p.r, p._passes
    res, G = passes.residuals(Z).res, np.zeros((m + n, r))
    R = (passes.indptr, passes.indices, res)
    # R V^T into G's first m rows, R^T U into the rest; R^T U stays one
    # product: split by rows of R, its sums would reorder
    products = (lambda: _sparsetools.csr_matvecs(m, n, r, *R, Z[m:], G[:m]),
                lambda: _sparsetools.csc_matvecs(n, m, r, *R, Z[:m], G[m:]))
    if passes.split:
        _shared(*products)
    else:
        for f in products:
            f()
    return G


def mc_kernel(p):
    """Joint kernel 3/4 ||Z||^4 + c2/2 ||Z||^2 on packed factors: (3, ||P(A)||_F).

    The smooth part is (1, 1)-relatively smooth against it for any factor
    pair. ValueError if P(A) is zero or ||P(A)||_F^2 is not a normal float64.
    """
    with np.errstate(over="ignore"):  # an overflow raises below
        c2 = p.observed.frobenius()
    if c2 == 0.0 and not p.observed.values.any():
        raise ValueError("kernel needs at least one nonzero observed entry")
    _check_square(c2, "||P(A)||_F")
    return BlockKernel(c1=3.0, c2=c2)


def _penalty(p, M):
    """lam * sum(1 - exp(-theta |M|)), the exponentials from ``p._decay``."""
    return p.lam * float(np.sum(1.0 - p._decay(M)))


def surrogate_weights(p, M):
    """Majorizer slopes lam * theta * exp(-theta |M|), from ``p._decay``."""
    return p.lam * p.theta * p._decay(M)


def mc_surrogate(p):
    """Weighted-l1 majorizer ``u(x, y)`` of the packed penalty, anchored at y.

    u(x, y) = g(y) + <w(y), |x| - |y|> with w(y) the surrogate weights; equals
    g at x = y and lies above g everywhere by concavity of t -> 1 - exp(-t).
    """
    return lambda x, y: _penalty(p, y) + float(
        np.vdot(surrogate_weights(p, y), np.abs(x) - np.abs(y)))


def soft_threshold(A, B):
    """sign(A) * max(|A| - B, 0) elementwise, with sign(0) = 0."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    if not (B >= 0).all():  # also rejects NaN
        raise ValueError("thresholds must be nonnegative numbers")
    return np.sign(A) * np.maximum(np.abs(A) - B, 0.0)


def _subproblem_packed(p, kernel, Z_anchor, Z_bar, grad_bar, L):
    # grad phi(Z_new) = -soft(grad f(Zbar) - L * grad phi(Zbar), weights) / L,
    # with the majorizer weights taken at the anchor.
    S = soft_threshold(grad_bar - L * kernel.grad(Z_bar),
                       surrogate_weights(p, Z_anchor))
    return kernel.grad_inverse(-S / L)


def rmse(observed, state):
    """Root mean squared error of state.U state.V on the observed entries."""
    if observed.n_obs == 0:
        raise ValueError("no observed entries to evaluate")
    m, r = observed.rows, state.U.shape[1]
    if state.U.shape[0] != m:
        raise ValueError(f"U has shape {state.U.shape}, the observed matrix "
                         f"{m} rows")
    Z = _checked(np.asarray(pack_state(state), dtype=np.float64), observed, r)
    res = _residuals(observed, Z, _pass_parts(observed, r, 1))
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
    """Packed problem for :func:`bmme.solver.run_backtracking`; not exported,
    kept only for mc-large-bt in ``perfbench/workloads.py`` (ROADMAP 6a)."""
    kernel = mc_kernel(p)
    return BacktrackingProblem(
        f_eval=lambda Z: _smooth_eval_packed(p, Z),
        grad=lambda Z: _smooth_grad_packed(p, Z),
        kernel=kernel,
        solve_subproblem=lambda z_bar, g, L, z_prev:
            _subproblem_packed(p, kernel, z_prev, z_bar, g, L),
    )


def mc_objective_packed(p):
    """The objective F of the block list ``[Z]``, Z the packed
    representation ``[U; V^T]``.

    Its memos cannot see a Z changed through a view kept from before it was
    frozen (:class:`bmme.bregman.ValueMemo`); pass a copy in that case."""
    def eval_(blocks):
        Z = blocks[0]
        return _smooth_eval_packed(p, Z) + _penalty(p, Z)

    return eval_
