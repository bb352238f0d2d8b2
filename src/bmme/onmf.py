"""Penalized orthogonal NMF solved by block Bregman majorization.

The problem is

    min_{U >= 0, V >= 0}  0.5 ||X - U V||_F^2 + 0.5 lam ||I - V V^T||_F^2,

whose V-block smooth part is a quartic. Both blocks use kernels of the
norm-polynomial family ``phi = c1/4 ||.||_F^4 + c2/2 ||.||_F^2`` of
:mod:`bmme.bregman`. The U block is plain Lipschitz with constant
``||V V^T||_2`` against the Euclidean kernel (c1, c2) = (0, 1). The V block
is (1, 1)-relatively smooth against (c1, c2) = (6 lam, eps(U)) with
``eps(U) = max(||U^T U||_2, 2 lam)``. The r x r spectral norms are exact:
LAPACK ``dgesdd``, called through the gufunc that ``np.linalg.svd`` wraps,
so they equal numpy's to the last bit without the wrapper's overhead. eps(U)
skips its SVD when ||U||_F^2, an upper bound on ||U^T U||_2, already clears
2 lam by a rounding margin, and the V block builds a new kernel only when
eps(U) changes (in the paper's setting it stays 2 lam).
Both block updates have closed forms: a projected gradient step for U, and
for V the kernel-gradient inverse of the positive part of

    G = grad phi(Vbar) - grad_V f(U, Vbar) / L,

that is ``max(G, 0)`` divided by the root of ``rho^2 (rho - eps(U)) = c``
with ``c = 6 lam ||max(G, 0)||_F^2``.

The gradients read X only as X V^T and U^T X. Each :class:`OnmfProblem`
lazily builds ``_products``: ||X||_F^2 and a one-entry memo of each product
and of each Gram, U^T U and V V^T, keyed by its factor. The solver's
iterates are read-only and own their data, so a memo keeps one by
reference and hits it by identity; any other factor, such as a writeable
one a caller passes, is computed afresh at every call and never kept
(:class:`bmme.bregman.ValueMemo`). Each Gram of an iterate is thus formed
once, and read by the U constants, the SVD path of the V kernel weight, both
gradients and the objective. The objective at the end of a sweep finds U^T X
in its memo and takes the Gram form ||X - U V||^2 =
||X||^2 - 2 <U^T X, V> + <U^T U, V V^T>, so a sweep reads X twice. At the
start neither product is there: the objective computes X (V^0)^T through the
memo, and sweep 1's U gradient reuses it, so no run forms X - U^0 V^0. The
form errs by a few eps ||X||^2, so a fit below 1e-5 (||X||^2 + <U^T U,
V V^T>) is recomputed from the residual. ``smooth_eval`` always forms the
residual: the line search's gap must shrink with ||x - xbar||, and the Gram
error does not.

From ``_SPLIT_SIZE`` entries of X on, the sweep still reads X twice, but
each read runs in two fixed halves that the calling thread and one pool
worker take in turn (:func:`bmme.bregman._shared`): U^T X by column halves
of X, X V^T by row halves. Each output entry is still one BLAS dot product
over the full inner dimension, and the halves do not depend on which thread
runs them, so neither do the results.

The starting point comes from successive projection (SPA), in the recursive
form of Gillis & Vavasis (2014): each pick reads X once, as one product
X d, and no deflated copy of X is made. A pick is rejected as rank deficient
when its explicitly formed residual, not the updated norm estimate, falls
to the floor (1e-12 ||X||_F)^2.
"""

from dataclasses import dataclass
from functools import cached_property, partial
from types import SimpleNamespace

import numpy as np

from .bregman import (
    BlockKernel,
    RelSmoothConstants,
    ValueMemo,
    _all_finite,
    _check_problem,
    _check_square,
    _shared,
    as_matrix,
    quadratic_kernel,
)
from .solver import _EPS, BlockProblem

__all__ = [
    "OnmfProblem",
    "onmf_objective",
    "spectral_norm",
    "onmf_constants_U",
    "v_kernel_weight",
    "v_block_kernel",
    "spa_select_rows",
    "spa_init",
    "predict_clusters",
    "clustering_accuracy",
    "onmf_block_problems",
    "default_lambda",
]

_L1_FLOOR = 1e-12
_TINY = float(np.finfo(np.float64).smallest_subnormal)
# X.size from which each X product runs in two halves shared with a pool
# worker. Measured when each half ran on its own worker thread: on
# the n-doubling sweep at m = 200 (2 CPUs) the split lost at every n up to
# 3200 (0.64M entries); from 6400 on it won at r = 10 and broke about even
# at r = 5. At 1000x2000, r = 10, it won, by an amount that depends on how
# busy the host keeps the second CPU: in-process onmf-large solves took
# 0.70 s split against 0.90 s single (medians of 7 interleaved solves) in a
# fast phase, but 1.08-1.09 s against 0.97-0.99 s (3 pairs) in a slow one.
_SPLIT_SIZE = 2**20
# The singular values of a real matrix by LAPACK dgesdd: the gufunc that
# np.linalg.svd calls without singular vectors (numpy >= 2); None elsewhere
try:
    from numpy.linalg._umath_linalg import svd as _dgesdd_values
except ImportError:
    _dgesdd_values = None


@dataclass(frozen=True)
class OnmfProblem:
    """Data matrix, factorization rank, and orthogonality penalty weight."""

    X: np.ndarray
    r: int
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "X", as_matrix(self.X, "X"))
        _check_problem(self.X.shape, self.r, lam=self.lam)

    @cached_property
    def _products(self):
        X = self.X
        return SimpleNamespace(xx=float(np.vdot(X, X)),
                               UtX=ValueMemo(lambda U: _utx(U, X)),
                               XVt=ValueMemo(lambda V: _xvt(V, X)),
                               UtU=ValueMemo(lambda U: U.T @ U),
                               VVt=ValueMemo(lambda V: V @ V.T))


def _halves(n):
    """The two slices splitting range(n) on a multiple of 16.

    OpenBLAS takes the split dimension in tiles and sums a remainder tile in
    another order; off a multiple of 8, entries next to the split changed in
    their last bits. With a split side of up to about 300 lines the halves
    can still differ from the single call in the last bits (seen at r <= 3
    and r >= 12).
    """
    h = n // 2 // 16 * 16
    return slice(0, h), slice(h, n)


def _utx(U, X):
    if X.size < _SPLIT_SIZE:
        return U.T @ X
    out = np.empty((U.shape[1], X.shape[1]))
    _shared(*(partial(np.matmul, U.T, X[:, s], out=out[:, s])
              for s in _halves(X.shape[1])))
    return out


def _xvt(V, X):
    # X V^T as (V X^T)^T: BLAS reads X in place instead of packing it
    # (1.7 against 2.8 ms at 1000x2000, r = 10), with the same values
    return _utx(V.T, X.T).T


def _nonnegative(x):
    # (x >= 0).all() without the boolean array: the least entry, or 0 for
    # an empty x, is NaN if any entry is
    return np.minimum.reduce(x, axis=None, initial=0.0) >= 0.0


def _objective(p, U, V, fit, VVt):
    if fit is None:
        R = p.X - U @ V
        fit = float(np.vdot(R, R))
    # I - V V^T: 1 + (-g) is 1 - g exactly, and the square hides the sign
    # of an off-diagonal -0.0
    O = -VVt
    O.ravel()[::V.shape[0] + 1] += 1.0
    return 0.5 * fit + 0.5 * p.lam * float(np.vdot(O, O))


def onmf_objective(p, U, V):
    """0.5 ||X - U V||_F^2 + 0.5 lam ||I_r - V V^T||_F^2.

    The fit takes the Gram form: through U^T X when U hits the product
    memo, else through X V^T, which the memo computes if V misses too (at a
    solver's start, where the first U gradient reuses it). Both Grams come
    from their memos; V V^T serves the Gram fit and the orthogonality term.
    The memos cannot see a factor changed through a view kept from before
    it was frozen (:class:`bmme.bregman.ValueMemo`); pass copies then.
    """
    prod = p._products
    VVt = prod.VVt(V)
    if prod.UtX.hit(U):
        cross = float(np.vdot(prod.UtX.value, V))
    else:
        cross = float(np.vdot(U, prod.XVt(V)))
    gram = float(np.vdot(prod.UtU(U), VVt))
    fit = prod.xx - 2.0 * cross + gram
    return _objective(p, U, V, None if fit < 1e-5 * (prod.xx + gram) else fit,
                      VVt)


def spectral_norm(M):
    """Largest singular value of a 2-D array, exact (an SVD; inputs are r x r).

    An iterative estimate falls below it, and each L built on it must be an
    upper bound. The value comes from LAPACK ``dgesdd`` without singular
    vectors, called through the gufunc that ``np.linalg.svd`` wraps
    (``_dgesdd_values``), so it is the one ``np.linalg.norm(M, 2)`` gives,
    bit for bit; the wrapper's own checks and casts, which take longer than
    the SVD of a 5 x 5 matrix itself, are skipped. A failed SVD comes back
    as NaN with the invalid flag raised; ``np.linalg.svd`` turns that flag
    into its error, while here every flag is ignored and the NaN raises the
    same error. Where numpy has no such gufunc (numpy 1.x names it
    otherwise), ``np.linalg.svd`` itself is called. Raises
    ``numpy.linalg.LinAlgError`` if the SVD does not converge.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError("spectral_norm expects a 2-D array")
    if not _all_finite(M):
        raise ValueError("spectral_norm input has non-finite entries")
    if M.size == 0:
        return 0.0
    if _dgesdd_values is None:
        return float(np.linalg.svd(M, compute_uv=False)[0])
    with np.errstate(all="ignore"):
        s = float(_dgesdd_values(M, signature="d->d")[0])
    if s != s:
        raise np.linalg.LinAlgError("SVD did not converge")
    return s


def onmf_constants_U(V, VVt=None):
    """(L, l) = (||V V^T||_2, 0) for the U block, floored away from zero.

    ``VVt``, if given, is ``V @ V.T`` as the caller already formed it."""
    return RelSmoothConstants(
        L=max(spectral_norm(V @ V.T if VVt is None else VVt), _L1_FLOOR),
        l=0.0)


def v_kernel_weight(U, lam, UtU=None):
    """Quadratic-term weight max(||U^T U||_2, 2 lam) of the V-block kernel.

    Also the kernel's strong-convexity modulus. The result is always
    ``max(spectral_norm(U.T @ U), 2 lam)``, bit for bit; ``UtU``, if given,
    is ``U.T @ U`` as the caller already formed it. One dot product screens
    out the Gram's SVD: ||U^T U||_2 <= trace(U^T U) =
    ||U||_F^2, so 2 lam is the max whenever fl(||U||_F^2) clears it by
    more than every rounding between the two.

    The margin. Let u be the unit roundoff, U be m x r with N = m r
    entries, F = ||U||_F^2 and f = fl(<U, U>). A dot product of N
    nonnegative terms errs by at most N u F in any summation order, so
    F <= f (1 + N u). The Gram's entries err by at most m u (|U|^T |U|),
    whose Frobenius norm is at most F, so ||fl(U^T U)||_2 <= F (1 + m u).
    ``dgesdd`` returns the singular values of fl(U^T U) + E with
    ||E||_2 <= p(r) u ||fl(U^T U)||_2: Householder bidiagonalization gives
    p(r) of order r^2.5, and the bidiagonal's singular values come with a
    relative error of a few r u. So the computed ||U^T U||_2 is at most
    f (1 + (N + m + p(r)) u) to first order. The screen's factor
    1 + 8 u (N + m + r^3 + 8) exceeds that, with room for the second-order
    terms and its own roundings. Gradual underflow adds at most half the
    subnormal spacing s to each product: N s / 2 to f, and N s / 2 to the
    Gram in Frobenius norm (r^2 entries of m products). The screen adds
    2 N s, and ``dgesdd`` scales a tiny matrix up before it bidiagonalizes.
    A non-finite f fails the screen, so the SVD still raises as it would;
    a U that is not 2-D float64 is not screened.
    """
    two_lam = 2.0 * lam
    if U.dtype == np.float64 and U.ndim == 2:
        (m, r), n = U.shape, U.size
        bound = (float(np.vdot(U, U)) * (1.0 + 8.0 * _EPS * (n + m + r**3 + 8))
                 + 2.0 * n * _TINY)
        if bound < two_lam:
            return two_lam
    return max(spectral_norm(U.T @ U if UtU is None else UtU), two_lam)


def v_block_kernel(U, lam):
    """V-block kernel (6 lam / 4) ||V||^4 + 0.5 eps(U) ||V||^2: (6 lam, eps(U))."""
    return BlockKernel(c1=6.0 * lam, c2=v_kernel_weight(U, lam))


def spa_select_rows(X, r):
    """Successive projection: indices of r informative rows of X.

    Each pick is the row with the largest residual norm, its norm after
    projection onto the orthogonal complement of the rows picked so far. The
    recursion of Gillis & Vavasis (2014) keeps no deflated copy of X: it
    keeps the picked directions Q (orthonormal rows) and P = X Q^T, forms
    the picked row's residual y = x - (x Q^T) Q explicitly (orthogonalized
    twice), and updates the squared residual norms of all rows by
    (X d - P Q d)^2 with d = y / ||y||, one pass over X per pick.

    The rank floor is checked on ||y||^2, the explicit residual. The updated
    norms carry about eps ||x_i||^2 of error, far above the floor, and serve
    only to choose the pick. ValueError if X is zero or ||X||_F^2, which
    bounds every squared row norm, is not a normal float64.
    """
    return _spa_rows(as_matrix(X, "X"), r)


def _spa_rows(X, r):
    # spa_select_rows on an X that as_matrix has already validated
    m, n = X.shape
    _check_problem((m, n), r)
    with np.errstate(over="ignore"):  # an overflow raises below
        total = float(np.linalg.norm(X))
    if total == 0.0 and not X.any():
        raise ValueError("X is identically zero; no informative rows")
    _check_square(total, "||X||_F")
    floor = (1e-12 * total) ** 2
    norms2 = np.einsum("ij,ij->i", X, X)
    Q = np.zeros((r, n))
    P = np.zeros((m, r))
    selected = []
    for k in range(r):
        pick = int(np.argmax(norms2))
        y = X[pick].copy()
        for _ in range(2):
            y -= (Q[:k] @ y) @ Q[:k]
        yy = float(y @ y)
        if yy <= floor:
            raise ValueError(f"only {k} informative rows found, need {r}")
        d = y / np.sqrt(yy)
        Xd = X @ d
        norms2 -= (Xd - P[:, :k] @ (Q[:k] @ d)) ** 2
        norms2[pick] = -np.inf
        Q[k], P[:, k] = d, Xd
        selected.append(pick)
    return selected


def spa_init(X, r):
    """Initial factors: V0 = unit-normalized selected rows, U0 = max(X V0^T, 0)."""
    X = as_matrix(X, "X")
    rows = _spa_rows(X, r)
    V0 = X[rows].copy()
    V0 /= np.linalg.norm(V0, axis=1, keepdims=True)
    U0 = np.maximum(X @ V0.T, 0.0)
    return U0, V0


def predict_clusters(V):
    """Per-column cluster ids (1-based): argmax row of V, first row on ties."""
    V = as_matrix(V, "V")
    return np.argmax(V, axis=0) + 1


def _labels(name, labels):
    """``labels`` as int64, if integer-typed or floats equal to integers."""
    a = np.asarray(labels)
    if not np.issubdtype(a.dtype, np.integer):
        if not (np.issubdtype(a.dtype, np.floating)
                and np.isfinite(a).all() and (a == np.round(a)).all()):
            raise ValueError(f"{name} must hold integer cluster ids")
    return a.astype(np.int64)


def _max_assignment(W):
    """Largest sum of W[i, pi(i)] over permutations pi of a square int64 W.

    Hungarian method (Kuhn 1955) as shortest augmenting paths (Jonker &
    Volgenant 1987) on costs -W, 1-based, column 0 holding the row being
    added: O(k^2) Python steps, each a vector update over the columns.
    """
    k = W.shape[0]
    a = np.pad(-W, ((1, 0), (1, 0)))
    u, v = np.zeros((2, k + 1), dtype=np.int64)
    p, way = np.zeros((2, k + 1), dtype=np.intp)
    big = np.iinfo(np.int64).max
    for i in range(1, k + 1):
        p[0], j0 = i, 0
        minv, used = np.full(k + 1, big), np.zeros(k + 1, dtype=bool)
        while p[j0]:  # Dijkstra on reduced costs until a free column
            used[j0] = True
            cur = a[p[j0]] - u[p[j0]] - v
            closer = ~used & (cur < minv)
            minv[closer], way[closer] = cur[closer], j0
            j0 = int(np.argmin(np.where(used, big, minv)))
            delta = minv[j0]
            u[p[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
        while j0:  # flip the matches along the path back to column 0
            p[j0], j0 = p[way[j0]], way[j0]
    return int(W[p[1:] - 1, np.arange(k)].sum())


def clustering_accuracy(labels_true, labels_pred):
    """Best label-matching agreement rate between two clusterings.

    Maximizes ``(1/n) * #{j : pred[j] == pi(true[j])}`` over permutations
    ``pi`` of the 1-based cluster ids, solved exactly by the Hungarian method
    (:func:`_max_assignment`) on the confusion matrix of the ids present: ids
    neither labeling uses cannot change the optimum.
    """
    t = _labels("labels_true", labels_true)
    q = _labels("labels_pred", labels_pred)
    if t.ndim != 1 or t.shape != q.shape:
        raise ValueError("label arrays must be 1-D and equally long")
    if t.size == 0:
        raise ValueError("label arrays are empty")
    if t.min() < 1 or q.min() < 1:
        raise ValueError("cluster ids must be >= 1")
    ids, both = np.unique(np.concatenate([t, q]), return_inverse=True)
    conf = np.bincount(both[:t.size] * ids.size + both[t.size:],
                       minlength=ids.size ** 2).reshape(ids.size, ids.size)
    return _max_assignment(conf) / t.size


def default_lambda(X, U0, V0):
    """Penalty weight ||X - U0 V0||_F^2 / r from an initialization."""
    R = X - U0 @ V0
    return float(np.vdot(R, R)) / V0.shape[0]


def onmf_block_problems(p):
    """Two BlockProblems (U first, then V) wired to the closed-form updates.

    These closures are the only implementation of the two block updates.
    Both blocks carry the whole objective as ``smooth_eval`` (it is all
    smooth; nonnegativity is the feasible set), so either may backtrack;
    it always forms the residual X - U V.

    The V block's ``kernel_for`` computes eps(U) on every call but builds a
    new :class:`BlockKernel` only when eps(U) differs from the last kernel's
    c2; otherwise it returns that kernel again, equal to the one
    :func:`v_block_kernel` would build. In the paper's setting eps(U) is
    2 lam on every sweep, so one kernel serves the whole run.
    """
    lam = p.lam
    euclid = quadratic_kernel()

    def smooth_eval(blocks):
        U, V = blocks
        return _objective(p, U, V, None, p._products.VVt(V))

    def u_grad(blocks):
        U, V = blocks
        prod = p._products
        return U @ prod.VVt(V) - prod.XVt(V)

    def u_solve(blocks, x_bar, grad_bar, L, kernel):
        return np.maximum(x_bar - grad_bar / L, 0.0)

    u_block = BlockProblem(
        partial_grad=u_grad,
        kernel_for=lambda blocks: euclid,
        constants_for=lambda blocks: onmf_constants_U(
            blocks[1], p._products.VVt(blocks[1])),
        solve_subproblem=u_solve,
        feasible=_nonnegative,
        smooth_eval=smooth_eval,
    )

    v_constants = RelSmoothConstants(L=1.0, l=1.0)
    v_kernel = BlockKernel(c1=6.0 * lam, c2=2.0 * lam)  # the last one built

    def v_kernel_for(blocks):
        nonlocal v_kernel
        U = blocks[0]
        kernel, eps = v_kernel, v_kernel_weight(U, lam, p._products.UtU(U))
        if eps != kernel.c2:
            kernel = v_kernel = BlockKernel(c1=6.0 * lam, c2=eps)
        return kernel

    def v_grad(blocks):
        # V is Vbar, whose Gram serves only here: through the memo it would
        # keep Vbar alive until the objective replaced it
        U, V = blocks
        prod = p._products
        return (prod.UtU(U) @ V - prod.UtX(U)
                + 2.0 * lam * ((V @ V.T) @ V - V))

    def v_solve(blocks, x_bar, grad_bar, L, kernel):
        return kernel.grad_inverse(
            np.maximum(kernel.grad(x_bar) - grad_bar / L, 0.0))

    v_block = BlockProblem(
        partial_grad=v_grad,
        kernel_for=v_kernel_for,
        constants_for=lambda blocks: v_constants,
        solve_subproblem=v_solve,
        feasible=_nonnegative,
        smooth_eval=smooth_eval,
    )
    return [u_block, v_block]
