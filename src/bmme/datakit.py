"""Synthetic data generators and matrix readers.

The readers take dense CSV, MatrixMarket coordinate and ratings files; write
the first two with ``numpy.savetxt(path, M, delimiter=",", fmt="%.17g")`` and
``scipy.io.mmwrite``, which the readers read back bit for bit.

All randomness flows through ``numpy.random.default_rng`` (PCG64) seeded
explicitly, so every dataset is reproducible from its seed.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .bregman import _all_finite, _check_problem, _number, as_matrix

__all__ = [
    "ObservedMatrix",
    "SyntheticOnmf",
    "gen_synthetic_onmf",
    "gen_synthetic_ratings",
    "train_test_split",
    "load_dense_csv",
    "load_matrix_market",
    "load_ratings",
]

# Rows of L @ R that gen_synthetic_ratings forms at once, a multiple of 16.
# A tail shorter than 16 rows joins the block before it: a 1-row tail went
# through gemv, which changed bits at m = 65 and 257.
_GEN_BLOCK = 64
_GEN_MIN_TAIL = 16


@dataclass(frozen=True)
class ObservedMatrix:
    """Sparse set of observed entries of a rows-by-cols matrix, stored
    row-major whatever order they come in: results depend on the set only."""

    rows: int
    cols: int
    row_idx: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("rows", "cols"):
            v = getattr(self, name)
            if not (_number(v, numbers.Integral) and v >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        ri = _indices(self.row_idx, "row_idx")
        ci = _indices(self.col_idx, "col_idx")
        vals = np.asarray(self.values, dtype=np.float64)
        if not (ri.ndim == ci.ndim == vals.ndim == 1):
            raise ValueError("index/value arrays must be 1-D")
        if not (ri.shape == ci.shape == vals.shape):
            raise ValueError("index/value arrays must have equal length")
        if ri.size:
            if ri.min() < 0 or ri.max() >= self.rows:
                raise ValueError("row index out of range")
            if ci.min() < 0 or ci.max() >= self.cols:
                raise ValueError("column index out of range")
            # strictly increasing positions are distinct; sort only others
            lin = ri * self.cols + ci
            if not (lin[1:] > lin[:-1]).all():
                order = np.argsort(lin)
                if (np.diff(lin[order]) == 0).any():
                    raise ValueError("duplicate observed entries")
                ri, ci, vals = ri[order], ci[order], vals[order]
        if not _all_finite(vals):
            raise ValueError("observed values contain non-finite entries")
        object.__setattr__(self, "row_idx", ri)
        object.__setattr__(self, "col_idx", ci)
        object.__setattr__(self, "values", vals)

    @property
    def n_obs(self):
        return int(self.values.size)

    def frobenius(self):
        """Frobenius norm of the observed part."""
        return float(np.linalg.norm(self.values))


def _indices(a, name):
    """``a`` as int64, copied only if not already; ValueError naming ``name``
    unless every entry is an integer (integral floats pass, bools do not)."""
    a = np.asarray(a)
    if a.dtype.kind in "iu":
        return a.astype(np.int64, copy=False)
    if a.dtype.kind != "f":
        raise ValueError(f"{name} must hold integers, got dtype {a.dtype}")
    with np.errstate(invalid="ignore"):  # NaN, inf and |a| >= 2^63 differ
        out = a.astype(np.int64)
    bad = out != a
    if bad.any():
        raise ValueError(f"{name} must hold integers, got {float(a[bad][0])!r}")
    return out


@dataclass(frozen=True)
class SyntheticOnmf:
    X: np.ndarray
    U: np.ndarray
    V: np.ndarray
    labels: np.ndarray  # 1-based cluster id per column


def gen_synthetic_onmf(m, n, r, noise=0.05, seed=0):
    """Clustered nonnegative data X = U V + noise * (||UV||_F / ||R||_F) R.

    U is uniform [0,1]; V has a single uniform-[0,1] nonzero per column (the
    column's cluster) and unit-norm rows, so V V^T = I exactly; R is uniform
    [0,1] dense noise. Redraws V up to 100 times until every cluster is
    nonempty. Each [0, 1) draw is ``rng.random``, the same stream and
    doubles as ``rng.uniform(0, 1)`` (which returns 0.0 + 1.0 u) without its
    per-element affine step.

    Returns
    -------
    SyntheticOnmf with fields X, U, V, labels (labels[j] in 1..r is the row
    of V holding column j's nonzero).
    """
    _check_problem((m, n), r)
    if not (_number(noise) and 0.0 <= noise < np.inf):
        raise ValueError(f"noise must be finite and nonnegative, got {noise!r}")
    rng = np.random.default_rng(seed)
    U = rng.random((m, r))
    for _ in range(100):
        ks = rng.integers(0, r, size=n)
        vals = rng.random(n)
        V = np.zeros((r, n))
        V[ks, np.arange(n)] = vals
        row_norms = np.linalg.norm(V, axis=1)
        if np.unique(ks).size == r and np.all(row_norms > 0):
            break
    else:
        raise RuntimeError(f"could not draw {r} nonempty clusters over "
                           f"{n} columns in 100 attempts")
    V /= row_norms[:, None]
    X = U @ V
    if noise > 0:
        R = rng.random((m, n))
        nr = float(np.linalg.norm(R))
        if nr > 0:
            R *= noise * (float(np.linalg.norm(X)) / nr)
            X += R
    return SyntheticOnmf(X=X, U=U, V=V, labels=ks + 1)


def gen_synthetic_ratings(m, n, r, obs_fraction, seed=0):
    """Rank-r matrix with a uniformly sampled fraction of entries observed.

    The full matrix is ``L @ R`` with standard normal factors; round(fraction
    * m * n) distinct positions are drawn without replacement.

    The sampled values are taken from ``L[a:b] @ R`` one block of about
    ``_GEN_BLOCK`` rows at a time, so no m x n float array is formed. On
    some shapes a block's product differs from the whole product's rows in
    the last bits, because OpenBLAS picks another kernel for the block: with
    OpenBLAS 0.3.31 (Haswell kernels, one thread) that happened for m > 64
    at n in {255, 257, 500, 511, 513, 517, 999, 1001}, and at no multiple
    of 8 checked. The position draw still shuffles ``arange(m * n)``, an
    O(m * n) term (32 MB at 2000 x 2000, the set-up's peak); another draw
    would change every instance.
    """
    _check_problem((m, n), r)
    if not (_number(obs_fraction) and 0 < obs_fraction <= 1):
        raise ValueError(
            f"obs_fraction must lie in (0, 1], got {obs_fraction!r}")
    rng = np.random.default_rng(seed)
    L, R = rng.standard_normal((m, r)), rng.standard_normal((r, n))
    count = int(round(obs_fraction * m * n))
    count = max(count, 1)
    lin = rng.choice(m * n, size=count, replace=False)
    lin.sort()  # row-major already, so ObservedMatrix need not sort
    ri, ci = np.divmod(lin, n)
    # block k is rows edges[k]:edges[k+1]; none starts in the last
    # _GEN_MIN_TAIL - 1 rows. Its entries are cuts[k]:cuts[k+1].
    edges = [*range(0, max(m - _GEN_MIN_TAIL + 1, 1), _GEN_BLOCK), m]
    cuts = np.searchsorted(ri, edges)
    values = np.empty(count)
    block = np.empty((max(np.diff(edges)), n))
    for a, b, lo, hi in zip(edges, edges[1:], cuts, cuts[1:]):
        prod = np.matmul(L[a:b], R, out=block[:b - a])
        np.take(prod, lin[lo:hi] - a * n, out=values[lo:hi])
    return ObservedMatrix(rows=m, cols=n, row_idx=ri, col_idx=ci,
                          values=values)


def train_test_split(observed, fraction, seed=0):
    """Random disjoint split; round(fraction * n_obs) entries go to train."""
    if not (_number(fraction) and 0.0 <= fraction <= 1.0):
        raise ValueError(f"fraction must lie in [0, 1], got {fraction!r}")
    n = observed.n_obs
    k = int(round(fraction * n))
    perm = np.random.default_rng(seed).permutation(n)
    # a mask reads both halves in increasing order, as np.sort(perm[:k])
    # and np.sort(perm[k:]) would: the entries stay row-major
    in_train = np.zeros(n, dtype=bool)
    in_train[perm[:k]] = True
    pick_train = np.flatnonzero(in_train)
    pick_test = np.flatnonzero(~in_train)

    def take(ix):
        return ObservedMatrix(
            rows=observed.rows, cols=observed.cols,
            row_idx=observed.row_idx[ix], col_idx=observed.col_idx[ix],
            values=observed.values[ix])

    return take(pick_train), take(pick_test)


def load_dense_csv(path):
    """Read a dense comma-separated matrix; rejects ragged or non-numeric rows."""
    rows = []
    width = None
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise ValueError(
                    f"{path}:{ln}: expected {width} columns, got {len(parts)}")
            try:
                rows.append([float(tok) for tok in parts])
            except ValueError:
                raise ValueError(f"{path}:{ln}: non-numeric entry") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return as_matrix(np.array(rows, dtype=np.float64), "matrix")


_MM_HEADER = "%%MatrixMarket"


def load_matrix_market(path):
    """Read a MatrixMarket 'coordinate real general' file into ObservedMatrix."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith(_MM_HEADER):
            raise ValueError(f"{path}:1: not a MatrixMarket file")
        fields = header.split()
        want = ["matrix", "coordinate", "real", "general"]
        if [f.lower() for f in fields[1:5]] != want:
            raise ValueError(
                f"{path}:1: unsupported MatrixMarket type {fields[1:]}; "
                f"need 'matrix coordinate real general'")
        size = None
        ri, ci, vals = [], [], []
        seen = set()
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            parts = line.split()
            if size is None:
                if len(parts) != 3:
                    raise ValueError(f"{path}:{ln}: malformed size line")
                try:
                    size = tuple(int(tok) for tok in parts)
                except ValueError:
                    raise ValueError(f"{path}:{ln}: malformed size line") from None
                continue
            if len(parts) != 3:
                raise ValueError(f"{path}:{ln}: expected 'i j value'")
            try:
                i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ValueError(f"{path}:{ln}: malformed entry") from None
            if not (1 <= i <= size[0] and 1 <= j <= size[1]):
                raise ValueError(f"{path}:{ln}: index ({i}, {j}) out of range")
            if (i, j) in seen:
                raise ValueError(f"{path}:{ln}: duplicate entry ({i}, {j})")
            seen.add((i, j))
            ri.append(i - 1)
            ci.append(j - 1)
            vals.append(v)
        if size is None:
            raise ValueError(f"{path}: missing size line")
        if len(vals) != size[2]:
            raise ValueError(
                f"{path}: header promises {size[2]} entries, found {len(vals)}")
    return ObservedMatrix(rows=size[0], cols=size[1],
                          row_idx=np.array(ri, dtype=np.int64),
                          col_idx=np.array(ci, dtype=np.int64),
                          values=np.array(vals, dtype=np.float64))


def load_ratings(path):
    """Read 'user<TAB or ::>item<sep>rating[<sep>timestamp]' lines.

    User/item ids may be arbitrary tokens; they are remapped to dense 0-based
    indices in the sorted order of the tokens, so the order of the lines
    changes neither the indices nor the run.

    Returns
    -------
    (ObservedMatrix, id_maps) where ``id_maps = {"users": [...], "items":
    [...]}`` records the remapping (position = dense index).
    """
    ratings = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("::") if "::" in line else line.split("\t")
            if len(parts) not in (3, 4):
                raise ValueError(
                    f"{path}:{ln}: expected user/item/rating"
                    f"[/timestamp], got {len(parts)} fields")
            u, it = parts[0].strip(), parts[1].strip()
            if not u or not it:
                raise ValueError(f"{path}:{ln}: empty user or item id")
            try:
                rating = float(parts[2])
            except ValueError:
                raise ValueError(f"{path}:{ln}: non-numeric rating") from None
            if (u, it) in ratings:
                raise ValueError(f"{path}:{ln}: duplicate rating for "
                                 f"({u!r}, {it!r})")
            ratings[u, it] = rating
    if not ratings:
        raise ValueError(f"{path}: no ratings found")
    users = sorted({u for u, _ in ratings})
    items = sorted({it for _, it in ratings})
    row = {u: k for k, u in enumerate(users)}
    col = {it: k for k, it in enumerate(items)}
    observed = ObservedMatrix(
        rows=len(users), cols=len(items),
        row_idx=np.array([row[u] for u, _ in ratings], dtype=np.int64),
        col_idx=np.array([col[it] for _, it in ratings], dtype=np.int64),
        values=np.array(list(ratings.values()), dtype=np.float64))
    id_maps = {"users": users, "items": items}
    return observed, id_maps
