"""Synthetic data generators and matrix I/O.

All randomness flows through ``numpy.random.default_rng`` (PCG64) seeded
explicitly, so every dataset is reproducible from its seed.
"""

from dataclasses import dataclass

import numpy as np

from .bregman import _check_problem, as_matrix

__all__ = [
    "ObservedMatrix",
    "SyntheticOnmf",
    "gen_synthetic_onmf",
    "gen_synthetic_ratings",
    "train_test_split",
    "load_dense_csv",
    "save_dense_csv",
    "load_matrix_market",
    "save_matrix_market",
    "load_ratings",
]


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
        ri = np.asarray(self.row_idx, dtype=np.int64)
        ci = np.asarray(self.col_idx, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        if not (ri.ndim == ci.ndim == vals.ndim == 1):
            raise ValueError("index/value arrays must be 1-D")
        if not (ri.shape == ci.shape == vals.shape):
            raise ValueError("index/value arrays must have equal length")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
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
        if not np.all(np.isfinite(vals)):
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
    nonempty.

    Returns
    -------
    SyntheticOnmf with fields X, U, V, labels (labels[j] in 1..r is the row
    of V holding column j's nonzero).
    """
    _check_problem((m, n), r)
    if not 0.0 <= noise < np.inf:
        raise ValueError(f"noise must be finite and nonnegative, got {noise!r}")
    rng = np.random.default_rng(seed)
    U = rng.uniform(size=(m, r))
    for _ in range(100):
        ks = rng.integers(0, r, size=n)
        vals = rng.uniform(size=n)
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
        R = rng.uniform(size=(m, n))
        nr = float(np.linalg.norm(R))
        if nr > 0:
            R *= noise * (float(np.linalg.norm(X)) / nr)
            X += R
    return SyntheticOnmf(X=X, U=U, V=V, labels=ks + 1)


def gen_synthetic_ratings(m, n, r, obs_fraction, seed=0):
    """Rank-r matrix with a uniformly sampled fraction of entries observed.

    The full matrix is ``L @ R`` with standard normal factors; round(fraction
    * m * n) distinct positions are drawn without replacement.
    """
    _check_problem((m, n), r)
    if not 0 < obs_fraction <= 1:
        raise ValueError("obs_fraction must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    L, R = rng.standard_normal((m, r)), rng.standard_normal((r, n))
    count = int(round(obs_fraction * m * n))
    count = max(count, 1)
    lin = rng.choice(m * n, size=count, replace=False)
    lin.sort()  # row-major already, so ObservedMatrix need not sort
    ri, ci = np.divmod(lin, n)
    # the product after the draw, so its m x n array and the draw's
    # m * n positions are never alive together
    return ObservedMatrix(rows=m, cols=n, row_idx=ri, col_idx=ci,
                          values=np.take(L @ R, lin))


def train_test_split(observed, fraction, seed=0):
    """Random disjoint split; round(fraction * n_obs) entries go to train."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    n = observed.n_obs
    k = int(round(fraction * n))
    perm = np.random.default_rng(seed).permutation(n)
    # sorted picks keep the entries row-major: ObservedMatrix need not sort
    pick_train = np.sort(perm[:k])
    pick_test = np.sort(perm[k:])

    def take(ix):
        return ObservedMatrix(
            rows=observed.rows, cols=observed.cols,
            row_idx=observed.row_idx[ix], col_idx=observed.col_idx[ix],
            values=observed.values[ix])

    return take(pick_train), take(pick_test)


def save_dense_csv(path, M):
    """Write a dense matrix as comma-separated decimal literals.

    Uses repr-precision formatting so a load/save roundtrip is exact.
    """
    M = as_matrix(M, "matrix")
    with open(path, "w") as fh:
        for row in M:
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")


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


def save_matrix_market(path, observed):
    """Write observations in MatrixMarket coordinate format (1-based)."""
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{observed.rows} {observed.cols} {observed.n_obs}\n")
        for i, j, v in zip(observed.row_idx, observed.col_idx, observed.values):
            fh.write(f"{i + 1} {j + 1} {float(v)!r}\n")


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
    indices in first-appearance order.

    Returns
    -------
    (ObservedMatrix, id_maps) where ``id_maps = {"users": [...], "items":
    [...]}`` records the remapping (position = dense index).
    """
    users, items = {}, {}
    ri, ci, vals = [], [], []
    seen = set()
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
            iu = users.setdefault(u, len(users))
            ii = items.setdefault(it, len(items))
            if (iu, ii) in seen:
                raise ValueError(f"{path}:{ln}: duplicate rating for "
                                 f"({u!r}, {it!r})")
            seen.add((iu, ii))
            ri.append(iu)
            ci.append(ii)
            vals.append(rating)
    if not vals:
        raise ValueError(f"{path}: no ratings found")
    observed = ObservedMatrix(
        rows=len(users), cols=len(items),
        row_idx=np.array(ri, dtype=np.int64),
        col_idx=np.array(ci, dtype=np.int64),
        values=np.array(vals, dtype=np.float64))
    id_maps = {"users": list(users), "items": list(items)}
    return observed, id_maps
