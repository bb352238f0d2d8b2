"""Tests for synthetic data generation and the three on-disk formats."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bmme.datakit import (
    ObservedMatrix,
    gen_synthetic_onmf,
    gen_synthetic_ratings,
    load_dense_csv,
    load_matrix_market,
    load_ratings,
    save_dense_csv,
    save_matrix_market,
    train_test_split,
)


def _uniform_onmf(m, n, r, noise, seed):
    """gen_synthetic_onmf's X, U, V written with rng.uniform draws."""
    rng = np.random.default_rng(seed)
    U = rng.uniform(size=(m, r))
    while True:
        ks = rng.integers(0, r, size=n)
        V = np.zeros((r, n))
        V[ks, np.arange(n)] = rng.uniform(size=n)
        norms = np.linalg.norm(V, axis=1)
        if np.unique(ks).size == r and np.all(norms > 0):
            break
    V /= norms[:, None]
    X = U @ V
    if noise > 0:
        R = rng.uniform(size=(m, n))
        R *= noise * (float(np.linalg.norm(X)) / float(np.linalg.norm(R)))
        X += R
    return X, U, V


class TestSyntheticOnmf:
    # onmf-large's instance, onmf-small's (also the CLI default), a shape
    # the ONMF tests solve, and two odd shapes without and with heavy noise
    @pytest.mark.parametrize("m, n, r, noise, seed", [
        (1000, 2000, 10, 0.05, 1), (100, 100, 5, 0.05, 1),
        (60, 60, 3, 0.05, 7), (40, 120, 4, 0.0, 2), (31, 17, 2, 0.3, 5)])
    def test_draws_equal_the_uniform_formula(self, m, n, r, noise, seed):
        syn = gen_synthetic_onmf(m, n, r, noise=noise, seed=seed)
        for got, want in zip((syn.X, syn.U, syn.V),
                             _uniform_onmf(m, n, r, noise, seed)):
            assert np.array_equal(got, want)

    def test_noise_free_product_is_exact(self):
        syn = gen_synthetic_onmf(12, 8, 3, noise=0.0, seed=7)
        assert np.array_equal(syn.X, syn.U @ syn.V)

    def test_rows_of_V_are_orthonormal(self):
        syn = gen_synthetic_onmf(15, 20, 4, noise=0.05, seed=1)
        assert_allclose(syn.V @ syn.V.T, np.eye(4), atol=1e-12)

    def test_labels_mark_the_nonzero_row_of_each_column(self):
        syn = gen_synthetic_onmf(10, 14, 3, noise=0.0, seed=2)
        for j in range(14):
            nz = np.flatnonzero(syn.V[:, j])
            assert nz.size == 1
            assert syn.labels[j] == nz[0] + 1

    def test_every_cluster_nonempty(self):
        syn = gen_synthetic_onmf(10, 14, 3, noise=0.0, seed=3)
        assert set(syn.labels.tolist()) == {1, 2, 3}

    def test_same_seed_same_data(self):
        a = gen_synthetic_onmf(8, 6, 2, noise=0.05, seed=5)
        b = gen_synthetic_onmf(8, 6, 2, noise=0.05, seed=5)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.labels, b.labels)

    def test_noise_level_scales_the_perturbation(self):
        clean = gen_synthetic_onmf(30, 25, 3, noise=0.0, seed=9)
        noisy = gen_synthetic_onmf(30, 25, 3, noise=0.1, seed=9)
        rel = (np.linalg.norm(noisy.X - clean.U @ clean.V)
               / np.linalg.norm(clean.U @ clean.V))
        # perturbation is noise * ||UV|| * R/||R|| with the same draws
        assert 0.05 < rel < 0.2

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic_onmf(4, 3, 5)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic_onmf(4, 3, 2, noise=-0.1)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, noise):
        # NaN passed the old "noise < 0" test and returned an all-NaN X
        with pytest.raises(ValueError, match="noise"):
            gen_synthetic_onmf(4, 3, 2, noise=noise)

    @pytest.mark.parametrize("r", [2.5, True])
    def test_non_integer_rank_rejected(self, r):
        with pytest.raises(ValueError, match="r must"):
            gen_synthetic_onmf(4, 3, r)
        with pytest.raises(ValueError, match="r must"):
            gen_synthetic_ratings(4, 3, r, 0.5)


def _planted_values(m, n, r, obs_fraction, seed):
    """np.take(L @ R, lin) from gen_synthetic_ratings' own seed stream."""
    rng = np.random.default_rng(seed)
    L, R = rng.standard_normal((m, r)), rng.standard_normal((r, n))
    count = max(int(round(obs_fraction * m * n)), 1)
    lin = np.sort(rng.choice(m * n, size=count, replace=False))
    return lin, np.take(L @ R, lin)


class TestSyntheticRatings:
    # mc-large-bt's instance, the CLI default, every shape the tests
    # generate, and 1-row tails past a 64-row block (65, 257 rows)
    @pytest.mark.parametrize("m, n, r, frac, seed", [
        (2000, 2000, 5, 0.05, 1), (100, 100, 5, 0.3, 1),
        (200, 200, 3, 0.3, 1), (300, 300, 3, 0.05, 4),
        (305, 203, 4, 0.1, 7), (65, 40, 3, 0.3, 1), (257, 100, 3, 0.2, 1),
        (60, 50, 4, 0.3, 1), (40, 30, 2, 0.5, 3), (30, 25, 2, 0.4, 5),
        (20, 15, 2, 0.4, 11), (20, 15, 3, 0.5, 1), (10, 8, 2, 0.25, 0),
        (6, 5, 2, 0.6, 3), (6, 5, 2, 0.5, 3), (5, 6, 2, 0.4, 2),
        (5, 4, 2, 0.5, 1)])
    def test_values_equal_the_whole_product(self, m, n, r, frac, seed):
        obs = gen_synthetic_ratings(m, n, r, frac, seed=seed)
        lin, values = _planted_values(m, n, r, frac, seed)
        assert np.array_equal(obs.row_idx * n + obs.col_idx, lin)
        assert np.array_equal(obs.values, values)

    @pytest.mark.parametrize("frac", [True, "0.5", float("nan"), 0.0, 1.5])
    def test_bad_obs_fraction_rejected(self, frac):
        with pytest.raises(ValueError, match="obs_fraction"):
            gen_synthetic_ratings(4, 3, 2, frac)

    def test_observation_count_and_distinct_positions(self):
        obs = gen_synthetic_ratings(10, 8, 2, 0.25, seed=0)
        assert obs.values.size == 20
        pairs = set(zip(obs.row_idx.tolist(), obs.col_idx.tolist()))
        assert len(pairs) == 20

    def test_deterministic(self):
        a = gen_synthetic_ratings(10, 8, 2, 0.25, seed=0)
        b = gen_synthetic_ratings(10, 8, 2, 0.25, seed=0)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.row_idx, b.row_idx)


class TestTrainTestSplit:
    def test_seven_three_split_of_ten(self):
        obs = gen_synthetic_ratings(5, 4, 2, 0.5, seed=1)
        assert obs.values.size == 10
        tr, te = train_test_split(obs, 0.7, seed=0)
        assert tr.values.size == 7
        assert te.values.size == 3

    def test_partition_is_disjoint_and_covering(self):
        obs = gen_synthetic_ratings(10, 8, 2, 0.25, seed=0)
        tr, te = train_test_split(obs, 0.7, seed=5)
        all_pairs = set(zip(obs.row_idx.tolist(), obs.col_idx.tolist()))
        tr_pairs = set(zip(tr.row_idx.tolist(), tr.col_idx.tolist()))
        te_pairs = set(zip(te.row_idx.tolist(), te.col_idx.tolist()))
        assert tr_pairs.isdisjoint(te_pairs)
        assert tr_pairs | te_pairs == all_pairs

    def test_same_seed_same_split(self):
        obs = gen_synthetic_ratings(10, 8, 2, 0.25, seed=0)
        a_tr, a_te = train_test_split(obs, 0.7, seed=5)
        b_tr, b_te = train_test_split(obs, 0.7, seed=5)
        assert np.array_equal(a_tr.row_idx, b_tr.row_idx)
        assert np.array_equal(a_te.values, b_te.values)

    def test_shapes_preserved(self):
        obs = gen_synthetic_ratings(10, 8, 2, 0.25, seed=0)
        tr, te = train_test_split(obs, 0.7, seed=5)
        assert (tr.rows, tr.cols) == (10, 8)
        assert (te.rows, te.cols) == (10, 8)

    def test_fraction_out_of_range_rejected(self):
        obs = gen_synthetic_ratings(5, 4, 2, 0.5, seed=1)
        with pytest.raises(ValueError):
            train_test_split(obs, 1.5)

    @pytest.mark.parametrize("frac", [True, False, "0.5", float("nan")])
    def test_non_real_fraction_rejected(self, frac):
        obs = gen_synthetic_ratings(5, 4, 2, 0.5, seed=1)
        with pytest.raises(ValueError, match="fraction"):
            train_test_split(obs, frac)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 500), fraction=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @example(n=0, fraction=0.5, seed=0)
    @example(n=7, fraction=0.0, seed=1)  # k = 0
    @example(n=7, fraction=1.0, seed=1)  # k = n
    def test_split_picks_the_sorted_halves_of_a_permutation(self, n, fraction,
                                                            seed):
        obs = ObservedMatrix(1, max(n, 1), np.zeros(n, dtype=np.int64),
                             np.arange(n), np.arange(n, dtype=np.float64))
        tr, te = train_test_split(obs, fraction, seed=seed)
        k = int(round(fraction * n))
        perm = np.random.default_rng(seed).permutation(n)
        assert np.array_equal(tr.values, np.sort(perm[:k]))
        assert np.array_equal(te.values, np.sort(perm[k:]))


class TestDenseCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.csv"
        M = np.array([[1.5, -2.0], [0.25, 3.0]])
        save_dense_csv(path, M)
        assert np.array_equal(load_dense_csv(path), M)

    def test_single_entry(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("42.5\n")
        out = load_dense_csv(path)
        assert out.shape == (1, 1)
        assert out[0, 0] == 42.5

    def test_ragged_rows_name_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match=r":2"):
            load_dense_csv(path)


class TestMatrixMarket:
    HEADER = "%%MatrixMarket matrix coordinate real general\n"

    def test_minimal_file(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(self.HEADER + "2 2 1\n1 1 3.0\n")
        obs = load_matrix_market(path)
        assert (obs.rows, obs.cols) == (2, 2)
        assert obs.row_idx.tolist() == [0]
        assert obs.col_idx.tolist() == [0]
        assert obs.values.tolist() == [3.0]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "rt.mtx"
        obs = gen_synthetic_ratings(5, 6, 2, 0.4, seed=2)
        save_matrix_market(path, obs)
        back = load_matrix_market(path)
        assert (back.rows, back.cols) == (5, 6)
        want = {(i, j): v for i, j, v in
                zip(obs.row_idx, obs.col_idx, obs.values)}
        got = {(i, j): v for i, j, v in
               zip(back.row_idx, back.col_idx, back.values)}
        assert got.keys() == want.keys()
        for k in want:
            assert_allclose(got[k], want[k], rtol=1e-15)

    def test_out_of_range_index_names_the_line(self, tmp_path):
        path = tmp_path / "oob.mtx"
        path.write_text(self.HEADER + "2 2 1\n3 1 3.0\n")
        with pytest.raises(ValueError, match=r":3.*out of range"):
            load_matrix_market(path)

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "dup.mtx"
        path.write_text(self.HEADER + "2 2 2\n1 1 3.0\n1 1 4.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_matrix_market(path)

    def test_unsupported_type_rejected(self, tmp_path):
        path = tmp_path / "arr.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n"
                        "2 2\n1.0\n2.0\n3.0\n4.0\n")
        with pytest.raises(ValueError, match="coordinate real general"):
            load_matrix_market(path)

    def test_entry_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.mtx"
        path.write_text(self.HEADER + "2 2 2\n1 1 3.0\n")
        with pytest.raises(ValueError, match="promises 2"):
            load_matrix_market(path)


class TestRatings:
    def test_double_colon_separator_with_timestamps(self, tmp_path):
        path = tmp_path / "r.dat"
        path.write_text("u9::i7::3.5::978300760\n"
                        "u2::i7::4.0::978300761\n"
                        "u9::i1::1.0::978302109\n")
        obs, idmaps = load_ratings(path)
        assert (obs.rows, obs.cols) == (2, 2)
        # dense ids follow the sorted tokens, not first appearance
        assert idmaps == {"users": ["u2", "u9"], "items": ["i1", "i7"]}
        # entries are stored row-major, not in file order
        assert obs.row_idx.tolist() == [0, 1, 1]
        assert obs.col_idx.tolist() == [1, 0, 1]
        assert obs.values.tolist() == [4.0, 1.0, 3.5]

    def test_tab_separator_three_columns(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("1\t2\t5.0\n2\t1\t3.0\n")
        obs, _ = load_ratings(path)
        assert obs.values.tolist() == [5.0, 3.0]

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "dup.dat"
        path.write_text("10\t20\t3.5\n10\t20\t4.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_ratings(path)

    def test_non_numeric_rating_rejected(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("10\t20\tfive\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_ratings(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.dat"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no ratings"):
            load_ratings(path)


_MM = "%%MatrixMarket matrix coordinate real general\n"

# (loader, file text or ObservedMatrix arrays, the message after the path)
REJECTIONS = [
    pytest.param("csv", "1,2\n3,x\n", ":2: non-numeric entry",
                 id="csv-non-numeric"),
    pytest.param("csv", "\n  \n", ": no data rows", id="csv-no-rows"),
    pytest.param("mm", "1 1 1\n", ":1: not a MatrixMarket file",
                 id="mm-no-header"),
    pytest.param("mm", _MM + "2 2\n", ":2: malformed size line",
                 id="mm-size-fields"),
    pytest.param("mm", _MM + "2 x 1\n", ":2: malformed size line",
                 id="mm-size-value"),
    pytest.param("mm", _MM + "2 2 1\n1 x 3.0\n", ":3: malformed entry",
                 id="mm-entry-value"),
    pytest.param("mm", _MM + "2 2 1\n1 1\n", ":3: expected 'i j value'",
                 id="mm-entry-fields"),
    pytest.param("mm", _MM + "% a comment only\n", ": missing size line",
                 id="mm-no-size"),
    pytest.param("ratings", "u1::i1::3.0\nu2::i2\n",
                 ":2: expected user/item/rating[/timestamp], got 2 fields",
                 id="ratings-fields"),
    pytest.param("ratings", "u1::i1::3.0\n ::i2::4.0\n",
                 ":2: empty user or item id", id="ratings-empty-id"),
    pytest.param("observed", ([[0]], [[0]], [[1.0]]),
                 "index/value arrays must be 1-D", id="observed-2d"),
    pytest.param("observed", ([0, 1], [0], [1.0]),
                 "index/value arrays must have equal length",
                 id="observed-lengths"),
    pytest.param("observed", ([2], [0], [1.0]), "row index out of range",
                 id="observed-row"),
    pytest.param("observed", ([0], [-1], [1.0]), "column index out of range",
                 id="observed-column"),
    pytest.param("observed", ([0], [0], [np.inf]),
                 "observed values contain non-finite entries",
                 id="observed-non-finite"),
]


@pytest.mark.parametrize("loader, content, message", REJECTIONS)
def test_each_rejection_names_its_cause(tmp_path, loader, content, message):
    if loader == "observed":
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ObservedMatrix(2, 3, *content)
        return
    path = tmp_path / "data"
    path.write_text(content)
    load = {"csv": load_dense_csv, "mm": load_matrix_market,
            "ratings": load_ratings}[loader]
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path) + message)}$"):
        load(path)


class TestObservedMatrix:
    def test_frobenius_of_observed_values(self):
        obs = ObservedMatrix(2, 2, np.array([0, 1]), np.array([0, 1]),
                             np.array([3.0, 4.0]))
        assert_allclose(obs.frobenius(), 5.0)

    def test_n_obs(self):
        obs = gen_synthetic_ratings(6, 5, 2, 0.5, seed=3)
        assert obs.n_obs == obs.values.size

    @pytest.mark.parametrize("field", ["rows", "cols"])
    @pytest.mark.parametrize("bad", [2.5, 3.0, True, float("nan"), "4", 0, -1])
    def test_non_integer_dimension_rejected(self, field, bad):
        dims = {"rows": 3, "cols": 4, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ObservedMatrix(**dims, row_idx=[0], col_idx=[0], values=[1.0])

    @pytest.mark.parametrize("field", ["row_idx", "col_idx"])
    @pytest.mark.parametrize("bad", [[0.5], [np.nan], [np.inf], [2.0**63],
                                     [True], ["0"]])
    def test_non_integer_index_rejected(self, field, bad):
        arrays = {"row_idx": [0], "col_idx": [0], field: bad}
        with pytest.raises(ValueError, match=f"{field} must hold integers"):
            ObservedMatrix(3, 4, **arrays, values=[1.0])

    def test_integral_float_indices_accepted(self):
        obs = ObservedMatrix(3, 4, [2.0, 0.0], [1.0, 3.0], [1.0, 2.0])
        assert obs.row_idx.dtype == obs.col_idx.dtype == np.int64
        assert list(obs.row_idx) == [0, 2]
        assert list(obs.col_idx) == [3, 1]

    def test_sorted_int64_indices_are_not_copied(self):
        ri, ci = np.array([0, 1, 2]), np.array([3, 0, 1])
        obs = ObservedMatrix(3, 4, ri, ci, np.array([1.0, 2.0, 3.0]))
        assert obs.row_idx is ri and obs.col_idx is ci

    def test_duplicate_in_unsorted_entries_rejected(self):
        # (2, 1) comes first and last, with other entries between
        with pytest.raises(ValueError, match="duplicate observed entries"):
            ObservedMatrix(3, 4, np.array([2, 0, 1, 2]), np.array([1, 3, 0, 1]),
                           np.array([1.0, 2.0, 3.0, 4.0]))

    def test_duplicate_in_sorted_entries_rejected(self):
        # positions 3, 4, 4, 9: in order, but not strictly increasing
        with pytest.raises(ValueError, match="duplicate observed entries"):
            ObservedMatrix(3, 4, np.array([0, 1, 1, 2]), np.array([3, 0, 0, 1]),
                           np.array([1.0, 2.0, 3.0, 4.0]))

    def test_unsorted_distinct_entries_accepted(self):
        obs = ObservedMatrix(3, 4, np.array([2, 0, 1, 0]),
                             np.array([1, 3, 0, 1]),
                             np.array([1.0, 2.0, 3.0, 4.0]))
        assert obs.n_obs == 4
        # stored row-major, each value still at its own position
        assert list(obs.row_idx) == [0, 0, 1, 2]
        assert list(obs.col_idx) == [1, 3, 0, 1]
        assert list(obs.values) == [4.0, 2.0, 3.0, 1.0]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 6))
    def test_any_order_of_entries_stores_the_sorted_one(self, data, rows,
                                                        cols):
        lin = sorted(data.draw(st.sets(st.integers(0, rows * cols - 1))))
        vals = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(lin),
                                  max_size=len(lin)))
        order = data.draw(st.permutations(range(len(lin))))
        ri, ci = np.divmod(np.array(lin, dtype=np.int64), cols)
        sorted_ = ObservedMatrix(rows, cols, ri, ci, np.array(vals))
        shuffled = ObservedMatrix(rows, cols, ri[order], ci[order],
                                  np.array(vals)[order])
        for name in ("row_idx", "col_idx", "values"):
            got, want = getattr(shuffled, name), getattr(sorted_, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
