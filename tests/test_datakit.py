"""Tests for synthetic data generation and the three on-disk formats."""

import numpy as np
import pytest
from hypothesis import given, settings
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


class TestSyntheticOnmf:
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


class TestSyntheticRatings:
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
        # dense ids follow first appearance
        assert idmaps == {"users": ["u9", "u2"], "items": ["i7", "i1"]}
        # entries are stored row-major, not in file order
        assert obs.row_idx.tolist() == [0, 0, 1]
        assert obs.col_idx.tolist() == [0, 1, 0]
        assert obs.values.tolist() == [3.5, 1.0, 4.0]

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


class TestObservedMatrix:
    def test_frobenius_of_observed_values(self):
        obs = ObservedMatrix(2, 2, np.array([0, 1]), np.array([0, 1]),
                             np.array([3.0, 4.0]))
        assert_allclose(obs.frobenius(), 5.0)

    def test_n_obs(self):
        obs = gen_synthetic_ratings(6, 5, 2, 0.5, seed=3)
        assert obs.n_obs == obs.values.size

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
