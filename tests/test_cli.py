"""End-to-end tests of the command-line interface and the SVG plotter.

Everything runs in-process through ``cli.main`` so exit codes, files, and
stdout can be asserted without spawning an interpreter per case.
"""

import csv
import json
import os
import stat
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bmme import (bregman, cli, datakit, matcomp, onmf, solver, svgplot,
                  verify)
from bmme.bregman import RelSmoothConstants
from bmme.solver import SolverConfig, run, run_backtracking
from bmme.svgplot import render_loglog_svg


def read_trace(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


@pytest.fixture
def no_data(monkeypatch):
    """Fail the test if synthetic data is generated or a CSV is read."""
    def fail(*args, **kwargs):
        raise AssertionError("data built before the usage check")

    for name in ("gen_synthetic_onmf", "gen_synthetic_ratings",
                 "load_dense_csv"):
        monkeypatch.setattr(datakit, name, fail)


# One bad setting per entry; the last flag is the one its error must name.
BAD_SETTINGS = [
    ["--delta", "1.5"], ["--eta", "0"], ["--time-budget", "-1"],
    ["--tol", "-1"], ["--max-iters", "-1"], ["--m", "0"], ["--seeds", "0"],
    ["--seed", "-1"], ["--init", "file"],
    ["--problem", "matcomp", "--train-fraction", "0"],
    ["--problem", "matcomp", "--init", "spa"],
    ["--data", "X.csv", "--data-format", "mm"],
    ["--lambda", "-1"], ["--problem", "matcomp", "--lambda", "0"],
    ["--problem", "matcomp", "--theta", "0"], ["--noise", "-1"],
    ["--noise", "inf"],
    ["--problem", "matcomp", "--obs-fraction", "2"], ["--r", "200"],
    # compare ran a repeated name twice, writing its trace over itself
    ["--algorithm", "bmm,bmm"],
]


def bad_setting_cases():
    # run cases are named by their flags alone, compare cases add "compare"
    for command in ("run", "compare"):
        for flags in BAD_SETTINGS:
            name = flags if command == "run" else [command, *flags]
            yield pytest.param(command, flags, id="-".join(name))


class TestRunOnmf:
    def test_ten_iterations_ten_rows_nonincreasing(self, tmp_path):
        out = tmp_path / "o"
        rc = cli.main(["run", "--problem", "onmf", "--m", "50", "--n", "50",
                       "--r", "3", "--lambda", "1000", "--seed", "1",
                       "--max-iters", "10", "--algorithm", "bmm",
                       "--out", str(out)])
        assert rc == 0
        rows = read_trace(out / "trace.csv")
        assert len(rows) == 10
        assert [int(r["iter"]) for r in rows] == list(range(1, 11))
        objs = np.array([float(r["objective"]) for r in rows])
        assert np.all(np.diff(objs) <= 1e-8 * (1.0 + np.abs(objs[:-1])))

    def test_trace_fields_roundtrip_through_repr(self, tmp_path):
        out = tmp_path / "o"
        cli.main(["run", "--problem", "onmf", "--m", "30", "--n", "20",
                  "--r", "2", "--lambda", "100", "--max-iters", "5",
                  "--algorithm", "bmme", "--out", str(out)])
        with open(out / "trace.csv") as fh:
            header = fh.readline().strip()
            assert header == "iter,elapsed_seconds,objective,scaled_objective"
            for line in fh:
                fields = line.strip().split(",")
                for text in fields[1:]:
                    # full-precision floats: parsing and re-printing is lossless
                    assert repr(float(text)) == text

    def test_report_scaled_objective_invariant(self, tmp_path):
        out = tmp_path / "o"
        cli.main(["run", "--problem", "onmf", "--m", "40", "--n", "30",
                  "--r", "3", "--lambda", "1000", "--seed", "2",
                  "--max-iters", "8", "--out", str(out)])
        rep = json.loads((out / "report.json").read_text())
        assert rep["problem"] == "onmf"
        assert rep["iterations"] == 8
        ratio = rep["objective"] / rep["scaled_objective"]
        for row in read_trace(out / "trace.csv"):
            assert_allclose(float(row["objective"])
                            / float(row["scaled_objective"]),
                            ratio, rtol=1e-12)

    def test_synthetic_run_reports_accuracy(self, tmp_path):
        out = tmp_path / "o"
        cli.main(["run", "--problem", "onmf", "--m", "60", "--n", "45",
                  "--r", "3", "--lambda", "1000", "--seed", "1",
                  "--max-iters", "150", "--out", str(out)])
        rep = json.loads((out / "report.json").read_text())
        assert 0.0 <= rep["accuracy"] <= 1.0
        assert rep["accuracy"] > 0.8

    def test_verify_descent_flag_passes_clean(self, tmp_path):
        out = tmp_path / "o"
        rc = cli.main(["run", "--problem", "onmf", "--m", "30", "--n", "30",
                       "--r", "2", "--lambda", "100", "--max-iters", "20",
                       "--verify-descent", "--out", str(out)])
        assert rc == 0

    def test_backtracked_variant_passes_descent_verifier(self, tmp_path):
        # bmme_bt line-searches (L, l) on both ONMF blocks
        out = tmp_path / "o"
        rc = cli.main(["run", "--problem", "onmf", "--m", "40", "--n", "30",
                       "--r", "3", "--lambda", "100", "--max-iters", "50",
                       "--tol", "0", "--algorithm", "bmme_bt",
                       "--verify-descent", "--out", str(out)])
        assert rc == 0
        assert len(read_trace(out / "trace.csv")) == 50
        rep = json.loads((out / "report.json").read_text())
        assert rep["stop_reason"] == "max_iters"

    def test_random_start_is_not_the_planted_factors(self):
        # the start draws from its own stream: the data's begins with U
        cfg = {**cli.DEFAULTS, "m": 20, "n": 15, "r": 3, "init": "random"}
        U0, V0 = cli._prepare_onmf(cfg, 7).init_blocks
        assert not np.allclose(U0, datakit.gen_synthetic_onmf(20, 15, 3,
                                                              seed=7).U)
        rng = np.random.default_rng(cli._init_seed(7))
        assert np.array_equal(U0, rng.uniform(size=U0.shape))
        assert np.array_equal(V0, rng.uniform(size=V0.shape))


class TestRunMatcomp:
    def test_zero_iterations_echo_initial_rmse(self, tmp_path):
        out = tmp_path / "o"
        rc = cli.main(["run", "--problem", "matcomp", "--m", "20", "--n", "15",
                       "--r", "2", "--obs-fraction", "0.5", "--seed", "3",
                       "--max-iters", "0", "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["rmse_train"] == rep["rmse_train_init"]
        assert rep["rmse_test"] == rep["rmse_test_init"]
        assert read_trace(out / "trace.csv") == []

    def test_train_fraction_one_trains_on_every_entry(self, tmp_path):
        # no held-out side: the report has the training RMSE only
        out = tmp_path / "o"
        rc = cli.main(["run", "--problem", "matcomp", "--m", "20", "--n", "15",
                       "--r", "2", "--obs-fraction", "0.5", "--seed", "3",
                       "--max-iters", "5", "--train-fraction", "1",
                       "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert "rmse_train" in rep and "rmse_train_init" in rep
        assert "rmse_test" not in rep and "rmse_test_init" not in rep

    def test_training_improves_both_rmses(self, tmp_path):
        # from a random start, seed 3 still has train RMSE 0.47 and test
        # RMSE 2.8 (start 2.2) after 150 steps; both reach 0.03-0.04 by 1000
        out = tmp_path / "o"
        rc = cli.main(["run", "--problem", "matcomp", "--m", "40", "--n", "30",
                       "--r", "2", "--obs-fraction", "0.5", "--seed", "3",
                       "--max-iters", "1000", "--algorithm", "bmme_bt",
                       "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["rmse_train"] < rep["rmse_train_init"]
        assert rep["rmse_test"] < rep["rmse_test_init"]

    def test_random_start_is_not_the_planted_matrix(self):
        # mc_random_init on the data's seed redraws the generator's L, R:
        # U0 V0 would be the planted L R times a constant
        cfg = {**cli.DEFAULTS, "problem": "matcomp", "m": 40, "n": 30,
               "r": 2}
        (Z0,) = cli._prepare_matcomp(cfg, 7).init_blocks
        s0 = matcomp.unpack_state(Z0, 40)
        rng = np.random.default_rng(7)
        planted = rng.standard_normal((40, 2)) @ rng.standard_normal((2, 30))
        corr = np.corrcoef((s0.U @ s0.V).ravel(), planted.ravel())[0, 1]
        assert abs(corr) < 0.5

    def test_backtracked_variant_matches_run_backtracking(self, tmp_path):
        out = tmp_path / "o"
        rc = cli.main(["run", "--problem", "matcomp", "--m", "40", "--n", "30",
                       "--r", "2", "--obs-fraction", "0.5", "--seed", "3",
                       "--max-iters", "80", "--tol", "0",
                       "--algorithm", "bmme_bt", "--out", str(out)])
        assert rc == 0
        obs = datakit.gen_synthetic_ratings(40, 30, 2, 0.5, seed=3)
        train, _ = datakit.train_test_split(obs, 0.7, seed=3)
        p = matcomp.McProblem(observed=train, r=2, lam=0.1, theta=5.0)
        res = run_backtracking(
            matcomp.mc_backtracking_problem(p),
            matcomp.pack_state(
                matcomp.mc_random_init(p, seed=cli._init_seed(3))),
            SolverConfig(max_iters=80, tol_rel_change=0.0,
                         verify_descent=False),
            matcomp.mc_objective_packed(p))
        col = [row["objective"] for row in read_trace(out / "trace.csv")]
        assert col == [repr(r.objective) for r in res.trace.records]
        assert len(col) == 80
        # the adapter is kept only for the benchmark, and no module exports it
        for module, name in ((solver, "BacktrackingProblem"),
                             (solver, "run_backtracking"),
                             (matcomp, "mc_backtracking_problem")):
            assert name not in module.__all__


class TestDataFiles:
    def test_csv_input_for_onmf(self, tmp_path):
        from bmme import datakit
        syn = datakit.gen_synthetic_onmf(25, 20, 3, noise=0.05, seed=4)
        data = tmp_path / "X.csv"
        np.savetxt(data, syn.X, delimiter=",", fmt="%.17g")
        out = tmp_path / "o"
        rc = cli.main(["run", "--problem", "onmf", "--data", str(data),
                       "--r", "3", "--max-iters", "10", "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        # file-driven runs carry no ground-truth labels
        assert "accuracy" not in rep

    def test_ratings_input_writes_idmap_sidecar(self, tmp_path):
        data = tmp_path / "r.dat"
        lines = []
        rng = np.random.default_rng(0)
        for u in range(8):
            for i in range(6):
                if rng.uniform() < 0.6:
                    lines.append(f"user{u}::item{i}::{rng.uniform(1, 5):.1f}")
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        rc = cli.main(["run", "--problem", "matcomp", "--data", str(data),
                       "--data-format", "ratings", "--r", "2",
                       "--max-iters", "20", "--out", str(out)])
        assert rc == 0
        idmap = json.loads((out / "idmap.json").read_text())
        assert set(idmap) == {"users", "items"}
        assert idmap["users"][0] == "user0"

    def test_shuffled_ratings_give_the_same_run(self, tmp_path):
        # 60 x 50 ratings; the first 60 lines name every user and item in
        # the same order, so only the order of the other entries differs
        rng = np.random.default_rng(5)
        head = [(u, u % 50) for u in range(60)]
        rest = [(u, i) for u in range(60) for i in range(50)
                if i != u % 50 and rng.uniform() < 0.3]
        rating = {pair: rng.uniform(1, 5) for pair in head + rest}
        reports, objectives = [], []
        for name, order in (("in_order", np.arange(len(rest))),
                            ("shuffled", rng.permutation(len(rest)))):
            data, out = tmp_path / f"{name}.dat", tmp_path / name
            data.write_text("".join(
                f"u{u}::i{i}::{rating[u, i]:.1f}\n"
                for u, i in head + [rest[k] for k in order]))
            assert cli.main(["run", "--problem", "matcomp", "--data",
                             str(data), "--data-format", "ratings", "--r", "2",
                             "--max-iters", "50", "--out", str(out)]) == 0
            reports.append(json.loads((out / "report.json").read_text()))
            objectives.append([row["objective"]
                               for row in read_trace(out / "trace.csv")])
        assert objectives[0] == objectives[1]
        for key in ("rmse_train", "rmse_test", "rmse_train_init",
                    "rmse_test_init"):
            assert reports[0][key] == reports[1][key]

    def test_fully_shuffled_ratings_give_the_same_run(self, tmp_path):
        # ids are numbered by their sorted tokens, so a shuffle that changes
        # which user and item come first changes nothing
        rng = np.random.default_rng(8)
        lines = [f"u{u}::i{i}::{rng.uniform(1, 5):.1f}\n"
                 for u in range(60) for i in range(50) if rng.uniform() < 0.3]
        runs = []
        for name, order in (("in_order", np.arange(len(lines))),
                            ("shuffled", rng.permutation(len(lines)))):
            data, out = tmp_path / f"{name}.dat", tmp_path / name
            data.write_text("".join(lines[k] for k in order))
            assert cli.main(["run", "--problem", "matcomp", "--data",
                             str(data), "--data-format", "ratings", "--r", "2",
                             "--max-iters", "50", "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            runs.append((
                [ln.split(b",")[2] for ln in
                 (out / "trace.csv").read_bytes().splitlines()[1:]],
                {k: v for k, v in report.items() if k.startswith("rmse_")},
                (out / "idmap.json").read_bytes()))
        assert order[0] != 0  # another user and item come first
        assert len(runs[0][0]) == 50 and len(runs[0][1]) == 4
        assert runs[0] == runs[1]

    def test_missing_data_file_exits_one(self, tmp_path):
        rc = cli.main(["run", "--problem", "onmf", "--data",
                       str(tmp_path / "nope.csv"), "--r", "2",
                       "--out", str(tmp_path / "o")])
        assert rc == 1


def init_files(tmp_path, problem, seed, m=30, n=20, r=3):
    """Factors of the right shape for ``problem`` on the synthetic data of
    ``seed``, written to two CSV files; the factors, the files and the
    ``--init file`` flags of a run from them."""
    rng = np.random.default_rng(seed + 100)
    U0, V0 = rng.uniform(size=(m, r)), rng.uniform(size=(r, n))
    paths = tmp_path / "U0.csv", tmp_path / "V0.csv"
    for path, A in zip(paths, (U0, V0)):
        np.savetxt(path, A, delimiter=",", fmt="%.17g")
    flags = ["--problem", problem, "--m", str(m), "--n", str(n),
             "--r", str(r), "--seed", str(seed), "--max-iters", "15",
             "--tol", "0", "--init", "file", "--init-u", str(paths[0]),
             "--init-v", str(paths[1])]
    return (U0, V0), paths, flags


class TestInitFile:
    def test_onmf_run_from_files_equals_run_from_the_arrays(self, tmp_path):
        (U0, V0), _, flags = init_files(tmp_path, "onmf", seed=4)
        out = tmp_path / "o"
        assert cli.main(["run", *flags, "--out", str(out)]) == 0
        syn = datakit.gen_synthetic_onmf(30, 20, 3, noise=0.05, seed=4)
        p = onmf.OnmfProblem(X=syn.X, r=3, lam=1000.0)
        res = run(onmf.onmf_block_problems(p), [U0, V0],
                  SolverConfig(max_iters=15, tol_rel_change=0.0,
                               verify_descent=False),
                  lambda b: onmf.onmf_objective(p, b[0], b[1]))
        col = [row["objective"] for row in read_trace(out / "trace.csv")]
        assert col == [repr(r.objective) for r in res.trace.records]
        assert len(col) == 15

    def test_matcomp_run_from_files_equals_run_from_the_arrays(
            self, tmp_path):
        (U0, V0), _, flags = init_files(tmp_path, "matcomp", seed=6)
        out = tmp_path / "o"
        assert cli.main(["run", *flags, "--out", str(out)]) == 0
        obs = datakit.gen_synthetic_ratings(30, 20, 3, 0.3, seed=6)
        train, _ = datakit.train_test_split(obs, 0.7, seed=6)
        p = matcomp.McProblem(observed=train, r=3, lam=0.1, theta=5.0)
        res = run([matcomp.mc_block_problem(p)],
                  [matcomp.pack_state(matcomp.McState(U0, V0))],
                  SolverConfig(max_iters=15, tol_rel_change=0.0,
                               verify_descent=False),
                  matcomp.mc_objective_packed(p))
        col = [row["objective"] for row in read_trace(out / "trace.csv")]
        assert col == [repr(r.objective) for r in res.trace.records]
        assert len(col) == 15

    @pytest.mark.parametrize("problem", ["onmf", "matcomp"])
    @pytest.mark.parametrize("which", [0, 1], ids=["U", "V"])
    def test_wrong_shape_exits_two_and_writes_nothing(
            self, tmp_path, capsys, problem, which):
        (U0, V0), paths, flags = init_files(tmp_path, problem, seed=4)
        # one column too few, or one row too many for V
        bad = (U0[:, :-1], np.vstack([V0, V0[:1]]))[which]
        np.savetxt(paths[which], bad, delimiter=",", fmt="%.17g")
        out = tmp_path / "o"
        assert cli.main(["run", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: --init-u/--init-v shapes do not match the data")
        assert not out.exists()


class TestBadUsage:
    def test_unknown_algorithm_exits_two_naming_the_flag(self, tmp_path, capsys):
        rc = cli.main(["run", "--problem", "onmf", "--algorithm", "sgd",
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "--algorithm" in capsys.readouterr().err

    def test_unknown_suite_exits_two(self, capsys):
        rc = cli.main(["verify", "nonsense"])
        assert rc == 2

    def test_unknown_subcommand_exits_two(self):
        assert cli.main(["frobnicate"]) == 2

    def test_unknown_config_key_exits_two(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"m": 20, "wat": 1}))
        rc = cli.main(["run", "--config", str(cfgfile),
                       "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("command, flags", bad_setting_cases())
    def test_out_of_range_value_exits_two_before_running(
            self, tmp_path, capsys, no_data, command, flags):
        out = tmp_path / "o"
        rc = cli.main([command, *flags, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {flags[-2]} ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("fraction, n_train, n_test",
                             [("0.99", 30, 0), ("0.01", 0, 30)])
    def test_one_sided_split_exits_two_before_solving(
            self, tmp_path, capsys, monkeypatch, command, fraction, n_train,
            n_test):
        # 10% of 20 x 15 is 30 entries; the split rounds one side to none
        monkeypatch.setattr(cli, "run", None)
        out = tmp_path / "o"
        rc = cli.main([command, "--problem", "matcomp", "--m", "20",
                       "--n", "15", "--r", "2", "--obs-fraction", "0.1",
                       "--train-fraction", fraction, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --train-fraction {fraction} leaves "
                              f"{n_train} training and {n_test} test entries")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("problem, fmt", [
        ("onmf", "csv"), ("matcomp", "csv"), ("matcomp", "ratings")])
    def test_rank_above_data_size_exits_two_before_solving(
            self, tmp_path, capsys, monkeypatch, command, problem, fmt):
        # the rule on --m/--n covers synthetic data; a 6 x 5 file is
        # checked once it is read, before SPA, any solve or any output
        monkeypatch.setattr(cli, "run", None)
        monkeypatch.setattr(onmf, "spa_init", None)
        data = tmp_path / "data"
        if fmt == "csv":
            np.savetxt(data, np.ones((6, 5)), delimiter=",", fmt="%.17g")
        else:
            data.write_text("".join(f"u{u}::i{i}::3.0\n" for u in range(6)
                                    for i in range(5)))
        out = tmp_path / "o"
        rc = cli.main([command, "--problem", problem, "--data", str(data),
                       "--data-format", fmt, "--r", "7", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: --r 7 must be <= min(m, n) = 5 for the 6 x 5 data")
        assert not out.exists()


class TestOptionTable:
    def test_solver_defaults_read_from_solver_config(self):
        lib = SolverConfig()
        assert cli.DEFAULTS["delta"] == lib.delta
        assert cli.DEFAULTS["eta"] == lib.eta
        assert cli.DEFAULTS["max_iters"] == lib.max_iters
        assert cli.DEFAULTS["tol"] == lib.tol_rel_change
        # the library verifies descent by default, the command line does not
        assert lib.verify_descent and cli.DEFAULTS["verify_descent"] is False

    def test_every_option_has_its_flag(self, capsys):
        assert cli.main(["run", "--help"]) == 0
        words = capsys.readouterr().out.split()
        for key in cli.OPTIONS:
            flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
            assert flag in words


class TestConfigFile:
    @pytest.mark.parametrize("entry", [
        {"tol": "x"}, {"m": "a"}, {"m": 2.5}, {"max_iters": True},
        {"lam": "big"}, {"delta": ["x", 0.9]}, {"eta": "0.9"},
        {"verify_descent": 1}, {"problem": 5}, {"problem": "svd"},
        {"init": "zeros"}, {"out": 3}, {"seed": None}, {"delta": []},
        {"eta": [0.8, 0.8, 0.8]}, {"delta": [0.9, 0.9]}, {"eta": [0.8]}],
        ids=json.dumps)
    def test_wrongly_typed_value_exits_two(self, tmp_path, capsys, no_data,
                                           entry):
        # delta and eta take one number each, so any list is a usage error
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"m": 20, "n": 15, "r": 2, **entry}))
        out = tmp_path / "o"
        rc = cli.main(["run", "--config", str(cfgfile), "--out", str(out)])
        assert rc == 2
        assert f"invalid {next(iter(entry))}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case, why", [
        ("missing", "not a readable JSON file ([Errno 2]"),
        ("directory", "not a readable JSON file ([Errno 21]"),
        ("undecodable", "not a readable JSON file ('utf-8' codec"),
        ("invalid-json", "not a readable JSON file (Expecting"),
        ("not-an-object", "expected a JSON object")])
    def test_unreadable_config_exits_two_naming_the_flag(
            self, tmp_path, capsys, no_data, case, why):
        path = tmp_path / "c.json"
        if case == "directory":
            path.mkdir()
        elif case == "undecodable":
            path.write_bytes(b"\xff\xfe{}")
        elif case == "invalid-json":
            path.write_text('{"m": 20,}')
        elif case == "not-an-object":
            path.write_text("[1, 2]")
        out = tmp_path / "o"
        rc = cli.main(["run", "--config", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --config {path}: {why}")
        assert not out.exists()

    def test_config_values_of_flag_types_run(self, tmp_path):
        # every default, an int where a float is expected and null where the
        # default is None are all valid
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({
            **cli.DEFAULTS, "m": 20, "n": 15, "r": 2, "lam": 100,
            "max_iters": 3, "tol": 0, "delta": 0.95, "eta": 0.8,
            "verify_descent": True, "out": str(tmp_path / "o")}))
        assert cli.main(["run", "--config", str(cfgfile)]) == 0
        assert (tmp_path / "o" / "report.json").exists()

    def test_flags_override_config_values(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({
            "problem": "onmf", "m": 30, "n": 20, "r": 2,
            "lam": 500.0, "max_iters": 5, "algorithm": "bmm"}))
        out = tmp_path / "o"
        rc = cli.main(["run", "--config", str(cfgfile), "--max-iters", "3",
                       "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["config"]["m"] == 30          # from the file
        assert rep["config"]["max_iters"] == 3   # flag wins
        assert rep["iterations"] == 3


class TestCompare:
    def test_single_algorithm_single_seed(self, tmp_path):
        out = tmp_path / "o"
        rc = cli.main(["compare", "--problem", "onmf", "--m", "30",
                       "--n", "20", "--r", "2", "--lambda", "100",
                       "--algorithm", "bmm", "--seeds", "1",
                       "--max-iters", "5", "--out", str(out)])
        assert rc == 0
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["algorithm"] == "bmm"
        assert (out / "plot.svg").exists()

    def test_two_algorithms_five_seeds_medians_and_plot(self, tmp_path):
        out = tmp_path / "o"
        rc = cli.main(["compare", "--problem", "onmf", "--m", "100",
                       "--n", "100", "--r", "5", "--lambda", "1000",
                       "--algorithm", "bmm,bmme", "--seeds", "5",
                       "--seed", "1", "--max-iters", "200",
                       "--out", str(out)])
        assert rc == 0
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        for alg in ("bmm", "bmme"):
            finals = sorted(float(r["final_objective"]) for r in rows
                            if r["algorithm"] == alg)
            med = finals[2]  # five seeds -> middle order statistic
            for r in rows:
                if r["algorithm"] == alg:
                    assert_allclose(float(r["algorithm_median_final"]), med,
                                    rtol=1e-15)
        # every seed produced its own trace file
        for alg in ("bmm", "bmme"):
            for seed in range(1, 6):
                assert (out / f"trace_{alg}_{seed}.csv").exists()
        # acceleration should win on the median at this size
        bmm_med = next(float(r["algorithm_median_final"]) for r in rows
                       if r["algorithm"] == "bmm")
        bmme_med = next(float(r["algorithm_median_final"]) for r in rows
                        if r["algorithm"] == "bmme")
        assert bmme_med < bmm_med
        # and the figure parses as XML with one polyline per run plus medians
        root = ET.fromstring((out / "plot.svg").read_text())
        assert root.tag.endswith("svg")
        polylines = root.iter("{http://www.w3.org/2000/svg}polyline")
        assert sum(1 for _ in polylines) >= 10


class TestOutputFiles:
    @pytest.mark.parametrize("umask", [0o022, 0o007], ids=["022", "007"])
    def test_outputs_get_the_mode_a_plain_open_gives(self, tmp_path, umask):
        # the atomic write goes through a temporary file; the file it
        # renames into place must not keep a private mode such as 0600
        old = os.umask(umask)
        try:
            out = tmp_path / "o"
            assert cli.main(["run", "--problem", "onmf", "--m", "20",
                             "--n", "15", "--r", "2", "--max-iters", "3",
                             "--out", str(out)]) == 0
            assert cli.main(["compare", "--problem", "onmf", "--m", "20",
                             "--n", "15", "--r", "2", "--algorithm", "bmm",
                             "--seeds", "1", "--max-iters", "3",
                             "--out", str(out)]) == 0
            with open(out / "plain.txt", "w"):
                pass
        finally:
            os.umask(old)
        want = stat.S_IMODE((out / "plain.txt").stat().st_mode)
        assert want == 0o666 & ~umask
        names = ["report.json", "trace.csv", "summary.csv", "plot.svg",
                 "trace_bmm_1.csv"]
        assert sorted(os.listdir(out)) == sorted(names + ["plain.txt"])
        for name in names:
            assert stat.S_IMODE((out / name).stat().st_mode) == want, name


class TestDeterminism:
    def test_same_seed_and_config_byte_identical_objectives(self, tmp_path):
        cols = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.main(["run", "--problem", "onmf", "--m", "40",
                           "--n", "30", "--r", "3", "--lambda", "1000",
                           "--seed", "7", "--max-iters", "40",
                           "--algorithm", "bmme", "--out", str(out)])
            assert rc == 0
            col = [line.split(",")[2] for line
                   in (out / "trace.csv").read_text().splitlines()[1:]]
            cols.append(col)
        assert cols[0] == cols[1]


class TestVerifyCommand:
    def test_cubic_suite_passes(self, capsys):
        rc = cli.main(["verify", "cubic"])
        assert rc == 0
        assert "cubic: ok" in capsys.readouterr().out

    def test_all_registered_suites_clean(self):
        # the full-size suites run in the acceptance module; here the
        # small-size API calls guard the registry wiring
        assert sorted(verify.SUITES) == ["accuracy", "cubic", "descent",
                                         "oracles", "relsmooth"]
        assert verify.suite_cubic(n_draws=200, seed=0, n_bisect=10) == []
        assert verify.suite_accuracy(n_cases=10, seed=0) == []
        assert verify.suite_oracles(n_instances=2, seed=0) == []

    def test_descent_fault_injection_is_detected(self, monkeypatch):
        # halving the certified curvature of the first block must produce a
        # violation — this guards the verifier against vacuous passes
        real, calls = onmf.onmf_constants_U, []
        monkeypatch.setattr(
            onmf, "onmf_constants_U",
            lambda p, V: calls.append(p) or RelSmoothConstants(
                L=0.5 * real(p, V).L, l=real(p, V).l))
        bad = verify.suite_descent(seed=1, iters=20, size=(30, 30, 2),
                                   lam=50.0)
        assert calls and all(isinstance(p, onmf.OnmfProblem) for p in calls)
        assert len(bad) > 0
        assert "exceeds certified bound" in bad[0]

    @pytest.mark.parametrize("move, kinds", [
        (lambda t: t + 4.0 * float(np.spacing(t)), {"ulps"}),
        (lambda t: (1.0 + 1e-6) * t, {"residual", "bisection", "ulps"})],
        ids=["4-ulps-up", "relative-1e-6"])
    def test_moved_cubic_root_is_reported(self, monkeypatch, move, kinds):
        # the suite is the acceptance gate's only check of the cubic root
        # every quartic-kernel step takes, so a root moved by a few ulps or
        # by 1e-6 must show
        real = bregman.cubic_norm_scale
        monkeypatch.setattr(bregman, "cubic_norm_scale",
                            lambda a, c: move(real(a, c)))
        bad = verify.suite_cubic(n_draws=200, seed=0, n_bisect=20)
        words = {"ulps": "ulps at", "residual": "residual",
                 "bisection": "disagrees with bisection"}
        assert {k for k, w in words.items()
                if any(w in msg for msg in bad)} >= kinds

    def test_failing_suite_exits_one_listing_each_violation(
            self, monkeypatch, capsys):
        monkeypatch.setitem(verify.SUITES, "cubic",
                            lambda: ["first violation", "second violation"])
        assert cli.main(["verify", "cubic"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "first violation", "second violation", "cubic: 2 violation(s)"]

    def test_clean_descent_suite_empty(self):
        assert verify.suite_descent(seed=1, iters=20, size=(30, 30, 2),
                                    lam=50.0) == []


class TestMeanCurve:
    def test_no_usable_point_gives_none(self):
        # only positive times and objectives are kept
        assert cli._mean_curve([([0.0, 1.0], [5.0, -1.0]), ([], [])]) is None

    def test_runs_without_time_overlap_span_the_union(self):
        # run 1 ends at t = 2 before run 2 starts at t = 3, so there is no
        # common range; the grid spans both runs, and each run holds its
        # first and last objective outside its own range
        runs = [([1.0, 2.0], [4.0, 3.0]), ([3.0, 4.0], [2.0, 1.0])]
        ts, ys = cli._mean_curve(runs)
        assert len(ts) == len(ys) == 60
        assert (ts[0], ts[-1]) == (1.0, 4.0)
        assert (ys[0], ys[-1]) == (3.0, 2.0)

    def test_overlapping_runs_keep_the_common_range(self):
        runs = [([1.0, 3.0], [4.0, 2.0]), ([2.0, 4.0], [3.0, 1.0])]
        ts, ys = cli._mean_curve(runs)
        assert np.array_equal(ts, np.geomspace(2.0, 3.0, 60))
        assert (ys[0], ys[-1]) == (3.0, 2.0)

    def test_one_point_gives_that_point(self):
        assert cli._mean_curve([([2.0], [3.0])]) == ([2.0], [3.0])


class TestSvgPlot:
    def test_multiple_curves_render_and_parse(self):
        xs = np.geomspace(0.01, 10.0, 30)
        curves = [(xs, 1.0 / xs, 0), (xs, 2.0 / xs, 0), (xs, 1.0 / xs**2, 1)]
        bold = [(xs, 1.5 / xs, 0, "median")]
        svg = render_loglog_svg(curves, bold_curves=bold, title="t")
        root = ET.fromstring(svg)
        n_poly = sum(1 for _ in
                     root.iter("{http://www.w3.org/2000/svg}polyline"))
        assert n_poly == 4

    def test_nonpositive_points_dropped(self):
        xs = np.array([0.5, 1.0, 2.0])
        ys = np.array([1.0, -1.0, 4.0])
        svg = render_loglog_svg([(xs, ys, 0)])
        assert ET.fromstring(svg) is not None

    def test_two_group_plot_elements_pinned(self):
        # tag, sorted attributes and text of every element in document
        # order; the attribute order within an element is free
        curves = [([0.01, 0.1, 1.0], [100.0, 10.0, 2.0], 0),
                  ([0.02, 0.2, 2.0], [50.0, 5.0, 1.0], 1)]
        bold = [([0.01, 0.1, 1.0], [80.0, 8.0, 1.5], 0, "bmm"),
                ([0.02, 0.2, 2.0], [40.0, 4.0, 1.2], 1, "bmme")]
        svg = render_loglog_svg(curves, bold_curves=bold,
                                title="onmf: objective")
        got = [[el.tag.split("}")[-1],
                [list(a) for a in sorted(el.attrib.items())], el.text]
               for el in ET.fromstring(svg).iter()]
        want = json.loads((Path(__file__).parent / "data"
                           / "svgplot_two_groups.json").read_text())
        assert got == want

    def test_single_point_widens_the_degenerate_ranges(self):
        # one point has x_lo == x_hi and y_lo == y_hi; each range becomes
        # [v / 2, 2 v], so the point sits at the middle of the plot area
        svg = render_loglog_svg([([1.0], [10.0], 0)])
        (line,) = ET.fromstring(svg).iter(
            "{http://www.w3.org/2000/svg}polyline")
        x, y = map(float, line.get("points").split(","))
        s = svgplot
        assert x == pytest.approx((s._ML + s._W - s._MR) / 2, abs=0.01)
        assert y == pytest.approx((s._MT + s._H - s._MB) / 2, abs=0.01)

    def test_nothing_to_plot_raises(self):
        with pytest.raises(ValueError):
            render_loglog_svg([(np.array([1.0]), np.array([-1.0]), 0)])
