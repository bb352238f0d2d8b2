"""End-to-end tests of the command-line interface and the SVG plotter.

Everything runs in-process through ``cli.main`` so exit codes, files, and
stdout can be asserted without spawning an interpreter per case.
"""

import csv
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bmme import cli, datakit, matcomp, onmf, verify
from bmme.bregman import RelSmoothConstants
from bmme.solver import SolverConfig, run_backtracking
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


class TestDataFiles:
    def test_csv_input_for_onmf(self, tmp_path):
        from bmme import datakit
        syn = datakit.gen_synthetic_onmf(25, 20, 3, noise=0.05, seed=4)
        data = tmp_path / "X.csv"
        datakit.save_dense_csv(data, syn.X)
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
        # 60 x 50 ratings; the first 60 lines fix the users' and items'
        # first appearances, so only the order of the entries differs
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

    def test_missing_data_file_exits_one(self, tmp_path):
        rc = cli.main(["run", "--problem", "onmf", "--data",
                       str(tmp_path / "nope.csv"), "--r", "2",
                       "--out", str(tmp_path / "o")])
        assert rc == 1


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
            datakit.save_dense_csv(data, np.ones((6, 5)))
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
        {"init": "zeros"}, {"out": 3}, {"seed": None}], ids=json.dumps)
    def test_wrongly_typed_value_exits_two(self, tmp_path, capsys, entry):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"m": 20, "n": 15, "r": 2, **entry}))
        out = tmp_path / "o"
        rc = cli.main(["run", "--config", str(cfgfile), "--out", str(out)])
        assert rc == 2
        assert f"invalid {next(iter(entry))}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("problem, key, value", [
        ("onmf", "delta", []), ("onmf", "eta", [0.8, 0.8, 0.8]),
        ("matcomp", "delta", [0.9, 0.9])])
    def test_per_block_list_of_wrong_length_exits_two_before_running(
            self, tmp_path, capsys, no_data, problem, key, value):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"problem": problem, "m": 20, "n": 15,
                                       "r": 2, key: value}))
        out = tmp_path / "o"
        rc = cli.main(["run", "--config", str(cfgfile), "--out", str(out)])
        assert rc == 2
        assert f"{key} has {len(value)} entries" in capsys.readouterr().err
        assert not out.exists()

    def test_config_values_of_flag_types_run(self, tmp_path):
        # every default, an int where a float is expected, per-block delta
        # and eta lists, and null where the default is None are all valid
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({
            **cli.DEFAULTS, "m": 20, "n": 15, "r": 2, "lam": 100,
            "max_iters": 3, "tol": 0, "delta": [0.9, 0.95], "eta": [0.8, 0.9],
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
        real = onmf.onmf_constants_U
        monkeypatch.setattr(onmf, "onmf_constants_U",
                            lambda V: RelSmoothConstants(L=0.5 * real(V).L,
                                                         l=real(V).l))
        bad = verify.suite_descent(seed=1, iters=20, size=(30, 30, 2),
                                   lam=50.0)
        assert len(bad) > 0
        assert "exceeds certified bound" in bad[0]

    def test_clean_descent_suite_empty(self):
        assert verify.suite_descent(seed=1, iters=20, size=(30, 30, 2),
                                    lam=50.0) == []


class TestSvgPlot:
    def test_multiple_curves_render_and_parse(self):
        xs = np.geomspace(0.01, 10.0, 30)
        curves = [(xs, 1.0 / xs, 0), (xs, 2.0 / xs, 0), (xs, 1.0 / xs**2, 1)]
        bold = [(xs, 1.5 / xs, 0, "median")]
        svg = render_loglog_svg(curves, bold_curves=bold, title="t",
                                xlabel="x", ylabel="y")
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
                                title="onmf: objective", xlabel="time (s)",
                                ylabel="objective")
        got = [[el.tag.split("}")[-1],
                [list(a) for a in sorted(el.attrib.items())], el.text]
               for el in ET.fromstring(svg).iter()]
        want = json.loads((Path(__file__).parent / "data"
                           / "svgplot_two_groups.json").read_text())
        assert got == want

    def test_nothing_to_plot_raises(self):
        with pytest.raises(ValueError):
            render_loglog_svg([(np.array([1.0]), np.array([-1.0]), 0)])
