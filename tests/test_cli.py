"""End-to-end command line tests, run in process through ``main(argv)``."""

import json

import numpy as np
import pytest

from tosca.cli import main
from tosca.data import load_features, make_splits, synth_gaussian
from tosca.engine import ScenarioConfig, run_scenario
from tosca.optim import OptimConfig


def _synth_args(prefix, classes=6):
    return ["synth", "--d", "8", "--classes", str(classes),
            "--train-per-class", "20", "--test-per-class", "10",
            "--seed", "3", "--out", str(prefix)]


def _run_args(prefix, extra=()):
    return ["run", "--data", f"{prefix}.train.ftr",
            "--test", f"{prefix}.test.ftr",
            "--inc", "2", "--epochs", "3", "--r", "8",
            "--seed", "7", *extra]


@pytest.fixture()
def bench(tmp_path):
    prefix = tmp_path / "bench"
    assert main(_synth_args(prefix)) == 0
    return prefix


def test_synth_writes_feature_pair(tmp_path, capsys):
    prefix = tmp_path / "data"
    assert main(_synth_args(prefix)) == 0
    out = capsys.readouterr().out
    assert "120 rows" in out and "60 rows" in out
    train = load_features(f"{prefix}.train.ftr")
    test = load_features(f"{prefix}.test.ftr")
    assert train.n == 120 and test.n == 60 and train.d == 8
    assert train.class_ids == tuple(range(6))


def test_run_writes_json_with_contract_keys(bench, tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(_run_args(bench, ["--out", str(out)])) == 0
    printed = capsys.readouterr().out
    assert printed.count("stage ") == 3
    assert "A_bar = " in printed
    rep = json.loads(out.read_text())
    assert set(rep) == {"method", "seed", "config", "stages", "A_bar",
                        "params_per_task", "wall_time_s"}
    assert rep["method"] == "tosca"
    assert rep["seed"] == 7
    assert len(rep["stages"]) == 3
    assert set(rep["stages"][0]) == {"index", "A_b", "selection_accuracy"}
    assert rep["config"]["epochs"] == 3


def test_run_is_a_thin_shell_over_the_library(bench, tmp_path):
    out = tmp_path / "rep.json"
    assert main(_run_args(bench, ["--out", str(out)])) == 0
    cli_rep = json.loads(out.read_text())

    train = load_features(f"{bench}.train.ftr")
    test = load_features(f"{bench}.test.ftr")
    splits = make_splits(train.class_ids, 0, 2, 7)
    cfg = ScenarioConfig(r=8, optim=OptimConfig(epochs=3))
    lib_rep = run_scenario(train, test, splits, "tosca", cfg, 7).to_dict()

    cli_rep.pop("wall_time_s")
    lib_rep.pop("wall_time_s")
    assert cli_rep == lib_rep


def test_run_csv_dispatch_by_extension(bench, tmp_path):
    out = tmp_path / "rep.csv"
    assert main(_run_args(bench, ["--out", str(out)])) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "stage,A_b,selection_accuracy"
    assert len(lines) == 4


def test_run_defaults_to_scoring_on_train(bench, tmp_path):
    out = tmp_path / "rep.json"
    args = ["run", "--data", f"{bench}.train.ftr", "--inc", "2",
            "--epochs", "3", "--r", "8", "--seed", "7", "--out", str(out)]
    assert main(args) == 0
    train = load_features(f"{bench}.train.ftr")
    splits = make_splits(train.class_ids, 0, 2, 7)
    cfg = ScenarioConfig(r=8, optim=OptimConfig(epochs=3))
    want = run_scenario(train, train, splits, "tosca", cfg, 7).to_dict()
    got = json.loads(out.read_text())
    assert got["stages"] == want["stages"]


def test_run_plot_output(bench, tmp_path):
    svg = tmp_path / "curve.svg"
    assert main(_run_args(bench, ["--plot", str(svg)])) == 0
    text = svg.read_text()
    assert text.startswith("<svg xmlns=")
    assert text.count("<polyline") == 1


def test_run_other_methods(bench, tmp_path):
    for method in ("finetune", "joint", "simplecil", "tosca_r"):
        out = tmp_path / f"{method}.json"
        assert main(_run_args(bench, ["--method", method,
                                      "--out", str(out)])) == 0
        assert json.loads(out.read_text())["method"] == method


def test_sweep_grid(bench, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--data", f"{bench}.train.ftr",
            "--test", f"{bench}.test.ftr", "--inc", "2", "--epochs", "2",
            "--seed", "7", "--lambdas", "0,5e-3", "--rs", "4,8",
            "--out", str(out)]
    assert main(args) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,r,A_B,A_bar"
    assert len(lines) == 5  # 2 lambdas x 2 ranks
    assert lines[1].startswith("0,4,")
    assert capsys.readouterr().out.count("lambda=") == 4
    # deterministic rerun
    out2 = tmp_path / "sweep2.csv"
    assert main(args[:-1] + [str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_sweep_rejects_empty_grid(bench, tmp_path, capsys):
    args = ["sweep", "--data", f"{bench}.train.ftr", "--inc", "2",
            "--lambdas", ",", "--rs", "8", "--out", str(tmp_path / "x.csv")]
    assert main(args) == 1
    assert "error: empty sweep grid" in capsys.readouterr().err


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--trials", "6"]) == 0
    out = capsys.readouterr().out
    assert "max relative error:" in out


def test_gradcheck_fails_on_a_wrong_derivative(monkeypatch, capsys):
    # a 1% error in every activation derivative reaches the batched backward,
    # whether it is computed afresh or from the forward's cache
    import tosca.luca
    exact = tosca.luca.activation_grad
    monkeypatch.setattr(tosca.luca, "activation_grad",
                        lambda kind, x, cache=None: 1.01 * exact(kind, x, cache))
    assert main(["gradcheck"]) == 1
    assert "max relative error:" in capsys.readouterr().out


def test_report_conversion_and_plot(bench, tmp_path):
    rep_a = tmp_path / "a.json"
    rep_b = tmp_path / "b.json"
    assert main(_run_args(bench, ["--out", str(rep_a)])) == 0
    assert main(_run_args(bench, ["--method", "simplecil",
                                  "--out", str(rep_b)])) == 0
    csv = tmp_path / "stages.csv"
    assert main(["report", "--in", str(rep_a), "--csv", str(csv)]) == 0
    assert csv.read_text().splitlines()[0] == "stage,A_b,selection_accuracy"
    svg = tmp_path / "both.svg"
    assert main(["report", "--in", str(rep_a), "--in", str(rep_b),
                 "--plot", str(svg)]) == 0
    assert svg.read_text().count("<polyline") == 2


def test_report_errors(bench, tmp_path, capsys):
    rep = tmp_path / "a.json"
    assert main(_run_args(bench, ["--out", str(rep)])) == 0
    capsys.readouterr()
    rc = main(["report", "--in", str(rep), "--in", str(rep),
               "--csv", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "csv output takes exactly one report" in capsys.readouterr().err
    rc = main(["report", "--in", str(rep)])
    assert rc == 1
    assert "nothing to do" in capsys.readouterr().err


def test_runtime_errors_exit_1(tmp_path, capsys):
    rc = main(["run", "--data", str(tmp_path / "missing.ftr"), "--inc", "2"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_diverging_run_exits_1(bench, capsys):
    with np.errstate(all="ignore"):
        rc = main(_run_args(bench, ["--method", "tosca", "--lr", "1e5"]))
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: tosca stage 1: training diverged in epoch ")


def test_bad_split_exits_1(bench, capsys):
    rc = main(["run", "--data", f"{bench}.train.ftr", "--inc", "4",
               "--epochs", "1"])
    assert rc == 1
    assert "error: split mismatch" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
