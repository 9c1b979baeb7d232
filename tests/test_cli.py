"""End-to-end command line tests, run in process through ``main(argv)``,
or in a fresh interpreter where the exact text on stderr is checked."""

import copy
import errno
import json
import math
import os
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import pytest

import tosca.cli
import tosca.data
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


def test_sweep_write_that_fails_partway_keeps_the_old_file(bench, tmp_path,
                                                          monkeypatch):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "sweep.csv"
    out.write_bytes(b"old bytes")
    real_open = open

    class DiskFull:
        # takes one byte of what it is given, then fails
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def writelines(self, parts):
            self.fh.write(b"".join(parts)[:1])
            raise OSError(28, "No space left on device")

    def failing_open(path, mode="r"):
        fh = real_open(path, mode)
        return DiskFull(fh) if "x" in mode else fh

    monkeypatch.setattr(tosca.data, "open", failing_open, raising=False)
    args = ["sweep", "--data", f"{bench}.train.ftr", "--inc", "2",
            "--epochs", "1", "--lambdas", "0", "--rs", "4", "--out", str(out)]
    assert main(args) == 1
    assert out.read_bytes() == b"old bytes"
    assert [q.name for q in out_dir.iterdir()] == ["sweep.csv"]


def _refused(capsys, argv, message):
    # exit 1 with one error line, no traceback
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {message}"]


def test_non_finite_floats_are_refused_by_name(bench, tmp_path, capsys):
    out = tmp_path / "rep.json"
    _refused(capsys, _run_args(bench, ["--lr", "nan", "--out", str(out)]),
             "lr_max must be finite, not nan")
    _refused(capsys, _run_args(bench, ["--lambda", "inf", "--out", str(out)]),
             "lambda_l1 must be finite, not inf")
    assert not out.exists()
    prefix = tmp_path / "nan"
    _refused(capsys, _synth_args(prefix) + ["--sigma", "nan"],
             "sigma must be finite, not nan")
    _refused(capsys, _synth_args(prefix) + ["--separation=-inf"],
             "separation must be finite, not -inf")
    assert not any(q.name.startswith("nan") for q in tmp_path.iterdir())


def test_gradcheck_refuses_no_trials(capsys):
    for trials in ("0", "-3"):
        _refused(capsys, ["gradcheck", "--trials", trials],
                 f"trials must be at least 1, not {trials}")


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


_STAGE = {"index": 1, "A_b": 50.0, "selection_accuracy": 75.0}
# (the report's text, what the error names)
_MALFORMED = [
    ("[1, 2]", "not a JSON object"),
    ("{}", "stages must be a non-empty list"),
    ('{"A_bar": 1.0, "stages": []}', "stages must be a non-empty list"),
    ('{"A_bar": 1.0, "stages": {"index": 1}}', "stages must be"),
    ('{"stages": [%s]}' % json.dumps(_STAGE), "A_bar is missing"),
    ('{"A_bar": "high", "stages": [%s]}' % json.dumps(_STAGE), "A_bar must"),
    ('{"A_bar": true, "stages": [%s]}' % json.dumps(_STAGE), "A_bar must"),
    ('{"A_bar": NaN, "stages": [%s]}' % json.dumps(_STAGE), "A_bar must"),
    ('{"A_bar": 1, "stages": [3]}', "stages[0] is not an object"),
    ('{"A_bar": 1, "stages": [%s, {"A_b": 1, "selection_accuracy": 2}]}'
     % json.dumps(_STAGE), "stages[1].index is missing"),
    ('{"A_bar": 1, "stages": [{"index": 1, "A_b": null, '
     '"selection_accuracy": 2}]}', "stages[0].A_b must"),
    ('{"A_bar": 1, "stages": [{"index": 1, "A_b": 2, '
     '"selection_accuracy": 1%s}]}' % ("0" * 400),
     "stages[0].selection_accuracy must"),
    ('{"A_bar": 1, "stages": [{"index": 1, "A_b": 2, '
     '"selection_accuracy": -Infinity}]}', "stages[0].selection_accuracy"),
    # numbers that the CSV would print and the plot would draw off its axes
    ('{"A_bar": 100.5, "stages": [%s]}' % json.dumps(_STAGE), "A_bar must"),
    ('{"A_bar": 1, "stages": [{"index": 1, "A_b": 250, '
     '"selection_accuracy": 2}]}', "stages[0].A_b must"),
    ('{"A_bar": 1, "stages": [{"index": 1, "A_b": 2, '
     '"selection_accuracy": -3}]}', "stages[0].selection_accuracy must"),
    ('{"A_bar": 1, "stages": [{"index": 7, "A_b": 2, '
     '"selection_accuracy": 3}]}', "stages[0].index must be 1, not 7"),
    ('{"A_bar": 1, "stages": [{"index": 1.0, "A_b": 2, '
     '"selection_accuracy": 3}]}', "stages[0].index must be 1, not 1.0"),
    ('{"A_bar": 1, "stages": [%s, %s]}' % (json.dumps(_STAGE),
                                          json.dumps(_STAGE)),
     "stages[1].index must be 2, not 1"),
    # the plot's legend would show the repr of anything but a string
    *(('{"method": %s, "A_bar": 1, "stages": [%s]}'
       % (method, json.dumps(_STAGE)), f"method must be a string, not {want}")
      for method, want in (('["tosca"]', "['tosca']"),
                           ('{"a": 1}', "{'a': 1}"), ("7", "7"),
                           ("null", "None"), ("true", "True"))),
]


@pytest.mark.parametrize("text, field", _MALFORMED,
                         ids=[field for _, field in _MALFORMED])
def test_report_refuses_a_malformed_report_by_name(tmp_path, capsys, text,
                                                   field):
    rep = tmp_path / "rep.json"
    rep.write_text(text)
    csv, svg = tmp_path / "out.csv", tmp_path / "out.svg"
    rc = main(["report", "--in", str(rep), "--csv", str(csv),
               "--plot", str(svg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err
    assert not csv.exists() and not svg.exists()


_DROP = object()


def _paths(node, path=()):
    """(path, value) for every value inside a JSON tree."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,), child
        yield from _paths(child, path + (key,))


def _mutants(report):
    """(path, mutant) for each copy of ``report`` that drops one key, gives
    one value another type, or makes one number NaN, inf, -inf or 101."""
    for path, node in _paths(report):
        values = [None, True, "<b> & c", [1], {"a": 1}]
        if isinstance(path[-1], str):
            values.append(_DROP)
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            values += [math.nan, math.inf, -math.inf, 101]
        else:
            values.append(50)
        for value in values:
            mutant = copy.deepcopy(report)
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            if value is _DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield path, mutant


def test_every_mutant_of_a_real_report_loads_or_fails_by_name(
        bench, tmp_path, capsys):
    # a mutant either loads, and then its CSV and plot stay on the axes,
    # or it exits 1 with one error line and writes no file
    good = tmp_path / "good.json"
    assert main(_run_args(bench, ["--out", str(good)])) == 0
    report = json.loads(good.read_text())
    rep, csv, svg = (tmp_path / name for name in ("m.json", "m.csv", "m.svg"))
    outcomes = []
    for path, mutant in _mutants(report):
        rep.write_text(json.dumps(mutant))
        capsys.readouterr()
        rc = main(["report", "--in", str(rep), "--csv", str(csv),
                   "--plot", str(svg)])
        err = capsys.readouterr().err
        outcomes.append(rc)
        if not isinstance(mutant.get("method", ""), str):
            assert rc == 1 and "method must be a string" in err, path
        if rc == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, path
            assert not csv.exists() and not svg.exists(), path
            continue
        assert rc == 0 and err == "", path
        rows = [line.split(",") for line in csv.read_text().split()[1:]]
        assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
        assert all(0.0 <= float(x) <= 100.0 for r in rows for x in r[1:])
        plot = xml.dom.minidom.parse(str(svg))
        axis = plot.getElementsByTagName("line")[0]  # the y axis
        low, high = (float(axis.getAttribute(a)) for a in ("y1", "y2"))
        for dot in plot.getElementsByTagName("circle"):
            assert low <= float(dot.getAttribute("cy")) <= high, path
        csv.unlink()
        svg.unlink()
    assert 0 in outcomes and 1 in outcomes


_RUN = ["run", "--data", "{bench}.train.ftr", "--inc", "2"]
_SWEEP = ["sweep", "--data", "{bench}.train.ftr", "--inc", "2",
          "--lambdas", "0", "--rs", "8"]


@pytest.mark.parametrize("argv", [
    _RUN + ["--out", "{missing}/rep.json"],
    _RUN + ["--plot", "{missing}/plot.svg"],
    _RUN + ["--out", "{tmp}"],
    _SWEEP + ["--out", "{missing}/sweep.csv"],
])
def test_run_and_sweep_check_their_targets_before_training(
        bench, tmp_path, monkeypatch, capsys, argv):
    # an unwritable --out or --plot fails before any scenario runs
    calls = []
    monkeypatch.setattr(tosca.cli, "run_scenario",
                        lambda *args, **kwargs: calls.append(args))
    rc = main([a.format(bench=bench, missing=tmp_path / "no" / "dir",
                        tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert rc == 1 and calls == []
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize("argv, message", [
    (["synth", "--out", "{missing}/x"],
     "cannot write {missing}/x.train.ftr: no directory {missing}"),
    (["synth", "--out", "{tmp}/taken"],
     "cannot write {tmp}/taken.test.ftr: it is a directory"),
    (["report", "--in", "{tmp}/rep.json", "--csv", "{missing}/o.csv"],
     "cannot write {missing}/o.csv: no directory {missing}"),
    (["report", "--in", "{tmp}/rep.json", "--csv", "{tmp}"],
     "cannot write {tmp}: it is a directory"),
    (["report", "--in", "{tmp}/rep.json", "--plot", "{missing}/p.svg"],
     "cannot write {missing}/p.svg: no directory {missing}"),
    (["report", "--in", "{tmp}/rep.json", "--plot", "{tmp}"],
     "cannot write {tmp}: it is a directory"),
])
def test_synth_and_report_check_their_targets_before_any_work(
        tmp_path, monkeypatch, capsys, argv, message):
    # the error names the target, not the temporary file beside it, and
    # comes before any data is made or report read
    calls = []
    monkeypatch.setattr(tosca.cli, "synth_gaussian",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(tosca.cli, "load_report",
                        lambda path: calls.append(path))
    (tmp_path / "taken.test.ftr").mkdir()
    names = {"missing": tmp_path / "no" / "dir", "tmp": tmp_path}
    _refused(capsys, [a.format(**names) for a in argv], message.format(**names))
    assert calls == []
    assert sorted(q.name for q in tmp_path.iterdir()) == ["taken.test.ftr"]


@pytest.mark.parametrize("data, detail", [
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: "
                    "invalid start byte"),
    (b"", "Expecting value: line 1 column 1 (char 0)"),
    (b"{nope", "Expecting property name enclosed in double quotes: "
               "line 1 column 2 (char 1)"),
])
def test_report_names_a_file_that_is_not_utf8_json(tmp_path, capsys, data,
                                                   detail):
    rep = tmp_path / "rep.json"
    rep.write_bytes(data)
    _refused(capsys, ["report", "--in", str(rep), "--csv",
                      str(tmp_path / "o.csv")],
             f"report {rep}: not a UTF-8 JSON file ({detail})")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("flag, message", [
    ("--d 0", "d must be at least 2, not 0"),
    ("--d=-2", "d must be at least 2, not -2"),
    ("--classes 0", "num_classes must be at least 2, not 0"),
    ("--classes 1", "num_classes must be at least 2, not 1"),
    ("--train-per-class 0", "n_train must be at least 1, not 0"),
    ("--test-per-class 0", "n_test must be at least 1, not 0"),
    ("--sigma 0", "sigma must be positive, not 0.0"),
    ("--sigma=-1", "sigma must be positive, not -1.0"),
    ("--separation 0", "separation must be positive, not 0.0"),
    ("--separation=-1", "separation must be positive, not -1.0"),
])
def test_synth_refuses_a_bad_value(tmp_path, capsys, flag, message):
    prefix = tmp_path / "bad"
    _refused(capsys, _synth_args(prefix) + flag.split(), message)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 36.4 TiB for an array"),
     "Unable to allocate 36.4 TiB for an array"),
    (MemoryError(), "MemoryError"),
])
def test_a_request_too_large_to_allocate_is_one_error_line(
        tmp_path, monkeypatch, capsys, exc, message):
    # stands in for ``tosca synth --d 100000000000``, which asks numpy for
    # tens of TiB: a host that overcommits memory could grant that
    def too_large(*args, **kwargs):
        raise exc

    monkeypatch.setattr(tosca.cli, "synth_gaussian", too_large)
    _refused(capsys, _synth_args(tmp_path / "big"), message)
    assert list(tmp_path.iterdir()) == []


def _scenario_argv(command, data, test, tmp_path):
    # a one-epoch run, or a one-cell sweep that writes into tmp_path
    argv = [command, "--data", str(data), "--test", str(test),
            "--inc", "2", "--epochs", "1"]
    if command == "sweep":
        argv += ["--lambdas", "0", "--rs", "4",
                 "--out", str(tmp_path / "sweep.csv")]
    return argv


def _malformed_feature_file(tmp_path, bench, kind):
    """A path whose file is ``kind``: absent, a directory, or bytes that
    ``load_features`` refuses."""
    path = tmp_path / f"{kind}.ftr"
    if kind == "directory":
        path.mkdir()
    elif kind != "missing":
        path.write_bytes({
            "empty": b"",
            "junk": b"not a feature file at all",
            "report": b'{"A_bar": 1.0, "stages": []}',
            "truncated": Path(f"{bench}.train.ftr").read_bytes()[:100],
        }[kind])
    return path


_FEATURE_REFUSALS = {
    "missing": "[Errno {}] {}: '{{path}}'".format(errno.ENOENT,
                                                  os.strerror(errno.ENOENT)),
    "directory": "[Errno {}] {}: '{{path}}'".format(errno.EISDIR,
                                                    os.strerror(errno.EISDIR)),
    "empty": "features {path}: not a feature file",
    "junk": "features {path}: not a feature file",
    "report": "features {path}: not a feature file",
    "truncated": "features {path}: unexpected end of file",
}


@pytest.mark.parametrize("kind", sorted(_FEATURE_REFUSALS))
@pytest.mark.parametrize("flag", ["--data", "--test"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_run_and_sweep_refuse_a_malformed_feature_file(
        bench, tmp_path, capsys, command, flag, kind):
    path = _malformed_feature_file(tmp_path, bench, kind)
    files = {"--data": f"{bench}.train.ftr", "--test": f"{bench}.test.ftr",
             flag: path}
    _refused(capsys, _scenario_argv(command, files["--data"], files["--test"],
                                    tmp_path),
             _FEATURE_REFUSALS[kind].format(path=path))
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("synth, message", [
    (["--d", "4"], "dimension mismatch"),  # the train rows have d=8
    (["--classes", "3"], "empty test set"),  # no rows of stage 2's classes
])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_run_and_sweep_refuse_a_test_set_that_does_not_fit(
        bench, tmp_path, capsys, command, synth, message):
    other = tmp_path / "other"
    assert main(_synth_args(other) + synth) == 0
    capsys.readouterr()
    _refused(capsys, _scenario_argv(command, f"{bench}.train.ftr",
                                    f"{other}.test.ftr", tmp_path), message)
    assert not (tmp_path / "sweep.csv").exists()


def test_runtime_errors_exit_1(tmp_path, capsys):
    rc = main(["run", "--data", str(tmp_path / "missing.ftr"), "--inc", "2"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_diverging_run_exits_1(bench, capsys):
    rc = main(_run_args(bench, ["--method", "tosca", "--lr", "1e5"]))
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: tosca stage 1: training diverged in epoch ")


@pytest.mark.parametrize("lr,stderr", [
    ("1e5", "error: tosca stage 1: training diverged in epoch 3\n"),
    ("100", "error: tosca stage 1: non-finite logits\n"),  # training ends finite
])
def test_a_failing_run_prints_one_error_line(bench, lr, stderr):
    # a fresh interpreter, with numpy's warnings at their defaults
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(tosca.cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-m", "tosca.cli",
                          *_run_args(bench, ["--lr", lr])], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (1, stderr)


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
