"""JSON/CSV emission and the standalone SVG plot."""

import json
import xml.dom.minidom

import pytest

from tosca.report import emit_plot, emit_report, load_report


def _report(method="tosca", stages=3):
    return {
        "method": method,
        "seed": 1,
        "config": {"r": 8},
        "stages": [{"index": b, "A_b": 100.0 - 2.5 * b,
                    "selection_accuracy": 99.0 - b} for b in range(1, stages + 1)],
        "A_bar": 95.0,
        "params_per_task": [100] * stages,
        "wall_time_s": 1.25,
    }


def test_json_round_trip(tmp_path):
    rep = _report()
    p = tmp_path / "r.json"
    emit_report(rep, p)
    assert load_report(p) == rep
    text = p.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["method"] == "tosca"


def test_csv_contents(tmp_path):
    p = tmp_path / "r.csv"
    emit_report(_report(stages=2), p, fmt="csv")
    lines = p.read_text().splitlines()
    assert lines[0] == "stage,A_b,selection_accuracy"
    assert lines[1] == "1,97.500000,98.000000"
    assert lines[2] == "2,95.000000,97.000000"
    assert len(lines) == 3


def test_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown format"):
        emit_report(_report(), tmp_path / "r.xml", fmt="xml")


def test_accepts_objects_with_to_dict(tmp_path):
    class Wrapper:
        def to_dict(self):
            return _report()

    p = tmp_path / "w.json"
    emit_report(Wrapper(), p)
    assert load_report(p)["A_bar"] == 95.0


def test_emission_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(_report(), a)
    emit_report(_report(), b)
    assert a.read_bytes() == b.read_bytes()


def test_plot_structure(tmp_path):
    p = tmp_path / "p.svg"
    emit_plot([_report("tosca"), _report("joint")], p)
    svg = p.read_text()
    assert svg.startswith("<svg xmlns=")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert svg.count("<circle") == 6  # 3 stages x 2 runs
    assert "tosca" in svg and "joint" in svg
    assert "accuracy (%)" in svg


def test_plot_escapes_the_legend_label(tmp_path):
    p = tmp_path / "p.svg"
    emit_plot([_report("a<b & c")], p)
    texts = xml.dom.minidom.parse(str(p)).getElementsByTagName("text")
    assert "a<b & c" in [t.firstChild.data for t in texts]


def test_plot_single_stage(tmp_path):
    p = tmp_path / "one.svg"
    emit_plot([_report(stages=1)], p)
    assert p.read_text().count("<circle") == 1


def test_plot_rejects_bad_inputs(tmp_path):
    with pytest.raises(ValueError, match="nothing to plot"):
        emit_plot([], tmp_path / "x.svg")
    with pytest.raises(ValueError, match="mismatched stage counts"):
        emit_plot([_report(stages=2), _report(stages=3)], tmp_path / "x.svg")
    with pytest.raises(ValueError, match="mismatched stage counts"):
        emit_plot([_report(stages=0)], tmp_path / "x.svg")
