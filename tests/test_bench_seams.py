"""Every function the benchmark's tracer wraps must exist in ``tosca``, and
a small pass must emit every per-layer metric.

The traced benchmark run replaces named functions (``tosca.engine.fnv1a``,
``tosca.luca.vecmat``, ``tosca.engine.luca_forward``, ...) with timing
wrappers.  A seam that was renamed or deleted is skipped silently and its
per-layer metrics go missing, and a counter such as ``engine.fnv1a.bytes``
is emitted only when its seam is called.  Otherwise only the benchmark's
own self-test notices.  These tests fail first.
"""

import json
import sys
from pathlib import Path

import numpy as np

import tosca.cli
import tosca.engine
from tosca.data import load_features
from tosca.engine import BankEntry, ModuleBank, load_bank, save_bank
from tosca.heads import make_head
from tosca.luca import init_luca
from tosca.rng import Xoshiro256StarStar

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = str(ROOT / "benchmarks")


def _tracer():
    # read-only import: no __pycache__ is written under benchmarks/
    sys.path.insert(0, BENCH_DIR)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(BENCH_DIR)
        sys.dont_write_bytecode = write_bytecode
    return Tracer()


def test_every_traced_seam_resolves():
    t = _tracer()
    t.install()
    try:
        assert t.absent == []
    finally:
        t.uninstall()


def test_routing_forwards_each_session_once_per_row(tmp_path):
    # engine.route.{forwards_per_row,useful_ratio} count the session
    # forwards that predict_batch makes; serving must keep one per session
    sessions, d = 3, 8
    gen = Xoshiro256StarStar(4)
    bank = ModuleBank(d)
    for s in range(1, sessions + 1):
        head = make_head(d, (2 * s, 2 * s + 1))
        head.w[...] = gen.normals(2 * d).reshape(d, 2)
        module = init_luca(d, 2, rng_seed=s)
        bank.append(BankEntry(session_index=s, module=module, head=head))
    save_bank(bank, tmp_path / "bank.luca")
    loaded = load_bank(tmp_path / "bank.luca")
    rows = gen.normals(5 * d).reshape(5, d)
    t = _tracer()
    t.begin("iteration")
    t.install()
    try:
        tosca.engine.predict_batch(rows, loaded)
    finally:
        t.uninstall()
    metrics = t.layer_metrics()
    assert metrics["engine.route.forwards_per_row"] == sessions
    assert metrics["engine.route.useful_ratio"] == 1 / sessions


def _traced(step):
    """(step(), the per-layer metrics of tracing that call alone)."""
    t = _tracer()
    t.begin("iteration")
    t.install()
    try:
        result = step()
    finally:
        t.uninstall()
    return result, t.layer_metrics()


# The per-layer metrics that each step after ``tosca run`` must emit itself,
# by name prefix; ``tosca run`` must emit all the others.  Each step is
# traced on its own, so a step that stops calling a seam fails here even
# when another step still calls it.
_LATER_STEPS = {"save_bank": ("engine.save_bank.", "engine.fnv1a."),
                "load_bank": ("engine.load_bank.", "engine.fnv1a."),
                "predict_batch": ("engine.predict_batch.", "engine.route.")}


def test_a_small_pass_emits_every_per_layer_metric(tmp_path, monkeypatch):
    # tosca run on d=8 features, then save, load and serve its bank
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]
             if not m["name"].startswith("trace.")]
    prefix = tmp_path / "bench"
    assert tosca.cli.main([
        "synth", "--d", "8", "--classes", "6", "--train-per-class", "20",
        "--test-per-class", "10", "--seed", "3", "--out", str(prefix)]) == 0
    reports = []
    run_scenario = tosca.cli.run_scenario

    def keep_report(*args, **kwargs):
        reports.append(run_scenario(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(tosca.cli, "run_scenario", keep_report)
    emitted = {}
    code, emitted["tosca run"] = _traced(lambda: tosca.cli.main([
        "run", "--data", f"{prefix}.train.ftr", "--test", f"{prefix}.test.ftr",
        "--inc", "2", "--epochs", "3", "--r", "8", "--seed", "7",
        "--out", str(tmp_path / "rep.json"),
        "--plot", str(tmp_path / "rep.svg")]))
    assert code == 0
    path = tmp_path / "bank.luca"
    _, emitted["save_bank"] = _traced(
        lambda: tosca.engine.save_bank(reports[0].artifacts["bank"], path))
    loaded, emitted["load_bank"] = _traced(lambda: tosca.engine.load_bank(path))
    rows = load_features(f"{prefix}.test.ftr").features
    _, emitted["predict_batch"] = _traced(
        lambda: tosca.engine.predict_batch(rows, loaded))

    later = tuple(p for prefixes in _LATER_STEPS.values() for p in prefixes)
    missing = {}
    for step, metrics in emitted.items():
        if step in _LATER_STEPS:
            wanted = [n for n in names if n.startswith(_LATER_STEPS[step])]
        else:
            wanted = [n for n in names if not n.startswith(later)]
        missing[step] = [n for n in wanted if n not in metrics]
    assert missing == dict.fromkeys(emitted, [])
