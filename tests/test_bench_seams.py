"""Every function the benchmark's tracer wraps must exist in ``tosca``.

The traced benchmark run replaces named functions (``tosca.engine.fnv1a``,
``tosca.luca.vecmat``, ``tosca.engine.luca_forward``, ...) with timing
wrappers.  A seam that was renamed or deleted is skipped silently and its
per-layer metrics go missing, which only the benchmark's own self-test
notices.  This test fails first.
"""

import sys
from pathlib import Path

import numpy as np

import tosca.engine
from tosca.engine import BankEntry, ModuleBank, load_bank, save_bank
from tosca.heads import make_head
from tosca.luca import init_luca
from tosca.rng import Xoshiro256StarStar

BENCH_DIR = str(Path(__file__).resolve().parent.parent / "benchmarks")


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
