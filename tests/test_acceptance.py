"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
The synthetic benchmark (criteria 4, 5, 7) is computed once per module; its
headline runs come from the session-wide ``headline`` fixture, which the
golden digests read too.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from tosca.data import load_features, save_features
from tosca.engine import (BankEntry, ModuleBank, load_bank,
                          module_orthogonality, predict, run_scenario,
                          save_bank)
from tosca.heads import make_head
from tosca.luca import (LucaConfig, gradient_check, init_luca, luca_forward,
                        layerwise_adapter_count, param_count, sparsity_ratio)
from tosca.optim import OptimConfig, cosine_lr
from tosca.rng import Xoshiro256StarStar


def _verdict(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def bench(headline):
    """Criterion-4 scenario plus the extra runs criteria 5 and 7 reuse.

    The criterion-4 runs are the shared headline's: data seed 3, split and
    scenario seed 1993, the default config (r=48, lambda 5e-4, lr 0.025
    cosine, 20 epochs), and its seconds are the time those runs took.
    """
    train, test, splits, cfg = (headline[k]
                                for k in ("train", "test", "splits", "cfg"))
    joint, tosca, finetune = (headline["runs"][m]
                              for m in ("joint", "tosca", "finetune"))

    by_lambda = {5e-4: tosca}
    for lam in (0.0, 5e-3, 5e-2):
        c = replace(cfg, optim=replace(cfg.optim, lambda_l1=lam))
        by_lambda[lam] = run_scenario(train, test, splits, "tosca", c,
                                      seed=1993)
    rerun = run_scenario(train, test, splits, "tosca", cfg, seed=1993)
    return {
        "train": train, "test": test, "splits": splits, "cfg": cfg,
        "joint": joint, "tosca": tosca, "finetune": finetune,
        "rerun": rerun, "by_lambda": by_lambda,
        "headline_seconds": headline["seconds"],
    }


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    err = gradient_check(trials=20, d_max=16, r_max=4, h=1e-5)
    elapsed = time.perf_counter() - start
    ok = err <= 1e-4 and elapsed < 5.0
    _verdict(1, "gradient correctness", ok,
             f"max rel err {err:.3e} <= 1e-4, {elapsed:.2f}s < 5s")


def test_criterion_2_parameter_accounting(bench):
    counts_ok = (param_count(768, 48) == 147456
                 and layerwise_adapter_count(12, 768, 48) == 884736)
    bank = bench["tosca"].artifacts["bank"]
    d, r = 32, bench["cfg"].r
    per_entry = [e.module.param_count + e.head.param_count
                 for e in bank.entries]
    entries_ok = all(c == 4 * d * r + d * len(e.class_ids)
                     for c, e in zip(per_entry, bank.entries))
    ok = counts_ok and entries_ok
    _verdict(2, "parameter accounting", ok,
             f"147456/884736 exact, {len(bank)} stored entries each "
             f"{per_entry[0]} = 4dr + d|Y_b|")


def test_criterion_3_identity_at_init():
    cfg = LucaConfig(gate_residual=True)
    m = init_luca(64, 8, config=cfg, rng_seed=2026)
    m.v_up[:] = 0.0  # w_up is zero by construction
    gen = Xoshiro256StarStar(505)
    exact = 0
    for _ in range(100):
        z = gen.normals(64)
        if np.array_equal(luca_forward(z, m), z):
            exact += 1
    _verdict(3, "identity at init", exact == 100,
             f"{exact}/100 inputs reproduced bit-exactly")


def test_criterion_4_synthetic_headline(bench):
    joint = bench["joint"].stages[-1]["A_b"]
    tosca = bench["tosca"].stages[-1]["A_b"]
    ft = bench["finetune"].stages[-1]["A_b"]
    sel = bench["tosca"].stages[-1]["selection_accuracy"]
    secs = bench["headline_seconds"]
    ok = (joint >= 95.0 and joint - tosca <= 5.0 and tosca - ft >= 30.0
          and sel >= 90.0 and secs < 120.0)
    _verdict(4, "synthetic headline", ok,
             f"joint {joint:.2f} >= 95, gap {joint - tosca:.2f} <= 5, "
             f"finetune {ft:.2f} trails by {tosca - ft:.2f} >= 30, "
             f"selection {sel:.2f} >= 90, {secs:.1f}s < 120s")


def test_criterion_5_sparsity_orthogonality_trend(bench):
    grid = (0.0, 5e-4, 5e-3, 5e-2)
    sparsities = []
    orth = {}
    for lam in grid:
        bank = bench["by_lambda"][lam].artifacts["bank"]
        sparsities.append(float(np.mean([sparsity_ratio(e.module, 1e-3)
                                         for e in bank.entries])))
        orth[lam] = module_orthogonality(bank)
    monotone = all(a <= b + 1e-12 for a, b in zip(sparsities, sparsities[1:]))
    tighter = orth[5e-4] < orth[0.0]
    ok = monotone and tighter
    _verdict(5, "sparsity/orthogonality trend", ok,
             "sparsity " + " -> ".join(f"{s:.3f}" for s in sparsities)
             + f", |cos| {orth[0.0]:.4f} -> {orth[5e-4]:.4f} under L1")


def test_criterion_6_metric_arithmetic(bench):
    mean_ok = float(np.mean([100.0, 50.0])) == 75.0
    rep = bench["tosca"]
    abar_ok = abs(rep.A_bar
                  - sum(s["A_b"] for s in rep.stages) / len(rep.stages)) <= 1e-9
    cfg = OptimConfig(lr_max=0.025, lr_min=0.001)
    sched_ok = (abs(cosine_lr(0, 200, cfg) - 0.025) <= 1e-12
                and abs(cosine_lr(200, 200, cfg) - 0.001) <= 1e-12
                and abs(cosine_lr(100, 200, cfg) - 0.013) <= 1e-12)
    ok = mean_ok and abar_ok and sched_ok
    _verdict(6, "metric arithmetic", ok,
             "mean([100,50]) == 75.0, A_bar == mean(A_b), cosine endpoints "
             "and midpoint exact to 1e-12")


def test_criterion_7_determinism_and_formats(bench, tmp_path):
    a = bench["tosca"].to_dict()
    b = bench["rerun"].to_dict()
    a["wall_time_s"] = b["wall_time_s"] = 0.0
    json_ok = (json.dumps(a, indent=2, sort_keys=True)
               == json.dumps(b, indent=2, sort_keys=True))

    pa, pb = tmp_path / "a.luca", tmp_path / "b.luca"
    save_bank(bench["tosca"].artifacts["bank"], pa)
    save_bank(bench["rerun"].artifacts["bank"], pb)
    bank_ok = pa.read_bytes() == pb.read_bytes()

    ftr = tmp_path / "train.ftr"
    save_features(bench["train"], ftr)
    ftr2 = tmp_path / "train2.ftr"
    save_features(load_features(ftr), ftr2)
    round_ok = ftr.read_bytes() == ftr2.read_bytes()
    bank_round = tmp_path / "round.luca"
    save_bank(load_bank(pa), bank_round)
    round_ok = round_ok and pa.read_bytes() == bank_round.read_bytes()

    errors_ok = True
    blob = bytearray(ftr.read_bytes())
    bad = tmp_path / "bad.ftr"
    bad.write_bytes(b"XXXXXXXX" + bytes(blob[8:]))
    try:
        load_features(bad)
        errors_ok = False
    except ValueError as exc:
        errors_ok &= "not a feature file" in str(exc)
    trunc = tmp_path / "trunc.ftr"
    trunc.write_bytes(bytes(blob[:len(blob) // 2]))
    try:
        load_features(trunc)
        errors_ok = False
    except ValueError as exc:
        errors_ok &= "unexpected end of file" in str(exc)
    bblob = bytearray(pa.read_bytes())
    bbad = tmp_path / "bad.luca"
    bbad.write_bytes(b"XXXXXXXX" + bytes(bblob[8:]))
    try:
        load_bank(bbad)
        errors_ok = False
    except ValueError as exc:
        errors_ok &= "not a bank file" in str(exc)
    btrunc = tmp_path / "trunc.luca"
    btrunc.write_bytes(bytes(bblob[:len(bblob) - 9]))
    try:
        load_bank(btrunc)
        errors_ok = False
    except ValueError as exc:
        errors_ok &= "unexpected end of file" in str(exc)

    ok = json_ok and bank_ok and round_ok and errors_ok
    _verdict(7, "determinism and formats", ok,
             f"reports byte-identical={json_ok}, banks byte-identical="
             f"{bank_ok}, round trips exact={round_ok}, corrupt-file "
             f"errors={errors_ok}")


def test_criterion_8_entropy_selection_sanity():
    d, k = 4, 4
    bank = ModuleBank(d)
    cfg = LucaConfig(gate_residual=True)

    def identity_module(seed):
        m = init_luca(d, 2, config=cfg, rng_seed=seed)
        m.v_up[:] = 0.0
        return m

    sharp_head = make_head(d, tuple(range(k)))
    sharp_head.w[0, 0] = 1000.0  # z = e0: logits (1000, 0, 0, 0), one-hot
    uniform_head = make_head(d, tuple(range(k, 2 * k)))
    bank.append(BankEntry(1, identity_module(1), sharp_head))
    bank.append(BankEntry(2, identity_module(2), uniform_head))
    pred = predict(np.eye(d)[0], bank)
    pair_ok = (pred.entropies[0] == 0.0
               and abs(pred.entropies[1] - math.log(k)) <= 1e-12)
    pick_ok = pred.session_index == 1 and pred.class_id == 0

    ties = ModuleBank(d)
    ties.append(BankEntry(1, identity_module(3), make_head(d, (10, 11))))
    ties.append(BankEntry(2, identity_module(4), make_head(d, (12, 13))))
    tie_ok = predict(np.ones(d), ties).session_index == 1

    ok = pair_ok and pick_ok and tie_ok
    _verdict(8, "entropy selection sanity", ok,
             f"entropy pair (0, ln {k}) matched={pair_ok}, one-hot module "
             f"selected={pick_ok}, tie kept session 1={tie_ok}")
