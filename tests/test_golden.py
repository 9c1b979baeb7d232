"""Golden digests: sha256 of every method's report and trained weights.

Two scenarios, each with data and split seeds fixed and scenario seed
1993, and each run with all five methods:
- ``d32``, the headline: d=32, 50 classes, 10 stages of 5, the default
  config (data seed 3);
- ``d768``, a small ViT-sized case: ``synth_gaussian(768, 10, 20, 10,
  138.0, 17.0, 5)``, 2 stages of 5, 2 epochs.

Each case pins thirteen digests: the five reports without
``wall_time_s``, the saved ``tosca`` and ``tosca_r`` banks, the
``finetune`` and ``joint`` module and head, serialized as one bank entry,
and, for each of the four trained methods, its weights: every session's
four matrices and head as float32 bytes, whatever the container holds.  A
change that moves a single bit of any of them fails here.  ``d768`` runs again in a
subprocess at two OpenBLAS threads and must give the same digests: bits
do not depend on the BLAS thread count.  The ``d32`` case reads the
``joint``, ``tosca`` and ``finetune`` runs of the session-wide ``headline``
fixture (``conftest.py``) instead of running them again.

On each case's ``tosca`` bank, routing, which computes in float32, must
pick the session and class that a float64 reference picks on every test
row, and single-row ``predict`` what 32-row ``predict_batch`` picks.

The digests were pinned on Python 3.11.7, numpy 2.4.6, scipy 1.17.1 and
scipy-openblas 0.3.31.188.0 (x86-64).  They depend on that OpenBLAS and
libm, so on another stack a mismatch means "bits differ from the pinned
host", not necessarily a fault.

    python tests/test_golden.py [case ...]

prints the current digests in the layout of ``GOLDEN``.  A change that
moves bits on purpose re-pins by replacing ``GOLDEN`` with that output,
and says why in CHANGES.md.
"""

import ast
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":  # a script reads this checkout's package
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import oracle
from conftest import HEADLINE_DATA
from tosca.data import make_splits, synth_gaussian
from tosca.engine import (METHODS, BankEntry, ScenarioConfig, _entry_bytes,
                          predict, predict_batch, run_scenario, save_bank)
from tosca.optim import OptimConfig

# case: synth_gaussian arguments (d, classes, train and test rows per
# class, separation, sigma, seed) and the scenario config
CASES = {
    "d32": (HEADLINE_DATA, ScenarioConfig()),
    "d768": ((768, 10, 20, 10, 138.0, 17.0, 5),
             ScenarioConfig(optim=OptimConfig(epochs=2))),
}

GOLDEN = {
    "d32": {
        "tosca.report":
            "9a20a2359e3dad9f038df7025c0e3c9b0ebfa0ef392dd733636ec34d5f83ea5f",
        "tosca.bank":
            "92506eea97ea3445d4fa9f58c3e5fd65d6ccdfbdefccb028bde3e7be382f0d7b",
        "tosca.weights":
            "691ec31da4e1b71c23a87e8e893382a15fadda56bc15940e73ff169bff4ecd59",
        "tosca_r.report":
            "083f2c168ae738b5b65e83a3e9a876e27720d3097eb0243042c4e96805d33d26",
        "tosca_r.bank":
            "3af0ac402afb9923c4d6d176138fd79340bb001a98806feec90fc6a8538ea9ac",
        "tosca_r.weights":
            "f9d5cef06e8756c091f06bfb49e777a78527cff9949e47379b017c2569a1e213",
        "finetune.report":
            "2186318cefb85aa749a02862b801779b3bcfdc989a1f0a281ceb95c4f1ce453f",
        "finetune.model":
            "b06c12777b4d9909081f3aec58a92270b1b5c4d61a63d074ed47ae5d36bfa578",
        "finetune.weights":
            "5268cb71c78bf517159e0b35eeec451660b8c94644e7d444dac4fab8f56c397d",
        "joint.report":
            "cd888fccf32419e86a9ceeafbdc243586d27e13ec9d4bbcbf9f7aa94fde1bc19",
        "joint.model":
            "ef57d88d32cd9d27d47dc18038cb7e9da5b406f5cfe1ad4e0c2ba59690cf7c2c",
        "joint.weights":
            "8cf7dc875cac5322c3fa4da56cad84c87af1715b996a24128db39a8f238d482b",
        "simplecil.report":
            "3a5f3e7a97b0524eecf93559427d26e5cbb019627b8115d3068ceb3e4e078ead",
    },
    "d768": {
        "tosca.report":
            "353846bab6e6341c1204c03a7683b7a6fa75e68002321c60ab0fdee0da425a96",
        "tosca.bank":
            "a856fa20fce3891e36c86a07735e59c85b20b87cb1f29b2df443048b36c90b4c",
        "tosca.weights":
            "e28c0586e8970656104567a629ab724f5f8dcef99146f87e191c7ba80201f672",
        "tosca_r.report":
            "20c0d2d5f11e4cc462680bf4aeecd7446a18614eb6536b51b7db8e6a24ba5d6e",
        "tosca_r.bank":
            "157e0f75de9d691fc529cb97f24ff6543b3f316e55662796fd436f2c51cb7c48",
        "tosca_r.weights":
            "a744dfefb79cd35cf1f1d2ab56a75073a3b485be4e6976c27147c0cd4ca97ed9",
        "finetune.report":
            "8b54fbc044f479553d1523201ca440e90b52d7a6a07b7f1f149644db8285d673",
        "finetune.model":
            "f636f129c2c44857d9c802a1c19628d6fc558a94749c874aec8b3a049d806f8a",
        "finetune.weights":
            "703fb23c74cdc4083b6bd3f1b4600980255d23ad50acb3f213dd5b4fa1a3a7a9",
        "joint.report":
            "86bfcdfc702663f72719ff266e7be9d0b7e486832317ed935dbe14b3a02c7a94",
        "joint.model":
            "7b2dca5c7a4a9be86cc687cde53b8a2cba9fcde051c9d90e2f85133c6fb4d4dc",
        "joint.weights":
            "e198b87fa6f03230aae5ee8d141411ce4db22d20c7e1cac39b0e4038d26970a0",
        "simplecil.report":
            "1ea315aec0340d1b6403cfb5cd1723ce0ce3c53e013227c06dfe8e81baa1678b",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _weights(sessions) -> str:
    """sha256 of each (module, head)'s four matrices and head, as float32."""
    h = hashlib.sha256()
    for module, head in sessions:
        for mat in module.matrices() + (head.w,):
            h.update(np.ascontiguousarray(mat, dtype="<f4").tobytes())
    return h.hexdigest()


def _inputs(case: str):
    """(train, test, splits, config) of ``case``."""
    args, cfg = CASES[case]
    train, test = synth_gaussian(*args)
    splits = make_splits(train.class_ids, base=0, increment=5, seed=1993)
    return train, test, splits, cfg


def digests(case: str, runs=None) -> dict:
    """The current digests of ``case``, keyed as in ``GOLDEN``.

    ``runs`` maps a method to its report already run on the case, which is
    read instead of running the method again.
    """
    runs = runs or {}
    train, test, splits, cfg = _inputs(case)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for method in METHODS:
            rep = (runs[method] if method in runs else
                   run_scenario(train, test, splits, method, cfg, seed=1993))
            report = rep.to_dict()
            report.pop("wall_time_s")
            out[f"{method}.report"] = _sha(
                json.dumps(report, sort_keys=True).encode())
            art = rep.artifacts
            if "bank" in art:
                path = Path(tmp) / f"{method}.lbk"
                save_bank(art["bank"], path)
                out[f"{method}.bank"] = _sha(path.read_bytes())
                out[f"{method}.weights"] = _weights(
                    (e.module, e.head) for e in art["bank"].entries)
            if "module" in art:
                entry = BankEntry(session_index=1, module=art["module"],
                                  head=art["head"])
                out[f"{method}.model"] = _sha(_entry_bytes(entry))
                out[f"{method}.weights"] = _weights([(art["module"],
                                                      art["head"])])
    return out


def layout(golden: dict) -> str:
    """``golden`` as the source of ``GOLDEN``."""
    lines = ["GOLDEN = {"]
    for case, pinned in golden.items():
        lines.append(f'    "{case}": {{')
        for name, digest in pinned.items():
            lines.append(f'        "{name}":')
            lines.append(f'            "{digest}",')
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines)


def _headline_runs(case: str, request):
    """The shared ``headline`` fixture's runs if ``case`` is ``d32``, which
    is the headline; no runs for another case."""
    return request.getfixturevalue("headline")["runs"] if case == "d32" else {}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digests(case, request):
    assert digests(case, _headline_runs(case, request)) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_float32_routing_agrees_with_a_float64_reference(case, request):
    train, test, splits, cfg = _inputs(case)
    rep = _headline_runs(case, request).get("tosca") or run_scenario(
        train, test, splits, "tosca", cfg, seed=1993)
    bank = rep.artifacts["bank"]
    Z = test.features
    want_classes, want_sessions = oracle.route_float64(Z, bank)
    classes, sessions = predict_batch(Z, bank)
    assert np.array_equal(classes, want_classes)
    assert np.array_equal(sessions, want_sessions)
    micro = [predict_batch(Z[i:i + 32], bank) for i in range(0, len(Z), 32)]
    assert np.array_equal(np.concatenate([c for c, _ in micro]), classes)
    assert np.array_equal(np.concatenate([s for _, s in micro]), sessions)
    for i, z in enumerate(Z):
        p = predict(z, bank)
        assert (p.class_id, p.session_index) == (classes[i], sessions[i]), i


def test_golden_digests_at_two_blas_threads():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    out = subprocess.run([sys.executable, __file__, "d768"], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert ast.literal_eval(out.split("=", 1)[1]) == {"d768": GOLDEN["d768"]}


if __name__ == "__main__":
    print(layout({case: digests(case) for case in sys.argv[1:] or CASES}))
