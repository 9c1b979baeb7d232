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

The digests were pinned on Python 3.11.7, numpy 2.4.6 and the
scipy-openblas 0.3.31.188.0 that numpy bundles (x86-64, SkylakeX kernel),
with no scipy in the stack.  They depend on that OpenBLAS and on numpy's
float32 ``exp`` and ``tanh`` loops, so on another stack a mismatch means
"bits differ from the pinned host", not necessarily a fault.

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
            "8749eba3c04134f95635bb81b9e4956e916f9d6ae07d27879065c0f72eadbdaa",
        "tosca.weights":
            "950f29ed6779afc84e8d696f97f938294f1246f90533c11eb18cd0b1fd9bb20c",
        "tosca_r.report":
            "083f2c168ae738b5b65e83a3e9a876e27720d3097eb0243042c4e96805d33d26",
        "tosca_r.bank":
            "586e95a178927a61c76ad182aac84a2f71f11bb34e35b0cd2799ee4b63990521",
        "tosca_r.weights":
            "11574b31a5e93e1291486dda48f439a88a68cbac82e7e79db0d817ba96b81dfd",
        "finetune.report":
            "2186318cefb85aa749a02862b801779b3bcfdc989a1f0a281ceb95c4f1ce453f",
        "finetune.model":
            "dd05403f02c45f15391b2201a9dcd51b75092105a257ba39c465896757cfd18b",
        "finetune.weights":
            "df69efbd40116edbd4a4c233586ccb6de2282a315f399ad4ec934889512ec8da",
        "joint.report":
            "cd888fccf32419e86a9ceeafbdc243586d27e13ec9d4bbcbf9f7aa94fde1bc19",
        "joint.model":
            "8a116a28778bc6ed89045c77b1c73b78927bb019caf0e9cbb833c4513f322b43",
        "joint.weights":
            "172f9f47ea192ac12bf00d45030317c9f99326a206986714515e013ecc0df0cb",
        "simplecil.report":
            "3a5f3e7a97b0524eecf93559427d26e5cbb019627b8115d3068ceb3e4e078ead",
    },
    "d768": {
        "tosca.report":
            "353846bab6e6341c1204c03a7683b7a6fa75e68002321c60ab0fdee0da425a96",
        "tosca.bank":
            "8d5d6b3d4d56327553100b1f5740e3a3da0931bfc6e9a25aeb2aea61ed687225",
        "tosca.weights":
            "490b16f0d2cad42e1cd875a8b29774b8b3a22f40fc22c68476332e4f018e7556",
        "tosca_r.report":
            "20c0d2d5f11e4cc462680bf4aeecd7446a18614eb6536b51b7db8e6a24ba5d6e",
        "tosca_r.bank":
            "ce55cbb0e659621472b71c6eabd2834d1078bdb302de89cde834405c6d29a5e9",
        "tosca_r.weights":
            "657f14fd2445f576ebaf9abca5765ed7a92bc2089b8f7cc0d08714bee316014a",
        "finetune.report":
            "8b54fbc044f479553d1523201ca440e90b52d7a6a07b7f1f149644db8285d673",
        "finetune.model":
            "626ae6dbd84ceab060784ef065eb4ce3e20f5d95ecdd743cd8c84107979a6ed3",
        "finetune.weights":
            "6220520022e5e7f51e1ff08b2388f02fc918902d8cba2b6a7599f32c8880fe1c",
        "joint.report":
            "86bfcdfc702663f72719ff266e7be9d0b7e486832317ed935dbe14b3a02c7a94",
        "joint.model":
            "1cdb1b405e15c0bc063f601e64fec6852ebf1b64a840b69edb41d8e2949a1a78",
        "joint.weights":
            "310289d656cdbfef88e60361553e29b24849e51fe03273522999e6c93602b3d2",
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
