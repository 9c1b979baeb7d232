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
            "35a54e9814bb0ffea64f55ed1fc64169d768682905bd3fa8ee1ea02e017a05a1",
        "tosca.weights":
            "45a483a0f479afe528e8f711f96fd4dab9218ad1164201005ad201df59b3b4a8",
        "tosca_r.report":
            "083f2c168ae738b5b65e83a3e9a876e27720d3097eb0243042c4e96805d33d26",
        "tosca_r.bank":
            "daf115746faaff42bd6af90d03430868259811ec6c57ebac93f2e92a3d2c6cfc",
        "tosca_r.weights":
            "d821c4422d644e364b662ca10ca08a585afaae231842cb07ab7751b1c07e2b88",
        "finetune.report":
            "2186318cefb85aa749a02862b801779b3bcfdc989a1f0a281ceb95c4f1ce453f",
        "finetune.model":
            "112167db89e58276dd9ed8bf409d184ccc8edae1913d449d022adca1f5143b65",
        "finetune.weights":
            "1e8d48ebf043346e101f7fb158699625b5bb1421ad17bce66cdbe4efa6341544",
        "joint.report":
            "cd888fccf32419e86a9ceeafbdc243586d27e13ec9d4bbcbf9f7aa94fde1bc19",
        "joint.model":
            "4a1080d4ee69802f2b7b934f0a99158d9688e02bc11c81e25fb42d3be215ebfc",
        "joint.weights":
            "c7df369d029f17e42b482eb3611a2be909f889924b23e39171a3e597eb1dda30",
        "simplecil.report":
            "3a5f3e7a97b0524eecf93559427d26e5cbb019627b8115d3068ceb3e4e078ead",
    },
    "d768": {
        "tosca.report":
            "353846bab6e6341c1204c03a7683b7a6fa75e68002321c60ab0fdee0da425a96",
        "tosca.bank":
            "81096a47b6ddd111eff9aeca49fa9d14e567242c0fa929fd77096595e699b581",
        "tosca.weights":
            "a8d03272570a6b5b043fdd1967e7ae233ab4e36b9b7a8fb525acc34af6395822",
        "tosca_r.report":
            "20c0d2d5f11e4cc462680bf4aeecd7446a18614eb6536b51b7db8e6a24ba5d6e",
        "tosca_r.bank":
            "2a6bab006b190993798a8b04bf4456ca882efc0df418117e65a465a6ccc3dd86",
        "tosca_r.weights":
            "344a5958b1729a7a1355100e1167aa9b32a4fb049157c628ff2df721d1ca2462",
        "finetune.report":
            "8b54fbc044f479553d1523201ca440e90b52d7a6a07b7f1f149644db8285d673",
        "finetune.model":
            "63db123ce023811700d3a972136861a9c26df293f6a4849f9c21386e7b1a96e5",
        "finetune.weights":
            "b11a5aa00494f72bbbd4dab1172766fb3c0cf6538bac3a5324afb6262b9649e0",
        "joint.report":
            "86bfcdfc702663f72719ff266e7be9d0b7e486832317ed935dbe14b3a02c7a94",
        "joint.model":
            "195438a63d48b1215a4f77ed037d358b78b2787f03512d4da5ad9e19c6cbf6fe",
        "joint.weights":
            "0b64d69dcb8362ad5cd737b912b0aa6b91d076f02f1621c0bd531dad502ff2c6",
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
