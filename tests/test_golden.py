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
change that moves a single bit of any of them fails here.

Float32 ``sgemm`` rounds differently per OpenBLAS kernel, and numpy's
float32 ``exp``, ``log`` and ``tanh`` per SIMD dispatch level, so the
trained bits are pinned on kernels that every x86-64-v2 CPU runs.  All
thirteen digests of both cases are computed once in a subprocess started
with two switches (``portable_env``): ``OPENBLAS_CORETYPE=Prescott``, and
``NPY_DISABLE_CPU_FEATURES`` naming every target in numpy's
``__cpu_dispatch__``, which caps numpy at its X86_V2 baseline.  The
``.report`` digests are also checked in this process, on the native
kernels, where they do not move.  ``d768`` runs again natively in a
subprocess at two OpenBLAS threads and must give this process's native
digests: bits do not depend on the BLAS thread count.  The ``d32`` case
reads the ``joint``, ``tosca`` and ``finetune`` runs of the session-wide
``headline`` fixture (``conftest.py``) instead of running them again.

On each case's ``tosca`` bank, routing, which computes in float32, must
pick the session and class that a float64 reference picks on every test
row, and single-row ``predict`` what 32-row ``predict_batch`` picks.

The digests were pinned on Python 3.11.7, numpy 2.4.6 and the
scipy-openblas 0.3.31.188.0 that numpy bundles (x86-64), with no scipy in
the stack.  Another numpy or OpenBLAS release may round differently, so on
another stack a mismatch means "bits differ from the pinned stack", not
necessarily a fault.

    python tests/test_golden.py [case ...]

prints the current digests in the layout of ``GOLDEN`` on the kernels it
runs on.  A change that moves bits on purpose re-pins by replacing
``GOLDEN`` with that output on the portable kernels, after setting the
two switches as ``portable_env`` does, and says why in CHANGES.md.
"""

import ast
import functools
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
            "21522700c47d22029e4e7af851f0dba98bfc51ec3301a5745f278d9a7200ac73",
        "tosca.weights":
            "8c542f8020a1b26dfa71dc96872038f1e3ce531858b63faccf93dd5ce643d73c",
        "tosca_r.report":
            "083f2c168ae738b5b65e83a3e9a876e27720d3097eb0243042c4e96805d33d26",
        "tosca_r.bank":
            "d2c78bee7cf2cb73e48bf2f6539f5dc842f950ba0c70ff91da93b1c9b48b7d3c",
        "tosca_r.weights":
            "a049ccafefd4a90ad4a5bd730431d7582ec6df5022bd8273a27c01bc00cfca5f",
        "finetune.report":
            "2186318cefb85aa749a02862b801779b3bcfdc989a1f0a281ceb95c4f1ce453f",
        "finetune.model":
            "9c0178e55b4b3239ac7b04f30d3d6d48ba406ba0bade2957354668365f652758",
        "finetune.weights":
            "b73c973efc88c4803a478b4381b07a3870787282a2127232b2e48df753e98cb4",
        "joint.report":
            "cd888fccf32419e86a9ceeafbdc243586d27e13ec9d4bbcbf9f7aa94fde1bc19",
        "joint.model":
            "8e0651183c0a135d330ec6d5a96068ec1250ccc0bfe15b602bb73be42053aeca",
        "joint.weights":
            "4c464b3dfcb41dea67b7614fd78ba060a0043def61d396e7062d4aa7e42bf6e1",
        "simplecil.report":
            "3a5f3e7a97b0524eecf93559427d26e5cbb019627b8115d3068ceb3e4e078ead",
    },
    "d768": {
        "tosca.report":
            "353846bab6e6341c1204c03a7683b7a6fa75e68002321c60ab0fdee0da425a96",
        "tosca.bank":
            "f5c7138e68b5636f24d547865bd3aa4b3cb636ec0ca1ee594d47421cdc6e6de4",
        "tosca.weights":
            "d396812a390481a9be5ea35925e1e177e8fc20110fcb4b8132c3b2e1ebda80d9",
        "tosca_r.report":
            "20c0d2d5f11e4cc462680bf4aeecd7446a18614eb6536b51b7db8e6a24ba5d6e",
        "tosca_r.bank":
            "c24cea180e70a28330c4d7f9950c3f64eb8b3b27987366b3f03ca553751a062f",
        "tosca_r.weights":
            "f2a3c13e620b067adddc5da934949da21333799e70c14cc021fa4778e20b45e2",
        "finetune.report":
            "8b54fbc044f479553d1523201ca440e90b52d7a6a07b7f1f149644db8285d673",
        "finetune.model":
            "ac416d5ba14948fb6fe1c14bd90689127c8d76c4be2ebb71438d17f65907abd9",
        "finetune.weights":
            "1134eac39e6bb6bf4265ee78d51831ff52686110f3a9dd201a13ea51f62bed43",
        "joint.report":
            "86bfcdfc702663f72719ff266e7be9d0b7e486832317ed935dbe14b3a02c7a94",
        "joint.model":
            "6dfecce068cd1e6d805c7f1ac10e7778864c5600daddac28ef29f0c5884978d7",
        "joint.weights":
            "618dc5fa0d0f7be3c05967c32b79fd66240fc2f60e83cc286ee7300e99e3cb05",
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


def portable_env() -> dict:
    """This process's environment with OpenBLAS on its Prescott kernels and
    every SIMD target that numpy dispatches to above its baseline
    disabled."""
    from numpy._core._multiarray_umath import __cpu_dispatch__
    return dict(os.environ, OPENBLAS_CORETYPE="Prescott",
                NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__))


def _script_digests(env: dict, *cases) -> dict:
    """This script's digests of ``cases`` (all if none), run under ``env``."""
    out = subprocess.run([sys.executable, __file__, *cases], env=env,
                         capture_output=True, text=True, check=True).stdout
    return ast.literal_eval(out.split("=", 1)[1])


def _headline_runs(case: str, request):
    """The shared ``headline`` fixture's runs if ``case`` is ``d32``, which
    is the headline; no runs for another case."""
    return request.getfixturevalue("headline")["runs"] if case == "d32" else {}


@pytest.fixture(scope="module")
def native(request):
    """``case`` -> its digests in this process, computed once per case."""
    return functools.cache(
        lambda case: digests(case, _headline_runs(case, request)))


@pytest.fixture(scope="module")
def portable():
    """Every case's digests on the portable kernels, from one subprocess."""
    return _script_digests(portable_env())


def _reports(pinned: dict) -> dict:
    return {k: v for k, v in pinned.items() if k.endswith(".report")}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digests(case, native, portable):
    assert _reports(native(case)) == _reports(GOLDEN[case])
    assert portable[case] == GOLDEN[case]


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


def test_golden_digests_at_two_blas_threads(native):
    # on the native kernels, against this process's digests: the pins hold
    # only on the portable ones
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    assert _script_digests(env, "d768") == {"d768": native("d768")}


if __name__ == "__main__":
    print(layout({case: digests(case) for case in sys.argv[1:] or CASES}))
