"""Golden digests: sha256 of every method's report and trained weights.

Two scenarios, each with data and split seeds fixed and scenario seed
1993, and each run with all five methods:
- ``d32``, the headline: d=32, 50 classes, 10 stages of 5, the default
  config (data seed 3);
- ``d768``, a small ViT-sized case: ``synth_gaussian(768, 10, 20, 10,
  138.0, 17.0, 5)``, 2 stages of 5, 2 epochs.

Each case pins nine digests: the five reports without ``wall_time_s``,
the saved ``tosca`` and ``tosca_r`` banks, and the ``finetune`` and
``joint`` module and head, serialized as one bank entry.  A change that
moves a single bit of any of them fails here.  ``d768`` runs again in a
subprocess at two OpenBLAS threads and must give the same digests: bits
do not depend on the BLAS thread count.

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

import pytest

if __name__ == "__main__":  # a script reads this checkout's package
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tosca.data import make_splits, synth_gaussian
from tosca.engine import (METHODS, BankEntry, ScenarioConfig, _entry_bytes,
                          run_scenario, save_bank)
from tosca.optim import OptimConfig

# case: synth_gaussian arguments (d, classes, train and test rows per
# class, separation, sigma, seed) and the scenario config
CASES = {
    "d32": ((32, 50, 100, 50, 138.0, 23.0, 3), ScenarioConfig()),
    "d768": ((768, 10, 20, 10, 138.0, 17.0, 5),
             ScenarioConfig(optim=OptimConfig(epochs=2))),
}

GOLDEN = {
    "d32": {
        "tosca.report":
            "9a20a2359e3dad9f038df7025c0e3c9b0ebfa0ef392dd733636ec34d5f83ea5f",
        "tosca.bank":
            "35b272b7c6d91a692a0714d0c44dd2728e2b533f71fbf26dcdd9c8dec50d5db4",
        "tosca_r.report":
            "083f2c168ae738b5b65e83a3e9a876e27720d3097eb0243042c4e96805d33d26",
        "tosca_r.bank":
            "4da8cf82eab7c0263cabae25c703b9fc7ea10eea43c7bcb3419c037fbdfa3525",
        "finetune.report":
            "2186318cefb85aa749a02862b801779b3bcfdc989a1f0a281ceb95c4f1ce453f",
        "finetune.model":
            "e73c63f34f311e3eaf4e93d92f040e7c57ca6e7944f3d3dd9f4e76d6fdafad07",
        "joint.report":
            "cd888fccf32419e86a9ceeafbdc243586d27e13ec9d4bbcbf9f7aa94fde1bc19",
        "joint.model":
            "ea2fe4d98530a48034f0920de781d129c3b80ee1a877d0c9583c3e66a9b7c601",
        "simplecil.report":
            "3a5f3e7a97b0524eecf93559427d26e5cbb019627b8115d3068ceb3e4e078ead",
    },
    "d768": {
        "tosca.report":
            "353846bab6e6341c1204c03a7683b7a6fa75e68002321c60ab0fdee0da425a96",
        "tosca.bank":
            "0a2581e2bed551843b104955bf8c1525bf3656c330036f2493caf67e3068e912",
        "tosca_r.report":
            "20c0d2d5f11e4cc462680bf4aeecd7446a18614eb6536b51b7db8e6a24ba5d6e",
        "tosca_r.bank":
            "4fca7d328d7a1382814b827d1c721d0eeab1b13b276bb45942ba40427f584532",
        "finetune.report":
            "8b54fbc044f479553d1523201ca440e90b52d7a6a07b7f1f149644db8285d673",
        "finetune.model":
            "56bad6181c45f0824a109f58411480e57786172ccf6f6c350dd165a2026cc6f4",
        "joint.report":
            "86bfcdfc702663f72719ff266e7be9d0b7e486832317ed935dbe14b3a02c7a94",
        "joint.model":
            "517cee4a0cc0d5b3abd5126e5c0b3f648659b03abf0dff59b65e988da63565fd",
        "simplecil.report":
            "1ea315aec0340d1b6403cfb5cd1723ce0ce3c53e013227c06dfe8e81baa1678b",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(case: str) -> dict:
    """The current digests of ``case``, keyed as in ``GOLDEN``."""
    args, cfg = CASES[case]
    train, test = synth_gaussian(*args)
    splits = make_splits(train.class_ids, base=0, increment=5, seed=1993)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for method in METHODS:
            rep = run_scenario(train, test, splits, method, cfg, seed=1993)
            report = rep.to_dict()
            report.pop("wall_time_s")
            out[f"{method}.report"] = _sha(
                json.dumps(report, sort_keys=True).encode())
            art = rep.artifacts
            if "bank" in art:
                path = Path(tmp) / f"{method}.lbk"
                save_bank(art["bank"], path)
                out[f"{method}.bank"] = _sha(path.read_bytes())
            if "module" in art:
                entry = BankEntry(session_index=1, module=art["module"],
                                  head=art["head"])
                out[f"{method}.model"] = _sha(_entry_bytes(entry))
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digests(case):
    assert digests(case) == GOLDEN[case]


def test_golden_digests_at_two_blas_threads():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    out = subprocess.run([sys.executable, __file__, "d768"], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert ast.literal_eval(out.split("=", 1)[1]) == {"d768": GOLDEN["d768"]}


if __name__ == "__main__":
    print(layout({case: digests(case) for case in sys.argv[1:] or CASES}))
