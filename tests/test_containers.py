"""Exhaustive corruption of both binary containers.

Every truncation and every single-bit flip of a small feature file and a
small bank file either loads or raises ``ValueError``; never ``struct.error``,
``IndexError`` or ``MemoryError``.  Truncations and flips inside the fixed
24-byte header must always be refused.
"""

import numpy as np
import pytest

from tosca.data import FeatureDataset, load_features, save_features
from tosca.engine import BankEntry, ModuleBank, load_bank, save_bank
from tosca.heads import make_head
from tosca.luca import init_luca

HEADER_BYTES = 24  # magic + (version, d, n) or magic + (version, d, r, count)


def _feature_file(path):
    # 4 records of d=3: 88 bytes
    save_features(FeatureDataset(
        name="x", features=np.linspace(-1.0, 1.0, 12).reshape(4, 3),
        labels=np.array([0, 1, 2, 1], dtype=np.uint32)), path)


def _bank_file(path):
    # one d=3, r=1 session with two classes: 120 bytes
    bank = ModuleBank(3)
    module = init_luca(3, 1, rng_seed=5)
    module.w_up[:] = 0.25
    head = make_head(3, (4, 9))
    head.w[:] = np.arange(6, dtype=np.float32).reshape(3, 2) / 8
    bank.append(BankEntry(session_index=1, module=module, head=head))
    save_bank(bank, path)


def _mutants(blob):
    # (bytes, must be refused) for every truncation and single-bit flip
    for n in range(len(blob)):
        yield blob[:n], True
    for i in range(len(blob)):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[i] ^= 1 << bit
            yield bytes(flipped), i < HEADER_BYTES


@pytest.mark.parametrize("write,load", [(_feature_file, load_features),
                                        (_bank_file, load_bank)],
                         ids=["features", "bank"])
def test_every_truncation_and_bit_flip_loads_or_raises_value_error(tmp_path,
                                                                   write, load):
    p = tmp_path / "good"
    write(p)
    blob = p.read_bytes()
    load(p)
    bad = tmp_path / "mutant"
    for mutant, must_refuse in _mutants(blob):
        bad.write_bytes(mutant)
        try:
            load(bad)
        except ValueError:
            continue
        assert not must_refuse, (len(mutant), mutant[:HEADER_BYTES].hex())
