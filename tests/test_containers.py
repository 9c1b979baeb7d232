"""Exhaustive corruption of both binary containers.

Every truncation and every single-bit flip of a small feature file and a
small bank file either loads or raises ``ValueError``; never ``struct.error``,
``IndexError`` or ``MemoryError``.  Every truncation, and every flip inside
the fixed 24-byte header, must be refused.  A bank entry is checksummed
whole, config bytes included, so every flip of a bank must be refused.

Every writer, of features, banks, reports and plots, replaces its target
whole: a write that fails partway leaves the old file's bytes and no new
file behind.
"""

import math

import numpy as np
import pytest

import tosca.data
from tosca.data import FeatureDataset, load_features, save_features
from tosca.engine import BankEntry, ModuleBank, load_bank, save_bank
from tosca.heads import make_head
from tosca.luca import LucaConfig, init_luca
from tosca.report import emit_plot, emit_report

HEADER_BYTES = 24  # magic + (version, d, n) or magic + (version, d, r, count)


def _feature_file(path):
    # 4 records of d=3: 88 bytes
    save_features(FeatureDataset(
        name="x", features=np.linspace(-1.0, 1.0, 12).reshape(4, 3),
        labels=np.array([0, 1, 2, 1], dtype=np.uint32)), path)


def _bank_file(path):
    # one d=3, r=1 session with two classes and a non-default config whose
    # four bytes are all nonzero (2, 1, 1, 1): 124 bytes
    bank = ModuleBank(3)
    config = LucaConfig(adapter_act="sigmoid", gate_act="gelu",
                        gate_residual=True, reversed=True)
    module = init_luca(3, 1, config, rng_seed=5)
    module.w_up[:] = 0.25
    head = make_head(3, (4, 9))
    head.w[:] = np.arange(6, dtype=np.float32).reshape(3, 2) / 8
    bank.append(BankEntry(session_index=1, module=module, head=head))
    save_bank(bank, path)


def _mutants(blob, guarded):
    # (bytes, must be refused) for every truncation and single-bit flip;
    # a flip must be refused within the first ``guarded`` bytes
    for n in range(len(blob)):
        yield blob[:n], True
    for i in range(len(blob)):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[i] ^= 1 << bit
            yield bytes(flipped), i < guarded


@pytest.mark.parametrize("write,load,guarded",
                         [(_feature_file, load_features, HEADER_BYTES),
                          (_bank_file, load_bank, math.inf)],
                         ids=["features", "bank"])
def test_every_truncation_and_bit_flip_loads_or_raises_value_error(tmp_path,
                                                                   write, load,
                                                                   guarded):
    p = tmp_path / "good"
    write(p)
    blob = p.read_bytes()
    load(p)
    bad = tmp_path / "mutant"
    for mutant, must_refuse in _mutants(blob, guarded):
        bad.write_bytes(mutant)
        try:
            load(bad)
        except ValueError:
            continue
        assert not must_refuse, (len(mutant), mutant[:HEADER_BYTES].hex())


_REPORT = {"method": "tosca", "A_bar": 90.0,
           "stages": [{"index": 1, "A_b": 90.0, "selection_accuracy": 95.0}]}
_WRITERS = {
    "features": _feature_file,
    "bank": _bank_file,
    "json": lambda p: emit_report(_REPORT, p, "json"),
    "csv": lambda p: emit_report(_REPORT, p, "csv"),
    "plot": lambda p: emit_plot([_REPORT], p),
}


class _DiskFull:
    """A file that takes one byte of what it is given, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def writelines(self, parts):
        self.fh.write(b"".join(parts)[:1])
        self.fh.flush()
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("name", sorted(_WRITERS))
def test_a_write_that_fails_partway_keeps_the_old_file(tmp_path, monkeypatch,
                                                       name):
    write = _WRITERS[name]
    p = tmp_path / "target"
    p.write_bytes(b"old bytes")
    real_open = open
    monkeypatch.setattr(tosca.data, "open",
                        lambda path, mode: _DiskFull(real_open(path, mode)),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        write(p)
    assert p.read_bytes() == b"old bytes"
    assert [q.name for q in tmp_path.iterdir()] == ["target"]
    monkeypatch.undo()
    write(p)  # and a write that succeeds replaces it, leaving nothing else
    assert p.read_bytes() != b"old bytes"
    assert [q.name for q in tmp_path.iterdir()] == ["target"]
