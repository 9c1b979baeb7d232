"""Module bank, entropy routing, scenario driver, and bank container tests."""

import itertools
import math
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

import oracle
import tosca.engine as engine
import tosca.heads
import tosca.luca
from tosca.data import FeatureDataset, make_splits, synth_gaussian
from tosca.engine import (BANK_MAGIC, BankEntry, ModuleBank, ScenarioConfig,
                          entry_checksum, evaluate_stage, feature_shift,
                          fnv1a, load_bank, module_orthogonality, predict,
                          predict_batch, route, run_scenario, save_bank,
                          train_session)
from tosca.heads import SessionHead, head_forward_batch, make_head
from tosca.luca import (LucaConfig, LucaModule, init_luca, luca_forward_batch,
                        param_count)
from tosca.numerics import ACTIVATIONS
from tosca.optim import OptimConfig, train_epochs
from tosca.rng import Xoshiro256StarStar, derive_seeds


def _identity_module(d, r=2, seed=0):
    """Module that is the exact identity map (zero up-projections,
    residual gate)."""
    cfg = LucaConfig(gate_residual=True)
    m = init_luca(d, r, config=cfg, rng_seed=seed)
    m.v_up[:] = 0.0
    return m


def _entry(session_index, d, class_ids, w=None, seed=0):
    head = make_head(d, class_ids)
    if w is not None:
        head.w[:] = w
    return BankEntry(session_index=session_index,
                     module=_identity_module(d, seed=seed), head=head)


def _small_scenario(num_classes=6, d=16, seed=3):
    train, test = synth_gaussian(d=d, num_classes=num_classes, n_train=40,
                                 n_test=20, separation=138.0, sigma=23.0,
                                 seed=seed)
    splits = make_splits(range(num_classes), 0, 2, seed=1993)
    return train, test, splits


_FAST = ScenarioConfig(r=8, optim=OptimConfig(epochs=8))


# --- bank bookkeeping --------------------------------------------------------

def test_bank_append_validation():
    bank = ModuleBank(4)
    bank.append(_entry(1, 4, (0, 1)))
    assert len(bank) == 1 and bank.rank == 2
    with pytest.raises(ValueError, match="session index must be consecutive"):
        bank.append(_entry(3, 4, (2, 3)))
    with pytest.raises(ValueError, match="overlapping classes"):
        bank.append(_entry(2, 4, (1, 5)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        bank.append(BankEntry(session_index=2, module=_identity_module(5),
                              head=make_head(5, (7,))))
    wrong_rank = BankEntry(session_index=2, module=_identity_module(4, r=3),
                           head=make_head(4, (7,)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        bank.append(wrong_rank)
    bank.append(_entry(2, 4, (5, 2)))
    assert bank.class_ids == (0, 1, 2, 5)
    assert bank.session_of_class(5) == 2
    assert bank.session_of_class(0) == 1
    with pytest.raises(KeyError):
        bank.session_of_class(99)
    with pytest.raises(ValueError, match="dimensions must be positive"):
        ModuleBank(0)


def test_train_session_grows_bank_and_validates():
    train, _, _ = _small_scenario()
    bank = ModuleBank(16)
    train_session(bank, train, (0, 1), _FAST, seed=5)
    assert len(bank) == 1
    e = bank.entries[0]
    assert e.session_index == 1
    assert e.class_ids == (0, 1)
    assert e.module.param_count == param_count(16, 8)
    assert e.head.w.shape == (16, 2)
    with pytest.raises(ValueError, match="overlapping classes"):
        train_session(bank, train, (1, 2), _FAST, seed=5)
    with pytest.raises(ValueError, match="empty session data"):
        train_session(bank, train, (77,), _FAST, seed=5)


def test_train_session_is_deterministic_in_seed():
    train, _, _ = _small_scenario()
    sums = []
    for seed in (5, 5, 6):
        bank = ModuleBank(16)
        train_session(bank, train, (0, 1), _FAST, seed=seed)
        sums.append(entry_checksum(bank.entries[0]))
    assert sums[0] == sums[1]
    assert sums[0] != sums[2]


def test_training_never_touches_earlier_sessions():
    train, _, _ = _small_scenario()
    bank = ModuleBank(16)
    train_session(bank, train, (0, 1), _FAST, seed=5)
    frozen = entry_checksum(bank.entries[0])
    train_session(bank, train, (2, 3), _FAST, seed=6)
    train_session(bank, train, (4, 5), _FAST, seed=7)
    assert entry_checksum(bank.entries[0]) == frozen


def test_session_depends_only_on_its_own_rows():
    # session 2 must come out identical even when session 1's rows have
    # been destroyed in the meantime: nothing is replayed from the past
    train, _, _ = _small_scenario()
    control = ModuleBank(16)
    train_session(control, train, (0, 1), _FAST, seed=5)
    train_session(control, train, (2, 3), _FAST, seed=6)

    vandalized, _, _ = _small_scenario()
    bank = ModuleBank(16)
    train_session(bank, vandalized, (0, 1), _FAST, seed=5)
    mask = (vandalized.labels == 0) | (vandalized.labels == 1)
    vandalized.features[mask] = 1e6  # stomp session 1's data in place
    train_session(bank, vandalized, (2, 3), _FAST, seed=6)

    assert (entry_checksum(bank.entries[1])
            == entry_checksum(control.entries[1]))


def test_shared_init_seed_contract():
    # the scenario driver gives every session the same init seed, drawn as
    # the (B+1)-th child of the master seed
    train, test, splits = _small_scenario()
    report = run_scenario(train, test, splits, method="tosca", cfg=_FAST,
                          seed=101)
    bank = report.artifacts["bank"]
    seeds = derive_seeds(101, splits.num_stages + 1)
    manual = ModuleBank(16)
    train_session(manual, train, splits.stages[0], _FAST, seeds[0],
                  init=init_luca(16, _FAST.r, _FAST.luca_config(), seeds[-1]))
    assert entry_checksum(manual.entries[0]) == entry_checksum(bank.entries[0])
    # all sessions share that init: fresh modules from it are identical
    a = init_luca(16, _FAST.r, _FAST.luca_config(), seeds[-1])
    b = init_luca(16, _FAST.r, _FAST.luca_config(), seeds[-1])
    assert np.array_equal(a.w_down, b.w_down)


def test_training_from_a_shared_init_leaves_it_untouched():
    # the driver draws the shared init once and every session copies it
    train, _, _ = _small_scenario()
    init = init_luca(16, _FAST.r, _FAST.luca_config(), 42)
    bank = ModuleBank(16)
    train_session(bank, train, (0, 1), _FAST, seed=5, init=init)
    train_session(bank, train, (2, 3), _FAST, seed=6, init=init)
    fresh = init_luca(16, _FAST.r, _FAST.luca_config(), 42)
    for got, want in zip(init.matrices(), fresh.matrices()):
        assert got.tobytes() == want.tobytes()
    trained = [e.module for e in bank.entries]
    assert not np.array_equal(trained[0].w_up, fresh.w_up)
    for a, b in ((init, trained[0]), (init, trained[1]),
                 (trained[0], trained[1])):
        for x, y in zip(a.matrices(), b.matrices()):
            assert not np.shares_memory(x, y)
    for other in (init_luca(16, 4, _FAST.luca_config()),
                  init_luca(16, _FAST.r, LucaConfig(reversed=True))):
        with pytest.raises(ValueError, match="init does not match"):
            train_session(ModuleBank(16), train, (0, 1), _FAST, seed=5,
                          init=other)


# --- routing -----------------------------------------------------------------

def test_predict_validation():
    bank = ModuleBank(4)
    with pytest.raises(ValueError, match="empty bank"):
        predict(np.ones(4), bank)
    with pytest.raises(ValueError, match="empty bank"):
        predict_batch(np.ones((2, 4)), bank)
    bank.append(_entry(1, 4, (0,)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        predict(np.ones(5), bank)
    with pytest.raises(ValueError, match="dimension mismatch"):
        predict_batch(np.ones((2, 5)), bank)


def test_predict_prefers_low_entropy_session():
    d = 4
    bank = ModuleBank(d)
    sharp = np.zeros((d, 2), dtype=np.float32)
    sharp[0, 0] = 1000.0  # logits [1000, 0] for z = e0: zero entropy
    bank.append(_entry(1, d, (0, 1), w=np.zeros((d, 2), dtype=np.float32)))
    bank.append(_entry(2, d, (2, 3), w=sharp))
    z = np.eye(d)[0]
    pred = predict(z, bank)
    assert pred.session_index == 2
    assert pred.class_id == 2
    assert pred.entropies[0] == pytest.approx(math.log(2), abs=1e-12)
    assert pred.entropies[1] == 0.0  # exactly: softmax saturates to one-hot


def test_entropy_ties_go_to_lowest_session_and_class():
    d = 4
    bank = ModuleBank(d)
    bank.append(_entry(1, d, (6, 7), w=np.zeros((d, 2), dtype=np.float32)))
    bank.append(_entry(2, d, (2, 3), w=np.zeros((d, 2), dtype=np.float32)))
    pred = predict(np.ones(d), bank)
    assert pred.session_index == 1  # both sessions uniform: tie on entropy
    assert pred.class_id == 6  # uniform within session: lowest class id
    classes, sessions = predict_batch(np.ones((3, d)), bank)
    assert sessions.tolist() == [1, 1, 1]
    assert classes.tolist() == [6, 6, 6]


def test_entropy_normalization_changes_routing_when_counts_differ():
    d = 4
    bank = ModuleBank(d)
    w_a = np.zeros((d, 2), dtype=np.float32)
    w_a[0] = [0.3, 0.0]  # K=2, raw entropy ~0.682, normalized ~0.984
    w_b = np.zeros((d, 8), dtype=np.float32)
    w_b[0, 0] = 2.0  # K=8, raw entropy ~1.64, normalized ~0.79
    bank.append(_entry(1, d, (0, 1), w=w_a))
    bank.append(_entry(2, d, tuple(range(2, 10)), w=w_b))
    z = np.eye(d)[0]
    assert predict(z, bank, normalize_entropy=False).session_index == 1
    assert predict(z, bank, normalize_entropy=True).session_index == 2
    classes, sessions = predict_batch(z[None, :], bank, normalize_entropy=True)
    assert sessions.tolist() == [2]
    # equal class counts: the normalize flag must not matter
    eq = ModuleBank(d)
    eq.append(_entry(1, d, (0, 1), w=w_a))
    eq.append(_entry(2, d, (2, 3), w=w_a * 2.0))
    raw = predict(z, eq, normalize_entropy=False)
    norm = predict(z, eq, normalize_entropy=True)
    assert raw.session_index == norm.session_index


def test_predict_calls_each_module_once_per_sample(monkeypatch):
    d = 4
    bank = ModuleBank(d)
    for b in range(3):
        bank.append(_entry(b + 1, d, (2 * b, 2 * b + 1)))
    seen = []
    real = engine.luca_forward_batch

    def spy(Z, module):
        seen.append((id(Z), Z.shape, module))
        return real(Z, module)

    monkeypatch.setattr(engine, "luca_forward_batch", spy)
    predict(np.ones(d), bank)
    # one pass per banked module, in bank order
    assert [m for _, _, m in seen] == [e.module for e in bank.entries]
    # the same already-cast one-row array each time
    assert len({i for i, _, _ in seen}) == 1
    assert all(shape == (1, d) for _, shape, _ in seen)


def test_batch_predict_matches_single_on_trained_bank():
    train, test, splits = _small_scenario()
    report = run_scenario(train, test, splits, method="tosca", cfg=_FAST,
                          seed=11)
    bank = report.artifacts["bank"]
    Z = test.features[:60]
    classes, sessions = predict_batch(Z, bank)
    batch = route(Z, bank)
    for i in range(Z.shape[0]):
        p = predict(Z[i], bank)
        assert classes[i] == p.class_id
        assert sessions[i] == p.session_index
        # predict is route's row 0 on a one-row batch, bit for bit
        one = route(Z[i:i + 1], bank)
        assert p.entropies == tuple(one.entropies[:, 0])
        for dist, P in zip(p.distributions, one.probs):
            assert np.array_equal(dist, P[0])
        # inside a larger batch BLAS may sum in another order: last bits only
        np.testing.assert_allclose(p.entropies, batch.entropies[:, i],
                                   rtol=0, atol=1e-12)
        for dist, P in zip(p.distributions, batch.probs):
            np.testing.assert_allclose(dist, P[i], rtol=0, atol=1e-12)


def test_route_matches_the_reference_softmax_and_entropy():
    # a trained bank with sessions of K = 3 and 2, plus a hand-built session
    # whose head saturates the softmax on the last row
    train, test = synth_gaussian(d=16, num_classes=5, n_train=40, n_test=20,
                                 separation=138.0, sigma=23.0, seed=3)
    bank = ModuleBank(16)
    for b, ids in enumerate([(0, 1, 2), (3, 4)]):
        train_session(bank, train, ids, _FAST, seed=40 + b)
    sharp = np.zeros((16, 3), dtype=np.float32)
    sharp[0, 0] = 1000.0
    bank.append(BankEntry(session_index=3,
                          module=_identity_module(16, r=_FAST.r),
                          head=SessionHead(class_ids=(7, 8, 9), w=sharp)))
    Z = np.concatenate([test.features.astype(np.float64),
                        5.0 * np.eye(16)[:1]])
    r = route(Z, bank)
    assert [P.shape for P in r.probs] == [(Z.shape[0], len(e.class_ids))
                                         for e in bank.entries]
    for i, e in enumerate(bank.entries):
        logits = head_forward_batch(luca_forward_batch(Z, e.module), e.head)
        k = len(e.class_ids)
        for j in range(Z.shape[0]):
            want = oracle.softmax(logits[j])
            np.testing.assert_allclose(r.probs[i][j], want, rtol=0, atol=1e-12)
            h = oracle.shannon_entropy(want)
            assert abs(r.entropies[i, j] - h) <= 1e-12
            assert 0.0 <= r.entropies[i, j] <= math.log(k) + 1e-12
    # logits [5000, 0, 0]: exactly one-hot, entropy exactly 0.0 (not -0.0)
    assert r.probs[2][-1].tolist() == [1.0, 0.0, 0.0]
    assert math.copysign(1.0, r.entropies[2, -1]) == 1.0
    assert r.entropies[2, -1] == 0.0
    # K = 1 on its own: every row is certain, and its one class is chosen
    alone = ModuleBank(16)
    train_session(alone, train, (0,), _FAST, seed=40)
    r = route(Z, alone)
    assert np.array_equal(r.probs[0], np.ones((Z.shape[0], 1)))
    assert r.entropies[0].tolist() == [0.0] * Z.shape[0]
    assert r.classes.tolist() == [0] * Z.shape[0]


@pytest.mark.parametrize("normalize", [True, False])
def test_a_one_class_session_among_others_is_refused(normalize):
    # entropy 0 on every row, raw or normalised, would take every row
    train, test = synth_gaussian(d=16, num_classes=7, n_train=40, n_test=20,
                                 separation=138.0, sigma=23.0, seed=3)
    message = "^session 3 has one class, so entropy routing would send it"
    bank = ModuleBank(16)
    for b, ids in enumerate([(0, 1), (2, 3), (4,)]):
        train_session(bank, train, ids, _FAST, seed=40 + b)
    for call in (lambda: route(test.features, bank, normalize),
                 lambda: predict(test.features[0], bank, normalize),
                 lambda: predict_batch(test.features, bank, normalize),
                 lambda: evaluate_stage(bank, test.subset(range(5)),
                                        normalize)):
        with pytest.raises(ValueError, match=message):
            call()
    # in a scenario, at the first stage where it meets another session
    splits = make_splits(range(7), 1, 2, seed=1993)  # K = 1, 2, 2, 2
    cfg = replace(_FAST, normalize_entropy=normalize)
    with pytest.raises(ValueError, match="^session 1 has one class"):
        run_scenario(train, test, splits, "tosca", cfg, seed=11)


def test_appending_a_duplicate_module_changes_nothing():
    train, test, splits = _small_scenario()
    report = run_scenario(train, test, splits, method="tosca", cfg=_FAST,
                          seed=11)
    bank = report.artifacts["bank"]
    before, _ = predict_batch(test.features, bank)
    clone_src = bank.entries[0]
    clone = BankEntry(
        session_index=len(bank) + 1,
        module=LucaModule(d=clone_src.module.d, r=clone_src.module.r,
                          w_down=clone_src.module.w_down.copy(),
                          w_up=clone_src.module.w_up.copy(),
                          v_down=clone_src.module.v_down.copy(),
                          v_up=clone_src.module.v_up.copy(),
                          config=clone_src.module.config),
        head=SessionHead(class_ids=tuple(c + 100 for c in clone_src.class_ids),
                         w=clone_src.head.w.copy()))
    bank.append(clone)
    after, _ = predict_batch(test.features, bank)
    # the clone ties with the original everywhere and ties keep the
    # earlier session, so no prediction may move
    assert np.array_equal(before, after)


def test_oracle_routing_toy():
    # disjoint one-hot heads on separate coordinates force perfect routing;
    # stage accuracy and selection must both be exactly 100
    d = 6
    bank = ModuleBank(d)
    for b in range(3):
        w = np.zeros((d, 2), dtype=np.float32)
        w[2 * b, 0] = 1000.0
        w[2 * b + 1, 1] = 1000.0
        bank.append(_entry(b + 1, d, (2 * b, 2 * b + 1), w=w))
    Z = np.eye(d, dtype=np.float32)
    labels = np.arange(6, dtype=np.uint32)
    from tosca.data import FeatureDataset
    test = FeatureDataset(name="toy", features=Z, labels=labels)
    ev = evaluate_stage(bank, test)
    assert ev.accuracy == 100.0
    assert ev.selection_accuracy == 100.0
    classes, sessions = predict_batch(Z, bank)
    assert classes.tolist() == [0, 1, 2, 3, 4, 5]
    assert sessions.tolist() == [1, 1, 2, 2, 3, 3]


def test_selection_counts_right_session_despite_wrong_class():
    # swap the columns of session 1's head: classes come out wrong but the
    # session is still confidently right
    d = 4
    bank = ModuleBank(d)
    w = np.zeros((d, 2), dtype=np.float32)
    w[0, 1] = 1000.0  # z=e0 now argmaxes class_ids[1]
    w[1, 0] = 1000.0
    bank.append(_entry(1, d, (0, 1), w=w))
    bank.append(_entry(2, d, (2, 3), w=np.zeros((d, 2), dtype=np.float32)))
    from tosca.data import FeatureDataset
    test = FeatureDataset(name="toy", features=np.eye(d, dtype=np.float32)[:2],
                          labels=np.array([0, 1], dtype=np.uint32))
    ev = evaluate_stage(bank, test)
    assert ev.accuracy == 0.0
    assert ev.selection_accuracy == 100.0


def test_routed_accuracy_decomposes_by_session():
    # every sample routed to its true session is scored by that session's
    # own head; verify the composition sample by sample
    train, test, splits = _small_scenario()
    report = run_scenario(train, test, splits, method="tosca", cfg=_FAST,
                          seed=11)
    bank = report.artifacts["bank"]
    classes, sessions = predict_batch(test.features, bank)
    from tosca.heads import head_forward_batch
    from tosca.luca import luca_forward_batch
    for b, e in enumerate(bank.entries, start=1):
        routed = sessions == b
        if not np.any(routed):
            continue
        Z = test.features[routed].astype(np.float64)
        logits = head_forward_batch(luca_forward_batch(Z, e.module), e.head)
        ids = np.asarray(e.class_ids, dtype=np.int64)
        want = ids[np.argmax(logits, axis=1)]
        assert np.array_equal(classes[routed], want)


def test_evaluate_stage_rejects_empty_test():
    bank = ModuleBank(4)
    bank.append(_entry(1, 4, (0,)))
    from tosca.data import FeatureDataset
    empty = FeatureDataset(name="e", features=np.zeros((0, 4)),
                           labels=np.zeros(0, dtype=np.uint32))
    with pytest.raises(ValueError, match="empty test set"):
        evaluate_stage(bank, empty)


def test_non_finite_rows_fail_on_every_routing_entry_point():
    from tosca.data import FeatureDataset
    d = 4
    bank = ModuleBank(d)
    bank.append(_entry(1, d, (0, 1), w=np.eye(d, 2, dtype=np.float32)))
    bank.append(_entry(2, d, (2, 3)))
    for bad in (np.nan, np.inf):
        Z = np.eye(d, dtype=np.float32)
        Z[2, 1] = bad
        test = FeatureDataset(name="bad", features=Z,
                              labels=np.array([0, 1, 2, 3], dtype=np.uint32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before the forward runs
            with pytest.raises(ValueError, match="non-finite features"):
                predict(Z[2], bank)
            with pytest.raises(ValueError, match="non-finite features"):
                predict_batch(Z, bank)
            with pytest.raises(ValueError, match="non-finite features"):
                evaluate_stage(bank, test)
    # a finite row can still overflow a session's logits: 2e308 here
    summing = ModuleBank(d)
    summing.append(_entry(1, d, (0, 1), w=np.ones((d, 2), dtype=np.float32)))
    big = np.array([1e308, 1e308, 0.0, 0.0])
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="non-finite logits"):
            predict(big, summing)


def test_evaluate_stage_rejects_labels_outside_the_bank():
    from tosca.data import FeatureDataset
    bank = ModuleBank(4)
    bank.append(_entry(1, 4, (0, 1)))
    test = FeatureDataset(name="t", features=np.eye(4, dtype=np.float32)[:2],
                          labels=np.array([1, 4_000_000_000], dtype=np.uint32))
    with pytest.raises(ValueError, match="test label outside every stage"):
        evaluate_stage(bank, test)


# --- scenario driver ---------------------------------------------------------

def test_run_scenario_validation():
    train, test, splits = _small_scenario()
    with pytest.raises(ValueError, match="unknown method"):
        run_scenario(train, test, splits, method="ewc")
    bad = make_splits(range(8), 0, 2, seed=1)  # classes 6, 7 missing
    with pytest.raises(ValueError, match="split mismatch"):
        run_scenario(train, test, bad, method="tosca", cfg=_FAST)
    wide, _ = synth_gaussian(d=8, num_classes=6, n_train=5, n_test=5,
                             separation=5.0, sigma=1.0, seed=1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        run_scenario(wide, test, splits, method="tosca", cfg=_FAST)


def test_divergence_names_the_method_stage_and_epoch():
    # the headline finetune config overflows on data, split and run seed 31
    train, test = synth_gaussian(32, 50, 100, 50, 138.0, 23.0, 31)
    splits = make_splits(train.class_ids, 0, 5, 31)
    with pytest.raises(FloatingPointError,
                       match=r"^finetune stage 6: training diverged in epoch 1$"):
        with np.errstate(all="ignore"):
            run_scenario(train, test, splits, "finetune", ScenarioConfig(), 31)


class _ClassMajor:
    """Generator stub: every epoch walks the rows in stored order, which
    ``synth_gaussian`` makes class-major."""

    def permutation(self, n):
        return np.arange(n)


def test_class_major_batches_diverge_in_epoch_2():
    # stage 1 of the headline run, trained as run_scenario trains it, but
    # with unshuffled batches.  Recorded, not fixed: a fix changes results.
    train, _ = synth_gaussian(32, 50, 100, 50, 138.0, 23.0, 3)
    splits = make_splits(train.class_ids, 0, 5, 1993)
    cfg = ScenarioConfig()
    seeds = derive_seeds(1993, splits.num_stages + 1)
    ids = splits.stages[0]
    ds = train.subset(ids)

    def fresh():
        return (init_luca(32, cfg.r, cfg.luca_config(), seeds[-1]),
                make_head(32, ids))

    with pytest.raises(FloatingPointError,
                       match=r"^training diverged in epoch 2$"):
        with np.errstate(all="ignore"):
            train_epochs(*fresh(), ds, cfg.optim, _ClassMajor())
    # the same session with its seeded shuffle trains
    shuffle_seed = derive_seeds(seeds[0], 2)[1]
    _, _, trace = train_epochs(*fresh(), ds, cfg.optim,
                               Xoshiro256StarStar(shuffle_seed))
    assert all(math.isfinite(x) for x in trace)


def test_report_structure_and_a_bar():
    train, test, splits = _small_scenario()
    report = run_scenario(train, test, splits, method="tosca", cfg=_FAST,
                          seed=7)
    assert report.method == "tosca"
    assert report.seed == 7
    assert len(report.stages) == splits.num_stages
    assert [s["index"] for s in report.stages] == [1, 2, 3]
    accs = [s["A_b"] for s in report.stages]
    assert report.A_bar == pytest.approx(float(np.mean(accs)), abs=1e-9)
    assert all(set(s) == {"index", "A_b", "selection_accuracy"}
               for s in report.stages)
    assert report.wall_time_s > 0.0
    d = report.to_dict()
    assert set(d) == {"method", "seed", "config", "stages", "A_bar",
                      "params_per_task", "wall_time_s"}
    assert "artifacts" not in d
    assert d["config"]["r"] == 8


def test_params_per_task_by_method():
    train, test, splits = _small_scenario()
    d, r = 16, _FAST.r
    per_module = param_count(d, r)
    tosca = run_scenario(train, test, splits, "tosca", _FAST, seed=1)
    assert tosca.params_per_task == [per_module + d * 2] * 3
    ft = run_scenario(train, test, splits, "finetune", _FAST, seed=1)
    assert ft.params_per_task == [per_module + d * 2, d * 2, d * 2]
    joint = run_scenario(train, test, splits, "joint", _FAST, seed=1)
    assert joint.params_per_task == [per_module + d * 6, 0, 0]
    scil = run_scenario(train, test, splits, "simplecil", _FAST, seed=1)
    assert scil.params_per_task == [d * 2, d * 2, d * 2]


def test_scenario_is_deterministic():
    train, test, splits = _small_scenario()
    a = run_scenario(train, test, splits, "tosca", _FAST, seed=3)
    b = run_scenario(train, test, splits, "tosca", _FAST, seed=3)
    da, db = a.to_dict(), b.to_dict()
    da.pop("wall_time_s")
    db.pop("wall_time_s")
    assert da == db
    c = run_scenario(train, test, splits, "tosca", _FAST, seed=4)
    assert c.to_dict()["stages"] != da["stages"]


def test_reversed_method_flips_config():
    train, test, splits = _small_scenario()
    rep = run_scenario(train, test, splits, "tosca_r", _FAST, seed=3)
    assert rep.method == "tosca_r"
    assert rep.config["reversed"] is True
    fwd = run_scenario(train, test, splits, "tosca", _FAST, seed=3)
    assert fwd.config["reversed"] is False
    # composition order is not a no-op: the trained weights differ even
    # when the (easy) benchmark accuracies happen to coincide
    rev_sum = entry_checksum(rep.artifacts["bank"].entries[0])
    fwd_sum = entry_checksum(fwd.artifacts["bank"].entries[0])
    assert rev_sum != fwd_sum


def test_simplecil_is_strong_on_separated_data():
    train, test, splits = _small_scenario(num_classes=10, d=32)
    rep = run_scenario(train, test, splits, "simplecil", seed=3)
    assert rep.A_bar >= 95.0
    assert rep.stages[-1]["A_b"] >= 95.0


def test_joint_sees_everything_finetune_forgets_some():
    train, test, splits = _small_scenario(num_classes=10, d=32)
    cfg = ScenarioConfig(r=8, optim=OptimConfig(epochs=10))
    joint = run_scenario(train, test, splits, "joint", cfg, seed=3)
    ft = run_scenario(train, test, splits, "finetune", cfg, seed=3)
    assert joint.stages[-1]["A_b"] > ft.stages[-1]["A_b"]
    assert joint.stages[0]["A_b"] >= 95.0


def _bank_through(bank, b):
    prefix = ModuleBank(bank.feature_dim)
    for e in bank.entries[:b]:
        prefix.append(e)
    return prefix


@pytest.mark.parametrize("num_classes,base,normalize", [
    (9, 3, True),  # K = 3, 2, 2, 2: the normalised branch
    (9, 3, False),
])
def test_cached_stage_metrics_match_per_stage_routing(num_classes, base,
                                                      normalize):
    train, test = synth_gaussian(d=16, num_classes=num_classes, n_train=40,
                                 n_test=20, separation=138.0, sigma=23.0,
                                 seed=3)
    splits = make_splits(range(num_classes), base, 2, seed=1993)
    cfg = replace(_FAST, normalize_entropy=normalize)
    report = run_scenario(train, test, splits, "tosca", cfg, seed=11)
    bank = report.artifacts["bank"]
    scores = engine.SessionScores(test.labels)
    for b in range(1, splits.num_stages + 1):
        prefix = _bank_through(bank, b)
        seen = test.subset(splits.classes_through(b))
        ev = evaluate_stage(prefix, seen, normalize)
        assert report.stages[b - 1] == {"index": b, "A_b": ev.accuracy,
                                        "selection_accuracy":
                                            ev.selection_accuracy}
        cached = scores.route(prefix, seen, normalize)
        routed = predict_batch(seen.features, prefix, normalize)
        assert all(np.array_equal(x, y) for x, y in zip(cached, routed))


@pytest.fixture
def forwarded(monkeypatch):
    """Row counts of the engine's luca_forward_batch calls, in order."""
    rows = []

    def spy(Z, module):
        rows.append(Z.shape[0])
        return luca_forward_batch(Z, module)

    monkeypatch.setattr(engine, "luca_forward_batch", spy)
    return rows


def test_stage_evaluation_forwards_each_session_row_pair_once(forwarded):
    train, test, splits = _small_scenario(num_classes=8)
    run_scenario(train, test, splits, "tosca", _FAST, seed=11)
    B = splits.num_stages
    through = [test.subset(splits.classes_through(b)).n
               for b in range(1, B + 1)]
    new = [test.subset(stage).n for stage in splits.stages]
    # session b on every row through b, older sessions on stage b's rows
    assert sum(forwarded) == sum(through) + sum(
        (b - 1) * new[b - 1] for b in range(1, B + 1))


def test_session_scores_refuse_rows_that_do_not_extend_them():
    train, test, splits = _small_scenario()
    bank = run_scenario(train, test, splits, "tosca", _FAST,
                        seed=11).artifacts["bank"]
    first = _bank_through(bank, 1)
    scores = engine.SessionScores(test.labels)
    scores.route(first, test.subset(splits.stages[0]))
    with pytest.raises(ValueError, match="do not extend"):
        # stage 2's rows alone leave out the rows routed before
        scores.route(_bank_through(bank, 2), test.subset(splits.stages[1]))
    seen = test.subset(splits.classes_through(2))
    some = FeatureDataset(name="some", features=seen.features[:-1],
                          labels=seen.labels[:-1])
    with pytest.raises(ValueError, match="do not extend"):
        # not every cached row of these labels
        scores.route(_bank_through(bank, 2), some)
    # a bank that grew by two sessions at once is scored like a fresh one
    fresh = engine.SessionScores(test.labels)
    assert all(np.array_equal(x, y) for x, y in zip(
        scores.route(bank, test), fresh.route(bank, test)))
    with pytest.raises(ValueError, match="do not extend"):
        scores.route(first, test.subset(splits.stages[0]))


def test_joint_scores_its_test_set_once(forwarded):
    train, test, splits = _small_scenario()
    report = run_scenario(train, test, splits, "joint", _FAST, seed=11)
    assert forwarded == [test.n]
    module, head = report.artifacts["module"], report.artifacts["head"]
    ids = np.asarray(head.class_ids)
    for b, stage in enumerate(report.stages, start=1):
        seen = test.subset(splits.classes_through(b))
        logits = head_forward_batch(luca_forward_batch(seen.features, module),
                                    head)
        acc = 100.0 * np.mean(ids[np.argmax(logits, axis=1)] == seen.labels)
        assert stage["A_b"] == acc


# --- diagnostics -------------------------------------------------------------

def test_module_orthogonality_extremes():
    d = 4
    bank = ModuleBank(d)
    e1 = _entry(1, d, (0, 1), seed=9)
    bank.append(e1)
    twin = BankEntry(session_index=2,
                     module=LucaModule(d=d, r=e1.module.r,
                                       w_down=e1.module.w_down.copy(),
                                       w_up=e1.module.w_up.copy(),
                                       v_down=e1.module.v_down.copy(),
                                       v_up=e1.module.v_up.copy(),
                                       config=e1.module.config),
                     head=make_head(d, (2, 3)))
    bank.append(twin)
    assert module_orthogonality(bank) == pytest.approx(1.0, abs=1e-12)

    disjoint = ModuleBank(2)
    m1 = LucaModule(d=2, r=1, w_down=np.array([[1.0], [0.0]], dtype=np.float32),
                    w_up=np.zeros((1, 2), dtype=np.float32),
                    v_down=np.zeros((2, 1), dtype=np.float32),
                    v_up=np.zeros((1, 2), dtype=np.float32))
    m2 = LucaModule(d=2, r=1, w_down=np.zeros((2, 1), dtype=np.float32),
                    w_up=np.array([[0.0, 1.0]], dtype=np.float32),
                    v_down=np.zeros((2, 1), dtype=np.float32),
                    v_up=np.zeros((1, 2), dtype=np.float32))
    disjoint.append(BankEntry(1, m1, make_head(2, (0,))))
    disjoint.append(BankEntry(2, m2, make_head(2, (1,))))
    assert module_orthogonality(disjoint) == 0.0

    single = ModuleBank(4)
    single.append(_entry(1, 4, (0,)))
    with pytest.raises(ValueError, match="need at least two modules"):
        module_orthogonality(single)


def test_feature_shift():
    d = 4
    bank = ModuleBank(d)
    bank.append(_entry(1, d, (0, 1)))  # exact identity module
    Z = Xoshiro256StarStar(3).normals(20).reshape(5, 4)
    shifts = feature_shift(bank, Z)
    assert shifts == (0.0,)
    with pytest.raises(ValueError, match="no samples"):
        feature_shift(bank, np.zeros((0, 4)))
    with pytest.raises(ValueError, match="degenerate vector"):
        feature_shift(bank, np.zeros((2, 4)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        feature_shift(bank, np.zeros((2, 5)))
    for bad in (np.nan, np.inf, -np.inf):
        Z_bad = Z.copy()
        Z_bad[2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite features"):
                feature_shift(bank, Z_bad)


# --- bank container ----------------------------------------------------------

def test_fnv1a_known_values():
    # published FNV-1a 64-bit test vectors
    assert fnv1a(b"") == 0xCBF29CE484222325
    assert fnv1a(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a(b"foobar") == 0x85944171F73967E8


_BLOCK = engine._FNV_BLOCK


def _random_bytes(n, seed=0):
    return np.random.default_rng(seed).integers(0, 256, n, np.uint8).tobytes()


def test_fnv1a_matches_the_byte_loop_on_every_single_byte():
    for b in range(256):
        assert fnv1a(bytes([b])) == oracle.fnv1a(bytes([b]))


@pytest.mark.parametrize("n", list(range(131)) + [
    _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_fnv1a_matches_the_byte_loop(n):
    # 0..130 covers the word edges 63/64/65 and 127/128/129
    data = _random_bytes(n, seed=n)
    assert fnv1a(data) == oracle.fnv1a(data)
    assert fnv1a(memoryview(data)) == oracle.fnv1a(data)
    assert fnv1a(bytearray(data)) == oracle.fnv1a(data)


def test_fnv1a_matches_the_byte_loop_on_a_d768_entry():
    entry = BankEntry(session_index=1, module=init_luca(768, 48, rng_seed=5),
                      head=make_head(768, (0, 1, 2, 3, 4)))
    blob = engine._entry_bytes(entry)
    assert len(blob) == 605_212
    assert fnv1a(blob) == oracle.fnv1a(blob)


def test_fnv1a_sees_every_byte():
    data = _random_bytes(2 * _BLOCK + 1, seed=7)
    base = fnv1a(data)
    for pos in (0, _BLOCK - 1, _BLOCK, 2 * _BLOCK, len(data) - 1):
        flipped = bytearray(data)
        flipped[pos] ^= 0x01
        assert fnv1a(flipped) != base, pos
        assert fnv1a(flipped) == oracle.fnv1a(flipped), pos


def _assert_routes_alike(a, b, Z):
    """``route`` gives bit-identical entropies, probs, classes and sessions
    on banks a and b, for a one-row and a multi-row batch."""
    for rows in (Z[:1], Z):
        ra, rb = route(rows, a), route(rows, b)
        assert np.array_equal(ra.entropies, rb.entropies)
        assert len(ra.probs) == len(rb.probs) == len(a)
        for pa, pb in zip(ra.probs, rb.probs):
            assert np.array_equal(pa, pb)
        assert np.array_equal(ra.classes, rb.classes)
        assert np.array_equal(ra.sessions, rb.sessions)


def _bank_weights(bank):
    return [arr for e in bank.entries
            for arr in e.module.matrices() + (e.head.w,)]


def _trained_bank(train, cfg, sessions):
    bank = ModuleBank(train.d)
    for seed, ids in enumerate(sessions, start=5):
        train_session(bank, train, ids, cfg, seed=seed)
    return bank


def test_bank_round_trip(tmp_path):
    train, test, _ = _small_scenario(num_classes=8)
    # sessions of K = 3 and 2, so routing normalises the entropies
    bank = _trained_bank(train, _FAST, ((0, 1, 2), (3, 4)))
    p = tmp_path / "bank.luca"
    save_bank(bank, p)
    back = load_bank(p, config=_FAST.luca_config())
    assert len(back) == len(bank)
    for a, b in zip(bank.entries, back.entries):
        assert entry_checksum(a) == entry_checksum(b)
        assert a.class_ids == b.class_ids
    # a loaded bank holds read-only float64 copies of the file's float32 values
    for trained, loaded in zip(_bank_weights(bank), _bank_weights(back)):
        assert trained.dtype == np.float32
        assert loaded.dtype == np.float64 and not loaded.flags.writeable
        assert np.array_equal(loaded, trained)
        assert loaded.astype(np.float32).tobytes() == trained.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            loaded[0, 0] = 1.0
    _assert_routes_alike(bank, back, test.features)
    # re-saving is byte stable
    p2 = tmp_path / "again.luca"
    save_bank(back, p2)
    assert p.read_bytes() == p2.read_bytes()
    # a float32 session trained after the load routes with the loaded ones
    for b in (bank, back):
        train_session(b, train, (6, 7), _FAST, seed=9)
    assert back.entries[-1].module.w_down.dtype == np.float32
    assert entry_checksum(back.entries[-1]) == entry_checksum(bank.entries[-1])
    _assert_routes_alike(bank, back, test.features)
    # a one-class session, which routes only on its own, round-trips too
    single = _trained_bank(train, _FAST, ((0,),))
    save_bank(single, p)
    back = load_bank(p, config=_FAST.luca_config())
    assert entry_checksum(back.entries[0]) == entry_checksum(single.entries[0])
    _assert_routes_alike(single, back, test.features)


def test_a_loaded_module_does_not_train_as_init(tmp_path):
    train, _, _ = _small_scenario()
    bank = ModuleBank(16)
    train_session(bank, train, (0, 1), _FAST, seed=5)
    p = tmp_path / "bank.luca"
    save_bank(bank, p)
    loaded = load_bank(p, config=_FAST.luca_config()).entries[0].module
    with pytest.raises(ValueError, match="w_down is float64"):
        train_session(ModuleBank(16), train, (2, 3), _FAST, seed=6,
                      init=loaded)
    assert not loaded.w_down.flags.writeable


def test_serving_a_loaded_bank_copies_no_weights(tmp_path, monkeypatch):
    train, test, _ = _small_scenario(num_classes=8)
    save_bank(_trained_bank(train, _FAST, ((0, 1, 2), (3, 4))),
              tmp_path / "bank.luca")
    bank = load_bank(tmp_path / "bank.luca", config=_FAST.luca_config())
    matrices = []
    f64_matrices = tosca.luca._f64_matrices

    def spy_matrices(m):
        out = f64_matrices(m)
        matrices.append((m.matrices(), out))
        return out

    heads = []  # (head.w, what head_forward_batch multiplies by)

    class SpyNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def asarray(self, a, *args, **kwargs):
            out = np.asarray(a, *args, **kwargs)
            if any(a is e.head.w for e in bank.entries):
                heads.append((a, out))
            return out

    monkeypatch.setattr(tosca.luca, "_f64_matrices", spy_matrices)
    monkeypatch.setattr(tosca.heads, "np", SpyNumpy())
    predict(test.features[0], bank)
    predict_batch(test.features, bank)
    assert len(matrices) == len(heads) == 2 * len(bank)
    for own, used in matrices:
        assert all(u is o for u, o in zip(used, own))
    for w, used in heads:
        assert np.shares_memory(used, w)


def test_empty_bank_round_trip(tmp_path):
    p = tmp_path / "empty.luca"
    save_bank(ModuleBank(7), p)
    back = load_bank(p)
    assert len(back) == 0 and back.feature_dim == 7


def test_bank_file_layout(tmp_path):
    bank = ModuleBank(3)
    bank.append(_entry(1, 3, (4, 9)))
    p = tmp_path / "b.luca"
    save_bank(bank, p)
    blob = p.read_bytes()
    assert blob[:8] == BANK_MAGIC == b"LUCABANK"
    version, d, r, count = struct.unpack_from("<IIII", blob, 8)
    assert (version, d, r, count) == (1, 3, 2, 1)
    session, k = struct.unpack_from("<II", blob, 24)
    assert (session, k) == (1, 2)
    assert struct.unpack_from("<II", blob, 32) == (4, 9)
    # trailing 8 bytes are the FNV-1a of everything after the file header
    (stored,) = struct.unpack_from("<Q", blob, len(blob) - 8)
    assert stored == fnv1a(blob[24:len(blob) - 8])


def test_bank_load_error_paths(tmp_path):
    train, test, splits = _small_scenario()
    bank = run_scenario(train, test, splits, "tosca", _FAST,
                        seed=11).artifacts["bank"]
    p = tmp_path / "bank.luca"
    save_bank(bank, p)
    blob = bytearray(p.read_bytes())

    bad_magic = tmp_path / "magic.luca"
    bad_magic.write_bytes(b"NOTABANK" + bytes(blob[8:]))
    with pytest.raises(ValueError, match="not a bank file"):
        load_bank(bad_magic)

    short = tmp_path / "short.luca"
    short.write_bytes(bytes(blob[:len(blob) - 3]))
    with pytest.raises(ValueError, match="unexpected end of file"):
        load_bank(short)

    vers = bytearray(blob)
    vers[8:12] = struct.pack("<I", 2)
    bad_version = tmp_path / "version.luca"
    bad_version.write_bytes(bytes(vers))
    with pytest.raises(ValueError, match="unsupported version"):
        load_bank(bad_version)

    flipped = bytearray(blob)
    flipped[100] ^= 0xFF  # inside the first entry's weights
    bad_sum = tmp_path / "sum.luca"
    bad_sum.write_bytes(bytes(flipped))
    with pytest.raises(ValueError, match="checksum mismatch"):
        load_bank(bad_sum)


def test_bank_load_rejects_trailing_bytes(tmp_path):
    full = ModuleBank(3)
    full.append(_entry(1, 3, (4, 9)))
    for bank in (ModuleBank(3), full):
        p = tmp_path / "b.luca"
        save_bank(bank, p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(ValueError,
                           match="trailing bytes after the last entry: 1"):
            load_bank(p)


def test_bank_load_hashes_each_entry_in_place(tmp_path, monkeypatch):
    bank = ModuleBank(3)
    bank.append(_entry(1, 3, (4, 9)))
    bank.append(_entry(2, 3, (5,), seed=1))
    p = tmp_path / "b.luca"
    save_bank(bank, p)
    seen = []
    real = engine.fnv1a

    def spy(data):
        seen.append((type(data), len(data)))
        return real(data)

    monkeypatch.setattr(engine, "fnv1a", spy)
    load_bank(p)
    sizes = [len(engine._entry_bytes(e)) for e in bank.entries]
    assert seen == [(memoryview, n) for n in sizes]


def test_bank_load_checks_the_entry_count_first(tmp_path):
    bank = ModuleBank(3)
    bank.append(_entry(1, 3, (4, 9)))
    p = tmp_path / "b.luca"
    save_bank(bank, p)
    blob = bytearray(p.read_bytes())
    blob[20:24] = struct.pack("<I", 2**32 - 1)
    p.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="entry count 4294967295 does not fit"):
        load_bank(p)


def test_bank_load_rejects_zero_rank(tmp_path):
    # a rank-0 module would be an identity map, so such a bank would still
    # route; LucaModule refuses r=0, so the file is packed by hand
    d, ids = 3, (0, 1)
    entry = (struct.pack("<II", 1, len(ids)) + struct.pack("<2I", *ids)
             + np.zeros((d, len(ids)), dtype="<f4").tobytes())
    p = tmp_path / "r0.luca"
    p.write_bytes(BANK_MAGIC + struct.pack("<IIII", 1, d, 0, 1) + entry
                  + struct.pack("<Q", fnv1a(entry)))
    assert struct.unpack_from("<IIII", p.read_bytes(), 8) == (1, d, 0, 1)
    with pytest.raises(ValueError, match="rank r=0 in a bank with entries"):
        load_bank(p)


def test_bank_load_rejects_non_finite_head(tmp_path):
    bank = ModuleBank(3)
    bank.append(_entry(1, 3, (4, 9)))
    bank.entries[0].head.w[1, 0] = np.nan
    p = tmp_path / "nan.luca"
    save_bank(bank, p)  # the checksum covers the NaN, so it verifies
    with pytest.raises(ValueError, match="non-finite"):
        load_bank(p)


def test_load_bank_applies_given_config(tmp_path):
    # every activation pair, order and gate form round-trips bit for bit
    train, test, _ = _small_scenario(num_classes=8)
    p = tmp_path / "bank.luca"
    for adapter_act, gate_act, reversed_, gate_residual in itertools.product(
            ACTIVATIONS, ACTIVATIONS, (False, True), (False, True)):
        cfg = replace(_FAST, adapter_act=adapter_act, gate_act=gate_act,
                      reversed=reversed_, gate_residual=gate_residual)
        # equal K, so that no K = 1 session takes every row
        bank = _trained_bank(train, cfg, ((0, 1), (2, 3), (4, 5)))
        assert len(np.unique(route(test.features, bank).sessions)) > 1
        save_bank(bank, p)
        same = load_bank(p, config=cfg.luca_config())
        _assert_routes_alike(bank, same, test.features)
        # the container stores no activation flags: defaults give another map
        other = load_bank(p)
        assert other.entries[0].module.config == LucaConfig()
        if cfg.luca_config() != LucaConfig():
            assert not np.array_equal(route(test.features, bank).entropies,
                                      route(test.features, other).entropies)
