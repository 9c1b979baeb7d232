"""Session bank, entropy-routed inference, benchmark scenarios, and the
module-bank container format.

A scenario walks the stages of a split plan.  The main method trains one
frozen-after-training module + head per stage and routes each test sample to
the session whose softmax output has least Shannon entropy.  One routing
path makes that choice for ``predict``, ``predict_batch`` and
``evaluate_stage``: ``score_sessions`` gives each session's raw entropy and
argmax class per row, and ``pick_sessions`` normalises over the sessions
present and takes the first minimum.  ``route`` runs both on a batch.  A
banked session never changes, so a scenario scores each session once, on
every test row that some stage reads, right after fitting it; stage b then
picks among sessions 1..b on its rows, with no forward.  A session depends
only on its own rows, so a scenario fits and scores its sessions in the
process pool of ``_session_workers``; reports and banks do not depend on it.
Baselines share the harness and the fit.  Sequential finetuning grows one
module and head stage by stage, and joint training fits all classes at once
(scored once, sliced per stage); both fit through ``_fit_session``, as each
session of the main method does.  A prototype classifier trains nothing.
Every method checks every stage before it trains any.

Bank file layout (all little endian):

    magic    8 bytes  b"LUCABANK"
    version  u32      currently 2
    d, r     u32, u32
    entries  u32      count
    per entry: session_index u32, K u32, config 4 x u8, K class ids u32,
               W_down, W_up, V_down, V_up, W_head as row-major float32,
               then a u64 FNV-1a checksum of the entry's preceding bytes.

The config bytes index ``_CONFIG_CODES``: the adapter and gate activations
(in ``numerics.ACTIVATIONS`` order), gate_residual and reversed.  So each
module loads with its own config.  Version 1 stored none and is refused.
The checksum is the 64-bit FNV-1a of the byte loop ``h = ((h ^ b) * P) mod
2**64``; ``fnv1a`` computes the same value with numpy passes over 64 KiB
blocks (a wrapping uint64 power sum plus eight bit-packed prefix XORs for
the low byte), so its temporaries stay near 1 MiB at any entry size.
``load_bank`` checks the entry count against the file size first.

Routing computes in float32 rows and weights; only the (n, K) logits go
up to float64, for the softmax and the entropy.  A loaded bank is frozen:
each matrix and head is a read-only float32 view of the file's bytes, so
loading decodes nothing, routing copies no weights and ``save_bank``
writes the same bytes back.  A bank built by training keeps float32
weights too; a loaded module given as an ``init`` is trained as a copy.
"""

from __future__ import annotations

import copy
import fcntl
import multiprocessing
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from itertools import count
from multiprocessing.connection import wait
from time import perf_counter

import numpy as np

from .data import FeatureDataset, SplitPlan, read_container, replace_file
# head_forward, luca_forward: unused here, but the benchmark tracer wraps them
from .heads import (SessionHead, build_prototypes, extend_head, head_forward,
                    head_forward_batch, make_head, prototype_classify_batch)
from .luca import (LucaConfig, LucaModule, init_luca, luca_forward,
                   luca_forward_batch, matrix_views, param_count)
from .numerics import ACTIVATIONS, softmax_rows
from .optim import OptimConfig, train_epochs
from .rng import Xoshiro256StarStar, derive_seeds

METHODS = ("tosca", "tosca_r", "finetune", "joint", "simplecil")

BANK_MAGIC = b"LUCABANK"
BANK_VERSION = 2
_BANK_HEAD = struct.Struct("<IIII")  # version, d, r, count (after the magic)
FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
_U64 = (1 << 64) - 1
# (LucaConfig field, its values): an entry's config byte i indexes entry i
_CONFIG_CODES = (("adapter_act", ACTIVATIONS), ("gate_act", ACTIVATIONS),
                 ("gate_residual", (False, True)), ("reversed", (False, True)))


@dataclass
class BankEntry:
    session_index: int
    module: LucaModule
    head: SessionHead

    @property
    def class_ids(self) -> tuple:
        return self.head.class_ids


class ModuleBank:
    """Ordered, class-disjoint collection of per-session modules."""

    def __init__(self, feature_dim: int):
        if feature_dim < 1:
            raise ValueError("dimensions must be positive")
        self.feature_dim = feature_dim
        self.entries: list[BankEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def class_ids(self) -> tuple:
        out = []
        for e in self.entries:
            out.extend(e.class_ids)
        return tuple(sorted(out))

    @property
    def rank(self) -> int:
        if not self.entries:
            return 0
        return self.entries[0].module.r

    def append(self, entry: BankEntry) -> None:
        if entry.module.d != self.feature_dim or entry.head.d != self.feature_dim:
            raise ValueError("dimension mismatch")
        if self.entries and entry.module.r != self.rank:
            raise ValueError("dimension mismatch")
        if entry.session_index != len(self.entries) + 1:
            raise ValueError("session index must be consecutive")
        seen = set(self.class_ids)
        if any(c in seen for c in entry.class_ids):
            raise ValueError("overlapping classes")
        self.entries.append(entry)

    def session_of_class(self, class_id: int) -> int:
        for e in self.entries:
            if class_id in e.class_ids:
                return e.session_index
        raise KeyError(class_id)


@dataclass
class ScenarioConfig:
    r: int = 48
    normalize_entropy: bool = True
    luca: LucaConfig = field(default_factory=LucaConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("dimensions must be positive")

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            **asdict(self.luca),
            "normalize_entropy": self.normalize_entropy,
            **asdict(self.optim),
        }


def _session_ids(train: FeatureDataset, class_ids, taken: set,
                 d: int) -> tuple:
    """A new session's class ids, sorted, after the classes ``taken``.

    Raises the ``ValueError`` that training the session would: its classes
    overlap ``taken``, ``train`` has no row of them, or ``train`` is not
    ``d`` wide.
    """
    ids = tuple(sorted(int(c) for c in class_ids))
    if not taken.isdisjoint(ids):
        raise ValueError("overlapping classes")
    if set(train.class_ids).isdisjoint(ids):
        raise ValueError("empty session data")
    if train.d != d:
        raise ValueError("dimension mismatch")
    return ids


def _fit_session(train: FeatureDataset, ids: tuple, cfg: ScenarioConfig,
                 seed: int, init: LucaModule | None = None,
                 head: SessionHead | None = None):
    """(module, head) trained on the rows of the classes ``ids``.

    Every trained method fits through here: ``train_session`` and each
    ``tosca`` session, ``finetune`` once per stage on the module and head
    of the stage before, and ``joint`` once on all classes.  The module is
    a copy of ``init`` or, without one, drawn from the first of
    ``derive_seeds(seed, 2)``.  The head is ``head`` grown by ``ids`` or,
    without one, a new zero head over ``ids``.
    """
    derived_init, shuffle_seed = derive_seeds(seed, 2)
    if init is not None:
        module = copy.deepcopy(init)  # training writes in place
    else:
        module = init_luca(train.d, cfg.r, cfg.luca, derived_init)
    head = make_head(train.d, ids) if head is None else extend_head(head, ids)
    train_epochs(module, head, train.subset(ids), cfg.optim,
                 Xoshiro256StarStar(shuffle_seed))
    return module, head


def train_session(bank: ModuleBank, train: FeatureDataset, class_ids,
                  cfg: ScenarioConfig, seed: int,
                  init: LucaModule | None = None) -> ModuleBank:
    """Fit a fresh module + head on one session's classes and bank it.

    ``derive_seeds(seed, 2)`` splits the session seed into an init seed and a
    shuffle seed, so weight init and batch order come from independent
    streams and rerunning a session is bit-reproducible.  The scenario
    driver gives every session the same init, so modules differ only
    through what they were trained on; parameter-space comparisons between
    sessions then measure training, not init noise.  It draws that init
    once and passes it as ``init``, which is copied, never trained in
    place.

    ``run_scenario`` fits a scenario's sessions through the same fit, in the
    process pool of ``_session_workers``, and banks weights identical to
    calling this for each session in turn.
    """
    ids = _session_ids(train, class_ids, set(bank.class_ids),
                       bank.feature_dim)
    if init is not None and (init.d, init.r, init.config) != (
            bank.feature_dim, cfg.r, cfg.luca):
        raise ValueError("init does not match the bank and config")
    module, head = _fit_session(train, ids, cfg, seed, init)
    bank.append(BankEntry(session_index=len(bank) + 1, module=module,
                          head=head))
    return bank


# ---------------------------------------------------------------------------
# Inference.

@dataclass
class Prediction:
    class_id: int
    session_index: int
    entropies: tuple  # raw nats, one per session
    distributions: tuple  # softmax vectors, one per session


@dataclass
class Routing:
    """What ``route`` computed for n rows over a bank of S sessions."""
    probs: list  # per session, (n, K) softmax rows
    entropies: np.ndarray  # (S, n) raw nats
    sessions: np.ndarray  # (n,) chosen 1-based session index
    classes: np.ndarray  # (n,) argmax class id within the chosen session


def _checked_rows(Z, d: int) -> np.ndarray:
    """``Z`` as float32 rows of width ``d``; a NaN or inf entry is refused,
    and so is a finite one that the cast would make inf."""
    Z = np.asarray(Z)
    if Z.ndim != 2 or Z.shape[1] != d:
        raise ValueError("dimension mismatch")
    if not np.isfinite(Z).all():
        raise ValueError("non-finite features")
    with np.errstate(over="ignore"):
        Z32 = Z.astype(np.float32, copy=False)
    if not np.isfinite(Z32).all():
        raise ValueError("features out of float32 range")
    return Z32


def score_sessions(Z: np.ndarray, entries):
    """Score rows under each entry's session on its own, in the rows' dtype
    up to the (n, K) logits, which the softmax and entropy take as float64.

    Returns the per-entry (n, K) softmax rows (a list), the (S, n) raw
    entropies in nats and the (S, n) argmax class ids (ties to the lowest
    id).  A session's scores depend only on that session and ``Z``: each
    entry runs its own forward, then the non-finite check, the softmax, the
    entropy and the argmax run once over each group of entries with the
    same K, stacked as (S_K, n, K), in place.  Each of these reduces or
    maps along the last axis alone, so a session's bits are those of
    scoring it on its own.  Stacking pays for the numpy calls it saves: one
    ``predict`` on a loaded 10-session bank took 0.37 ms against 0.50 ms
    with a softmax per session at d=32, and 0.70 against 0.82 ms at d=768
    (one CPU of a 2-vCPU Xeon, one BLAS thread).
    """
    logits = [head_forward_batch(luca_forward_batch(Z, e.module), e.head)
              for e in entries]
    probs = [None] * len(entries)
    entropies = np.empty((len(entries), Z.shape[0]))
    picks = np.empty((len(entries), Z.shape[0]), dtype=np.int64)
    for K in dict.fromkeys(L.shape[1] for L in logits):
        group = [s for s, L in enumerate(logits) if L.shape[1] == K]
        P = np.empty((len(group), Z.shape[0], K))
        for i, s in enumerate(group):
            P[i] = logits[s]
        if not np.isfinite(P).all():
            raise ValueError("non-finite logits")
        softmax_rows(P, out=P)
        logP = np.where(P > 0.0, P, 1.0)
        np.log(logP, out=logP)
        logP *= P
        h = logP.sum(axis=-1)
        np.subtract(0.0, h, out=h)  # a one-hot row gives 0.0, not -0.0
        entropies[group] = h
        for j, (s, best) in enumerate(zip(group, np.argmax(P, axis=-1))):
            probs[s] = P[j]
            picks[s] = np.asarray(entries[s].class_ids, dtype=np.int64)[best]
    return probs, entropies, picks


def _refuse_one_class(counts) -> None:
    """Raise if one of several sessions has one class: its entropy is 0 on
    every row, so routing would send it every row."""
    if len(counts) > 1 and 1 in counts:
        raise ValueError(f"session {list(counts).index(1) + 1} has one "
                         f"class, so entropy routing would send it every row")


def pick_sessions(entropies: np.ndarray, classes: np.ndarray, counts,
                  normalize_entropy: bool = True):
    """Per row, the least-entropy session of S: (class ids, 1-based sessions).

    ``entropies`` and ``classes`` are (S, n) raw nats and argmax class ids,
    ``counts`` the sessions' class counts.  When ``normalize_entropy`` is
    set and the counts differ, a session scores entropy / ln K instead of
    raw entropy.  Ties go to the lowest session.  A session of one class
    has entropy 0 on every row, raw or normalised, so it would take every
    row: among other sessions it is refused with a ``ValueError``.
    """
    _refuse_one_class(counts)
    scores = entropies
    if normalize_entropy and len(set(counts)) > 1:
        scores = np.stack([h / np.log(k) for h, k in zip(entropies, counts)])
    chosen = np.argmin(scores, axis=0)  # first min = lowest session
    return classes[chosen, np.arange(entropies.shape[1])], chosen + 1


def route(Z, bank: ModuleBank, normalize_entropy: bool = True) -> Routing:
    """Score every row under every session and pick the least-entropy one.

    ``score_sessions`` scores, ``pick_sessions`` picks, on the float32
    rows of ``_checked_rows``.  A NaN or inf input row, or one out of
    float32 range, is refused before any forward pass; a row whose logits
    overflow raises ``ValueError``, with no numpy warning.
    """
    if not bank.entries:
        raise ValueError("empty bank")
    Z = _checked_rows(Z, bank.feature_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        probs, entropies, picks = score_sessions(Z, bank.entries)
    classes, sessions = pick_sessions(
        entropies, picks, [len(e.class_ids) for e in bank.entries],
        normalize_entropy)
    return Routing(probs=probs, entropies=entropies, sessions=sessions,
                   classes=classes)


def predict(x, bank: ModuleBank, normalize_entropy: bool = True) -> Prediction:
    """Route one sample: ``route`` on a one-row batch, so in float32.

    Entropies in the result stay unnormalized.
    """
    z = np.asarray(x)
    if z.ndim != 1:
        raise ValueError("dimension mismatch")
    r = route(z[None, :], bank, normalize_entropy)
    return Prediction(class_id=int(r.classes[0]),
                      session_index=int(r.sessions[0]),
                      entropies=tuple(float(h) for h in r.entropies[:, 0]),
                      distributions=tuple(P[0] for P in r.probs))


def predict_batch(Z: np.ndarray, bank: ModuleBank,
                  normalize_entropy: bool = True):
    """Vectorized routing; returns (class ids, session indices) per row."""
    r = route(Z, bank, normalize_entropy)
    return r.classes, r.sessions


@dataclass
class StageEval:
    accuracy: float
    selection_accuracy: float


def _score_stage(preds, labels, stage_lists) -> StageEval:
    """Accuracy of the predicted class ids, and selection: the share of
    rows whose predicted class lies in the true label's stage.
    Class ids are u32: stages are found by binary search, not an id table.
    """
    if labels.size == 0:
        raise ValueError("empty test set")
    labels = labels.astype(np.int64)
    acc = 100.0 * float(np.mean(preds == labels))
    ids = np.concatenate([np.asarray(s, dtype=np.int64) for s in stage_lists])
    stage = np.repeat(np.arange(len(stage_lists)),
                      [len(s) for s in stage_lists])
    order = np.argsort(ids)
    ids, stage = ids[order], stage[order]

    def stage_of(c):
        pos = np.minimum(np.searchsorted(ids, c), len(ids) - 1)
        return np.where(ids[pos] == c, stage[pos], -1)

    true_stage = stage_of(labels)
    if np.any(true_stage < 0):
        raise ValueError("test label outside every stage")
    hits = int(np.count_nonzero(stage_of(preds) == true_stage))
    return StageEval(accuracy=acc,
                     selection_accuracy=100.0 * hits / labels.size)


def evaluate_stage(bank: ModuleBank, test: FeatureDataset,
                   normalize_entropy: bool = True,
                   scores=None) -> StageEval:
    """Stage accuracy and selection accuracy of routing ``test``.

    ``scores``, an (entropies, classes) pair of (S, n) arrays holding what
    ``score_sessions`` gives each of the bank's S sessions on the n rows of
    ``test``, leaves only the pick to do here; without it ``route`` scores
    every session on every row.
    """
    if scores is None:
        classes = route(test.features, bank, normalize_entropy).classes
    else:
        entropies, picks = scores
        if not entropies.shape == picks.shape == (len(bank), test.n):
            raise ValueError("scores do not match the bank and test rows")
        classes = pick_sessions(entropies, picks,
                                [len(e.class_ids) for e in bank.entries],
                                normalize_entropy)[0]
    return _score_stage(classes, test.labels,
                        [e.class_ids for e in bank.entries])


def _single_classes(module, head, Z) -> np.ndarray:
    """Class ids of the single-model baselines (one shared head)."""
    ids = np.asarray(head.class_ids, dtype=np.int64)
    return ids[np.argmax(head_forward_batch(luca_forward_batch(Z, module),
                                            head), axis=1)]


# ---------------------------------------------------------------------------
# Scenario driver.

@dataclass
class ScenarioReport:
    method: str
    seed: int
    config: dict
    stages: list  # dicts: {"index", "A_b", "selection_accuracy"}
    A_bar: float
    params_per_task: list
    wall_time_s: float
    artifacts: dict = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "artifacts"}


@contextmanager
def _naming_stage(method: str, stage: str,
                  errors=(FloatingPointError, RuntimeError)):
    """Re-raise ``errors``, by default a training divergence or a lost
    training worker, with the method and the stage."""
    try:
        yield
    except errors as exc:
        raise type(exc)(f"{method} {stage}: {exc}") from exc


def _worker_count(stages: int) -> int:
    """Processes to train a scenario's sessions in: one per CPU this process
    may run on, at most one per stage.  Without CPU affinity (no ``fork``
    either) or ``os.memfd_create`` (for the session counter), or inside a
    daemonic process, which may not start children, it is 1."""
    if (not hasattr(os, "sched_getaffinity")
            or not hasattr(os, "memfd_create")
            or multiprocessing.current_process().daemon):
        return 1
    return min(len(os.sched_getaffinity(0)), stages)


def _claim(counter: int) -> int:
    """Claim the next session: read the stage number in the 8-byte counter
    file and store the one after it, under an exclusive lock.  The kernel
    drops a POSIX record lock when its holder dies, so a process killed
    while claiming cannot block the others."""
    fcntl.lockf(counter, fcntl.LOCK_EX)
    try:
        b = int.from_bytes(os.pread(counter, 8, 0), "little")
        os.pwrite(counter, (b + 1).to_bytes(8, "little"), 0)
    finally:
        fcntl.lockf(counter, fcntl.LOCK_UN)
    return b


def _fits(b, claim, fit, stages: int):
    """Yield (stage, fit(stage)) for stage ``b``, then for each stage
    ``claim()`` returns, until it passes the last of ``stages``.  A failed
    fit claims every session left, yields (stage, exception) and stops, so
    that no process starts a session the scenario will never use."""
    while b <= stages:
        try:
            result = fit(b)
        except Exception as exc:
            while claim() <= stages:
                pass
            yield b, exc
            return
        yield b, result
        b = claim()


def _train_share(conn, fits) -> None:
    """Worker body: send each (stage, result) of ``fits`` over ``conn``.  The
    executor's one thread sends in order while the worker trains on; reading
    each send's result makes a failed send fail the worker."""
    with conn, ThreadPoolExecutor(1) as sender:
        for _ in sender.map(conn.send, fits):  # map submits as fits yields
            pass


@contextmanager
def _session_workers(fit, stages: int, workers: int):
    """Yields ``trained(b)``, ``fit(b)``'s result, for b in 1 .. ``stages``
    in order, the sessions fitted here and in ``workers - 1`` forked
    processes; ``run_scenario`` takes ``workers`` from ``_worker_count``.

    Every process runs ``_fits``: this process starts on session 1 and
    worker k on session k + 1, and each claims the next stage number
    whenever it is free, so a worker whose CPU is taken by other work
    trains fewer sessions rather than holding up the scenario.
    ``trained(b)`` fits here until b is done, then waits for the workers.
    With one worker the claims count in process and nothing starts; with
    more they come from ``_claim`` on an anonymous counter file, which has
    no length limit.  Each child inherits the inputs through ``fork``, so
    nothing is pickled on the way in, and sends its results back over its
    own pipe through a one-thread ``ThreadPoolExecutor``, so it trains on
    while a result larger than the pipe waits to be read.  A failed fit's
    exception is raised again at its stage.  The parent closes its copy of
    each pipe's write end, so a child that dies leaves end of file, not a
    blocked read: a session that no process is left to deliver raises
    ``RuntimeError``.  No child outlives the block.
    """
    ctx = multiprocessing.get_context("fork")
    counter = os.memfd_create("sessions") if workers > 1 else None
    procs, live = [], []  # live: the result pipes not yet at end of file
    done: dict = {}

    def collect(timeout):
        """Take in what the workers have sent, waiting up to ``timeout``."""
        for conn in wait(live, timeout):
            try:
                c, result = conn.recv()
            except EOFError:
                live.remove(conn)
                conn.close()
            else:
                done[c] = result

    def trained(b: int):
        collect(0)
        while b not in done:
            fitted = next(fits, None)
            if fitted:
                done[fitted[0]] = fitted[1]
                collect(0)
            elif live:
                collect(None)
            else:  # the worker that held session b died
                for p in procs:
                    p.join()
                code = next((p.exitcode for p in procs if p.exitcode), None)
                raise RuntimeError(f"training worker exited with code {code}")
        result = done.pop(b)
        if isinstance(result, Exception):
            raise result
        return result

    try:
        if counter is not None:
            os.pwrite(counter, (workers + 1).to_bytes(8, "little"), 0)
        claim = (count(2).__next__ if counter is None
                 else partial(_claim, counter))
        share = partial(_fits, claim=claim, fit=fit, stages=stages)
        fits = share(1)
        for k in range(1, workers):
            conn, child_end = ctx.Pipe(duplex=False)
            live.append(conn)
            procs.append(ctx.Process(target=_train_share, daemon=True,
                                     args=(child_end, share(k + 1))))
            procs[-1].start()
            child_end.close()
        yield trained
    finally:
        for p in procs:
            p.terminate()
        for p in procs:
            p.join()
            p.close()  # its sentinel pipe now, not when it is collected
        for conn in live:
            conn.close()
        if counter is not None:
            os.close(counter)


def run_scenario(train: FeatureDataset, test: FeatureDataset, splits: SplitPlan,
                 method: str = "tosca", cfg: ScenarioConfig | None = None,
                 seed: int = 1993) -> ScenarioReport:
    """Run one incremental scenario end to end.

    Stage b is always scored on the test rows of every class seen through
    stage b; A_bar averages those stage accuracies.  ``tosca`` and
    ``tosca_r`` score each session once, on the float32 test rows of the
    split's classes, in the process that fitted it, and pass
    ``evaluate_stage`` sessions 1..b's entropies and classes on stage b's
    rows; the stage metrics are those of routing each stage's rows afresh.
    Each stage draws its own seed from the master via ``derive_seeds`` so
    later stages cannot perturb earlier ones.  A training divergence raises
    ``FloatingPointError`` naming the method, the stage and the epoch, and
    in ``tosca`` and ``tosca_r`` a session whose logits on the scored rows
    are not finite raises ``ValueError`` naming the method and the stage.

    Every method checks every stage before any training, raising the
    ``ValueError`` that ``train_session`` would for a stage that overlaps
    an earlier one or has no training rows, and ``ValueError("non-finite
    features")`` for a NaN or inf in a train or test row of the split's
    classes.  ``tosca``, ``tosca_r``, ``finetune`` (once per stage, on the
    stage before's module and head) and ``joint`` (once, on all classes)
    all fit through ``_fit_session``.

    ``tosca`` and ``tosca_r`` also refuse a session of one class among
    several, as ``pick_sessions`` would, then fit and score their sessions
    in the process pool of ``_session_workers``, where a failure reads the
    same in any process and a worker that dies raises ``RuntimeError``,
    here naming the stage.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    cfg = cfg if cfg is not None else ScenarioConfig()
    if method == "tosca_r":
        cfg = replace(cfg, luca=replace(cfg.luca, reversed=True))
    if train.d != test.d:
        raise ValueError("dimension mismatch")
    covered = splits.classes_through(splits.num_stages)
    if not set(covered) <= set(train.class_ids):
        raise ValueError("split mismatch")

    t0 = perf_counter()
    B = splits.num_stages
    d = train.d
    seeds = derive_seeds(seed, B + 1)
    stage_seeds, shared_init = seeds[:B], seeds[B]
    taken: set = set()
    session_ids = []
    for classes in splits.stages:  # every stage, before any training
        session_ids.append(_session_ids(train, classes, taken, d))
        taken.update(session_ids[-1])
    scored = np.isin(test.labels, covered)
    for ds, rows in ((train, np.isin(train.labels, covered)), (test, scored)):
        if not np.isfinite(ds.features).all(axis=1)[rows].all():
            raise ValueError("non-finite features")
    stages = []
    params = []
    artifacts: dict = {}

    def record(b: int, ev: StageEval) -> None:
        stages.append({"index": b, "A_b": ev.accuracy,
                       "selection_accuracy": ev.selection_accuracy})

    if method in ("tosca", "tosca_r"):
        _refuse_one_class([len(ids) for ids in session_ids])
        bank = ModuleBank(d)
        init = init_luca(d, cfg.r, cfg.luca, shared_init)
        Z = test.features[scored]
        labels = test.labels[scored]
        entropies = np.empty((B, labels.size))
        picks = np.empty((B, labels.size), dtype=np.int64)

        def fit(b: int):
            """Session b's bank entry, with its raw entropies and argmax
            classes on every scored row, in the process that fitted it."""
            module, head = _fit_session(train, session_ids[b - 1], cfg,
                                        stage_seeds[b - 1], init)
            entry = BankEntry(session_index=b, module=module, head=head)
            with np.errstate(over="ignore", invalid="ignore"), \
                    _naming_stage(method, f"stage {b}", ValueError):
                _, h, c = score_sessions(Z, [entry])
            return entry, h[0], c[0]

        with _session_workers(fit, B, _worker_count(B)) as trained:
            for b, ids in enumerate(session_ids, start=1):
                with _naming_stage(method, f"stage {b}"):
                    entry, entropies[b - 1], picks[b - 1] = trained(b)
                bank.append(entry)
                rows = np.isin(labels, splits.classes_through(b))
                record(b, evaluate_stage(
                    bank, test.subset(splits.classes_through(b)),
                    cfg.normalize_entropy,
                    (entropies[:b, rows], picks[:b, rows])))
                params.append(param_count(d, cfg.r) + d * len(ids))
        artifacts["bank"] = bank
    elif method == "finetune":
        module = head = None
        for b, ids in enumerate(session_ids, start=1):
            with _naming_stage(method, f"stage {b}"):
                module, head = _fit_session(train, ids, cfg,
                                            stage_seeds[b - 1], module, head)
            seen = test.subset(splits.classes_through(b))
            preds = _single_classes(module, head, seen.features)
            record(b, _score_stage(preds, seen.labels, splits.stages))
            params.append((param_count(d, cfg.r) if b == 1 else 0)
                          + d * len(ids))
        artifacts.update(module=module, head=head)
    elif method == "joint":
        with _naming_stage(method, f"stages 1-{B}"):
            module, head = _fit_session(train, splits.classes_through(B), cfg,
                                        stage_seeds[0])
        preds = _single_classes(module, head, test.features)  # model is fixed
        for b in range(1, B + 1):
            rows = np.isin(test.labels, splits.classes_through(b))
            record(b, _score_stage(preds[rows], test.labels[rows],
                                   splits.stages))
            params.append(param_count(d, cfg.r) + head.param_count
                          if b == 1 else 0)
        artifacts.update(module=module, head=head)
    else:  # simplecil
        proto = None
        for b, ids in enumerate(session_ids, start=1):
            ds = train.subset(ids)
            proto = build_prototypes(ds.features, ds.labels, proto)
            seen = test.subset(splits.classes_through(b))
            preds = prototype_classify_batch(seen.features, proto)
            record(b, _score_stage(preds, seen.labels, splits.stages))
            params.append(d * len(ids))
        artifacts["prototypes"] = proto

    a_bar = float(np.mean([s["A_b"] for s in stages]))
    report = ScenarioReport(method=method, seed=seed, config=cfg.to_dict(),
                            stages=stages, A_bar=a_bar, params_per_task=params,
                            wall_time_s=perf_counter() - t0,
                            artifacts=artifacts)
    return report


# ---------------------------------------------------------------------------
# Diagnostics over a trained bank.

def module_orthogonality(bank: ModuleBank) -> float:
    """Mean |cosine| between flattened parameter vectors of distinct modules."""
    if len(bank) < 2:
        raise ValueError("need at least two modules")
    vecs = [e.module.flat_params() for e in bank.entries]
    norms = [float(np.linalg.norm(v)) for v in vecs]
    sims = []
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if norms[i] == 0.0 or norms[j] == 0.0:
                sims.append(0.0)
            else:
                sims.append(abs(float(np.dot(vecs[i], vecs[j])))
                            / (norms[i] * norms[j]))
    return float(np.mean(sims))


def feature_shift(bank: ModuleBank, features: np.ndarray) -> tuple:
    """Per session, mean ||L(z) - z|| / ||z|| over the given rows, in
    float64: squaring a float32 entry beyond about 1.8e19 would overflow."""
    Z = _checked_rows(features, bank.feature_dim).astype(np.float64)
    if Z.shape[0] == 0:
        raise ValueError("no samples")
    base = np.linalg.norm(Z, axis=1)
    if np.any(base == 0.0):
        raise ValueError("degenerate vector")
    out = []
    for e in bank.entries:
        moved = luca_forward_batch(Z, e.module)
        out.append(float(np.mean(np.linalg.norm(moved - Z, axis=1) / base)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Bank container.

# FNV-1a runs as numpy passes over blocks of _FNV_BLOCK bytes, with the
# values of the byte loop ``h = ((h ^ b) * P) mod 2**64``.  XOR with a byte
# changes only the low byte s of h, by delta = (s ^ b) - s, so a block of m
# bytes takes h to P**m * h + sum_t P**(m - t) * delta_t, a wrapping uint64
# dot product against _FNV_POWERS.  The low bytes evolve on their own,
# s' = ((s ^ b) * (P mod 256)) mod 256, and as P is odd, bit j of s' is bit
# j of s XOR a term of b and the bits of s below j: eight prefix-XOR passes.
_FNV_BLOCK = 1 << 16
# P**(B - t) at t = 0 .. B-1, built in place so that import allocates only
# the table itself (512 KiB).
_FNV_POWERS = np.full(_FNV_BLOCK, FNV_PRIME, dtype=np.uint64)
np.multiply.accumulate(_FNV_POWERS, out=_FNV_POWERS)
_FNV_POWERS = _FNV_POWERS[::-1]
_FNV_LOW = np.uint8(FNV_PRIME & 0xFF)


def _prefix_xor(bits: np.ndarray, first: int) -> np.ndarray:
    """Exclusive prefix XOR of the 0/nonzero bytes ``bits`` (length a multiple
    of 64), XOR ``first``, as 0/1 bytes: out[i] = first ^ bits[0..i-1]."""
    c = np.packbits(bits, bitorder="little").view("<u8")
    w = c.copy()
    for k in (1, 2, 4, 8, 16, 32):  # inclusive prefix within each word
        w ^= w << np.uint64(k)
    par = w >> np.uint64(63)
    carry = np.bitwise_xor.accumulate(par)
    carry ^= par  # parity of the words before
    carry ^= np.uint64(first)
    w ^= c
    w ^= carry * np.uint64(_U64)
    return np.unpackbits(w.view(np.uint8), bitorder="little")


def _fnv_low_bytes(s0: int, b: np.ndarray) -> np.ndarray:
    """Low byte of the hash before each byte of ``b``, from ``s0`` on."""
    low = np.zeros_like(b)
    t = np.empty_like(b)
    for j in range(8):
        bit = np.uint8(1 << j)
        np.bitwise_xor(low, b, out=t)
        t &= bit - np.uint8(1)
        t *= _FNV_LOW
        t ^= b
        t &= bit  # bit j of s' XOR bit j of s
        e = _prefix_xor(t, (s0 >> j) & 1)
        e *= bit
        low |= e
    return low


def fnv1a(data) -> int:
    """64-bit FNV-1a of a bytes-like object (``bytes``, ``memoryview``, ...)."""
    octets = np.frombuffer(data, dtype=np.uint8)
    h = FNV_OFFSET
    for pos in range(0, octets.size, _FNV_BLOCK):
        b = octets[pos:pos + _FNV_BLOCK]
        m = b.size
        padded = np.zeros(-(-m // 64) * 64, dtype=np.uint8)
        padded[:m] = b
        s = _fnv_low_bytes(h & 0xFF, padded)[:m]
        delta = (s ^ b).astype(np.int64)
        delta -= s
        tail = int(np.dot(_FNV_POWERS[_FNV_BLOCK - m:], delta.view(np.uint64)))
        h = (pow(FNV_PRIME, m, 1 << 64) * h + tail) & _U64
    return h


def _entry_size(d: int, r: int, k: int) -> int:
    """Bytes of one entry in a bank file, its checksum included."""
    # a Python int: numpy 2.4 wraps a >2 GiB structured dtype's itemsize
    return 12 + 4 * k + 4 * (4 * d * r + d * k) + 8


def _entry_bytes(entry: BankEntry) -> bytes:
    m = entry.module
    head = entry.head
    parts = [struct.pack("<II", entry.session_index, head.num_classes),
             bytes(v.index(getattr(m.config, f)) for f, v in _CONFIG_CODES)]
    parts.append(struct.pack(f"<{head.num_classes}I", *head.class_ids))
    for mat in (*m.matrices(), head.w):
        parts.append(np.ascontiguousarray(mat, dtype="<f4").tobytes())
    return b"".join(parts)


def entry_checksum(entry: BankEntry) -> int:
    """FNV-1a over the entry's serialized bytes; pins a trained session."""
    return fnv1a(_entry_bytes(entry))


def save_bank(bank: ModuleBank, path) -> None:
    """Write the bank to ``path`` through ``data.replace_file``.

    Every entry and its checksum is serialized before any file is opened,
    so an entry that cannot be serialized raises with no file made, and a
    write that fails leaves an existing file as it was.
    """
    parts = [BANK_MAGIC, _BANK_HEAD.pack(BANK_VERSION, bank.feature_dim,
                                         bank.rank, len(bank))]
    for entry in bank.entries:
        blob = _entry_bytes(entry)
        parts += (blob, struct.pack("<Q", fnv1a(blob)))
    replace_file(path, parts)


def load_bank(path) -> ModuleBank:
    """Rebuild a bank, each module with the config stored in its entry.

    Every matrix and head is a read-only float32 ``np.frombuffer`` view of
    the file's bytes: nothing is decoded or copied, and serving reads the
    weights in place.
    """
    blob, off, (d, r, count) = read_container(path, BANK_MAGIC, _BANK_HEAD,
                                              BANK_VERSION, "bank")
    if d < 1:
        raise ValueError("not a bank file")
    if r < 1 and count > 0:
        raise ValueError("rank r=0 in a bank with entries")
    if count * _entry_size(d, r, 1) > len(blob) - off:
        raise ValueError(f"entry count {count} does not fit in the "
                         f"{len(blob) - off} bytes after the header")
    bank = ModuleBank(d)
    for _ in range(count):
        start = off
        if len(blob) < off + 12:
            raise ValueError("unexpected end of file")
        session_index, k = struct.unpack_from("<II", blob, off)
        off += 12
        if k < 1:
            raise ValueError("not a bank file")
        if len(blob) < start + _entry_size(d, r, k):
            raise ValueError("unexpected end of file")
        class_ids = struct.unpack_from(f"<{k}I", blob, off)
        off += 4 * k
        # the module's 4*d*r floats, then the head's d*K, as one view of the
        # bytes, so read-only: a loaded bank is frozen
        n = 4 * d * r
        floats = np.frombuffer(blob, dtype="<f4", count=n + d * k, offset=off)
        off += 4 * floats.size
        (stored,) = struct.unpack_from("<Q", blob, off)
        if fnv1a(memoryview(blob)[start:off]) != stored:
            raise ValueError("checksum mismatch")
        off += 8
        config = {}
        codes = blob[start + 8:start + 12]
        for (name, values), code in zip(_CONFIG_CODES, codes):
            if code >= len(values):
                raise ValueError(f"unknown {name} code {code}")
            config[name] = values[code]
        module = LucaModule(d, r, *matrix_views(floats[:n], d, r),
                            config=LucaConfig(**config))
        head = SessionHead(class_ids=class_ids, w=floats[n:].reshape(d, k))
        bank.append(BankEntry(session_index=session_index, module=module,
                              head=head))
    if off != len(blob):
        raise ValueError(f"trailing bytes after the last entry: {len(blob) - off}")
    return bank
