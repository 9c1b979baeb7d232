"""Session bank, entropy-routed inference, benchmark scenarios, and the
module-bank container format.

A scenario walks the stages of a split plan.  The main method trains one
frozen-after-training module + head per stage and routes each test sample to
the session whose softmax output has least Shannon entropy.  One routing
path makes that choice for ``predict``, ``predict_batch`` and
``evaluate_stage``: ``score_sessions`` gives each session's raw entropy and
argmax class per row, and ``pick_sessions`` normalises over the sessions
present and takes the first minimum.  ``route`` runs both on a batch.  A
banked session never changes, so a scenario keeps each session's scores in
a ``SessionScores`` cache over its test rows: stage b scores session b on
the rows through stage b and the older sessions on stage b's new rows only,
so with equal stages stage b costs 2b - 1 stage-sized forwards, not b**2.
A session depends only on its own rows, so a scenario trains its sessions
in up to N processes, N the CPUs this process may run on (at most one per
stage).  This process and N - 1 forked workers run one loop: fit a first
session, then claim the next stage number from a shared counter, which has
no length limit, whenever free, so a process slowed by other load trains
fewer; this process evaluates every stage in order.  One CPU runs the same
loop, counting in process, and starts no process.  Reports and banks do
not depend on N.
Baselines share the harness: sequential finetuning of a single module with a
growing head, joint training on all classes at once (scored once, sliced per
stage), and a prototype classifier with no training at all.

Bank file layout (all little endian):

    magic    8 bytes  b"LUCABANK"
    version  u32      currently 1
    d, r     u32, u32
    entries  u32      count
    per entry: session_index u32, K u32, K class ids u32,
               W_down, W_up, V_down, V_up, W_head as row-major float32,
               then a u64 FNV-1a checksum of the entry's preceding bytes.

The layout and every byte of it are unchanged since version 1.  The checksum
is still the 64-bit FNV-1a of the byte loop ``h = ((h ^ b) * P) mod 2**64``;
``fnv1a`` computes the same value with numpy passes over 64 KiB blocks (a
wrapping uint64 power sum plus eight bit-packed prefix XORs for the low
byte), so its temporaries stay near 1 MiB at any entry size.  ``load_bank``
checks the entry count against the file size before reading any entry.

A loaded bank is frozen: ``load_bank`` decodes each matrix and head from
the file's float32 bytes to a read-only float64 array once, holding the
file's float32 values, so routing it upcasts no weights per call and
``save_bank`` writes the same bytes back.  A bank built by training keeps
float32 weights; ``train_epochs`` refuses float64 ones.
"""

from __future__ import annotations

import copy
import fcntl
import multiprocessing
import os
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import count
from multiprocessing.connection import wait
from queue import SimpleQueue
from time import perf_counter

import numpy as np

from .data import FeatureDataset, SplitPlan
# head_forward, luca_forward: unused here, but the benchmark tracer wraps them
from .heads import (SessionHead, build_prototypes, extend_head, head_forward,
                    head_forward_batch, make_head, prototype_classify_batch)
from .luca import (LucaConfig, LucaModule, init_luca, luca_forward,
                   luca_forward_batch, param_count)
from .numerics import softmax_rows
from .optim import OptimConfig, train_epochs
from .rng import Xoshiro256StarStar, derive_seeds

METHODS = ("tosca", "tosca_r", "finetune", "joint", "simplecil")

BANK_MAGIC = b"LUCABANK"
BANK_VERSION = 1
FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
_U64 = (1 << 64) - 1


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
    adapter_act: str = "gelu"
    gate_act: str = "sigmoid"
    gate_residual: bool = False
    reversed: bool = False
    normalize_entropy: bool = True
    optim: OptimConfig = field(default_factory=OptimConfig)

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("dimensions must be positive")
        # delegate activation validation
        self.luca_config()

    def luca_config(self) -> LucaConfig:
        return LucaConfig(adapter_act=self.adapter_act, gate_act=self.gate_act,
                          gate_residual=self.gate_residual, reversed=self.reversed)

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "adapter_act": self.adapter_act,
            "gate_act": self.gate_act,
            "gate_residual": self.gate_residual,
            "reversed": self.reversed,
            "normalize_entropy": self.normalize_entropy,
            "lr_max": self.optim.lr_max,
            "lr_min": self.optim.lr_min,
            "epochs": self.optim.epochs,
            "batch_size": self.optim.batch_size,
            "lambda_l1": self.optim.lambda_l1,
            "l1_mode": self.optim.l1_mode,
            "momentum": self.optim.momentum,
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
                 seed: int, init: LucaModule | None = None):
    """(module, head) trained on the rows of the classes ``ids``.

    ``train_session`` and every process of a scenario fit through here.  The
    module is a copy of ``init`` or, without one, drawn from the first of
    ``derive_seeds(seed, 2)``.
    """
    derived_init, shuffle_seed = derive_seeds(seed, 2)
    if init is not None:
        module = copy.deepcopy(init)  # training writes in place
    else:
        module = init_luca(train.d, cfg.r, cfg.luca_config(), derived_init)
    head = make_head(train.d, ids)
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

    A session depends only on its own rows, the config, the seed and the
    init.  So ``run_scenario`` fits a scenario's sessions through the same
    fit as this call, in up to N processes at N CPUs and in this process
    alone at one, and banks weights identical to calling this for each
    session in turn.
    """
    ids = _session_ids(train, class_ids, set(bank.class_ids),
                       bank.feature_dim)
    if init is not None and (init.d, init.r, init.config) != (
            bank.feature_dim, cfg.r, cfg.luca_config()):
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
    """``Z`` as float64 rows of width ``d``; a NaN or inf entry is refused."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != d:
        raise ValueError("dimension mismatch")
    if not np.isfinite(Z).all():
        raise ValueError("non-finite features")
    return Z


def score_sessions(Z: np.ndarray, entries):
    """Score float64 rows under each entry's session on its own.

    Yields, per entry in order, the (n, K) softmax rows, the (n,) raw
    entropies in nats and the (n,) argmax class ids (ties to the lowest
    id).  A session's scores depend only on that session and ``Z``.  As a
    generator, each session's temporaries stay bound through the next
    session's forward, though freeing them earlier makes no measurable
    difference: serving a loaded d=768 bank in the route-d768 benchmark
    took about 0.05 minor page faults per 32-row ``predict_batch`` either
    way.
    """
    for e in entries:
        feats = luca_forward_batch(Z, e.module)
        logits = head_forward_batch(feats, e.head)
        if not np.isfinite(logits).all():
            raise ValueError("non-finite logits")
        P = softmax_rows(logits)
        logP = np.log(np.where(P > 0.0, P, 1.0))
        h = 0.0 - (P * logP).sum(axis=1)  # a one-hot row gives 0.0, not -0.0
        ids = np.asarray(e.class_ids, dtype=np.int64)
        yield P, h, ids[np.argmax(P, axis=1)]


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
    if len(counts) > 1 and 1 in counts:
        raise ValueError(f"session {list(counts).index(1) + 1} has one "
                         f"class, so entropy routing would send it every row")
    scores = entropies
    if normalize_entropy and len(set(counts)) > 1:
        scores = np.stack([h / np.log(k) for h, k in zip(entropies, counts)])
    chosen = np.argmin(scores, axis=0)  # first min = lowest session
    return classes[chosen, np.arange(entropies.shape[1])], chosen + 1


def route(Z, bank: ModuleBank, normalize_entropy: bool = True) -> Routing:
    """Score every row under every session and pick the least-entropy one.

    ``score_sessions`` scores, ``pick_sessions`` picks.  A NaN or inf input
    row is refused before any forward pass.
    """
    if not bank.entries:
        raise ValueError("empty bank")
    Z = _checked_rows(Z, bank.feature_dim)
    n = Z.shape[0]
    probs = []
    entropies = np.empty((len(bank), n), dtype=np.float64)
    picks = np.empty((len(bank), n), dtype=np.int64)
    for i, (P, h, c) in enumerate(score_sessions(Z, bank.entries)):
        probs.append(P)
        entropies[i] = h
        picks[i] = c
    classes, sessions = pick_sessions(
        entropies, picks, [len(e.class_ids) for e in bank.entries],
        normalize_entropy)
    return Routing(probs=probs, entropies=entropies, sessions=sessions,
                   classes=classes)


def predict(x, bank: ModuleBank, normalize_entropy: bool = True) -> Prediction:
    """Route one sample: ``route`` on a one-row batch.

    Entropies in the result stay unnormalized.
    """
    z = np.asarray(x, dtype=np.float64)
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


class SessionScores:
    """Raw entropies and argmax classes of a growing bank's sessions on a
    fixed list of test rows, each (session, row) pair scored once.

    A banked session never changes, so when the bank has grown, ``route``
    scores only the new sessions on every requested row and the older
    sessions on the rows not requested before, then picks from the cache.
    The entropies stay raw: normalisation depends on the sessions present.
    """

    def __init__(self, labels):
        self.labels = np.asarray(labels)
        self.entropies: list = []  # per scored session, (n,) raw nats
        self.classes: list = []  # per scored session, (n,) argmax class id
        self.rows = np.zeros(self.labels.size, dtype=bool)  # rows they scored

    def route(self, bank: ModuleBank, test: FeatureDataset,
              normalize_entropy: bool = True):
        """(class ids, sessions) for ``test``, which must be the cached rows
        of its labels, in order, and include the rows routed before;
        ``bank`` must extend the last bank routed."""
        if not bank.entries:
            raise ValueError("empty bank")
        covered = np.isin(self.labels, test.labels)
        if (not np.array_equal(self.labels[covered], test.labels)
                or len(bank) < len(self.entropies)
                or np.any(self.rows & ~covered)):
            raise ValueError("test rows or bank do not extend the scored ones")
        Z = _checked_rows(test.features, bank.feature_dim)
        at = np.flatnonzero(covered)
        fresh = ~self.rows[covered]
        old = len(self.entropies)
        if old and fresh.any():
            for i, (_, h, c) in enumerate(
                    score_sessions(Z[fresh], bank.entries[:old])):
                self.entropies[i][at[fresh]] = h
                self.classes[i][at[fresh]] = c
        new = [(h, c) for _, h, c in score_sessions(Z, bank.entries[old:])]
        for h, c in new:  # cached once every new session has scored
            self.entropies.append(np.zeros(self.labels.size))
            self.classes.append(np.zeros(self.labels.size, dtype=np.int64))
            self.entropies[-1][at] = h
            self.classes[-1][at] = c
        self.rows = covered
        return pick_sessions(np.stack([h[at] for h in self.entropies]),
                             np.stack([c[at] for c in self.classes]),
                             [len(e.class_ids) for e in bank.entries],
                             normalize_entropy)


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
                   scores: SessionScores | None = None) -> StageEval:
    """Stage accuracy and selection accuracy of routing ``test``.

    ``scores``, a cache over the scenario's test rows of which ``test`` is
    a part, saves re-scoring what an earlier stage scored; without it every
    session scores every row.
    """
    if scores is None:
        scores = SessionScores(test.labels)
    classes = scores.route(bank, test, normalize_entropy)[0]
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
        return {
            "method": self.method,
            "seed": self.seed,
            "config": self.config,
            "stages": self.stages,
            "A_bar": self.A_bar,
            "params_per_task": self.params_per_task,
            "wall_time_s": self.wall_time_s,
        }


@contextmanager
def _naming_stage(method: str, stage: str):
    """Re-raise a training divergence or a lost training worker with the
    method and the stage."""
    try:
        yield
    except (FloatingPointError, RuntimeError) as exc:
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


def _fits(b, claim, train, stages, seeds, cfg, init):
    """Yield (stage, (module, head)) for stage ``b``, then for each stage
    ``claim()`` returns, until it passes the last.  A failed fit claims
    every session left, yields (stage, exception) and stops, so that no
    process starts a session the scenario will never use."""
    while b <= len(stages):
        try:
            result = _fit_session(train, stages[b - 1], cfg, seeds[b - 1],
                                  init)
        except Exception as exc:
            while claim() <= len(stages):
                pass
            yield b, exc
            return
        yield b, result
        b = claim()


def _send_all(conn, outbox) -> None:
    """Send each item put in ``outbox`` over ``conn``, until None."""
    while (item := outbox.get()) is not None:
        conn.send(item)


def _train_share(conn, fits) -> None:
    """Worker body: send each (stage, result) of ``fits`` over ``conn``.  A
    thread sends, so the worker trains on while a result waits for the
    parent to read it."""
    outbox = SimpleQueue()
    sender = threading.Thread(target=_send_all, args=(conn, outbox))
    sender.start()
    try:
        for item in fits:
            outbox.put(item)
    finally:
        outbox.put(None)
        sender.join()
        conn.close()


@contextmanager
def _session_workers(train, stages, seeds, cfg, init, workers: int):
    """Yields ``trained(b)``, session b's (module, head), for b in stage
    order, the sessions trained here and in ``workers - 1`` forked
    processes.

    Every process runs ``_fits``: this process starts on session 1 and
    worker k on session k + 1, and each claims the next stage number
    whenever it is free, so a worker whose CPU is taken by other work
    trains fewer sessions rather than holding up the scenario.
    ``trained(b)`` fits here until b is done, then waits for the workers.
    With one worker the claims count in process and nothing starts; with
    more they come from ``_claim`` on an anonymous counter file, which has
    no length limit.  Each child inherits the inputs through ``fork``, so
    nothing is pickled on the way in, and sends its results back over its
    own pipe.  A failed fit's exception is raised again at its stage.  The
    parent closes its copy of each pipe's write end, so a child that dies
    leaves end of file, not a blocked read: a session that no process is
    left to deliver raises ``RuntimeError``.  No child outlives the block.
    """
    ctx = multiprocessing.get_context("fork")
    counter = os.memfd_create("sessions") if workers > 1 else None
    procs, conns = [], []
    live = []  # the pipes in conns not yet at end of file
    done: dict = {}

    def collect(timeout):
        """Take in what the workers have sent, waiting up to ``timeout``."""
        for conn in wait(live, timeout):
            try:
                c, result = conn.recv()
            except EOFError:
                live.remove(conn)
            else:
                done[c] = result

    def trained(b: int):
        collect(0)
        while b not in done:
            fit = next(fits, None)
            if fit:
                done[fit[0]] = fit[1]
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
        share = partial(_fits, claim=claim, train=train, stages=stages,
                        seeds=seeds, cfg=cfg, init=init)
        fits = share(1)
        for k in range(1, workers):
            conn, child_end = ctx.Pipe(duplex=False)
            conns.append(conn)
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
        for conn in conns:
            conn.close()
        if counter is not None:
            os.close(counter)


def run_scenario(train: FeatureDataset, test: FeatureDataset, splits: SplitPlan,
                 method: str = "tosca", cfg: ScenarioConfig | None = None,
                 seed: int = 1993) -> ScenarioReport:
    """Run one incremental scenario end to end.

    Stage b is always scored on the test rows of every class seen through
    stage b; A_bar averages those stage accuracies.  ``tosca`` and
    ``tosca_r`` pass ``evaluate_stage`` a ``SessionScores`` cache, so each
    (session, test row) pair is forwarded once over the whole scenario, and
    the stage metrics are those of routing each stage's rows afresh.  Each
    stage draws its own seed from the master via ``derive_seeds`` so later
    stages cannot perturb earlier ones.  A training divergence raises
    ``FloatingPointError`` naming the method, the stage and the epoch.

    ``tosca`` and ``tosca_r`` train their sessions in up to N processes, N
    the CPUs in ``os.sched_getaffinity`` and at most the stage count.  This
    process checks every stage first (raising the ``ValueError`` that
    ``train_session`` would), draws the shared init, then forks N - 1
    workers.  It trains session 1 and worker k session k + 1; after that
    every process claims the next session from a shared counter when it is
    free, and this process evaluates each stage in order.  One CPU runs the
    same loop in this process and starts none.  The results do not depend
    on which process trained each session, and a failure reads the same
    whichever process met it.  A worker that dies raises ``RuntimeError``
    naming the stage, and no worker outlives the call.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    cfg = cfg if cfg is not None else ScenarioConfig()
    if method == "tosca_r":
        cfg = replace(cfg, reversed=True)
    if train.d != test.d:
        raise ValueError("dimension mismatch")
    covered = set(splits.classes_through(splits.num_stages))
    if not covered <= set(train.class_ids):
        raise ValueError("split mismatch")

    t0 = perf_counter()
    B = splits.num_stages
    d = train.d
    seeds = derive_seeds(seed, B + 1)
    stage_seeds, shared_init = seeds[:B], seeds[B]
    stages = []
    params = []
    artifacts: dict = {}

    if method in ("tosca", "tosca_r"):
        taken: set = set()
        session_ids = []
        for classes in splits.stages:  # every stage, before any worker
            session_ids.append(_session_ids(train, classes, taken, d))
            taken.update(session_ids[-1])
        bank = ModuleBank(d)
        scores = SessionScores(test.labels)
        init = init_luca(d, cfg.r, cfg.luca_config(), shared_init)
        with _session_workers(train, session_ids, stage_seeds, cfg, init,
                              _worker_count(B)) as trained:
            for b, classes in enumerate(splits.stages, start=1):
                with _naming_stage(method, f"stage {b}"):
                    module, head = trained(b)
                bank.append(BankEntry(session_index=b, module=module,
                                      head=head))
                ev = evaluate_stage(bank,
                                    test.subset(splits.classes_through(b)),
                                    cfg.normalize_entropy, scores)
                stages.append({"index": b, "A_b": ev.accuracy,
                               "selection_accuracy": ev.selection_accuracy})
                params.append(param_count(d, cfg.r) + d * len(classes))
        artifacts["bank"] = bank
    elif method == "finetune":
        module = None
        head = None
        for b, classes in enumerate(splits.stages, start=1):
            ids = tuple(sorted(int(c) for c in classes))
            ds = train.subset(ids)
            if ds.n == 0:
                raise ValueError("empty session data")
            module_seed, shuffle_seed = derive_seeds(stage_seeds[b - 1], 2)
            if module is None:
                module = init_luca(d, cfg.r, cfg.luca_config(), module_seed)
                head = make_head(d, ids)
                params.append(param_count(d, cfg.r) + d * len(ids))
            else:
                head = extend_head(head, ids)
                params.append(d * len(ids))
            with _naming_stage(method, f"stage {b}"):
                train_epochs(module, head, ds, cfg.optim,
                             Xoshiro256StarStar(shuffle_seed))
            seen = test.subset(splits.classes_through(b))
            ev = _score_stage(_single_classes(module, head, seen.features),
                              seen.labels, splits.stages)
            stages.append({"index": b, "A_b": ev.accuracy,
                           "selection_accuracy": ev.selection_accuracy})
        artifacts["module"] = module
        artifacts["head"] = head
    elif method == "joint":
        all_ids = splits.classes_through(B)
        ds = train.subset(all_ids)
        if ds.n == 0:
            raise ValueError("empty session data")
        module_seed, shuffle_seed = derive_seeds(stage_seeds[0], 2)
        module = init_luca(d, cfg.r, cfg.luca_config(), module_seed)
        head = make_head(d, all_ids)
        with _naming_stage(method, f"stages 1-{B}"):
            train_epochs(module, head, ds, cfg.optim,
                         Xoshiro256StarStar(shuffle_seed))
        preds = _single_classes(module, head, test.features)  # model is fixed
        for b in range(1, B + 1):
            rows = np.isin(test.labels, splits.classes_through(b))
            ev = _score_stage(preds[rows], test.labels[rows], splits.stages)
            stages.append({"index": b, "A_b": ev.accuracy,
                           "selection_accuracy": ev.selection_accuracy})
            params.append(param_count(d, cfg.r) + d * len(all_ids) if b == 1 else 0)
        artifacts["module"] = module
        artifacts["head"] = head
    else:  # simplecil
        proto = None
        for b, classes in enumerate(splits.stages, start=1):
            ds = train.subset(classes)
            if ds.n == 0:
                raise ValueError("empty session data")
            proto = build_prototypes(ds.features, ds.labels, proto)
            seen = test.subset(splits.classes_through(b))
            ev = _score_stage(prototype_classify_batch(seen.features, proto),
                              seen.labels, splits.stages)
            stages.append({"index": b, "A_b": ev.accuracy,
                           "selection_accuracy": ev.selection_accuracy})
            params.append(d * len(classes))
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
    """Per session, mean ||L(z) - z|| / ||z|| over the given rows."""
    Z = _checked_rows(features, bank.feature_dim)
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


def _entry_bytes(entry: BankEntry) -> bytes:
    m = entry.module
    head = entry.head
    parts = [struct.pack("<II", entry.session_index, head.num_classes)]
    parts.append(struct.pack(f"<{head.num_classes}I", *head.class_ids))
    for mat in (m.w_down, m.w_up, m.v_down, m.v_up, head.w):
        parts.append(np.ascontiguousarray(mat, dtype="<f4").tobytes())
    return b"".join(parts)


def entry_checksum(entry: BankEntry) -> int:
    """FNV-1a over the entry's serialized bytes; pins a trained session."""
    return fnv1a(_entry_bytes(entry))


def save_bank(bank: ModuleBank, path) -> None:
    with open(path, "wb") as fh:
        fh.write(BANK_MAGIC)
        fh.write(struct.pack("<IIII", BANK_VERSION, bank.feature_dim,
                             bank.rank, len(bank)))
        for entry in bank.entries:
            blob = _entry_bytes(entry)
            fh.write(blob)
            fh.write(struct.pack("<Q", fnv1a(blob)))


def load_bank(path, config: LucaConfig | None = None) -> ModuleBank:
    """Rebuild a bank; the container stores no activation choices, so pass
    the ``LucaConfig`` the modules were trained with (defaults otherwise).

    Every matrix and head is a read-only float64 array holding the file's
    float32 values, decoded once here so that serving does not upcast.
    """
    config = config or LucaConfig()
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(BANK_MAGIC) or blob[:len(BANK_MAGIC)] != BANK_MAGIC:
        raise ValueError("not a bank file")
    off = len(BANK_MAGIC)
    head_struct = struct.Struct("<IIII")
    if len(blob) < off + head_struct.size:
        raise ValueError("unexpected end of file")
    version, d, r, count = head_struct.unpack_from(blob, off)
    off += head_struct.size
    if version != BANK_VERSION:
        raise ValueError("unsupported version")
    if d < 1:
        raise ValueError("not a bank file")
    if r < 1 and count > 0:
        raise ValueError("rank r=0 in a bank with entries")
    smallest = 8 + 4 + 4 * (4 * d * r + d) + 8  # an entry with K = 1
    if count * smallest > len(blob) - off:
        raise ValueError(f"entry count {count} does not fit in the "
                         f"{len(blob) - off} bytes after the header")
    bank = ModuleBank(d)
    for _ in range(count):
        start = off
        if len(blob) < off + 8:
            raise ValueError("unexpected end of file")
        session_index, k = struct.unpack_from("<II", blob, off)
        off += 8
        if k < 1:
            raise ValueError("not a bank file")
        if len(blob) < off + 4 * k:
            raise ValueError("unexpected end of file")
        class_ids = struct.unpack_from(f"<{k}I", blob, off)
        off += 4 * k
        shapes = [(d, r), (r, d), (d, r), (r, d), (d, k)]
        mats = []
        for shape in shapes:
            nbytes = 4 * shape[0] * shape[1]
            if len(blob) < off + nbytes:
                raise ValueError("unexpected end of file")
            arr = np.frombuffer(blob, dtype="<f4", count=shape[0] * shape[1],
                                offset=off).reshape(shape).astype(np.float64)
            arr.flags.writeable = False  # a loaded bank is frozen
            mats.append(arr)
            off += nbytes
        if len(blob) < off + 8:
            raise ValueError("unexpected end of file")
        (stored,) = struct.unpack_from("<Q", blob, off)
        if fnv1a(memoryview(blob)[start:off]) != stored:
            raise ValueError("checksum mismatch")
        off += 8
        module = LucaModule(d=d, r=r, w_down=mats[0], w_up=mats[1],
                            v_down=mats[2], v_up=mats[3], config=config)
        head = SessionHead(class_ids=class_ids, w=mats[4])
        bank.append(BankEntry(session_index=session_index, module=module,
                              head=head))
    if off != len(blob):
        raise ValueError(f"trailing bytes after the last entry: {len(blob) - off}")
    return bank
