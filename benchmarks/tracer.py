"""Span tracer for the benchmark's traced run.

The tracer replaces public functions of the ``tosca`` modules with timing
wrappers, on the module (or class) attributes that callers look up at call
time, and removes them again afterwards.  Nothing in ``src/`` is changed.

Each wrapped call records one span: seam name, start, end and the span that
was open when it started (its parent).  Spans stay in memory until the run
ends.  A seam's self time is its span duration minus the time covered by its
child spans.  Counters (rows, flops, bytes, draws, optimizer steps) are
recorded at the same boundaries, from the call's arguments and result.

A seam whose attribute no longer exists is skipped and listed in
``Tracer.absent``; its metrics are then missing from the output, not zero.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import statistics
from array import array
from collections import defaultdict
from functools import wraps
from time import perf_counter

# ---------------------------------------------------------------------------
# Counters.  Each takes (args, kwargs, result, parent seam name) and returns
# (counter, increment) pairs.  "computed" counters derive work from array
# shapes; "counted" ones tally what the call actually handled.


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _normal_draws(args, kwargs, result, parent):
    # counted: normals requested, Xoshiro256StarStar.normals(self, count, ...)
    return (("rng.normals.draws", int(_arg(args, kwargs, 1, "count"))),)


def _feature_file_bytes(args, kwargs, result, parent):
    # counted: size of the feature file read
    return (("data.load_features.bytes",
             os.path.getsize(_arg(args, kwargs, 0, "path"))),)


def _forward_work(args, kwargs, result, parent):
    # computed: the four (B x d)(d x r) / (B x r)(r x d) matmuls; bytes are
    # their float64 operands and results, ignoring caches and dtype copies
    rows = int(_arg(args, kwargs, 0, "Z").shape[0])
    m = _arg(args, kwargs, 1, "m")
    d, r = m.d, m.r
    out = [("luca.luca_forward_batch.flops", 8 * rows * d * r),
           ("luca.luca_forward_batch.bytes", 32 * (rows * d + d * r + rows * r))]
    if parent == "engine.predict_batch":
        # counted: session forwards spent on routed rows
        out.append(("engine.route.forwards", rows))
    return out


def _backward_work(args, kwargs, result, parent):
    # computed: eight matmuls of 2*B*d*r flops each
    m = _arg(args, kwargs, 0, "m")
    rows = int(_arg(args, kwargs, 2, "U").shape[0])
    return (("luca.luca_backward_batch.flops", 16 * rows * m.d * m.r),)


def _optimizer_steps(args, kwargs, result, parent):
    # computed: epochs * ceil(n / batch), the step count train_epochs runs
    data = _arg(args, kwargs, 2, "data")
    cfg = _arg(args, kwargs, 3, "cfg")
    batches = -(-data.n // cfg.batch_size)
    return (("optim.steps", cfg.epochs * batches),)


def _evaluated_rows(args, kwargs, result, parent):
    # counted: test rows scored
    return (("engine.evaluate_stage.rows", int(_arg(args, kwargs, 1, "test").n)),)


def _routed_rows(args, kwargs, result, parent):
    # counted: rows answered by predict_batch
    return (("engine.predict_batch.rows", len(result[0])),)


def _saved_bank_bytes(args, kwargs, result, parent):
    return (("engine.save_bank.bytes",
             os.path.getsize(_arg(args, kwargs, 1, "path"))),)


def _loaded_bank_bytes(args, kwargs, result, parent):
    return (("engine.load_bank.bytes",
             os.path.getsize(_arg(args, kwargs, 0, "path"))),)


def _hashed_bytes(args, kwargs, result, parent):
    # counted: bytes fed through the checksum
    return (("engine.fnv1a.bytes", len(_arg(args, kwargs, 0, "data"))),)


# Seam name, the attributes its callers look up ("module", "attr" or
# "Class.method"), and its counter.
SEAMS = (
    ("rng.permutation", (("tosca.rng", "Xoshiro256StarStar.permutation"),), None),
    ("rng.normals", (("tosca.rng", "Xoshiro256StarStar.normals"),), _normal_draws),
    ("data.synth_gaussian", (("tosca.data", "synth_gaussian"),), None),
    ("data.subset", (("tosca.data", "FeatureDataset.subset"),), None),
    ("data.load_features", (("tosca.cli", "load_features"),), _feature_file_bytes),
    ("data.save_features", (("tosca.data", "save_features"),), None),
    ("luca.init_luca", (("tosca.engine", "init_luca"),), None),
    ("luca.luca_forward_batch", (("tosca.optim", "luca_forward_batch"),
                                 ("tosca.engine", "luca_forward_batch")),
     _forward_work),
    ("luca.luca_backward_batch", (("tosca.optim", "luca_backward_batch"),),
     _backward_work),
    ("luca.luca_forward", (("tosca.engine", "luca_forward"),), None),
    ("numerics.activation", (("tosca.luca", "activation"),), None),
    ("numerics.activation_grad", (("tosca.luca", "activation_grad"),), None),
    ("numerics.vecmat", (("tosca.luca", "vecmat"), ("tosca.heads", "vecmat")),
     None),
    ("optim.train_epochs", (("tosca.engine", "train_epochs"),), _optimizer_steps),
    ("optim.sgd_l1_step", (("tosca.optim", "sgd_l1_step"),), None),
    ("heads.head_forward_batch", (("tosca.engine", "head_forward_batch"),), None),
    ("heads.build_prototypes", (("tosca.engine", "build_prototypes"),), None),
    ("heads.prototype_classify_batch",
     (("tosca.engine", "prototype_classify_batch"),), None),
    ("heads.head_forward", (("tosca.engine", "head_forward"),), None),
    ("engine.run_scenario", (("tosca.cli", "run_scenario"),), None),
    ("engine.train_session", (("tosca.engine", "train_session"),), None),
    ("engine.evaluate_stage", (("tosca.engine", "evaluate_stage"),),
     _evaluated_rows),
    ("engine.predict_batch", (("tosca.engine", "predict_batch"),), _routed_rows),
    ("engine.predict", (("tosca.engine", "predict"),), None),
    ("engine.save_bank", (("tosca.engine", "save_bank"),), _saved_bank_bytes),
    ("engine.load_bank", (("tosca.engine", "load_bank"),), _loaded_bank_bytes),
    ("engine.fnv1a", (("tosca.engine", "fnv1a"),), _hashed_bytes),
    ("report.emit_report", (("tosca.cli", "emit_report"),), None),
    ("report.emit_plot", (("tosca.cli", "emit_plot"),), None),
    ("cli.main", (("tosca.cli", "main"),), None),
)


def _resolve(module_name, path):
    """(owner, attribute) for "attr" or "Class.attr", or None if missing."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Records spans for every seam in ``SEAMS`` while installed."""

    def __init__(self):
        self.names = [name for name, _, _ in SEAMS]
        self.seam = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.phases = []  # (kind, first span, counters)
        self.absent = []
        self._stack = []
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self):
        self.absent = []
        for sid, (name, targets, counter) in enumerate(SEAMS):
            found = False
            for module_name, path in targets:
                hit = _resolve(module_name, path)
                if hit is None:
                    continue
                owner, attr = hit
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(sid, original, counter))
                self._patches.append((owner, attr, original))
                found = True
            if not found:
                self.absent.append(name)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run the body without spans, e.g. an untimed output check."""
        installed = bool(self._patches)
        self.uninstall()
        try:
            yield
        finally:
            if installed:
                self.install()

    def _wrap(self, sid, fn, counter):
        @wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else -1
            index = len(self.start)
            self.seam.append(sid)
            self.parent.append(parent)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(index)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[index] = t0
                self.end[index] = t1
            if counter is not None:
                counters = self.phases[-1][2]
                parent_name = self.names[self.seam[parent]] if parent >= 0 else None
                for key, value in counter(args, kwargs, result, parent_name):
                    counters[key] += value
            return result
        return traced

    # -- phases ------------------------------------------------------------

    def begin(self, kind):
        """Start a phase ("setup" or "iteration"); spans after it belong to it."""
        self.phases.append((kind, len(self.start), defaultdict(int)))

    def phase_totals(self):
        """Per phase: (kind, {metric: value}) with calls, s and self_s per seam."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = []
        bounds = [first for _, first, _ in self.phases] + [n]
        for k, (kind, first, counters) in enumerate(self.phases):
            totals = defaultdict(float)
            for i in range(first, bounds[k + 1]):
                name = self.names[self.seam[i]]
                dur = self.end[i] - self.start[i]
                totals[name + ".calls"] += 1
                totals[name + ".s"] += dur
                totals[name + ".self_s"] += dur - child[i]
            totals.update(counters)
            out.append((kind, totals))
        return out

    def layer_metrics(self):
        """One workload cycle: the traced set-up plus the median iteration.

        Seams that are installed but were not crossed report zero calls;
        seams that are absent report nothing.
        """
        setup = defaultdict(float)
        iters = []
        for kind, totals in self.phase_totals():
            if kind == "setup":
                for key, value in totals.items():
                    setup[key] += value
            else:
                iters.append(totals)
        present = [name for name in self.names if name not in self.absent]
        keys = {f"{name}.{part}" for name in present
                for part in ("calls", "s", "self_s")}
        for totals in [setup] + iters:
            keys.update(totals)
        cycle = {}
        for key in keys:
            per_iter = [t.get(key, 0.0) for t in iters] or [0.0]
            cycle[key] = setup.get(key, 0.0) + statistics.median(per_iter)
        steps = cycle.get("optim.steps", 0)
        if steps and "optim.train_epochs.s" in cycle:
            cycle["optim.step_us"] = 1e6 * cycle["optim.train_epochs.s"] / steps
        answered = cycle.get("engine.predict_batch.rows", 0)
        forwards = cycle.get("engine.route.forwards", 0)
        if answered and forwards:
            cycle["engine.route.useful_ratio"] = answered / forwards
            cycle["engine.route.forwards_per_row"] = forwards / answered
        return cycle
