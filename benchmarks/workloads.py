"""The three benchmark workloads: set-up, timed iterations and output checks.

Every workload is one client in a closed loop that walks the life of a
module bank: train it (``tosca run`` for the ``tosca`` method, then the three
baselines), write it with ``save_bank``, read it back with ``load_bank`` and
serve held-out rows with single-row ``predict`` and micro-batched
``predict_batch``.  The workloads differ in scale and in where the work sits:

* ``incremental-d32`` is the paper's headline protocol (acceptance criterion
  4): 2,200 optimizer steps on 48 x 32 batches per method, so per-call
  overhead in optim, numerics and luca dominates.  Its bank is small, so the
  container and routing costs are minor.
* ``bank-d768`` trains a ViT-sized bank of 8 sessions for a few epochs.
  Matmuls of d*r = 36,864 entries, init_luca's normal draws and the
  byte-at-a-time bank checksum dominate.
* ``route-d768`` serves a 10-session d=768 bank.  The bank is trained and
  written during set-up, so the timed loop runs no optimizer: it reads the
  container cold and routes rows, and its cost grows with the session count.

The program only ever sees generated inputs: the workload seed drives the
synthetic features, the split plan and the scenario seed.
"""

from __future__ import annotations

import contextlib
import io
import re
import resource
import statistics
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import tosca.cli
import tosca.data
import tosca.engine
from tracer import Tracer

BASELINES = ("finetune", "joint", "simplecil")
SET_UP_REPEATS = 3
TAIL_SAMPLES = 10  # samples a tail percentile must have beyond it

# Acceptance criterion 4, exactly as tests/test_acceptance.py states it: the
# synthetic headline at data seed 3, split and scenario seed 1993.
ACCEPTANCE_DATA_SEED = 3
ACCEPTANCE_RUN_SEED = 1993


@dataclass(frozen=True)
class Scale:
    d: int
    classes: int
    n_train: int  # rows per class
    n_test: int  # held-out rows per class, also the served queries
    separation: float
    sigma: float
    inc: int  # classes per session
    epochs: int
    r: int
    predicts: int  # single-row predict calls per iteration
    micro_batch: int  # predict_batch rows per call
    repeats: int  # save_bank, load_bank, predict_batch passes per iteration
    min_iterations: int
    train_in_setup: bool  # route-d768: the timed loop only serves
    acceptance: bool  # check the criterion-4 gates after the loop

    @property
    def tail_pct(self) -> int:
        """Highest of a few fixed percentiles with TAIL_SAMPLES beyond it at
        the guaranteed sample count, so runs of different length agree."""
        n = self.predicts * self.min_iterations
        for pct in (99, 95, 90, 80, 75, 50):
            if n * (100 - pct) / 100 >= TAIL_SAMPLES:
                return pct
        return 50


WORKLOADS = {
    "incremental-d32": Scale(
        d=32, classes=50, n_train=100, n_test=50, separation=138.0,
        sigma=23.0, inc=5, epochs=20, r=48, predicts=40, micro_batch=32,
        repeats=3, min_iterations=3, train_in_setup=False,
        acceptance=True),
    "bank-d768": Scale(
        d=768, classes=40, n_train=50, n_test=25, separation=138.0,
        sigma=17.0, inc=5, epochs=3, r=48, predicts=15, micro_batch=32,
        repeats=1, min_iterations=3, train_in_setup=False,
        acceptance=False),
    "route-d768": Scale(
        d=768, classes=50, n_train=16, n_test=10, separation=138.0,
        sigma=12.0, inc=5, epochs=2, r=48, predicts=25, micro_batch=32,
        repeats=2, min_iterations=3, train_in_setup=True,
        acceptance=False),
}

# Seconds-scale versions of the same workloads for the benchmark self-test.
TINY = {
    name: Scale(d=16, classes=15 if full.train_in_setup else 10, n_train=8,
                n_test=4, separation=40.0, sigma=4.0, inc=5, epochs=1, r=4,
                predicts=4, micro_batch=8, repeats=2, min_iterations=1,
                train_in_setup=full.train_in_setup, acceptance=False)
    for name, full in WORKLOADS.items()
}

_WALL_TIME = re.compile(rb'"wall_time_s": [^,\n]*')

# Timings are scaled to a reference machine speed.  On a shared host the
# speed of the same code drifts by up to 1.8x for tens of seconds at a time,
# far more than the bounds, and interpreter and BLAS work slow down alike.  So
# every timed block runs between two fixed speed probes, and each sample is
# reported as raw * PROBE_REF_S / (mean of its two probe times), or divided
# by that factor for a rate.  The raw samples stay in the detail record.
PROBE_REF_S = 0.006  # probe seconds on an idle 2.0 GHz Xeon vCPU
_PROBE_M = np.linspace(-1.0, 1.0, 96 * 96).reshape(96, 96) / 96


def speed_probe() -> float:
    """Seconds taken by a fixed mix of interpreter and small-matmul work."""
    t0 = perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i
    m = _PROBE_M
    for _ in range(40):
        m = np.tanh(m @ _PROBE_M + 0.5)
    return perf_counter() - t0


class Workload:
    """One closed-loop client.  ``samples`` maps a metric to its timed
    samples, each a (raw value, probe seconds around it) pair."""

    def __init__(self, scale: Scale, seed: int, workdir: Path):
        self.scale = scale
        self.seed = seed
        self.dir = workdir
        self.samples: dict[str, list[tuple[float, float]]] = {}
        self._last_probe = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.quality: dict[str, float] = {}
        self.observed: dict = {}
        self._reports: dict[str, bytes] = {}
        self._resaved = False
        self.iterations = 0
        self.overhead = None  # (untraced, traced) scenario_s medians
        # context for untimed checks; the traced run pauses its tracer here
        self.untraced = contextlib.nullcontext

    # -- bookkeeping -------------------------------------------------------

    @contextlib.contextmanager
    def _timed(self, metric: str, per_s: int | None = None,
               unit: float = 1.0, chain: bool = False):
        """Time the block as one sample of ``metric``: seconds * ``unit``,
        or ``per_s`` items per second when given.  ``chain`` reuses the
        previous block's closing probe, for back-to-back samples."""
        before = self._last_probe if chain else speed_probe()
        t0 = perf_counter()
        yield
        dt = perf_counter() - t0
        self._last_probe = speed_probe()
        raw = per_s / dt if per_s is not None else dt * unit
        self.samples.setdefault(metric, []).append(
            (raw, (before + self._last_probe) / 2))

    def _check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def _path(self, name: str) -> str:
        return str(self.dir / name)

    # -- phases ------------------------------------------------------------

    def setup(self) -> None:
        """Generate the inputs; route-d768 also trains and writes its bank."""
        s = self.scale
        with self._timed("setup_s"):
            train, test = tosca.data.synth_gaussian(
                s.d, s.classes, s.n_train, s.n_test, s.separation, s.sigma,
                self.seed)
            tosca.data.save_features(train, self._path("train.ftr"))
            tosca.data.save_features(test, self._path("test.ftr"))
            self.test = test
            picks = np.random.default_rng(self.seed % 2**64).choice(
                test.n, size=min(s.predicts, test.n), replace=False)
            self.predict_rows = sorted(int(i) for i in picks)
            if s.train_in_setup:
                self.bank = self._train()
                self.bank_file = self._save(self.bank)
                self.reference = self._route_reference(self.bank)

    def iterate(self) -> None:
        """One timed pass of the closed loop."""
        if self.scale.train_in_setup:
            bank = self.bank
            bank_file = self.bank_file
            reference = self.reference
        else:
            bank = self._train()
            for k in range(self.scale.repeats):
                bank_file = self._save(bank, chain=k > 0)
            reference = self._route_reference(bank)
        for k in range(self.scale.repeats):
            loaded = self._load(bank_file, chain=k > 0)
        self._serve(loaded, reference)
        self.iterations += 1

    # -- steps -------------------------------------------------------------

    def _cli_run(self, method: str):
        """``tosca run`` in-process; returns the report it produced."""
        s = self.scale
        argv = ["run", "--data", self._path("train.ftr"),
                "--test", self._path("test.ftr"), "--inc", str(s.inc),
                "--seed", str(self.seed), "--epochs", str(s.epochs),
                "--r", str(s.r), "--method", method,
                "--out", self._path(f"{method}.json")]
        if method == "tosca":
            argv += ["--plot", self._path("tosca.svg")]
        captured = {}
        inner = tosca.cli.run_scenario

        def capture(*args, **kwargs):
            captured["report"] = inner(*args, **kwargs)
            return captured["report"]

        tosca.cli.run_scenario = capture
        sink = io.StringIO()
        try:
            with (contextlib.redirect_stdout(sink),
                  contextlib.redirect_stderr(sink)):
                rc = tosca.cli.main(argv)
        finally:
            tosca.cli.run_scenario = inner
        if not self._check(f"tosca run --method {method} exits 0", rc == 0):
            raise RuntimeError(f"tosca run --method {method}: "
                               f"{sink.getvalue()}")
        return captured["report"]

    def _check_report(self, method: str) -> None:
        with open(self._path(f"{method}.json"), "rb") as fh:
            blob = _WALL_TIME.sub(b'"wall_time_s": 0', fh.read())
        first = self._reports.setdefault(method, blob)
        self._check(f"{method} report byte-identical across repeats",
                    blob == first)

    def _train(self):
        with self._timed("scenario_s"):
            report = self._cli_run("tosca")
        reports = {}
        with self._timed("baselines_s"):
            for method in BASELINES:
                reports[method] = self._cli_run(method)
        for method in ("tosca",) + BASELINES:
            self._check_report(method)
        self.quality["A_bar"] = report.A_bar
        self.quality["selection_acc"] = report.stages[-1]["selection_accuracy"]
        reports["tosca"] = report
        self.observed["final_A_b"] = {m: rep.stages[-1]["A_b"]
                                      for m, rep in reports.items()}
        return report.artifacts["bank"]

    def _save(self, bank, chain: bool = False) -> str:
        path = self._path("bank.lbk")
        with self._timed("bank_save_s", chain=chain):
            tosca.engine.save_bank(bank, path)
        self._check("save_bank", True)
        return path

    def _load(self, path: str, chain: bool = False):
        with self._timed("bank_load_s", chain=chain):
            bank = tosca.engine.load_bank(path)
        self._check("load_bank", True)
        if not self._resaved:
            again = self._path("resaved.lbk")
            with self.untraced():
                tosca.engine.save_bank(bank, again)
            self._check("re-saving a loaded bank is byte-identical",
                        Path(again).read_bytes() == Path(path).read_bytes())
            self._resaved = True
        return bank

    def _route_reference(self, bank):
        """Untimed predict_batch over the queries with the in-memory bank."""
        with self.untraced():
            return tosca.engine.predict_batch(self.test.features, bank)

    def _serve(self, bank, reference) -> None:
        Q = self.test.features
        for k, i in enumerate(self.predict_rows):
            with self._timed("predict_ms", unit=1e3, chain=k > 0):
                p = tosca.engine.predict(Q[i], bank)
            self._check("predict matches the predict_batch row",
                        p.class_id == int(reference[0][i])
                        and p.session_index == int(reference[1][i]))
        mb = self.scale.micro_batch
        for k in range(self.scale.repeats):
            classes, sessions = [], []
            with self._timed("route_rows_per_s", per_s=Q.shape[0],
                             chain=k > 0):
                for start in range(0, Q.shape[0], mb):
                    c, s = tosca.engine.predict_batch(Q[start:start + mb],
                                                      bank)
                    classes.append(c)
                    sessions.append(s)
            classes = np.concatenate(classes)
            sessions = np.concatenate(sessions)
            self._check("loaded and in-memory banks route identically",
                        np.array_equal(classes, reference[0])
                        and np.array_equal(sessions, reference[1]))
        if self.scale.train_in_setup:
            true_session = np.array([bank.session_of_class(int(c))
                                     for c in self.test.labels])
            self.quality["selection_acc"] = 100.0 * float(
                np.mean(sessions == true_session))

    # -- acceptance criterion 4 --------------------------------------------

    def acceptance_gates(self) -> None:
        """Criterion 4's gates on its own inputs, plus the same quantities
        observed on this run's inputs (reported, not gated)."""
        train, test = tosca.data.synth_gaussian(
            32, 50, 100, 50, 138.0, 23.0, ACCEPTANCE_DATA_SEED)
        splits = tosca.data.make_splits(train.class_ids, 0, 5,
                                        ACCEPTANCE_RUN_SEED)
        final = {}
        sel = None
        for method in ("joint", "tosca", "finetune"):
            rep = tosca.engine.run_scenario(train, test, splits, method,
                                            tosca.engine.ScenarioConfig(),
                                            ACCEPTANCE_RUN_SEED)
            final[method] = rep.stages[-1]["A_b"]
            if method == "tosca":
                sel = rep.stages[-1]["selection_accuracy"]
        gates = _gates(final["joint"], final["tosca"], final["finetune"], sel)
        for what, ok in gates.items():
            self._check(f"criterion 4 gate {what}", ok)
        self.observed["criterion_4"] = {"final_A_b": final,
                                        "selection": sel, "gates": gates}
        mine = self.observed.get("final_A_b")
        if mine:
            self.observed["criterion_4_on_run_inputs"] = _gates(
                mine["joint"], mine["tosca"], mine["finetune"],
                self.quality["selection_acc"])


def _gates(joint, tosca_acc, finetune, selection) -> dict:
    return {
        "joint >= 95": joint >= 95.0,
        "tosca within 5 of joint": joint - tosca_acc <= 5.0,
        "finetune >= 30 behind": tosca_acc - finetune >= 30.0,
        "selection >= 90": selection >= 90.0,
    }


# ---------------------------------------------------------------------------
# Driving a run.

def timing_summary(values: list[float], tail_pct: int) -> dict:
    return {"median": statistics.median(values),
            "tail": float(np.percentile(values, tail_pct)),
            "tail_pct": tail_pct, "n": len(values)}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 workdir: Path, tiny: bool = False) -> dict:
    """Run one workload; returns the result and the detail behind it."""
    scale = (TINY if tiny else WORKLOADS)[name]
    wl = Workload(scale, seed, workdir)
    tracer = Tracer() if traced else None
    try:
        if traced:
            _traced_loop(wl, tracer, seconds)
        else:
            for _ in range(SET_UP_REPEATS):
                wl.setup()
            deadline = perf_counter() + seconds
            while (wl.iterations < scale.min_iterations
                   or perf_counter() < deadline):
                wl.iterate()
        if scale.acceptance:
            wl.acceptance_gates()
    except Exception:  # a failed operation ends the run; it is reported
        traceback.print_exc()
        wl._check("operation raised", False)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"workload": wl, "tracer": tracer, "peak_rss_mb": peak_mb}


def _traced_loop(wl: Workload, tracer: Tracer, seconds: float) -> None:
    """Warm up with an untraced set-up, then set up once traced and once
    untraced, then run pairs of iterations, one traced and one not, in
    alternating order.  Comparing the scenario_s samples of the two kinds
    gives the tracing overhead."""
    wl.untraced = tracer.paused
    untraced, traced = [], []

    def phase(step, kind):
        before = len(wl.samples.get("scenario_s", []))
        if kind is None:
            step()
        else:
            tracer.begin(kind)
            tracer.install()
            try:
                step()
            finally:
                tracer.uninstall()
        (traced if kind else untraced).extend(
            raw * PROBE_REF_S / probe
            for raw, probe in wl.samples.get("scenario_s", [])[before:])

    wl.setup()
    phase(wl.setup, "setup")
    phase(wl.setup, None)
    deadline = perf_counter() + seconds
    pairs = 0
    while pairs < 2 or perf_counter() < deadline:
        order = (None, "iteration") if pairs % 2 else ("iteration", None)
        for kind in order:
            phase(wl.iterate, kind)
        pairs += 1
    wl.overhead = (statistics.median(untraced), statistics.median(traced))


def end_to_end_metrics(result: dict) -> tuple[dict, dict]:
    """(metric values, detail) for the untraced run.

    Timings are medians of the speed-scaled samples, and predict_ms also
    their tail percentile; the detail gives both scaled and raw summaries."""
    wl = result["workload"]
    pct = wl.scale.tail_pct
    values, detail = {}, {}
    for metric, pairs in wl.samples.items():
        raw = [value for value, _ in pairs]
        if metric.endswith("_per_s"):
            scaled = [v * p / PROBE_REF_S for v, p in pairs]
        else:
            scaled = [v * PROBE_REF_S / p for v, p in pairs]
        summary = timing_summary(scaled, pct)
        detail[metric] = dict(summary, raw=timing_summary(raw, pct),
                              samples=raw, probes=[p for _, p in pairs])
        if metric == "predict_ms":
            values["predict_ms.p50"] = summary["median"]
            values["predict_ms.tail"] = summary["tail"]
        else:
            values[metric] = summary["median"]
    values.update(wl.quality)
    values["peak_rss_mb"] = result["peak_rss_mb"]
    return values, detail


def per_layer_metrics(result: dict) -> tuple[dict, dict]:
    """(metric values, detail) for the traced run."""
    wl = result["workload"]
    tracer = result["tracer"]
    values = tracer.layer_metrics()
    detail = {"absent_seams": tracer.absent}
    if wl.overhead is not None:
        untraced, traced = wl.overhead
        values["trace.scenario_s.untraced"] = untraced
        values["trace.scenario_s.traced"] = traced
        values["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return values, detail

