"""Training a scenario's sessions in forked worker processes.

``run_scenario`` trains the sessions of ``tosca`` and ``tosca_r`` in up to
one process per CPU.  The CPU count is read from ``os.sched_getaffinity``,
which these tests replace to choose the worker count.  With one worker no
process starts; with several, reports and banks must not change by a bit,
failures must read as they do with one, and no child, file or pipe may be
left open.
"""

import fcntl
import multiprocessing
import os
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

import tosca.engine as engine
from tosca.data import SplitPlan, make_splits, synth_gaussian
from tosca.engine import ModuleBank, ScenarioConfig, run_scenario, save_bank
from tosca.optim import OptimConfig

_FAST = ScenarioConfig(r=8, optim=OptimConfig(epochs=8))


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.fixture(autouse=True)
def no_child_left():
    """Every case ends with no worker running and no descriptor left open
    (where /proc shows them), and none hangs."""
    def stuck(signum, frame):
        raise TimeoutError("a scenario waited on its workers for 60 s")

    fds = _open_fds() if os.path.isdir("/proc/self/fd") else None
    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []
    assert fds is None or _open_fds() == fds


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes this process look as if it may run on n CPUs."""
    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)))
    return use


@pytest.fixture
def started(monkeypatch):
    """The processes started, in order."""
    procs = []
    start = multiprocessing.process.BaseProcess.start

    def spy(self):
        procs.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", spy)
    return procs


def _inputs(num_classes, base):
    train, test = synth_gaussian(d=16, num_classes=num_classes, n_train=40,
                                 n_test=20, separation=138.0, sigma=23.0,
                                 seed=3)
    return train, test, make_splits(range(num_classes), base, 2, seed=1993)


def _outputs(rep, path):
    report = rep.to_dict()
    report.pop("wall_time_s")
    save_bank(rep.artifacts["bank"], path)
    return report, path.read_bytes()


@pytest.mark.parametrize("num_classes,base,workers,normalize", [
    (2, 0, 2, True),  # B = 1: one stage takes one worker, whatever the CPUs
    (6, 0, 2, True),  # B = 3 with W = 2
    (9, 3, 3, True),  # K = 3, 2, 2, 2: normalised entropies, W = 3
    (9, 3, 2, False),  # raw entropies with unequal class counts
])
@pytest.mark.parametrize("method", ["tosca", "tosca_r"])
def test_workers_give_the_serial_reports_and_banks(
        num_classes, base, workers, normalize, method, cpus, started,
        tmp_path):
    train, test, splits = _inputs(num_classes, base)
    cfg = replace(_FAST, normalize_entropy=normalize)

    cpus(1)
    serial = _outputs(run_scenario(train, test, splits, method, cfg, 11),
                      tmp_path / "serial.lbk")
    assert started == []

    cpus(workers)
    forked = _outputs(run_scenario(train, test, splits, method, cfg, 11),
                      tmp_path / "forked.lbk")
    assert len(started) == min(workers, splits.num_stages) - 1
    assert forked[0] == serial[0]
    assert forked[1] == serial[1]


@pytest.mark.parametrize("stages,lr,message", [
    # every stage diverges; stage 1 is the parent's at any worker count
    (((3, 5), (1, 0), (4, 2)), 1e3,
     "tosca stage 1: training diverged in epoch 2"),
    # stage 2 alone: a child trains it with two or three workers
    (((4, 5), (0, 1), (2, 3)), 0.2,
     "tosca stage 2: training diverged in epoch 4"),
    # stage 3 alone: the parent's with two workers, a child's with three
    (((4, 5), (2, 3), (0, 1)), 0.2,
     "tosca stage 3: training diverged in epoch 4"),
])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_divergence_reads_the_same_in_any_process(stages, lr, message,
                                                  workers, cpus):
    train, test, _ = _inputs(6, 0)
    cfg = replace(_FAST, optim=replace(_FAST.optim, lr_max=lr))
    cpus(workers)
    with pytest.raises(FloatingPointError, match=f"^{message}$"):
        with np.errstate(all="ignore"):
            run_scenario(train, test, SplitPlan(stages=stages, seed=0),
                         "tosca", cfg, 11)


def _dying_fit(monkeypatch, die):
    """Make every fit in a child process call ``die()`` instead."""
    parent = os.getpid()
    fit = engine._fit_session

    def fit_or_die(*args, **kwargs):
        if os.getpid() != parent:
            die()
        return fit(*args, **kwargs)

    monkeypatch.setattr(engine, "_fit_session", fit_or_die)


@pytest.mark.parametrize("die,code", [
    (lambda: os._exit(3), 3),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
])
def test_a_worker_that_dies_names_the_stage(die, code, cpus, monkeypatch):
    train, test, splits = _inputs(6, 0)
    _dying_fit(monkeypatch, die)
    cpus(2)
    with pytest.raises(RuntimeError,
                       match=f"^tosca stage 2: training worker exited with "
                             f"code {code}$"):
        run_scenario(train, test, splits, "tosca", _FAST, 11)


def test_an_error_stops_busy_workers(cpus, monkeypatch):
    # stage 1 fails in the parent while its worker is still training
    train, test, splits = _inputs(6, 0)
    parent = os.getpid()

    def fit(*args, **kwargs):
        if os.getpid() == parent:
            raise FloatingPointError("training diverged in epoch 1")
        time.sleep(120)

    monkeypatch.setattr(engine, "_fit_session", fit)
    cpus(2)
    t0 = time.perf_counter()
    with pytest.raises(FloatingPointError,
                       match="^tosca stage 1: training diverged in epoch 1$"):
        run_scenario(train, test, splits, "tosca", _FAST, 11)
    assert time.perf_counter() - t0 < 30


def test_a_worker_error_is_raised_in_the_parent(cpus, monkeypatch):
    train, test, splits = _inputs(6, 0)

    def fail():
        raise MemoryError("no room")

    _dying_fit(monkeypatch, fail)
    cpus(3)
    with pytest.raises(MemoryError, match="^no room$"):
        run_scenario(train, test, splits, "tosca_r", _FAST, 11)


@pytest.mark.parametrize("stages,message", [
    (((0, 1), (2, 3), (4, 1)), "overlapping classes"),
    (((0, 1), (2, 3, 4, 5), ()), "empty session data"),
])
def test_every_stage_is_checked_before_a_worker_starts(stages, message, cpus,
                                                       started):
    train, test, _ = _inputs(6, 0)
    cpus(3)
    with pytest.raises(ValueError, match=message):
        run_scenario(train, test, SplitPlan(stages=stages, seed=0), "tosca",
                     _FAST, 11)
    assert started == []


@pytest.mark.parametrize("workers", [1, 3])
def test_a_one_class_session_is_refused_in_any_process(workers, cpus):
    # K = 1, 2, 2, 2: session 1 would take every row from stage 2 on
    train, test, splits = _inputs(7, 1)
    cpus(workers)
    with pytest.raises(ValueError, match="^session 1 has one class"):
        run_scenario(train, test, splits, "tosca", _FAST, 11)


def test_a_session_of_another_width_is_refused():
    train, _, _ = _inputs(6, 0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        engine.train_session(ModuleBank(8), train, (0, 1), _FAST, seed=5)


def test_worker_count(cpus, monkeypatch):
    cpus(4)
    assert engine._worker_count(10) == 4
    assert engine._worker_count(3) == 3
    assert engine._worker_count(1) == 1
    with monkeypatch.context() as m:
        m.delattr(os, "memfd_create")
        assert engine._worker_count(10) == 1
    monkeypatch.setattr(multiprocessing.current_process(), "daemon", True,
                        raising=False)
    assert engine._worker_count(10) == 1


def test_a_slow_worker_leaves_its_queue_share_to_the_parent(
        cpus, monkeypatch, tmp_path):
    # the worker's first session waits until this process has trained four,
    # so this process must take sessions 3 to 5 from the queue itself
    train, test, splits = _inputs(10, 0)
    cpus(1)
    serial = _outputs(run_scenario(train, test, splits, "tosca", _FAST, 11),
                      tmp_path / "serial.lbk")

    parent = os.getpid()
    fit = engine._fit_session
    four_done = multiprocessing.get_context("fork").Event()
    mine = []

    def fit_after_four(train, ids, *args, **kwargs):
        if os.getpid() == parent:
            mine.append(ids)
            if len(mine) == 4:
                four_done.set()
        elif not four_done.wait(30):
            raise TimeoutError("this process did not take the queue")
        return fit(train, ids, *args, **kwargs)

    monkeypatch.setattr(engine, "_fit_session", fit_after_four)
    cpus(2)
    forked = _outputs(run_scenario(train, test, splits, "tosca", _FAST, 11),
                      tmp_path / "forked.lbk")
    assert mine == [tuple(sorted(splits.stages[b])) for b in (0, 2, 3, 4)]
    assert forked == serial


def test_a_queue_longer_than_its_pipe_hands_out_every_session_once(
        monkeypatch, tmp_path):
    # more workers than CPUs, and more sessions than a default pipe holds
    # as 4-byte tokens: the counter has no such limit
    n = 20_000
    stages = [(b,) for b in range(1, n + 1)]
    seeds = list(range(n))
    log = tmp_path / "fits"

    def fit(train, ids, cfg, seed, init):
        with open(log, "a") as fh:  # appends of one short line are atomic
            fh.write(f"{ids[0]}\n")
        return ids, seed, os.getpid()

    monkeypatch.setattr(engine, "_fit_session", fit)
    with engine._session_workers(None, stages, seeds, None, None,
                                 4) as trained:
        got = [trained(b) for b in range(1, n + 1)]
    assert [g[:2] for g in got] == list(zip(stages, seeds))
    assert sorted(int(b) for b in log.read_text().split()) == list(
        range(1, n + 1))
    assert len({g[2] for g in got}) == 4


def test_a_process_killed_while_claiming_blocks_no_one():
    # a child takes the claim lock and dies holding it; the kernel drops a
    # POSIX record lock with its holder, so the next claim goes through
    counter = os.memfd_create("sessions")
    try:
        os.pwrite(counter, (5).to_bytes(8, "little"), 0)
        locked, child_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: lock, say so, wait to be killed
            fcntl.lockf(counter, fcntl.LOCK_EX)
            os.write(child_end, b"x")
            time.sleep(120)
            os._exit(1)
        os.close(child_end)
        assert os.read(locked, 1) == b"x"
        os.close(locked)
        with pytest.raises(OSError):  # the child holds the lock
            fcntl.lockf(counter, fcntl.LOCK_EX | fcntl.LOCK_NB)
        os.kill(pid, signal.SIGKILL)
        assert os.waitpid(pid, 0)[1] == signal.SIGKILL
        assert engine._claim(counter) == 5
        assert engine._claim(counter) == 6
    finally:
        os.close(counter)


def test_a_slow_parent_leaves_the_queue_to_its_worker(cpus, monkeypatch,
                                                      tmp_path):
    # session 1 waits until the worker has taken session 3 from the queue
    train, test, splits = _inputs(6, 0)
    cpus(1)
    serial = _outputs(run_scenario(train, test, splits, "tosca", _FAST, 11),
                      tmp_path / "serial.lbk")

    parent = os.getpid()
    fit = engine._fit_session
    third = tuple(sorted(splits.stages[2]))
    taken = multiprocessing.get_context("fork").Event()

    def fit_after_third(train, ids, *args, **kwargs):
        if os.getpid() != parent:
            if ids == third:
                taken.set()
        elif not taken.wait(30):
            raise TimeoutError("the worker did not take the queue")
        return fit(train, ids, *args, **kwargs)

    monkeypatch.setattr(engine, "_fit_session", fit_after_third)
    cpus(2)
    forked = _outputs(run_scenario(train, test, splits, "tosca", _FAST, 11),
                      tmp_path / "forked.lbk")
    assert forked == serial
