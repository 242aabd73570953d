"""A serial run on two usable CPUs steps every other run, or the second
half of a one-run plan, in a forked sibling process
(``ensemble._paired_results``): the same bits and the same errors as one
process, and every way a run ends leaves no process behind and nothing on
stderr."""

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest

import snbd.ensemble
import snbd.propagator as propagator
from snbd.cli import EXIT_WORKER_LOST, main
from snbd.ensemble import EnsembleParams, ObservableSpec, run_ensemble
from snbd.errors import (
    PositivityViolationError,
    TrajectoryBlowupError,
    WorkerLostError,
)
from snbd.propagator import TimeGrid

from conftest import SZ, interleaved_system, two_spin_system, usable_cpus
from test_config_cli import tiny_config
from test_propagator import spin1_pair_system

# the grid of test_blowup_message_says_what_the_check_found: trajectories
# of the two-spin system diverge from t = 0.8 on
BLOWUP_GRID = TimeGrid(2.0, 1e-2, 10)


@pytest.fixture
def siblings(monkeypatch):
    """(tasks, split) of every plan run_ensemble steps with a sibling, in
    the list returned."""
    made = []
    paired = snbd.ensemble._paired_results

    def recorded(tasks, split):
        made.append((len(tasks), split))
        yield from paired(tasks, split)

    monkeypatch.setattr(snbd.ensemble, "_paired_results", recorded)
    return made


def both_ways(monkeypatch, siblings, run):
    """run() on one usable CPU and on two; the second forks a sibling,
    which is gone afterwards."""
    out = []
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        out.append(run())
        assert len(siblings) == cpus - 1
        assert multiprocessing.active_children() == []
    return out


def assert_same_accumulators(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, tuple):    # the skip lists, names, references
            assert len(x) == len(y), f.name
            assert all(np.array_equal(u, v) for u, v in zip(x, y)), f.name
        else:
            assert np.array_equal(x, y), f.name


def test_two_spin_runs_with_blowups_mid_run(monkeypatch, siblings):
    # 4 runs of one block of 50 (LOCKSTEP_WIDTH 64), runs 1 and 3 in the
    # sibling, trajectories that diverge part-way through their runs
    # under skip, and a chunk budget that splits each run into chunks
    # with a partial last one
    monkeypatch.setattr(snbd.ensemble, "LOCKSTEP_WIDTH", 64)
    monkeypatch.setattr(propagator, "NOISE_CHUNK_BYTES", 40_000)
    params = EnsembleParams(m=200, master_seed=1, n_blocks=4,
                            full_density=True, blowup_policy="skip",
                            positivity_tol=np.inf)
    alone, paired = both_ways(monkeypatch, siblings, lambda: (
        run_ensemble(two_spin_system(), BLOWUP_GRID, params,
                     [ObservableSpec("sz0", (SZ, None))],
                     refs=(np.array([1, 0], complex),
                           np.array([0, 1], complex)))))
    assert siblings == [(4, False)]
    assert alone.blowups
    assert_same_accumulators(alone, paired)


def test_mixed_dimensions_with_positivity_skips(monkeypatch, siblings):
    # one run of 4 blocks, split into two halves of 2
    monkeypatch.setattr(propagator, "NOISE_CHUNK_BYTES", 100_000)
    params = EnsembleParams(m=64, master_seed=3, n_blocks=4,
                            full_density=True, blowup_policy="skip",
                            positivity_tol=0.03)
    spec = spin1_pair_system()
    alone, paired = both_ways(monkeypatch, siblings, lambda: (
        run_ensemble(spec, TimeGrid(0.25, 5e-4, 2), params,
                     [ObservableSpec("zz", (None, SZ, SZ))])))
    assert siblings == [(2, True)]
    assert alone.positivity_skips
    assert_same_accumulators(alone, paired)


def dying_sibling(monkeypatch):
    """propagate_block, as the sibling inherits it, ends the sibling's
    process at its first call; this process steps on."""
    caller = os.getpid()
    propagate = snbd.ensemble.propagate_block

    def die_in_sibling(*args, **options):
        if os.getpid() != caller:
            os._exit(9)
        return propagate(*args, **options)

    monkeypatch.setattr(snbd.ensemble, "propagate_block", die_in_sibling)


def test_sibling_death_is_a_lost_worker(monkeypatch, siblings, capfd):
    usable_cpus(monkeypatch, 2)
    dying_sibling(monkeypatch)
    with pytest.raises(WorkerLostError, match="sibling process"):
        run_ensemble(two_spin_system(), TimeGrid(0.2, 1e-3, 20),
                     EnsembleParams(m=32, n_blocks=4, positivity_tol=1e9))
    assert siblings and multiprocessing.active_children() == []
    assert capfd.readouterr() == ("", "")


def test_sibling_death_exits_8_incomplete(monkeypatch, siblings, tmp_path,
                                          capfd):
    usable_cpus(monkeypatch, 2)
    dying_sibling(monkeypatch)
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_config(out)))
    assert main(["run", "--config", str(cfg), "--quiet"]) == EXIT_WORKER_LOST
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the sibling process ended")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "incomplete"
    assert siblings and multiprocessing.active_children() == []


def slow_sibling(monkeypatch):
    """propagate_block, as the sibling inherits it, starts its runs 0.2 s
    late, so that each of the sibling's results arrives after this
    process's own result or error."""
    caller = os.getpid()
    propagate = snbd.ensemble.propagate_block

    def sleep_in_sibling(*args, **options):
        if os.getpid() != caller:
            time.sleep(0.2)
        return propagate(*args, **options)

    monkeypatch.setattr(snbd.ensemble, "propagate_block", sleep_in_sibling)


def interrupted_at_record(monkeypatch, record):
    """run_ensemble's on_record raises KeyboardInterrupt at ``record``, in
    this process and in the sibling."""
    propagate = snbd.ensemble.propagate_block

    def interrupting(*args, **options):
        on_record = args[7]

        def stop(r, *rest):
            if r == record:
                raise KeyboardInterrupt
            on_record(r, *rest)

        return propagate(*args[:7], stop, **options)

    monkeypatch.setattr(snbd.ensemble, "propagate_block", interrupting)


@pytest.mark.parametrize("case", ["blowup", "blowup_runs", "spin1",
                                  "interrupt"])
def test_aborts_and_interrupts_end_the_sibling(monkeypatch, siblings, capfd,
                                               case):
    # one run of 4 blocks, split in two, where the halves' aborts are
    # ordered as the whole run meets them (the blow-up: the sibling's
    # half diverges first); "blowup_runs": 4 runs of one block, where the
    # first failing run in plan order raises (the sibling's run 1 at
    # t = 1.9, although this process's run 2 fails at t = 0.9).  The
    # sibling is slowed, so its errors arrive after this process's own.
    spec, grid = two_spin_system(), BLOWUP_GRID
    params = EnsembleParams(m=64, master_seed=1, n_blocks=4,
                            positivity_tol=np.inf)
    kind = TrajectoryBlowupError
    if case == "blowup_runs":
        monkeypatch.setattr(snbd.ensemble, "LOCKSTEP_WIDTH", 16)
        params = dataclasses.replace(params, master_seed=16)
    elif case == "spin1":
        spec, grid, kind = (spin1_pair_system(), TimeGrid(0.5, 5e-4, 2),
                            PositivityViolationError)
        params = dataclasses.replace(params, m=400, positivity_tol=0.3)
    elif case == "interrupt":
        interrupted_at_record(monkeypatch, 7)
        kind = KeyboardInterrupt
    slow_sibling(monkeypatch)
    messages = []
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        with pytest.raises(kind) as caught:
            run_ensemble(spec, grid, params)
        messages.append(str(caught.value))
        assert len(siblings) == cpus - 1
        assert multiprocessing.active_children() == []
    assert messages[0] == messages[1]
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("cpus, workers, n_blocks", [
    (1, 1, 4), (2, 2, 4), (2, 1, 1)],
    ids=["one_cpu", "pool", "one_block"])
def test_no_sibling_without_a_second_cpu_and_a_second_block(
        monkeypatch, siblings, cpus, workers, n_blocks):
    usable_cpus(monkeypatch, cpus)
    run_ensemble(interleaved_system(), TimeGrid(0.01, 1e-3, 5),
                 EnsembleParams(m=16, n_blocks=n_blocks, worker_count=workers,
                                positivity_tol=1e9))
    assert siblings == []
    assert multiprocessing.active_children() == []


def live_group_members(pgid):
    """The pids of the processes of group ``pgid`` that have not exited
    (zombies left out), read from /proc."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:         # the process ended meanwhile
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process groups from /proc")
def test_a_killed_caller_leaves_no_sibling(tmp_path):
    # a CLI run in its own session, as on two usable CPUs; once its
    # sibling is up, SIGKILL the caller: the sibling's watchdog sees EOF
    # and the group is empty half a second later
    data = tiny_config(tmp_path / "out", m=64, t_final=200.0,
                       full_density=False, recovery=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, snbd.ensemble as e; e._usable_cpus = lambda: 2; "
            "from snbd.cli import main; "
            f"sys.exit(main(['run', '--config', {str(cfg)!r}, '--quiet']))")
    caller = subprocess.Popen([sys.executable, "-c", code], env=env,
                              start_new_session=True,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while len(live_group_members(caller.pid)) < 2:
            assert caller.poll() is None, "the run ended before its sibling"
            assert time.monotonic() < deadline, "no sibling started"
            time.sleep(0.01)
        caller.send_signal(signal.SIGKILL)
        caller.wait()
        time.sleep(0.5)
        assert live_group_members(caller.pid) == []
    finally:
        with suppress(ProcessLookupError):
            os.killpg(caller.pid, signal.SIGKILL)
        caller.wait()
