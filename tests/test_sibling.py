"""A run steps its runs in k processes, the caller and k - 1 forked
siblings (``ensemble._run_results``): k is ``worker_count``, or two for a
serial run on two usable CPUs.  The same bits and the same errors as one
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
from snbd.cli import EXIT_TRAJECTORY, EXIT_WORKER_LOST, main
from snbd.ensemble import (
    EnsembleParams,
    ObservableSpec,
    block_runs,
    run_ensemble,
)
from snbd.errors import (
    PositivityViolationError,
    TrajectoryBlowupError,
    WorkerLostError,
)
from snbd.propagator import TimeGrid

from conftest import (
    SZ,
    interleaved_system,
    sibling_starts,
    slow_sibling,
    two_spin_system,
    usable_cpus,
)
from test_config_cli import tiny_config
from test_propagator import spin1_pair_system

# the grid of test_blowup_message_says_what_the_check_found: trajectories
# of the two-spin system diverge from t = 0.8 on
BLOWUP_GRID = TimeGrid(2.0, 1e-2, 10)


@pytest.fixture
def siblings(monkeypatch):
    """(runs, processes) of every plan run_ensemble steps with siblings,
    in the list returned."""
    made = []
    run_results = snbd.ensemble._run_results

    def recorded(tasks, k):
        if k > 1:
            made.append((len(tasks), k))
        yield from run_results(tasks, k)

    monkeypatch.setattr(snbd.ensemble, "_run_results", recorded)
    return made


#: (usable CPUs, worker_count) of a run in two and in three processes
LAYOUTS = [(2, 1), (2, 3)]


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
    assert siblings == [(4, 2)]
    assert alone.blowups
    assert_same_accumulators(alone, paired)


def test_mixed_dimensions_with_positivity_skips(monkeypatch, siblings):
    # one run of 4 blocks in one process, two runs of 2 in two
    monkeypatch.setattr(propagator, "NOISE_CHUNK_BYTES", 100_000)
    params = EnsembleParams(m=64, master_seed=3, n_blocks=4,
                            full_density=True, blowup_policy="skip",
                            positivity_tol=0.03)
    spec = spin1_pair_system()
    alone, paired = both_ways(monkeypatch, siblings, lambda: (
        run_ensemble(spec, TimeGrid(0.25, 5e-4, 2), params,
                     [ObservableSpec("zz", (None, SZ, SZ))])))
    assert siblings == [(2, 2)]
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
    dying_sibling(monkeypatch)
    for cpus, workers in LAYOUTS:
        usable_cpus(monkeypatch, cpus)
        with pytest.raises(WorkerLostError, match="sibling process"):
            run_ensemble(two_spin_system(), TimeGrid(0.2, 1e-3, 20),
                         EnsembleParams(m=32, n_blocks=4, positivity_tol=1e9,
                                        worker_count=workers))
        assert multiprocessing.active_children() == []
    assert siblings == [(2, 2), (4, 3)]
    assert capfd.readouterr() == ("", "")


def test_sibling_death_exits_8_incomplete(monkeypatch, siblings, tmp_path,
                                          capfd):
    dying_sibling(monkeypatch)
    for cpus, workers in LAYOUTS:
        usable_cpus(monkeypatch, cpus)
        out = tmp_path / f"w{workers}"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tiny_config(out, workers=workers)))
        assert main(["run", "--config", str(cfg),
                     "--quiet"]) == EXIT_WORKER_LOST
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a sibling process ended")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"
        assert manifest["files"] == {}
        assert multiprocessing.active_children() == []
    assert [k for _, k in siblings] == [2, 3]


def interrupted_at_record(monkeypatch, record):
    """run_ensemble's on_record raises KeyboardInterrupt at ``record``, in
    this process and in every sibling."""
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
    # 4 blocks in one, two and three processes (one run, two runs of 2
    # blocks, four runs of one), where every run's abort is ordered as one
    # run of all 4 blocks meets it (the blow-up: a sibling's run diverges
    # first); "blowup_runs": 4 runs of one block at every layout, where
    # run 2's error at t = 0.9 is raised, though run 1 fails too, at
    # t = 1.9, and comes first in plan order.  The siblings are slowed, so
    # their errors arrive after this process's own.
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
    for cpus, workers in [(1, 1)] + LAYOUTS:
        usable_cpus(monkeypatch, cpus)
        with pytest.raises(kind) as caught:
            run_ensemble(spec, grid, dataclasses.replace(
                params, worker_count=workers))
        messages.append(str(caught.value))
        assert multiprocessing.active_children() == []
    assert [k for _, k in siblings] == [2, 3]
    assert messages[1:] == messages[:1] * 2
    assert capfd.readouterr() == ("", "")


def test_an_abort_names_one_trajectory_at_any_layout(monkeypatch, tmp_path,
                                                     capfd):
    # the tiny config at seed 23 fails first in trajectory 8 at t = 0.12,
    # which at 2 and 3 processes is in a sibling's run; the caller's own
    # runs fail later (trajectory 4 at t = 0.14 at 2; 1 and 12 at t = 0.16
    # at 3), and at 3 so does the other sibling's (4 at t = 0.14).  The
    # siblings are slowed, so that their errors arrive last.  One usable
    # CPU, and worker_count 1, 2 and 3 on two, print the same error line
    # and exit 4
    data = tiny_config(tmp_path / "out", t_final=2.0, seed=23)
    data["time"]["record_stride"] = 20
    data["ensemble"].update(blowup_policy="abort", positivity_tol=0.04)
    slow_sibling(monkeypatch)
    started = sibling_starts(monkeypatch, limit=4)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    lines = []
    for cpus, workers in [(1, 1), (2, 1), (2, 2), (2, 3)]:
        usable_cpus(monkeypatch, cpus)
        assert main(["run", "--config", str(cfg), "--quiet", "--workers",
                     str(workers)]) == EXIT_TRAJECTORY
        lines.append(capfd.readouterr().err)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"
        assert multiprocessing.active_children() == []
    assert len(started) == 0 + 1 + 1 + 2
    assert lines[0].startswith("error: trajectory 8, t=0.12, particle")
    assert lines == lines[:1] * 4


@pytest.mark.parametrize("cpus, workers, n_blocks", [
    (1, 1, 4), (2, 1, 1)], ids=["one_cpu", "one_block"])
def test_no_sibling_without_a_second_cpu_and_a_second_block(
        monkeypatch, siblings, cpus, workers, n_blocks):
    usable_cpus(monkeypatch, cpus)
    run_ensemble(interleaved_system(), TimeGrid(0.01, 1e-3, 5),
                 EnsembleParams(m=16, n_blocks=n_blocks, worker_count=workers,
                                positivity_tol=1e9))
    assert siblings == []
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [2, 3])
def test_workers_fork_one_sibling_fewer(monkeypatch, siblings, workers):
    # worker_count k forks k - 1 siblings whatever the usable CPUs, and
    # the bits are one process's
    started = sibling_starts(monkeypatch)
    usable_cpus(monkeypatch, 1)
    spec, grid = interleaved_system(), TimeGrid(0.01, 1e-3, 5)
    params = EnsembleParams(m=16, n_blocks=4, positivity_tol=1e9,
                            full_density=True)
    wide = run_ensemble(spec, grid, dataclasses.replace(
        params, worker_count=workers))
    assert len(started) == workers - 1
    assert siblings == [(len(block_runs(wide.edges, workers)), workers)]
    assert multiprocessing.active_children() == []
    assert_same_accumulators(wide, run_ensemble(spec, grid, params))


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
    # a CLI run in its own session, as on two usable CPUs, in two and in
    # three processes; once its siblings are up, SIGKILL the caller: each
    # sibling's watchdog sees EOF and the group is empty half a second
    # later
    data = tiny_config(tmp_path / "out", m=64, t_final=200.0,
                       full_density=False, recovery=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for processes, (cpus, workers) in zip((2, 3), LAYOUTS):
        code = (f"import sys, snbd.ensemble as e; e._usable_cpus = lambda: "
                f"{cpus}; from snbd.cli import main; "
                f"sys.exit(main(['run', '--config', {str(cfg)!r}, "
                f"'--quiet', '--workers', '{workers}']))")
        caller = subprocess.Popen([sys.executable, "-c", code], env=env,
                                  start_new_session=True,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 30
            while len(live_group_members(caller.pid)) < processes:
                assert caller.poll() is None, \
                    "the run ended before its siblings"
                assert time.monotonic() < deadline, "no siblings started"
                time.sleep(0.01)
            caller.send_signal(signal.SIGKILL)
            caller.wait()
            time.sleep(0.5)
            assert live_group_members(caller.pid) == []
        finally:
            with suppress(ProcessLookupError):
                os.killpg(caller.pid, signal.SIGKILL)
            caller.wait()
