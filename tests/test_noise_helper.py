"""The noise of a serial run drawn one chunk ahead in a helper process
(``propagator.NoiseHelper``): the same bits as drawn in place, and every
way a run ends leaves no process behind and nothing on stderr."""

import dataclasses
import json
import multiprocessing
import os

import numpy as np
import pytest

import snbd.ensemble
import snbd.propagator as propagator
from snbd.cli import EXIT_WORKER_LOST, main
from snbd.ensemble import EnsembleParams, ObservableSpec, run_ensemble
from snbd.errors import (
    ContractViolationError,
    PositivityViolationError,
    TrajectoryBlowupError,
    WorkerLostError,
)
from snbd.propagator import NoiseHelper, TimeGrid, trajectory_rng

from conftest import SZ, interleaved_system, two_spin_system
from test_config_cli import tiny_config
from test_propagator import spin1_pair_system

# the grid of test_blowup_message_says_what_the_check_found: trajectories
# of the two-spin system diverge from t = 0.8 on
BLOWUP_GRID = TimeGrid(2.0, 1e-2, 10)


@pytest.fixture
def helpers(monkeypatch):
    """Every NoiseHelper run_ensemble makes, in the list returned."""
    made = []

    class Recorded(NoiseHelper):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(snbd.ensemble, "NoiseHelper", Recorded)
    return made


def draw_ahead(monkeypatch, on):
    """Let run_ensemble see two usable CPUs, or one."""
    monkeypatch.setattr(snbd.ensemble, "_usable_cpus", lambda: 2 if on else 1)


def both_ways(monkeypatch, helpers, run):
    """run() with the noise drawn here and drawn ahead; the second must
    have read every chunk from a helper, which is gone afterwards."""
    out = []
    for on in (False, True):
        draw_ahead(monkeypatch, on)
        out.append(run())
        assert len(helpers) == on
        assert multiprocessing.active_children() == []
    assert helpers[0].taken > 2 and helpers[0].next_run == len(helpers[0].runs)
    return out


def assert_same_accumulators(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, tuple):    # the skip lists, names, references
            assert len(x) == len(y), f.name
            assert all(np.array_equal(u, v) for u, v in zip(x, y)), f.name
        else:
            assert np.array_equal(x, y), f.name


def test_two_spin_runs_with_blowups_mid_run(monkeypatch, helpers):
    # 4 runs of one block of 50 (LOCKSTEP_WIDTH 64), trajectories that
    # diverge part-way through their runs under skip, and a chunk budget
    # that splits each run into chunks with a partial last one
    monkeypatch.setattr(snbd.ensemble, "LOCKSTEP_WIDTH", 64)
    monkeypatch.setattr(propagator, "NOISE_CHUNK_BYTES", 40_000)
    params = EnsembleParams(m=200, master_seed=1, n_blocks=4,
                            full_density=True, blowup_policy="skip",
                            positivity_tol=np.inf)
    drawn_here, drawn_ahead = both_ways(monkeypatch, helpers, lambda: (
        run_ensemble(two_spin_system(), BLOWUP_GRID, params,
                     [ObservableSpec("sz0", (SZ, None))],
                     refs=(np.array([1, 0], complex),
                           np.array([0, 1], complex)))))
    assert len(helpers[0].runs) == 4
    assert drawn_here.blowups
    assert_same_accumulators(drawn_here, drawn_ahead)


def test_mixed_dimensions_with_positivity_skips(monkeypatch, helpers):
    monkeypatch.setattr(propagator, "NOISE_CHUNK_BYTES", 100_000)
    params = EnsembleParams(m=64, master_seed=3, n_blocks=4,
                            full_density=True, blowup_policy="skip",
                            positivity_tol=0.03)
    spec = spin1_pair_system()
    drawn_here, drawn_ahead = both_ways(monkeypatch, helpers, lambda: (
        run_ensemble(spec, TimeGrid(0.25, 5e-4, 2), params,
                     [ObservableSpec("zz", (None, SZ, SZ))])))
    assert drawn_here.positivity_skips
    assert_same_accumulators(drawn_here, drawn_ahead)


def test_slots_are_the_one_step_draws(monkeypatch):
    # two runs of the plan, each in budget-limited chunks with a partial
    # last one, read from the helper's slots: bitwise each trajectory's
    # one-step draws (as test_chunked_draw_matches_per_step in place)
    p, r, n_steps, dt = 2, 5, 10, 1e-3
    step_bytes = 8 * 3 * p * r
    monkeypatch.setattr(propagator, "NOISE_CHUNK_BYTES",
                        2 * (4 * step_bytes + 8))
    plan = [(2, 3), (5, 2)]
    with NoiseHelper(9, plan) as helper:
        for start, count in plan:
            chunks = [c.copy() for c in helper.chunks(start, count, n_steps,
                                                      p, r, dt)]
            if count == 3:
                assert [c.shape[1] for c in chunks] == [4, 4, 2]
            drawn = np.concatenate(chunks, axis=1)
            for j in range(count):
                rng = trajectory_rng(9, start + j)
                per_step = np.stack([rng.standard_normal((p, r))
                                     * np.sqrt(dt / 2.0)
                                     for _ in range(n_steps)])
                assert np.array_equal(drawn[j], per_step)
        # the plan is spent
        with pytest.raises(ContractViolationError):
            next(helper.chunks(2, 3, n_steps, p, r, dt))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("ask", [
    (5, 2, 10, 2, 5, 1e-3),     # the second run first
    (2, 4, 10, 2, 5, 1e-3),     # another width
])
def test_a_block_out_of_plan_order_is_refused(ask):
    with NoiseHelper(9, [(2, 3), (5, 2)]) as helper:
        with pytest.raises(ContractViolationError):
            next(helper.chunks(*ask))
        assert helper.process is None       # refused before it started


def test_a_later_block_on_another_grid_is_refused():
    with NoiseHelper(9, [(2, 3), (5, 2)]) as helper:
        for _ in helper.chunks(2, 3, 10, 2, 5, 1e-3):
            pass
        with pytest.raises(ContractViolationError):
            next(helper.chunks(5, 2, 20, 2, 5, 1e-3))
    assert multiprocessing.active_children() == []


def dying_draw(monkeypatch):
    """The draw, as the helper inherits it, ends its process at the
    second call."""
    draw = propagator._draw_noise_chunk
    calls = []

    def draw_then_die(*args):
        calls.append(1)
        if len(calls) == 2:
            os._exit(9)
        return draw(*args)

    monkeypatch.setattr(propagator, "_draw_noise_chunk", draw_then_die)
    monkeypatch.setattr(propagator, "NOISE_CHUNK_BYTES", 20_000)


def test_helper_death_is_a_lost_worker(monkeypatch, helpers, capfd):
    draw_ahead(monkeypatch, True)
    dying_draw(monkeypatch)
    with pytest.raises(WorkerLostError, match="noise helper"):
        run_ensemble(two_spin_system(), TimeGrid(0.2, 1e-3, 20),
                     EnsembleParams(m=32, n_blocks=4, positivity_tol=1e9))
    assert helpers and multiprocessing.active_children() == []
    assert capfd.readouterr() == ("", "")


def test_helper_death_exits_8_incomplete(monkeypatch, helpers, tmp_path,
                                         capfd):
    draw_ahead(monkeypatch, True)
    dying_draw(monkeypatch)
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_config(out)))
    assert main(["run", "--config", str(cfg), "--quiet"]) == EXIT_WORKER_LOST
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the noise helper process ended")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "incomplete"
    assert helpers and multiprocessing.active_children() == []


def interrupted_at_record(monkeypatch, record):
    """run_ensemble's on_record raises KeyboardInterrupt at ``record``."""
    propagate = snbd.ensemble.propagate_block

    def interrupting(*args, **options):
        on_record = args[7]

        def stop(r, *rest):
            if r == record:
                raise KeyboardInterrupt
            on_record(r, *rest)

        return propagate(*args[:7], stop, **options)

    monkeypatch.setattr(snbd.ensemble, "propagate_block", interrupting)


@pytest.mark.parametrize("case", ["blowup", "spin1", "interrupt"])
def test_aborts_and_interrupts_end_the_helper(monkeypatch, helpers, capfd,
                                              case):
    spec, grid = two_spin_system(), BLOWUP_GRID
    params = EnsembleParams(m=64, master_seed=1, n_blocks=4,
                            positivity_tol=np.inf)
    kind = TrajectoryBlowupError
    if case == "spin1":
        spec, grid, kind = (spin1_pair_system(), TimeGrid(0.5, 5e-4, 2),
                            PositivityViolationError)
        params = dataclasses.replace(params, m=400, positivity_tol=0.3)
    elif case == "interrupt":
        interrupted_at_record(monkeypatch, 7)
        kind = KeyboardInterrupt
    messages = []
    for on in (False, True):
        draw_ahead(monkeypatch, on)
        with pytest.raises(kind) as caught:
            run_ensemble(spec, grid, params)
        messages.append(str(caught.value))
        assert len(helpers) == on
        assert multiprocessing.active_children() == []
    assert messages[0] == messages[1]
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("cpus, workers", [(1, 1), (2, 2)])
def test_one_usable_cpu_or_a_pool_starts_no_helper(monkeypatch, helpers,
                                                   cpus, workers):
    monkeypatch.setattr(snbd.ensemble, "_usable_cpus", lambda: cpus)
    run_ensemble(interleaved_system(), TimeGrid(0.01, 1e-3, 5),
                 EnsembleParams(m=16, n_blocks=4, worker_count=workers,
                                positivity_tol=1e9))
    assert helpers == []
    assert multiprocessing.active_children() == []
