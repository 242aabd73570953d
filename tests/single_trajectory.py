"""One trajectory at a time: a block of one, its densities rebuilt at
every record.  The package steps batches only (``propagate_block``);
the tests read single trajectories through this helper."""

from dataclasses import dataclass

from snbd.propagator import (
    COLUMN_ALIGN,
    coordinate_densities,
    coordinate_rows,
    propagate_block,
)


@dataclass
class TrajectoryState:
    """One recorded time of one trajectory: time and N one-body densities."""

    t: float
    rhos: list


def propagate_trajectory(spec, t_final, dt, record_stride=1, *, rng_seed,
                         positivity_tol=None) -> list:
    """Integrate one trajectory, returning snapshots every ``record_stride``
    steps (including t = 0).  Deterministic given the seed.

    ``rng_seed`` is interpreted as (master_seed, trajectory_index) when a
    tuple, otherwise as a master seed for trajectory 0.  The trajectory is
    a block of one, so it is bitwise the trajectory of that index in any
    ensemble run; ``positivity_tol=np.inf`` switches the positivity check
    off.  The snapshots are the densities rebuilt from the coordinates
    handed to ``on_record`` (see ``coordinate_densities``).
    """
    master_seed, index = rng_seed if isinstance(rng_seed, tuple) else (rng_seed, 0)
    rows = coordinate_rows(spec.dims)
    col = slice(index % COLUMN_ALIGN, index % COLUMN_ALIGN + 1)
    snapshots = []

    def on_record(r_index, t, coords, active, min_eigs):
        snapshots.append(TrajectoryState(t=t, rhos=[
            coordinate_densities(coords[r, col], d)[0]
            for r, d in zip(rows, spec.dims)]))

    propagate_block(spec, master_seed, index, 1, t_final, dt, record_stride,
                    on_record, positivity_tol=positivity_tol)
    return snapshots
