"""The shipped config with one or two fields mutated, through the CLI in
process: every outcome is a documented exit code, ``validate`` accepts
no matrix that is not Hermitian, and no run leaves a ``complete``
manifest over a NaN or inf."""

import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from snbd.cli import EXIT_OK, main
from snbd.config import parse_config
from snbd.linalg import HERM_RTOL
from snbd.output import read_density_bin

SHIPPED = json.loads((Path(__file__).resolve().parent.parent / "configs"
                      / "two_spin_heisenberg.json").read_text())

#: README "Exit codes": success, config, dimension limit, trajectory,
#: missing data, recovery, other numerical contract
DOCUMENTED = {0, 2, 3, 4, 5, 6, 7}

VALUES = st.one_of(
    st.sampled_from([
        0, 1, -1, 2, 0.5, -0.5, 1e-300, 5e-324, 1e200, -1e200, 1e308,
        -1e308, 2 ** 53 + 1, 10 ** 400, float("nan"), float("inf"),
        -float("inf"), True, None, "", "x", [], {}, [0, 0], [1e308, 0],
        [[1, 0], [0, 0]]]),
    st.floats(),
    st.integers(-3, 10))

#: finite numbers from tiny to near the largest double, the large ones
#: (whose squares overflow) drawn often
NUMBERS = st.one_of(
    st.sampled_from([0, -1, 2, 0.3, 1e-300, -1e200, 1e308, -1e308]),
    st.sampled_from([1e200, -1e308, 1e308]),
    st.floats(-1e308, 1e308))


def paths(node, prefix=()):
    """Every position in a JSON tree below its root."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def at(node, path):
    """The node at ``path`` in a JSON tree."""
    for key in path:
        node = node[key]
    return node


def mutated(base, edits):
    """``base`` with each (path, (delete, value)) edit applied in turn:
    the node at the path is removed, or replaced by the value; an edit
    whose path a former one removed is skipped."""
    data = copy.deepcopy(base)
    for path, (delete, value) in edits:
        try:
            node = at(data, path[:-1])
            node[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue
        if delete:
            del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(value)
    return data


def edits_of(base, values=VALUES, numeric_only=False):
    """One or two edits: a position and (delete, value); with
    ``numeric_only`` a number at a numeric leaf, never a deletion."""
    where = [p for p in paths(base)
             if not numeric_only or type(at(base, p)) in (int, float)]
    return st.lists(st.tuples(st.sampled_from(where), st.tuples(
        st.just(False) if numeric_only else st.booleans(), values)),
        min_size=1, max_size=2)


def hermitian_sections(data):
    """The JSON matrices the config requires to be Hermitian."""
    system = data["system"]
    found = [p["h"] for p in system["particles"]] + list(system["initial"])
    if "pair_matrix" in (system.get("interaction") or {}):
        found.append(system["interaction"]["pair_matrix"])
    for obs in data.get("observables") or []:
        found += [f for f in obs["factors"] if f is not None]
    return [np.array([[complex(*e) if isinstance(e, list) else e
                       for e in row] for row in m], dtype=complex)
            for m in found]


def finite_file(path):
    if path.suffix == ".bin":
        return np.isfinite(read_density_bin(path)).all()
    rows = path.read_text().splitlines()[1:]
    return all(np.isfinite(float(x)) for row in rows for x in row.split(","))


def write(directory, data):
    path = Path(directory) / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@seed(1)
@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edits=st.one_of(edits_of(SHIPPED),
                       edits_of(SHIPPED, NUMBERS, numeric_only=True)))
def test_validate_returns_a_documented_code(edits):
    # what validate accepts, read independently of the package: every
    # matrix it must check is Hermitian, entry by entry, within the
    # bound its relative Hilbert-Schmidt test implies (N HERM_RTOL of the
    # largest entry)
    data = mutated(SHIPPED, edits)
    with tempfile.TemporaryDirectory() as tmp:
        code = main(["validate", "--config", write(tmp, data), "--quiet"])
    assert code in DOCUMENTED
    if code == EXIT_OK:
        for m in hermitian_sections(data):
            with np.errstate(over="ignore", invalid="ignore"):
                gap = np.abs(m - m.conj().T).max()
            assert gap <= len(m) * HERM_RTOL * np.abs(m).max()


SMALL = mutated(SHIPPED, [
    (("ensemble", "M"), (False, 8)), (("ensemble", "n_blocks"), (False, 2)),
    (("time", "t_final"), (False, 0.1))])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@seed(1)
@settings(max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edits=edits_of(SMALL, NUMBERS, numeric_only=True))
def test_small_runs_never_certify_a_non_finite_output(edits):
    # runs small enough to take well under a second; a complete manifest
    # lists only files whose every number is finite, and any other exit
    # leaves an incomplete one
    data = mutated(SMALL, edits)
    with tempfile.TemporaryDirectory() as tmp:
        config = write(tmp, data)
        if main(["validate", "--config", config, "--quiet"]) != EXIT_OK:
            return
        cfg = parse_config(config)
        if cfg.ensemble.m * cfg.time.n_steps > 10_000:
            return
        out = Path(tmp) / "out"
        code = main(["run", "--config", config, "--out", str(out),
                     "--quiet"])
        assert code in DOCUMENTED
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["status"] == "complete") == (code == EXIT_OK)
        if code == EXIT_OK:
            assert all(finite_file(out / name) for name in manifest["files"])
