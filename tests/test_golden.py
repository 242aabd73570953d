"""Output bytes against the committed digests (``scripts/golden.py``)."""

import importlib.util
import json
from pathlib import Path

import pytest

from conftest import usable_cpus

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def golden():
    """``scripts/golden.py`` as a module, with ``committed`` the digests
    committed for this environment; skips where there are none."""
    spec = importlib.util.spec_from_file_location(
        "golden", ROOT / "scripts" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    key = module.environment()
    table = json.loads(module.DIGESTS.read_text())
    if key not in table:
        pytest.skip(f"no committed output digests for {key!r}")
    module.committed = table[key]
    return module


def test_outputs_match_committed_digests(golden, tmp_path):
    # every output file of the nine cases, manifest.json included, and
    # each exit code, as committed for this numpy, BLAS and SIMD set; a
    # change that moves bytes on purpose rewrites the entry with
    # ``scripts/golden.py --update``
    assert golden.digests(tmp_path) == golden.committed


def test_two_workers_write_the_one_worker_bytes(golden, tmp_path):
    # the M = 407 case in two and in three processes, whose runs split the
    # batch at other widths, against the committed digests of one worker
    name = "two_spin_heisenberg compare M 407"
    for workers in ("2", "3"):
        argv = golden.cases(tmp_path)[name] + ["--workers", workers]
        assert golden.run(argv, tmp_path / f"workers{workers}") == \
            golden.committed[name], workers


def test_one_usable_cpu_writes_the_same_bytes(golden, tmp_path,
                                              monkeypatch):
    # on two usable CPUs the one-worker cases step their runs in two
    # processes; pinned to one, the positivity-drop case and the M = 407
    # case, whose two block widths make a layout of two runs at one
    # process and of three at two, step them all in this process, against
    # the same committed digests
    usable_cpus(monkeypatch, 1)
    names = ("mixed_compare tiny seed 1 tol 0.3",
             "two_spin_heisenberg compare M 407")
    for i, name in enumerate(names):
        argv = golden.cases(tmp_path)[name]
        assert golden.run(argv, tmp_path / f"one_cpu{i}") == \
            golden.committed[name], name
