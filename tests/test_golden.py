"""Output bytes against the committed digests (``scripts/golden.py``)."""

import importlib.util
import json
from pathlib import Path

import pytest

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
    # the M = 407 case on a pool of two workers, whose runs split the
    # batch at other widths, against the committed digests of one worker
    name = "two_spin_heisenberg compare M 407"
    argv = golden.cases(tmp_path)[name] + ["--workers", "2"]
    assert golden.run(argv, tmp_path / "workers2") == golden.committed[name]
