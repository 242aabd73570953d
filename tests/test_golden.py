"""Output bytes against the committed digests (``scripts/golden.py``)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_golden():
    spec = importlib.util.spec_from_file_location(
        "golden", ROOT / "scripts" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_committed_digests(tmp_path):
    # every output file of the nine cases, manifest.json included, and
    # each exit code, as committed for this numpy, BLAS and SIMD set; a
    # change that moves bytes on purpose rewrites the entry with
    # ``scripts/golden.py --update``
    golden = load_golden()
    key = golden.environment()
    table = json.loads(golden.DIGESTS.read_text())
    if key not in table:
        pytest.skip(f"no committed output digests for {key!r}")
    assert golden.digests(tmp_path) == table[key]
