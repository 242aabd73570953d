"""Module boundaries inside the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "snbd"


def test_no_module_imports_a_private_name_of_another():
    # a leading underscore keeps a name inside its module; what another
    # module needs is public, so moving it cannot break a hidden caller
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not node.level and (node.module or "").split(".")[0] != "snbd":
                continue
            found += [f"{path.name}:{node.lineno} {alias.name}"
                      for alias in node.names
                      if alias.name.startswith("_")
                      and alias.name != "__version__"]
    assert found == []


def test_cli_import_leaves_the_process_pool_out():
    # the pool is imported where a run with more than one worker starts it,
    # so a serial run and ``snbd validate`` do not pay for it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, snbd.cli; print('concurrent.futures' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_every_error_class_has_a_raiser():
    # an error class outlives its raiser silently: its exit-code mapping
    # and docs keep promising a failure that can no longer happen
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in errors.body
               if isinstance(node, ast.ClassDef)} - {"SnbdError"}
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert sorted(defined - raised) == []
