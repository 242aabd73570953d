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


def test_every_private_name_has_a_caller():
    # a module-level private function, class or constant that nothing in
    # the package reads outside its own definition is dead code
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = [(path, node.lineno,
             node.id if isinstance(node, ast.Name) else node.attr)
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    orphans = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [node.target.id]
            else:
                continue
            orphans += [
                f"{path.name}:{node.lineno} {name}" for name in names
                if name.startswith("_") and not name.startswith("__")
                and not any(n == name and not (
                    p == path and node.lineno <= line <= node.end_lineno)
                    for p, line, n in used)]
    assert orphans == []
