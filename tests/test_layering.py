"""Module boundaries inside the package."""

import ast
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
