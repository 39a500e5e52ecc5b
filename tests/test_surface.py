"""The package namespace holds only names that callers import from it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _from_imports(path: Path) -> list:
    """Every `from ... import ...` statement of `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)]


def test_every_reexport_is_imported_from_the_package():
    # the rule stated by the docstring of dmkdv/__init__.py
    init = ROOT / "src" / "dmkdv" / "__init__.py"
    exported = {alias.name for node in _from_imports(init)
                if node.level == 1 for alias in node.names}
    callers = [*ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py"),
               *ROOT.glob("bench/*.py")]
    used = {alias.name for path in callers for node in _from_imports(path)
            if node.module == "dmkdv" and node.level == 0
            for alias in node.names}
    assert exported
    assert sorted(exported - used) == []
