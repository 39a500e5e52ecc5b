"""The package namespace holds only names that callers import from it,
and every module's __all__ names only what the module defines."""

import ast
import importlib
import pkgutil
from pathlib import Path

import dmkdv

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


def test_every_name_in_each_all_exists():
    # a helper deleted or renamed must leave no stale entry in __all__
    modules = [importlib.import_module(f"dmkdv.{info.name}")
               for info in pkgutil.iter_modules(dmkdv.__path__)]
    listed = [module for module in modules if hasattr(module, "__all__")]
    assert len(listed) >= 6
    missing = [f"{module.__name__}.{name}" for module in listed
               for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
