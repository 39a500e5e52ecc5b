"""The package namespace holds only names that callers import from it,
every module's __all__ names only what the module defines and what the
package or the benchmark reads, every name a module, demo or test
imports is read, importing the package loads no test-only dependency,
and every name the benchmark's tracing reaches in the package exists."""

import ast
import functools
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
import textwrap
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


def test_every_name_in_each_all_is_read():
    # a public name that only tests or demos read belongs beside them:
    # each must be loaded by name or as an attribute in a module of the
    # package other than __init__.py, or in the benchmark
    sources = [path for path in (ROOT / "src" / "dmkdv").glob("*.py")
               if path.name != "__init__.py"] + [*ROOT.glob("bench/*.py")]
    read = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    modules = [importlib.import_module(f"dmkdv.{info.name}")
               for info in pkgutil.iter_modules(dmkdv.__path__)]
    unread = [f"{module.__name__}.{name}" for module in modules
              for name in getattr(module, "__all__", ()) if name not in read]
    assert unread == []


def test_every_imported_name_is_read():
    # __init__.py imports to re-export, and `from __future__` binds nothing
    paths = [path for path in (ROOT / "src" / "dmkdv").glob("*.py")
             if path.name != "__init__.py"]
    paths += [*ROOT.glob("demos/*.py"), *ROOT.glob("tests/*.py")]
    unread = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.relative_to(ROOT)}: {name}"
                   for name in sorted(imported - read)]
    assert len(paths) >= 20
    assert unread == []


def test_import_loads_no_test_only_dependency():
    # pyproject.toml lists only numpy at run time; a fresh interpreter
    # imports the package and the CLI, as `dmkdv` and setup_s do
    probe = ("import sys, dmkdv, dmkdv.cli; print(sorted(m for m in "
             "sys.modules if m.split('.')[0] in "
             "('scipy', 'mpmath', 'hypothesis', 'pytest') "
             "or m.startswith('numpy.polynomial')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def _bench_module(name: str, monkeypatch):
    """bench/<name>.py, loaded as bench_<name> for this test only."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for @dataclass
    spec.loader.exec_module(module)
    return module


def _attribute_chains(tree):
    """(root, [attr, ...]) of every outermost attribute chain in `tree`,
    innermost attribute first; a call's function stands for the call."""
    inner = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            yield (node.func if isinstance(node, ast.Call) else node), chain


def test_bench_reaches_only_names_that_exist(monkeypatch):
    # `pytest bench` fails two count pins already, so a package change
    # that broke the traced bench would hide among them; this runs none
    # of the bench's workloads or probes
    tracing = _bench_module("tracing", monkeypatch)
    workloads = _bench_module("workloads", monkeypatch)
    hooks = [(dmkdv.harness, "_row_worker"), (dmkdv.harness, "integrate"),
             (dmkdv.harness, "reflection_evaluator"),
             (dmkdv.harness, "stationary_points"),
             (dmkdv.weights, "coefficient_set"),
             (dmkdv.model, "cross_solutions"), (dmkdv.model, "leading_term")]
    before = [getattr(module, attr) for module, attr in hooks]
    with tracing.install(tracing.Tracer()):
        assert all(getattr(module, attr) is not fn
                   for (module, attr), fn in zip(hooks, before))
    assert [getattr(module, attr) for module, attr in hooks] == before
    for table in (workloads.WORKLOADS, workloads.TOY):
        for workload in table.values():
            workload.config()
    # kernel_probes: every attribute chain off a module or class that
    # tracing imports resolves; one off a local starts with an attribute
    # of one of those classes or of dict
    names = vars(tracing)
    classes = [obj for obj in names.values() if inspect.isclass(obj)] + [dict]
    tree = ast.parse(textwrap.dedent(inspect.getsource(tracing.kernel_probes)))
    resolved = 0
    for root, chain in _attribute_chains(tree):
        if isinstance(root, ast.Name) and root.id in names:
            functools.reduce(getattr, chain, names[root.id])
            resolved += 1
        else:
            assert any(hasattr(cls, chain[0]) for cls in classes), chain
    assert resolved >= 5
