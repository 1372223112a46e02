"""Static checks over the package's modules: every annotation resolves, and
no module imports a name it never uses (no linter is a dependency)."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import qbat

MODULES = sorted(m.name for m in pkgutil.iter_modules(qbat.__path__))
SOURCES = sorted(p for p in Path(qbat.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _defined(module):
    """Functions, classes and methods defined in ``module`` itself."""
    for name, obj in vars(module).items():
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        if obj.__module__ != module.__name__:
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "fget", None) or getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("name", MODULES)
def test_annotations_resolve(name):
    module = importlib.import_module(f"qbat.{name}")
    for label, obj in _defined(module):
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            pytest.fail(f"qbat.{name}.{label}: {exc}")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert not imported - used, f"{path.name} imports unused names {sorted(imported - used)}"


def test_importing_the_cli_leaves_acceptance_unimported():
    # only selftest runs the acceptance suite, so only selftest imports it;
    # only sweep-tau starts a thread pool, whose module also loads logging
    src = str(Path(qbat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import qbat.cli, sys; print(sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True, env=env).stdout
    assert "'qbat.cli'" in out and "'qbat.acceptance'" not in out, out
    assert "'concurrent.futures'" not in out and "'logging'" not in out, out
