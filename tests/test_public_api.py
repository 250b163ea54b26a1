"""Public API guard: the demos import only names the package exports,
each demo runs to completion against this checkout's package, and no
package module imports another's private names."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prionpde

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
MODULES = sorted((ROOT / "src" / "prionpde").glob("*.py"))


def package_imports(path):
    """(module, name) for every `from prionpde... import name` in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "prionpde"
            for alias in node.names]


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_are_public(path):
    for module, name in package_imports(path):
        if module == "prionpde":
            assert name in prionpde.__all__, f"{path.name}: {name}"
        assert hasattr(importlib.import_module(module), name), \
            f"{path.name}: {module}.{name}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []  # the demos write no files


def test_every_export_resolves():
    missing = [name for name in prionpde.__all__ if not hasattr(prionpde, name)]
    assert missing == []
    assert len(set(prionpde.__all__)) == len(prionpde.__all__)


def test_no_module_imports_a_siblings_private_name():
    """`from .x import _name` is refused in every package module; a
    private module itself (`from ._ode import rk4_step`) may be imported."""
    private = [f"{path.name}: .{node.module}.{alias.name}"
               for path in MODULES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.level == 1
               and node.module is not None
               for alias in node.names if alias.name.startswith("_")]
    assert MODULES
    assert private == []
