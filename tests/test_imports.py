"""Each module of the package imports on its own, first, in a fresh
interpreter, so an import cycle between modules fails here; and no module
reaches into another for a private (underscore) name."""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(SRC / "lowrank_ctr")]))


def test_every_module_is_listed():
    assert {"cli", "config", "data", "errors", "train"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", f"import lowrank_ctr.{module}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def private_imports(source: str) -> list:
    """The underscore names a module's source imports from its own package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "lowrank_ctr"
        ):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.append(f"{'.' * node.level}{node.module or ''}.{alias.name}")
    return found


def test_private_import_check_sees_both_import_forms():
    source = "from .train import _hidden, public\nfrom lowrank_ctr.config import _raw\n"
    assert private_imports(source) == [".train._hidden", "lowrank_ctr.config._raw"]
    assert private_imports("from . import __version__\nfrom os import _exit\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_private_name_of_another(module):
    source = (SRC / "lowrank_ctr" / f"{module}.py").read_text(encoding="utf-8")
    assert private_imports(source) == []
