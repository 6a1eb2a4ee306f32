"""Each module of the package imports on its own, first, in a fresh
interpreter, so an import cycle between modules fails here."""

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
