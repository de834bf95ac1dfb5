"""The package re-exports nothing: each module imports on its own."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sysbridge

MODULES = sorted(p.stem for p in Path(sysbridge.__file__).parent.glob("*.py") if p.stem != "__init__")


def test_top_level_holds_only_the_version():
    # importing a submodule binds its name here, so module names may appear
    public = {name for name in vars(sysbridge) if not name.startswith("_")}
    assert public <= set(MODULES)
    assert sysbridge.__version__


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    src = str(Path(sysbridge.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", f"import sysbridge.{module}"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
