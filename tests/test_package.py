"""The package re-exports nothing, each module imports on its own, and every
public name has a consumer."""

import ast
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


def _public_definitions(tree):
    """Public names a module defines at its top level: defs, classes, assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id


def _references(tree):
    """Names a file reads: loaded names, attributes and `from ... import` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_name_has_a_consumer():
    repo = Path(sysbridge.__file__).parents[2]
    consumers = [*repo.glob("src/**/*.py"), *repo.glob("scripts/**/*.py"),
                 *repo.glob("perfbench/**/*.py"), repo / "tests" / "test_acceptance.py"]
    used = set()
    for path in consumers:
        used.update(_references(ast.parse(path.read_text(encoding="utf-8"))))
    unused = []
    for module in MODULES:
        tree = ast.parse((repo / "src" / "sysbridge" / f"{module}.py").read_text(encoding="utf-8"))
        unused += [f"{module}.{name}" for name in _public_definitions(tree)
                   if not name.startswith("_") and name not in used]
    assert not unused, f"public names nothing consumes: {unused}"
