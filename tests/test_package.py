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


def _literal(node):
    """(True, value) when ``node`` is built only from constants and operators."""
    allowed = (ast.Constant, ast.UnaryOp, ast.BinOp, ast.Tuple, ast.List,
               ast.unaryop, ast.operator, ast.expr_context)
    if not all(isinstance(n, allowed) for n in ast.walk(node)):
        return False, None
    return True, eval(compile(ast.Expression(node), "<default>", "eval"), {"__builtins__": {}})


def _defaulted_parameters(tree):
    """(call name, positional index or None, parameter, default node) for every
    defaulted parameter of a top-level function or method; an ``__init__`` is
    called by its class name, and a method's index skips ``self``."""
    funcs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            funcs.append((node.name, node, 0))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    name = node.name if item.name == "__init__" else item.name
                    funcs.append((name, item, 0 if static else 1))
    for name, fn, skip in funcs:
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        for i, (arg, default) in enumerate(zip(positional[first:], fn.args.defaults)):
            yield name, first + i - skip, arg.arg, default
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield name, None, arg.arg, default


def _passes(call, index, param, default):
    """Whether ``call`` may give ``param`` a value other than its default."""
    is_default_literal, value = _literal(default)

    def differs(node):
        literal, given = _literal(node)
        return not (literal and is_default_literal and given == value)

    if any(k.arg is None for k in call.keywords):  # **kwargs
        return True
    if any(k.arg == param and differs(k.value) for k in call.keywords):
        return True
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):  # *args
            return True
        if i == index and differs(arg):
            return True
    return False


def test_every_default_has_a_second_value_in_use():
    repo = Path(sysbridge.__file__).parents[2]
    consumers = [*repo.glob("src/**/*.py"), *repo.glob("scripts/**/*.py"),
                 *repo.glob("perfbench/**/*.py"), repo / "tests" / "test_acceptance.py"]
    calls = {}
    for path in consumers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    one_valued = []
    for module in MODULES:
        tree = ast.parse((repo / "src" / "sysbridge" / f"{module}.py").read_text(encoding="utf-8"))
        for name, index, param, default in _defaulted_parameters(tree):
            if not any(_passes(call, index, param, default) for call in calls.get(name, ())):
                one_valued.append(f"{module}.{name}({param})")
    assert not one_valued, f"parameters only ever left at their default: {one_valued}"
