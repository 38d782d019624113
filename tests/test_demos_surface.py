"""The demos' call surface exists in the package.

No test runs the demos, so a name deleted from the package, or a keyword
dropped from one of its functions, would break a demo silently.  The
demos are parsed, not imported: every ``from nlstab... import name``
must resolve, every attribute read on an imported nlstab module must
exist, and every call of an imported name must bind to its signature.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent
                / "demos").glob("*.py"))


def _imported(tree):
    """Local name -> package object of every ``from nlstab... import``."""
    names = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "nlstab"):
            continue
        module = importlib.import_module(node.module)
        for alias in node.names:
            if not hasattr(module, alias.name) and hasattr(module, "__path__"):
                # a submodule not yet imported by its package
                importlib.import_module(node.module + "." + alias.name)
            assert hasattr(module, alias.name), (node.module, alias.name)
            names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def test_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_every_name_a_demo_imports_exists(path):
    tree = ast.parse(path.read_text())
    names = _imported(tree)
    assert names, "demo imports nothing from nlstab"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and inspect.ismodule(names.get(node.value.id))):
            assert hasattr(names[node.value.id], node.attr), (
                node.value.id, node.attr)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_every_call_a_demo_makes_binds(path):
    tree = ast.parse(path.read_text())
    names = _imported(tree)
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Name) and callable(names.get(func.id)):
            target = names[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and inspect.ismodule(names.get(func.value.id))):
            target = getattr(names[func.value.id], func.attr)
        else:
            continue
        if (any(isinstance(arg, ast.Starred) for arg in call.args)
                or any(kw.arg is None for kw in call.keywords)):
            continue
        # raises TypeError on a dropped parameter or a surplus positional
        inspect.signature(target).bind(
            *call.args, **{kw.arg: kw.value for kw in call.keywords})
