"""Every private helper of the package has a caller in the package.

A private name (one leading underscore, not a dunder) defined at module
level in src/nlstab -- a function, a class, a constant, or a method of a
module-level class -- must be read somewhere in src/nlstab other than at
its definition.  An import alone is not a read, and tests do not count:
a helper that only tests call belongs in the tests.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "nlstab"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (item.name for item in node.body
                            if isinstance(item, DEFS))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                yield from (name.id for name in ast.walk(target)
                            if isinstance(name, ast.Name))


def _reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.attr


def test_every_private_definition_has_a_reader():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert "profiles.py" in trees
    read = {name for tree in trees.values() for name in _reads(tree)}
    unread = ["%s: %s" % (module, name)
              for module, tree in trees.items()
              for name in _definitions(tree)
              if _private(name) and name not in read]
    assert not unread, "private definitions nobody reads: %s" % unread
