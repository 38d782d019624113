"""Only the CLI writes files.

The numerical modules of src/nlstab return data; every CSV and JSON
artifact is formatted by nlstab.cli.  The one exception is the binary
field-dump codec, grid.save_binary, which stays next to its reader
grid.load_binary.  An open() call whose mode may write (w, a, x or +,
or a mode that is not a literal) anywhere else fails this test.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "nlstab"
ALLOWED = {("grid.py", "save_binary")}


def _scopes(tree):
    """(name, node) of each module-level statement; a class yields its
    members as Class.member."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield "%s.%s" % (node.name, getattr(item, "name", "")), item
        else:
            yield getattr(node, "name", "<module>"), node


def _mode(call):
    given = call.args[1:2] + [kw.value for kw in call.keywords
                              if kw.arg == "mode"]
    if not given:
        return "r"
    return given[0].value if isinstance(given[0], ast.Constant) else "?"


def _writing_opens(module, tree):
    for scope, node in _scopes(tree):
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            mode = _mode(call)
            if name == "open" and (mode == "?" or set(mode) & set("wax+")):
                yield module, scope, call.lineno


def test_only_the_cli_writes_files():
    writes = [hit for path in sorted(SRC.glob("*.py"))
              for hit in _writing_opens(path.name,
                                        ast.parse(path.read_text()))]
    # the guard sees the writes it allows
    assert ("grid.py", "save_binary") in {hit[:2] for hit in writes}
    assert any(module == "cli.py" for module, _, _ in writes)
    stray = ["%s:%d in %s" % (module, line, scope)
             for module, scope, line in writes
             if module != "cli.py" and (module, scope) not in ALLOWED]
    assert not stray, "files written outside nlstab.cli: %s" % stray
