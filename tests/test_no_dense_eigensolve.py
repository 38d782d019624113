"""The package has one eigensolver path: sparse shift-invert.

No call in src/nlstab may reach a dense eigensolver -- ``eig``, ``eigh``,
``eigvals`` or ``eigvalsh`` of scipy.linalg or numpy.linalg, whether
through a module attribute or a name imported from one of them.  Dense
eigensolves belong to the test oracles (tests/oracles.py and the dense
checks of the tests).
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "nlstab"
DENSE = {"eig", "eigh", "eigvals", "eigvalsh"}
LINALG = {"scipy.linalg", "numpy.linalg"}


def _imported(tree):
    """Local names bound to a dense eigensolver by ``from ... import``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in LINALG:
            yield from (alias.asname or alias.name for alias in node.names
                        if alias.name in DENSE)


def _dense_calls(tree):
    local = set(_imported(tree))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if ((isinstance(func, ast.Attribute) and func.attr in DENSE)
                or (isinstance(func, ast.Name) and func.id in local)):
            yield node.lineno


def test_no_dense_eigensolve_in_src():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert "spectra.py" in trees
    calls = ["%s:%d" % (module, line)
             for module, tree in trees.items()
             for line in _dense_calls(tree)]
    assert not calls, "dense eigensolves in the package: %s" % calls


def test_the_guard_sees_every_spelling():
    source = "\n".join([
        "import numpy as np", "import scipy.linalg",
        "from scipy.linalg import eigh as dense",
        "np.linalg.eig(a)", "scipy.linalg.eigvalsh(a)", "dense(a)",
        "spl.eigsh(a, k=2)", "eigvals(a)"])
    assert list(_dense_calls(ast.parse(source))) == [4, 5, 6]
