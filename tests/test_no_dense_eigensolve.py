"""The package has one eigensolver path: sparse shift-invert.

No call in src/nlstab may reach a dense eigensolver -- ``eig``, ``eigh``,
``eigvals`` or ``eigvalsh`` of scipy.linalg or numpy.linalg, whether
through a module attribute or a name imported from one of them.  Dense
eigensolves belong to the test oracles (tests/oracles.py and the dense
checks of the tests).

Every ARPACK call -- ``eigs`` or ``eigsh`` of scipy.sparse.linalg -- stops
at the one tolerance ``tol=_ARPACK_TOL`` of ``nlstab.spectra``; a literal
tolerance or a missing ``tol`` (ARPACK's default, machine precision) is
a second tolerance policy.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "nlstab"
DENSE = {"eig", "eigh", "eigvals", "eigvalsh"}
LINALG = {"scipy.linalg", "numpy.linalg"}
ARPACK = {"eigs", "eigsh"}
TOL = "_ARPACK_TOL"


def _imported(tree, modules, names):
    """Local names bound to one of ``names`` by ``from ... import``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in modules:
            yield from (alias.asname or alias.name for alias in node.names
                        if alias.name in names)


def _calls(tree, modules, names):
    """Calls of ``names``, through an attribute or an imported name."""
    local = set(_imported(tree, modules, names))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if ((isinstance(func, ast.Attribute) and func.attr in names)
                or (isinstance(func, ast.Name) and func.id in local)):
            yield node


def _dense_calls(tree):
    for node in _calls(tree, LINALG, DENSE):
        yield node.lineno


def _untoleranced_arpack_calls(tree):
    """ARPACK calls whose ``tol`` is not the name ``_ARPACK_TOL``."""
    for node in _calls(tree, {"scipy.sparse.linalg"}, ARPACK):
        tol = [kw.value for kw in node.keywords if kw.arg == "tol"]
        if not (tol and isinstance(tol[0], ast.Name) and tol[0].id == TOL):
            yield node.lineno


def _src_trees():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert "spectra.py" in trees
    return trees


def test_no_dense_eigensolve_in_src():
    calls = ["%s:%d" % (module, line)
             for module, tree in _src_trees().items()
             for line in _dense_calls(tree)]
    assert not calls, "dense eigensolves in the package: %s" % calls


def test_every_arpack_call_in_src_takes_the_one_tolerance():
    trees = _src_trees()
    assert list(_calls(trees["spectra.py"], set(), ARPACK))
    calls = ["%s:%d" % (module, line)
             for module, tree in trees.items()
             for line in _untoleranced_arpack_calls(tree)]
    assert not calls, "ARPACK calls without tol=%s: %s" % (TOL, calls)


def test_the_guard_sees_every_spelling():
    source = "\n".join([
        "import numpy as np", "import scipy.linalg",
        "from scipy.linalg import eigh as dense",
        "np.linalg.eig(a)", "scipy.linalg.eigvalsh(a)", "dense(a)",
        "spl.eigsh(a, k=2)", "eigvals(a)"])
    assert list(_dense_calls(ast.parse(source))) == [4, 5, 6]


def test_the_tolerance_guard_sees_every_spelling():
    source = "\n".join([
        "from scipy.sparse.linalg import eigs as arnoldi",
        "spl.eigsh(a, k=2, tol=_ARPACK_TOL)",
        "spl.eigsh(a, k=2, tol=0.0)", "spl.eigs(a, k=2)",
        "arnoldi(a, tol=1e-10)", "arnoldi(a, k=1, tol=_ARPACK_TOL)",
        "spl.eigs(a, tol=tol)", "eigsh(a)"])
    assert list(_untoleranced_arpack_calls(ast.parse(source))) == [3, 4, 5, 7]
