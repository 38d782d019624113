"""The package neither sets nor reads a thread or core count.

Results must not depend on the machine they run on, and BLAS threads come
from the environment at start-up (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS``).  So no module of src/nlstab may import ``ctypes``,
call ``os.sched_getaffinity``, ``os.sched_setaffinity`` or
``os.cpu_count`` (through the module or a name imported from it), or
name a path under ``/proc/``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "nlstab"
CORES = {"sched_getaffinity", "sched_setaffinity", "cpu_count"}


def _machine_reads(tree):
    """Line numbers of ctypes imports, core-count calls and /proc/ paths."""
    local = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "os"
             for alias in node.names if alias.name in CORES}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(alias.name.split(".")[0] == "ctypes"
                      for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").split(".")[0] == "ctypes"
        elif isinstance(node, ast.Call):
            func = node.func
            hit = ((isinstance(func, ast.Attribute) and func.attr in CORES
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "os")
                   or (isinstance(func, ast.Name) and func.id in local))
        elif isinstance(node, ast.Constant):
            hit = isinstance(node.value, str) and "/proc/" in node.value
        else:
            hit = False
        if hit:
            yield node.lineno


def test_no_thread_or_core_count_in_src():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert "dynamics.py" in trees and "cli.py" in trees
    reads = ["%s:%d" % (module, line)
             for module, tree in trees.items()
             for line in _machine_reads(tree)]
    assert not reads, "thread or core counts in the package: %s" % reads


def test_the_guard_sees_every_spelling():
    source = "\n".join([
        "import os", "import ctypes", "from ctypes import CDLL",
        "import ctypes.util as cu", "from os import cpu_count as cores",
        "os.sched_getaffinity(0)", "os.sched_setaffinity(0, {0})",
        "os.cpu_count() or 1", "cores()", "open('/proc/self/maps')",
        "os.getpid()", "len(x)", "'/procedure'", "os.path.join('a', 'b')"])
    assert sorted(_machine_reads(ast.parse(source))) == [2, 3, 4, 6, 7, 8, 9,
                                                         10]
