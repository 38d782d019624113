"""The benchmark's call surface exists in the package.

`perfbench/workloads.py` drives the package through module attributes
(`cli.main`, `spectra.dichotomy_basis`, ...) and a few direct imports.
The benchmark directory is fixed between runs that are compared, so a
change to the package must keep every name it reads and every keyword it
passes.  The workloads are parsed, not imported, so this needs none of
the benchmark's own set-up.  The tracer, which patches the package from
outside, is loaded from its file and installed on the package.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import pkgutil

import numpy as np

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"
MODULES = ("cli", "dynamics", "operators", "profiles", "spectra")
BOUND = ("dynamics.evolve_nonlinear", "spectra.dichotomy_basis",
         "dynamics.dichotomy_growth_test")


def _tree():
    return ast.parse(WORKLOADS.read_text())


def _dotted(node):
    """'module.attr' for an attribute read on one of MODULES, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in MODULES):
        return "%s.%s" % (node.value.id, node.attr)
    return None


def _resolve(dotted):
    module, attr = dotted.split(".")
    return getattr(importlib.import_module("nlstab." + module), attr)


def test_every_module_attribute_the_benchmark_reads_exists():
    read = {_dotted(node) for node in ast.walk(_tree())} - {None}
    assert {"cli.main", "profiles.translation_mode",
            "spectra.dichotomy_basis"} <= read
    missing = []
    for dotted in sorted(read):
        try:
            _resolve(dotted)
        except AttributeError:
            missing.append(dotted)
    assert not missing, "benchmark reads missing names: %s" % missing


def test_every_name_the_benchmark_imports_exists():
    for node in ast.walk(_tree()):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("nlstab"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (node.module, alias.name)


def test_the_benchmark_calls_bind_to_their_signatures():
    calls = [node for node in ast.walk(_tree())
             if isinstance(node, ast.Call) and _dotted(node.func) in BOUND]
    assert {_dotted(call.func) for call in calls} == set(BOUND)
    for call in calls:
        signature = inspect.signature(_resolve(_dotted(call.func)))
        # raises TypeError on a dropped parameter or a surplus positional
        signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})


def test_every_kind_the_benchmark_assembles_exists():
    # a kind is a string, not a name or a keyword: without this check a
    # kind the benchmark assembles could be deleted with Tier-1 passing
    from nlstab.operators import SYMMETRIC_KINDS
    kinds = set()
    for call in ast.walk(_tree()):
        if isinstance(call, ast.Call) and (_dotted(call.func)
                                           == "operators.assemble"):
            kind = (call.args[0] if call.args else
                    next(kw.value for kw in call.keywords if kw.arg == "kind"))
            if isinstance(kind, ast.Constant):
                kinds.add(kind.value)
    assert kinds, "the benchmark assembles no literal kind"
    assert kinds <= set(SYMMETRIC_KINDS), kinds - set(SYMMETRIC_KINDS)


def test_every_benchmark_config_key_is_one_its_command_reads():
    # a CLI workload's config is a tuple of "key=value" strings, some
    # formatted with %; run refuses a key outside its command's KEYS
    from nlstab.cli import KEYS
    configs = {}
    for node in _tree().body:
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            target = stmt.targets[0] if isinstance(stmt, ast.Assign) else None
            if (isinstance(target, ast.Name) and target.id == "config"
                    and stmt.value.elts):
                lines = [elt.left if isinstance(elt, ast.BinOp) else elt
                         for elt in stmt.value.elts]
                keys = [line.value.split("=")[0] for line in lines]
                configs[node.name] = (lines[0].value.split("=")[1], keys[1:])
    assert {"SlowBranch2D", "TransverseBand1D"} <= set(configs)
    for name, (command, keys) in configs.items():
        assert set(keys) <= KEYS[command], (name, set(keys) - KEYS[command])


def test_the_benchmarks_bubbles_are_stored_as_density_and_phase(
        wide_bubble_basis, bubble_2d):
    # unstable-manifold-1d calls hydro_to_uv(bubble.profile), which raises
    # on a (u1, u2) profile, and slow-branch-2d's reference reads
    # translation_mode(bubble.profile).c1 as the derivative of the
    # density: a bubble stored in (u1, u2) needs a new workload version
    from nlstab.grid import hydro_to_uv
    geometries = {call.args[1].value for call in ast.walk(_tree())
                  if isinstance(call, ast.Call) and _dotted(call.func)
                  == "profiles.stationary_bubble"}
    assert geometries == {"line", "radial-2D"}
    for bubble in (wide_bubble_basis[0], bubble_2d):
        assert bubble.profile.rep == "hydro"
        assert hydro_to_uv(bubble.profile).rep == "uv"


def _growth_keys():
    """The keys ``UnstableManifold1D.result`` copies from the growth
    report: the constants of the loop that reads ``growth[key]``."""
    cls = next(node for node in _tree().body
               if isinstance(node, ast.ClassDef)
               and node.name == "UnstableManifold1D")
    result = next(node for node in cls.body
                  if isinstance(node, ast.FunctionDef) and node.name == "result")
    keys = set()
    for loop in ast.walk(result):
        if not isinstance(loop, ast.For):
            continue
        reads = {node.slice.id for node in ast.walk(loop)
                 if isinstance(node, ast.Subscript)
                 and isinstance(node.value, ast.Name)
                 and node.value.id == "growth"
                 and isinstance(node.slice, ast.Name)}
        if loop.target.id in reads:
            keys |= {elt.value for elt in loop.iter.elts}
    return keys


def test_the_growth_report_has_every_key_the_benchmark_reads(
        wide_bubble_basis):
    from nlstab.dynamics import dichotomy_growth_test
    keys = _growth_keys()
    assert {"backward_slope", "cs_slope_max", "center_bound_max"} <= keys
    _, _, basis = wide_bubble_basis
    report = dichotomy_growth_test(basis, T=2.0, dt=5e-3, n_draws=4)
    assert keys <= set(report)


def _package_attributes():
    import nlstab
    from nlstab.dynamics import NonlinearStepper
    modules = [nlstab] + [importlib.import_module("nlstab." + info.name)
                          for info in pkgutil.iter_modules(nlstab.__path__)]
    owners = modules + [NonlinearStepper]
    return {(owner, attr): obj for owner in owners
            for attr, obj in list(vars(owner).items())}


def test_the_tracer_wraps_the_nonlinear_step_and_restores_every_name():
    # dynamics.step_s and dynamics.s_per_nonlinear_step come from the
    # wrapped NonlinearStepper.step
    from nlstab.dynamics import NonlinearStepper
    from nlstab.grid import GridSpec
    from nlstab.nonlinearity import NonlinearitySpec
    from nlstab.profiles import dark_soliton
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)

    before = _package_attributes()
    step = NonlinearStepper.step
    gp = NonlinearitySpec.gp()
    wave = dark_soliton(0.5, GridSpec(1, 40.0, 256), gp)
    stepper = NonlinearStepper(wave.profile.as_complex(), 0.5, gp,
                               wave.profile.grid, 1e-2)
    with tracer_module.Tracer() as tracer:
        during = _package_attributes()
        assert NonlinearStepper.step is not step
        assert NonlinearStepper.step.__wrapped__ is step
        stepper.step(np.zeros(wave.profile.grid.size, dtype=complex))
    patched = [key for key, obj in before.items() if during[key] is not obj]
    assert (NonlinearStepper, "step") in patched and len(patched) > 1
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())
    metrics = tracer.metrics()
    assert metrics["dynamics.nonlinear_steps"] == 1
    assert metrics["dynamics.step_s"] > 0.0
