"""Span tracer that times the layers of nlstab from outside the package.

Every public module-level function of a layer module is replaced, in
every nlstab module that binds it, by a wrapper that records a span.  A
function imported under another name (``dynamics.field_energy`` is
``functionals.energy``) keeps the span name of its defining module.  The
CLI layer is traced at its entry point ``cli.main`` only: its command
functions are reached through a dict and their work is the CLI's own.
``NonlinearStepper.step`` is the one traced method.  ``grid`` and
``nonlinearity`` are leaf helpers called per field or per point; they stay
untraced and their time lands in the self time of their caller.

Spans are kept in memory; ``metrics`` reduces them to the per-layer
numbers and ``spans`` returns them for the run record.
"""

import functools
import importlib
import inspect
import pkgutil
import time

LAYERS = ("cli", "shooting", "profiles", "operators", "spectra", "dynamics",
          "functionals")


def _linear_steps(fn, args, kwargs, per_call):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    steps = int(round(abs(bound.arguments["T"]) / abs(bound.arguments["dt"])))
    return steps * per_call


# counters read from a traced call's arguments or result: span -> (name, fn)
COUNTERS = {
    "shooting.find_alpha0": (
        "shooting.bisections",
        lambda fn, a, k, out: len(out.bracket_history)),
    "profiles.stationary_bubble": (
        "profiles.newton_iters", lambda fn, a, k, out: out.newton_iters),
    "profiles.continue_branch": (
        "profiles.newton_iters",
        lambda fn, a, k, out: sum(w.newton_iters for w in out)),
    "dynamics.evolve_linear": (
        "dynamics.linear_vector_steps",
        lambda fn, a, k, out: _linear_steps(fn, a, k, 1)),
    "dynamics.evolve_linear_pair": (
        "dynamics.linear_vector_steps",
        lambda fn, a, k, out: _linear_steps(fn, a, k, 2)),
}


class _Stat:
    __slots__ = ("calls", "time", "self_time")

    def __init__(self):
        self.calls = 0        # activations not nested in one of this name
        self.time = 0.0       # their inclusive time
        self.self_time = 0.0  # all activations, minus their traced children


class Tracer:
    """Wraps the layer functions while installed and records their spans."""

    def __init__(self):
        self.stats = {}
        self.counts = {}
        self._spans = []      # [name, parent index, start, end]
        self._stack = []      # [span index, time spent in traced children]
        self._active = {}     # name -> activation depth
        self._patches = []
        self._t0 = self._t1 = None

    # -- installation -------------------------------------------------------

    def _targets(self):
        modules = [importlib.import_module("nlstab")]
        pkg = modules[0]
        for info in pkgutil.iter_modules(pkg.__path__):
            modules.append(importlib.import_module("nlstab." + info.name))
        names = {}
        for layer in LAYERS:
            mod = importlib.import_module("nlstab." + layer)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and (layer != "cli" or attr == "main")):
                    names[obj] = "%s.%s" % (layer, attr)
        return modules, names

    def install(self):
        modules, names = self._targets()
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        stepper = importlib.import_module("nlstab.dynamics").NonlinearStepper
        self._patches.append((stepper, "step", stepper.step))
        stepper.step = self._wrap("dynamics.NonlinearStepper.step",
                                  stepper.step)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches = []

    def __enter__(self):
        self.install()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._t1 = time.perf_counter()
        self.uninstall()
        return False

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, _Stat())
        counter = COUNTERS.get(name)
        spans, stack, active = self._spans, self._stack, self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            depth = active.get(name, 0)
            active[name] = depth + 1
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            span = [name, parent, 0.0, 0.0]
            spans.append(span)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] = depth
                span[2], span[3] = start, end
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                stats.self_time += elapsed - frame[1]
                if depth == 0:
                    stats.calls += 1
                    stats.time += elapsed
            if counter is not None:
                key, count = counter
                self.counts[key] = (self.counts.get(key, 0)
                                    + count(fn, args, kwargs, out))
            return out

        return functools.wraps(fn)(traced)

    # -- reduction ----------------------------------------------------------

    def spans(self):
        """Spans as dicts, times relative to the traced interval's start."""
        return [{"name": n, "parent": p, "start": s - self._t0,
                 "end": e - self._t0} for n, p, s, e in self._spans]

    def metrics(self):
        """Per-layer metrics of the traced interval; see README.md."""
        st = self.stats

        def inclusive(*names):
            return sum((st[n].time for n in names if n in st), 0.0)

        def own(*names):
            return sum((st[n].self_time for n in names if n in st), 0.0)

        def calls(name):
            return st[name].calls if name in st else 0

        def ratio(num, den):
            return num / den if den else 0.0

        wall = self._t1 - self._t0
        top = sum(e - s for _, p, s, e in self._spans if p == -1)
        m = {}
        m["cli.self_s"] = own("cli.main")
        m["shooting.find_alpha0_s"] = inclusive("shooting.find_alpha0")
        m["shooting.bisections"] = self.counts.get("shooting.bisections", 0)
        bubble = own("profiles.stationary_bubble")
        branch = own("profiles.continue_branch")
        iters = self.counts.get("profiles.newton_iters", 0)
        m["profiles.stationary_bubble_s"] = bubble
        m["profiles.continue_branch_s"] = branch
        m["profiles.newton_iters"] = iters
        m["profiles.s_per_newton_iter"] = ratio(bubble + branch, iters)
        m["operators.assemble_s"] = inclusive("operators.assemble")
        m["operators.assemble_calls"] = calls("operators.assemble")
        for fn in ("sym_spectrum", "ham_spectrum"):
            m["spectra.%s_s" % fn] = inclusive("spectra." + fn)
            m["spectra.%s_calls" % fn] = calls("spectra." + fn)
        m["spectra.self_s"] = own("spectra.transversal_band",
                                  "spectra.dichotomy_basis")
        linear = inclusive("dynamics.evolve_linear",
                           "dynamics.evolve_linear_pair")
        vector_steps = self.counts.get("dynamics.linear_vector_steps", 0)
        m["dynamics.evolve_linear_s"] = linear
        m["dynamics.linear_vector_steps"] = vector_steps
        m["dynamics.s_per_linear_vector_step"] = ratio(linear, vector_steps)
        step = inclusive("dynamics.NonlinearStepper.step")
        n_step = calls("dynamics.NonlinearStepper.step")
        m["dynamics.step_s"] = step
        m["dynamics.nonlinear_steps"] = n_step
        m["dynamics.s_per_nonlinear_step"] = ratio(step, n_step)
        m["dynamics.self_s"] = own("dynamics.evolve_nonlinear",
                                   "dynamics.dichotomy_growth_test")
        for fn in ("energy", "momentum"):
            m["functionals.%s_s" % fn] = inclusive("functionals." + fn)
            m["functionals.%s_calls" % fn] = calls("functionals." + fn)
        for layer in LAYERS:
            m["%s.module_self_s" % layer] = sum(
                (s.self_time for n, s in st.items()
                 if n.startswith(layer + ".")), 0.0)
        m["trace.wall_s"] = wall
        m["trace.outside_s"] = wall - top
        return m

    def balance(self, metrics):
        """Layer self times plus time outside traced calls, minus wall."""
        return (sum(metrics["%s.module_self_s" % layer] for layer in LAYERS)
                + metrics["trace.outside_s"] - metrics["trace.wall_s"])
