"""The benchmark's three workloads: inputs, timed operations and checks.

Each workload builds its inputs from the seed (set-up), runs one round of
operations (timed), reduces the round's outputs to plain numbers, computes
its references apart from the timed calls, and checks the numbers against
them.  ``mutate`` returns a deliberately wrong copy of a result that the
check must reject; every run feeds it to the check as a self-test.

An operation is one CLI command or one pipeline stage whose output is
checked.  A stage that raises, or a CLI command that exits non-zero,
fails; a checked output that disagrees with its reference makes the run
incorrect.
"""

import copy
import csv
import json
import os
import sys
import traceback

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

# the timed calls go through the module attributes, which the tracer wraps
from nlstab import cli, dynamics, operators, profiles, spectra
from nlstab.functionals import momentum
from nlstab.grid import GridSpec, PairField, hydro_to_uv
from nlstab.nonlinearity import cq_constants

CQ_ALPHAS = (0.2, 1.0, 1.0)


def _fail(stage):
    print("operation %s failed:\n%s" % (stage, traceback.format_exc()),
          file=sys.stderr)


class Workload:
    ops_per_round = 1
    artifacts = ()      # files of a round compared byte for byte

    def artifact_paths(self, round_dir):
        return [os.path.join(round_dir, name) for name in self.artifacts]


class CliWorkload(Workload):
    """One CLI command from a fixed config; its artifacts are compared."""

    config = ()

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.config_path = os.path.join(out_dir, "run.cfg")
        with open(self.config_path, "w") as fh:
            fh.write("\n".join(self.config) + "\n")

    def run_round(self, round_dir):
        """Timed: the CLI command.  Returns (outputs, failed operations)."""
        try:
            code = cli.main(["--config", self.config_path, "--out", round_dir,
                             "--seed", str(self.seed)])
        except Exception:
            _fail(self.config[0])
            return None, 1
        if code != 0:
            print("%s exited with code %d" % (self.config[0], code),
                  file=sys.stderr)
            return None, 1
        return round_dir, 0


class SlowBranch2D(CliWorkload):
    """`branch` on cubic-quintic (0.2, 1, 1), 2D radial bubble, N=64, L=30."""

    name = "slow-branch-2d"
    grid_n, grid_l = 64, 30.0
    speeds = (-0.004, 0.0, 0.004, 0.01, 0.02, 0.03)
    config = ("command=branch",
              "nonlinearity.kind=cubic-quintic",
              "nonlinearity.alpha1=%r" % CQ_ALPHAS[0],
              "nonlinearity.alpha3=%r" % CQ_ALPHAS[1],
              "nonlinearity.alpha5=%r" % CQ_ALPHAS[2],
              "grid.dim=2", "grid.N=%d" % grid_n, "grid.L=%r" % grid_l,
              "speed.list=" + ",".join("%r" % c for c in speeds))
    artifacts = ("branch.csv", "branch.json")

    def result(self, round_dir):
        with open(os.path.join(round_dir, "branch.json")) as fh:
            verdict = json.load(fh)["verdict"]
        with open(os.path.join(round_dir, "branch.csv")) as fh:
            rows = list(csv.DictReader(fh))
        return {
            "verdict": verdict,
            "c": [float(r["c"]) for r in rows],
            "P": [float(r["P"]) for r in rows],
            "dpdc": [float(r["dPdc"]) if r["dPdc"] else None for r in rows],
        }

    def reference(self, _round_dir):
        """Linear response -1/2 <M2^-1 d rho, d rho> at the c=0 bubble.

        M2 is the phase block of the ghost-corrected Mc Jacobian, with the
        phase constant pinned by a bordering row of ones.
        """
        k = cq_constants(*CQ_ALPHAS)
        grid = GridSpec(2, self.grid_l, self.grid_n)
        bubble = profiles.stationary_bubble(k, "radial-2D", grid)
        op = operators.assemble("Mc", base=bubble, c=0.0, spec=k.spec)
        n = grid.size
        m2 = operators.ghost_jacobian(op)[n:, n:].tocsr()
        drho = profiles.translation_mode(bubble.profile).c1.ravel()
        ones = sp.csr_matrix(np.ones(n))
        bordered = sp.bmat([[m2, ones.T], [ones, None]], format="csc")
        y = spsolve(bordered, np.concatenate([drho, [0.0]]))[:n]
        return {"dpdc_linear_response": -0.5 * float(y @ drho)
                * grid.cell_volume}

    @staticmethod
    def check(res, ref):
        fails = []
        if res["verdict"] != "unstable (dP/dc<0)":
            fails.append("verdict %r" % res["verdict"])
        interior = [(c, d) for c, d in zip(res["c"], res["dpdc"])
                    if d is not None]
        if len(interior) != len(res["c"]) - 2:
            fails.append("%d interior dP/dc" % len(interior))
        for c, d in interior:
            if not d < 0.0:
                fails.append("dP/dc(%g) = %.6g is not below 0" % (c, d))
        at_rest = [d for c, d in interior if c == 0.0]
        oracle = ref["dpdc_linear_response"]
        if len(at_rest) != 1 or not (abs(at_rest[0] - oracle)
                                     <= 0.05 * abs(oracle)):
            fails.append("dP/dc(0) = %s against linear response %.6g"
                         % (at_rest, oracle))
        p = dict(zip(res["c"], res["P"]))
        if not abs(p[-0.004] + p[0.004]) <= 1e-5 * abs(p[0.004]):
            fails.append("P(-0.004) = %.12g, P(0.004) = %.12g are not odd"
                         % (p[-0.004], p[0.004]))
        return fails

    @staticmethod
    def mutate(res):
        """Flip the sign of dP/dc at c = 0.02."""
        bad = copy.deepcopy(res)
        i = bad["c"].index(0.02)
        bad["dpdc"][i] = -bad["dpdc"][i]
        return bad


class TransverseBand1D(CliWorkload):
    """`transversal` on the c=0 GP dark soliton, N=2048, L=40, hamN=512."""

    name = "transverse-band-1d"
    n_samples = 5
    config = ("command=transversal", "nonlinearity.kind=gp",
              "grid.N=2048", "grid.L=40", "speed.c=0.0",
              "transversal.samples=%d" % n_samples, "transversal.hamN=512")
    artifacts = ("band.csv", "band.json")

    def result(self, round_dir):
        with open(os.path.join(round_dir, "band.json")) as fh:
            band = json.load(fh)
        with open(os.path.join(round_dir, "band.csv")) as fh:
            rows = list(csv.DictReader(fh))
        return {
            "lambda0": band["lambda0"],
            "band": list(band["band"]),
            "samples": [(float(r["k"]), float(r["lambda_u"]), int(r["n_neg"]))
                        for r in rows],
        }

    def reference(self, _round_dir):
        """Poschl-Teller: lambda0 = -1/2, so the band is (0, 1/sqrt(2))."""
        return {"lambda0": -0.5, "band": (0.0, np.sqrt(0.5))}

    @classmethod
    def check(cls, res, ref):
        fails = []
        if not abs(res["lambda0"] - ref["lambda0"]) <= 5e-3:
            fails.append("lambda0 = %.8g" % res["lambda0"])
        lo, hi = res["band"]
        if not (abs(lo - ref["band"][0]) <= 1e-2
                and abs(hi - ref["band"][1]) <= 1e-2):
            fails.append("band (%.6g, %.6g)" % (lo, hi))
        inside = [s for s in res["samples"] if lo < s[0] < hi]
        outside = [s for s in res["samples"] if not lo < s[0] < hi]
        if len(inside) != cls.n_samples or len(outside) != 1:
            fails.append("%d samples inside, %d outside"
                         % (len(inside), len(outside)))
        for k, rate, n_neg in inside:
            if not (rate > 0.0 and n_neg == 1):
                fails.append("k=%.6g inside: rate %.6g, n_neg %d"
                             % (k, rate, n_neg))
        for k, rate, n_neg in outside:
            if not (rate == 0.0 and n_neg == 0):
                fails.append("k=%.6g outside: rate %.6g, n_neg %d"
                             % (k, rate, n_neg))
        return fails

    @staticmethod
    def mutate(res):
        """Move the band's upper end by 0.05."""
        bad = copy.deepcopy(res)
        bad["band"][1] += 0.05
        return bad


class UnstableManifold1D(Workload):
    """Line bubble on L=200, N=1024: dichotomy basis, growth test, rate run.

    The settings are those of acceptance criteria 10 and 11; the random
    draws of the growth test come from the benchmark's seed.
    """

    name = "unstable-manifold-1d"
    ops_per_round = 4
    stages = ("branch", "basis", "growth", "nonlinear")
    dc = 0.01

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.k = cq_constants(*CQ_ALPHAS)
        self.grid = GridSpec(1, 200.0, 1024)

    def run_round(self, _round_dir):
        """Timed: the four stages.  A stage that raises fails the rest."""
        out = {}
        done = 0
        try:
            bubble = profiles.stationary_bubble(self.k, "line", self.grid)
            lo = profiles.continue_branch(bubble, [-self.dc])[0]
            hi = profiles.continue_branch(bubble, [self.dc])[0]
            out["branch"] = (lo, bubble, hi)
            done = 1
            basis = spectra.dichotomy_basis(bubble, 0.0, [lo, bubble, hi],
                                            spec=self.k.spec)
            out["basis"] = basis
            done = 2
            out["growth"] = dynamics.dichotomy_growth_test(
                basis, T=20.0, dt=5e-3, n_draws=20,
                rng=np.random.default_rng(self.seed))
            done = 3
            pert = operators.tc_map(basis.w_u, bubble)
            u0_field = hydro_to_uv(bubble.profile)
            eps = 1e-4
            u0 = PairField(self.grid, u0_field.c1 + eps * pert.c1,
                           u0_field.c2 + eps * pert.c2, "uv")
            out["nonlinear"] = dynamics.evolve_nonlinear(
                u0, 0.0, self.k.spec, np.log(2e3) / basis.rate, 0.02,
                corrections=2, background=u0_field, basis=basis,
                base_wave=bubble, monitor_every=10, drift_guard=None,
                momentum_kind="hydro")
            done = 4
        except Exception:
            _fail(self.stages[done])
        return out, self.ops_per_round - done

    def result(self, out):
        res = {}
        if "branch" in out:
            lo, _, hi = out["branch"]
            p_lo = momentum(lo.profile, "hydro", self.k.spec)
            p_hi = momentum(hi.profile, "hydro", self.k.spec)
            res["dpdc"] = (p_hi - p_lo) / (hi.c - lo.c)
        if "basis" in out:
            res["rate"] = out["basis"].rate
        if "growth" in out:
            growth = out["growth"]
            for key in ("backward_slope", "cs_slope_max", "center_bound_max"):
                res[key] = growth[key]
        if "nonlinear" in out:
            times, proj = out["nonlinear"].series("proj_u")
            proj = np.abs(proj)
            window = (proj >= 10 * proj[0]) & (proj <= 1e-2)
            res["nonlinear_slope"] = dynamics.fit_log_slope(times[window],
                                                            proj[window])
        return res

    def reference(self, out):
        """sqrt(-min eig(M2 M1)) from the blocks of the basis operator.

        At c = 0 the hydro operator is block diagonal, so (J op)^2 =
        -diag(M2 M1, M1 M2) and the real growth rate squares to
        -min eig(M2 M1).
        """
        if "basis" not in out:
            return {}
        mat = out["basis"].op.matrix
        n = self.grid.size
        m1 = mat[:n, :n].toarray()
        m2 = mat[n:, n:].toarray()
        lam = scipy.linalg.eigvals(m2 @ m1).real.min()
        return {"rate": float(np.sqrt(-lam))}

    @staticmethod
    def check(res, ref):
        fails = []
        rate = res.get("rate")
        if rate is not None and not abs(rate - ref["rate"]) <= 1e-4:
            fails.append("rate %.8g against sqrt(-min eig(M2 M1)) %.8g"
                         % (rate, ref["rate"]))
        if "backward_slope" in res and not (
                abs(res["backward_slope"] + rate) <= 0.05 * rate):
            fails.append("backward slope %.6g against rate %.6g"
                         % (res["backward_slope"], rate))
        if "cs_slope_max" in res and not res["cs_slope_max"] <= 1e-3:
            fails.append("center-stable slope %.3g" % res["cs_slope_max"])
        if "center_bound_max" in res and not res["center_bound_max"] <= 10.0:
            fails.append("center bound %.3g" % res["center_bound_max"])
        if "nonlinear_slope" in res and not (
                abs(res["nonlinear_slope"] - rate) <= 0.10 * rate):
            fails.append("nonlinear slope %.6g against rate %.6g"
                         % (res["nonlinear_slope"], rate))
        if "dpdc" in res and not res["dpdc"] < 0.0:
            fails.append("dP/dc on (-0.01, 0.01) = %.6g" % res["dpdc"])
        return fails

    @staticmethod
    def mutate(res):
        """Scale the unstable rate by 1.01."""
        bad = dict(res)
        bad["rate"] = 1.01 * bad["rate"]
        return bad


WORKLOADS = {cls.name: cls for cls in (SlowBranch2D, TransverseBand1D,
                                       UnstableManifold1D)}
