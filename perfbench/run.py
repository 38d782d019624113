"""nlstab benchmark: three paper workloads, timed end to end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Each workload runs in a fresh interpreter whose
environment pins OpenBLAS, OpenMP and MKL to one thread before numpy
loads; the worker asks OpenBLAS for its thread count and refuses to run
on any other.  With ``--trace 0`` the run reports the end-to-end metrics
(``wall_s``, ``cpu_s``, ``peak_rss_mb``, ``setup_s``); with ``--trace 1``
it runs the workload once untraced and once traced, in two processes, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object; a record of the run, with versions,
BLAS threads, seeds, references and checks, is written to
``perfbench/out/<workload>/run.json``.  See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("slow-branch-2d", "transverse-band-1d", "unstable-manifold-1d")
SETUP_SAMPLES = 5          # set-up is timed in this many processes per run
TIME_LIMIT_S = 170.0       # one workload's processes, all together
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(workload, role, args, deadline, trace=0, setup_only=False):
    """Run worker.py in a fresh interpreter and return its record."""
    out = os.path.join(OUT, workload, role)
    os.makedirs(out)
    result = os.path.join(out, "result.json")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("%s: out of time before %s" % (workload, role))
    spawned = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--spawned", repr(spawned),
           "--out", out, "--result", result]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("%s %s: no result within the time limit"
                         % (workload, role))
    if proc.returncode != 0:
        raise BenchError("%s %s: worker exited with code %d"
                         % (workload, role, proc.returncode))
    with open(result) as fh:
        return json.load(fh)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_workload(workload, args):
    """Measure one workload; returns (metrics, attempted, failed, fails)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    shutil.rmtree(os.path.join(OUT, workload), ignore_errors=True)
    if args.trace:
        base = spawn(workload, "untraced", args, deadline)
        traced = spawn(workload, "traced", args, deadline, trace=1)
        records = [base, traced]
        metrics = dict(traced["trace"])
        untraced_wall = statistics.median(r["wall_s"] for r in base["rounds"])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
        fails = list(base["fails"]) + list(traced["fails"])
        # the two processes are the runs of one invocation
        first = [r["artifacts"] for r in (base["rounds"][0],
                                          traced["rounds"][0])]
        if None not in first and first[0] != first[1]:
            fails.append("artifacts of the traced run differ")
        units = {name: "count" if isinstance(value, int) else "s"
                 for name, value in metrics.items()}
    else:
        main = spawn(workload, "main", args, deadline)
        probes = [spawn(workload, "setup%d" % i, args, deadline,
                        setup_only=True)
                  for i in range(1, SETUP_SAMPLES)]
        records = [main]
        setups = [main["setup_s"]] + [p["setup_s"] for p in probes]
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in main["rounds"]),
            "cpu_s": statistics.median(r["cpu_s"] for r in main["rounds"]),
            "peak_rss_mb": main["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        fails = list(main["fails"])
        units = END_TO_END_UNITS
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "attempted": attempted, "failed": failed, "fails": fails,
        "metrics": metrics, "processes": records,
    }
    with open(os.path.join(OUT, workload, "run.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    shown = {name: {"value": value, "unit": units[name]}
             for name, value in metrics.items()}
    return shown, attempted, failed, fails


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nlstab", "__init__.py")):
        print("no nlstab sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, fails = {}, 0, 0, []
    try:
        for name in names:
            shown, n_att, n_fail, n_bad = run_workload(name, args)
            prefix = "" if len(names) == 1 else name + "."
            for key, val in shown.items():
                metrics[prefix + key] = val
                print("%-20s %-38s %.6g %s" % (name, key, val["value"],
                                                val["unit"]))
            print("%-20s operations attempted %d, failed %d"
                  % (name, n_att, n_fail))
            for line in n_bad:
                print("%-20s CHECK FAILED: %s" % (name, line))
            attempted += n_att
            failed += n_fail
            fails += n_bad
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"correct": not fails, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
