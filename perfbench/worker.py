"""Run one workload in this process: set-up, timed rounds, then checks.

``run.py`` starts this script in a fresh interpreter with the BLAS thread
variables already set, and reads the JSON record it writes to ``--result``.
Set-up runs from process start (``--spawned``, a CLOCK_MONOTONIC reading
taken by the parent just before the start) through imports and input
generation.  The timed interval covers only calls into nlstab; outputs are
reduced, referenced and checked after it.
"""

import argparse
import ctypes
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np
import scipy

import nlstab
from tracer import Tracer
from workloads import WORKLOADS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def blas_threads():
    """Thread count in effect of every OpenBLAS loaded, asked of OpenBLAS.

    numpy and scipy each bundle their own OpenBLAS; both are listed.
    """
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.rsplit("/", 1)[-1]})
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                get = getattr(lib, symbol)
                get.argtypes = []
                get.restype = ctypes.c_int
                counts[os.path.basename(path)] = get()
    return counts


def versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
    }


def run_delay():
    """Seconds this thread has waited runnable but off the CPU."""
    with open("/proc/self/schedstat") as fh:
        return int(fh.read().split()[1]) / 1e9


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run(args):
    workload = WORKLOADS[args.workload](args.seed, args.out)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        return {"setup_s": setup_s}
    threads = blas_threads()
    if not threads or set(threads.values()) != {1}:
        raise SystemExit("BLAS not pinned to one thread: %r" % threads)

    rounds = []
    timed = 0.0
    first_out = None
    tracer = None
    while True:
        round_dir = os.path.join(args.out, "round%d" % len(rounds))
        os.makedirs(round_dir)
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        delay0 = run_delay()
        start = time.perf_counter()
        if args.trace:
            tracer = Tracer()
            with tracer:
                out, failed = workload.run_round(round_dir)
        else:
            out, failed = workload.run_round(round_dir)
        wall = time.perf_counter() - start
        delay = run_delay() - delay0
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        timed += wall
        rounds.append({
            "wall_s": wall,
            "cpu_s": (usage1.ru_utime - usage0.ru_utime
                      + usage1.ru_stime - usage0.ru_stime),
            "sys_s": usage1.ru_stime - usage0.ru_stime,
            "run_delay_s": delay,
            "involuntary_switches": usage1.ru_nivcsw - usage0.ru_nivcsw,
            "failed": failed,
            "result": workload.result(out) if out is not None else None,
            "artifacts": {os.path.basename(p): sha256(p)
                          for p in workload.artifact_paths(round_dir)}
            if out is not None else None,
        })
        if first_out is None and out is not None:
            first_out = out
        # a traced run is one round, so its counts do not depend on timing
        if args.trace or timed >= args.seconds:
            break
    peak_rss_mb = usage1.ru_maxrss / 1024.0

    fails = []
    results = [r["result"] for r in rounds if r["result"] is not None]
    reference = workload.reference(first_out) if first_out is not None else {}
    for res in results:
        fails += workload.check(res, reference)
    whole = [r["result"] for r in rounds if r["failed"] == 0]
    selftest = None
    if whole:
        rejected = workload.check(workload.mutate(whole[0]), reference)
        selftest = {"mutation": workload.mutate.__doc__.strip(),
                    "rejected_by": rejected}
        if not rejected:
            fails.append("self-test: the check accepted a wrong result (%s)"
                         % selftest["mutation"])
    hashes = [r["artifacts"] for r in rounds if r["artifacts"] is not None]
    if any(h != hashes[0] for h in hashes):
        fails.append("artifacts differ between rounds")
    trace = None
    if tracer is not None:
        trace = tracer.metrics()
        gap = tracer.balance(trace)
        if abs(gap) > 1e-6:
            fails.append("layer self times and outside time miss the traced"
                         " wall by %.3g s" % gap)
        with open(os.path.join(args.out, "spans.json"), "w") as fh:
            json.dump(tracer.spans(), fh)

    return {
        "setup_s": setup_s,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "attempted": workload.ops_per_round * len(rounds),
        "failed": sum(r["failed"] for r in rounds),
        "fails": fails,
        "reference": reference,
        "selftest": selftest,
        "blas_threads": threads,
        "versions": versions(),
        "trace": trace,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.abspath(nlstab.__file__).startswith(SRC + os.sep):
        raise SystemExit("nlstab imported from %s, not from %s"
                         % (nlstab.__file__, SRC))
    record = run(args)
    with open(args.result, "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    return 0


if __name__ == "__main__":
    sys.exit(main())
