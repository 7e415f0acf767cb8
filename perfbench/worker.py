"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED [--trace] [--inprocess] [--setup-only]
                                              [--scan-jobs J]

The worker sets up (library workloads: ``build_sieve(limit)`` and
``sieve.mobius()``), prints ``READY`` so the parent can time set-up, runs the
task list once and prints one JSON line: wall and CPU time of the pass, peak
RSS, and every task's output.  ``char-family`` runs each command as a
``gcdlab`` subprocess, or with ``--inprocess`` calls ``gcdlab.cli.main``
directly with ``--jobs 1``.  ``--trace`` installs the span recorder first.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  (the benchmark's own module, next to this file)

COMMAND_TIMEOUT_S = 150


def cli_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def timed(name: str, thunk) -> dict:
    t0 = time.perf_counter()
    try:
        out = {"task": name, "output": thunk()}
    except Exception as exc:  # a failing task is counted, not fatal
        out = {"task": name, "error": f"{type(exc).__name__}: {exc}"}
    out["seconds"] = time.perf_counter() - t0
    return out


def run_command(name: str, argv: list[str]) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", workloads.CLI_ENTRY, *argv],
                          capture_output=True, text=True, env=cli_env(),
                          timeout=COMMAND_TIMEOUT_S)
    return {"task": name, "exit": proc.returncode, "stdout": proc.stdout,
            "seconds": time.perf_counter() - t0}


def with_jobs(argv: list[str], jobs: str) -> list[str]:
    if "--jobs" not in argv:
        return argv
    i = argv.index("--jobs") + 1
    return argv[:i] + [jobs] + argv[i + 1 :]


def run_inprocess(name: str, argv: list[str], cli) -> dict:
    argv = with_jobs(argv, "1")  # spans recorded in pool workers would be lost
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as exc:  # a traceback is a failed task
        return {"task": name, "error": f"{type(exc).__name__}: {exc}",
                "seconds": time.perf_counter() - t0}
    return {"task": name, "exit": code, "stdout": buf.getvalue(),
            "seconds": time.perf_counter() - t0}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--inprocess", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--scan-jobs", help="char-family: run only the theta scan, with these jobs")
    args = ap.parse_args()
    prm = workloads.params(args.workload, args.seed)

    import gcdlab
    import gcdlab.cli

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    sieve = None
    if args.workload != "char-family":
        sieve = gcdlab.arith.build_sieve(prm["sieve_limit"])
        sieve.mobius()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if tracer:
        tracer.top_level_s = 0.0
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    if args.workload == "char-family":
        commands = prm["commands"]
        if args.scan_jobs:
            name, *argv = commands[0]
            commands = [[name, *with_jobs(argv, args.scan_jobs)]]
        results = [run_inprocess(name, argv, gcdlab.cli) if args.inprocess
                   else run_command(name, argv)
                   for name, *argv in commands]
    else:
        results = [timed(name, thunk)
                   for name, thunk in workloads.library_tasks(args.workload, prm, gcdlab, sieve)]
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    subprocesses = args.workload == "char-family" and not args.inprocess
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN if subprocesses
                                else resource.RUSAGE_SELF).ru_maxrss
    out = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss_kb / 1024.0, "results": results}
    if tracer:
        out["layers"] = tracer.metrics()
        out["coverage"] = tracer.top_level_s / wall
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
