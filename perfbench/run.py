"""gcdlab benchmark: one workload, or all of them, from the root of a checkout.

    python3 perfbench/run.py --workload level-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Each pass runs in a fresh worker process (``worker.py``); passes repeat in a
closed loop with one client, as many as fill ``--seconds`` of set-up plus
pass time (the first pass's time sets the count).  Set-up is timed from
process start to the worker's ``READY`` line.  With ``--trace 0`` the
end-to-end metrics are medians over the passes, times in reference seconds
(see ``CAL_REF_S``); with ``--trace 1`` one untraced and one traced pass give
the per-layer metrics.  Every output is checked (``validate.py``).  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import workloads  # noqa: E402  (the benchmark's own modules, next to this file)
from worker import cli_env  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
TIMES = ("wall_s", "setup_s", "cpu_s")
# the calibration time (calibrate.py) that defines one reference second:
# reported times are measured times x CAL_REF_S / the run's calibration median
CAL_REF_S = 0.15
SETUP_SAMPLES = 7
STARTUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170
IMPORT_CLI = "import gcdlab.cli; print('READY', flush=True)"


class BenchError(RuntimeError):
    pass


def to_ready(cmd: list[str]) -> tuple[float, str]:
    """Start ``cmd``; return (seconds until its READY line, rest of stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=cli_env())
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited with code {code}")
    return ready, rest


def run_pass(workload: str, seed: int, *flags: str) -> dict:
    ready, rest = to_ready([sys.executable, str(HERE / "worker.py"), workload, str(seed), *flags])
    out = json.loads(rest.strip().splitlines()[-1])
    out["setup_s"] = ready
    return out


def setup_sample(workload: str, seed: int) -> float:
    if workload == "char-family":
        return to_ready([sys.executable, "-c", IMPORT_CLI])[0]
    return to_ready([sys.executable, str(HERE / "worker.py"), workload, str(seed), "--setup-only"])[0]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def blas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            try:
                return str(getattr(ctypes.CDLL(lib), fn)())
            except (OSError, AttributeError):
                continue
    return "unknown"


def last_level_cache() -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (0, "unknown")
    for index in base.glob("index*"):
        try:
            level = int((index / "level").read_text())
            best = max(best, (level, f"L{level} {(index / 'size').read_text().strip()}"))
        except (OSError, ValueError):
            continue
    return best[1]


def machine() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "last_level_cache": last_level_cache(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "commit": commit,
        "measured": "only the benchmark's own processes: its workers and their children",
    }


def check(workload: str, seed: int, prm: dict, passes: list[dict],
          use_refs: bool = True) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every task result of every pass."""
    sys.path.insert(0, str(SRC))
    import gcdlab
    import validate

    checker = validate.Checker(workload, seed, prm, gcdlab, use_refs)
    attempted = failed = 0
    messages = []
    for i, out in enumerate(passes):
        for result in out["results"]:
            attempted += 1
            problems = checker.problems(result["task"], result)
            if problems:
                failed += 1
                messages += [f"pass {i + 1} {result['task']}: {p}" for p in problems]
    return attempted, failed, messages


def calibration() -> list[float]:
    proc = subprocess.run([sys.executable, str(HERE / "calibrate.py")], capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(proc.stdout)


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], float]:
    """Untraced passes filling about ``seconds``: per-metric samples as
    measured, the passes, and the median of the calibrations made before
    each pass."""
    cals = calibration()
    passes = [run_pass(workload, seed)]
    count = max(1, round(seconds / (passes[0]["setup_s"] + passes[0]["wall_s"])))
    for _ in range(count - 1):
        cals += calibration()
        passes.append(run_pass(workload, seed))
    setups = [] if workload == "char-family" else [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(workload, seed))
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": setups,
        "cpu_s": [p["cpu_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    return samples, passes, statistics.median(cals)


def measure_traced(workload: str, seed: int) -> tuple[dict, list[dict]]:
    """One untraced and one traced pass (``--jobs 1``, in-process for char-family)."""
    import spans

    mode = ["--inprocess"] if workload == "char-family" else []
    base = run_pass(workload, seed, *mode)
    traced = run_pass(workload, seed, "--trace", *mode)
    passes = [base, traced]
    metrics = dict(traced["layers"])
    metrics["trace.coverage"] = traced["coverage"]
    metrics["trace.overhead"] = traced["wall_s"] / base["wall_s"]
    metrics["cli.startup_s"] = statistics.median(
        to_ready([sys.executable, "-c", IMPORT_CLI])[0] for _ in range(STARTUP_SAMPLES))
    metrics["cli.theta_scan.parallel_eff"] = 0.0
    if workload == "char-family":
        scans = {}
        for jobs in ("1", "2"):
            out = run_pass(workload, seed, "--scan-jobs", jobs)
            passes.append(out)
            scans[jobs] = out["results"][0]["seconds"]
        metrics["cli.theta_scan.parallel_eff"] = scans["1"] / (2.0 * scans["2"])
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    return {name: (metrics[name], units[name]) for name in units}, passes


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    prm = workloads.params(workload, seed)
    to_ready([sys.executable, "-c", IMPORT_CLI])  # compile bytecode before timing
    summary, cal = {}, None
    if trace:
        values, passes = measure_traced(workload, seed)
    else:
        samples, passes, cal = measure(workload, seed, seconds)
        for name, v in samples.items():
            scale = CAL_REF_S / cal if name in TIMES else 1.0
            summary[name] = quartiles([x * scale for x in v]) + (len(v), scale)
        values = {name: (summary[name][1], END_TO_END[name]) for name in END_TO_END}
    attempted, failed, messages = check(workload, seed, prm, passes)
    return {"workload": workload, "passes": len(passes), "values": values, "summary": summary,
            "cal": cal, "attempted": attempted, "failed": failed, "messages": messages}


def report(res: dict) -> None:
    print(f"workload {res['workload']}: {res['passes']} passes, closed loop, one client")
    if res["cal"]:
        print(f"  times in reference seconds: measured x {CAL_REF_S / res['cal']:.4f} "
              f"(calibration median {res['cal']:.4f} s, reference {CAL_REF_S} s)")
    for name, (value, unit) in res["values"].items():
        if name in res["summary"]:
            q1, med, q3, n, scale = res["summary"][name]
            measured = f", measured {med / scale:.4f}" if scale != 1.0 else ""
            print(f"  {name:<14} {med:12.4f} {unit:<3} median of n={n}  "
                  f"(q1 {q1:.4f}, q3 {q3:.4f}{measured})")
        else:
            print(f"  {name:<52} {value:14.6g} {unit}")
    fail_frac = res["failed"] / res["attempted"]
    print(f"  {'fail_frac':<14} {fail_frac:12.4f} 1   {res['failed']} of {res['attempted']} tasks")
    for msg in res["messages"][:20]:
        print(f"  FAILED {msg}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "gcdlab" / "__init__.py").is_file():
        print(f"error: no gcdlab sources at {SRC.relative_to(ROOT)}/gcdlab; run from a checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except (BenchError, subprocess.SubprocessError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for res in results:
        report(res)
    print(json.dumps({"machine": machine()}))
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}.{name}" if prefix else name): {"value": v, "unit": u}
               for r in results for name, (v, u) in r["values"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
