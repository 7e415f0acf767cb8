"""Self-test of the benchmark, at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

1. Every per-layer metric names a live public function of gcdlab, so a
   rename fails here instead of silently dropping a span.
2. BENCHMARK.json lists exactly the workloads and metrics the code emits.
3. Each workload's task list runs at a tiny size under the span recorder,
   every output passes ``validate.py``, and the level-sweep spans cover at
   least 90% of its pass.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

import run
import spans
import validate
import worker
import workloads

TINY = {
    "level-sweep": {"sizes": [64, 128, 256, 512], "sieve_limit": 512},
    "dense-kernels": {"qp": [[32, "t1"], [48, "t1"], [32, "t0"]], "t0_profile": 256,
                      "multable": [64, 4100], "energy_ones": 200, "sieve_limit": 256},
    "char-family": {"commands": [
        ["theta-scan", "theta", "--scan", "200", "--jobs", "2", "--format", "csv"],
        ["burgess", "burgess", "--p", "1009", "--r", "2", "--t0max", workloads.T0MAX,
         "--format", "csv"],
        ["theta", "theta", "--p", "10007", "--x", "1", "--weights", "level:2"],
        ["moments", "moments", "--p", "1009", "--n", "20", "--weights", "level:2",
         "--format", "csv"],
        ["charsum", "charsum", "--p", "1009", "--index", "3", "--n", "100"],
        ["constants", "constants", "--tol", "1e-12"],
        ["check", "check", "all", "--seed", "0"],
    ]},
}
MIN_COVERAGE = 0.9

failures = []


def expect(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def check_sources() -> None:
    for metric, _unit, source in spans.PER_LAYER:
        if source is None:
            continue
        try:
            obj = spans.resolve(source)
        except (ImportError, AttributeError) as exc:
            expect(False, f"{metric}: {source} does not resolve ({exc})")
            continue
        public = not any(part.startswith("_") for part in source.split("."))
        expect(public and inspect.isfunction(obj), f"{metric}: {source} is a public function")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]]
           == [(name, unit) for name, unit, _ in spans.PER_LAYER],
           "BENCHMARK.json per_layer matches spans.PER_LAYER")


def run_tiny(workload: str, tracer: spans.Tracer, gl) -> None:
    prm = TINY[workload]
    tracer.top_level_s = 0.0
    t0 = time.perf_counter()
    if workload == "char-family":
        results = [worker.run_inprocess(name, argv, gl.cli) for name, *argv in prm["commands"]]
    else:
        sieve = gl.arith.build_sieve(prm["sieve_limit"])
        results = [worker.timed(name, thunk)
                   for name, thunk in workloads.library_tasks(workload, prm, gl, sieve)]
    wall = time.perf_counter() - t0
    expect([r["task"] for r in results] == workloads.task_names(workload, prm),
           f"{workload}: every task ran")
    checker = validate.Checker(workload, 1, prm, gl)
    for r in results:
        problems = checker.problems(r["task"], r)
        expect(not problems, f"{workload} {r['task']}: valid {problems or ''}")
    if workload == "level-sweep":
        coverage = tracer.top_level_s / wall
        expect(coverage >= MIN_COVERAGE, f"level-sweep trace.coverage {coverage:.3f} >= {MIN_COVERAGE}")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import gcdlab
    import gcdlab.cli

    check_sources()
    check_benchmark_json()
    if failures:  # the recorder cannot wrap what does not resolve
        print(f"{len(failures)} failures")
        return 1
    tracer = spans.Tracer()
    tracer.install()
    for workload in workloads.WORKLOADS:
        run_tiny(workload, tracer, gcdlab)
    layers = tracer.metrics()
    expect(set(layers) | {"cli.startup_s", "cli.theta_scan.parallel_eff", "trace.coverage",
                          "trace.overhead"} == {name for name, _, _ in spans.PER_LAYER},
           "the recorder emits every span metric")
    silent = [name for name, value in layers.items() if value == 0]
    expect(not silent, f"every span metric moved on the tiny task lists {silent or ''}")
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
