"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/series.py --seeds 1-10 [--workloads level-sweep,char-family]
                                [--seconds 30] [--traced-seed 0] [--out FILE]

For every workload it runs ``run.py`` once per seed (untraced), then once
traced at ``--traced-seed``, and reports for each end-to-end metric the
median, the quartiles and the spread (q3 - q1) / median of the per-run
values, as ``statistics.quantiles(values, n=4)`` gives them.  ``--out``
writes the summary as JSON: a trajectory point for later comparisons.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[2:])} failed ({proc.returncode}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["machine"] = json.loads(lines[-2])["machine"]
    return out


def summarize(values: list[float]) -> dict:
    q1, median, q3 = run.quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--seconds", type=float,
                    default=json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--traced-seed", type=int, default=None)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    seeds = seeds_of(args.seeds)
    result = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(one_run(workload, seed, args.seconds, 0))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in runs[-1]["metrics"].items()),
                  flush=True)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {name: summarize([r["metrics"][name]["value"] for r in runs])
                           for name in run.END_TO_END},
        }
        for name, s in entry["end_to_end"].items():
            print(f"  {workload} {name}: median {s['median']:.4f} q1 {s['q1']:.4f} "
                  f"q3 {s['q3']:.4f} spread {s['spread']:.4f}", flush=True)
        if args.traced_seed is not None:
            traced = one_run(workload, args.traced_seed, args.seconds, 1)
            entry["traced_seed"] = args.traced_seed
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["correct"] = entry["correct"] and traced["correct"]
        result["workloads"][workload] = entry
        result["machine"] = runs[-1]["machine"]
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
