"""Workload inputs and the task list of one pass.

Seed 0 is the canonical input set; its outputs are frozen in
``references.json``.  Any other seed scales every size by its own factor in
[1 - SHIFT, 1 + SHIFT] (two sizes only shrink, see ``params``), so the work
per pass stays within a few percent of the canonical one.

This module imports only the standard library at import time: ``run.py``
derives the inputs from it without loading the package.
"""

from __future__ import annotations

import random

WORKLOADS = ("level-sweep", "dense-kernels", "char-family")
SHIFT = 0.02
# the T0 profile maximum the README's burgess example computes at p = 10007;
# passing it keeps the char-family workload out of gcdsums
T0MAX = "5.584557683753311"
# the command the gcdlab console script runs
CLI_ENTRY = "import sys; from gcdlab.cli import main; sys.exit(main())"


def _scaler(seed: int):
    """Return (scale, rng): scale(n) is n shifted by the seed, n for seed 0."""
    rng = random.Random(seed)

    def scale(n: int, down: bool = False) -> int:
        if seed == 0:
            return n
        return round(n * rng.uniform(1.0 - SHIFT, 1.0 if down else 1.0 + SHIFT))

    return scale, rng


def params(workload: str, seed: int) -> dict:
    """The inputs of one workload at one seed, as plain JSON data."""
    scale, rng = _scaler(seed)
    if workload == "level-sweep":
        sizes = [scale(2**e) for e in range(10, 18)]
        return {"sizes": sizes, "sieve_limit": max(sizes)}
    if workload == "dense-kernels":
        qp = [[scale(1024), "t1"], [scale(2048), "t1"], [scale(1024), "t0"]]
        # the profile's doubling grid ends at x_max; above 8192 it would hold
        # both 8192 and x_max and cost 70% more, so this size only shrinks
        profile = scale(8192, down=True)
        return {
            "qp": qp,
            "t0_profile": profile,
            # the first size stays on the dense np.unique branch (N <= 4096),
            # the second on the chunked bitmap branch
            "multable": [scale(2048), scale(12000)],
            "energy_ones": scale(4000),
            "sieve_limit": profile,
        }
    if workload == "char-family":
        # the moduli stay fixed: FFT cost follows the factorization of p - 1,
        # which a shifted prime would change by up to 2x; seeds move the
        # lengths, the offsets, x and the character instead
        x = "1" if seed == 0 else f"{rng.uniform(1.0 - SHIFT, 1.0 + SHIFT):.6f}"
        index = 3 if seed == 0 else rng.randrange(2, 1000002)
        return {
            "commands": [
                ["theta-scan", "theta", "--scan", str(scale(12000)), "--jobs", "2",
                 "--format", "csv"],
                ["burgess", "burgess", "--p", "30011", "--r", "2", "--t0max", T0MAX,
                 "--offsets", str(scale(256)), "--format", "csv"],
                ["theta", "theta", "--p", "1000003", "--x", x, "--weights", "level:2"],
                # N stays below sqrt(p), where M4 has its exact energy form
                ["moments", "moments", "--p", "100003", "--n", str(scale(300, down=True)),
                 "--weights", "level:2", "--format", "csv"],
                ["charsum", "charsum", "--p", "1000003", "--index", str(index),
                 "--n", str(scale(1000))],
                ["constants", "constants", "--tol", "1e-12"],
                ["check", "check", "all", "--seed", str(seed % 2**32)],
            ],
        }
    raise ValueError(f"unknown workload {workload!r}")


def task_names(workload: str, prm: dict) -> list[str]:
    if workload == "level-sweep":
        return [f"{kind}-sweep {n}" for n in prm["sizes"] for kind in ("t1", "energy")]
    if workload == "dense-kernels":
        return ([f"qp {kind} {n}" for n, kind in prm["qp"]]
                + [f"t0-profile {prm['t0_profile']}"]
                + [f"multable {n}" for n in prm["multable"]]
                + [f"energy-ones {prm['energy_ones']}"])
    return [cmd[0] for cmd in prm["commands"]]


def library_tasks(workload: str, prm: dict, gl, sieve) -> list:
    """(name, thunk) pairs of a library workload; each thunk returns JSON data.

    ``gl`` is the imported ``gcdlab`` package.  Every call goes through a
    module attribute, so timing wrappers installed on the modules see it.
    """
    gs, en = gl.gcdsums, gl.energy
    names = iter(task_names(workload, prm))
    tasks = []
    if workload == "level-sweep":
        for n in prm["sizes"]:
            tasks.append((next(names), lambda n=n: list(gs.minimize_over_levels(n, gs.Kernel.T1, sieve))))
            tasks.append((next(names), lambda n=n: list(en.minimize_energy_over_levels(n, sieve))))
        return tasks

    def qp(n, kind):
        w, ratio = gs.exact_minimize(n, gs.Kernel(kind))
        return {"ratio": ratio, "weights": w.values[1:].tolist()}

    def energy_ones(n):
        rep = en.energy_ratio(gl.weights.all_ones(n), "auto")
        return {"energy": int(rep.energy), "ratio": rep.ratio}

    for n, kind in prm["qp"]:
        tasks.append((next(names), lambda n=n, kind=kind: qp(n, kind)))
    tasks.append((next(names), lambda: gs.t0_max_profile(prm["t0_profile"], sieve)))
    for n in prm["multable"]:
        tasks.append((next(names), lambda n=n: en.multiplication_table_count(n)))
    tasks.append((next(names), lambda: energy_ones(prm["energy_ones"])))
    return tasks
