"""Correctness of pass outputs.

Every seed goes through independent routes and invariants written here,
outside the package: a naive divisor-sum T1 over all levels, a direct T0 and
gcd kernel, a marking count of the multiplication table, residue-class
identities for theta moments, and a separate discrete-log character sum.
Seed 0 is also compared with the frozen outputs in ``references.json``
(ints exactly, ratios to REL, QP values to QP_REL, CLI stdout byte for byte).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).resolve().parent / "references.json"
REL = 1e-12
QP_REL = 1e-9
CHECK_LINES = 19  # rows printed by `gcdlab check all`
SEED_FREE = ("constants",)  # tasks whose input no seed changes

# the independent route behind each task's check, recorded with the references
ROUTES = {
    "t1-sweep": "T1 ratio of every level by strided divisor sums with phi (level_ratios_t1)",
    "energy-sweep": "two smallest N: energy_level_exact == energy_histogram at every level and "
                    "the minimum over all levels; other N: 2 l1^2 - l1 <= E <= l1^3",
    "qp": "ratio of the returned weights on a dense gcd kernel, <= the all-ones ratio, "
          "Frank-Wolfe duality gap <= 1e-9",
    "t0-profile": "the doubling-grid profile recomputed with a dense direct T0 form",
    "multable": "distinct products marked on one bitmap of [1, N^2]",
    "energy-ones": "energy_parametrized (coprime-pair route) against the histogram value",
    "theta-scan": "m1, m2 by residue-class orthogonality, m4 = (p-1)/2 E by energy_parametrized",
    "burgess": "character sums by a separate dlog table and forward FFT; envelope formula",
    "theta": "m1, m2 by residue-class orthogonality, m4 = (p-1)/2 E by energy_parametrized",
    "moments": "S2, M4 and lhs closed forms; rhs and lower bound recomputed",
    "charsum": "direct sum with baby-step giant-step discrete logs",
    "constants": "closed forms of delta and delta0 = Q(kappa*), residuals below 1e-9",
    "check": "19 ok lines",
}


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def output_of(result: dict):
    """The part of a task result that is checked (CLI: exit code and stdout)."""
    if "stdout" in result:
        return {"exit": result["exit"], "stdout": result["stdout"]}
    return result["output"]


# ---------------------------------------------------------------- arithmetic


def omega_table(n: int) -> np.ndarray:
    """Omega(m) for m = 0..n (with multiplicity) by repeated division."""
    spf = np.arange(n + 1)
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            seg = spf[p * p :: p]
            seg[seg == np.arange(p * p, n + 1, p)] = p
    om = np.zeros(n + 1, dtype=np.int64)
    x = np.arange(n + 1)
    x[0] = 1
    while True:
        live = x > 1
        if not live.any():
            return om
        om[live] += 1
        x[live] //= spf[x[live]]


def phi_table(n: int) -> np.ndarray:
    phi = np.arange(n + 1, dtype=np.int64)
    for p in range(2, n + 1):
        if phi[p] == p:  # untouched, so prime
            phi[p::p] -= phi[p::p] // p
    return phi


def level_ratios_t1(n: int) -> dict[int, float]:
    """T1 ratio of every nonempty Omega-level on [1, n], all at once.

    T1 = sum over d of phi(d) (sum over multiples m of d of w(m)/sqrt(m))^2,
    with the inner sums taken by one strided slice per d.
    """
    om = omega_table(n)[1:]
    levels = np.unique(om)
    u = (om[None, :] == levels[:, None]) / np.sqrt(np.arange(1, n + 1))[None, :]
    s = np.empty((len(levels), n))
    for d in range(1, n + 1):
        s[:, d - 1] = u[:, d - 1 :: d].sum(axis=1)
    phi = phi_table(n)[1:]
    l1 = (om[None, :] == levels[:, None]).sum(axis=1)
    forms = (s * s) @ phi
    return {int(k): n * float(f) / float(c) ** 2 for k, f, c in zip(levels, forms, l1)}


def kernel(m: np.ndarray, kind: str) -> np.ndarray:
    """Dense K = gcd/sqrt(mn) (t1) or gcd/(m+n) (t0) on the index set m."""
    mf = m.astype(np.float64)
    den = np.sqrt(np.outer(mf, mf)) if kind == "t1" else np.add.outer(mf, mf)
    return np.gcd.outer(m, m) / den


def direct_form(m: np.ndarray, w: np.ndarray, kind: str) -> float:
    return float(w @ kernel(m, kind) @ w)


def t0_profile(x_max: int) -> float:
    """Max over the doubling grid of the best level T0 ratio (direct form)."""
    om = omega_table(x_max)
    grid = [2**e for e in range(x_max.bit_length()) if 2**e < x_max] + [x_max]
    best = 0.0
    for x in grid:
        counts = np.bincount(om[1 : x + 1])
        low = math.inf
        for k in sorted(np.nonzero(counts)[0], key=lambda k: -counts[k]):
            if x * 0.5 / counts[k] > low:  # the diagonal alone exceeds it
                continue
            m = np.nonzero(om[1 : x + 1] == k)[0] + 1
            low = min(low, x * direct_form(m, np.ones(len(m)), "t0") / len(m) ** 2)
        best = max(best, low)
    return best


def distinct_products(n: int) -> int:
    """A(n) by marking every a*b on one bitmap of [1, n^2]."""
    seen = np.zeros(n * n + 1, dtype=bool)
    for a in range(1, n + 1):
        seen[a : a * n + 1 : a] = True
    return int(seen.sum())


def primitive_root(p: int) -> int:
    qs, rest, d = [], p - 1, 2
    while d * d <= rest:
        if rest % d == 0:
            qs.append(d)
            while rest % d == 0:
                rest //= d
        d += 1
    qs += [rest] if rest > 1 else []
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


def dlog_table(p: int) -> np.ndarray:
    g = primitive_root(p)
    dlog = np.zeros(p, dtype=np.int64)
    x = 1
    for t in range(p - 1):
        dlog[x] = t
        x = x * g % p
    return dlog


def dlog_small(p: int, n: int) -> np.ndarray:
    """Discrete logs of 1..n to the smallest primitive root, by baby-step
    giant-step on primes and additivity over factorizations."""
    g = primitive_root(p)
    step = math.isqrt(p - 1) + 1
    baby, x = {}, 1
    for j in range(step):
        baby.setdefault(x, j)
        x = x * g % p
    giant = pow(g, -step, p)

    def log(y: int) -> int:
        for i in range(step):
            if y in baby:
                return (i * step + baby[y]) % (p - 1)
            y = y * giant % p
        raise ValueError("no discrete log")

    out = np.zeros(n + 1, dtype=np.int64)
    for m in range(2, n + 1):
        q = next((d for d in range(2, math.isqrt(m) + 1) if m % d == 0), m)
        out[m] = log(m) if q == m else (out[q] + out[m // q]) % (p - 1)
    return out


def residue_folds(p: int, x: float) -> np.ndarray:
    """F(a) = sum over n = a mod p of exp(-pi x n^2 / p), terms down to 1e-40."""
    n_max = math.ceil(math.sqrt(p * 40 * math.log(10) / (math.pi * x))) + 1
    ns = np.arange(1, n_max + 1)
    return np.bincount(ns % p, weights=np.exp(-math.pi * x * ns.astype(np.float64) ** 2 / p),
                       minlength=p)


# ------------------------------------------------------------------ checker


class Checker:
    def __init__(self, workload: str, seed: int, prm: dict, gl, use_refs: bool = True):
        self.workload, self.prm, self.gl = workload, prm, gl
        frozen = json.loads(REFERENCES.read_text()).get(workload, {}) if use_refs else {}
        self.refs = frozen if seed == 0 else {t: frozen[t] for t in SEED_FREE if t in frozen}
        self._cache = {}
        self._energies = {}

    def problems(self, task: str, result: dict) -> list[str]:
        """Empty when the task's result is correct, else what is wrong."""
        if "error" in result:
            return [result["error"]]
        out = output_of(result)
        key = (task, json.dumps(out, sort_keys=True))
        if key not in self._cache:
            try:
                self._cache[key] = self._verify(task, out)
            except Exception as exc:  # a checker crash is a failed check
                self._cache[key] = [f"check raised {type(exc).__name__}: {exc}"]
        return self._cache[key]

    def _verify(self, task: str, out) -> list[str]:
        method = getattr(self, "_" + task.split(" ")[0].replace("-", "_"))
        ref = self.refs.get(task)
        bad = []
        if self.workload == "char-family":
            if out["exit"] != 0:
                return [f"exit code {out['exit']}: {out['stdout'][-300:]}"]
            if ref is not None and digest(out["stdout"]) != ref["sha256"]:
                bad.append("stdout differs from the frozen reference")
            return bad + method(task, out["stdout"])
        if ref is not None and not _same(frozen_value(task, out), ref, QP_REL if task.startswith("qp") else REL):
            bad.append(f"differs from the frozen reference {ref}")
        return bad + method(task, out)

    # level-sweep ------------------------------------------------------------

    def _t1_sweep(self, task, out):
        n = int(task.split(" ")[1])
        ratios = level_ratios_t1(n)
        k_best = min(ratios, key=lambda k: (ratios[k], k))
        k, ratio = out
        bad = []
        if k not in ratios or not close(ratio, ratios[k], QP_REL):
            bad.append(f"T1 ratio of level {k} is {ratios.get(k)}, pass gave {ratio}")
        if not close(ratios[k_best], ratio, QP_REL):
            bad.append(f"level {k_best} has the smaller T1 ratio {ratios[k_best]}")
        return bad

    def _energy_sweep(self, task, out):
        n = int(task.split(" ")[1])
        k, ratio = out
        counts = np.bincount(omega_table(n)[1:])
        if not counts[k]:
            return [f"level {k} is empty"]
        l1 = float(counts[k])
        energy = ratio * l1**4 / (n * n)
        bad = []
        if not 2 * l1 * l1 - l1 - 0.5 <= energy <= l1**3 + 0.5:
            bad.append(f"energy {energy} outside [2 l1^2 - l1, l1^3]")
        if n not in self.prm["sizes"][:2]:
            return bad
        # the two smallest sizes: the level-exact route against the histogram
        # at every level, and the minimum over all of them
        gl = self.gl
        sieve = gl.arith.build_sieve(n)
        ratios = {}
        for lvl in map(int, np.nonzero(counts)[0]):
            exact = gl.energy.energy_level_exact(sieve, n, lvl)
            hist = gl.energy.energy_histogram(gl.weights.omega_level_weights(sieve, n, lvl))
            if exact != hist:
                bad.append(f"level {lvl}: energy_level_exact {exact} != energy_histogram {hist}")
            ratios[lvl] = n * n * float(hist) / float(counts[lvl]) ** 4
        k_best = min(ratios, key=lambda lvl: (ratios[lvl], lvl))
        if k_best != k or not close(ratios[k_best], ratio, REL):
            bad.append(f"level {k_best} has the minimum {ratios[k_best]}, pass gave {out}")
        return bad

    # dense-kernels ----------------------------------------------------------

    def _qp(self, task, out):
        _, kind, n = task.split(" ")
        n = int(n)
        w = np.asarray(out["weights"])
        m = np.arange(1, n + 1)
        if len(w) != n or (w < 0).any():
            return ["weights have the wrong length or a negative entry"]
        k = kernel(m, kind)
        w = w / w.sum()
        kw = k @ w
        ratio = n * float(w @ kw)
        ones = float(k.sum()) / n
        bad = []
        if not close(ratio, out["ratio"], QP_REL):
            bad.append(f"ratio of the returned weights is {ratio}, pass gave {out['ratio']}")
        if out["ratio"] > ones * (1 + QP_REL):
            bad.append(f"QP value {out['ratio']} exceeds the all-ones ratio {ones}")
        # Frank-Wolfe certificate: moving toward any vertex gains at most
        # 1e-9 of the value, so w is a minimizer over the simplex
        gap = 2.0 * float(w @ kw - kw.min())
        if gap > 1e-9 * float(w @ kw):
            bad.append(f"duality gap {gap:.3e} is not small")
        return bad

    def _t0_profile(self, task, out):
        value = t0_profile(int(task.split(" ")[1]))
        return [] if close(out, value, QP_REL) else [f"direct-form profile is {value}"]

    def _multable(self, task, out):
        value = distinct_products(int(task.split(" ")[1]))
        return [] if out == value else [f"marking count is {value}"]

    def _energy_ones(self, task, out):
        n = int(task.split(" ")[1])
        value = self.gl.energy.energy_parametrized(self.gl.weights.all_ones(n))
        bad = [] if out["energy"] == value else [f"energy_parametrized gives {value}"]
        if not close(out["ratio"], n * n * float(out["energy"]) / float(n) ** 4, REL):
            bad.append("ratio is not N^2 E / N^4")
        return bad

    # char-family ------------------------------------------------------------

    def _argv(self, task: str) -> dict:
        cmd = next(c for c in self.prm["commands"] if c[0] == task)
        return {a[2:]: b for a, b in zip(cmd[2:], cmd[3:]) if a.startswith("--")}

    def _level_weights(self, n: int, k: int) -> np.ndarray:
        om = omega_table(n)
        w = (om == k).astype(np.int64)
        w[0] = 0
        return w

    def _energy(self, w: np.ndarray):
        """E(w) by energy_parametrized, memoized (scan rows share cutoffs)."""
        key = w.tobytes()
        if key not in self._energies:
            gl = self.gl
            self._energies[key] = gl.energy.energy_parametrized(
                gl.weights.WeightVector(len(w) - 1, w))
        return self._energies[key]

    def _theta_moments(self, p: int, x: float, w: np.ndarray, row: dict) -> list[str]:
        """m1, m2 by residue-class orthogonality and m4 by the energy identity."""
        f = residue_folds(p, x)
        half = (p - 1) / 2
        m2 = half * float(f[1:] @ (f[1:] + f[1:][::-1]))
        ms = np.nonzero(w)[0]
        m1 = half * float(w[ms] @ (f[ms] + f[p - ms]))
        m4 = half * float(self._energy(w))
        bad = []
        for name, value, rel in (("m2", m2, 1e-9), ("m1_real", m1, 1e-9),
                                 ("m4_identity", m4, REL), ("m4_direct", m4, 1e-6)):
            if not close(float(row[name]), value, rel):
                bad.append(f"p={p}: {name} {row[name]} != {value}")
        slack = math.sqrt(float(row["m2"])) * (float(row["m4_direct"]) * int(row["m0_count"])) ** 0.25 \
            - float(row["m1_abs"])
        if abs(float(row["holder_slack"]) - slack) > 1e-9 * max(1.0, abs(slack)):
            bad.append(f"p={p}: holder_slack {row['holder_slack']} != {slack}")
        if float(row["holder_slack"]) < -1e-9 or not 0 <= int(row["m0_count"]) <= half:
            bad.append(f"p={p}: slack or m0 count out of range")
        if not float(row["tail_bound"]) < float(row["threshold"]):
            bad.append(f"p={p}: tail bound not below the threshold")
        return bad

    def _theta_scan(self, task, stdout):
        rows = list(csv.DictReader(io.StringIO(stdout)))
        scan = int(self._argv(task)["scan"])
        primes = [p for p in range(5, scan + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        if [int(r["p"]) for r in rows] != primes:
            return ["rows are not one per prime 5..scan"]
        bad = []
        for row in rows:
            p = int(row["p"])
            w = np.ones(max(math.isqrt(p // 3), 1) + 1, dtype=np.int64)
            w[0] = 0
            bad += self._theta_moments(p, float(row["x"]), w, row)
        return bad

    def _theta(self, task, stdout):
        row = json.loads(stdout)
        a = self._argv(task)
        p, k = int(a["p"]), int(a["weights"].split(":")[1])
        return self._theta_moments(p, float(a["x"]), self._level_weights(math.isqrt(p // 3), k), row)

    def _burgess(self, task, stdout):
        (row,) = list(csv.DictReader(io.StringIO(stdout)))
        a = self._argv(task)
        p, r, t0max = int(a["p"]), int(a["r"]), float(a["t0max"])
        n = int(p ** (0.5 + 1.0 / (4 * r)))
        dlog = dlog_table(p)
        step = -(-p // int(a.get("offsets", 256)))  # 256: the CLI default
        best = 0.0
        res = np.arange(p)
        for m in range(0, p, step):
            counts = (m + n - res) // p - (m - res) // p
            b = np.zeros(p - 1)
            b[dlog[1:]] = counts[1:]
            best = max(best, float(np.abs(np.fft.fft(b)[1:]).max()))
        env = n ** (1 - 1 / r) * p ** ((r + 1) / (4 * r * r)) * t0max ** (1 / (2 * r))
        bad = []
        for name, value in (("N", n), ("maxS", best), ("envelope", env), ("ratio", best / env),
                            ("pv_ratio", best / (math.sqrt(p) * math.log(p))), ("t0max", t0max)):
            if not close(float(row[name]), value, 1e-9):
                bad.append(f"{name} {row[name]} != {value}")
        return bad

    def _moments(self, task, stdout):
        rows = list(csv.DictReader(io.StringIO(stdout)))
        a = self._argv(task)
        p, n, k = int(a["p"]), int(a["n"]), int(a["weights"].split(":")[1])
        w = self._level_weights(n, k)
        l1 = float(w.sum())
        m4 = float(self._energy(w)) - l1**4 / (p - 1)
        counts = np.bincount(omega_table(n)[1:])
        eratio = min(n * n * float(self._energy(self._level_weights(n, lvl))) / float(counts[lvl]) ** 4
                     for lvl in np.nonzero(counts)[0])
        if [float(row["r"]) for row in rows] != [1.4, 1.5, 1.75, 1.9]:
            return ["rows are not the default r grid"]
        bad = []
        for row in rows:
            r = float(row["r"])
            s2, sr, m4_row = float(row["S2"]), float(row["Sr"]), float(row["M4"])
            rhs = sr ** (1 / (4 - 2 * r)) * s2 ** ((4 - 3 * r) / (8 - 4 * r)) * m4_row**0.25
            for name, got, value in (("S2", s2, n - n * n / (p - 1)), ("M4", m4_row, m4),
                                     ("lhs", float(row["lhs"]), l1 * (1 - n / (p - 1))),
                                     ("rhs", float(row["rhs"]), rhs),
                                     ("lower_bound", float(row["lower_bound"]),
                                      n ** (r / 2) / eratio ** (1 - r / 2))):
                if not close(got, value, 1e-9):
                    bad.append(f"r={r}: {name} {got} != {value}")
            if float(row["slack"]) < 0 or float(row["S1"]) > math.sqrt(s2) * (1 + 1e-12):
                bad.append(f"r={r}: negative slack or S1 > sqrt(S2)")
        return bad

    def _charsum(self, task, stdout):
        row = json.loads(stdout)
        a = self._argv(task)
        p, index, n = int(a["p"]), int(a["index"]), int(a["n"])
        logs = dlog_small(p, n)[1:]
        s = complex(np.exp(2j * np.pi * ((index * logs) % (p - 1)) / (p - 1)).sum())
        if abs(complex(row["re"], row["im"]) - s) > 1e-9 * n:
            return [f"direct sum is {s}"]
        return []

    def _constants(self, task, stdout):
        row = json.loads(stdout)
        q = lambda x: x * math.log(x) - x + 1.0  # noqa: E731  (the rate function)
        checks = {
            "delta closed form": close(row["delta"], 1 - (1 + math.log(math.log(2))) / math.log(2), REL),
            "delta = 2 Q(1/log 4)": close(row["delta"], 2 * q(1 / math.log(4)), REL),
            "delta0 = Q(kappa*)": close(row["delta0"], q(row["kappa_star_gcd"]), REL),
            "kappa* = 0.48154": abs(row["kappa_star_gcd"] - 0.48154) < 1e-5,
            "alpha = 0.046": abs(row["alpha"] - 0.046) < 5e-4,
            "residuals": all(abs(v) <= 1e-9 for k, v in row.items() if k.startswith("residual_")),
        }
        return [f"constants: {name} fails" for name, ok in checks.items() if not ok]

    def _check(self, task, stdout):  # the `check all` command
        rows = [json.loads(line) for line in stdout.splitlines()]
        if len(rows) != CHECK_LINES or not all(r["check"].startswith("ok ") for r in rows):
            return [f"expected {CHECK_LINES} ok lines"]
        return []


def frozen_value(task: str, out):
    """What references.json keeps of a library task's output."""
    return out["ratio"] if task.startswith("qp") else out


def _same(a, b, rel: float) -> bool:
    """Equal, with ints and strings exact and floats to ``rel``."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k], rel) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return close(a, b, rel)
    return a == b
