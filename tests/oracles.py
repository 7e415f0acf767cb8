"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive and shares no code with the package:
trial division, literal quadruple loops, python sets.  Keep it that way.
"""

import math

import numpy as np


def trial_factorization(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def trial_omega(n: int) -> int:
    return len(trial_factorization(n))


def trial_phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def trial_mobius(n: int) -> int:
    f = trial_factorization(n)
    return 0 if len(set(f)) < len(f) else (-1) ** len(f)


def gcd_form_direct(weights: dict[int, float], kind: str) -> float:
    total = 0.0
    for m1, w1 in weights.items():
        for m2, w2 in weights.items():
            g = math.gcd(m1, m2)
            if kind == "t1":
                total += w1 * w2 * g / math.sqrt(m1 * m2)
            else:
                total += w1 * w2 * g / (m1 + m2)
    return total


def energy_four_loop(weights: dict[int, int], n: int):
    """Literal four-fold loop; only for tiny n."""
    total = 0
    items = list(weights.items())
    for m1, w1 in items:
        for m2, w2 in items:
            for n1, u1 in items:
                for n2, u2 in items:
                    if m1 * m2 == n1 * n2:
                        total += w1 * w2 * u1 * u2
    return total


def crossed_four_loop(weights: dict[int, int], n: int):
    """Quadruples n1*m1 == n2*m2 over the full box, weights on the m's."""
    total = 0
    for m1, w1 in weights.items():
        for m2, w2 in weights.items():
            c = 0
            for n1 in range(1, n + 1):
                for n2 in range(1, n + 1):
                    if n1 * m1 == n2 * m2:
                        c += 1
            total += w1 * w2 * c
    return total


def distinct_products(n: int) -> set[int]:
    return {a * b for a in range(1, n + 1) for b in range(1, n + 1)}


def multiplicative_order(a: int, p: int) -> int:
    x = a % p
    for k in range(1, p):
        if x == 1:
            return k
        x = x * a % p
    raise AssertionError("no order found")


def primitive_root_and_dlog(p: int) -> tuple[int, list[int]]:
    """Smallest primitive root g mod p, by element orders, and its discrete
    logs: dlog[g^t mod p] = t, one step per residue, dlog[0] = -1."""
    g = next(a for a in range(2, p) if multiplicative_order(a, p) == p - 1)
    dlog = [-1] * p
    x = 1
    for t in range(p - 1):
        dlog[x] = t
        x = x * g % p
    return g, dlog


def gcd_kernel(n: int, kind: str) -> np.ndarray:
    """Dense T0 ("t0") or T1 ("t1") kernel on [1, n] from one np.gcd.outer table."""
    m = np.arange(1, n + 1, dtype=np.int64)
    g = np.gcd.outer(m, m).astype(np.float64)
    mf = m.astype(np.float64)
    return g / np.sqrt(np.outer(mf, mf)) if kind == "t1" else g / np.add.outer(mf, mf)


def frank_wolfe_reference(n: int, kind: str, tol: float = 1e-10, max_iter: int = 500_000):
    """Away-step Frank-Wolfe for min w^T K w on the simplex, one full gradient
    and one active-set gather per step; returns (w on 1..n, n w^T K w)."""
    m = np.arange(1, n + 1, dtype=np.int64)
    g = np.gcd.outer(m, m).astype(np.float64)
    mf = m.astype(np.float64)
    K = g / np.sqrt(np.outer(mf, mf)) if kind == "t1" else g / np.add.outer(mf, mf)
    w = np.full(n, 1.0 / n)
    Kw = np.einsum("ij,j->i", K, w)
    for _ in range(max_iter):
        grad = 2.0 * Kw
        val = float(w @ Kw)
        i_fw = int(np.argmin(grad))
        gw = float(grad @ w)
        gap = gw - float(grad[i_fw])
        if gap <= tol * val:
            break
        active = np.nonzero(w > 0.0)[0]
        i_aw = int(active[np.argmax(grad[active])])
        away_gap = float(grad[i_aw]) - gw
        if gap >= away_gap:
            step_max = 1.0
            curv = float(K[i_fw, i_fw] - 2.0 * Kw[i_fw] + val)
            step = step_max if curv <= 0 else min(step_max, 0.5 * gap / curv)
            w *= 1.0 - step
            w[i_fw] += step
            Kw = (1.0 - step) * Kw + step * K[i_fw]
        else:
            a = w[i_aw]
            step_max = a / (1.0 - a) if a < 1.0 else np.inf
            curv = float(val - 2.0 * Kw[i_aw] + K[i_aw, i_aw])
            step = step_max if curv <= 0 else min(step_max, 0.5 * away_gap / curv)
            w *= 1.0 + step
            w[i_aw] -= step
            if w[i_aw] < 1e-17:
                w[i_aw] = 0.0
            Kw = (1.0 + step) * Kw - step * K[i_aw]
    else:
        raise AssertionError("reference Frank-Wolfe did not converge")
    return w, n * float(w @ np.einsum("ij,j->i", K, w))
