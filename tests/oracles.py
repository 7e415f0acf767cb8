"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive and shares no code with the package:
trial division, literal quadruple loops, python sets.  Keep it that way.
"""

import math


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


def trial_spf(n: int) -> int:
    return trial_factorization(n)[0]


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
