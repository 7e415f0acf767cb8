"""Weighted multiplicative energy and multiplication-table counts.

The energy of a weight vector w is the sum of w(m1)w(m2)w(n1)w(n2) over
quadruples with m1*m2 = n1*n2, all entries <= N.  Three independent
evaluators are provided and must agree exactly on integer weights:

* ``energy_quadruple``  - literal loop over the equation (oracle, small N);
* ``energy_histogram``  - sum of squared representation counts over products;
* ``energy_parametrized`` - coprime-pair parametrization of the equation.

For indicator weights of a fixed Omega-level a fourth exact route,
``energy_level_exact``, reduces the coprime-pair sum to level-count lookups
through Moebius inclusion-exclusion; it is what makes sweeps up to N ~ 2**20
feasible and is cross-validated against the other three in the tests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, asdict
from typing import Iterable

import numpy as np

from .arith import FactorSieve
from .errors import InvalidArgumentError, ResourceLimitError
from .weights import WeightVector, omega_level_weights, sweep_levels

__all__ = [
    "EnergyReport",
    "energy_quadruple",
    "energy_histogram",
    "energy_parametrized",
    "energy_level_exact",
    "energy_ratio",
    "minimize_energy_over_levels",
    "energy_sweep_table",
    "set_energy",
    "asym_energy",
    "multiplication_table_count",
    "h_count",
]

QUADRUPLE_LIMIT = 300
PAIR_BUDGET = 1 << 26


@dataclass
class EnergyReport:
    n: int
    weight_desc: str
    energy: float
    ratio: float
    evaluator: str
    seconds: float

    def as_dict(self) -> dict:
        return asdict(self)


def _check_weights(w: WeightVector) -> None:
    if w.l1() <= 0:
        raise InvalidArgumentError("weight vector must have positive l1 norm")


def energy_quadruple(w: WeightVector):
    """Literal enumeration of m1*m2 = n1*n2 over the support (oracle).

    Guarded to N <= 300; this is the reference the fast evaluators are
    checked against, so it stays deliberately naive.
    """
    _check_weights(w)
    if w.limit > QUADRUPLE_LIMIT:
        raise ResourceLimitError(f"quadruple oracle refuses N > {QUADRUPLE_LIMIT}")
    supp = [int(m) for m in w.support]
    vals = w.values
    n = w.limit
    integral = w.is_integral
    total = 0 if integral else 0.0
    for m1 in supp:
        for m2 in supp:
            p = m1 * m2
            c = 0 if integral else 0.0
            for n1 in supp:
                if p % n1 == 0:
                    n2 = p // n1
                    if n2 <= n and vals[n2]:
                        c += vals[n1] * vals[n2]
            total += vals[m1] * vals[m2] * c
    return total


def _product_counts(left: np.ndarray, right: np.ndarray, wl=None, wr=None) -> np.ndarray:
    """r(P) for each product P = a*b (a in left, b in right) that occurs.

    Each pair counts wl(a) wr(b) when weights are given, else 1.  This is the
    one place that forms an outer product of supports; its guard runs first.
    """
    npairs = len(left) * len(right)
    if npairs > PAIR_BUDGET:
        raise ResourceLimitError(f"{npairs} product pairs exceed budget {PAIR_BUDGET}")
    prods = np.multiply.outer(left, right).ravel()
    if wl is None:
        prods.sort()
    else:
        order = np.argsort(prods)
        prods, coef = prods[order], np.multiply.outer(wl, wr).ravel()[order]
    edges = np.flatnonzero(np.concatenate(([True], prods[1:] != prods[:-1], [True])))
    return np.diff(edges) if wl is None else np.add.reduceat(coef, edges[:-1])


def energy_histogram(w: WeightVector):
    """Sum over products P of r(P)**2 where r(P) = sum of w(a)w(b) with ab=P."""
    _check_weights(w)
    supp = w.support
    wv = w.values[supp].astype(np.int64 if w.is_integral else np.float64)
    r = _product_counts(supp, supp) if (wv == 1).all() else _product_counts(supp, supp, wv, wv)
    if not w.is_integral:
        return float((r * r).sum())
    # sum r**2 <= (sum r)**2 = l1**4, so int64 is exact below 2**63
    if int(wv.sum()) ** 4 < 2**63:
        return int(r @ r)
    return int((r.astype(object) ** 2).sum())


def energy_parametrized(w: WeightVector):
    """Coprime-pair route: sum over (d1,d2)=1 of (sum_h w(h d1) w(h d2))**2."""
    _check_weights(w)
    n = w.limit
    vals = w.values
    integral = w.is_integral
    total = 0 if integral else 0.0
    for d2 in range(1, n + 1):
        hs = np.arange(1, n // d2 + 1)
        w2 = vals[hs * d2]
        if not w2.any():
            continue
        d1s = np.arange(1, d2 + 1)
        d1s = d1s[np.gcd(d1s, d2) == 1]
        # inner sums over h for every admissible d1 at once
        mat = vals[np.multiply.outer(hs, d1s)] * w2[:, None]
        sums = mat.sum(axis=0)
        # for d2 > 1 the coprime filter removes d1 == d2, so doubling the
        # d1 < d2 pairs gives all ordered pairs; (1,1) is the lone diagonal
        if integral:
            sums = sums.astype(object)
            sq = int((sums * sums).sum())
            total += sq if d2 == 1 else 2 * sq
        else:
            sq = float((sums * sums).sum())
            total += sq if d2 == 1 else 2.0 * sq
    return total


def energy_level_exact(sieve: FactorSieve, n: int, k: int):
    """Exact energy of the level-k indicator via inclusion-exclusion.

    Writing the coprime-pair sum over (d1, d2) with Omega(d1) = Omega(d2) = j
    and grouping by m = max(d1, d2), the inner h-sum becomes a level-count
    lookup and the coprimality condition unfolds over squarefree divisors.
    Runs in roughly sum over squarefree e of N/e steps (~N log N).
    """
    if n < 1 or n > sieve.limit:
        raise InvalidArgumentError("need 1 <= N <= sieve.limit")
    om = sieve.omega[: n + 1]
    kmax = int(om[1:].max()) if n > 1 else 0
    if k < 0 or k > kmax:
        return 0
    levels = [np.nonzero(om[1:] == t)[0] + 1 for t in range(kmax + 1)]

    def level_count(t: int, xs: np.ndarray) -> np.ndarray:
        if t < 0 or t > kmax:
            return np.zeros(len(xs), dtype=np.int64)
        return np.searchsorted(levels[t], xs, side="right")

    mu = sieve.mobius()
    # candidates for the coprimality unfolding: squarefree e with Omega <= k
    es = np.nonzero((mu[: n + 1] != 0) & (om <= k))[0]
    es = es[es >= 1]
    coprime_below = np.zeros(n + 1, dtype=np.float64)
    for e in es:
        e = int(e)
        ms = np.arange(2, n + 1) if e == 1 else np.arange(e, n + 1, e)
        j = om[ms]
        sel = j <= k
        ms = ms[sel]
        t = j[sel] - om[e]
        xs = (ms - 1) // e
        for tv in np.unique(t):
            if tv < 0:
                continue
            pick = t == tv
            coprime_below[ms[pick]] += mu[e] * level_count(int(tv), xs[pick])
    total = 0.0
    ms_all = np.arange(2, n + 1)
    j_all = om[ms_all]
    for j in range(0, k + 1):
        ms = ms_all[j_all == j]
        if len(ms) == 0:
            continue
        f = level_count(k - j, n // ms).astype(np.float64)
        total += 2.0 * float(f * f @ coprime_below[ms])
    pk = len(levels[k])
    total += float(pk) * pk
    if total >= 2.0**53:
        raise ResourceLimitError("energy exceeds exact float64 integer range")
    return int(total)


def energy_ratio(w: WeightVector, evaluator: str = "auto") -> EnergyReport:
    """N**2 * energy / l1(w)**4 with the evaluator recorded."""
    _check_weights(w)
    t0 = time.perf_counter()
    if evaluator == "auto":
        evaluator = "histogram" if len(w.support) ** 2 <= PAIR_BUDGET else "parametrized"
    fn = {
        "quadruple": energy_quadruple,
        "histogram": energy_histogram,
        "parametrized": energy_parametrized,
    }.get(evaluator)
    if fn is None:
        raise InvalidArgumentError(f"unknown evaluator {evaluator!r}")
    e = fn(w)
    l1 = w.l1()
    ratio = w.limit * w.limit * float(e) / l1**4
    return EnergyReport(
        n=w.limit,
        weight_desc=w.label,
        energy=float(e),
        ratio=ratio,
        evaluator=evaluator,
        seconds=time.perf_counter() - t0,
    )


def _level_energy_ratio(sieve: FactorSieve, n: int, k: int, l1: int) -> float:
    if l1 * l1 <= PAIR_BUDGET // 16:
        e = energy_histogram(omega_level_weights(sieve, n, k))
    else:
        e = energy_level_exact(sieve, n, k)
    return n * n * float(e) / float(l1) ** 4


def minimize_energy_over_levels(n: int, sieve: FactorSieve) -> tuple[int, float]:
    """Sweep the energy ratio over Omega-levels; ties go to the smaller k.

    Levels are visited by decreasing support; a level is skipped when even
    its paired-quadruple floor N**2 (2 l1**2 - l1) / l1**4 exceeds the best
    ratio found (strict, so ties survive).
    """

    def floor(k: int, size: int) -> float:
        l1 = float(size)
        return n * n * (2.0 * l1 * l1 - l1) / l1**4

    ratio, k = min((r, k) for k, _, r in sweep_levels(
        sieve, n, lambda k, size: _level_energy_ratio(sieve, n, k, size), floor=floor,
    ))
    return k, ratio


def energy_sweep_table(n: int, sieve: FactorSieve) -> list[tuple[int, int, float]]:
    """(k, support size, energy ratio) for every nonempty level; no pruning."""
    return sorted(sweep_levels(sieve, n, lambda k, size: _level_energy_ratio(sieve, n, k, size)))


def set_energy(a: Iterable[int], b: Iterable[int]) -> int:
    """E(A, B): quadruples m1*m2 = n1*n2 with m1, n1 in A and m2, n2 in B."""
    aa = np.asarray(sorted(set(a)), dtype=np.int64)
    bb = np.asarray(sorted(set(b)), dtype=np.int64)
    if len(aa) == 0 or len(bb) == 0:
        raise InvalidArgumentError("sets must be nonempty")
    r = _product_counts(aa, bb)
    return int(r @ r)


def asym_energy(n: int, b: Iterable[int]) -> int:
    """E(N, B): as set_energy with the first set equal to [1, N]."""
    if n < 1:
        raise InvalidArgumentError("need N >= 1")
    return set_energy(range(1, n + 1), b)


def multiplication_table_count(n: int) -> int:
    """A(N) = number of distinct products a*b with a, b <= N."""
    if n < 1:
        raise InvalidArgumentError("need N >= 1")
    # mark-and-count over the value range [1, N^2], one bitmap chunk at a time
    total = 0
    chunk = 1 << 24
    n2 = n * n
    lo = 1
    seen = np.zeros(chunk, dtype=bool)
    while lo <= n2:
        hi = min(lo + chunk - 1, n2)
        seen[: hi - lo + 1] = False
        for a in range(1, n + 1):
            b_lo = max(1, -(-lo // a))
            b_hi = min(n, hi // a)
            if b_lo > b_hi:
                continue
            seen[a * b_lo - lo : a * b_hi - lo + 1 : a] = True
        total += int(seen[: hi - lo + 1].sum())
        lo = hi + 1
    return total


def h_count(sieve: FactorSieve, n: int, k, r: int) -> int:
    """Distinct products m*n <= N**2 with Omega(m) = k (or tail) and Omega(n) = r.

    ``k`` may be the string "tail" meaning Omega(m) >= log log N.
    """
    if n < 1 or n > sieve.limit:
        raise InvalidArgumentError("need 1 <= N <= sieve.limit")
    om = sieve.omega[1 : n + 1]
    if k == "tail":
        if n < 2:
            raise InvalidArgumentError("tail selector needs N >= 2")
        left = np.nonzero(om >= math.log(math.log(n)))[0] + 1
    else:
        left = np.nonzero(om == k)[0] + 1
    right = np.nonzero(om == r)[0] + 1
    if len(left) == 0 or len(right) == 0:
        return 0
    return len(_product_counts(left, right))
