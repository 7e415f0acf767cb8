"""Weighted multiplicative energy and multiplication-table counts.

The energy of a weight vector w is the sum of w(m1)w(m2)w(n1)w(n2) over
quadruples with m1*m2 = n1*n2, all entries <= N.  Three independent
evaluators are provided and must agree exactly on integer weights:

* ``energy_quadruple``  - literal loop over the equation (oracle, small N);
* ``energy_histogram``  - sum of squared representation counts over products;
* ``energy_parametrized`` - coprime-pair parametrization of the equation.

Two exact routes close the coprime-pair sum for special weights and are
cross-validated against the other three in the tests:

* ``energy_interval`` - unit weights on a prefix [1, M], the usual energy
  E(M), as one totient sum;
* ``energy_level_exact`` - indicator weights of a fixed Omega-level, reduced
  to level-count lookups through Moebius inclusion-exclusion; it is what
  makes sweeps up to N ~ 2**20 feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .arith import FactorSieve, build_sieve
from .errors import BYTE_BUDGET, InvalidArgumentError, ResourceLimitError, check_bytes
from .weights import WeightVector, sweep_levels

__all__ = [
    "EnergyReport",
    "energy_quadruple",
    "energy_histogram",
    "energy_parametrized",
    "energy_interval",
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
# multiplication_table_count makes N^2 / 2 strided bitmap writes in about
# N^3 / (6 _CHUNK) Python steps (2.8 million at this N)
MULTABLE_LIMIT = 1 << 15
# entries of one bitmap chunk of multiplication_table_count: 2 MB, a core's
# private L2 on a 2-vCPU Xeon; 16 MB chunks sat in the shared L3 and ran 2-3x slower
_CHUNK = 1 << 21
# longest (e, q) piece that energy_level_exact adds in one step
_BATCH = 1 << 18


@dataclass
class EnergyReport:
    n: int
    weight_desc: str
    energy: float
    ratio: float
    evaluator: str


def energy_quadruple(w: WeightVector):
    """Literal enumeration of m1*m2 = n1*n2 over the support (oracle).

    Guarded to N <= 300; this is the reference the fast evaluators are
    checked against, so it stays deliberately naive.
    """
    w.positive_l1()
    if w.limit > QUADRUPLE_LIMIT:
        raise ResourceLimitError(f"quadruple oracle refuses N > {QUADRUPLE_LIMIT}")
    supp = [int(m) for m in w.support]
    n = w.limit
    integral = w.is_integral
    # Python numbers: integer weights accumulate exactly, with no int64 wrap
    vals = [int(v) if integral else float(v) for v in w.values]
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
    check_bytes(8 * len(left) * len(right), "product table")
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
    w.positive_l1()
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
    w.positive_l1()
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


def _unit_prefix(w: WeightVector) -> int | None:
    """M when w is 1 on [1, M] and 0 above it, else None."""
    m = int(np.count_nonzero(w.values))
    return m if m and (w.values[1 : m + 1] == 1).all() else None


def energy_interval(w: WeightVector, sieve: FactorSieve | None = None) -> int:
    """E(M) of unit weights on [1, M]: M**2 + 2 sum_{m=2..M} phi(m) floor(M/m)**2.

    The coprime-pair sum of ``energy_parametrized`` in closed form: on [1, M]
    the inner sum of a coprime pair (d1, d2) is floor(M / max(d1, d2))**2, and
    each m >= 2 is the larger entry of 2 phi(m) ordered coprime pairs.  The
    sieve (built to M when not given) supplies phi.  Raises
    InvalidArgumentError unless w is 1 on some [1, M] and 0 above it.
    """
    m = _unit_prefix(w)
    if m is None:
        raise InvalidArgumentError("interval evaluator needs weights 1 on [1, M] and 0 above M")
    if sieve is None:
        sieve = build_sieve(m)
    elif m > sieve.limit:
        raise InvalidArgumentError(f"prefix [1, {m}] exceeds sieve limit {sieve.limit}")
    q = m // np.arange(2, m + 1)
    # phi(m) floor(M/m)**2 <= M**2 / m, so every term and E <= M**2 (2 ln M + 1)
    # stay below 2**63 for M <= 4*10**8, past the 4.5*10**7 that build_sieve admits
    return m * m + 2 * int(sieve.phi[2 : m + 1] @ (q * q))


def _pair_pieces(es: np.ndarray, n: int):
    """Pieces of the pairs (e, q) with e in es (sorted) and e*q <= n.

    Hyperbola split at s = isqrt(n): each e <= s gives the arange of its
    multiples' cofactors q, and each q <= n // (s + 1) gives the prefix of
    es in (s, n // q].  That is about 2 sqrt(n) Python steps, and every
    piece holds at most _BATCH pairs.
    """
    s = math.isqrt(n)
    small, big = es[es <= s], es[es > s]
    for e in small.tolist():
        for lo in range(1, n // e + 1, _BATCH):
            q = np.arange(lo, min(lo + _BATCH, n // e + 1))
            yield np.full(len(q), e), q
    for q in range(1, n // (s + 1) + 1):
        top = big[: np.searchsorted(big, n // q, side="right")]
        for lo in range(0, len(top), _BATCH):
            e = top[lo : lo + _BATCH]
            yield e, np.full(len(e), q)


def energy_level_exact(sieve: FactorSieve, n: int, k: int):
    """Exact energy of the level-k indicator via inclusion-exclusion.

    Writing the coprime-pair sum over (d1, d2) with Omega(d1) = Omega(d2) = j
    and grouping by m = max(d1, d2), the inner h-sum becomes a level count
    and the coprimality condition unfolds over squarefree divisors e of m:

        coprime_below[m] = sum over e | m of mu(e) cnt[Omega(m) - Omega(e), m/e - 1],

    where cnt[t, x] = #{1 <= y <= x : Omega(y) = t}.  The count table holds
    the rows t <= k as int32, (k+1)(N+1)*4 bytes (88 MB at N = 2**20,
    k = 20), refused above the byte budget.  The pairs (e, q = m/e) with e
    squarefree, Omega(e) <= k and e*q <= N (9.1M of them for k = 3 at
    N = 2**20) come from a hyperbola split.  Each piece fixes e or q, so its
    products m = e*q are distinct and the piece is added into coprime_below
    in place, with no temporary of length N + 1.
    """
    if n < 1 or n > sieve.limit:
        raise InvalidArgumentError("need 1 <= N <= sieve.limit")
    om = sieve.omega[: n + 1]
    kmax = int(om[1:].max()) if n > 1 else 0
    if k < 0 or k > kmax:
        return 0
    check_bytes(4 * (k + 1) * (n + 1), "level count table")
    cnt = np.zeros((k + 1, n + 1), dtype=np.int32)
    for t in range(k + 1):
        np.cumsum(om[1:] == t, dtype=np.int32, out=cnt[t, 1:])
    mu = sieve.mobius()
    # candidates for the coprimality unfolding: squarefree e with Omega <= k
    es = np.nonzero((mu[: n + 1] != 0) & (om <= k))[0]
    coprime_below = np.zeros(n + 1, dtype=np.float64)
    for e, q in _pair_pieces(es, n):
        m = e * q
        keep = om[m] <= k
        e, q, m = e[keep], q[keep], m[keep]
        # e | m, so Omega(m) - Omega(e) >= 0, and (m - 1) // e = q - 1
        coprime_below[m] += mu[e] * cnt[om[m] - om[e], q - 1]
    ms = np.nonzero(om[2:] <= k)[0] + 2
    f = cnt[k - om[ms], n // ms].astype(np.float64)
    pk = float(cnt[k, n])
    # nonnegative integer terms: exact in any order below the guard; a numpy
    # sum, not a BLAS dot, whose worker threads spin for no wall-time gain
    total = 2.0 * float((f * f * coprime_below[ms]).sum()) + pk * pk
    if total >= 2.0**53:
        raise ResourceLimitError("energy exceeds exact float64 integer range")
    return int(total)


def energy_ratio(
    w: WeightVector, evaluator: str = "auto", sieve: FactorSieve | None = None
) -> EnergyReport:
    """N**2 * energy / l1(w)**4 with the evaluator recorded.

    "auto" takes the interval route for unit weights on a prefix [1, M], else
    the histogram while its product table fits the byte budget, else the
    parametrized route.  ``sieve``, when given, supplies the interval route's
    phi table.
    """
    l1 = w.positive_l1()
    if evaluator == "auto":
        if _unit_prefix(w) is not None:
            evaluator = "interval"
        else:
            evaluator = "histogram" if 8 * len(w.support) ** 2 <= BYTE_BUDGET else "parametrized"
    fn = {
        "quadruple": energy_quadruple,
        "histogram": energy_histogram,
        "parametrized": energy_parametrized,
        "interval": lambda v: energy_interval(v, sieve),
    }.get(evaluator)
    if fn is None:
        raise InvalidArgumentError(f"unknown evaluator {evaluator!r}")
    e = fn(w)
    ratio = w.limit * w.limit * float(e) / l1**4
    return EnergyReport(
        n=w.limit,
        weight_desc=w.label,
        energy=float(e),
        ratio=ratio,
        evaluator=evaluator,
    )


def _level_energy_ratio(sieve: FactorSieve, n: int, k: int, l1: int) -> float:
    return n * n * float(energy_level_exact(sieve, n, k)) / float(l1) ** 4


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
    if n > MULTABLE_LIMIT:
        raise ResourceLimitError(f"multiplication table refuses N > {MULTABLE_LIMIT}")
    # mark-and-count over the value range [1, N^2], one bitmap chunk at a time;
    # each product a*b is marked once, from its factor a <= b, so a <= isqrt(hi),
    # and b <= N, so a >= lo / N
    total = 0
    n2 = n * n
    lo = 1
    seen = np.zeros(min(_CHUNK, n2), dtype=bool)
    while lo <= n2:
        hi = min(lo + _CHUNK - 1, n2)
        seen[: hi - lo + 1] = False
        for a in range(max(1, -(-lo // n)), min(n, math.isqrt(hi)) + 1):
            b_lo = max(a, -(-lo // a))
            b_hi = min(n, hi // a)
            if b_lo > b_hi:
                continue
            seen[a * b_lo - lo : a * b_hi - lo + 1 : a] = True
        total += int(np.count_nonzero(seen[: hi - lo + 1]))
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
