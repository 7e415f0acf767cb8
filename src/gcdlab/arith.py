"""Sieves and elementary arithmetic shared by every other module.

The central object is :class:`FactorSieve`, a one-pass smallest-prime-factor
sieve from which the prime-factor count table (with multiplicity), the Euler
totient table and the Moebius table are derived.  All tables are plain numpy
arrays indexed by n itself (index 0 is a filler), immutable by convention
after construction, and safe for shared concurrent reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, check_bytes

__all__ = ["FactorSieve", "build_sieve", "is_prime"]


@dataclass
class FactorSieve:
    """Precomputed factorization tables for 1..limit.

    Attributes
    ----------
    limit : int
        Largest n covered by the tables.
    omega : np.ndarray
        omega[n] = number of prime factors of n counted with multiplicity
        (omega[1] = 0).
    spf : np.ndarray
        spf[n] = smallest prime factor of n for n >= 2; spf[1] = 1.
    phi : np.ndarray
        phi[n] = Euler totient of n.
    """

    limit: int
    omega: np.ndarray
    spf: np.ndarray
    phi: np.ndarray
    _mobius: np.ndarray = field(repr=False)

    @property
    def primes(self) -> np.ndarray:
        n = np.arange(2, self.limit + 1)
        return n[self.spf[2:] == n]

    def mobius(self) -> np.ndarray:
        """Moebius table mu[0..limit] (mu[0] = 0)."""
        return self._mobius


def build_sieve(limit: int) -> FactorSieve:
    """Build all tables up to ``limit`` in O(limit log log limit).

    Raises InvalidArgumentError for limit < 1, ResourceLimitError above the byte budget.
    """
    if limit < 1:
        raise InvalidArgumentError("sieve limit must be >= 1")
    check_bytes(8 * (limit + 1), "sieve")
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            seg = spf[p * p :: p]
            seg[seg == 0] = p
    untouched = np.nonzero(spf[2:] == 0)[0] + 2  # primes > sqrt(limit) and small primes
    spf[untouched] = untouched
    spf[1] = 1

    # strip one smallest prime factor p per pass from every n not yet reduced
    # to 1; p still dividing the rest marks a square factor (mu = 0), and the
    # last copy of p multiplies phi by (1 - 1/p)
    omega = np.zeros(limit + 1, dtype=np.int64)
    phi = np.arange(limit + 1, dtype=np.int64)
    mu = np.ones(limit + 1, dtype=np.int64)
    mu[0] = 0
    active = np.arange(2, limit + 1)
    rest = active.copy()
    while len(active):
        omega[active] += 1
        p = spf[rest]
        rest //= p
        again = rest % p == 0
        mu[active[again]] = 0
        last, p = active[~again], p[~again]
        mu[last] = -mu[last]
        phi[last] = phi[last] // p * (p - 1)
        keep = rest > 1
        active, rest = active[keep], rest[keep]

    return FactorSieve(limit=limit, omega=omega, spf=spf, phi=phi, _mobius=mu)


# Witness set proven sufficient for every n < 3.3e24, well past 2**63.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test, correct for all n <= 2**63."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
