"""Sieves and elementary arithmetic shared by every other module.

The central object is :class:`FactorSieve`, whose prime-factor count table
(with multiplicity), Euler totient table and Moebius table come from one
pass of strided updates over the primes up to sqrt(limit).  All tables are
plain numpy arrays indexed by n itself (index 0 is a filler), immutable by
convention after construction, and safe for shared concurrent reads.
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
        int8; omega[n] = number of prime factors of n counted with
        multiplicity (omega[1] = 0).
    phi : np.ndarray
        int32; phi[n] = Euler totient of n.
    """

    limit: int
    omega: np.ndarray
    phi: np.ndarray
    _mobius: np.ndarray = field(repr=False)

    @property
    def primes(self) -> np.ndarray:
        return np.nonzero(self.omega == 1)[0]

    def mobius(self) -> np.ndarray:
        """int8 Moebius table mu[0..limit] (mu[0] = 0)."""
        return self._mobius


def build_sieve(limit: int) -> FactorSieve:
    """Build all tables up to ``limit`` in O(limit log log limit).

    Raises InvalidArgumentError for limit < 1, ResourceLimitError above the byte budget.
    """
    if limit < 1:
        raise InvalidArgumentError("sieve limit must be >= 1")
    # int8 omega and mu, int32 phi and rest, and the quotient phi[2::2] // 2;
    # the budget keeps limit below 2**31, so int32 holds every n
    check_bytes(12 * (limit + 1), "sieve")
    omega = np.zeros(limit + 1, dtype=np.int8)
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    phi = np.arange(limit + 1, dtype=np.int32)
    # rest[n] = n with its prime factors <= sqrt(limit) divided out
    rest = np.arange(limit + 1, dtype=np.int32)
    rest[0] = 1
    for p in range(2, math.isqrt(limit) + 1):
        if omega[p]:  # a smaller prime divides p
            continue
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        phi[p::p] -= phi[p::p] // p
        q = p
        while q <= limit:  # each power of p adds 1 to Omega at its multiples
            omega[q::q] += 1
            rest[q::q] //= p
            q *= p
    # what is left above 1 is the one prime factor above sqrt(limit)
    big = rest > 1
    omega += big
    np.negative(mu, out=mu, where=big)
    np.floor_divide(phi, rest, out=rest, where=big)
    np.subtract(phi, rest, out=phi, where=big)
    return FactorSieve(limit=limit, omega=omega, phi=phi, _mobius=mu)


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
