"""Multiplicative characters mod a prime, character sums, and the averaged
congruence counts behind the short-character-sum envelope.

A character table stores the discrete logarithm to the smallest primitive
root; each character is then an index a with chi(n) = zeta^(a * dlog n) for
zeta the primitive (p-1)-th root of unity.  Family-wide sums (over every
character at once) go through a length-(p-1) FFT over the dlog ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arith import FactorSieve, build_sieve, is_prime
from .errors import DomainError, InvalidArgumentError, check_bytes
from .gcdsums import Kernel, gcd_quadratic_form, t0_max_profile
from .weights import WeightVector

__all__ = [
    "CharacterTable",
    "Character",
    "build_table",
    "char_sum",
    "all_char_sums",
    "all_mollifiers",
    "weil_moment_check",
    "congruence_count",
    "weighted_congruence_count",
    "WeightedCongruenceReport",
    "lattice_count",
    "lattice_count_bound",
    "burgess_max_n",
    "burgess_envelope",
    "burgess_scan",
    "BurgessReport",
]


def _factor_distinct(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


_FFT_BLOCK = 1 << 20  # complex entries per FFT call of CharacterTable.transform


@dataclass
class CharacterTable:
    p: int
    g: int
    dlog: np.ndarray  # dlog[n] for n in 1..p-1; dlog[0] = -1 sentinel

    @cached_property
    def unit_roots(self) -> np.ndarray:
        """zeta**j for j = 0..p-2, made on first use: the family transform reads none."""
        return np.exp(2j * np.pi * np.arange(self.p - 1) / (self.p - 1))

    def character(self, index: int) -> "Character":
        return Character(self, index % (self.p - 1))

    def characters(self):
        return (Character(self, a) for a in range(self.p - 1))

    def nonprincipal(self):
        return (Character(self, a) for a in range(1, self.p - 1))

    def transform(self, folded: np.ndarray) -> np.ndarray:
        """Sum over n mod p of folded[..., n] chi_a(n), for every index a at once.

        ``folded`` holds one value per residue 0..p-1 along its last axis,
        one row per family sum; residue 0 drops out (chi(0) = 0).
        Scattering by dlog turns each row into one length-(p-1) inverse FFT.
        The rows go through one FFT call per block of about _FFT_BLOCK
        entries, written back over the scattered block: a call plans the
        length once for all its rows, and each row equals its own 1-D
        transform bit for bit.  The block bound keeps the FFT's scratch,
        which grows with the rows of a call, at one row when p is near 10^6.
        """
        n = self.p - 1
        out = np.zeros(folded.shape[:-1] + (n,), dtype=np.complex128)
        out[..., self.dlog[1:]] = folded[..., 1:]
        rows = out.reshape(-1, n)
        step = max(1, _FFT_BLOCK // n)
        for i in range(0, len(rows), step):
            rows[i : i + step] = np.fft.ifft(rows[i : i + step], axis=-1)
        out *= n
        return out


@dataclass
class Character:
    table: CharacterTable
    index: int

    @property
    def p(self) -> int:
        return self.table.p

    @property
    def is_principal(self) -> bool:
        return self.index == 0

    @property
    def is_even(self) -> bool:
        # chi(-1) = zeta^(a (p-1)/2) = (-1)^a
        return self.index % 2 == 0

    def values(self) -> np.ndarray:
        """chi(n) for n = 0..p-1 as one complex array."""
        t = self.table
        out = np.zeros(t.p, dtype=np.complex128)
        exps = (self.index * t.dlog[1:]) % (t.p - 1)
        out[1:] = t.unit_roots[exps]
        return out

    def __call__(self, n: int) -> complex:
        n %= self.p
        if n == 0:
            return 0j
        t = self.table
        return complex(t.unit_roots[(self.index * int(t.dlog[n])) % (t.p - 1)])

    def conjugate(self) -> "Character":
        return Character(self.table, (-self.index) % (self.p - 1))


def build_table(p: int) -> CharacterTable:
    """Discrete-log table to the smallest primitive root mod p.

    The powers g^t mod p are filled by doubling, powers[k:2k] =
    powers[:k] g^k mod p, about log2(p) array steps; under the size guard
    every product stays below p^2 <= 2^48.  Scattering t to the slot g^t
    gives the table.
    """
    if p < 3 or not is_prime(p):
        raise InvalidArgumentError(f"p = {p} must be an odd prime")
    # dlog, the powers g^t it is scattered from and unit_roots: 8 + 8 + 16 bytes
    check_bytes(32 * p, f"character table mod {p}")
    qs = _factor_distinct(p - 1)
    g = next(c for c in range(2, p) if all(pow(c, (p - 1) // q, p) != 1 for q in qs))
    powers = np.empty(p - 1, dtype=np.int64)
    powers[0] = 1
    k = 1
    while k < p - 1:
        step = min(k, p - 1 - k)
        block = powers[k : k + step]
        np.multiply(powers[:step], pow(g, k, p), out=block)
        np.remainder(block, p, out=block)
        k += step
    dlog = np.full(p, -1, dtype=np.int64)
    dlog[powers] = np.arange(p - 1)
    return CharacterTable(p=p, g=g, dlog=dlog)


def _residue_counts(p: int, m, n: int) -> np.ndarray:
    """How many integers in (m, m+n] fall in each residue class mod p.

    ``m`` may be a column of offsets; the counts then have one row each.
    """
    r = np.arange(p)
    return (m + n - r) // p - (m - r) // p


def char_sum(chi: Character, m: int, n: int) -> complex:
    """S(M, N) = sum of chi over the interval (M, M+N]."""
    if n < 1:
        raise InvalidArgumentError("interval length must be >= 1")
    counts = _residue_counts(chi.p, m, n)
    return complex(counts @ chi.values())


def all_char_sums(table: CharacterTable, m, n: int) -> np.ndarray:
    """S_chi(M, N) for every character index at once (FFT over dlog order).

    A column of offsets ``m`` gives one row of sums per offset.
    """
    return table.transform(_residue_counts(table.p, m, n))


def all_mollifiers(table: CharacterTable, w: WeightVector) -> np.ndarray:
    """M_chi = sum of w(m) conj(chi(m)) for every character index at once."""
    p = table.p
    if w.limit >= p:
        raise InvalidArgumentError("weight support must stay below p")
    folded = np.zeros(p, dtype=np.float64)
    supp = w.support
    np.add.at(folded, supp % p, w.values[supp].astype(np.float64))
    # conj turns the chi-sum into the conj(chi)-sum for real weights
    return np.conj(table.transform(folded))


def weil_moment_check(chi: Character, b_len: int, r: int) -> tuple[float, float]:
    """Complete 2r-th moment of length-b_len shifted sums vs its Weil bound.

    Returns (lhs, rhs) where lhs = sum over u mod p of |sum_b chi(u+b)|^(2r)
    and rhs = (2r)^r b^r p + 2r b^(2r) sqrt(p).
    """
    if chi.is_principal:
        raise InvalidArgumentError("bound holds for nonprincipal characters only")
    if b_len < 1 or r < 2:
        raise InvalidArgumentError("need B >= 1 and r >= 2")
    p = chi.p
    vals = chi.values()
    us = np.arange(1, p + 1)
    idx = (us[:, None] + np.arange(1, b_len + 1)[None, :]) % p
    inner = vals[idx].sum(axis=1)
    lhs = float((np.abs(inner) ** (2 * r)).sum())
    rhs = (2 * r) ** r * b_len**r * p + 2 * r * b_len ** (2 * r) * math.sqrt(p)
    return lhs, rhs


def congruence_count(p: int, a1: int, a2: int, m: int, n: int) -> int:
    """Solutions M < n1, n2 <= M+N of n1 a1 = n2 a2 mod p."""
    if not (1 <= a1 < p and 1 <= a2 < p):
        raise InvalidArgumentError("need 1 <= a1, a2 < p")
    c = a2 * pow(a1, -1, p) % p
    n2s = np.arange(m + 1, m + n + 1, dtype=np.int64)
    t = (c * n2s) % p
    counts = (m + n - t) // p - (m - t) // p
    return int(counts.sum())


@dataclass
class WeightedCongruenceReport:
    value: float
    majorant: float
    ratio: float


def weighted_congruence_count(
    p: int, w: WeightVector, m: int, n: int
) -> WeightedCongruenceReport:
    """Congruence count averaged against w over a1, a2 <= A.

    Hypotheses A <= N and A*N <= p are enforced.  Also evaluates the
    structural majorant l1(w)^2 + N * (T0 form of w) and the observed ratio.
    """
    a_max = w.limit
    if a_max > n or a_max * n > p:
        raise DomainError("hypotheses A <= N and A*N <= p are violated")
    l1 = w.positive_l1()
    supp = [int(a) for a in w.support]
    total = 0.0
    for a1 in supp:
        for a2 in supp:
            total += float(w.values[a1]) * float(w.values[a2]) * congruence_count(p, a1, a2, m, n)
    majorant = l1 * l1 + n * gcd_quadratic_form(w, Kernel.T0)
    return WeightedCongruenceReport(value=total, majorant=majorant, ratio=total / majorant)


def lattice_count(p: int, a1: int, a2: int, n: int) -> int:
    """Integer pairs with n1^2 + n2^2 <= n and a1 n1 = a2 n2 mod p."""
    if n < 0:
        raise InvalidArgumentError("need n >= 0")
    if math.gcd(a1 * a2, p) != 1:
        raise InvalidArgumentError("need (a1 a2, p) = 1")
    c = a1 * pow(a2, -1, p) % p
    lim = math.isqrt(n)
    n1s = np.arange(-lim, lim + 1, dtype=np.int64)
    t = (c * n1s) % p
    b2 = np.sqrt(np.maximum(n - n1s.astype(np.float64) ** 2, 0.0)).astype(np.int64)
    # widen then verify: float sqrt can land one off
    b2 = np.where((b2 + 1) ** 2 + n1s**2 <= n, b2 + 1, b2)
    b2 = np.where(b2**2 + n1s**2 > n, b2 - 1, b2)
    counts = (b2 - t) // p + (b2 + t) // p + 1
    return int(counts.sum())


def lattice_count_bound(p: int, a1: int, a2: int, n: int) -> float:
    """Shape of the lattice-count majorant (implied constant excluded)."""
    g = math.gcd(a1, a2)
    return 1.0 + n / p + math.sqrt(n) * (a1 + a2) / (p * g) + math.sqrt(n) * g / (a1 + a2)


def burgess_max_n(p: int, r: int) -> float:
    """p^(1/2+1/(4r)), the largest N the envelope admits; needs r >= 2."""
    if r < 2:
        raise DomainError("need r >= 2")
    return p ** (0.5 + 1.0 / (4 * r))


def _check_burgess_length(n: int, p: int, r: int) -> None:
    """Raise DomainError unless r >= 2 and N <= p^(1/2+1/(4r))."""
    if n > burgess_max_n(p, r):
        raise DomainError("hypothesis N <= p^(1/2 + 1/(4r)) violated")


def burgess_envelope(n: int, p: int, r: int, t0max: float) -> float:
    """N^(1-1/r) p^((r+1)/(4 r^2)) t0max^(1/(2r)), under N <= p^(1/2+1/(4r))."""
    _check_burgess_length(n, p, r)
    if not (math.isfinite(t0max) and t0max > 0):
        raise InvalidArgumentError("t0max must be finite and positive")
    return n ** (1 - 1.0 / r) * p ** ((r + 1) / (4.0 * r * r)) * t0max ** (1.0 / (2 * r))


@dataclass
class BurgessReport:
    p: int
    r: int
    n: int
    a_param: int
    b_param: int
    max_sum: float
    envelope: float
    ratio: float
    pv_ratio: float
    t0max: float


def burgess_scan(
    p: int,
    n: int,
    r: int,
    sieve: FactorSieve | None = None,
    t0max: float | None = None,
    offsets: int = 256,
) -> BurgessReport:
    """Max of |S_chi(M, N)| over nonprincipal chi and strided offsets M.

    The full scan over all M costs O(p N #chi); striding M over ceil(p/offsets)
    spacings keeps desk-scale runtime while preserving a meaningful maximum.
    The offsets go through the family transform in blocks of about
    _FFT_BLOCK residue counts.  Without ``t0max`` the T0 profile up to p
    gives it, from ``sieve`` or else from a sieve to p built here.
    """
    if n < 1 or offsets < 1:
        raise InvalidArgumentError("need N >= 1 and offsets >= 1")
    _check_burgess_length(n, p, r)
    table = build_table(p)
    if t0max is None:
        t0max = t0_max_profile(p, sieve if sieve is not None else build_sieve(p))
    env = burgess_envelope(n, p, r, t0max)
    ms = np.arange(0, p, -(-p // offsets))[:offsets, None]
    rows = max(1, _FFT_BLOCK // p)
    best = 0.0
    for i in range(0, len(ms), rows):
        sums = all_char_sums(table, ms[i : i + rows], n)
        best = max(best, float(np.abs(sums[:, 1:]).max()))
    pv = math.sqrt(p) * math.log(p)
    a_param = int(n // (16 * r * p ** (1.0 / (2 * r))))
    b_param = int(r * p ** (1.0 / (2 * r)))
    return BurgessReport(
        p=p,
        r=r,
        n=n,
        a_param=a_param,
        b_param=b_param,
        max_sum=best,
        envelope=env,
        ratio=best / env,
        pv_ratio=best / pv,
        t0max=t0max,
    )
