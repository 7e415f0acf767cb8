"""Low moments of short character sums and the mollified moment chain.

All family averages run over the nonprincipal characters mod p and are
normalized by 1/(p-1).  The chain combines the r-th moment, the second
moment and a mollified fourth moment with conjugate exponents that satisfy
1/hp + 1/hq + 1/4 = 1; note hq is negative for r in (4/3, 2), which is what
turns the chain into a lower-bound device for the r-th moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import FactorSieve
from .characters import CharacterTable, all_char_sums, all_mollifiers, build_table
from .energy import minimize_energy_over_levels
from .errors import DomainError, InvalidArgumentError
from .weights import WeightVector

__all__ = [
    "HolderExponents",
    "char_moment",
    "char_moment_closed_form",
    "mollified_fourth",
    "holder_chain_check",
    "HolderChainReport",
]


@dataclass(frozen=True)
class HolderExponents:
    """Conjugate exponents of the moment chain for 4/3 < r < 2."""

    r: float

    def __post_init__(self):
        if not (4.0 / 3.0 < self.r < 2.0):
            raise InvalidArgumentError("r must lie in (4/3, 2)")

    @property
    def alpha(self) -> float:
        return self.r / (4.0 - 2.0 * self.r)

    @property
    def beta(self) -> float:
        return (8.0 - 6.0 * self.r) / (8.0 - 4.0 * self.r)

    @property
    def hp(self) -> float:
        return 4.0 - 2.0 * self.r

    @property
    def hq(self) -> float:
        return (8.0 - 4.0 * self.r) / (4.0 - 3.0 * self.r)

    def identity_residuals(self) -> tuple[float, float]:
        """(alpha+beta-1, 1/hp + 1/hq + 1/4 - 1); both are identically 0."""
        return (
            self.alpha + self.beta - 1.0,
            1.0 / self.hp + 1.0 / self.hq + 0.25 - 1.0,
        )


def _nonprincipal_sums(table: CharacterTable, n: int) -> np.ndarray:
    return all_char_sums(table, 0, n)[1:]


def char_moment(p: int, n: int, k: float, table: CharacterTable | None = None) -> float:
    """(1/(p-1)) sum over nonprincipal chi of |S_chi(N)|^k."""
    if n >= p:
        raise InvalidArgumentError("need N < p")
    if n < 1 or not 0 < k < math.inf:
        raise InvalidArgumentError("need N >= 1 and a finite k > 0")
    if table is None:
        table = build_table(p)
    s = _nonprincipal_sums(table, n)
    return float((np.abs(s) ** k).sum()) / (p - 1)


def char_moment_closed_form(p: int, n: int) -> float:
    """Orthogonality closed form of the second moment: N - N^2/(p-1)."""
    if n >= p:
        raise InvalidArgumentError("need N < p")
    return n - n * n / (p - 1.0)


def mollified_fourth(
    p: int, n: int, w: WeightVector, table: CharacterTable | None = None
) -> float:
    """(1/(p-1)) sum over nonprincipal chi of |M_chi(N)|^4, for N < sqrt(p).

    Below sqrt(p) the products in the expansion cannot wrap mod p, so this
    equals energy(N, w) - l1(w)^4/(p-1) exactly.
    """
    if n * n >= p:
        raise DomainError("hypothesis N < sqrt(p) violated")
    if w.limit > n:
        raise InvalidArgumentError("weight vector must live on [1, N]")
    if table is None:
        table = build_table(p)
    m = all_mollifiers(table, w)[1:]
    return float((np.abs(m) ** 4).sum()) / (p - 1)


@dataclass
class HolderChainReport:
    p: int
    n: int
    r: float
    s1: float
    s2: float
    sr: float
    m4: float
    slack: float
    lower_bound: float
    lhs: float
    rhs: float
    lhs_closed_form: float


def holder_chain_check(
    p: int,
    n: int,
    r: float,
    w: WeightVector,
    sieve: FactorSieve | None = None,
    table: CharacterTable | None = None,
) -> HolderChainReport:
    """Numerical verification of the mollified moment chain at (p, N, r).

    lhs = (1/(p-1)) |sum of S_chi(N) M_chi(N) over nonprincipal chi| and
    rhs = Sr^(1/(4-2r)) S2^((4-3r)/(8-4r)) M4^(1/4); slack = rhs - lhs must
    be nonnegative.  Also reports the trend quantity N^(r/2) / E(N)^(1-r/2)
    with E(N) the level-minimized energy ratio (no constant asserted), and
    the orthogonality closed form of the lhs, l1(w) (1 - N/(p-1)).
    """
    exps = HolderExponents(r)  # validates the r range
    # the chain inequality itself only needs N < p; N < sqrt(p) is required
    # only where the fourth moment is traded for the energy (mollified_fourth)
    if n < 1:
        raise InvalidArgumentError("need N >= 1")
    if n >= p:
        raise DomainError("need N < p")
    if table is None:
        table = build_table(p)
    s = _nonprincipal_sums(table, n)
    m = all_mollifiers(table, w)[1:]
    lhs = abs(complex((s * m).sum())) / (p - 1)
    s1 = float(np.abs(s).sum()) / (p - 1)
    s2 = float((np.abs(s) ** 2).sum()) / (p - 1)
    sr = float((np.abs(s) ** r).sum()) / (p - 1)
    m4 = float((np.abs(m) ** 4).sum()) / (p - 1)
    rhs = sr ** (1.0 / exps.hp) * s2 ** ((4.0 - 3.0 * r) / (8.0 - 4.0 * r)) * m4**0.25
    if sieve is not None and sieve.limit >= n:
        _, eratio = minimize_energy_over_levels(n, sieve)
        lower = n ** (r / 2.0) / eratio ** (1.0 - r / 2.0)
    else:
        lower = float("nan")
    return HolderChainReport(
        p=p,
        n=n,
        r=r,
        s1=s1,
        s2=s2,
        sr=sr,
        m4=m4,
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        lower_bound=lower,
        lhs_closed_form=w.l1() * (1.0 - n / (p - 1.0)),
    )
