"""Theta series of even characters, mollified moments, and non-vanishing counts.

theta(x, chi) = sum over n >= 1 of chi(n) exp(-pi n^2 x / p), truncated with a
certified geometric tail bound far below the non-vanishing threshold, so a
value above the threshold is a genuine non-vanishing witness.  A value below
it is reported as undetermined rather than as a zero: doubles cannot certify
exact vanishing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import FactorSieve
from .characters import Character, CharacterTable, all_mollifiers, build_table
from .energy import PAIR_BUDGET, energy_histogram, minimize_energy_over_levels
from .errors import InvalidArgumentError, ResourceLimitError
from .weights import WeightVector, omega_level_weights

__all__ = [
    "ThetaValue",
    "MomentReport",
    "even_characters",
    "theta_truncation",
    "theta_tail_bound",
    "theta",
    "all_even_thetas",
    "mollifier",
    "moment_report",
    "orthogonality_sum",
    "nonvanishing_count",
    "lower_bound_report",
    "LowerBoundReport",
    "mollifier_cutoff",
]

TARGET_DIGITS = 17
DEFAULT_THRESHOLD = 1e-8


def mollifier_cutoff(p: int) -> int:
    """floor(sqrt(p/3)) in exact integer arithmetic."""
    return math.isqrt(p // 3)


def even_characters(table: CharacterTable) -> list[Character]:
    """The (p-1)/2 even characters (even index), principal included."""
    return [Character(table, a) for a in range(0, table.p - 1, 2)]


def theta_truncation(p: int, x: float) -> int:
    """Summation length guaranteeing a tail below 10**-17 / p."""
    if not (math.isfinite(x) and x > 0):
        raise InvalidArgumentError("x must be finite and positive")
    length = math.sqrt(p * (TARGET_DIGITS * math.log(10) + math.log(p)) / (math.pi * x))
    if length > PAIR_BUDGET:
        raise ResourceLimitError(f"theta needs {length:.3g} terms, above budget {PAIR_BUDGET}")
    return math.ceil(length)


def theta_tail_bound(p: int, x: float, n0: int) -> float:
    """Certified bound on the absolute tail past n0 (geometric domination)."""
    q = math.exp(-math.pi * x * (2 * n0 + 1) / p)
    return math.exp(-math.pi * n0 * n0 * x / p) / (1.0 - q)


@dataclass
class ThetaValue:
    p: int
    index: int
    x: float
    value: complex
    n_max: int
    tail_bound: float

    def __post_init__(self):
        if self.tail_bound >= 1e-15 * max(1.0, abs(self.value)):
            raise InvalidArgumentError("truncation tail is not certified below 1e-15")


def theta(chi: Character, x: float) -> ThetaValue:
    """Truncated theta value of one character, with certified tail."""
    p = chi.p
    n_max = theta_truncation(p, x)
    ns = np.arange(1, n_max + 1)
    coeff = np.exp(-math.pi * x * ns.astype(np.float64) ** 2 / p)
    vals = chi.values()
    total = complex((vals[ns % p] * coeff).sum())
    return ThetaValue(
        p=p,
        index=chi.index,
        x=x,
        value=total,
        n_max=n_max,
        tail_bound=theta_tail_bound(p, x, n_max),
    )


def all_even_thetas(table: CharacterTable, x: float) -> tuple[np.ndarray, int, float]:
    """Theta values for every even character index (0, 2, ...) at once.

    Coefficients are folded into residue classes and transformed with one
    length-(p-1) FFT, so the cost is O(sqrt(p log p) + p log p) per modulus.
    Returns (values ordered by even index, n_max, tail bound).
    """
    p = table.p
    n_max = theta_truncation(p, x)
    ns = np.arange(1, n_max + 1)
    coeff = np.exp(-math.pi * x * ns.astype(np.float64) ** 2 / p)
    folded = np.zeros(p, dtype=np.float64)
    np.add.at(folded, ns % p, coeff)
    return table.transform(folded)[0 : p - 1 : 2], n_max, theta_tail_bound(p, x, n_max)


def mollifier(chi: Character, w: WeightVector) -> complex:
    """Short Dirichlet polynomial sum of w(m) conj(chi(m))."""
    if w.limit > mollifier_cutoff(chi.p):
        raise InvalidArgumentError("weight support must fit below floor(sqrt(p/3))")
    vals = chi.values()
    supp = w.support
    return complex((w.values[supp] * np.conj(vals[supp % chi.p])).sum())


@dataclass
class MomentReport:
    p: int
    x: float
    weight_desc: str
    m1_real: float
    m1_abs: float
    m2: float
    m4_direct: float
    m4_identity: float
    m0_count: int
    holder_slack: float
    threshold: float
    tail_bound: float


def moment_report(
    p: int,
    x: float,
    w: WeightVector,
    threshold: float = DEFAULT_THRESHOLD,
    table: CharacterTable | None = None,
) -> MomentReport:
    """First, second and mollified fourth moment over the even characters.

    The fourth moment is computed twice: directly, and through the exact
    identity (p-1)/2 * energy(floor(sqrt(p/3)), w); the two must agree to
    1e-6 relative.
    """
    if w.l1() <= 0:
        raise InvalidArgumentError("weight vector must have positive l1 norm")
    if table is None:
        table = build_table(p)
    thetas, _, tail = all_even_thetas(table, x)
    if not threshold > tail:  # also rejects a NaN threshold
        raise InvalidArgumentError("threshold must exceed the certified tail bound")
    cutoff = mollifier_cutoff(p)
    if w.limit > cutoff:
        raise InvalidArgumentError("weight support must fit below floor(sqrt(p/3))")
    molls = all_mollifiers(table, w)[0 : p - 1 : 2]
    m1 = complex((molls * thetas).sum())
    m2 = float((np.abs(thetas) ** 2).sum())
    m4 = float((np.abs(molls) ** 4).sum())
    m4_id = 0.5 * (p - 1) * float(energy_histogram(w))
    m0 = int((np.abs(thetas) > threshold).sum())
    slack = math.sqrt(m2) * m4**0.25 * m0**0.25 - abs(m1)
    return MomentReport(
        p=p,
        x=x,
        weight_desc=w.label,
        m1_real=m1.real,
        m1_abs=abs(m1),
        m2=m2,
        m4_direct=m4,
        m4_identity=m4_id,
        m0_count=m0,
        holder_slack=slack,
        threshold=threshold,
        tail_bound=tail,
    )


def orthogonality_sum(table: CharacterTable, m: int, n: int) -> int:
    """Direct sum of chi(m) conj(chi(n)) over the even subgroup.

    Equals (p-1)/2 exactly when m = +-n mod p and (mn, p) = 1, else 0.
    """
    total = 0j
    for chi in even_characters(table):
        total += chi(m) * chi(n).conjugate()
    out = round(total.real)
    if abs(total - out) > 1e-6 * table.p:
        raise InvalidArgumentError("orthogonality sum failed to round cleanly")
    return out


def nonvanishing_count(p: int, x: float, threshold: float = DEFAULT_THRESHOLD) -> int:
    """Number of even characters with |theta(x, chi)| above the threshold."""
    table = build_table(p)
    thetas, _, tail = all_even_thetas(table, x)
    if not threshold > tail:  # also rejects a NaN threshold
        raise InvalidArgumentError("threshold must exceed the certified tail bound")
    return int((np.abs(thetas) > threshold).sum())


@dataclass
class LowerBoundReport:
    p: int
    x: float
    level: int
    floor: float
    m0_observed: int
    energy_ratio: float


def lower_bound_report(p: int, x: float, sieve: FactorSieve) -> LowerBoundReport:
    """Unconditional non-vanishing floor m1^4 / (m2^2 m4) vs the observed count.

    Weights are the energy-minimizing Omega-level indicator on [1, cutoff].
    """
    cutoff = mollifier_cutoff(p)
    if cutoff < 1:
        raise InvalidArgumentError("p too small for a mollifier")
    k, eratio = minimize_energy_over_levels(cutoff, sieve)
    w = omega_level_weights(sieve, cutoff, k)
    rep = moment_report(p, x, w)
    floor = rep.m1_abs**4 / (rep.m2**2 * rep.m4_direct)
    return LowerBoundReport(
        p=p, x=x, level=k, floor=floor, m0_observed=rep.m0_count, energy_ratio=eratio
    )
