"""Exponent calculus behind both minimization problems.

Everything here is a pure function of the large-deviation rate function
``rate_function(x) = x log x - x + 1`` that governs the density of the sets
{m <= N : Omega(m) = k}.  The module evaluates the upper-bound envelopes for
the two normalized ratios, the closed-form inner minimizers appearing in
them, and solves for the crossover constants numerically.

Root finding is deliberately plain: a sign-change scan at step 1e-3 followed
by bisection.  Robustness and determinism matter more than speed here; every
solve finishes in microseconds anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvalidArgumentError, SolverError

__all__ = [
    "rate_function",
    "lambda_two_one",
    "lambda_half",
    "lambda_one_two",
    "gcd_saving_exponent",
    "gcd_upper_exponent",
    "energy_saving_exponent",
    "energy_upper_exponent",
    "solve_kappa_star_gcd",
    "solve_kappa_two",
    "lower_bound_level",
    "lower_bound_exponent",
    "VariationalConstants",
    "delta_constants",
    "bisect",
]

KAPPA_STAR_ENERGY = 1.0 / math.log(4.0)  # closed form; solves 1 + 2Q(k) - 4Q(k/2) = 0


def rate_function(x: float) -> float:
    """x log x - x + 1, extended by continuity to rate_function(0) = 1."""
    if not 0 <= x < math.inf:
        raise InvalidArgumentError("rate_function needs a finite x >= 0")
    if x == 0.0:
        return 1.0
    return x * math.log(x) - x + 1.0


_Q = rate_function


def lambda_two_one(kappa: float) -> float:
    """Minimizer of 2*Q(kappa-t) + Q(t) over t in [0, kappa]."""
    if kappa < 0:
        raise InvalidArgumentError("kappa must be >= 0")
    return 0.5 * (2.0 * kappa + 1.0 - math.sqrt(4.0 * kappa + 1.0))


def lambda_half(kappa: float) -> float:
    """Minimizer of Q(kappa-t) + Q(t): the symmetric split."""
    if kappa < 0:
        raise InvalidArgumentError("kappa must be >= 0")
    return 0.5 * kappa


def lambda_one_two(kappa: float) -> float:
    """Minimizer of Q(kappa-t) + 2*Q(t) over t in [0, kappa]."""
    if kappa < 0:
        raise InvalidArgumentError("kappa must be >= 0")
    return 0.5 * (math.sqrt(4.0 * kappa + 1.0) - 1.0)


def _check_open_range(kappa: float) -> None:
    if not 0.0 < kappa < 2.0:
        raise InvalidArgumentError("kappa must lie in the open interval (0, 2)")


def gcd_saving_exponent(kappa: float) -> float:
    """Exponent saved by level weights in the gcd-sum quadratic form.

    min over the two clamp branches (each at its closed-form minimizer) and
    the trivial branch.
    """
    _check_open_range(kappa)
    t1 = lambda_two_one(kappa)
    branch1 = 2.0 * _Q(kappa - t1) + _Q(t1) - 1.0
    branch2 = 2.0 * _Q(0.5 * kappa) - 0.625
    return min(branch1, branch2, _Q(kappa))


def gcd_upper_exponent(kappa: float) -> float:
    """Envelope exponent for the level-weight T1 ratio: 2*Q(kappa) - saving."""
    _check_open_range(kappa)
    t1 = lambda_two_one(kappa)
    return max(
        1.0 + 2.0 * _Q(kappa) - 2.0 * _Q(kappa - t1) - _Q(t1),
        2.0 * _Q(kappa) - 2.0 * _Q(0.5 * kappa) + 0.625,
        _Q(kappa),
    )


def energy_saving_exponent(kappa: float) -> float:
    """Exponent saved by level weights in the multiplicative energy."""
    _check_open_range(kappa)
    t3 = lambda_one_two(kappa)
    branch1 = 4.0 * _Q(0.5 * kappa) - 1.0
    branch2 = _Q(kappa - t3) + 2.0 * _Q(t3) - 0.625
    return min(branch1, branch2, 2.0 * _Q(kappa))


def energy_upper_exponent(kappa: float) -> float:
    """Envelope exponent for the level-weight energy ratio: 4*Q(kappa) - saving."""
    _check_open_range(kappa)
    t3 = lambda_one_two(kappa)
    return max(
        4.0 * _Q(kappa) - 4.0 * _Q(0.5 * kappa) + 1.0,
        4.0 * _Q(kappa) - _Q(kappa - t3) - 2.0 * _Q(t3) + 0.625,
        2.0 * _Q(kappa),
    )


def bisect(f, lo: float, hi: float, tol: float = 1e-12, scan_step: float = 1e-3):
    """Bisection after a sign-change scan of [lo, hi] at ``scan_step``."""
    if not 0 < tol < math.inf:
        raise InvalidArgumentError("tol must be finite and positive")
    a = lo
    fa = f(a)
    bracket = None
    while a < hi:
        b = min(a + scan_step, hi)
        fb = f(b)
        if fa == 0.0:
            return a
        if fa * fb <= 0.0:
            bracket = (a, b, fa, fb)
            break
        a, fa = b, fb
    if bracket is None:
        raise SolverError(f"no sign change in [{lo}, {hi}]")
    a, b, fa, fb = bracket
    while b - a > tol:
        m = 0.5 * (a + b)
        if not a < m < b:  # a and b are adjacent floats: tol is below their spacing
            break
        fm = f(m)
        if fa * fm <= 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _kappa_star_equation(kappa: float) -> float:
    t1 = lambda_two_one(kappa)
    return 1.0 + _Q(kappa) - 2.0 * _Q(kappa - t1) - _Q(t1)


def solve_kappa_star_gcd(tol: float = 1e-12) -> float:
    """Crossover where the first gcd envelope branch meets the trivial one.

    Unique root in (0, 1) of 1 + Q(k) - 2Q(k - lambda_two_one(k))
    - Q(lambda_two_one(k)) = 0; approximately 0.48154.
    """
    return bisect(_kappa_star_equation, 1e-9, 1.0 - 1e-9, tol=tol)


def _mid_level(kappa: float) -> float:
    """Stationary second-level multiplier: the root of rho**2 = rho + kappa."""
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * kappa))


def _kappa_two_equation(kappa: float) -> float:
    # offset clamp crossover Q(rho+kappa) - Q(rho) = 3/8; the un-offset
    # variant Q(rho+kappa) = 3/8 has its root near 0.575 instead of the
    # 0.6566 branch point the piecewise level function uses
    rho = _mid_level(kappa)
    return _Q(rho + kappa) - _Q(rho) - 0.375


def solve_kappa_two(tol: float = 1e-12) -> float:
    """Upper end of the middle branch used in the gcd-sum lower bound; ~0.6566."""
    return bisect(_kappa_two_equation, 1e-9, 1.5, tol=tol)


_BREAKPOINTS: dict[str, float] = {}


def _breakpoints() -> tuple[float, float]:
    if not _BREAKPOINTS:
        _BREAKPOINTS["kappa_star"] = solve_kappa_star_gcd()
        _BREAKPOINTS["kappa_two"] = solve_kappa_two()
    return _BREAKPOINTS["kappa_star"], _BREAKPOINTS["kappa_two"]


def lower_bound_level(kappa: float) -> float:
    """Second-level multiplier rho(kappa) used in the lower-bound argument.

    Equals 1 outside the middle window [kappa_star, kappa_two] and the
    stationary value (1 + sqrt(1+4k))/2 inside it.
    """
    if kappa < 0:
        raise InvalidArgumentError("kappa must be >= 0")
    ks, k2 = _breakpoints()
    if ks <= kappa <= k2:
        return _mid_level(kappa)
    return 1.0


def lower_bound_exponent(kappa: float) -> float:
    """Lower-bound exponent candidate at level fraction kappa.

    max of the density deficit Q(kappa) - Q(rho) and the clamped distinct-
    product saving min(Q(rho+kappa), 3/8) - 2 Q(rho), with rho the piecewise
    second-level multiplier.  Its minimum over kappa reproduces the gcd-sum
    exponent; no closed numeric value is asserted for the function itself.
    """
    if kappa < 0:
        raise InvalidArgumentError("kappa must be >= 0")
    rho = lower_bound_level(kappa)
    return max(
        _Q(kappa) - _Q(rho),
        min(_Q(rho + kappa), 0.375) - 2.0 * _Q(rho),
    )


@dataclass
class VariationalConstants:
    """All solved constants of the exponent calculus, with solve residuals."""

    kappa_star_gcd: float
    delta0: float
    second_branch: float
    kappa_two: float
    q_one_plus_kappa_two: float
    kappa_star_energy: float
    delta: float
    delta_closed_form: float
    alpha: float
    q_two: float
    tol: float
    residuals: dict = field(default_factory=dict)

    def validate(self) -> None:
        if abs(self.delta0 - rate_function(self.kappa_star_gcd)) > 1e-12:
            raise SolverError("delta0 must equal the rate function at kappa_star")
        if abs(self.delta - 2.0 * rate_function(KAPPA_STAR_ENERGY)) > 1e-12:
            raise SolverError("delta must equal twice the rate function at 1/log 4")
        if abs(self.delta - self.delta_closed_form) > 1e-12:
            raise SolverError("delta disagrees with its closed form")
        for name, r in self.residuals.items():
            if abs(r) > max(self.tol * 1e3, 1e-9):
                raise SolverError(f"residual {name} = {r} too large")
        for name in ("kappa_star_gcd", "delta0", "kappa_two", "kappa_star_energy", "delta", "alpha"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise SolverError(f"{name} = {v} outside (0, 1)")


def delta_constants(tol: float = 1e-12) -> VariationalConstants:
    """Solve and assemble every constant, cross-checking closed forms."""
    ks = solve_kappa_star_gcd(tol)
    k2 = solve_kappa_two(tol)
    ke = KAPPA_STAR_ENERGY
    delta = 2.0 * _Q(ke)
    delta_closed = 1.0 - (1.0 + math.log(math.log(2.0))) / math.log(2.0)
    t3 = lambda_one_two(ke)
    alpha = 4.0 * _Q(ke) - _Q(ke - t3) - 2.0 * _Q(t3) + 0.625
    rho_ks = _mid_level(ks)
    residuals = {
        "kappa_star_defining": _kappa_star_equation(ks),
        # alternate characterization through the lower-bound branch; shares
        # the same root, re-verified numerically
        "kappa_star_lower_bound": _Q(ks) - _Q(rho_ks + ks) + 2.0 * _Q(rho_ks),
        "kappa_two_defining": _kappa_two_equation(k2),
        "kappa_star_energy_defining": 1.0 + 2.0 * _Q(ke) - 4.0 * _Q(0.5 * ke),
    }
    consts = VariationalConstants(
        kappa_star_gcd=ks,
        delta0=_Q(ks),
        second_branch=2.0 * _Q(ks) - 2.0 * _Q(0.5 * ks) + 0.625,
        kappa_two=k2,
        q_one_plus_kappa_two=_Q(1.0 + k2),
        kappa_star_energy=ke,
        delta=delta,
        delta_closed_form=delta_closed,
        alpha=alpha,
        q_two=_Q(2.0),
        tol=tol,
        residuals=residuals,
    )
    consts.validate()
    return consts
