import math

import numpy as np
import pytest

from gcdlab.errors import InvalidArgumentError, SolverError
from gcdlab.exponents import (
    KAPPA_STAR_ENERGY,
    bisect,
    delta_constants,
    energy_saving_exponent,
    energy_upper_exponent,
    gcd_saving_exponent,
    gcd_upper_exponent,
    lambda_half,
    lambda_one_two,
    lambda_two_one,
    lower_bound_level,
    rate_function,
    solve_kappa_star_gcd,
    solve_kappa_two,
)

Q = rate_function


def test_rate_function_anchors():
    assert Q(1.0) == 0.0
    assert Q(0.0) == 1.0
    assert abs(Q(0.48154) - 0.16656) < 1e-4
    assert abs(Q(2.0) - (2 * math.log(2) - 1)) < 1e-15
    assert Q(2.0) > 0.375
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(InvalidArgumentError):
            Q(bad)


def test_rate_function_shape():
    xs = np.linspace(0.01, 3.0, 200)
    qs = np.array([Q(float(x)) for x in xs])
    # decreasing before 1, increasing after
    assert np.all(np.diff(qs[xs < 1.0]) < 0)
    assert np.all(np.diff(qs[xs > 1.0]) > 0)
    # convexity on a grid
    for a in (0.1, 0.5, 1.5):
        for b in (0.2, 0.9, 2.5):
            assert Q(0.5 * (a + b)) <= 0.5 * (Q(a) + Q(b)) + 1e-15


def test_lambda_closed_forms():
    assert lambda_two_one(0.0) == 0.0
    assert lambda_half(0.5) == 0.25
    assert abs(lambda_one_two(2.0) - 1.0) < 1e-15
    for kap in (0.2, 0.48, 1.0, 1.7):
        for fn in (lambda_two_one, lambda_half, lambda_one_two):
            assert 0.0 <= fn(kap) <= kap + 1e-15


@pytest.mark.parametrize("kappa", [0.3, 0.5, 0.7])
def test_lambda_optimality_on_grid(kappa):
    grid = np.linspace(0.0, kappa, 4001)
    obj21 = [2 * Q(kappa - t) + Q(t) for t in grid]
    obj12 = [Q(kappa - t) + 2 * Q(t) for t in grid]
    t21 = lambda_two_one(kappa)
    t12 = lambda_one_two(kappa)
    assert 2 * Q(kappa - t21) + Q(t21) <= min(obj21) + 1e-9
    assert Q(kappa - t12) + 2 * Q(t12) <= min(obj12) + 1e-9


def test_companion_level_maximizes_saving():
    # (1 + sqrt(1+4k))/2 maximizes Q(rho+k) - 2 Q(rho) over rho >= 1
    for kap in (0.5, 0.6565, 1.0):
        rho_star = 0.5 * (1 + math.sqrt(1 + 4 * kap))
        val_star = Q(rho_star + kap) - 2 * Q(rho_star)
        for rho in np.linspace(1.0, 2.5, 3001):
            assert Q(rho + kap) - 2 * Q(float(rho)) <= val_star + 1e-9


def test_envelopes_at_kappa_star():
    ks = solve_kappa_star_gcd()
    assert abs(ks - 0.48154) < 1e-4
    assert abs(gcd_upper_exponent(ks) - 0.16656) < 1e-4
    # the second branch sits strictly below at the optimum
    second = 2 * Q(ks) - 2 * Q(ks / 2) + 0.625
    assert abs(second - 0.1253) < 1e-3
    assert gcd_upper_exponent(ks) == pytest.approx(Q(ks), abs=1e-12)


def test_envelope_validation():
    for bad in (0.0, -1.0, 2.0, 2.5):
        with pytest.raises(InvalidArgumentError):
            gcd_upper_exponent(bad)
        with pytest.raises(InvalidArgumentError):
            energy_upper_exponent(bad)


def test_saving_below_trivial_branch():
    for kap in np.linspace(0.05, 1.95, 77):
        assert gcd_saving_exponent(float(kap)) <= Q(kap) + 1e-15
        assert energy_saving_exponent(float(kap)) <= 2 * Q(kap) + 1e-15
        assert gcd_upper_exponent(float(kap)) == pytest.approx(
            2 * Q(kap) - gcd_saving_exponent(float(kap)), abs=1e-12
        )


def test_grid_minimum_matches_solved_kappa():
    ks = solve_kappa_star_gcd()
    grid = np.linspace(0.05, 0.95, 1801)
    vals = [gcd_upper_exponent(float(k)) for k in grid]
    k_grid = float(grid[int(np.argmin(vals))])
    assert abs(k_grid - ks) < 1e-3
    assert min(vals) >= gcd_upper_exponent(ks) - 1e-9

    ke = KAPPA_STAR_ENERGY
    vals_e = [energy_upper_exponent(float(k)) for k in grid]
    k_grid_e = float(grid[int(np.argmin(vals_e))])
    assert abs(k_grid_e - ke) < 1e-3
    assert min(vals_e) >= energy_upper_exponent(ke) - 1e-9


def test_kappa_star_alternate_equation_residual():
    # the lower-bound characterization shares the root of the defining one
    ks = solve_kappa_star_gcd(tol=1e-13)
    rho = 0.5 * (1 + math.sqrt(1 + 4 * ks))
    residual = Q(ks) - Q(rho + ks) + 2 * Q(rho)
    assert abs(residual) < 1e-6


def test_kappa_two():
    k2 = solve_kappa_two()
    assert abs(k2 - 0.6565) < 1e-3


def test_lower_bound_level_branches():
    ks = solve_kappa_star_gcd()
    k2 = solve_kappa_two()
    assert lower_bound_level(0.5 * ks) == 1.0
    assert lower_bound_level(k2 + 0.1) == 1.0
    mid = 0.5 * (ks + k2)
    assert lower_bound_level(mid) == 0.5 * (1 + math.sqrt(1 + 4 * mid))


def test_energy_constants():
    c = delta_constants()
    assert abs(c.delta - 0.08607) < 1e-5
    assert abs(c.delta - c.delta_closed_form) < 1e-12
    assert abs(c.delta - 2 * Q(1 / math.log(4))) < 1e-12
    assert abs(c.alpha - 0.046) < 5e-3
    assert c.delta0 < 1 / 6
    assert abs(1 + 2 * Q(c.kappa_star_energy) - 4 * Q(c.kappa_star_energy / 2)) < 1e-12
    assert c.q_two > 0.375
    for r in c.residuals.values():
        assert abs(r) < 1e-9


def test_energy_envelope_at_optimum():
    ke = KAPPA_STAR_ENERGY
    c = delta_constants()
    # at the optimum the envelope reduces to max of the two branch values
    assert energy_upper_exponent(ke) == pytest.approx(max(2 * Q(ke), c.alpha), abs=1e-12)
    assert energy_upper_exponent(ke) == pytest.approx(c.delta, abs=1e-12)


def test_lower_bound_exponent_minimum_recovers_delta0():
    # the lower-bound construction bottoms out at the same exponent the
    # upper envelope attains: its grid minimum over the middle window is
    # the gcd-sum exponent
    from gcdlab.exponents import lower_bound_exponent

    ks = solve_kappa_star_gcd()
    grid = np.linspace(0.01, 1.0, 20001)
    vals = [lower_bound_exponent(float(k)) for k in grid]
    assert min(vals) == pytest.approx(Q(ks), abs=1e-4)
    # outside the middle window the trivial level rho = 1 is used
    assert lower_bound_exponent(0.1) == pytest.approx(
        max(Q(0.1), min(Q(1.1), 0.375)), abs=1e-12
    )


def test_bisect_and_golden():
    assert abs(bisect(lambda x: x * x - 2, 0, 2) - math.sqrt(2)) < 1e-11
    with pytest.raises(SolverError):
        bisect(lambda x: x * x + 1, -1, 1)
