import cmath
import math

import numpy as np
import pytest

from gcdlab.arith import build_sieve, is_prime
from gcdlab.characters import build_table
from gcdlab.energy import energy_histogram
from gcdlab.errors import InvalidArgumentError
from gcdlab.theta import (
    all_even_thetas,
    even_characters,
    lower_bound_report,
    moment_report,
    mollifier,
    mollifier_cutoff,
    nonvanishing_count,
    orthogonality_sum,
    theta,
    theta_tail_bound,
    theta_truncation,
)
from gcdlab.weights import WeightVector, all_ones, indicator, omega_level_weights


def brute_theta(p, index, x, n_terms=4000):
    t = build_table(p)
    chi = t.character(index)
    return sum(chi(n) * math.exp(-math.pi * n * n * x / p) for n in range(1, n_terms))


def test_even_characters_counts():
    for p in (5, 7, 13, 31):
        t = build_table(p)
        evens = even_characters(t)
        assert len(evens) == (p - 1) // 2
        assert all(abs(chi(p - 1) - 1) < 1e-9 for chi in evens)
        assert evens[0].is_principal


def test_theta_value_legendre_mod5():
    t5 = build_table(5)
    val = theta(t5.character(2), 1.0)
    expect = brute_theta(5, 2, 1.0)
    assert val.value == pytest.approx(expect, abs=1e-12)
    assert val.value.real == pytest.approx(0.449028, abs=1e-6)
    # close to the documented anchor value
    assert abs(val.value.real - 0.44893) < 1e-4


def test_theta_principal_positive():
    for p in (5, 13, 31):
        t = build_table(p)
        for x in (0.5, 1.0, 3.0):
            v = theta(t.character(0), x)
            assert abs(v.value.imag) < 1e-12
            assert v.value.real > 0


def test_theta_real_characters_real_values():
    for p in (5, 13, 29):
        t = build_table(p)
        leg = t.character((p - 1) // 2)  # the quadratic character
        v = theta(leg, 1.0)
        assert abs(v.value.imag) < max(v.tail_bound, 1e-12)


def test_theta_conjugate_symmetry():
    t = build_table(13)
    for a in (2, 4, 6):
        v = theta(t.character(a), 1.0)
        vc = theta(t.character(13 - 1 - a), 1.0)  # conjugate character
        assert vc.value == pytest.approx(v.value.conjugate(), abs=1e-12)


def test_theta_tail_certification():
    for p in (5, 101, 1999):
        n0 = theta_truncation(p, 1.0)
        assert n0 >= math.isqrt(p) - 1
        assert theta_tail_bound(p, 1.0, n0) < 1e-15
    with pytest.raises(InvalidArgumentError):
        theta_truncation(13, 0.0)


def test_all_even_thetas_matches_single():
    for p, x in ((13, 1.0), (31, 0.7), (101, 2.0)):
        t = build_table(p)
        bulk, _, _ = all_even_thetas(t, x)
        for i, chi in enumerate(even_characters(t)):
            single = theta(chi, x)
            assert bulk[i] == pytest.approx(single.value, abs=1e-10)


def test_mollifier():
    t13 = build_table(13)
    w1 = indicator([1], mollifier_cutoff(13))
    for chi in t13.characters():
        assert mollifier(chi, w1) == pytest.approx(1.0 + 0j, abs=1e-12)
    w = all_ones(mollifier_cutoff(13))
    assert mollifier(t13.character(0), w) == pytest.approx(w.l1() + 0j, abs=1e-12)
    for chi in t13.characters():
        assert abs(mollifier(chi, w)) <= w.l1() + 1e-12
    with pytest.raises(InvalidArgumentError):
        mollifier(t13.character(0), all_ones(mollifier_cutoff(13) + 1))


def test_moment_report_identity_p13():
    rep = moment_report(13, 1.0, all_ones(2))
    assert energy_histogram(all_ones(2)) == 6
    assert rep.m4_identity == pytest.approx(0.5 * 12 * 6, abs=1e-12)
    assert rep.m4_direct == pytest.approx(36.0, rel=1e-9)
    # a vector shorter than floor(sqrt(p/3)) = 10 is accepted as it stands
    rep = moment_report(331, 1.0, all_ones(3))
    assert rep.m4_identity == pytest.approx(rep.m4_direct, rel=1e-6)


def test_moment_m1_diagonal_lower_bound():
    for p in [pp for pp in range(5, 102) if is_prime(pp)]:
        cutoff = mollifier_cutoff(p)
        if cutoff < 1:
            continue
        w = all_ones(cutoff)
        rep = moment_report(p, 1.0, w)
        diag = 0.5 * (p - 1) * sum(
            math.exp(-math.pi * m * m / p) for m in range(1, cutoff + 1)
        )
        assert rep.m1_real >= diag - 1e-9 * diag
        assert abs(rep.m1_abs - rep.m1_real) < 1e-9 * max(rep.m1_abs, 1.0)


def test_moment_m1_p5_is_sum_of_two_thetas():
    rep = moment_report(5, 1.0, indicator([1], 1))
    t5 = build_table(5)
    expect = theta(t5.character(0), 1.0).value + theta(t5.character(2), 1.0).value
    assert rep.m1_real == pytest.approx(expect.real, abs=1e-12)


def test_orthogonality_sum():
    t5 = build_table(5)
    assert orthogonality_sum(t5, 2, 3) == 2  # 2 = -3 mod 5
    assert orthogonality_sum(t5, 2, 4) == 0
    assert orthogonality_sum(t5, 5, 5) == 0  # not coprime
    for p in [pp for pp in range(3, 62) if is_prime(pp)]:
        t = build_table(p)
        half = (p - 1) // 2
        for m in range(1, min(p, 8)):
            for n in range(1, min(p, 8)):
                expect = half if (m % p == n % p or (m + n) % p == 0) else 0
                assert orthogonality_sum(t, m, n) == expect


def test_nonvanishing_counts():
    assert nonvanishing_count(5, 1.0) == 2
    for p in (13, 101, 331):
        count = nonvanishing_count(p, 1.0)
        assert 0 < count <= (p - 1) // 2
    with pytest.raises(InvalidArgumentError):
        nonvanishing_count(13, 1.0, threshold=1e-30)


def test_holder_slack_nonnegative():
    sieve = build_sieve(50)
    for p in (13, 29, 101):
        cutoff = mollifier_cutoff(p)
        rep = moment_report(p, 1.0, all_ones(cutoff))
        assert rep.holder_slack >= -1e-9
        for k in (1, 2):
            w = omega_level_weights(sieve, cutoff, k)
            if w.l1() == 0:
                continue
            repk = moment_report(p, 1.0, w)
            assert repk.holder_slack >= -1e-9


def test_lower_bound_report_all_small_primes(sieve_small):
    # the observed non-vanishing count dominates the moment floor everywhere
    for p in [pp for pp in range(7, 2001) if is_prime(pp)]:
        rep = lower_bound_report(p, 1.0, sieve_small)
        assert rep.floor > 0
        assert rep.m0_observed >= rep.floor - 1e-9
        assert rep.m0_observed <= (p - 1) // 2


def test_lower_bound_floor_tracks_energy_trend(sieve_small):
    # on a log scale the floor should move with p / energy-ratio; only the
    # co-movement is asserted, never a constant
    ps = [1009, 2003, 4001, 7001, 10007]
    floors, predictors = [], []
    for p in ps:
        rep = lower_bound_report(p, 1.0, sieve_small)
        floors.append(math.log(rep.floor))
        predictors.append(math.log(p / rep.energy_ratio))
    f = np.array(floors)
    g = np.array(predictors)
    corr = float(np.corrcoef(f, g)[0, 1])
    assert corr > 0.9
    # not strictly monotone (the optimal level shifts with p); the overall
    # rise across the decade is what the trend claims
    assert floors[-1] > floors[0]


def test_m2_growth_bounded(sieve_small):
    # family second moment stays below 10 p^{3/2} across all moduli tested
    for p in [pp for pp in range(5, 10_001) if is_prime(pp)]:
        t = build_table(p)
        thetas, _, _ = all_even_thetas(t, 1.0)
        m2 = float((np.abs(thetas) ** 2).sum())
        assert m2 <= 10.0 * p**1.5
