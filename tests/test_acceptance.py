"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
Two sub-assertions are strict xfails; each is a reference value that is
numerically incompatible with the others in its group, with the exact
measurements recorded in the xfail reasons below: the anchor for
Q(1 + kappa2), and the level-sweep vs all-ones ratio ordering at N = 64
(false by 2e-5 relative; it holds from N = 128 up).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gcdlab.arith import build_sieve, is_prime
from gcdlab.characters import build_table, weil_moment_check
from gcdlab.energy import (
    energy_histogram,
    energy_interval,
    energy_level_exact,
    energy_parametrized,
    energy_quadruple,
    minimize_energy_over_levels,
    multiplication_table_count,
)
from gcdlab.exponents import delta_constants, rate_function
from gcdlab.gcdsums import (
    Kernel,
    crossed_energy,
    exact_minimize,
    gcd_quadratic_form,
    kernel_matrix,
    minimize_over_levels,
    normalized_ratio,
)
from gcdlab.small_moments import char_moment, char_moment_closed_form, holder_chain_check
from gcdlab.theta import all_even_thetas, moment_report, mollifier_cutoff
from gcdlab.weights import WeightVector, all_ones, omega_level_weights


@contextmanager
def criterion(name: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {name}: PASS ({dt:.1f}s)")
    if budget is not None:
        assert dt < budget, f"{name} exceeded its {budget}s runtime budget"


def test_criterion_1_constants():
    with criterion("criterion-1 constants-reproduction", budget=1.0):
        c = delta_constants(tol=1e-12)
        assert abs(c.kappa_star_gcd - 0.48154) <= 1e-4
        assert abs(c.delta0 - 0.16656) <= 1e-4
        assert abs(c.second_branch - 0.1253) <= 1e-3
        assert abs(c.kappa_two - 0.6565) <= 1e-3
        assert abs(c.delta - 0.08607) <= 1e-5
        assert abs(c.delta - c.delta_closed_form) <= 1e-12
        assert abs(c.delta - 2 * rate_function(1 / math.log(4))) <= 1e-12
        assert abs(c.alpha - 0.046) <= 5e-3
        assert c.q_two == pytest.approx(2 * math.log(2) - 1, abs=1e-15)
        assert c.q_two > 0.375


@pytest.mark.xfail(
    strict=True,
    reason="the anchors kappa2 ~ 0.6565 and Q(1+kappa2) ~ 0.179154 are "
    "mutually inconsistent (Q(1.6565) = 0.17955, off by 4e-4); the solver "
    "reproduces the kappa2 anchor, so this one must fail",
)
def test_criterion_1_q_one_plus_kappa_two_anchor():
    c = delta_constants(tol=1e-12)
    assert abs(c.q_one_plus_kappa_two - 0.179154) <= 1e-4


def test_criterion_2_energy_oracle_equivalence():
    with criterion("criterion-2 energy-oracle-equivalence", budget=120.0):
        sieve = build_sieve(120)
        for n in range(1, 121):
            w = all_ones(n)
            a = energy_quadruple(w)
            assert a == energy_histogram(w) == energy_parametrized(w)
            assert a == energy_interval(w, sieve)
            kmax = int(sieve.omega[1 : n + 1].max()) if n > 1 else 0
            for k in range(0, kmax + 1):
                wk = omega_level_weights(sieve, n, k)
                if wk.l1() == 0:
                    continue
                ak = energy_quadruple(wk)
                assert ak == energy_histogram(wk) == energy_parametrized(wk)
                assert ak == energy_level_exact(sieve, n, k)
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n = int(rng.integers(10, 121))
            vals = np.zeros(n + 1, dtype=np.int64)
            supp = rng.choice(np.arange(1, n + 1), size=max(2, n // 4), replace=False)
            vals[supp] = rng.integers(1, 8, size=len(supp))
            w = WeightVector(n, vals)
            a = energy_quadruple(w)
            assert a == energy_histogram(w) == energy_parametrized(w)
        for _ in range(50):
            n = int(rng.integers(10, 121))
            vals = rng.random(n + 1) * (rng.random(n + 1) < 0.4)
            vals[0] = 0.0
            if vals.sum() == 0:
                vals[1] = 1.0
            w = WeightVector(n, vals)
            a = energy_quadruple(w)
            assert energy_histogram(w) == pytest.approx(a, rel=1e-9)
            assert energy_parametrized(w) == pytest.approx(a, rel=1e-9)


def test_criterion_3_gcdsum_structure(sieve_small):
    with criterion("criterion-3 gcd-sum-structure", budget=300.0):
        # PSD: principal submatrices of the N = 300 kernel cover all N <= 300
        for kind in (Kernel.T0, Kernel.T1):
            assert np.linalg.eigvalsh(kernel_matrix(300, kind)).min() >= -1e-9
        for n in (64, 256, 512):
            _, qp_val = exact_minimize(n, Kernel.T1, tol=1e-10)
            _, sweep = minimize_over_levels(n, Kernel.T1, sieve_small)
            ones = normalized_ratio(all_ones(n), Kernel.T1).ratio
            assert qp_val <= sweep + 1e-7
            assert qp_val <= ones + 1e-7
            if n >= 128:  # the N = 64 ordering is the strict-xfail case below
                assert sweep <= ones + 1e-9
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 201))
            vals = rng.random(n + 1) * (rng.random(n + 1) < 0.6)
            vals[0] = 0.0
            if vals.sum() == 0:
                vals[1] = 1.0
            w = WeightVector(n, vals)
            t0 = gcd_quadratic_form(w, Kernel.T0)
            t1 = gcd_quadratic_form(w, Kernel.T1)
            assert t0 <= t1 + 1e-12
            assert crossed_energy(w) <= 2.0 * n * t0 * (1 + 1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="the chain 'level-sweep min <= all-ones ratio' is false at "
    "N = 64 (7.671528 > 7.671374, a 2e-5 relative gap); it holds for "
    "N >= 128 and is asserted there in criterion 3",
)
def test_criterion_3_sweep_vs_ones_at_64(sieve_small):
    _, sweep = minimize_over_levels(64, Kernel.T1, sieve_small)
    ones = normalized_ratio(all_ones(64), Kernel.T1).ratio
    assert sweep <= ones + 1e-9


def test_criterion_4_multiplication_table():
    with criterion("criterion-4 multiplication-table", budget=60.0):
        assert multiplication_table_count(1) == 1
        assert multiplication_table_count(3) == 6
        assert multiplication_table_count(4) == 9
        # incremental distinct-product oracle, exact at every N <= 512
        seen: set[int] = set()
        for n in range(1, 513):
            seen.update(a * n for a in range(1, n + 1))
            assert multiplication_table_count(n) == len(seen)
        densities = []
        for e in range(1, 15):
            n = 2**e
            densities.append(n * n / multiplication_table_count(n))
        assert all(b >= a - 1e-12 for a, b in zip(densities, densities[1:]))


def test_criterion_5_character_algebra():
    with criterion("criterion-5 character-algebra", budget=120.0):
        primes = [p for p in range(3, 62) if is_prime(p)]
        for p in primes:
            t = build_table(p)
            a = np.arange(p - 1)
            exps = (a[:, None] * t.dlog[None, 1:]) % (p - 1)
            v = t.unit_roots[exps]  # all characters evaluated on all units
            # multiplicativity on the unit group
            mn = np.multiply.outer(np.arange(1, p), np.arange(1, p)) % p
            vfull = np.zeros((p - 1, p), dtype=np.complex128)
            vfull[:, 1:] = v
            for row in range(p - 1):
                assert np.allclose(
                    np.multiply.outer(v[row], v[row]), vfull[row][mn], atol=1e-9
                )
            # full-group orthogonality
            gram = np.conj(v).T @ v
            assert np.allclose(gram, (p - 1) * np.eye(p - 1), atol=1e-6 * p)
            # even-character criterion
            for row in range(p - 1):
                assert (abs(vfull[row][p - 1] - 1) < 1e-9) == (row % 2 == 0)
            # even-subgroup orthogonality with the +- rule
            ev = v[0::2]
            gram_even = np.conj(ev).T @ ev
            m_idx = np.arange(1, p)
            same = (m_idx[:, None] - m_idx[None, :]) % p == 0
            neg = (m_idx[:, None] + m_idx[None, :]) % p == 0
            expect = 0.5 * (p - 1) * (same | neg)
            assert np.allclose(gram_even, expect, atol=1e-6 * p)
            # Weil moment bound, all nonprincipal characters
            for chi_idx in range(1, p - 1):
                chi = t.character(chi_idx)
                for b in range(1, 9):
                    for r in (2, 3):
                        lhs, rhs = weil_moment_check(chi, b, r)
                        assert lhs <= rhs


def test_criterion_6_theta_moments():
    with criterion("criterion-6 theta-moments", budget=600.0):
        sieve = build_sieve(40)
        for p in (13, 29, 101, 331):
            cutoff = mollifier_cutoff(p)
            weight_list = [all_ones(cutoff)]
            for k in (1, 2):
                wk = omega_level_weights(sieve, cutoff, k)
                if wk.l1() > 0:
                    weight_list.append(wk)
            for w in weight_list:
                rep = moment_report(p, 1.0, w)
                assert abs(rep.m4_direct - rep.m4_identity) <= 1e-6 * rep.m4_identity
                assert rep.holder_slack >= -1e-9
        # non-vanishing of every even nonprincipal theta at x = 1
        for p in [q for q in range(5, 2001) if is_prime(q)] + [10007]:
            t = build_table(p)
            thetas, _, tail = all_even_thetas(t, 1.0)
            assert tail < 1e-15
            mags = np.abs(thetas[1:])  # position 0 is the principal character
            assert mags.min() > 1e-8, f"possible vanishing at p={p}"


def test_criterion_7_small_moments():
    with criterion("criterion-7 small-moments", budget=60.0):
        for p in [q for q in range(3, 102) if is_prime(q)]:
            table = build_table(p)
            for n in range(1, p):
                direct = char_moment(p, n, 2, table)
                assert abs(direct - char_moment_closed_form(p, n)) <= 1e-9 * n
        sieve = build_sieve(20)
        for p in (101, 499):
            for n in (5, 9, 15):
                for r in (1.4, 1.5, 1.75):
                    rep = holder_chain_check(p, n, r, all_ones(n), sieve)
                    assert rep.slack >= -1e-9


def test_criterion_8_asymptotic_trends(sieve_big):
    with criterion("criterion-8 asymptotic-trends"):
        t1_ratios, energy_ratios = [], []
        for e in range(10, 21):
            n = 1 << e
            lll = math.log(math.log(n))
            k_t1, r_t1 = minimize_over_levels(n, Kernel.T1, sieve_big)
            assert 0.2 <= k_t1 / lll <= 0.9, f"T1 argmin kappa out of corridor at 2^{e}"
            t1_ratios.append(r_t1)
            k_en, r_en = minimize_energy_over_levels(n, sieve_big)
            assert 0.4 <= k_en / lll <= 1.1, f"energy argmin kappa out of corridor at 2^{e}"
            energy_ratios.append(r_en)
        assert all(b >= a for a, b in zip(t1_ratios, t1_ratios[1:]))
        assert all(b >= a for a, b in zip(energy_ratios, energy_ratios[1:]))
