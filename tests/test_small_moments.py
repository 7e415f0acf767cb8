import math

import numpy as np
import pytest

from gcdlab.arith import build_sieve, is_prime
from gcdlab.characters import build_table
from gcdlab.energy import energy_histogram
from gcdlab.errors import DomainError, InvalidArgumentError
from gcdlab.small_moments import (
    HolderExponents,
    char_moment,
    char_moment_closed_form,
    holder_chain_check,
    mollified_fourth,
)
from gcdlab.weights import WeightVector, all_ones, indicator


def test_exponent_identities():
    for r in (1.34, 1.4, 1.5, 1.75, 1.9, 1.999):
        e = HolderExponents(r)
        res_ab, res_pq = e.identity_residuals()
        assert abs(res_ab) < 1e-12
        assert abs(res_pq) < 1e-12
        assert e.alpha > 0 and e.hp > 0
        # beta and hq flip sign past r = 4/3: that is what makes the chain
        # a lower-bound device
        assert e.beta < 0 and e.hq < 0
    for bad in (1.0, 4 / 3, 2.0, 2.5):
        with pytest.raises(InvalidArgumentError):
            HolderExponents(bad)


def test_second_moment_closed_form():
    assert char_moment_closed_form(11, 3) == pytest.approx(2.1)
    for p in [pp for pp in range(3, 102) if is_prime(pp)]:
        table = build_table(p)
        for n in range(1, p):
            direct = char_moment(p, n, 2, table)
            assert abs(direct - char_moment_closed_form(p, n)) <= 1e-9 * n


def test_first_moment_cases():
    # length-1 sums have modulus one for every character
    for p in (11, 31):
        assert char_moment(p, 1, 1.0) == pytest.approx((p - 2) / (p - 1), rel=1e-12)
    # Cauchy-Schwarz between the first and second moment
    for p, n in ((101, 9), (499, 20)):
        s1 = char_moment(p, n, 1.0)
        s2 = char_moment(p, n, 2.0)
        assert s1 <= math.sqrt(s2) + 1e-12


def test_power_mean_monotonicity():
    for p in (31, 101):
        for n in (3, 9, 25):
            if n >= p:
                continue
            moments = {k: char_moment(p, n, k) for k in (1.0, 1.5, 2.0, 3.0, 4.0)}
            ks = sorted(moments)
            for lo, hi in zip(ks, ks[1:]):
                assert moments[lo] ** (1 / lo) <= moments[hi] ** (1 / hi) + 1e-12


def test_mollified_fourth():
    # weight on {1} alone gives |M| = 1 identically, so the normalized
    # average over the p-2 nonprincipal characters is (p-2)/(p-1)
    assert mollified_fourth(101, 9, indicator([1], 9)) == pytest.approx(99 / 100, rel=1e-12)
    with pytest.raises(DomainError):
        mollified_fourth(11, 4, all_ones(4))  # N^2 >= p


def test_mollified_fourth_energy_identity():
    # below sqrt(p) there is no wraparound: M4 = energy - l1^4/(p-1) exactly
    rng = np.random.default_rng(61)
    for p, n in ((101, 9), (499, 20), (1009, 31)):
        vals = np.zeros(n + 1, dtype=np.int64)
        supp = rng.choice(np.arange(1, n + 1), size=max(2, n // 2), replace=False)
        vals[supp] = rng.integers(1, 4, size=len(supp))
        w = WeightVector(n, vals)
        direct = mollified_fourth(p, n, w)
        identity = energy_histogram(w) - w.l1() ** 4 / (p - 1)
        assert direct == pytest.approx(identity, rel=1e-9)
        assert direct <= 2.0 * energy_histogram(w)


def test_mollified_fourth_scaling():
    w = all_ones(9)
    base = mollified_fourth(101, 9, w)
    assert mollified_fourth(101, 9, w.scaled(2.0)) == pytest.approx(16 * base, rel=1e-12)


def test_holder_chain_grid():
    sieve = build_sieve(20)
    for p in (101, 499):
        for n in (5, 9, 15):
            for r in (1.4, 1.5, 1.75):
                rep = holder_chain_check(p, n, r, all_ones(n), sieve)
                assert rep.slack >= -1e-9
                assert rep.lhs == pytest.approx(rep.lhs_closed_form, rel=1e-9)
                assert rep.lower_bound > 0
                assert rep.s2 == pytest.approx(char_moment_closed_form(p, n), rel=1e-9)


def test_holder_chain_takes_table():
    # a table passed in gives the same report, and the moments of its own routes
    p, n, w = 1009, 20, all_ones(20)
    sieve = build_sieve(n)
    t = build_table(p)
    rep = holder_chain_check(p, n, 1.5, w, sieve, table=t)
    assert rep == holder_chain_check(p, n, 1.5, w, sieve)
    assert rep.s2 == char_moment(p, n, 2, t)
    assert rep.sr == char_moment(p, n, 1.5, t)
    assert rep.m4 == mollified_fourth(p, n, w, t)


def test_holder_chain_validation():
    with pytest.raises(InvalidArgumentError):
        holder_chain_check(101, 9, 1.2, all_ones(9))
    with pytest.raises(DomainError):
        holder_chain_check(101, 101, 1.5, all_ones(101))
