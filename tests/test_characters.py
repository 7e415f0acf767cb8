import cmath
import math
import tracemalloc

import numpy as np
import pytest

from gcdlab.arith import build_sieve, is_prime
from gcdlab.characters import (
    all_char_sums,
    build_table,
    burgess_envelope,
    burgess_max_n,
    burgess_scan,
    char_sum,
    congruence_count,
    lattice_count,
    lattice_count_bound,
    weighted_congruence_count,
    weil_moment_check,
)
from gcdlab.errors import DomainError, InvalidArgumentError, ResourceLimitError
from gcdlab.weights import WeightVector, all_ones

from oracles import multiplicative_order, primitive_root_and_dlog

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_table_examples():
    t5 = build_table(5)
    assert t5.g == 2
    assert {n: int(t5.dlog[n]) for n in (1, 2, 4, 3)} == {1: 0, 2: 1, 4: 2, 3: 3}
    assert build_table(3).g == 2
    assert build_table(7).g == 3  # 2 has order 3 mod 7
    assert multiplicative_order(2, 7) == 3
    with pytest.raises(InvalidArgumentError):
        build_table(9)


def test_primitive_root_orders():
    for p in SMALL_PRIMES:
        t = build_table(p)
        assert multiplicative_order(t.g, p) == p - 1
        assert sorted(t.dlog[1:].tolist()) == list(range(p - 1))


# 30011 - 1 = 2 * 5 * 3001 has a large prime factor; 1000003 is the
# benchmark's theta modulus
@pytest.mark.parametrize("p", [3, 5, 7, 31, 30011, 1000003])
def test_table_equals_loop_oracle(p):
    g, dlog = primitive_root_and_dlog(p)
    t = build_table(p)
    assert t.g == g
    assert t.dlog.tolist() == dlog


def test_table_guard_raises_before_allocating():
    # 16777259, the first prime above 2^24, needs 32 * p bytes > 2^29
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            build_table(16777259)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_character_multiplicativity_exhaustive():
    for p in [pp for pp in range(3, 62) if is_prime(pp)]:
        t = build_table(p)
        mn = np.multiply.outer(np.arange(p), np.arange(p)) % p
        for chi in t.characters():
            v = chi.values()
            assert np.allclose(np.multiply.outer(v, v), v[mn], atol=1e-9)
            nz = np.abs(v[1:])
            assert np.allclose(nz, 1.0, atol=1e-12)


def test_full_group_orthogonality():
    for p in [pp for pp in range(3, 102) if is_prime(pp)]:
        t = build_table(p)
        a = np.arange(p - 1)
        exps = (a[:, None] * t.dlog[None, 1:]) % (p - 1)
        v = t.unit_roots[exps]  # (p-1) x (p-1): all characters on all units
        gram = np.conj(v).T @ v
        expect = (p - 1) * np.eye(p - 1)
        assert np.allclose(gram, expect, atol=1e-6 * p)


def test_even_character_criterion():
    for p in [pp for pp in range(3, 102) if is_prime(pp)]:
        t = build_table(p)
        for chi in t.characters():
            assert (abs(chi(p - 1) - 1) < 1e-9) == (chi.index % 2 == 0)
            assert chi.is_even == (chi.index % 2 == 0)


def test_char_sum_examples():
    t5 = build_table(5)
    leg = t5.character(2)
    assert char_sum(leg, 0, 3) == pytest.approx(-1, abs=1e-12)
    assert char_sum(leg, 0, 4) == pytest.approx(0, abs=1e-12)
    for chi in t5.nonprincipal():
        assert abs(char_sum(chi, 0, 5)) < 1e-12  # full period


def test_char_sum_long_intervals():
    t = build_table(13)
    chi = t.character(3)
    # brute force over a long window, including multiples of p
    for m, n in ((0, 13), (5, 40), (100, 7)):
        brute = sum(chi(j) for j in range(m + 1, m + n + 1))
        assert char_sum(chi, m, n) == pytest.approx(brute, abs=1e-10)


@pytest.mark.parametrize("p", [3, 5, 31])
def test_transform_matches_character_values(p):
    # p = 3 is the smallest family: p - 1 = 2 characters
    t = build_table(p)
    rng = np.random.default_rng(p)
    f = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    out = t.transform(f)
    assert len(out) == p - 1
    for chi in t.characters():
        assert out[chi.index] == pytest.approx(complex(f @ chi.values()), abs=1e-10)


@pytest.mark.parametrize("p, rows", [(3, 2), (31, 2), (30011, 2), (30011, 40)])
def test_transform_rows_equal_single_transforms(p, rows):
    # 40 rows of 30011 residues take two FFT calls
    t = build_table(p)
    f = np.random.default_rng(p).standard_normal((rows, p))
    block = t.transform(f)
    assert block.shape == (rows, p - 1)
    for got, row in zip(block, f):
        assert np.array_equal(got, t.transform(row))


def test_all_char_sums_matches_single():
    t = build_table(31)
    sums = all_char_sums(t, 4, 11)
    for a in (0, 1, 7, 29):
        assert sums[a] == pytest.approx(char_sum(t.character(a), 4, 11), abs=1e-9)


def test_weil_examples():
    t5 = build_table(5)
    lhs, rhs = weil_moment_check(t5.character(2), 2, 2)
    assert lhs == pytest.approx(18.0, abs=1e-9)
    assert rhs == pytest.approx(320 + 64 * math.sqrt(5), abs=1e-9)
    assert lhs <= rhs
    with pytest.raises(InvalidArgumentError):
        weil_moment_check(t5.character(0), 2, 2)


def test_weil_b1_reduces_to_unit_counts():
    for p in (7, 13):
        t = build_table(p)
        for chi in t.nonprincipal():
            lhs, rhs = weil_moment_check(chi, 1, 2)
            assert lhs == pytest.approx(p - 1, abs=1e-9)
            assert lhs <= rhs


def test_weil_double_evaluation():
    # expanding the 2r-th power into character products gives the same total
    p, r, b = 7, 2, 2
    t = build_table(p)
    chi = t.character(1)
    lhs, _ = weil_moment_check(chi, b, r)
    v = chi.values()
    total = 0.0
    for u in range(1, p + 1):
        inner = sum(v[(u + bb) % p] for bb in range(1, b + 1))
        total += abs(inner) ** (2 * r)
    assert lhs == pytest.approx(total, rel=1e-12)


def test_weil_bound_exhaustive_small():
    for p in [pp for pp in range(3, 32) if is_prime(pp)]:
        t = build_table(p)
        for chi in t.nonprincipal():
            for b in (1, 2, 5, 8):
                for r in (2, 3):
                    lhs, rhs = weil_moment_check(chi, b, r)
                    assert lhs <= rhs


def test_congruence_count():
    # diagonal case: only n1 = n2 survive
    assert congruence_count(11, 4, 4, 0, 10) == 10
    assert congruence_count(7, 1, 2, 0, 6) == 6
    # direct loop gives 2 here: n2 = 1 -> n1 = 3 and n2 = 3 -> n1 = 2
    assert congruence_count(7, 1, 3, 0, 3) == 2
    brute = sum(
        1
        for n1 in range(1, 4)
        for n2 in range(1, 4)
        if (n1 * 1 - n2 * 3) % 7 == 0
    )
    assert brute == 2


def test_congruence_count_brute_random():
    rng = np.random.default_rng(51)
    for _ in range(25):
        p = 101
        a1, a2 = int(rng.integers(1, p)), int(rng.integers(1, p))
        m, n = int(rng.integers(0, 50)), int(rng.integers(1, 60))
        brute = sum(
            1
            for n1 in range(m + 1, m + n + 1)
            for n2 in range(m + 1, m + n + 1)
            if (n1 * a1 - n2 * a2) % p == 0
        )
        assert congruence_count(p, a1, a2, m, n) == brute


def test_weighted_congruence_count():
    w = WeightVector(1, np.array([0, 1], dtype=np.int64))
    rep = weighted_congruence_count(101, w, 0, 10)
    assert rep.value == 10  # single diagonal term
    assert rep.majorant > 0 and rep.ratio == rep.value / rep.majorant

    w3 = all_ones(3)
    rep3 = weighted_congruence_count(101, w3, 0, 10)
    brute = sum(
        congruence_count(101, a1, a2, 0, 10) for a1 in (1, 2, 3) for a2 in (1, 2, 3)
    )
    assert rep3.value == brute
    # swap symmetry through a quadruple recount
    quad = sum(
        1
        for a1 in (1, 2, 3)
        for a2 in (1, 2, 3)
        for n1 in range(1, 11)
        for n2 in range(1, 11)
        if (n1 * a1 - n2 * a2) % 101 == 0
    )
    assert rep3.value == quad


def test_weighted_congruence_hypotheses():
    with pytest.raises(DomainError):
        weighted_congruence_count(101, all_ones(20), 0, 10)  # A > N
    with pytest.raises(DomainError):
        weighted_congruence_count(29, all_ones(6), 0, 6)  # A N > p


def test_lattice_count():
    assert lattice_count(7, 1, 1, 0) == 1
    assert lattice_count(7, 1, 1, 2) == 3  # (0,0) and (1,1), (-1,-1)
    with pytest.raises(InvalidArgumentError):
        lattice_count(7, 7, 1, 5)


def test_lattice_count_brute():
    for p, a1, a2, n in ((7, 1, 3, 30), (11, 2, 5, 100), (13, 4, 9, 60)):
        lim = math.isqrt(n)
        brute = sum(
            1
            for n1 in range(-lim, lim + 1)
            for n2 in range(-lim, lim + 1)
            if n1 * n1 + n2 * n2 <= n and (a1 * n1 - a2 * n2) % p == 0
        )
        assert lattice_count(p, a1, a2, n) == brute
        # swap symmetry combined with coordinate swap
        assert lattice_count(p, a2, a1, n) == brute
        assert lattice_count_bound(p, a1, a2, n) > 0


def test_burgess_envelope():
    assert burgess_envelope(100, 10007, 2, 2.0) > burgess_envelope(100, 10007, 2, 1.0)
    with pytest.raises(DomainError):
        burgess_envelope(10**6, 101, 2, 1.0)  # N too long for the hypothesis
    with pytest.raises(DomainError):
        burgess_envelope(10, 101, 1, 1.0)


def test_burgess_scan_small():
    sieve = build_sieve(997)
    rep = burgess_scan(997, 60, 2, sieve, offsets=64)
    assert rep.max_sum > 0
    assert rep.envelope > 0
    assert rep.ratio == rep.max_sum / rep.envelope
    assert rep.a_param == int(60 // (16 * 2 * 997**0.25))
    assert rep.b_param == int(2 * 997**0.25)
    # full-period sums vanish, so the max over offsets stays below N
    assert rep.max_sum <= 60


def test_burgess_scan_desk_scale():
    # the documented desk-scale instance: p = 10007, r = 2, N = floor(p^0.55);
    # the ratio against the envelope is recorded, no constant asserted
    p = 10007
    n = int(p**0.55)
    sieve = build_sieve(p)
    rep = burgess_scan(p, n, 2, sieve)
    assert 0 < rep.max_sum <= n
    assert rep.ratio > 0
    assert rep.t0max >= 0.5  # profile includes the x = 1 point
    # at this length the observed max is far below the Polya-Vinogradov scale
    assert rep.pv_ratio < 1.0


def test_burgess_scan_blocks_equal_offset_loop():
    p, offsets = 30011, 256
    n = int(burgess_max_n(p, 2))
    rep = burgess_scan(p, n, 2, build_sieve(10), t0max=5.0, offsets=offsets)
    t = build_table(p)
    step = -(-p // offsets)
    best = max(float(np.abs(all_char_sums(t, j * step, n)[1:]).max())
               for j in range(offsets) if j * step < p)
    assert rep.max_sum == best


def test_burgess_scan_builds_its_sieve():
    rep = burgess_scan(997, 60, 2, offsets=64)
    assert rep == burgess_scan(997, 60, 2, build_sieve(997), offsets=64)


def test_burgess_scan_checks_length_first():
    # N above p^(5/8): refused before the table and the T0 profile, which a
    # ten-entry sieve could not feed
    with pytest.raises(DomainError):
        burgess_scan(100003, 10**6, 2, build_sieve(10))
    with pytest.raises(DomainError):
        burgess_scan(100003, 100, 1, build_sieve(10))
