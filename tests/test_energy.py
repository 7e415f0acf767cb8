import math
import tracemalloc

import numpy as np
import pytest

from gcdlab import energy as energy_module
from gcdlab.arith import FactorSieve, build_sieve
from gcdlab.characters import build_table, congruence_count, lattice_count, weil_moment_check
from gcdlab.energy import (
    asym_energy,
    energy_histogram,
    energy_interval,
    energy_level_exact,
    energy_parametrized,
    energy_quadruple,
    energy_ratio,
    energy_sweep_table,
    h_count,
    minimize_energy_over_levels,
    multiplication_table_count,
    set_energy,
)
from gcdlab.errors import BYTE_BUDGET, InvalidArgumentError, ResourceLimitError, check_bytes
from gcdlab.gcdsums import Kernel, crossed_energy, exact_minimize, kernel_matrix
from gcdlab.weights import WeightVector, all_ones, indicator, omega_level_weights

from oracles import distinct_products, energy_four_loop


def test_energy_examples():
    assert energy_quadruple(all_ones(1)) == 1
    assert energy_quadruple(all_ones(2)) == 6
    assert energy_quadruple(all_ones(3)) == 15
    assert energy_histogram(all_ones(3)) == 15
    assert energy_parametrized(all_ones(3)) == 15
    assert energy_parametrized(all_ones(2)) == 6
    assert [energy_interval(all_ones(n)) for n in (1, 2, 3)] == [1, 6, 15]
    assert energy_interval(all_ones(4000)) == 153245680


def test_energy_matches_four_loop_oracle():
    rng = np.random.default_rng(31)
    for _ in range(8):
        n = int(rng.integers(2, 12))
        vals = np.zeros(n + 1, dtype=np.int64)
        supp = rng.choice(np.arange(1, n + 1), size=max(1, n // 2), replace=False)
        vals[supp] = rng.integers(1, 4, size=len(supp))
        w = WeightVector(n, vals)
        expect = energy_four_loop({int(m): int(vals[m]) for m in supp}, n)
        assert energy_quadruple(w) == expect
        assert energy_histogram(w) == expect
        assert energy_parametrized(w) == expect
    # l1**4 >= 2**63 takes the Python-int route of the histogram; the first
    # energy still fits in int64, the second does not
    for n, lo, hi, fits in ((12, 6000, 9000, True), (6, 1 << 20, 1 << 21, False)):
        vals = np.zeros(n + 1, dtype=np.int64)
        vals[1:] = rng.integers(lo, hi, size=n)
        w = WeightVector(n, vals)
        assert int(vals.sum()) ** 4 >= 2**63
        expect = energy_four_loop({m: int(vals[m]) for m in range(1, n + 1)}, n)
        assert (expect < 2**63) == fits
        assert energy_histogram(w) == energy_parametrized(w) == expect
        assert energy_quadruple(w) == expect


def test_prime_level_energy_equality(sieve_small):
    # primes below 10: the three evaluators agree (the count is 28: four
    # diagonal prime squares plus six unordered semiprimes seen twice each)
    w = omega_level_weights(sieve_small, 10, 1)
    val = energy_quadruple(w)
    assert val == energy_histogram(w) == energy_parametrized(w)
    assert val == 28


def test_quadruple_guard():
    with pytest.raises(ResourceLimitError):
        energy_quadruple(all_ones(301))


def test_pair_guard_raises_before_allocating(sieve_big):
    # 8193**2 > 2**26 pairs; the outer product alone would take 512 MiB
    chi = build_table(10007).character(1)
    calls = [
        lambda: energy_histogram(all_ones(8193)),
        lambda: set_energy(range(1, 8194), range(1, 8194)),
        lambda: h_count(sieve_big, 1 << 20, 2, 3),  # 219759 * 262865 pairs
        lambda: exact_minimize(8193, Kernel.T1),  # an 8193 x 8193 kernel matrix
        lambda: kernel_matrix(8193, Kernel.T1),
        lambda: crossed_energy(all_ones(8193)),  # 8193 x 8193 gcd and count tables
        lambda: crossed_energy(all_ones(5793)),  # first support whose two tables pass 2^29 bytes
        lambda: build_sieve(1 << 26),  # 12 bytes per entry at its peak, 2^26 + 1 entries
        lambda: weil_moment_check(chi, 10**6, 2),  # a 10007 x 10^6 index table
        lambda: congruence_count(10007, 3, 5, 0, 10**10),  # 10^10 residues
        lambda: lattice_count(10007, 3, 5, 10**20),  # 2 * 10^10 + 1 abscissae
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20


def test_check_bytes_boundary():
    check_bytes(BYTE_BUDGET, "a table at the budget")
    with pytest.raises(ResourceLimitError, match=f"{BYTE_BUDGET + 1} bytes"):
        check_bytes(BYTE_BUDGET + 1, "a table one byte over")


def test_level_count_guard_raises_before_allocating():
    # an int8 Omega table is 16 MiB; the int32 count table for k = 7 at
    # N = 2^24 would be 8 (2^24 + 1) 4 bytes > 2^29; only omega is read first
    n = 1 << 24
    omega = np.zeros(n + 1, dtype=np.int8)
    omega[1 << 7] = 7
    sieve = FactorSieve(limit=n, omega=omega, phi=None, _mobius=None)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            energy_level_exact(sieve, n, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def test_real_weights_agreement():
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = int(rng.integers(5, 60))
        vals = rng.random(n + 1) * (rng.random(n + 1) < 0.5)
        vals[0] = 0.0
        if vals.sum() == 0:
            vals[1] = 1.0
        w = WeightVector(n, vals)
        a = energy_quadruple(w)
        b = energy_histogram(w)
        c = energy_parametrized(w)
        assert b == pytest.approx(a, rel=1e-9)
        assert c == pytest.approx(a, rel=1e-9)
        # diagonal quadruples (m, m, m, m) alone already contribute sum w^4
        assert a >= float((vals**4).sum()) - 1e-9 * a


def test_energy_scale_invariance():
    rng = np.random.default_rng(41)
    vals = rng.random(41) * (rng.random(41) < 0.6)
    vals[0] = 0.0
    vals[1] = 1.0
    w = WeightVector(40, vals)
    base = energy_ratio(w).ratio
    for c in (0.5, 2.0, 11.0):
        scaled = energy_ratio(w.scaled(c))
        assert scaled.ratio == pytest.approx(base, rel=1e-12)
        assert energy_histogram(w.scaled(c)) == pytest.approx(
            c**4 * energy_histogram(w), rel=1e-12
        )


def test_energy_ratio_examples():
    assert energy_ratio(all_ones(1)).ratio == 1.0
    assert energy_ratio(all_ones(2)).ratio == pytest.approx(4 * 6 / 16)


def test_auto_picks_interval_for_unit_prefix_weights(sieve_small):
    unit = [all_ones(50), indicator(range(1, 31), 50), all_ones(50).scaled(1.0)]
    others = [
        all_ones(50).scaled(2.0),
        indicator([1, 2, 3, 5, 6], 50),  # a prefix with a hole
        indicator(range(2, 31), 50),  # an interval that does not start at 1
        omega_level_weights(sieve_small, 50, 2),
    ]
    for w, route in [(w, "interval") for w in unit] + [(w, "histogram") for w in others]:
        rep, hist = energy_ratio(w), energy_ratio(w, "histogram")
        assert rep.evaluator == route
        assert (rep.energy, rep.ratio) == (hist.energy, hist.ratio)
    for w in others:
        with pytest.raises(InvalidArgumentError):
            energy_ratio(w, "interval")
    with pytest.raises(InvalidArgumentError):
        energy_interval(all_ones(50), build_sieve(49))


def test_energy_ratio_of_ones_allocates_no_product_table():
    # the histogram's product table alone would be 8 * 4096**2 bytes = 128 MiB
    tracemalloc.start()
    try:
        rep = energy_ratio(all_ones(4096))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.evaluator == "interval"
    assert peak < 8 << 20


def test_cauchy_schwarz_support_bound():
    # l1^4 <= energy * #{products with positive mass}
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(2, 80))
        vals = np.zeros(n + 1, dtype=np.int64)
        supp = rng.choice(np.arange(1, n + 1), size=max(1, n // 2), replace=False)
        vals[supp] = rng.integers(1, 5, size=len(supp))
        w = WeightVector(n, vals)
        prods = {int(a * b) for a in supp for b in supp}
        assert w.l1() ** 4 <= energy_histogram(w) * len(prods) + 1e-9


def test_level_exact_matches_generic(sieve_small):
    for n in (1, 2, 30, 120, 1000, 5000):
        kmax = int(sieve_small.omega[1 : n + 1].max()) if n > 1 else 0
        for k in range(0, kmax + 1):
            w = omega_level_weights(sieve_small, n, k)
            if w.l1() == 0:
                continue
            exact = energy_level_exact(sieve_small, n, k)
            assert exact == energy_histogram(w) == energy_parametrized(w)


def test_level_exact_small_batches(sieve_small, monkeypatch):
    # pieces of at most 5 pairs: long pair pieces split into many in-place adds,
    # and at N = 900 the squarefree e = 30 = isqrt(N) on the seam of the split
    monkeypatch.setattr(energy_module, "_BATCH", 5)
    for n in (900, 1023):
        kmax = int(sieve_small.omega[1 : n + 1].max())
        for k in range(0, kmax + 1):
            w = omega_level_weights(sieve_small, n, k)
            assert energy_level_exact(sieve_small, n, k) == energy_histogram(w)


def test_level_exact_pinned_at_2_20(sieve_big):
    n = 1 << 20
    got = [energy_level_exact(sieve_big, n, k) for k in (1, 2, 3)]
    assert got == [13456119225, 121562091339, 291716616333]


def test_minimize_energy_over_levels(sieve_small):
    k, ratio = minimize_energy_over_levels(10**4, sieve_small)
    kappa = k / math.log(math.log(10**4))
    assert 0.4 <= kappa <= 1.1
    table = energy_sweep_table(10**4, sieve_small)
    best = min((r, kk) for kk, _, r in table)
    assert (ratio, k) == best


def test_set_energy():
    assert set_energy({1}, {1}) == 1
    assert set_energy({1, 2, 3}, {1, 2, 3}) == 15
    assert asym_energy(2, {1, 2}) == 6
    with pytest.raises(InvalidArgumentError):
        set_energy(set(), {1})
    # sparse sets whose products exceed 2**32, against a dict of counts
    a = {(1 << 17) * x for x in range(1, 61)} | {1_000_003, 999_983}
    b = {3**11 * y for y in range(1, 61)} | {1_000_033}
    reps = {}
    for m in a:
        for n in b:
            reps[m * n] = reps.get(m * n, 0) + 1
    assert max(reps) > 2**32
    assert set_energy(a, b) == sum(c * c for c in reps.values())


def test_multiplication_table_examples():
    assert multiplication_table_count(1) == 1
    assert multiplication_table_count(3) == 6
    assert multiplication_table_count(4) == 9
    with pytest.raises(ResourceLimitError):
        multiplication_table_count(energy_module.MULTABLE_LIMIT + 1)


def test_multiplication_table_incremental_oracle():
    # incremental set oracle: products(N) = products(N-1) union {a*N}
    seen = set()
    for n in range(1, 200):
        for a in range(1, n + 1):
            seen.add(a * n)
        assert multiplication_table_count(n) == len(seen)


@pytest.mark.parametrize("chunk, n_max", [(1 << 10, 200), (7, 40), ("n", 60), ("n-1", 60)])
def test_multiplication_table_small_chunks(monkeypatch, chunk, n_max):
    # many chunk boundaries at small N exercise the b >= a, a <= isqrt(hi) and
    # a >= lo / N bounds of each chunk; a chunk of N values puts every chunk's
    # top on a multiple of N, and a chunk of N - 1 values puts the second
    # chunk's bottom there; checked against the incremental set oracle
    seen = set()
    for n in range(1, n_max):
        size = {"n": n, "n-1": max(1, n - 1)}.get(chunk, chunk)
        monkeypatch.setattr(energy_module, "_CHUNK", size)
        seen.update(a * n for a in range(1, n + 1))
        assert multiplication_table_count(n) == len(seen)


def test_multiplication_table_chunked_path():
    assert multiplication_table_count(600) == len(distinct_products(600))
    # 4097**2 > 2**24, so this N spans two bitmap chunks; checked against a
    # dense unique count
    n = 4097
    m = np.arange(1, n + 1, dtype=np.int64)
    prods = np.sort(np.multiply.outer(m, m), axis=None)
    dense = 1 + int(np.count_nonzero(prods[1:] != prods[:-1]))
    assert multiplication_table_count(n) == dense


def test_h_count(sieve_small, sieve_big):
    assert h_count(sieve_small, 4, 1, 1) == 3  # {4, 6, 9}
    assert h_count(sieve_small, 3, 1, 1) == 3
    assert h_count(sieve_small, 100, 0, 0) == 1
    # tail selector: products of a tail element and a prime
    assert h_count(sieve_small, 16, "tail", 1) == len(
        {m * n for m in range(2, 17) if sieve_small.omega[m] >= math.log(math.log(16)) for n in (2, 3, 5, 7, 11, 13)}
    )
    # sparse high levels whose products exceed 2**32
    n = 1 << 20
    om = sieve_big.omega[: n + 1].tolist()
    left = [m for m in range(1, n + 1) if om[m] == 14]
    right = [m for m in range(1, n + 1) if om[m] == 16]
    prods = {m * q for m in left for q in right}
    assert max(prods) > 2**32
    assert h_count(sieve_big, n, 14, 16) == len(prods)


def test_energy_ratio_invalid_evaluator():
    with pytest.raises(InvalidArgumentError):
        energy_ratio(all_ones(5), evaluator="nope")
