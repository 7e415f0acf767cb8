import math

import numpy as np
import pytest

from gcdlab.characters import weighted_congruence_count
from gcdlab.energy import energy_histogram, energy_ratio
from gcdlab.errors import InvalidArgumentError, ResourceLimitError
from gcdlab.exponents import rate_function
from gcdlab.gcdsums import Kernel, crossed_energy, gcd_quadratic_form
from gcdlab.theta import moment_report
from gcdlab.weights import (
    WeightVector,
    all_ones,
    indicator,
    kappa_to_k,
    omega_level_weights,
    omega_tail_weights,
)


def test_level_weight_supports(sieve_small):
    assert omega_level_weights(sieve_small, 10, 0).support.tolist() == [1]
    assert omega_level_weights(sieve_small, 10, 1).support.tolist() == [2, 3, 5, 7]
    assert omega_level_weights(sieve_small, 10, 2).support.tolist() == [4, 6, 9, 10]


def test_level_weight_bounds(sieve_small):
    with pytest.raises(InvalidArgumentError):
        omega_level_weights(sieve_small, sieve_small.limit + 1, 1)


def test_tail_weights(sieve_small):
    # log log 16 ~ 1.02, so the support is Omega >= 2
    assert omega_tail_weights(sieve_small, 16).support.tolist() == [4, 6, 8, 9, 10, 12, 14, 15, 16]
    # log log 3 ~ 0.094, so the support is Omega >= 1
    assert omega_tail_weights(sieve_small, 3).support.tolist() == [2, 3]
    for n in (2, 3, 10, 100, 5000):
        assert 1 not in omega_tail_weights(sieve_small, n).support
    with pytest.raises(InvalidArgumentError):
        omega_tail_weights(sieve_small, 1)


def test_kappa_to_k():
    assert kappa_to_k(100, 1e-9) == 0
    assert kappa_to_k(1618, 0.5) == 1  # 1618 ~ e**(e**2), product is ~1.0
    assert kappa_to_k(10**6, 0.48154) == 1
    # ties round up
    n = 10**6
    kap = 1.5 / math.log(math.log(n))
    assert kappa_to_k(n, kap) == 2
    with pytest.raises(InvalidArgumentError):
        kappa_to_k(2, 0.5)
    for kap in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgumentError):
            kappa_to_k(100, kap)


def test_l1_and_indicator(sieve_small):
    assert omega_level_weights(sieve_small, 10, 1).l1() == 4
    assert all_ones(25).l1() == 25
    w = indicator([3, 5, 9], 10)
    assert w.l1() == 3 and w.support.tolist() == [3, 5, 9]
    with pytest.raises(InvalidArgumentError):
        indicator([11], 10)
    assert all_ones(0).l1() == 0 and indicator([], 0).l1() == 0
    for call in (lambda: all_ones(-1), lambda: indicator([], -1)):
        with pytest.raises(InvalidArgumentError):
            call()
    # refused before the 8 TB table is asked for
    with pytest.raises(ResourceLimitError):
        all_ones(10**12)


def test_zero_weights_rejected_by_every_form():
    w = WeightVector(6, np.zeros(7))
    calls = [
        w.positive_l1,
        lambda: energy_ratio(w),
        lambda: energy_histogram(w),
        lambda: gcd_quadratic_form(w, Kernel.T1),
        lambda: crossed_energy(w),
        lambda: weighted_congruence_count(101, w, 0, 10),
        lambda: moment_report(101, 1.0, w),
    ]
    for call in calls:
        with pytest.raises(InvalidArgumentError, match="positive l1 norm"):
            call()


def test_negative_weights_rejected():
    vals = np.zeros(4)
    vals[2] = -1.0
    with pytest.raises(InvalidArgumentError):
        WeightVector(3, vals)


def test_levels_partition(sieve_small):
    for n in (1, 17, 360, 5000):
        counts = sum(
            omega_level_weights(sieve_small, n, k).l1()
            for k in range(0, int(sieve_small.omega[1 : n + 1].max()) + 1)
        )
        assert counts == n


def test_csv_serialization_roundtrip(sieve_small):
    w = omega_level_weights(sieve_small, 30, 2)
    lines = w.csv_lines()
    parsed = {int(line.split(",")[0]): int(line.split(",")[1]) for line in lines}
    assert parsed == {int(m): 1 for m in w.support}


def test_level_density_trend(sieve_big):
    """The counting ratio l1 * (log N)^Q * sqrt(log log N) / N stays bounded.

    Desk-scale version of the density asymptotics for Omega-level sets,
    asserted inside a generous corridor only.
    """
    lo, hi = np.inf, 0.0
    for n in (10**4, 10**5, 10**6):
        lll = math.log(math.log(n))
        counts = np.bincount(sieve_big.omega[1 : n + 1])
        for kap in np.arange(0.3, 1.7001, 0.05):
            k = kappa_to_k(n, float(kap))
            l1 = counts[k] if k < len(counts) else 0
            if l1 == 0:
                continue
            k_eff = k / lll
            ratio = l1 * math.log(n) ** rate_function(k_eff) * math.sqrt(lll) / n
            lo, hi = min(lo, ratio), max(hi, ratio)
    assert 0.05 <= lo and hi <= 20.0
