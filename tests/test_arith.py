import math
import tracemalloc

import numpy as np
import pytest

from gcdlab import arith
from gcdlab.arith import build_sieve, is_prime
from gcdlab.errors import BYTE_BUDGET, InvalidArgumentError, ResourceLimitError, check_bytes

from oracles import trial_factorization, trial_mobius, trial_omega, trial_phi


def test_build_sieve_rejects_zero():
    with pytest.raises(InvalidArgumentError):
        build_sieve(0)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sieve_guard_counts_its_peak(monkeypatch):
    stated = []

    def record(nbytes, what):
        stated.append(nbytes)
        check_bytes(nbytes, what)

    monkeypatch.setattr(arith, "check_bytes", record)
    assert _traced_peak(lambda: build_sieve(1 << 20)) <= stated[0] + (64 << 10)

    def refused():
        # the first limit refused: 12 (limit + 1) > BYTE_BUDGET
        with pytest.raises(ResourceLimitError):
            build_sieve(BYTE_BUDGET // 12)

    assert _traced_peak(refused) < 1 << 20


def test_sieve_limit_one():
    s = build_sieve(1)
    assert s.omega[1] == 0


def test_known_values():
    s = build_sieve(400)
    assert s.omega[12] == 3  # 12 = 2*2*3
    assert s.omega[360] == 6 and s.phi[360] == 96


def test_sieve_matches_trial_division_exhaustive(sieve_small):
    s = sieve_small
    for n in range(2, 10_001):
        assert s.omega[n] == trial_omega(n)
    for n in range(1, 300):
        assert s.phi[n] == trial_phi(n)
    mu = s.mobius()
    for n in range(1, 10_001):
        primes = set(trial_factorization(n))
        assert s.phi[n] == n // math.prod(primes) * math.prod(p - 1 for p in primes)
        assert mu[n] == trial_mobius(n)
    # the smallest sieves are prefixes of the checked one
    for limit in (1, 2):
        tiny = build_sieve(limit)
        for table in ("omega", "phi"):
            assert getattr(tiny, table).tolist() == getattr(s, table)[: limit + 1].tolist()
        assert tiny.mobius().tolist() == mu[: limit + 1].tolist()


def test_sieve_matches_trial_division_random(sieve_big):
    s = sieve_big
    mu = s.mobius()
    # near 2^20: the three largest primes, 1021^2 for the largest prime
    # <= 2^10, and products with a prime just above 2^10 or far above it;
    # all but 1021^2 keep a prime factor above sqrt(2^20) for the last pass
    fixed = [1048573, 1048571, 1048559, 1021 * 1021, 1013 * 1031, 9 * 113 * 1031, 2 * 524287]
    rng = np.random.default_rng(7)
    for n in fixed + rng.integers(2, 10**6, size=300).tolist():
        primes = trial_factorization(n)
        assert s.omega[n] == len(primes)
        assert s.phi[n] == n // math.prod(set(primes)) * math.prod(p - 1 for p in set(primes))
        assert mu[n] == trial_mobius(n)


def test_omega_additivity(sieve_big):
    s = sieve_big
    rng = np.random.default_rng(11)
    limit = s.limit
    for _ in range(10_000):
        a = int(rng.integers(2, 1000))
        b = int(rng.integers(2, limit // a))
        assert s.omega[a * b] == s.omega[a] + s.omega[b]


def test_omega_detects_primes(sieve_small):
    s = sieve_small
    for n in range(2, 3000):
        assert (s.omega[n] == 1) == is_prime(n)


def test_is_prime_examples():
    assert not is_prime(1)
    assert is_prime(10007)
    assert not is_prime(10001)  # 73 * 137
    assert is_prime(2) and is_prime(3)
    # larger instances near 2**61
    assert is_prime(2305843009213693951)  # Mersenne prime 2**61 - 1
    assert not is_prime(2305843009213693953)


def test_is_prime_matches_sieve(sieve_small):
    primes = set(sieve_small.primes.tolist())
    for n in range(1, 4000):
        assert is_prime(n) == (n in primes)


def test_mobius_table(sieve_small):
    mu = sieve_small.mobius()
    assert mu[1] == 1 and mu[2] == -1 and mu[4] == 0 and mu[6] == 1 and mu[30] == -1
    # Mertens-style sanity: sum over divisors of mu is the unit function
    for n in range(2, 500):
        assert sum(int(mu[d]) for d in range(1, n + 1) if n % d == 0) == 0
