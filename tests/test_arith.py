import math

import numpy as np
import pytest

from gcdlab.arith import build_sieve, is_prime
from gcdlab.errors import InvalidArgumentError

from oracles import trial_factorization, trial_mobius, trial_omega, trial_phi, trial_spf


def test_build_sieve_rejects_zero():
    with pytest.raises(InvalidArgumentError):
        build_sieve(0)


def test_sieve_limit_one():
    s = build_sieve(1)
    assert s.omega[1] == 0


def test_known_values():
    s = build_sieve(400)
    assert s.omega[12] == 3  # 12 = 2*2*3
    assert s.omega[360] == 6 and s.spf[360] == 2 and s.phi[360] == 96


def test_sieve_matches_trial_division_exhaustive(sieve_small):
    s = sieve_small
    for n in range(2, 10_001):
        assert s.omega[n] == trial_omega(n)
    # spot-check the other tables on a coarser grid
    for n in range(2, 2000, 7):
        assert s.spf[n] == trial_spf(n)
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
        for table in ("omega", "spf", "phi"):
            assert getattr(tiny, table).tolist() == getattr(s, table)[: limit + 1].tolist()
        assert tiny.mobius().tolist() == mu[: limit + 1].tolist()


def test_sieve_matches_trial_division_random(sieve_big):
    rng = np.random.default_rng(7)
    for n in rng.integers(2, 10**6, size=300):
        assert sieve_big.omega[n] == trial_omega(int(n))


def test_omega_additivity(sieve_big):
    s = sieve_big
    rng = np.random.default_rng(11)
    limit = s.limit
    for _ in range(10_000):
        a = int(rng.integers(2, 1000))
        b = int(rng.integers(2, limit // a))
        assert s.omega[a * b] == s.omega[a] + s.omega[b]


def test_omega_matches_spf_recurrence(sieve_small):
    s = sieve_small
    omega = [0] * (s.limit + 1)
    for n in range(2, s.limit + 1):
        omega[n] = omega[n // int(s.spf[n])] + 1
    assert s.omega.tolist() == omega


def test_spf_divides_and_is_prime(sieve_small):
    s = sieve_small
    primes = set(s.primes.tolist())
    for n in range(2, 5000):
        p = int(s.spf[n])
        assert n % p == 0 and p in primes
    assert all(int(s.phi[p]) == p - 1 for p in list(primes)[:100])


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
