"""Property tests: independent routes of the gcd forms and of the energy agree on random inputs."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdlab import energy
from gcdlab.arith import build_sieve
from gcdlab.gcdsums import Kernel, gcd_quadratic_form
from gcdlab.weights import WeightVector, all_ones, omega_level_weights

_N_MAX = 2000
_SIEVE = build_sieve(_N_MAX)


@st.composite
def sparse_weights(draw, n_max=_N_MAX, integral=st.booleans(), max_size=64) -> WeightVector:
    n = draw(st.integers(1, n_max))
    integral = draw(integral)
    value = st.integers(1, 10**6) if integral else st.floats(1e-6, 1e6)
    entries = draw(st.dictionaries(st.integers(1, n), value, min_size=1, max_size=max_size))
    vals = np.zeros(n + 1, dtype=np.int64 if integral else np.float64)
    vals[list(entries)] = list(entries.values())
    return WeightVector(n, vals)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(w=sparse_weights(), kind=st.sampled_from(Kernel))
def test_direct_equals_grouped(w, kind):
    direct = gcd_quadratic_form(w, kind, evaluator="direct")
    grouped = gcd_quadratic_form(w, kind, _SIEVE, evaluator="grouped")
    assert grouped == pytest.approx(direct, rel=1e-12)


# N <= 120 and 24 points keep the O(support^3) quadruple oracle fast; weights
# up to 10**6 take the energies past 2**63
@settings(derandomize=True, max_examples=100, deadline=None)
@given(w=sparse_weights(n_max=120, integral=st.just(True), max_size=24))
def test_energy_routes_agree(w):
    assert energy.energy_quadruple(w) == energy.energy_histogram(w) == energy.energy_parametrized(w)


# unit weights on a prefix [1, m] inside a limit n >= m; m <= 200 keeps the
# histogram and the parametrized loop fast
@settings(derandomize=True, max_examples=60, deadline=None)
@given(m=st.integers(1, 200), extra=st.integers(0, _N_MAX - 200))
def test_interval_equals_histogram_and_parametrized(m, extra):
    vals = np.zeros(m + extra + 1, dtype=np.int64)
    vals[1 : m + 1] = 1
    w = WeightVector(m + extra, vals)
    e = energy.energy_interval(w, _SIEVE)
    assert e == energy.energy_interval(all_ones(m)) == energy.energy_histogram(w)
    assert e == energy.energy_parametrized(w)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(n=st.integers(1, 1500), k=st.integers(0, 11), piece=st.integers(1, 64))
def test_level_exact_equals_histogram(n, k, piece):
    # patched in the body: a function-scoped monkeypatch outlives one example
    with mock.patch.object(energy, "_BATCH", piece):
        exact = energy.energy_level_exact(_SIEVE, n, k)
    level = omega_level_weights(_SIEVE, n, k)
    assert exact == (energy.energy_histogram(level) if level.l1() > 0 else 0)
