"""Property test: the direct and divisor-grouped gcd forms agree on random sparse weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdlab.arith import build_sieve
from gcdlab.gcdsums import Kernel, gcd_quadratic_form
from gcdlab.weights import WeightVector

_N_MAX = 2000
_SIEVE = build_sieve(_N_MAX)


@st.composite
def sparse_weights(draw) -> WeightVector:
    n = draw(st.integers(1, _N_MAX))
    integral = draw(st.booleans())
    value = st.integers(1, 10**6) if integral else st.floats(1e-6, 1e6)
    entries = draw(st.dictionaries(st.integers(1, n), value, min_size=1, max_size=64))
    vals = np.zeros(n + 1, dtype=np.int64 if integral else np.float64)
    vals[list(entries)] = list(entries.values())
    return WeightVector(n, vals)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(w=sparse_weights(), kind=st.sampled_from(Kernel))
def test_direct_equals_grouped(w, kind):
    direct = gcd_quadratic_form(w, kind, evaluator="direct")
    grouped = gcd_quadratic_form(w, kind, _SIEVE, evaluator="grouped")
    assert grouped == pytest.approx(direct, rel=1e-9)
