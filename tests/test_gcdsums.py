import math
import tracemalloc

import numpy as np
import pytest

from gcdlab.arith import build_sieve
from gcdlab import gcdsums as gcdsums_module
from gcdlab.errors import ConvergenceError, InvalidArgumentError, ResourceLimitError
from gcdlab.gcdsums import (
    Kernel,
    _self_convolutions,
    crossed_energy,
    exact_minimize,
    gcd_quadratic_form,
    kernel_matrix,
    level_sweep_table,
    minimize_over_levels,
    multiple_sums,
    normalized_ratio,
    set_gcd_sum,
    t0_max_profile,
)
from gcdlab.weights import WeightVector, all_ones, indicator, omega_level_weights

from oracles import crossed_four_loop, frank_wolfe_reference, gcd_form_direct, gcd_kernel


def _random_weights(rng, n, density=0.5, real=True):
    vals = rng.random(n + 1) * (rng.random(n + 1) < density)
    vals[0] = 0.0
    if vals.sum() == 0:
        vals[1] = 1.0
    if not real:
        vals = np.ceil(vals * 5).astype(np.int64)
    return WeightVector(n, vals)


def test_form_examples():
    assert gcd_quadratic_form(all_ones(1), Kernel.T1) == pytest.approx(1.0, abs=1e-15)
    assert gcd_quadratic_form(all_ones(2), Kernel.T1) == pytest.approx(2 + math.sqrt(2), abs=1e-12)
    assert gcd_quadratic_form(all_ones(2), Kernel.T0) == pytest.approx(5 / 3, abs=1e-12)


def test_ratio_examples():
    assert normalized_ratio(all_ones(1), Kernel.T1).ratio == pytest.approx(1.0)
    assert normalized_ratio(all_ones(2), Kernel.T1).ratio == pytest.approx(
        2 * (2 + math.sqrt(2)) / 4, abs=1e-12
    )
    assert normalized_ratio(all_ones(2), Kernel.T0).ratio == pytest.approx(5 / 6, abs=1e-12)


def test_zero_weights_rejected():
    vals = np.zeros(5)
    with pytest.raises(InvalidArgumentError):
        gcd_quadratic_form(WeightVector(4, vals), Kernel.T1)


def test_set_gcd_sum():
    assert set_gcd_sum({1}) == pytest.approx(0.5)
    assert set_gcd_sum({1, 2}) == pytest.approx(5 / 3, abs=1e-12)
    assert set_gcd_sum({2, 4}) == pytest.approx(5 / 3, abs=1e-12)
    with pytest.raises(InvalidArgumentError):
        set_gcd_sum(set())


def test_forms_match_python_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        w = _random_weights(rng, n)
        wd = {int(m): float(w.values[m]) for m in w.support}
        for kind in (Kernel.T0, Kernel.T1):
            expect = gcd_form_direct(wd, kind.value)
            assert gcd_quadratic_form(w, kind) == pytest.approx(expect, rel=1e-12)


def test_grouped_equals_direct(sieve_small):
    rng = np.random.default_rng(5)
    inputs = [_random_weights(rng, n, density=0.3) for n in (2, 17, 100, 700, 2000)]
    # every nonempty Omega-level at N = 4096 (supports 1..1124), as the level sweeps see them
    inputs += [omega_level_weights(sieve_small, 4096, int(k))
               for k in np.unique(sieve_small.omega[1:4097])]
    for w in inputs:
        for kind in (Kernel.T0, Kernel.T1):
            direct = gcd_quadratic_form(w, kind)
            grouped = gcd_quadratic_form(w, kind, sieve_small, evaluator="grouped")
            assert grouped == pytest.approx(direct, rel=1e-12)


def test_scaling_invariance():
    rng = np.random.default_rng(9)
    w = _random_weights(rng, 40)
    for kind in (Kernel.T0, Kernel.T1):
        base = normalized_ratio(w, kind).ratio
        for c in (0.01, 3.7, 1000.0):
            assert normalized_ratio(w.scaled(c), kind).ratio == pytest.approx(base, rel=1e-12)


def test_kernels_positive_semidefinite():
    # principal submatrices of a PSD matrix are PSD, so N = 300 covers all
    # smaller sizes; a couple of small direct checks are kept anyway
    for n in (7, 50, 300):
        for kind in (Kernel.T0, Kernel.T1):
            eigs = np.linalg.eigvalsh(kernel_matrix(n, kind))
            assert eigs.min() >= -1e-9


def test_t0_below_t1():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 120))
        w = _random_weights(rng, n)
        t0 = gcd_quadratic_form(w, Kernel.T0)
        t1 = gcd_quadratic_form(w, Kernel.T1)
        assert t0 <= t1 + 1e-12


def test_crossed_energy_examples():
    assert crossed_energy(all_ones(1)) == 1
    assert crossed_energy(all_ones(2)) == 6
    assert crossed_energy(all_ones(3)) == 15


def test_crossed_energy_matches_four_loop():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 14))
        vals = np.zeros(n + 1, dtype=np.int64)
        supp = rng.choice(np.arange(1, n + 1), size=max(1, n // 2), replace=False)
        vals[supp] = rng.integers(1, 4, size=len(supp))
        w = WeightVector(n, vals)
        assert crossed_energy(w) == crossed_four_loop(
            {int(m): int(vals[m]) for m in supp}, n
        )


def test_crossed_energy_quadratic_form_bound():
    """Pair-count bound: crossed quadruple count <= 2 N (T0 form).

    The factor 2 is sharp: a diagonal pair m1 = m2 contributes
    floor(N g / max) = N against a kernel term of N g / (m1 + m2) = N / 2.
    """
    rng = np.random.default_rng(19)
    for _ in range(200):
        n = int(rng.integers(2, 200))
        w = _random_weights(rng, n)
        bound = 2.0 * n * gcd_quadratic_form(w, Kernel.T0)
        assert crossed_energy(w) <= bound * (1 + 1e-12)


def test_exact_minimize_closed_forms():
    w, val = exact_minimize(1, Kernel.T1)
    assert val == pytest.approx(1.0)
    w, val = exact_minimize(2, Kernel.T1, tol=1e-12)
    assert val == pytest.approx(1 + 1 / math.sqrt(2), abs=1e-9)
    assert np.allclose(w.values[1:], [0.5, 0.5], atol=1e-5)
    w, val = exact_minimize(2, Kernel.T0, tol=1e-12)
    assert val == pytest.approx(5 / 6, abs=1e-9)


def test_exact_minimize_dominates_family(sieve_small):
    for n in (16, 64):
        _, val = exact_minimize(n, Kernel.T1, tol=1e-10)
        _, sweep = minimize_over_levels(n, Kernel.T1, sieve_small)
        ones = normalized_ratio(all_ones(n), Kernel.T1).ratio
        assert val <= sweep + 1e-7
        assert val <= ones + 1e-7


def _gap_certified(w: WeightVector, kind: Kernel, tol: float) -> bool:
    """Frank-Wolfe gap <= tol * value, on a fresh kernel and a fresh K w."""
    x = w.values[1:]
    kx = kernel_matrix(w.limit, kind) @ x
    val = float(x @ kx)
    return 2.0 * (val - kx.min()) <= tol * val


@pytest.mark.parametrize("kind", [Kernel.T0, Kernel.T1])
def test_exact_minimize_matches_reference_loop(monkeypatch, kind):
    # small row blocks (14 rows at N = 300, the last one ragged) exercise the
    # blocked kernel_matrix against the reference's one-block kernel
    monkeypatch.setattr(gcdsums_module, "_ROW_ELEMENTS", 1 << 12)
    for n in (64, 300):
        w, ratio = exact_minimize(n, kind, tol=1e-10)
        ref_w, ref_ratio = frank_wolfe_reference(n, kind.value, tol=1e-10)
        assert np.array_equal(w.values[1:], ref_w)
        assert ratio == ref_ratio
        assert _gap_certified(w, kind, 1e-10)


@pytest.mark.parametrize("n, kind", [(64, Kernel.T0), (64, Kernel.T1), (128, Kernel.T1)])
def test_exact_minimize_exit_certified_at_tight_tol(n, kind):
    # at tol 1e-14 the running K w drifts past the tolerance: trusting it
    # returned fresh gaps of 1.4e-14 to 2.0e-14 relative on these inputs
    w, _ = exact_minimize(n, kind, tol=1e-14)
    assert _gap_certified(w, kind, 1e-14)


def test_exact_minimize_budget_error():
    with pytest.raises(ConvergenceError) as exc:
        exact_minimize(64, Kernel.T1, tol=1e-14, max_iter=3)
    assert exc.value.best is not None
    assert exc.value.value > 0


def test_level_sweep(sieve_small):
    k, ratio = minimize_over_levels(10, Kernel.T1, sieve_small)
    table = {kk: r for kk, _, r in level_sweep_table(10, Kernel.T1, sieve_small)}
    assert ratio == min(table.values())
    assert k == min(kk for kk, r in table.items() if r == ratio)
    # N = 10**4 argmin sits in the documented window
    k4, _ = minimize_over_levels(10**4, Kernel.T1, sieve_small)
    kappa = k4 / math.log(math.log(10**4))
    assert 0.2 <= kappa <= 0.9


def test_sweep_prune_matches_full_table(sieve_small):
    for n in (10, 100, 2500):
        for kind in (Kernel.T0, Kernel.T1):
            k, ratio = minimize_over_levels(n, kind, sieve_small)
            table = level_sweep_table(n, kind, sieve_small)
            best = min((r, kk) for kk, _, r in table)
            assert (ratio, k) == best


def test_multiple_sums_matches_slices():
    rng = np.random.default_rng(23)
    for n in (0, 1, 2, 3, 8, 15, 16, 17, 3000, 3001):
        u = rng.random((3, n + 1))
        s = multiple_sums(u)
        for row in range(3):
            assert np.array_equal(s[row], multiple_sums(u[row]))
        for d in range(1, n + 1):
            assert s[0, d] == pytest.approx(u[0, d::d].sum(), rel=1e-12)


@pytest.mark.parametrize("kind", [Kernel.T0, Kernel.T1])
def test_kernel_matrix_equals_gcd_outer(kind):
    for n in (1, 2, 7, 300, 1024):
        assert np.array_equal(kernel_matrix(n, kind), gcd_kernel(n, kind.value))


def test_self_convolutions_equal_integer_convolve():
    rng = np.random.default_rng(29)
    # widths on both sides of each power-of-two FFT length up to 2^12
    widths = {1, 2} | {w for e in range(2, 12) for w in (2**e - 1, 2**e, 2**e + 1)}
    for width in sorted(widths):
        size = 1 << (2 * width - 2).bit_length()
        u = (rng.random((3, width)) < 0.5).astype(np.int64)
        conv = _self_convolutions(u.astype(np.float64), size, integral=True)
        assert conv.shape == (3, 2 * width - 1)
        for row, c in zip(u, conv):
            assert np.array_equal(c, np.convolve(row, row))


def _assert_t0_levels_match_direct(sieve, n, levels):
    for k in levels:
        w = omega_level_weights(sieve, n, k)
        direct = gcd_quadratic_form(w, Kernel.T0)
        grouped = gcd_quadratic_form(w, Kernel.T0, sieve, evaluator="grouped")
        assert grouped == pytest.approx(direct, rel=1e-14)


def test_t0_convolutions_match_direct(sieve_small):
    _assert_t0_levels_match_direct(sieve_small, 2048, range(12))
    _assert_t0_levels_match_direct(sieve_small, 8192, range(2, 5))


def test_t0_convolutions_small_blocks(monkeypatch, sieve_small):
    # 2^8 entries a call: every FFT length from 256 up takes one row a call,
    # and each shorter length spans several calls, so both ways of adding a
    # call into A(t) (by row and by s) meet call boundaries
    monkeypatch.setattr(gcdsums_module, "_ROW_ELEMENTS", 1 << 8)
    _assert_t0_levels_match_direct(sieve_small, 2048, range(12))
    _assert_t0_levels_match_direct(sieve_small, 8192, range(2, 5))


def test_t0_convolution_guard_raises_before_allocating():
    # 2^22 + 1 takes FFT length 2^24: 40 bytes an entry pass the 2^29-byte budget
    n = (1 << 22) + 1
    w = WeightVector(n, np.zeros(n + 1, dtype=np.int8))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=f"{40 << 24} bytes"):
            gcdsums_module._t0_convolutions(w, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_t0_max_profile():
    sieve = build_sieve(10007)
    assert t0_max_profile(1, sieve) == pytest.approx(0.5)
    # the exact rational ratio of level 2 at x = 10007, correctly rounded; the
    # direct route gives the same float
    assert t0_max_profile(10007, sieve) == 5.584557683753311
    # monotone in the endpoint: adding grid points can only raise the max
    assert t0_max_profile(64, sieve) >= t0_max_profile(32, sieve) - 1e-12
    # the same doubling grid, every level evaluated by the direct form
    for x_max in (64, 1000, 10007):
        grid = [2**e for e in range(x_max.bit_length()) if 2**e < x_max] + [x_max]
        direct = max(
            min(normalized_ratio(omega_level_weights(sieve, x, int(k)), Kernel.T0).ratio
                for k in np.unique(sieve.omega[1 : x + 1]))
            for x in grid
        )
        assert t0_max_profile(x_max, sieve) == pytest.approx(direct, rel=1e-12)
