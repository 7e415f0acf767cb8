"""Weighted gcd-sum quadratic forms, their normalized ratios, and minimizers.

Two kernels are studied: T0 with entries gcd(m,n)/(m+n) and T1 with entries
gcd(m,n)/sqrt(m*n).  Both are positive definite, so the exact finite-N
infimum of the normalized ratio is a convex quadratic program over the
probability simplex; ``exact_minimize`` solves it with an away-step
conditional-gradient method and an exact line search.

Every form value can be computed by two independent routes: a direct kernel
accumulation, and a divisor-grouped route through the identity
gcd = sum of phi over common divisors.  Grouped T1 is one multiples-sum
transform; grouped T0 is one self-convolution of the cofactor row of each
divisor, in FFT calls grouped by power-of-two length.  The two routes must
agree to 1e-12 relative and the test suite enforces that.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .arith import FactorSieve
from .errors import ConvergenceError, InvalidArgumentError, check_bytes
from .weights import WeightVector, omega_level_weights, sweep_levels

__all__ = [
    "Kernel",
    "GcdSumReport",
    "kernel_matrix",
    "gcd_quadratic_form",
    "normalized_ratio",
    "set_gcd_sum",
    "crossed_energy",
    "exact_minimize",
    "minimize_over_levels",
    "level_sweep_table",
    "t0_max_profile",
    "multiple_sums",
]

_BLOCK = 2048
_ROW_ELEMENTS = 1 << 17  # entries of a row block (T0 convolutions, kernel rows): 1 MB, cache-sized


class Kernel(enum.Enum):
    T0 = "t0"  # gcd(m,n)/(m+n)
    T1 = "t1"  # gcd(m,n)/sqrt(m*n)

    @property
    def diagonal(self) -> float:
        return 0.5 if self is Kernel.T0 else 1.0


@dataclass
class GcdSumReport:
    n: int
    kind: str
    weight_desc: str
    raw: float
    ratio: float


def _kernel_block(si: np.ndarray, sj: np.ndarray, kind: Kernel) -> np.ndarray:
    """Kernel entries K(m, n) for m in si (rows) and n in sj (columns)."""
    g = np.gcd.outer(si, sj).astype(np.float64)
    if kind is Kernel.T1:
        return g / np.sqrt(np.outer(si.astype(np.float64), sj.astype(np.float64)))
    return g / np.add.outer(si.astype(np.float64), sj.astype(np.float64))


def kernel_matrix(n: int, kind: Kernel) -> np.ndarray:
    """Dense kernel matrix K(m, m') for m, m' in [1, n]."""
    check_bytes(8 * n * n, "kernel matrix")
    # gcd by strided writes: d is written on the multiples of d, ascending, so
    # the last write to an entry is its largest common divisor
    K = np.ones((n, n))
    for d in range(2, n + 1):
        K[d - 1 :: d, d - 1 :: d] = d
    # then divide in row blocks, by the same float operations as _kernel_block
    m = np.arange(1, n + 1, dtype=np.float64)
    rows = max(1, _ROW_ELEMENTS // max(1, n))
    for i0 in range(0, n, rows):
        mi = m[i0 : i0 + rows]
        K[i0 : i0 + rows] /= np.sqrt(np.outer(mi, m)) if kind is Kernel.T1 else np.add.outer(mi, m)
    return K


def _direct_form(support: np.ndarray, wvals: np.ndarray, kind: Kernel) -> float:
    """Blocked direct accumulation of w^T K w over the support."""
    s = support
    total = 0.0
    for i0 in range(0, len(s), _BLOCK):
        si = s[i0 : i0 + _BLOCK]
        wi = wvals[i0 : i0 + _BLOCK]
        for j0 in range(i0, len(s), _BLOCK):
            sj = s[j0 : j0 + _BLOCK]
            wj = wvals[j0 : j0 + _BLOCK]
            block = float(wi @ _kernel_block(si, sj, kind) @ wj)
            total += block if j0 == i0 else 2.0 * block
    return total


def multiple_sums(u: np.ndarray) -> np.ndarray:
    """S[..., d] = sum of u[..., m] over the multiples m of d (last axis).

    Hyperbola split at s = isqrt(N): one strided slice sum per d <= s, then one
    strided add per cofactor i <= N // (s + 1) covers every d > s at once.
    """
    n = u.shape[-1] - 1
    out = np.zeros(u.shape, dtype=np.float64)
    if n < 1:
        return out
    s = math.isqrt(n)
    for d in range(1, s + 1):
        out[..., d] = u[..., d::d].sum(-1)
    for i in range(1, n // (s + 1) + 1):
        out[..., s + 1 : n // i + 1] += u[..., i * (s + 1) :: i]
    return out


def _self_convolutions(u: np.ndarray, size: int, integral: bool) -> np.ndarray:
    """Each row of u convolved with itself, by one rfft/irfft of length size >= 2 width - 1.

    Entry j is the sum over i of u[i] u[j - i]; for integer rows it is rounded
    to the nearest integer, which is exact while the FFT error stays below 1/2.
    """
    f = np.fft.rfft(u, size)
    f *= f
    conv = np.fft.irfft(f, size)[:, : 2 * u.shape[1] - 1]
    return np.rint(conv, out=conv) if integral else conv


def _t0_convolutions(w: WeightVector, phi: np.ndarray) -> float:
    """T0 form as the sum over t of A(t) / t, A(t) = sum over d s = t of phi(d) (u_d * u_d)(s).

    u_d(m') = w(d m') for m' <= floor(N/d), so A(t) gathers the pairs m + n = t
    by their common divisors.  The d with h/2 < floor(N/d) <= h, for h a power
    of two, share one FFT length 2h: about log2 N classes.  Rows are zero-padded
    to width h, and an index d m' > N reads the zero sentinel w[N + 1].  For
    integer weights A is exact below 2^53, so the only roundings are one per
    A(t) / t and one in ``math.fsum``.
    """
    n = w.limit
    # held at the d = 1 call, the largest: the sentinel copy of w and A, 24 bytes
    # per m <= N (at most 12 per FFT entry), and the call itself, 28 bytes per
    # FFT entry (the row, its rfft squared in place, the irfft, pocketfft's copy)
    check_bytes(40 * 2 * (1 << (n - 1).bit_length()), "T0 convolution row and sums")
    wz = np.zeros(n + 2)
    wz[: n + 1] = w.values
    acc = np.zeros(2 * n + 1)  # A(t) for t <= 2N
    h, d_hi = 1, n
    while d_hi >= 1:
        d_lo = n // (h + 1) + 1
        step = max(1, _ROW_ELEMENTS // (2 * h))
        for d0 in range(d_lo, d_hi + 1, step):
            d = np.arange(d0, min(d0 + step, d_hi + 1))
            u = wz[np.minimum(np.outer(d, np.arange(1, h + 1)), n + 1)]
            conv = _self_convolutions(u, 2 * h, w.is_integral)
            conv *= phi[d, None]
            # A[d s] += phi(d) conv[d, s] for d s <= 2N, looping over the shorter axis
            if len(d) < 2 * h - 1:
                for i, di in enumerate(d.tolist()):
                    seg = acc[2 * di :: di][: 2 * h - 1]
                    seg += conv[i, : len(seg)]
            else:
                for s in range(2, min(2 * h, 2 * n // d0) + 1):
                    k = min(len(d), 2 * n // s - d0 + 1)
                    acc[d0 * s : (d0 + k - 1) * s + 1 : s] += conv[:k, s - 2]
        h, d_hi = 2 * h, min(d_hi, d_lo - 1)
    q = acc[2:] / np.arange(2, 2 * n + 1)
    return math.fsum(itertools.chain.from_iterable(
        q[i : i + _ROW_ELEMENTS].tolist() for i in range(0, len(q), _ROW_ELEMENTS)))


def _grouped_form(w: WeightVector, kind: Kernel, sieve: FactorSieve) -> float:
    """The form through gcd = sum of phi over common divisors.

    T1 is sum_d phi(d) S_d(w / sqrt(m))**2, one ``multiple_sums`` row.  T0 is a
    Hankel form in the cofactors of each d, so one self-convolution per d
    (``_t0_convolutions``); rounded for integer weights, it is exact up to the
    final sum over 1/t.
    """
    n = w.limit
    if sieve.limit < n:
        raise InvalidArgumentError("sieve too small for this weight vector")
    if kind is Kernel.T0:
        return _t0_convolutions(w, sieve.phi)
    supp = w.support
    u = np.zeros(n + 1)
    u[supp] = w.values[supp] / np.sqrt(supp)
    s = multiple_sums(u)[1:]
    return float((s * s * sieve.phi[1 : n + 1]).sum())


def gcd_quadratic_form(
    w: WeightVector,
    kind: Kernel,
    sieve: FactorSieve | None = None,
    evaluator: str = "direct",
) -> float:
    """Sum of w(m1) w(m2) K(m1, m2) over the square of [1, N]."""
    w.positive_l1()
    if evaluator == "direct":
        supp = w.support
        return _direct_form(supp, w.values[supp].astype(np.float64), kind)
    if evaluator == "grouped":
        if sieve is None:
            raise InvalidArgumentError("grouped evaluator needs a sieve (phi table)")
        return _grouped_form(w, kind, sieve)
    raise InvalidArgumentError(f"unknown evaluator {evaluator!r}")


def normalized_ratio(
    w: WeightVector,
    kind: Kernel,
    sieve: FactorSieve | None = None,
    evaluator: str = "direct",
) -> GcdSumReport:
    """N * form / l1(w)**2, packaged with the run metadata."""
    raw = gcd_quadratic_form(w, kind, sieve, evaluator=evaluator)
    l1 = w.l1()
    ratio = w.limit * raw / (l1 * l1)
    return GcdSumReport(
        n=w.limit,
        kind=kind.value,
        weight_desc=w.label,
        raw=raw,
        ratio=ratio,
    )


def set_gcd_sum(members: Iterable[int]) -> float:
    """T0 quadratic form of an indicator set: sum of gcd/(m1+m2) over B x B."""
    s = np.asarray(sorted(set(members)), dtype=np.int64)
    if len(s) == 0:
        raise InvalidArgumentError("set must be nonempty")
    return _direct_form(s, np.ones(len(s)), Kernel.T0)


def crossed_energy(w: WeightVector):
    """Number of quadruples n1*m1 = n2*m2 (all <= N), weighted by w(m1)w(m2).

    For each pair the count of admissible n is floor(N*gcd/max(m1,m2)); the
    result is an exact integer for integer weights.
    """
    w.positive_l1()
    supp = w.support
    # two support^2 tables coexist: the gcd table, turned into the counts in
    # place, and the max table (or the float copy of the counts)
    check_bytes(16 * len(supp) ** 2, "crossed-energy gcd and max tables")
    counts = np.gcd.outer(supp, supp)
    counts *= w.limit
    counts //= np.maximum.outer(supp, supp)
    wv = w.values[supp]
    if w.is_integral:
        return int(np.einsum("i,ij,j->", wv, counts, wv))
    return float(np.einsum("i,ij,j->", wv.astype(np.float64), counts.astype(np.float64), wv))


def exact_minimize(
    n: int,
    kind: Kernel,
    tol: float = 1e-10,
    max_iter: int = 500_000,
) -> tuple[WeightVector, float]:
    """Minimize N w^T K w / (sum w)^2 over nonnegative weights.

    Solved as min of w^T K w over the probability simplex (the ratio is scale
    invariant) by away-step Frank-Wolfe with exact line search, stopping when
    the Frank-Wolfe duality gap drops below tol * current value on a freshly
    computed K w.  K w is computed by einsum, never by BLAS, and the returned
    value is the w^T K w of that certification.  Raises ConvergenceError
    carrying the best iterate and its fresh value if the budget runs out.
    """
    if n < 1:
        raise InvalidArgumentError("need N >= 1")
    if not 0 < tol < math.inf:
        raise InvalidArgumentError("tol must be finite and positive")
    K = kernel_matrix(n, kind)
    w = np.full(n, 1.0 / n)
    # not K @ w: a BLAS gemv wakes OpenBLAS's worker thread, which then spins
    # for about 80 ms; einsum (optimize=False) never calls BLAS
    Kw = np.einsum("ij,j->i", K, w)
    tmp = np.empty(n)
    # 0 on the active set {w > 0}, -inf elsewhere: the away vertex is argmax(Kw + off)
    off = np.zeros(n)
    gap = np.inf
    for _ in range(max_iter):
        # the gradient is 2 Kw: argmin of Kw is the Frank-Wolfe vertex, and
        # 2 (val - Kw[i]) is the duality gap exactly (scaling by 2 is exact)
        val = w.dot(Kw).item()
        i_fw = Kw.argmin()
        gap = 2.0 * (val - Kw.item(i_fw))
        if gap <= tol * val:
            # certify on a fresh K w: the running one has drifted over the updates
            np.einsum("ij,j->i", K, w, out=Kw)
            val = w.dot(Kw).item()
            i_fw = Kw.argmin()
            gap = 2.0 * (val - Kw.item(i_fw))
            if gap <= tol * val:
                break
        np.add(Kw, off, out=tmp)
        i_aw = tmp.argmax()
        away_gap = 2.0 * (Kw.item(i_aw) - val)
        if gap >= away_gap:
            step_max = 1.0
            curv = K.item(i_fw, i_fw) - 2.0 * Kw.item(i_fw) + val
            step = step_max if curv <= 0 else min(step_max, 0.5 * gap / curv)
            w *= 1.0 - step
            w[i_fw] += step
            if step == 1.0:  # full step: the active set is the one vertex
                off.fill(-np.inf)
            off[i_fw] = 0.0
            Kw *= 1.0 - step
            np.multiply(K[i_fw], step, out=tmp)  # K is symmetric; a row is contiguous
            Kw += tmp
        else:
            a = w.item(i_aw)
            step_max = a / (1.0 - a) if a < 1.0 else np.inf
            curv = val - 2.0 * Kw.item(i_aw) + K.item(i_aw, i_aw)
            step = step_max if curv <= 0 else min(step_max, 0.5 * away_gap / curv)
            w *= 1.0 + step
            w[i_aw] -= step
            if w[i_aw] < 1e-17:  # drop step: clear the vertex exactly
                w[i_aw] = 0.0
                off[i_aw] = -np.inf
            Kw *= 1.0 + step
            np.multiply(K[i_aw], step, out=tmp)
            Kw -= tmp
    else:
        best = WeightVector(n, np.concatenate([[0.0], w]), label="optimal-qp(unconverged)")
        raise ConvergenceError(
            f"Frank-Wolfe gap {gap:.3e} after {max_iter} iterations",
            best=best,
            value=n * w.dot(np.einsum("ij,j->i", K, w)).item(),
            gap=gap,
        )
    vals = np.concatenate([[0.0], w])
    wv = WeightVector(n, vals, label="optimal-qp")
    return wv, n * val


def _level_ratio(sieve: FactorSieve, n: int, k: int, kind: Kernel) -> float:
    w = omega_level_weights(sieve, n, k)
    return normalized_ratio(w, kind, sieve, evaluator="grouped").ratio


def minimize_over_levels(n: int, kind: Kernel, sieve: FactorSieve) -> tuple[int, float]:
    """Sweep k over all nonempty Omega-levels, return (argmin k, min ratio).

    Ties break toward the smaller k.  Levels whose diagonal-only lower bound
    N * diag / l1 already exceeds the best ratio found are skipped; the bound
    is strict, so no potential tie is ever discarded.
    """
    ratio, k = min((r, k) for k, _, r in sweep_levels(
        sieve, n,
        lambda k, size: _level_ratio(sieve, n, k, kind),
        floor=lambda k, size: n * kind.diagonal / size,
    ))
    return k, ratio


def level_sweep_table(n: int, kind: Kernel, sieve: FactorSieve) -> list[tuple[int, int, float]]:
    """(k, support size, ratio) for every nonempty level; no pruning."""
    return sorted(sweep_levels(sieve, n, lambda k, size: _level_ratio(sieve, n, k, kind)))


def t0_max_profile(x_max: int, sieve: FactorSieve) -> float:
    """Max over a geometric grid of x <= x_max of the level-minimized T0 ratio.

    This is the computable stand-in for the maximum over x of the true
    infimum: the level sweep gives an upper bound at each grid point.
    """
    if x_max < 1:
        raise InvalidArgumentError("need x_max >= 1")
    grid = [2**e for e in range((x_max - 1).bit_length())] + [x_max]
    return max(minimize_over_levels(x, Kernel.T0, sieve)[1] for x in grid)
