"""Weight families over [1, N]: the optimization variable of both ratio problems.

A weight vector stores w(1..N) as a numpy array of length N+1 with index 0
unused.  Integer-valued families (indicators, levels) keep an int64 dtype so
downstream energy computations can stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .arith import FactorSieve
from .errors import InvalidArgumentError, check_bytes

__all__ = [
    "WeightVector",
    "omega_level_weights",
    "omega_tail_weights",
    "kappa_to_k",
    "sweep_levels",
    "indicator",
    "all_ones",
]


@dataclass
class WeightVector:
    limit: int
    values: np.ndarray  # length limit+1, values[0] == 0, entries >= 0
    label: str = "custom"

    def __post_init__(self):
        if len(self.values) != self.limit + 1:
            raise InvalidArgumentError("values must have length limit+1")
        if self.values[0] != 0:
            raise InvalidArgumentError("values[0] must be 0 (index 0 is unused)")
        if np.any(self.values < 0):
            raise InvalidArgumentError("weights must be nonnegative")

    @property
    def support(self) -> np.ndarray:
        return np.nonzero(self.values[1:])[0] + 1

    @property
    def is_integral(self) -> bool:
        return np.issubdtype(self.values.dtype, np.integer)

    def l1(self) -> float:
        return float(self.values.sum())

    def positive_l1(self) -> float:
        """l1 norm; InvalidArgumentError unless it is positive."""
        l1 = self.l1()
        if l1 <= 0:
            raise InvalidArgumentError("weight vector must have positive l1 norm")
        return l1

    def scaled(self, c: float) -> "WeightVector":
        return WeightVector(self.limit, self.values * c, label=f"{self.label}*{c:g}")

    def csv_lines(self) -> list[str]:
        """Serialize the support as "m,w(m)" lines."""
        out = []
        for m in range(1, self.limit + 1):
            v = self.values[m]
            if v:
                out.append(f"{m},{v:.17g}" if not self.is_integral else f"{m},{int(v)}")
        return out


def omega_level_weights(sieve: FactorSieve, n_max: int, k: int) -> WeightVector:
    """Indicator of {m <= n_max : Omega(m) = k}."""
    if n_max > sieve.limit:
        raise InvalidArgumentError(f"N={n_max} exceeds sieve limit {sieve.limit}")
    if n_max < 1 or k < 0:
        raise InvalidArgumentError("need N >= 1 and k >= 0")
    vals = np.zeros(n_max + 1, dtype=np.int64)
    vals[1:] = sieve.omega[1 : n_max + 1] == k
    return WeightVector(n_max, vals, label=f"level:{k}")


def omega_tail_weights(sieve: FactorSieve, n_max: int) -> WeightVector:
    """Indicator of {m <= n_max : Omega(m) > log log n_max}.

    The threshold is clamped at 0 so that m = 1 (Omega = 0) never enters the
    support, which for n_max = 2 would otherwise happen since log log 2 < 0.
    """
    if n_max > sieve.limit:
        raise InvalidArgumentError(f"N={n_max} exceeds sieve limit {sieve.limit}")
    if n_max < 2:
        raise InvalidArgumentError("tail weights need N >= 2 (log log undefined below)")
    threshold = max(math.log(math.log(n_max)), 0.0)
    vals = np.zeros(n_max + 1, dtype=np.int64)
    vals[1:] = sieve.omega[1 : n_max + 1] > threshold
    return WeightVector(n_max, vals, label="tail")


def kappa_to_k(n: int, kappa: float) -> int:
    """Nearest integer to kappa * log log n, ties rounded up."""
    if n < 3 or not math.isfinite(kappa):
        raise InvalidArgumentError(f"need N >= 3 and a finite kappa, got N={n}, kappa={kappa}")
    return max(0, math.floor(kappa * math.log(math.log(n)) + 0.5))


def sweep_levels(
    sieve: FactorSieve,
    n: int,
    ratio: Callable[[int, int], float],
    floor: Callable[[int, int], float] | None = None,
) -> list[tuple[int, int, float]]:
    """(k, support size, ratio(k, size)) for the nonempty Omega-levels of [1, n].

    Levels are visited by decreasing support, then smaller k.  With a
    ``floor``, a level whose floor(k, size) exceeds the smallest ratio found
    so far is skipped and left out of the result; the test is strict, so no
    potential tie is ever discarded.
    """
    if n < 1 or n > sieve.limit:
        raise InvalidArgumentError("need 1 <= N <= sieve.limit")
    counts = np.bincount(sieve.omega[1 : n + 1])
    order = sorted((k for k in range(len(counts)) if counts[k] > 0),
                   key=lambda k: (-counts[k], k))
    best = np.inf
    out = []
    for k in order:
        size = int(counts[k])
        if floor is not None and floor(k, size) > best:
            continue
        r = ratio(k, size)
        best = min(best, r)
        out.append((k, size, r))
    return out


def _zero_values(n_max: int) -> np.ndarray:
    if n_max < 0:
        raise InvalidArgumentError(f"need N >= 0, got {n_max}")
    check_bytes(8 * (n_max + 1), "weight vector")
    return np.zeros(n_max + 1, dtype=np.int64)


def indicator(members: Iterable[int], n_max: int) -> WeightVector:
    """0/1 weights with support on the given set of integers <= n_max."""
    vals = _zero_values(n_max)
    for m in members:
        if not 1 <= m <= n_max:
            raise InvalidArgumentError(f"indicator member {m} outside [1, {n_max}]")
        vals[m] = 1
    return WeightVector(n_max, vals, label="indicator")


def all_ones(n_max: int) -> WeightVector:
    vals = _zero_values(n_max)
    vals[1:] = 1
    return WeightVector(n_max, vals, label="ones")
