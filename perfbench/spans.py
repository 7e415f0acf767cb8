"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces each public function named in ``PER_LAYER`` by a
timing wrapper, in every ``gcdlab`` module that holds it (so the names that
``cli``, ``theta`` and ``small_moments`` import are wrapped too).  Nothing
under ``src/`` is edited.  A span's self time is its duration minus the time
of the spans it called; counts are taken at the same boundaries.

Peak memory of a span is its resident-set growth: the highest RSS a helper
thread samples every 5 ms while the span runs, minus the RSS at entry.
(tracemalloc would count allocations exactly, but it tripled the time of the
Python loops it ran over, such as ``build_table``'s discrete-log walk.)
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time

import numpy as np

# spans whose resident-set growth is recorded
PEAK_SPANS = {
    "gcdsums.exact_minimize",
    "energy.energy_histogram",
    "energy.multiplication_table_count",
    "theta.moment_report",
}

# level sweeps: the child spans that evaluate one level
SWEEPS = {
    "gcdsums.minimize_over_levels": ("gcdsums.gcd_quadratic_form.direct",
                                     "gcdsums.gcd_quadratic_form.grouped"),
    "energy.minimize_energy_over_levels": ("energy.energy_histogram",
                                           "energy.energy_level_exact"),
}

# every per-layer metric, with its unit and the public function it comes
# from (None: measured by run.py around whole passes)
PER_LAYER = [
    ("arith.build_sieve.s", "s", "arith.build_sieve"),
    ("arith.mobius.s", "s", "arith.FactorSieve.mobius"),
    ("weights.omega_level_weights.s", "s", "weights.omega_level_weights"),
    ("weights.omega_level_weights.calls", "count", "weights.omega_level_weights"),
    ("gcdsums.gcd_quadratic_form.grouped.s", "s", "gcdsums.gcd_quadratic_form"),
    ("gcdsums.gcd_quadratic_form.grouped.calls", "count", "gcdsums.gcd_quadratic_form"),
    ("gcdsums.multiple_sums.s", "s", "gcdsums.multiple_sums"),
    ("gcdsums.gcd_quadratic_form.direct.s", "s", "gcdsums.gcd_quadratic_form"),
    ("gcdsums.gcd_quadratic_form.direct.calls", "count", "gcdsums.gcd_quadratic_form"),
    ("gcdsums.minimize_over_levels.levels_evaluated", "count", "gcdsums.minimize_over_levels"),
    ("gcdsums.minimize_over_levels.levels_pruned", "count", "gcdsums.minimize_over_levels"),
    ("gcdsums.t0_max_profile.s", "s", "gcdsums.t0_max_profile"),
    ("gcdsums.exact_minimize.s", "s", "gcdsums.exact_minimize"),
    ("gcdsums.exact_minimize.peak_alloc_mb", "MB", "gcdsums.exact_minimize"),
    ("gcdsums.exact_minimize.kernel_bytes", "bytes", "gcdsums.exact_minimize"),
    ("energy.energy_level_exact.s", "s", "energy.energy_level_exact"),
    ("energy.energy_level_exact.calls", "count", "energy.energy_level_exact"),
    ("energy.minimize_energy_over_levels.levels_evaluated", "count",
     "energy.minimize_energy_over_levels"),
    ("energy.minimize_energy_over_levels.levels_pruned", "count",
     "energy.minimize_energy_over_levels"),
    ("energy.energy_histogram.s", "s", "energy.energy_histogram"),
    ("energy.energy_histogram.calls", "count", "energy.energy_histogram"),
    ("energy.energy_histogram.pairs", "count", "energy.energy_histogram"),
    ("energy.energy_histogram.peak_alloc_mb", "MB", "energy.energy_histogram"),
    ("energy.multiplication_table_count.s", "s", "energy.multiplication_table_count"),
    ("energy.multiplication_table_count.peak_alloc_mb", "MB",
     "energy.multiplication_table_count"),
    ("characters.build_table.s", "s", "characters.build_table"),
    ("characters.build_table.calls", "count", "characters.build_table"),
    ("characters.build_table.residues", "count", "characters.build_table"),
    ("characters.all_char_sums.s", "s", "characters.all_char_sums"),
    ("characters.all_char_sums.calls", "count", "characters.all_char_sums"),
    ("characters.burgess_scan.s", "s", "characters.burgess_scan"),
    ("theta.all_even_thetas.s", "s", "theta.all_even_thetas"),
    ("theta.all_even_thetas.calls", "count", "theta.all_even_thetas"),
    ("theta.moment_report.s", "s", "theta.moment_report"),
    ("theta.moment_report.peak_alloc_mb", "MB", "theta.moment_report"),
    ("small_moments.holder_chain_check.s", "s", "small_moments.holder_chain_check"),
    ("exponents.delta_constants.s", "s", "exponents.delta_constants"),
    ("cli.startup_s", "s", None),
    ("cli.main.s", "s", "cli.main"),
    ("cli.theta_scan.parallel_eff", "1", None),
    ("trace.coverage", "1", None),
    ("trace.overhead", "1", None),
]

# the public functions wrapped, as "<module>.<attribute path>"; a span is
# named "<module>.<last attribute>"
TARGETS = list(dict.fromkeys(source for _, _, source in PER_LAYER if source))

COUNT_KINDS = {"pairs", "residues", "kernel_bytes", "levels_evaluated", "levels_pruned"}
MB = float(1 << 20)
PAGE = os.sysconf("SC_PAGE_SIZE")
SAMPLE_S = 0.005


def resolve(path: str):
    """The live object at "<module>[.<attr>...]" under gcdlab."""
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"gcdlab.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def rss_bytes() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * PAGE


class RssSampler:
    """High-water mark of this process's RSS, sampled by a daemon thread."""

    def __init__(self):
        self.high = rss_bytes()
        self._lock = threading.Lock()
        threading.Thread(target=self._run, daemon=True).start()

    def _run(self) -> None:
        while True:
            time.sleep(SAMPLE_S)
            self.sample()

    def sample(self) -> int:
        now = rss_bytes()
        with self._lock:
            self.high = max(self.high, now)
            return self.high

    def reset(self, high: int | None = None) -> int:
        """Restart the mark at the current RSS (or at ``high``); return the RSS."""
        now = rss_bytes()
        with self._lock:
            self.high = now if high is None else max(high, now)
        return now


class _Frame:
    __slots__ = ("name", "child", "children", "base", "outer_high")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0  # time inside child spans
        self.children = {}  # child span name -> calls


class Tracer:
    def __init__(self):
        self.self_s = {}
        self.calls = {}
        self.counts = {}
        self.peak = {}
        self.top_level_s = 0.0  # time inside outermost spans
        self._stack = []
        self._rss = None

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def install(self) -> None:
        self._rss = RssSampler()
        importlib.import_module("gcdlab.cli")
        modules = [m for name, m in sys.modules.items()
                   if name == "gcdlab" or name.startswith("gcdlab.")]
        for target in TARGETS:
            owner_path, _, attr = target.rpartition(".")
            owner = resolve(owner_path)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{target.split('.')[0]}.{attr}", original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)

    def _wrap(self, name: str, fn):
        if name == "gcdsums.gcd_quadratic_form":
            def name_of(args, kwargs):
                return f"{name}.{kwargs.get('evaluator', args[3] if len(args) > 3 else 'direct')}"
        else:
            def name_of(args, kwargs):
                return name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(name_of(args, kwargs))
            self._enter(frame, args)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, time.perf_counter() - t0, args, kwargs)

        return wrapper

    def _enter(self, frame: _Frame, args) -> None:
        name = frame.name
        if name == "energy.energy_histogram":
            self._add(f"{name}.pairs", np.count_nonzero(args[0].values) ** 2)
        elif name == "characters.build_table":
            self._add(f"{name}.residues", args[0])
        elif name == "gcdsums.exact_minimize":
            self._add(f"{name}.kernel_bytes", 8 * args[0] * args[0])
        if name in PEAK_SPANS:
            frame.outer_high = self._rss.sample()  # the enclosing span's mark so far
            frame.base = self._rss.reset()
        self._stack.append(frame)

    def _exit(self, frame: _Frame, duration: float, args, kwargs) -> None:
        self._stack.pop()
        name = frame.name
        if name in PEAK_SPANS:
            high = self._rss.sample()
            self.peak[name] = max(self.peak.get(name, 0), high - frame.base)
            self._rss.reset(max(high, frame.outer_high))
        if name in SWEEPS:
            n, sieve = args[0], kwargs.get("sieve", args[-1])
            evaluated = sum(frame.children.get(c, 0) for c in SWEEPS[name])
            nonempty = int(np.count_nonzero(np.bincount(sieve.omega[1 : n + 1])))
            self._add(f"{name}.levels_evaluated", evaluated)
            self._add(f"{name}.levels_pruned", nonempty - evaluated)
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame.child
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            parent = self._stack[-1]
            parent.child += duration
            parent.children[name] = parent.children.get(name, 0) + 1
        else:
            self.top_level_s += duration

    def metrics(self) -> dict:
        """Every span-derived per-layer metric; 0 where the layer never ran."""
        out = {}
        for metric, _unit, _source in PER_LAYER:
            span, _, kind = metric.rpartition(".")
            if kind == "s":
                out[metric] = self.self_s.get(span, 0.0)
            elif kind == "calls":
                out[metric] = self.calls.get(span, 0)
            elif kind == "peak_alloc_mb":
                out[metric] = self.peak.get(span, 0) / MB
            elif kind in COUNT_KINDS:
                out[metric] = self.counts.get(metric, 0)
        return {k: float(v) for k, v in out.items()}
