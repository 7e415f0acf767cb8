"""Command-line experiment runner.

Every command emits its report rows to stdout (or --out) as JSON objects,
one per line, or as CSV with a header.  Output is byte-deterministic for a
fixed configuration: the ``seconds`` field (the wall time of the report call,
measured here; library reports carry no timing) is suppressed unless
--timings is given, CSV floats use 17 significant digits with '.' decimal,
and JSON keys are sorted.  A key=value config file can preload any flag;
explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields
from itertools import repeat

import numpy as np

from . import energy as energy_mod
from . import exponents, gcdsums, small_moments
from . import theta as theta_mod
from .arith import build_sieve, is_prime
from .characters import (
    BurgessReport,
    build_table,
    burgess_max_n,
    burgess_scan,
    char_sum,
    weil_moment_check,
)
from .errors import GcdLabError, InvalidArgumentError, ResourceLimitError
from .weights import (
    WeightVector,
    all_ones,
    indicator,
    kappa_to_k,
    omega_level_weights,
    omega_tail_weights,
)

CHECK_MODULES = ("gcd", "energy", "dirichlet", "theta", "weights")


def _fmt17(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _emit(rows: list[dict], fields: list[str], args, csv_headers: dict | None = None) -> None:
    drop_timing = not args.timings
    out_lines = []
    if args.format == "csv":
        cols = [f for f in fields if not (drop_timing and f == "seconds")]
        names = csv_headers or {}
        out_lines.append(",".join(names.get(c, c) for c in cols))
        for row in rows:
            out_lines.append(",".join(_fmt17(row[c]) for c in cols))
    else:
        for row in rows:
            row = {k: v for k, v in row.items() if not (drop_timing and k == "seconds")}
            out_lines.append(json.dumps(row, sort_keys=True, allow_nan=True))
    text = "\n".join(out_lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _timed_row(report_fn, *args, **kw) -> dict:
    """The report of ``report_fn(*args, **kw)`` as a row, with its wall time as ``seconds``."""
    t0 = time.perf_counter()
    rep = report_fn(*args, **kw)
    seconds = time.perf_counter() - t0
    return {**asdict(rep), "seconds": seconds}


def _columns(report_cls) -> list[str]:
    """The fields of a report dataclass, in order, then the ``seconds`` of ``_timed_row``."""
    return [f.name for f in fields(report_cls)] + ["seconds"]


def _spec_number(spec: str, convert):
    """The number after the ':' of a weight spec, read with ``convert``."""
    try:
        value = convert(spec.split(":", 1)[1])
    except ValueError:
        raise InvalidArgumentError(f"weight spec {spec!r} needs a number after ':'") from None
    if not math.isfinite(value):
        raise InvalidArgumentError(f"weight spec {spec!r} needs a finite number")
    return value


def _parse_weights(spec: str, n: int, sieve) -> WeightVector:
    if spec == "ones":
        return all_ones(n)
    if spec == "tail":
        return omega_tail_weights(sieve, n)
    if spec.startswith("level:"):
        return omega_level_weights(sieve, n, _spec_number(spec, int))
    if spec.startswith("level-kappa:"):
        k = kappa_to_k(n, _spec_number(spec, float))
        return omega_level_weights(sieve, n, k)
    if spec.startswith("indicator-file:"):
        path = spec.split(":", 1)[1]
        members = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    m, v = line.split(",")
                    m, v = int(m), float(v)
                except ValueError:
                    raise InvalidArgumentError(
                        f"{path} line {lineno}: expected 'm,w(m)', got {line!r}"
                    ) from None
                if v != 0:
                    members.append(m)
        return indicator(members, n)
    if spec == "optimal-qp":
        raise InvalidArgumentError("optimal-qp weights are produced by the gcdsum command only")
    raise InvalidArgumentError(f"unknown weight spec {spec!r}")


def _cmd_constants(args) -> None:
    row = asdict(exponents.delta_constants(tol=args.tol))
    row.update({f"residual_{k}": v for k, v in row.pop("residuals").items()})
    _emit([row], list(row), args)


def _dump_weights(args, w: WeightVector) -> None:
    if args.dump_weights:
        with open(args.dump_weights, "w") as fh:
            fh.write("\n".join(w.csv_lines()) + "\n")


def _cmd_gcdsum(args) -> None:
    kind = gcdsums.Kernel(args.kind)
    sieve = build_sieve(args.n)
    if args.weights == "optimal-qp":
        w, _ = gcdsums.exact_minimize(args.n, kind, tol=args.tol)
    else:
        w = _parse_weights(args.weights, args.n, sieve)
    row = _timed_row(gcdsums.normalized_ratio, w, kind, sieve, evaluator=args.evaluator)
    _dump_weights(args, w)
    _emit([row], _columns(gcdsums.GcdSumReport), args, csv_headers={"n": "N"})


def _cmd_energy(args) -> None:
    sieve = build_sieve(args.n)
    w = _parse_weights(args.weights, args.n, sieve)
    row = _timed_row(energy_mod.energy_ratio, w, evaluator=args.evaluator, sieve=sieve)
    _dump_weights(args, w)
    _emit([row], _columns(energy_mod.EnergyReport), args, csv_headers={"n": "N"})


def _cmd_multable(args) -> None:
    rows = []
    if args.powers is not None:
        if args.powers < 1:
            raise InvalidArgumentError("--powers must be >= 1")
        if args.powers >= energy_mod.MULTABLE_LIMIT.bit_length():  # 2^POWERS > limit
            raise ResourceLimitError(
                f"multiplication table refuses N = 2^{args.powers} > {energy_mod.MULTABLE_LIMIT}")
        sizes = [2**e for e in range(1, args.powers + 1)]
    else:
        sizes = [args.n]
    for n in sizes:
        a = energy_mod.multiplication_table_count(n)
        rows.append({"n": n, "count": a, "density": n * n / a})
    _emit(rows, ["n", "count", "density"], args,
          csv_headers={"n": "N", "count": "A(N)"})


def _cmd_charsum(args) -> None:
    table = build_table(args.p)
    chi = table.character(args.index)
    s = char_sum(chi, args.m, args.n)
    row = {
        "p": args.p,
        "index": args.index,
        "m": args.m,
        "n": args.n,
        "re": s.real,
        "im": s.imag,
        "abs": abs(s),
    }
    _emit([row], list(row), args)


def _cmd_burgess(args) -> None:
    if not is_prime(args.p):
        raise InvalidArgumentError("p must be prime")
    n = args.n if args.n is not None else int(burgess_max_n(args.p, args.r))
    row = _timed_row(burgess_scan, args.p, n, args.r, t0max=args.t0max,
                     offsets=args.offsets)
    _emit([row], _columns(BurgessReport), args,
          csv_headers={"n": "N", "a_param": "A", "b_param": "B", "max_sum": "maxS"})


def _theta_row(p: int, x: float, weights: str, threshold: float) -> dict:
    cutoff = theta_mod.mollifier_cutoff(p)
    if weights == "ones" or cutoff < 2:
        w = all_ones(max(cutoff, 1))
    else:
        w = _parse_weights(weights, cutoff, build_sieve(max(cutoff, 3)))
    return _timed_row(theta_mod.moment_report, p, x, w, threshold=threshold)


def _cmd_theta(args) -> None:
    cols = _columns(theta_mod.MomentReport)
    if args.scan is not None:
        primes = [p for p in range(5, args.scan + 1) if is_prime(p)]
        rest = repeat(args.x), repeat(args.weights), repeat(args.threshold)
        # fork starts every worker at the first submit: no more than the CPUs
        jobs = min(args.jobs, os.cpu_count() or 1)
        if jobs > 1:
            # about 16 chunks per worker: few round trips, and the growing
            # per-prime cost still spreads over the workers
            chunk = max(1, len(primes) // (16 * jobs))
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(_theta_row, primes, *rest, chunksize=chunk))
        else:
            rows = list(map(_theta_row, primes, *rest))
        _emit(rows, cols, args)
    else:
        _emit([_theta_row(args.p, args.x, args.weights, args.threshold)], cols, args)


def _cmd_moments(args) -> None:
    sieve = build_sieve(max(args.n, 3))
    w = _parse_weights(args.weights, args.n, sieve)
    r_values = [args.r] if args.r is not None else [1.4, 1.5, 1.75, 1.9]
    table = build_table(args.p)
    rows = [_timed_row(small_moments.holder_chain_check, args.p, args.n, r, w, sieve, table)
            for r in r_values]
    _emit(rows, _columns(small_moments.HolderChainReport), args,
          csv_headers={"n": "N", "s1": "S1", "s2": "S2", "sr": "Sr", "m4": "M4"})


def _check_gcd(rng) -> list[str]:
    lines = []
    sieve = build_sieve(400)
    for trial in range(5):
        n = int(rng.integers(20, 200))
        vals = rng.random(n + 1) * (rng.random(n + 1) < 0.5)
        vals[0] = 0.0
        if vals.sum() == 0:
            vals[1] = 1.0
        w = WeightVector(n, vals, label=f"random{trial}")
        for kind in (gcdsums.Kernel.T0, gcdsums.Kernel.T1):
            direct = gcdsums.gcd_quadratic_form(w, kind)
            grouped = gcdsums.gcd_quadratic_form(w, kind, sieve, evaluator="grouped")
            if abs(direct - grouped) > 1e-9 * max(direct, 1.0):
                raise GcdLabError(f"gcd evaluator mismatch at N={n} {kind}")
        t0 = gcdsums.gcd_quadratic_form(w, gcdsums.Kernel.T0)
        t1 = gcdsums.gcd_quadratic_form(w, gcdsums.Kernel.T1)
        if t0 > t1 + 1e-12:
            raise GcdLabError("T0 form exceeded T1 form")
        crossed = gcdsums.crossed_energy(w)
        if crossed > 2.0 * n * t0 * (1 + 1e-12):
            raise GcdLabError("crossed energy exceeded its quadratic-form bound")
        lines.append(f"ok gcd N={n}")
    return lines


def _check_energy(rng) -> list[str]:
    lines = []
    sieve = build_sieve(120)
    for trial in range(3):
        n = int(rng.integers(10, 80))
        vals = np.zeros(n + 1, dtype=np.int64)
        supp = rng.choice(np.arange(1, n + 1), size=max(2, n // 3), replace=False)
        vals[supp] = rng.integers(1, 6, size=len(supp))
        w = WeightVector(n, vals, label=f"random{trial}")
        a = energy_mod.energy_quadruple(w)
        b = energy_mod.energy_histogram(w)
        c = energy_mod.energy_parametrized(w)
        if not a == b == c:
            raise GcdLabError(f"energy evaluators disagree at N={n}: {a} {b} {c}")
        lines.append(f"ok energy N={n} value={a}")
    for n, k in ((60, 1), (60, 2), (100, 3)):
        e_hist = energy_mod.energy_histogram(omega_level_weights(sieve, n, k))
        e_fast = energy_mod.energy_level_exact(sieve, n, k)
        if e_hist != e_fast:
            raise GcdLabError(f"level energy mismatch N={n} k={k}")
        lines.append(f"ok energy-level N={n} k={k} value={e_fast}")
    return lines


def _check_dirichlet(rng) -> list[str]:
    lines = []
    for p in (5, 7, 11, 13, 31):
        table = build_table(p)
        for chi in table.characters():
            v = chi.values()
            prod = np.multiply.outer(v, v)
            mn = np.multiply.outer(np.arange(p), np.arange(p)) % p
            if not np.allclose(prod, v[mn], atol=1e-10):
                raise GcdLabError(f"multiplicativity failed p={p} a={chi.index}")
        for chi in table.nonprincipal():
            lhs, rhs = weil_moment_check(chi, 4, 2)
            if lhs > rhs:
                raise GcdLabError(f"weil bound failed p={p} a={chi.index}")
        lines.append(f"ok dirichlet p={p}")
    return lines


def _check_theta(rng) -> list[str]:
    lines = []
    for p in (13, 29):
        row = _theta_row(p, 1.0, "ones", 1e-8)
        if abs(row["m4_direct"] - row["m4_identity"]) > 1e-6 * row["m4_identity"]:
            raise GcdLabError(f"fourth-moment identity failed p={p}")
        if row["holder_slack"] < -1e-9:
            raise GcdLabError(f"moment chain slack negative p={p}")
        lines.append(f"ok theta p={p} m0={row['m0_count']}")
    return lines


def _check_weights(rng) -> list[str]:
    sieve = build_sieve(5000)
    n = 5000
    total = sum(omega_level_weights(sieve, n, k).l1() for k in range(0, 14))
    if total != n:
        raise GcdLabError("level weights do not partition [1, N]")
    return [f"ok weights partition N={n}"]


def _cmd_check(args) -> None:
    if args.seed < 0:
        raise InvalidArgumentError("--seed must be >= 0")
    rng = np.random.default_rng(args.seed)
    suites = {
        "gcd": _check_gcd,
        "energy": _check_energy,
        "dirichlet": _check_dirichlet,
        "theta": _check_theta,
        "weights": _check_weights,
    }
    names = CHECK_MODULES if args.module == "all" else (args.module,)
    lines = []
    for name in names:
        lines.extend(suites[name](rng))
    rows = [{"check": line} for line in lines]
    _emit(rows, ["check"], args)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="write output to a file instead of stdout")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--jobs", type=int, default=1, help="worker processes for scans")
    sub.add_argument("--timings", action="store_true", help="include wall-time fields in output")
    sub.add_argument("--config", default=None, help="key=value file preloading any flag")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gcdlab")
    sp = ap.add_subparsers(dest="command", required=True)

    p = sp.add_parser("constants", help="solved exponent constants with residuals")
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(fn=_cmd_constants)
    _add_common(p)

    p = sp.add_parser("gcdsum", help="gcd-sum quadratic form and normalized ratio")
    p.add_argument("--n", "--N", dest="n", type=int, required=True)
    p.add_argument("--kind", choices=("t0", "t1"), default="t1")
    p.add_argument("--weights", default="ones")
    p.add_argument("--evaluator", choices=("direct", "grouped"), default="direct")
    p.add_argument("--tol", type=float, default=1e-10, help="QP tolerance for optimal-qp weights")
    p.add_argument("--dump-weights", default=None)
    p.set_defaults(fn=_cmd_gcdsum)
    _add_common(p)

    p = sp.add_parser("energy", help="weighted multiplicative energy and ratio")
    p.add_argument("--n", "--N", dest="n", type=int, required=True)
    p.add_argument("--weights", default="ones")
    p.add_argument("--evaluator", default="auto",
                   choices=("auto", "quadruple", "histogram", "parametrized", "interval"))
    p.add_argument("--dump-weights", default=None)
    p.set_defaults(fn=_cmd_energy)
    _add_common(p)

    p = sp.add_parser("multable", help="distinct products count A(N) and density")
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--n", "--N", dest="n", type=int, default=None)
    size.add_argument("--powers", type=int, default=None, help="scan N = 2, 4, ..., 2^POWERS")
    p.set_defaults(fn=_cmd_multable)
    _add_common(p)

    p = sp.add_parser("charsum", help="one character sum over an interval")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--m", "--M", dest="m", type=int, default=0)
    p.add_argument("--n", "--N", dest="n", type=int, required=True)
    p.set_defaults(fn=_cmd_charsum)
    _add_common(p)

    p = sp.add_parser("burgess", help="short-sum scan against the envelope")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--n", "--N", dest="n", type=int, default=None)
    p.add_argument("--t0max", type=float, default=None)
    p.add_argument("--offsets", type=int, default=256)
    p.set_defaults(fn=_cmd_burgess)
    _add_common(p)

    p = sp.add_parser("theta", help="mollified theta moments and non-vanishing count")
    moduli = p.add_mutually_exclusive_group(required=True)
    moduli.add_argument("--p", type=int)
    moduli.add_argument("--scan", type=int, default=None, help="emit one row per prime <= SCAN")
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--weights", default="ones")
    p.add_argument("--threshold", type=float, default=1e-8)
    p.set_defaults(fn=_cmd_theta)
    _add_common(p)

    p = sp.add_parser("moments", help="small character-sum moments and the chain check")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", "--N", dest="n", type=int, required=True)
    p.add_argument("--r", type=float, default=None,
                   help="moment order; omitted = the default grid 1.4, 1.5, 1.75, 1.9")
    p.add_argument("--weights", default="ones")
    p.set_defaults(fn=_cmd_moments)
    _add_common(p)

    p = sp.add_parser("check", help="self-check oracle equivalence suites")
    p.add_argument("module", choices=CHECK_MODULES + ("all",))
    p.set_defaults(fn=_cmd_check)
    _add_common(p)

    return ap


def _apply_config(argv: list[str], ap: argparse.ArgumentParser) -> list[str]:
    """Splice key=value config entries in ahead of explicit flags (flags win)."""
    pre = argparse.ArgumentParser(prog="gcdlab", add_help=False)
    pre.add_argument("--config")  # both "--config FILE" and "--config=FILE"
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    inject = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidArgumentError(f"malformed config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            inject.extend([f"--{key}", value])
    command = argv[0]
    ap.parse_args([command] + inject + argv[1:])  # rejects unknown keys
    return [command] + inject + argv[1:]


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv, ap)
        args = ap.parse_args(argv)
        args.fn(args)
    except GcdLabError as exc:
        sys.stdout.write(json.dumps({"error": str(exc), "type": type(exc).__name__}) + "\n")
        return 1
    except OSError as exc:
        sys.stdout.write(json.dumps({"error": str(exc), "type": "OSError"}) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
