import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdlab import cli, energy
from gcdlab.arith import is_prime
from gcdlab.errors import GcdLabError

RUN = [sys.executable, "-m", "gcdlab.cli"]


def run_cli(*args, expect=0):
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True)
    assert proc.returncode == expect, proc.stdout + proc.stderr
    return proc.stdout


def test_constants_command():
    out = run_cli("constants", "--tol", "1e-10")
    row = json.loads(out)
    assert abs(row["kappa_star_gcd"] - 0.48154) < 1e-4
    assert abs(row["delta0"] - 0.16656) < 1e-4
    assert abs(row["delta"] - 0.08607) < 1e-5


def test_energy_command():
    row = json.loads(run_cli("energy", "--n", "3", "--weights", "ones"))
    assert (row["energy"], row["evaluator"]) == (15.0, "interval")


def test_theta_command():
    out = run_cli("theta", "--p", "5", "--x", "1", "--weights", "ones")
    row = json.loads(out)
    assert row["m0_count"] == 2


def test_gcdsum_csv_format():
    out = run_cli("gcdsum", "--n", "2", "--kind", "t1", "--format", "csv")
    header, row = out.strip().split("\n")
    assert header == "N,kind,weight_desc,raw,ratio"
    cells = row.split(",")
    assert cells[0] == "2" and cells[1] == "t1"
    assert float(cells[4]) == pytest.approx(1.7071067811865475)
    assert "." in cells[4] and "," + cells[4] in "," + row  # '.' decimal only


def test_gcdsum_optimal_qp_and_dump(tmp_path):
    dump = tmp_path / "w.csv"
    out = run_cli(
        "gcdsum", "--n", "8", "--kind", "t1", "--weights", "optimal-qp",
        "--dump-weights", str(dump),
    )
    row = json.loads(out)
    assert row["weight_desc"] == "optimal-qp"
    lines = dump.read_text().strip().split("\n")
    parsed = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines}
    assert sum(parsed.values()) == pytest.approx(1.0, abs=1e-9)


def test_indicator_file_weights(tmp_path):
    path = tmp_path / "ind.csv"
    path.write_text("2,1\n3,1\n5,1\n")
    out = run_cli("energy", "--n", "6", "--weights", f"indicator-file:{path}")
    row = json.loads(out)
    assert row["energy"] == 15.0  # three primes: 9 + 6 semiprime repeats
    assert row["evaluator"] == "histogram"
    # a file listing 1..3 is unit weights on a prefix: E(3) = 15 by the interval route
    path.write_text("1,1\n2,1\n3,1\n")
    row = json.loads(run_cli("energy", "--n", "6", "--weights", f"indicator-file:{path}"))
    assert (row["energy"], row["evaluator"]) == (15.0, "interval")


def test_multable_scan():
    out = run_cli("multable", "--powers", "4", "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "N,A(N),density"
    counts = {int(l.split(",")[0]): int(l.split(",")[1]) for l in lines[1:]}
    assert counts[4] == 9 and counts[16] == 97


def test_charsum_command():
    out = run_cli("charsum", "--p", "5", "--index", "2", "--m", "0", "--n", "3")
    row = json.loads(out)
    assert row["re"] == pytest.approx(-1.0, abs=1e-12)


def test_burgess_command():
    out = run_cli("burgess", "--p", "101", "--r", "2", "--n", "17", "--offsets", "16",
                  "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0].startswith("p,r,N,A,B,maxS,envelope,ratio,pv_ratio")
    assert lines[1].split(",")[0] == "101"


def test_moments_default_r_grid():
    out = run_cli("moments", "--p", "101", "--N", "9")
    rows = [json.loads(l) for l in out.strip().split("\n")]
    assert [row["r"] for row in rows] == [1.4, 1.5, 1.75, 1.9]
    assert all(row["slack"] >= -1e-9 for row in rows)


def test_moments_command():
    out = run_cli("moments", "--p", "101", "--n", "9", "--r", "1.5", "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "p,N,r,S1,S2,Sr,M4,slack,lower_bound,lhs,rhs,lhs_closed_form"
    cells = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(cells["slack"]) >= -1e-9
    assert float(cells["S2"]) == pytest.approx(9 - 81 / 100)


def test_determinism_byte_identical():
    a = run_cli("theta", "--p", "31", "--x", "1", "--seed", "5")
    b = run_cli("theta", "--p", "31", "--x", "1", "--seed", "5")
    assert a == b
    a = run_cli("check", "gcd", "--seed", "3")
    b = run_cli("check", "gcd", "--seed", "3")
    assert a == b


def test_check_commands():
    for module in ("gcd", "energy", "dirichlet", "theta", "weights"):
        out = run_cli("check", module)
        assert all(json.loads(l)["check"].startswith("ok") for l in out.strip().split("\n"))


def test_usage_error_exit_2():
    proc = subprocess.run(RUN + ["gcdsum", "--kind", "bogus", "--n", "4"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    proc = subprocess.run(RUN + ["nonsense"], capture_output=True, text=True)
    assert proc.returncode == 2


def test_domain_error_exit_1_json():
    proc = subprocess.run(
        RUN + ["moments", "--p", "101", "--n", "200", "--r", "1.5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    err = json.loads(proc.stdout)
    assert err["type"] == "DomainError"


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=3\nweights=ones\n")
    out = run_cli("energy", "--config", str(cfg))
    assert json.loads(out)["n"] == 3
    assert run_cli("energy", f"--config={cfg}") == out
    # explicit flag wins over the config value
    out = run_cli("energy", "--config", str(cfg), "--n", "2")
    assert json.loads(out)["n"] == 2


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate=1\n")
    proc = subprocess.run(RUN + ["energy", "--config", str(cfg), "--n", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_out_file(tmp_path):
    path = tmp_path / "report.json"
    run_cli("energy", "--n", "3", "--out", str(path))
    assert json.loads(path.read_text())["energy"] == 15.0


TIMED_COMMANDS = {
    "gcdsum": ["gcdsum", "--n", "30"],
    "energy": ["energy", "--n", "3"],
    "burgess": ["burgess", "--p", "1009", "--t0max", "2.5", "--offsets", "16"],
    "theta": ["theta", "--p", "331", "--weights", "level:1"],
    "theta-scan": ["theta", "--scan", "30", "--jobs", "2"],
    "moments": ["moments", "--p", "499", "--n", "15"],
}


def _rows(out: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return [json.loads(line) for line in out.splitlines()]
    header, *lines = out.splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", list(TIMED_COMMANDS))
def test_timings_flag_adds_field(command, fmt):
    argv = TIMED_COMMANDS[command] + ["--format", fmt]
    plain = _rows(run_cli(*argv), fmt)
    timed = _rows(run_cli(*argv, "--timings"), fmt)
    assert plain and len(timed) == len(plain)
    for row, timed_row in zip(plain, timed):
        assert "seconds" not in row
        seconds = timed_row.pop("seconds")
        assert float(seconds) >= 0 and (fmt == "csv" or isinstance(seconds, float))
        assert list(timed_row.items()) == list(row.items())


def test_theta_scan_jobs():
    # 400 holds 76 primes: 38 pool chunks of 2 primes with --jobs 2
    for scan in (30, 400):
        seq = run_cli("theta", "--scan", str(scan), "--x", "1", "--format", "csv")
        par = run_cli("theta", "--scan", str(scan), "--x", "1", "--format", "csv", "--jobs", "2")
        assert seq == par
        lines = seq.strip().split("\n")
        assert len(lines) == 1 + len([p for p in range(5, scan + 1) if is_prime(p)])


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its sizes and maps in process."""

    made = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        _SerialPool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        self.chunksize = chunksize
        return map(fn, *iterables)


@pytest.mark.parametrize("jobs, cpus, workers", [
    (100000, 2, 2),  # capped at the CPU count
    (2, 4, 2),
    (4, None, None),  # an unknown CPU count means one: no pool
])
def test_theta_scan_pool_capped_at_cpu_count(monkeypatch, jobs, cpus, workers):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    _SerialPool.made.clear()
    outs = []
    for j in (jobs, 1):
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(["theta", "--scan", "400", "--format", "csv", "--jobs", str(j)]) == 0
        outs.append(out.getvalue())
    assert outs[0] == outs[1]
    if workers is None:
        assert _SerialPool.made == []
    else:
        (pool,) = _SerialPool.made
        assert pool.max_workers == workers
        # 76 primes in 5..400, about 16 chunks a worker
        assert pool.chunksize == 76 // (16 * workers)


BAD_INPUTS = [
    (["theta"], 2, None),
    (["multable"], 2, None),
    (["multable", "--powers", "0"], 1, "InvalidArgumentError"),
    (["energy", "--n", "3", "--config"], 2, None),
    (["energy", "--n", "10", "--weights", "level:abc"], 1, "InvalidArgumentError"),
    (["energy", "--n", "10", "--weights", "level-kappa:abc"], 1, "InvalidArgumentError"),
    (["energy", "--n", "10", "--weights", "level-kappa:nan"], 1, "InvalidArgumentError"),
    (["energy", "--n", "6", "--weights", "indicator-file:{bad}"], 1, "InvalidArgumentError"),
    (["burgess", "--p", "10007", "--offsets", "0"], 1, "InvalidArgumentError"),
    (["burgess", "--p", "101", "--offsets", "-1"], 1, "InvalidArgumentError"),
    (["burgess", "--p", "101", "--n", "0", "--t0max", "2"], 1, "InvalidArgumentError"),
    (["burgess", "--p", "101", "--t0max", "nan"], 1, "InvalidArgumentError"),
    (["burgess", "--p", "101", "--t0max", "inf"], 1, "InvalidArgumentError"),
    (["moments", "--p", "101", "--n", "0"], 1, "InvalidArgumentError"),
    (["theta", "--p", "331", "--x", "nan"], 1, "InvalidArgumentError"),
    (["theta", "--p", "331", "--x", "1e-300"], 1, "ResourceLimitError"),
    (["theta", "--p", "331", "--x", "inf"], 1, "InvalidArgumentError"),
    (["theta", "--p", "331", "--threshold", "nan"], 1, "InvalidArgumentError"),
    (["gcdsum", "--n", "10", "--weights", "optimal-qp", "--tol", "inf"], 1, "InvalidArgumentError"),
    (["gcdsum", "--n", "10", "--weights", "optimal-qp", "--tol", "nan"], 1, "InvalidArgumentError"),
    (["constants", "--tol", "inf"], 1, "InvalidArgumentError"),
    (["constants", "--tol", "nan"], 1, "InvalidArgumentError"),
    (["burgess", "--p", "101", "--r", "0"], 1, "DomainError"),
    (["check", "gcd", "--seed", "-1"], 1, "InvalidArgumentError"),
    (["gcdsum", "--n", "8193", "--weights", "optimal-qp"], 1, "ResourceLimitError"),
    (["multable", "--powers", "20"], 1, "ResourceLimitError"),
    (["charsum", "--p", "16777259", "--index", "1", "--n", "5"], 1, "ResourceLimitError"),
    (["burgess", "--p", "100003", "--r", "2", "--n", "1000000"], 1, "DomainError"),
    # refused by the table guard before any sieve to p is built
    (["burgess", "--p", "16777259", "--t0max", "5", "--n", "100"], 1, "ResourceLimitError"),
    # refused by the sieve's byte guard before any table is allocated
    (["gcdsum", "--n", "100000000000"], 1, "ResourceLimitError"),
    (["energy", "--n", "100000000000"], 1, "ResourceLimitError"),
    (["moments", "--p", "101", "--n", "100000000000"], 1, "ResourceLimitError"),
    # the interval route takes only unit weights on a prefix [1, M]
    (["energy", "--n", "10", "--weights", "level:1", "--evaluator", "interval"], 1,
     "InvalidArgumentError"),
]


# ids name the row and its exit code; the error type is checked, not named
@pytest.mark.parametrize("args, expect, etype", BAD_INPUTS,
                         ids=[f"args{i}-{expect}" for i, (_, expect, _) in enumerate(BAD_INPUTS)])
def test_bad_input_exits_without_traceback(tmp_path, args, expect, etype):
    bad = tmp_path / "bad.csv"
    bad.write_text("2,1\n3;1\n")
    proc = subprocess.run(RUN + [a.format(bad=bad) for a in args],
                          capture_output=True, text=True)
    assert proc.returncode == expect, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    if expect == 2:
        assert proc.stdout == ""
        return
    (line,) = proc.stdout.splitlines()
    err = json.loads(line)
    assert set(err) == {"error", "type"}
    assert err["type"] == etype
    if "indicator-file" in args[-1]:
        assert "line 2" in err["error"]


def test_theta_scan_without_primes():
    assert run_cli("theta", "--scan", "0", "--format", "csv").startswith("p,x,weight_desc")


_INTS = st.integers(-2, 400).map(str)
# _INTS, or a size whose sieve is over the byte budget, refused before any allocation
_SIEVE_NS = st.one_of(_INTS, st.integers(1 << 26, 10**15).map(str))
_PRIMES = st.sampled_from([p for p in range(2, 2000) if is_prime(p)]).map(str)
_FLOATS = st.sampled_from(["nan", "inf", "-1", "0", "1e-300", "0.5", "1", "1.5"])
_WEIGHTS = st.one_of(
    st.sampled_from(["ones", "tail", "optimal-qp", "bogus"]),
    _INTS.map("level:{}".format),
    _FLOATS.map("level-kappa:{}".format),
)


def _flags(**options):
    """Any subset of the optional flags, in a drawn order, each with a drawn value."""
    pairs = st.tuples(*(st.tuples(st.just(f"--{k}"), v) for k, v in options.items()))
    return pairs.flatmap(lambda ps: st.lists(st.sampled_from(ps), unique=True)).map(
        lambda ps: [x for pair in ps for x in pair])


# the quadruple evaluator (a naive O(N^3) oracle) and --powers from 11 up to the
# table's limit (a multiplication table of 2^POWERS) are left out: both are slow by design
_POWERS_REFUSED = energy.MULTABLE_LIMIT.bit_length()
_ARGV = st.one_of(
    st.tuples(st.just(["gcdsum", "--n"]), _SIEVE_NS, _flags(
        kind=st.sampled_from(["t0", "t1"]), weights=_WEIGHTS,
        evaluator=st.sampled_from(["direct", "grouped"]))),
    st.tuples(st.just(["energy", "--n"]), _SIEVE_NS, _flags(
        weights=_WEIGHTS,
        evaluator=st.sampled_from(["auto", "histogram", "parametrized", "interval"]))),
    st.tuples(st.just(["multable"]), st.one_of(
        _INTS.map(lambda n: ["--n", n]),
        st.one_of(st.integers(-2, 10), st.integers(_POWERS_REFUSED, 64)).map(
            lambda e: ["--powers", str(e)]))),
    st.tuples(st.just(["charsum", "--p"]), _PRIMES, st.just("--index"), _INTS,
              st.just("--n"), _INTS, _flags(m=_INTS)),
    st.tuples(st.just(["burgess", "--p"]), _PRIMES, _flags(
        r=_INTS, n=_INTS, t0max=_FLOATS, offsets=_INTS)),
    st.tuples(st.just(["theta", "--p"]), _PRIMES, _flags(
        x=_FLOATS, weights=_WEIGHTS, threshold=_FLOATS)),
    st.tuples(st.just(["moments", "--p"]), _PRIMES, st.just("--n"), _SIEVE_NS,
              _flags(r=_FLOATS, weights=_WEIGHTS)),
    st.tuples(st.just(["constants", "--tol"]), _FLOATS),
).map(lambda parts: [a for part in parts for a in ([part] if isinstance(part, str) else part)])


def _subclasses(cls):
    return {cls.__name__}.union(*(_subclasses(c) for c in cls.__subclasses__()))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(argv=_ARGV, fmt=st.sampled_from(["json", "csv"]))
def test_fuzzed_argv_ends_in_result_or_typed_error(argv, fmt):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv + ["--format", fmt])
        except SystemExit as exc:
            code = exc.code
            assert code == 2, argv
    if code == 1:
        (line,) = out.getvalue().splitlines()
        assert json.loads(line)["type"] in _subclasses(GcdLabError) | {"OSError"}, argv
    else:
        assert code in (0, 2), argv
