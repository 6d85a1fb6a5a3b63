import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ffhyper
from ffhyper import make_field
from ffhyper.cli import (
    EXIT_FAILED,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    parse_primes,
    parse_statements,
    render_reports,
    run,
)
from ffhyper.curves import legendre_trace
from ffhyper.charsums import SumTables
from ffhyper.errors import Infeasible, NotRational
from ffhyper.field import primes_in_range
from ffhyper.hypergeo import reconstruct, reconstruct_ints
import ffhyper.identities as ids
from ffhyper.identities import STATEMENTS, run_statement, summarize
from oracles import bridge_loop, hasse_bound, move_3f2, patch_family, report_from_json, rows, summary_of


# -- primes / statements parsing -------------------------------------------------


def test_parse_primes_range():
    assert parse_primes("5..31", strict=True) == [5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_parse_primes_list():
    assert parse_primes("13,5,7", strict=True) == [5, 7, 13]


def test_parse_primes_strict_rejects_nonprime_range():
    with pytest.raises(UsageError):
        parse_primes("4..6", strict=True)
    assert parse_primes("4..6", strict=False) == [5]


def test_parse_primes_strict_rejects_nonprime_entry():
    with pytest.raises(UsageError):
        parse_primes("5,9", strict=True)
    assert parse_primes("5,9,2", strict=False) == [5]


def test_parse_primes_empty_is_error():
    with pytest.raises(UsageError):
        parse_primes("23..22", strict=True)
    with pytest.raises(UsageError):
        parse_primes("9", strict=False)


def test_parse_statements():
    assert parse_statements("all") == list(STATEMENTS)
    assert parse_statements("first-moment,product") == ["first-moment", "product"]
    with pytest.raises(UsageError):
        parse_statements("no-such-statement")


def test_verify_unknown_statement_lists_the_table(capsys):
    """An unknown label exits 2, naming it and every known label in table order."""
    assert run(["verify", "--primes", "5", "--statements", "nope"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"error: unknown statement 'nope'; known: {', '.join(STATEMENTS)}\n"
    assert captured.out == ""


# -- eval ------------------------------------------------------------------------


def test_eval_2f1_exact_value(capsys):
    # Expected value derived from the point count: 2F1(3) = -phi(-1) a_3(7)/7.
    f = make_field(7)
    a3 = legendre_trace(f, 3).trace
    num = -f.phi_minus_one * a3
    rc = run(["eval", "--q", "7", "--fn", "2F1", "--x", "3"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert f"{num}/7^1" in out
    assert "elapsed" in out


def test_eval_trace_legendre(capsys):
    rc = run(["eval", "--q", "7", "--fn", "trace-legendre", "--lambda", "3"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    trace = int(out.splitlines()[0].split("=")[1])
    assert abs(trace) <= hasse_bound(7) == 5


def test_eval_composite_q_exits_2(capsys):
    rc = run(["eval", "--q", "9", "--fn", "2F1", "--x", "3"])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert "not prime" in err


def test_eval_gauss_jacobi_appell(capsys):
    assert run(["eval", "--q", "7", "--fn", "gauss", "--chars", "1"]) == EXIT_OK
    assert run(["eval", "--q", "7", "--fn", "jacobi", "--chars", "1,3"]) == EXIT_OK
    assert run(["eval", "--q", "7", "--fn", "appell", "--chars", "3,3,0,0", "--x", "2", "--y", "3"]) == EXIT_OK
    capsys.readouterr()


def test_eval_appell_prints_a_plain_complex(capsys):
    """The printed F4* value parses with complex(), at nonzero and zero points."""
    for x, y in ((2, 3), (0, 3)):
        argv = ["eval", "--q", "13", "--fn", "appell", "--chars", "1,5,2,7", "--x", str(x), "--y", str(y)]
        assert run(argv) == EXIT_OK
        line = capsys.readouterr().out.splitlines()[0]
        head, _, value = line.partition(" = ")
        assert head == "F4*"
        assert isinstance(complex(value), complex)
    assert value == "0j"


def test_eval_gauss_without_index_exits_2(capsys):
    assert run(["eval", "--q", "101", "--fn", "gauss", "--chars", ""]) == EXIT_USAGE
    assert "gauss needs one character index" in capsys.readouterr().err


def test_eval_gauss_with_two_indices_exits_2(capsys):
    assert run(["eval", "--q", "101", "--fn", "gauss", "--chars", "3,4"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "gauss needs one character index" in captured.err
    assert captured.out == ""


def test_eval_general_characters(capsys):
    rc = run(["eval", "--q", "11", "--fn", "3F2", "--x", "4", "--uppers", "1,2,3", "--lowers", "0,4"])
    assert rc == EXIT_OK
    assert "3F2(4) =" in capsys.readouterr().out


def test_eval_1f0_checks_its_lower_count(capsys):
    """A 1F0 given a lower character exits 2 with the count message a 2F1 gets; without one it still evaluates."""
    argv = ["eval", "--q", "11", "--fn", "1F0", "--x", "4", "--uppers", "3"]
    assert run([*argv, "--lowers", "5"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert run(["eval", "--q", "11", "--fn", "2F1", "--x", "4", "--uppers", "3,4", "--lowers", "5,6"]) == EXIT_USAGE
    assert capsys.readouterr().err == captured.err
    assert run(argv) == EXIT_OK
    assert capsys.readouterr().out.startswith("1F0(4) = (0.8090169943749475+0.5877852522924731j)\n")


@pytest.mark.parametrize("flags", (["--uppers", ""], ["--lowers", ""], ["--uppers", "", "--lowers", ""]))
def test_eval_empty_character_list_exits_2(flags, capsys):
    """An empty --uppers or --lowers takes the character path and fails there, not the phi/eps one."""
    assert run(["eval", "--q", "7", "--fn", "2F1", "--x", "3", *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "flags, unread",
    (
        (["--fn", "2F1", "--x", "2", "--lambda", "5", "--chars", "1"], "--lambda, --chars"),
        (["--fn", "2F1", "--x", "3", "--y", "2"], "--y"),
        (["--fn", "trace-legendre", "--lambda", "3", "--x", "5"], "--x"),
        (["--fn", "jacobi", "--chars", "1,2", "--x", "5", "--uppers", "1"], "--x, --uppers"),
    ),
)
def test_eval_refuses_a_flag_its_function_does_not_read(flags, unread, capsys):
    """A flag the function ignores is a usage error naming it, with nothing on stdout."""
    assert run(["eval", "--q", "7", *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flags[1]} does not read {unread}\n"


def test_eval_unknown_fn(capsys):
    assert run(["eval", "--q", "7", "--fn", "2F5", "--x", "1"]) == EXIT_USAGE
    capsys.readouterr()


def test_eval_failed_reconstruction_exits_1(capsys):
    """At q=10007 the float 8F7(2) is too far from m/q^7 to be exact; eval says so."""
    rc = run(["eval", "--q", "10007", "--fn", "8F7", "--x", "2"])
    captured = capsys.readouterr()
    assert rc == EXIT_FAILED
    assert captured.out == ""
    assert captured.err.startswith("error: imaginary part too large")
    assert re.search(r"\(residual \d\.\d{3}e[-+]\d\d\)$", captured.err.strip())


def test_eval_past_float_precision_exits_1(capsys):
    """q^60 61F60(1) at q=5 is a real part past 2**46, where a double cannot resolve an integer: no value line."""
    rc = run(["eval", "--q", "5", "--fn", "61F60", "--x", "1"])
    captured = capsys.readouterr()
    assert rc == EXIT_FAILED
    assert captured.out == ""
    assert captured.err.startswith("error: real part past float precision at scale q^60")


def test_eval_scale_beyond_float_range_exits_1(capsys):
    """q^119 at q=1009 is no float: a reconstruction failure that names the scale, in both reconstruction forms."""
    rc = run(["eval", "--q", "1009", "--fn", "120F119", "--x", "2"])
    captured = capsys.readouterr()
    assert rc == EXIT_FAILED
    assert captured.out == ""
    assert captured.err == "error: scale q^119 = 1009^119 is beyond float range (residual inf)\n"
    with pytest.raises(NotRational, match=r"scale q\^200 = 1009\^200") as exc:
        reconstruct(0.5 + 0j, 200, 1009)
    assert exc.value.residual == float("inf")
    with pytest.raises(NotRational, match=r"scale q\^200 = 1009\^200"):
        reconstruct_ints(np.array([0.5 + 0j]), 200, 1009)


def test_eval_refuses_scale_before_building_coefficients(monkeypatch, capsys):
    """A phi/eps scale q^n beyond float range is refused before any coefficient is built."""

    def refuse(params, tables):
        raise AssertionError(f"built the coefficients of {params.n + 1}F{params.n}")

    monkeypatch.setattr("ffhyper.hypergeo._coeff_product", refuse)
    for n in (119, 10000):
        assert run(["eval", "--q", "1009", "--fn", f"{n + 1}F{n}", "--x", "2"]) == EXIT_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: scale q^{n} = 1009^{n} is beyond float range (residual inf)\n"


@pytest.mark.parametrize("value", (complex(math.nan, 0), complex(math.inf, 0), complex(0, math.nan)), ids=str)
def test_eval_non_finite_value_exits_1(value, monkeypatch, capsys):
    """A NaN or infinite phi/eps value fails reconstruction: exit 1 with its residual, no value line."""
    monkeypatch.setattr("ffhyper.cli.hyper_char", lambda params, x, tables: value)
    rc = run(["eval", "--q", "7", "--fn", "2F1", "--x", "3"])
    captured = capsys.readouterr()
    assert rc == EXIT_FAILED
    assert captured.out == ""
    assert re.fullmatch(r"error: .* at scale q\^1 \(residual (nan|inf)\)\n", captured.err)


def test_eval_budget_refuses_field_before_building_it(monkeypatch, capsys):
    def refuse(q):
        raise AssertionError(f"built F_{q}")

    monkeypatch.setattr("ffhyper.cli.make_field", refuse)
    assert run(["eval", "--q", "1000000007", "--fn", "2F1", "--x", "2"]) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert f"= {1000000007 * 30} exceeds budget 1000000000" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("q", ("1000000007", "9"))
@pytest.mark.parametrize(
    "flags, message",
    (
        (["--fn", "foo"], "unknown function 'foo'; expected e.g. 2F1, 3F2, trace-legendre, gauss"),
        (["--fn", "trace-legendre"], "--lambda is required for trace functions"),
        (["--fn", "gauss"], "--chars is required for this function"),
        (["--fn", "jacobi", "--chars", "1,x"], "bad --chars value '1,x'"),
        (
            ["--fn", "2F1", "--x", "2", "--uppers", "1", "--lowers", "1"],
            "need n+1 upper characters and n lower characters",
        ),
    ),
    ids=("unknown-fn", "no-lambda", "no-chars", "bad-chars", "slot-count"),
)
def test_eval_usage_error_comes_before_charge_and_field(q, flags, message, monkeypatch, capsys):
    """A usage error read off argv alone exits 2 with its message, not a budget refusal or a not-prime error."""

    def refuse(q):
        raise AssertionError(f"built F_{q}")

    monkeypatch.setattr("ffhyper.cli.make_field", refuse)
    assert run(["eval", "--q", q, *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


# -- verify------------------------------------------------------------------------


def test_verify_first_moment_csv(tmp_path):
    out = tmp_path / "r.csv"
    rc = run(
        ["verify", "--primes", "5,7", "--statements", "first-moment", "--format", "csv", "--out", str(out)]
    )
    assert rc == EXIT_OK
    text = out.read_text()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["statement", "q", "instance", "lhs", "rhs", "residual", "pass"]
    cut = rows.index([])  # blank row separates reports from summaries
    body = rows[1:cut]
    # two variants per n in {1,2,3} per prime
    assert len(body) == 12
    for r in body:
        assert r[6] == "true"
        assert r[3].split("/")[0].lstrip("-") == "1"  # the integer is +-1


def test_verify_json_roundtrip(tmp_path):
    out = tmp_path / "r.json"
    rc = run(
        ["verify", "--primes", "5,7", "--statements", "trace-moments,second-moment", "--format", "json", "--out", str(out)]
    )
    assert rc == EXIT_OK
    payload = json.loads(out.read_text())
    *reports, tail = payload
    assert "summaries" in tail
    want = [
        r
        for label in ("trace-moments", "second-moment")
        for q in (5, 7)
        for r in rows(run_statement(label, SumTables(make_field(q)), 0))
    ]
    for obj, row in zip(reports, want, strict=True):
        rebuilt = report_from_json(obj)
        assert rebuilt == row
    assert {s["statement"] for s in tail["summaries"]} == {"trace-moments", "second-moment"}


def test_verify_deterministic_bytes(tmp_path):
    args = [
        "verify", "--primes", "5..13", "--statements", "contiguous,inductive-k,generating",
        "--seed", "42", "--format", "csv",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == EXIT_OK
    assert run(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_no_instances_exits_1(capsys):
    # remark-sums has no instances at q=3: that is a vacuous pass, not a pass.
    rc = run(["verify", "--primes", "3", "--statements", "remark-sums"])
    captured = capsys.readouterr()
    assert rc == EXIT_FAILED
    assert captured.err == "warning: remark-sums has no instances over primes [3]\n"
    assert captured.out == (
        "\nsummary remark-sums: 0 instances over primes [], 0 failures, max residual 0.000e+00\n"
    )
    # Only the empty statement is named, and one prime with instances is enough.
    rc = run(["verify", "--primes", "3", "--statements", "first-moment,remark-sums", "--format", "csv"])
    assert rc == EXIT_FAILED
    assert capsys.readouterr().err == "warning: remark-sums has no instances over primes [3]\n"
    assert run(["verify", "--primes", "3,5", "--statements", "remark-sums"]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_verify_runs_a_statement_named_twice_once(capsys):
    """A repeated --statements entry runs once: the report is that of naming it once."""
    argv = ["verify", "--primes", "5,7", "--format", "csv", "--statements"]
    assert run([*argv, "first-moment"]) == EXIT_OK
    once = capsys.readouterr().out
    assert run([*argv, "first-moment,first-moment"]) == EXIT_OK
    assert capsys.readouterr().out == once


@pytest.mark.parametrize("command", (["verify", "--statements", "first-moment"], ["sweep", "--which", "moments"]))
def test_unwritable_out_exits_2(command, tmp_path, capsys):
    """An --out that cannot be opened is a configuration error: one error line, exit 2, no file."""
    out = tmp_path / "missing" / "r.csv"
    assert run([*command, "--primes", "5", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write --out {out}: No such file or directory\n"
    assert not out.parent.exists()


def test_run_calls_share_no_arguments(capsys):
    """Repeated run() calls in one process parse each argv afresh."""
    verify = ["verify", "--primes", "5..13", "--statements", "all", "--seed", "3", "--format", "csv"]
    assert run(verify) == EXIT_OK
    first = capsys.readouterr().out
    rc = run(["eval", "--q", "11", "--fn", "3F2", "--x", "4", "--uppers", "1,2,3", "--lowers", "0,4"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.startswith("3F2(4) = (")
    assert run(["eval", "--q", "11", "--fn", "3F2", "--x", "4"]) == EXIT_OK
    # The phi/eps family prints its exact value; --uppers would print a complex.
    assert re.match(r"3F2\(4\) = -?\d+(/11\^\d)? = ", capsys.readouterr().out)
    assert run(verify) == EXIT_OK
    assert capsys.readouterr().out == first


def test_verify_product_memory_bounded_at_q3203(tmp_path):
    """product at q=3203 stays far below the 500 MB of a (q-2, q-1) complex batch."""
    child = (
        "import resource, sys\n"
        "from ffhyper.cli import run\n"
        "rc = run(['verify', '--primes', '3203', '--statements', 'product', '--out', sys.argv[1]])\n"
        "print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = str(Path(ffhyper.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", child, str(tmp_path / "r.txt")],
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    rc, max_rss_kb = map(int, proc.stdout.split())
    assert rc == EXIT_OK
    assert max_rss_kb < 200 * 1024, f"peak RSS {max_rss_kb // 1024} MB"


def _verify_bytes_by_blas_threads(primes: str, statements: str) -> list[bytes]:
    """The csv bytes of one verify run with one BLAS thread and with two."""
    argv = ["verify", "--primes", primes, "--statements", statements, "--seed", "0", "--format", "csv"]
    src = str(Path(ffhyper.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "ffhyper.cli", *argv],
            capture_output=True,
            timeout=600,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    return outs


def test_verify_bytes_do_not_depend_on_blas_threads():
    """One verify run writes the same bytes with one BLAS thread and with two.

    A 1-D complex BLAS dot product is split across threads at q=10007, so
    its last bits would move with the thread count; the checks sum in numpy.
    """
    outs = _verify_bytes_by_blas_threads("10007", ",".join(s for s in STATEMENTS if s != "product"))
    assert outs[0] == outs[1]


def test_verify_product_bytes_do_not_depend_on_blas_threads():
    """product's F4* points are numpy sums of contiguous slices (appell_f4_batch), so no report
    path calls BLAS; its bytes match with one thread and two."""
    outs = _verify_bytes_by_blas_threads("3203", "product")
    assert outs[0] == outs[1] and b"\nproduct,3203,5,0," in outs[0]  # summary: 5 instances, 0 failures


def test_cli_import_loads_only_stdlib_and_numpy():
    """import ffhyper.cli pulls in no third-party module but numpy.

    Each extra package (scipy.fft for one helper, say) adds its import
    time to every command.  Modules the interpreter loaded before the
    import (site hooks) are not counted.
    """
    child = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ffhyper.cli\n"
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    src = str(Path(ffhyper.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "ffhyper" in loaded and "numpy" in loaded
    extra = [m for m in loaded if m not in sys.stdlib_module_names and m not in ("numpy", "ffhyper")]
    assert not extra, extra


def test_verify_strict_range_exit_2(capsys):
    assert run(["verify", "--primes", "4..6"]) == EXIT_USAGE
    capsys.readouterr()


def test_verify_budget_exit_3(capsys):
    rc = run(["verify", "--primes", "11", "--statements", "product", "--budget", "100"])
    assert rc == EXIT_INFEASIBLE
    capsys.readouterr()


def test_verify_budget_covers_field_build(capsys):
    """The field tables are charged before they are built, whatever the statements."""
    rc = run(["verify", "--primes", "10007", "--statements", "first-moment", "--budget", "1000"])
    assert rc == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert f"= {10007 * 14} exceeds budget 1000" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command",
    (["verify", "--statements", "first-moment"], ["sweep", "--which", "F43"], ["sweep", "--which", "moments"]),
    ids=("verify", "sweep-F43", "sweep-moments"),
)
@pytest.mark.parametrize(
    "primes, cost",
    (
        ("10000000000000061", 10**8),
        ("101,10000000000000061", 10 + 10**8),
        ("101..100000000", 10 + 10**4 + 10**8 - 100),
        ("-7..100000000", 10**4 + 10**8 - 2),
    ),
    ids=("entry", "list", "range", "negative-range"),
)
@pytest.mark.parametrize("strict", ("--strict", "--no-strict"))
def test_prime_selection_charged_before_its_work(command, primes, cost, strict, monkeypatch, tmp_path, capsys):
    """Trial division and the sieve window are charged first: exit 3, nothing written."""

    def refuse(*args):
        raise AssertionError(f"prime selection ran on {args}")

    monkeypatch.setattr("ffhyper.cli.is_prime", refuse)
    monkeypatch.setattr("ffhyper.cli.primes_in_range", refuse)
    out = tmp_path / "r.txt"
    rc = run([*command, f"--primes={primes}", strict, "--budget", "1000", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == EXIT_INFEASIBLE
    assert captured.err == f"error: prime selection cost sum(isqrt(n)) + window = {cost} exceeds budget 1000\n"
    assert captured.out == "" and not out.exists()


def test_prime_selection_within_budget_runs():
    assert parse_primes("101..199", strict=True, budget=10 + 14 + 99) == primes_in_range(101, 199)
    with pytest.raises(Infeasible):
        parse_primes("101..199", strict=True, budget=10 + 14 + 98)
    assert parse_primes("101,10007", strict=True, budget=10 + 100) == [101, 10007]


@pytest.mark.parametrize(
    "command, err",
    (
        (
            ["verify", "--primes", "101,40009", "--statements", "product"],
            "w-sum cost (q-2)(q-1) + 3(q-1)log2(q-1) = 1602520440 exceeds budget 1000000000",
        ),
        (
            ["sweep", "--which", "moments", "--primes", "101,103", "--budget", "2850"],
            "moment-table cost 4*(q-1)*log2(q-1) = 2856 exceeds budget 2850",
        ),
        (
            ["sweep", "--which", "F43", "--primes", "101,103", "--budget", "2130"],
            "trace-table cost 3*q*log2(q) = 2163 exceeds budget 2130",
        ),
    ),
    ids=("verify-product", "sweep-moments", "sweep-F43"),
)
def test_run_charged_before_its_first_field(command, err, monkeypatch, tmp_path, capsys):
    """A charge refused at the last prime refuses the run before the first prime's field is built."""

    def refuse(q):
        raise AssertionError(f"built F_{q}")

    monkeypatch.setattr("ffhyper.cli.make_field", refuse)
    monkeypatch.setattr("ffhyper.identities.make_field", refuse)
    out = tmp_path / "r.txt"
    rc = run([*command, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == EXIT_INFEASIBLE
    assert captured.err == f"error: {err}\n"
    assert captured.out == "" and not out.exists()


def test_sweep_moments_table_budget_exit_3(capsys):
    """A selection within budget still meets the moments table charge."""
    rc = run(["sweep", "--which", "moments", "--primes", "101", "--budget", "100"])
    assert rc == EXIT_INFEASIBLE
    assert "moment-table cost 4*(q-1)*log2(q-1) = 2800 exceeds budget 100" in capsys.readouterr().err


# -- sweep -----------------------------------------------------------------------


def test_sweep_moments_csv(tmp_path):
    out = tmp_path / "m.csv"
    rc = run(["sweep", "--which", "moments", "--primes", "5..31", "--out", str(out)])
    assert rc == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 9 * 3
    for row in rows:
        assert abs(int(row["unweighted"])) == 1
        assert abs(int(row["weighted"])) == 1
        assert row["pass"] == "True"


def test_sweep_moments_budget_exit_3(capsys):
    rc = run(["sweep", "--which", "moments", "--primes", "101", "--budget", "1"])
    assert rc == EXIT_INFEASIBLE
    assert "exceeds budget 1" in capsys.readouterr().err


def test_sweep_f43_bounds(tmp_path):
    out = tmp_path / "f43.csv"
    rc = run(["sweep", "--which", "F43", "--primes", "5..97", "--out", str(out)])
    assert rc == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    for row in rows:
        assert float(row["abs_dev"]) <= 4 / int(row["q"])


@pytest.mark.parametrize("flag", (["--seed", "1"], ["--statements", "all"]))
def test_sweep_rejects_verify_only_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--which", "F43", "--primes", "5", *flag])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sweep_f65_json(tmp_path):
    out = tmp_path / "f65.json"
    rc = run(["sweep", "--which", "F65", "--primes", "53..97", "--format", "json", "--out", str(out)])
    assert rc == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["summary"]["failures"] == 0
    for row in payload["rows"]:
        assert row["scaled_abs"] <= 12


@pytest.mark.parametrize("which", ("F43", "F65"))
def test_sweep_csv_matches_golden_bytes(which, capsys):
    """Byte for byte the committed sweep output over primes 101..199.

    The rows are exact integers and float quotients of them, so no FFT
    rounding can move a byte.
    """
    golden = Path(__file__).resolve().parent / "data" / f"sweep_{which}_101_199.csv"
    assert run(["sweep", "--which", which, "--primes", "101..199", "--format", "csv"]) == EXIT_OK
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("which, fmt", (("moments", "csv"), ("moments", "json"), ("F43", "json"), ("F65", "json")))
def test_sweep_matches_golden_bytes(which, fmt, capsys):
    """Byte for byte the committed sweep output over primes 101..199, moments and the JSON forms.

    Every moments entry is an exact integer and every trace-sweep float a
    quotient of exact integers, so no FFT rounding can move a byte.
    """
    golden = Path(__file__).resolve().parent / "data" / f"sweep_{which}_101_199.{fmt}"
    assert run(["sweep", "--which", which, "--primes", "101..199", "--format", fmt]) == EXIT_OK
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def assert_same_text(got: str, want: str) -> None:
    """got == want, failing with the first differing line: pytest's own diff
    of two texts this long takes minutes."""
    if got != want:
        a, b = got.splitlines(), want.splitlines()
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"line {i + 1} differs: {a[i : i + 1]} != {b[i : i + 1]} ({len(a)} vs {len(b)} lines)")


@pytest.mark.parametrize("fmt, ext", (("csv", "csv"), ("json", "json"), ("text", "txt")))
def test_verify_exact_statements_match_golden_bytes(fmt, ext, capsys):
    """Byte for byte the committed exact-statement report over primes 101..151.

    Only exact statements are in it, so a change to a float kernel
    cannot move a byte.
    """
    golden = Path(__file__).resolve().parent / "data" / f"verify_exact_101_151.{ext}"
    argv = ["verify", "--primes", "101..151", "--statements", "first-moment,trace-moments,second-moment,trace-bridge"]
    assert run([*argv, "--seed", "42", "--format", fmt]) == EXIT_OK
    assert_same_text(capsys.readouterr().out, golden.read_text(encoding="utf-8"))


@pytest.mark.parametrize("lo, hi", ((101, 151), (3, 13)))
def test_verify_instances_match_golden(lo, hi, capsys):
    """The statement, q and instance of every row over primes lo..hi at seed 42, as committed.

    The other goldens pin exact statements only; this one pins every
    statement's random instance draws, so a reordered or extra rng draw
    changes an instance and fails here.  Primes 3..13 add the small-field
    instance sets: contiguous's x=(1,2) at q=3, product's full grid at q=7
    and remark-sums' full lambda range up to q=13.
    """
    golden = Path(__file__).resolve().parent / "data" / f"verify_instances_{lo}_{hi}_seed42.csv"
    argv = ["verify", "--primes", f"{lo}..{hi}", "--statements", "all", "--seed", "42", "--format", "csv"]
    assert run(argv) == EXIT_OK
    report = capsys.readouterr().out.partition("\n\n")[0]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(row[:3] for row in csv.reader(io.StringIO(report)))
    assert_same_text(buf.getvalue(), golden.read_text(encoding="utf-8"))


@pytest.mark.parametrize("family", ("legendre", "clausen"))
def test_verify_writes_reconstruction_failure_of_loop(family, monkeypatch, capsys):
    """A value off by 0.02 at scale: verify writes every row, fails only that lambda's, and exits 1.

    The failed row keeps its instance and its sides (the nearest values, so
    those of the unmoved table), with the loop's residual and tolerance 0.
    """
    q = 101
    want = bridge_loop(SumTables(make_field(q)))
    patch_family(monkeypatch, {(family, 17): 0.02 / q ** (1 if family == "legendre" else 2)})
    with pytest.raises(NotRational) as loop:
        bridge_loop(SumTables(make_field(q)))
    i = 15 + (q - 2) * (family == "clausen")
    assert want[i].instance.startswith(f"{family} lambda=17") and want[i].passed
    want[i] = replace(want[i], residual=loop.value.residual, passed=False)
    block = run_statement("trace-bridge", SumTables(make_field(q)), 0)
    assert rows(block) == want
    for fmt in ("csv", "json", "text"):
        assert run(["verify", "--primes", str(q), "--statements", "trace-bridge", "--format", fmt]) == EXIT_FAILED
        buf = io.StringIO()
        render_reports([block], [summary_of("trace-bridge", want)], fmt, buf)
        assert_same_text(capsys.readouterr().out, buf.getvalue())


def test_verify_q100003_second_moment_fails_only_its_k3_peak(monkeypatch, capsys):
    """At q=100003 the k=3 peak's lambda-sum misses its integer over q^4 by 0.0127.

    That row fails with the residual the nearest-integer rule gives, both
    sides at the same nearest value (the float route's precision, not a
    false identity); the k=2 peak and both off-peak rows are still checked,
    and pass.
    """
    raised = []

    def recording(*args, nearest=ids.reconstruct_ints):
        ints, margins = nearest(*args)
        raised.extend(margins[~(margins < ids.EXACT_GAP)].tolist())
        return ints, margins

    monkeypatch.setattr(ids, "reconstruct_ints", recording)
    assert run(["verify", "--primes", "100003", "--statements", "second-moment", "--format", "json"]) == EXIT_FAILED
    rows = [report_from_json(d) for d in json.loads(capsys.readouterr().out)[:-1]]
    assert len(rows) == 4
    assert [r.instance for r in rows if not r.passed] == ["k=3 x=1 second-moment peak"]
    (peak,) = (r for r in rows if not r.passed)
    assert len(raised) == 1 and peak.residual == raised[0]
    assert peak.tolerance == 0.0 and peak.lhs == peak.rhs


def test_failing_sweep_warns_on_stderr(monkeypatch, capsys):
    """A failing moments sweep writes the CSV rows it always did and one stderr line naming the margin.

    The JSON summary's max_residual is that margin, not 0.0.
    """
    move_3f2(monkeypatch, 5)
    warning = "warning: moments: 1 failing rows, first at q=101 n=2, max residual 2.000e-02\n"
    assert run(["sweep", "--which", "moments", "--primes", "101"]) == EXIT_FAILED
    captured = capsys.readouterr()
    assert captured.out == (
        "q,n,unweighted,weighted,expected_unweighted,expected_weighted,pass\n"
        "101,1,1,1,1,1,True\n"
        "101,2,-1,-1,-1,-1,False\n"
        "101,3,1,1,1,1,True\n"
    )
    assert captured.err == warning
    assert run(["sweep", "--which", "moments", "--primes", "101", "--format", "json"]) == EXIT_FAILED
    captured = capsys.readouterr()
    assert json.loads(captured.out)["summary"]["max_residual"] == pytest.approx(0.02, abs=1e-9)
    assert captured.err == warning


def test_sweep_moments_writes_failed_reconstruction_as_row(monkeypatch, capsys):
    """A first moment that fails reconstruction is a pass=False row of the table, and exit 1."""
    move_3f2(monkeypatch, 5)
    assert run(["sweep", "--which", "moments", "--primes", "101"]) == EXIT_FAILED
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [(row["n"], row["pass"]) for row in rows] == [("1", "True"), ("2", "False"), ("3", "True")]


@pytest.mark.parametrize("family, lams", (("legendre", (30, 44)), ("clausen", (61, 9))))
def test_failing_bridge_rows_render_like_loop(family, lams, monkeypatch, capsys):
    """Traces off by one fail their rows; the block renders the loop's bytes."""
    q = 101
    patch_family(monkeypatch, {(family, lam): 1 for lam in lams}, table=0)
    loop = bridge_loop(SumTables(make_field(q)))
    block = run_statement("trace-bridge", SumTables(make_field(q)), 0)
    assert block.passed.count(False) == 2
    assert rows(block) == loop
    want, got = summary_of("trace-bridge", loop), summarize("trace-bridge", block)
    assert want.failures == 2 and want.max_residual > 0
    assert (got.first_failure, got.max_residual) == (want.first_failure, want.max_residual)
    assert got == want
    for fmt in ("csv", "json", "text"):
        assert run(["verify", "--primes", str(q), "--statements", "trace-bridge", "--format", fmt]) == EXIT_FAILED
        buf = io.StringIO()
        render_reports([block], [want], fmt, buf)
        assert_same_text(capsys.readouterr().out, buf.getvalue())


class CharCount(io.TextIOBase):
    """A text stream that keeps only the number of characters written to it."""

    chars = 0

    def write(self, s):
        self.chars += len(s)
        return len(s)


@pytest.fixture(scope="module")
def bridge_10007():
    block = run_statement("trace-bridge", SumTables(make_field(10007)), 0)
    return block, summarize("trace-bridge", block)


@pytest.mark.parametrize("fmt", ("csv", "json", "text"))
def test_report_is_written_as_it_is_formatted(fmt, bridge_10007):
    """Rendering q=10007's trace-bridge block (20,010 rows) allocates at peak under 3 bytes per character written.

    A renderer that builds the report as one string first holds that whole
    string and its pieces: 3.81 (csv), 11.32 (json) and 3.59 (text) bytes per
    character; writing rows as they are formatted reads 1.98, 2.46 and 1.35.
    """
    sink = CharCount()
    tracemalloc.start()
    try:
        render_reports([bridge_10007[0]], [bridge_10007[1]], fmt, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 10**6
    assert peak < 3 * sink.chars


def test_trace_paths_compute_no_discrete_log(monkeypatch, capsys):
    """The trace sweeps and trace evals read only the Legendre table."""
    argvs = [
        ["sweep", "--which", "F43", "--primes", "101..151"],
        ["sweep", "--which", "F65", "--primes", "101..151"],
        ["eval", "--q", "101", "--fn", "trace-legendre", "--lambda", "5"],
        ["eval", "--q", "101", "--fn", "trace-clausen", "--lambda", "5"],
    ]

    def outputs():
        outs = []
        for argv in argvs:
            assert run(argv) == EXIT_OK, argv
            outs.append(re.sub(r"elapsed \d+\.\d+s", "elapsed", capsys.readouterr().out))
        return outs

    expected = outputs()

    def refuse(q):
        raise AssertionError(f"primitive-root search at q={q}")

    monkeypatch.setattr("ffhyper.field.smallest_primitive_root", refuse)
    assert outputs() == expected
    monkeypatch.undo()
    f = make_field(101)
    assert f.dlog is f.dlog


# -- benchmark tracer -------------------------------------------------------------


def test_perfbench_tracer_hooks_a_verify_run(monkeypatch, capsys):
    """perfbench's span tracer installs over every layer it names and restores them.

    It reads each hooked name through owner.__dict__[attr], so a layer
    renamed or deleted here would break the traced benchmark run.
    """
    from ffhyper.characters import Character

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import Tracer

    call = Character.__dict__["__call__"]
    tracer = Tracer()
    with tracer.installed():
        assert Character.__dict__["__call__"] is not call
        assert run(["verify", "--primes", "13", "--statements", "all"]) == EXIT_OK
    assert Character.__dict__["__call__"] is call
    calls = tracer.span_counts()
    assert [label for label in STATEMENTS if calls.get(f"identities.{label}") != 1] == []
    assert calls["cli.render"] == 1
    assert calls["characters.call"] > 0  # the one scalar evaluator the tracer hooks
    assert calls["curves.legendre_trace_table"] == calls["curves.clausen_trace_table"] == 1
    assert tracer.counts["identities.trace-bridge.checks"] == 22  # 2 * (13 - 2)
    capsys.readouterr()


# -- README -----------------------------------------------------------------------


def _readme_commands() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:] for line in block.splitlines() if line.startswith("ffhyper ")]


def test_readme_command_lines_exit_0(tmp_path, capsys):
    """Every ffhyper line of README's command-line block runs and exits 0."""
    commands = _readme_commands()
    assert len(commands) == 10
    for argv in commands:
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        assert run(argv) == EXIT_OK, argv
        capsys.readouterr()


def test_readme_statement_list_is_the_table():
    """README lists the verify statements of identities.STATEMENTS, in its order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = readme.split("Statements for `verify`", 1)[1].split(", or `all`", 1)[0]
    assert re.findall(r"`([a-z0-9-]+)`", listed) == list(STATEMENTS)


def test_readme_library_block_runs(capsys):
    """README's python block runs as written and prints the value its comment gives."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "QPowerRational(num=23, npow=2)\n"
