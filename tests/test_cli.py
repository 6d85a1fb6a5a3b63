import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

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
    report_from_json,
    report_to_json,
    run,
)
from ffhyper.curves import hasse_bound, legendre_trace
from ffhyper.identities import STATEMENTS


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


def test_eval_unknown_fn(capsys):
    assert run(["eval", "--q", "7", "--fn", "2F5", "--x", "1"]) == EXIT_USAGE
    capsys.readouterr()


# -- verify ------------------------------------------------------------------------


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
    for obj in reports:
        rebuilt = report_to_json(report_from_json(obj))
        assert rebuilt == obj
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


def test_sweep_f65_json(tmp_path):
    out = tmp_path / "f65.json"
    rc = run(["sweep", "--which", "F65", "--primes", "53..97", "--format", "json", "--out", str(out)])
    assert rc == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["summary"]["failures"] == 0
    for row in payload["rows"]:
        assert row["scaled_abs"] <= 12


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
