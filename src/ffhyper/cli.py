"""Command-line front end: evaluate, verify, sweep.

Exit codes are a function of results only: 0 all checks pass, 1 any failed
row (a failed reconstruction is one) or verify statement with no instances,
2 usage or configuration error (an unwritable --out is one; eval reads an
unread flag, an unknown function, a missing flag, a bad --chars and a wrong
--uppers/--lowers count off argv alone, and refuses them before the field is
charged or built, so before any budget refusal), 3 work budget exceeded: a
run is charged in full (its fields and the costs identities.STATEMENTS or
SWEEPS give) before its first table is built, so a refusal writes nothing.
Verify writes its rows by statement, in the order first named, then by
prime, so the bytes emitted depend only on the configuration; CSV and JSON
are UTF-8 with LF line endings.  Each (statement, prime) comes as one
ReportBlock, whose rows are written and summarised straight from its
columns.  Sweep writes the rows and summary identities.estimate_sweep
returns; a sweep with failing rows also writes one warning line, naming the
first and the largest residual, to stderr.  Verify and sweep each render
once, when their work is done, straight into the stream (stdout, or --out
opened only then): rows are written as they are formatted, and no report
string is built.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
import time
from dataclasses import asdict
from itertools import repeat
from typing import TextIO

from . import identities
from .charsums import SumTables
from .curves import clausen_trace, legendre_trace
from .errors import FFHyperError, Infeasible, NotRational, RejectedInput
from .field import is_prime, make_field, primes_in_range
from .hypergeo import DEFAULT_BUDGET, HyperParams, _q_power_text, appell_f4, float_scale, hyper_char, reconstruct
from .identities import ReportBlock, SweepSummary

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


class UsageError(ValueError):
    pass


def parse_primes(text: str, strict: bool, budget: int = DEFAULT_BUDGET) -> list[int]:
    """Parse 'a..b' or 'a,b,c' into a sorted list of odd primes.

    Strict mode (the default) rejects any non-prime entry or range
    endpoint instead of silently skipping it.  The work is charged
    against budget before it runs: about isqrt(n) per entry or endpoint
    (trial division, or the sieve's base primes) and b-a+1 for the sieve
    window of a range a..b.
    """
    text = text.strip()
    is_range = ".." in text
    if is_range:
        lo_s, _, hi_s = text.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as e:
            raise UsageError(f"bad prime range {text!r}") from e
        numbers, window = (lo, hi), hi - max(lo, 3) + 1
    else:
        try:
            numbers, window = [int(tok) for tok in text.split(",") if tok.strip()], 0
        except ValueError as e:
            raise UsageError(f"bad prime list {text!r}") from e
    cost = sum(math.isqrt(max(n, 0)) for n in numbers) + max(window, 0)
    _charge([("prime selection cost sum(isqrt(n)) + window", cost)], budget)
    if strict:
        for n in numbers:
            if n == 2 or not is_prime(n):
                end = "range endpoint " if is_range else ""
                raise UsageError(f"{end}{n} is not an odd prime (pass --no-strict to allow)")
    primes = primes_in_range(lo, hi) if is_range else [n for n in numbers if strict or (n != 2 and is_prime(n))]
    primes = sorted(set(primes))
    if not primes:
        raise UsageError(f"prime selection {text!r} is empty")
    return primes


# -- work budget ----------------------------------------------------------------

# The field's per-prime cost, its tables and one length-(q-1) transform; the
# other costs are read from identities.STATEMENTS and identities.SWEEPS.
_FIELD_COST = ("field cost q*log2(q)", lambda q: q * q.bit_length())


def _per_prime(costs, primes):
    """(formula, cost at q) of each cost at each prime: prime by prime, costs in the order given, None skipped."""
    return ((formula, cost(q)) for q in primes for formula, cost in filter(None, costs))


def _charge(work, budget: int) -> None:
    """Refuse at the first (formula, cost) in work whose cost, on its own, exceeds budget."""
    for formula, cost in work:
        if cost > budget:
            raise Infeasible(f"{formula} = {cost} exceeds budget {budget}")


def parse_statements(text: str) -> list[str]:
    """Parse 'all' or 'a,b,c' into statement labels, each kept once, where first named."""
    if text.strip() == "all":
        return list(identities.STATEMENTS)
    out = list(dict.fromkeys(tok.strip() for tok in text.split(",") if tok.strip()))
    for tok in out:
        if tok not in identities.STATEMENTS:
            raise UsageError(f"unknown statement {tok!r}; known: {', '.join(identities.STATEMENTS)}")
    if not out:
        raise UsageError("statement selection is empty")
    return out


# -- report serialization -----------------------------------------------------


def _sides(block: ReportBlock, as_json: bool = False) -> tuple[list, list]:
    """Every row's lhs and rhs, as printed or as JSON values, read off the block's columns.

    An exact block's side prints as QPowerRational.fmt does and is
    {"num", "npow"} in JSON; a float block's prints as its complex repr and
    is {"re", "im"}.
    """
    if block.exact:
        side = (lambda a, b: {"num": a, "npow": b}) if as_json else functools.partial(_q_power_text, q=block.q)
    else:
        side = (lambda a, b: {"re": a, "im": b}) if as_json else lambda a, b: repr(complex(a, b))
    return list(map(side, block.lhs_a, block.lhs_b)), list(map(side, block.rhs_a, block.rhs_b))


def _cells(block: ReportBlock, as_json: bool = False):
    """(statement, q, instance, lhs, rhs, residual, pass) per row, lhs and rhs as _sides gives them."""
    return zip(repeat(block.name), repeat(block.q), block.instances, *_sides(block, as_json), block.residual, block.passed)


def render_reports(blocks: list[ReportBlock], summaries: list[SweepSummary], fmt: str, fh: TextIO) -> None:
    """Write the report stream to fh as it is formatted: each block's rows in order, then the summaries."""
    if fmt == "csv":
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["statement", "q", "instance", "lhs", "rhs", "residual", "pass"])
        for block in blocks:
            w.writerows(
                [name, q, instance, lhs, rhs, repr(residual), "true" if passed else "false"]
                for name, q, instance, lhs, rhs, residual, passed in _cells(block)
            )
        w.writerow([])
        w.writerow(["statement", "primes", "instances", "failures", "max_residual", "first_failure"])
        w.writerows(
            [s.statement, " ".join(map(str, s.primes)), s.instances, s.failures, repr(s.max_residual), s.first_failure]
            for s in summaries
        )
        return
    if fmt == "json":
        payload = [
            {
                "statement": name,
                "q": q,
                "instance": instance,
                "lhs": lhs,
                "rhs": rhs,
                "residual": residual,
                "tolerance": b.tolerance,
                "pass": passed,
            }
            for b in blocks
            for name, q, instance, lhs, rhs, residual, passed in _cells(b, as_json=True)
        ]
        payload.append({"summaries": [asdict(s) for s in summaries]})
        json.dump(payload, fh, indent=2)
        fh.write("\n")
        return
    for block in blocks:
        fh.writelines(
            f"{'PASS' if passed else 'FAIL'} {name} q={q} [{instance}] "
            f"lhs={lhs} rhs={rhs} residual={residual:.3e}\n"
            for name, q, instance, lhs, rhs, residual, passed in _cells(block)
        )
    fh.write("\n")
    for s in summaries:
        fh.write(
            f"summary {s.statement}: {s.instances} instances over primes "
            f"{s.primes}, {s.failures} failures, max residual {s.max_residual:.3e}"
            + (f", first failure: {s.first_failure}" if s.first_failure else "")
            + "\n"
        )


def render_sweep_rows(rows: list[dict], summary: SweepSummary, fmt: str, fh: TextIO) -> None:
    """Write the sweep's rows to fh as they are formatted; JSON also holds the summary."""
    if fmt == "json":
        json.dump({"rows": rows, "summary": asdict(summary)}, fh, indent=2)
        fh.write("\n")
        return
    w = csv.writer(fh, lineterminator="\n")
    if rows:
        w.writerow(rows[0].keys())
        w.writerows([repr(v) if isinstance(v, float) else v for v in row.values()] for row in rows)


def _emit(path: str | None, render, *args) -> None:
    """render(*args, fh) into stdout, or into the --out file, opened only now that the work is done.

    An OSError opening or writing --out is a UsageError.
    """
    if path is None:
        render(*args, sys.stdout)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            render(*args, fh)
    except OSError as e:
        raise UsageError(f"cannot write --out {path}: {e.strerror}") from e


# -- verify -----------------------------------------------------------------


def cmd_verify(
    primes: list[int], statements: list[str], seed: int, budget: int, fmt: str, out: str | None
) -> int:
    """Check every statement at every prime, one field's tables alive at a time, and write one report.

    The whole run is charged first, in the order it runs: per prime, the
    field, then each named statement.
    """
    _charge(_per_prime([_FIELD_COST, *(identities.STATEMENTS[label][1] for label in statements)], primes), budget)
    blocks: dict[str, list[ReportBlock]] = {label: [] for label in statements}
    for q in primes:
        tables = SumTables(make_field(q))
        for label in statements:
            blocks[label].append(identities.run_statement(label, tables, seed))
    summaries = [identities.summarize(label, *blocks[label]) for label in statements]
    _emit(out, render_reports, [b for bs in blocks.values() for b in bs], summaries, fmt)
    # A statement with no instances checked nothing; that is not a pass.
    vacuous = [s.statement for s in summaries if s.instances == 0]
    for label in vacuous:
        print(f"warning: {label} has no instances over primes {primes}", file=sys.stderr)
    return EXIT_OK if all(s.failures == 0 for s in summaries) and not vacuous else EXIT_FAILED


# -- sweep -----------------------------------------------------------------


def cmd_sweep(primes: list[int], which: str, budget: int, fmt: str, out: str | None) -> int:
    """One trend table over the primes, every prime's table charged before the first is built."""
    _charge(_per_prime([identities.SWEEPS[which][2]], primes), budget)
    rows, s = identities.estimate_sweep(primes, which)
    _emit(out, render_sweep_rows, rows, s, fmt)
    if s.failures:
        print(
            f"warning: {s.statement}: {s.failures} failing rows, first at {s.first_failure}, "
            f"max residual {s.max_residual:.3e}",
            file=sys.stderr,
        )
    return EXIT_OK if s.failures == 0 else EXIT_FAILED


# -- eval -----------------------------------------------------------------


def _parse_indices(text: str | None, what: str) -> list[int]:
    if text is None:
        raise UsageError(f"--{what} is required for this function")
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        raise UsageError(f"bad --{what} value {text!r}") from e


# The optional eval flags by argparse dest, and the dests each function reads.
_EVAL_FLAGS = {"x": "--x", "y": "--y", "lam": "--lambda", "chars": "--chars", "uppers": "--uppers", "lowers": "--lowers"}
_EVAL_READS = {"trace-legendre": "lam", "trace-clausen": "lam", "gauss": "chars", "jacobi": "chars", "appell": "chars x y"}


def cmd_eval(args) -> int:
    """Evaluate one function at one point; every check of argv alone is made before any work.

    An unread flag, an unknown function, a missing flag and a malformed or
    miscounted --chars, --uppers or --lowers are refused before the field is charged or built.
    """
    start = time.perf_counter()
    fn = args.fn
    m = re.fullmatch(r"(\d+)F(\d+)", fn)
    n = int(m.group(2)) if m and int(m.group(1)) == int(m.group(2)) + 1 else None
    reads = _EVAL_READS.get(fn, "x uppers lowers" if n is not None else " ".join(_EVAL_FLAGS)).split()
    unread = [flag for dest, flag in _EVAL_FLAGS.items() if dest not in reads and getattr(args, dest) is not None]
    if unread:
        raise UsageError(f"{fn} does not read {', '.join(unread)}")
    if fn not in _EVAL_READS and n is None:
        raise UsageError(f"unknown function {fn!r}; expected e.g. 2F1, 3F2, trace-legendre, gauss")
    if "lam" in reads and args.lam is None:
        raise UsageError("--lambda is required for trace functions")
    idx = _parse_indices(args.chars, "chars") if "chars" in reads else []
    if fn == "gauss" and len(idx) != 1:
        raise UsageError("gauss needs one character index, e.g. --chars 3")
    if fn == "jacobi" and len(idx) != 2:
        raise UsageError("jacobi needs two character indices, e.g. --chars 1,3")
    if fn == "appell" and (len(idx) != 4 or args.x is None or args.y is None):
        raise UsageError("appell needs --chars a,b,c,cp plus --x and --y")
    if n is not None and args.x is None:
        raise UsageError("--x is required for hypergeometric evaluation")
    slots = args.uppers is not None or args.lowers is not None
    if slots:
        ups, los = _parse_indices(args.uppers, "uppers"), _parse_indices(args.lowers or "", "lowers")
        if len(ups) != n + 1 or len(los) != n:
            raise UsageError("need n+1 upper characters and n lower characters")
    _charge(_per_prime([_FIELD_COST], [args.q]), DEFAULT_BUDGET)
    f = make_field(args.q)
    tables = SumTables(f)
    lines = []
    if fn in ("trace-legendre", "trace-clausen"):
        rec = legendre_trace(f, args.lam) if fn == "trace-legendre" else clausen_trace(f, args.lam)
        lines.append(f"trace = {rec.trace}")
        lines.append(f"count = {rec.count}")
    elif fn == "gauss":
        (j,) = idx
        lines.append(f"g(chi_{j}) = {complex(tables.gauss_vector[j % (f.q - 1)])!r}")
    elif fn == "jacobi":
        lines.append(f"J(chi_{idx[0]}, chi_{idx[1]}) = {tables.jacobi_index(idx[0], idx[1])!r}")
    elif fn == "appell":
        val = appell_f4(*idx, args.x, args.y, tables)
        lines.append(f"F4* = {val!r}")
    elif slots:
        val = hyper_char(HyperParams(f.q, tuple(ups), tuple(los)), args.x, tables)
        lines.append(f"{fn}({args.x}) = {val!r}")
    else:
        float_scale(n, f.q)  # refuse a scale reconstruct would refuse, before any work
        params = HyperParams.phi_eps(f.q, n)
        val = hyper_char(params, args.x, tables)
        exact = reconstruct(val, n, f.q)
        lines.append(f"{fn}({args.x}) = {exact.fmt(f.q)} = {val.real!r}")
    elapsed = time.perf_counter() - start
    for line in lines:
        print(line)
    print(f"elapsed {elapsed:.6f}s")
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, fmt_choices, fmt_default) -> None:
    p.add_argument("--primes", required=True, help="range a..b or list a,b,c of odd primes")
    p.add_argument("--format", choices=fmt_choices, default=fmt_default, dest="fmt")
    p.add_argument("--out", default=None, help="write the report stream to this file")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffhyper",
        description="Evaluate finite-field hypergeometric functions and verify their identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one function at one point")
    pe.add_argument("--q", type=int, required=True)
    pe.add_argument("--fn", required=True, help="2F1, 3F2, ..., gauss, jacobi, appell, trace-legendre, trace-clausen")
    pe.add_argument("--x", type=int, default=None)
    pe.add_argument("--y", type=int, default=None)
    pe.add_argument("--lambda", dest="lam", type=int, default=None)
    pe.add_argument("--chars", default=None, help="comma-separated character indices")
    pe.add_argument("--uppers", default=None)
    pe.add_argument("--lowers", default=None)

    pv = sub.add_parser("verify", help="verify identity statements over a prime sweep")
    _add_common(pv, ("json", "csv", "text"), "text")
    pv.add_argument("--statements", default="all")
    pv.add_argument("--seed", type=int, default=0)

    ps = sub.add_parser("sweep", help="emit the estimate/moment trend tables")
    ps.add_argument("--which", choices=tuple(identities.SWEEPS), required=True)
    _add_common(ps, ("csv", "json"), "csv")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser unchanged and
    # returns a fresh namespace on every call.
    return build_parser()


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args)
        primes = parse_primes(args.primes, args.strict, args.budget)
        if args.command == "verify":
            statements = parse_statements(args.statements)
            return cmd_verify(primes, statements, args.seed, args.budget, args.fmt, args.out)
        return cmd_sweep(primes, args.which, args.budget, args.fmt, args.out)
    except Infeasible as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NotRational as e:
        # eval's value that should be exact and is not: a failed check.
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAILED
    except (UsageError, RejectedInput, FFHyperError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
