"""Command-line front end: evaluate, verify, sweep.

Exit codes are a function of results only: 0 all checks pass, 1 any
failed row (a failed reconstruction is one) or verify statement with no
instances, 2 usage or configuration error (an unwritable --out is one),
3 work budget exceeded: a run is charged in full (CHARGES) before its
first table is built, so a refusal writes nothing.  Verify writes its rows
by statement, in the order first named, then by prime, so the bytes emitted
depend only on the configuration; CSV and JSON are UTF-8 with LF line
endings.  Each (statement, prime) comes as one ReportBlock, whose rows
are written and summarised straight from its columns.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys
import time
from dataclasses import asdict
from itertools import repeat

from . import identities
from .characters import Character
from .charsums import SumTables
from .curves import clausen_trace, legendre_trace
from .errors import FFHyperError, Infeasible, NotRational, RejectedInput
from .field import is_prime, make_field, primes_in_range
from .hypergeo import DEFAULT_BUDGET, HyperParams, appell_f4, float_scale, hyper_char, reconstruct
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

# Per-prime charges, made for a whole run before its first table is built:
# the formula a refusal names and the cost at q.  The field is its tables and
# one length-(q-1) transform.  A product is q-2 F4* points of q-1 gathered
# products plus the three transforms of the F4* spectra, memoised per prime,
# so it is charged once per prime.  A sweep's trace table is two forward real
# FFTs and one inverse; its moments table one binomial line and three inverse
# transforms.  A verify statement with no entry costs nothing past its field.
CHARGES = {
    "field": ("field cost q*log2(q)", lambda q: q * q.bit_length()),
    "product": ("w-sum cost (q-2)(q-1) + 3(q-1)log2(q-1)", lambda q: (q - 1) * (q - 2 + 3 * (q - 1).bit_length())),
    "trace": ("trace-table cost 3*q*log2(q)", lambda q: 3 * q * q.bit_length()),
    "moments": ("moment-table cost 4*(q-1)*log2(q-1)", lambda q: 4 * (q - 1) * (q - 1).bit_length()),
}


def _per_prime(paths, primes):
    """(formula, cost) of each charged path at each prime: prime by prime, paths in the order given."""
    return ((CHARGES[p][0], CHARGES[p][1](q)) for q in primes for p in paths if p in CHARGES)


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

    An exact side prints as num/q^pow (num alone at power 0) and is
    {"num", "npow"} in JSON; a float side prints as its complex repr and is
    {"re", "im"}.
    """
    q = block.q

    def side(a: list, b: list) -> list:
        if as_json:
            return [{"num": x, "npow": y} if e else {"re": x, "im": y} for e, x, y in zip(block.exact, a, b)]
        return [(f"{x}/{q}^{y}" if y else str(x)) if e else repr(complex(x, y)) for e, x, y in zip(block.exact, a, b)]

    return side(block.lhs_a, block.lhs_b), side(block.rhs_a, block.rhs_b)


def _cells(block: ReportBlock):
    """(statement, q, instance, lhs, rhs, residual, pass) per row, lhs and rhs as printed."""
    return zip(repeat(block.name), repeat(block.q), block.instances, *_sides(block), block.residual, block.passed)


def render_reports(blocks: list[ReportBlock], summaries: list[SweepSummary], fmt: str) -> str:
    """The report stream: each block's rows in order, then the summaries."""
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["statement", "q", "instance", "lhs", "rhs", "residual", "pass"])
        for block in blocks:
            w.writerows(
                [name, q, instance, lhs, rhs, repr(residual), "true" if passed else "false"]
                for name, q, instance, lhs, rhs, residual, passed in _cells(block)
            )
        w.writerow([])
        w.writerow(["statement", "primes", "instances", "failures", "max_residual", "first_failure"])
        for s in summaries:
            w.writerow(
                [
                    s.statement,
                    " ".join(str(p) for p in s.primes),
                    s.instances,
                    s.failures,
                    repr(s.max_residual),
                    s.first_failure,
                ]
            )
        return buf.getvalue()
    if fmt == "json":
        payload = [
            {
                "statement": b.name,
                "q": b.q,
                "instance": instance,
                "lhs": lhs,
                "rhs": rhs,
                "residual": residual,
                "tolerance": tolerance,
                "pass": passed,
            }
            for b in blocks
            for instance, lhs, rhs, residual, tolerance, passed in zip(
                b.instances, *_sides(b, as_json=True), b.residual, b.tolerance, b.passed
            )
        ]
        payload.append({"summaries": [asdict(s) for s in summaries]})
        return json.dumps(payload, indent=2) + "\n"
    lines = []
    for block in blocks:
        lines.extend(
            f"{'PASS' if passed else 'FAIL'} {name} q={q} [{instance}] "
            f"lhs={lhs} rhs={rhs} residual={residual:.3e}"
            for name, q, instance, lhs, rhs, residual, passed in _cells(block)
        )
    lines.append("")
    for s in summaries:
        lines.append(
            f"summary {s.statement}: {s.instances} instances over primes "
            f"{s.primes}, {s.failures} failures, max residual {s.max_residual:.3e}"
            + (f", first failure: {s.first_failure}" if s.first_failure else "")
        )
    return "\n".join(lines) + "\n"


def render_sweep_rows(rows: list[dict], summary: SweepSummary, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"rows": rows, "summary": asdict(summary)}, indent=2) + "\n"
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if rows:
        header = list(rows[0].keys())
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row.values()])
    return buf.getvalue()


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
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
    _charge(_per_prime(("field", *statements), primes), budget)
    blocks: dict[str, list[ReportBlock]] = {label: [] for label in statements}
    for q in primes:
        tables = SumTables(make_field(q))
        for label in statements:
            blocks[label].append(identities.run_statement(label, tables, seed))
    summaries = [identities.summarize(label, *blocks[label]) for label in statements]
    _emit(render_reports([b for bs in blocks.values() for b in bs], summaries, fmt), out)
    # A statement with no instances checked nothing; that is not a pass.
    vacuous = [s.statement for s in summaries if s.instances == 0]
    for label in vacuous:
        print(f"warning: {label} has no instances over primes {primes}", file=sys.stderr)
    return EXIT_OK if all(s.failures == 0 for s in summaries) and not vacuous else EXIT_FAILED


# -- sweep -----------------------------------------------------------------


def cmd_sweep(primes: list[int], which: str, budget: int, fmt: str, out: str | None) -> int:
    """One trend table over the primes, every prime's table charged before the first is built."""
    moments = which == "moments"
    _charge(_per_prime(("moments" if moments else "trace",), primes), budget)
    rows, summary = identities.moment_sweep_rows(primes) if moments else identities.estimate_sweep(primes, which)
    _emit(render_sweep_rows(rows, summary, fmt), out)
    return EXIT_OK if summary.failures == 0 else EXIT_FAILED


# -- eval -----------------------------------------------------------------


def _parse_indices(text: str | None, what: str) -> list[int]:
    if text is None:
        raise UsageError(f"--{what} is required for this function")
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        raise UsageError(f"bad --{what} value {text!r}") from e


def cmd_eval(args) -> int:
    start = time.perf_counter()
    _charge(_per_prime(("field",), (args.q,)), DEFAULT_BUDGET)
    f = make_field(args.q)
    tables = SumTables(f)
    fn = args.fn
    lines = []
    if fn in ("trace-legendre", "trace-clausen"):
        if args.lam is None:
            raise UsageError("--lambda is required for trace functions")
        rec = legendre_trace(f, args.lam) if fn == "trace-legendre" else clausen_trace(f, args.lam)
        lines.append(f"trace = {rec.trace}")
        lines.append(f"count = {rec.count}")
    elif fn == "gauss":
        idx = _parse_indices(args.chars, "chars")
        if len(idx) != 1:
            raise UsageError("gauss needs one character index, e.g. --chars 3")
        (j,) = idx
        lines.append(f"g(chi_{j}) = {complex(tables.gauss_vector[j % (f.q - 1)])!r}")
    elif fn == "jacobi":
        idx = _parse_indices(args.chars, "chars")
        if len(idx) != 2:
            raise UsageError("jacobi needs two character indices, e.g. --chars 1,3")
        lines.append(f"J(chi_{idx[0]}, chi_{idx[1]}) = {tables.jacobi_index(idx[0], idx[1])!r}")
    elif fn == "appell":
        idx = _parse_indices(args.chars, "chars")
        if len(idx) != 4 or args.x is None or args.y is None:
            raise UsageError("appell needs --chars a,b,c,cp plus --x and --y")
        chars = [Character(f, j) for j in idx]
        val = appell_f4(*chars, args.x, args.y, tables)
        lines.append(f"F4* = {val!r}")
    else:
        m = re.fullmatch(r"(\d+)F(\d+)", fn)
        if not m or int(m.group(1)) != int(m.group(2)) + 1:
            raise UsageError(f"unknown function {fn!r}; expected e.g. 2F1, 3F2, trace-legendre, gauss")
        n = int(m.group(2))
        if args.x is None:
            raise UsageError("--x is required for hypergeometric evaluation")
        if args.uppers or args.lowers:
            ups = [Character(f, j) for j in _parse_indices(args.uppers, "uppers")]
            los = [Character(f, j) for j in _parse_indices(args.lowers or "", "lowers")] if n else []
            params = HyperParams(tuple(ups), tuple(los))
            if params.n != n:
                raise UsageError(f"{fn} needs {n + 1} uppers and {n} lowers")
            val = hyper_char(params, args.x, tables)
            lines.append(f"{fn}({args.x}) = {val!r}")
        else:
            float_scale(n, f.q)  # refuse a scale reconstruct would refuse, before any work
            params = HyperParams.phi_eps(f, n)
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
    ps.add_argument("--which", choices=("F43", "F65", "moments"), required=True)
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
