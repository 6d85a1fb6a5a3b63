"""Command-line front end: evaluate, verify, sweep.

Exit codes are a function of results only: 0 all checks pass, 1 any
identity failure or a verify statement with no instances, 2 usage or
configuration error, 3 work budget exceeded.  Verify processes one prime
at a time and sorts its reports by (statement, prime) before writing, so
the bytes emitted depend only on the configuration; CSV and JSON are
UTF-8 with LF line endings.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
import time
from dataclasses import asdict, dataclass

from . import identities
from .characters import Character
from .charsums import SumTables
from .curves import clausen_trace, legendre_trace
from .errors import FFHyperError, Infeasible, NotRational, RejectedInput
from .field import is_prime, make_field, primes_in_range
from .hypergeo import (
    DEFAULT_BUDGET,
    HyperParams,
    QPowerRational,
    appell_f4,
    hyper_char,
    reconstruct,
)
from .identities import IdentityReport, SweepSummary

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


@dataclass
class RunConfig:
    primes: list[int]
    statements: list[str]
    seed: int
    work_budget: int
    output_format: str
    output_path: str | None


class UsageError(ValueError):
    pass


def parse_primes(text: str, strict: bool) -> list[int]:
    """Parse 'a..b' or 'a,b,c' into a sorted list of odd primes.

    Strict mode (the default) rejects any non-prime entry or range
    endpoint instead of silently skipping it.
    """
    text = text.strip()
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as e:
            raise UsageError(f"bad prime range {text!r}") from e
        if strict:
            for end in (lo, hi):
                if end == 2 or not is_prime(end):
                    raise UsageError(
                        f"range endpoint {end} is not an odd prime (pass --no-strict to allow)"
                    )
        primes = primes_in_range(lo, hi)
    else:
        try:
            entries = [int(tok) for tok in text.split(",") if tok.strip()]
        except ValueError as e:
            raise UsageError(f"bad prime list {text!r}") from e
        if strict:
            for n in entries:
                if n == 2 or not is_prime(n):
                    raise UsageError(f"{n} is not an odd prime (pass --no-strict to allow)")
            primes = entries
        else:
            primes = [n for n in entries if n != 2 and is_prime(n)]
    primes = sorted(set(primes))
    if not primes:
        raise UsageError(f"prime selection {text!r} is empty")
    return primes


def parse_statements(text: str) -> list[str]:
    if text.strip() == "all":
        return list(identities.STATEMENTS)
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok not in identities.STATEMENTS:
            raise UsageError(f"unknown statement {tok!r}; known: {', '.join(identities.STATEMENTS)}")
        out.append(tok)
    if not out:
        raise UsageError("statement selection is empty")
    return out


# -- report serialization -----------------------------------------------------


def fmt_value(v, q: int) -> str:
    if isinstance(v, QPowerRational):
        return v.fmt(q)
    c = complex(v)
    return repr(c)


def value_to_json(v):
    if isinstance(v, QPowerRational):
        return {"num": v.num, "npow": v.npow}
    c = complex(v)
    return {"re": c.real, "im": c.imag}


def value_from_json(d):
    if "num" in d:
        return QPowerRational(d["num"], d["npow"])
    return complex(d["re"], d["im"])


def report_to_json(r: IdentityReport) -> dict:
    return {
        "statement": r.name,
        "q": r.q,
        "instance": r.instance,
        "lhs": value_to_json(r.lhs),
        "rhs": value_to_json(r.rhs),
        "residual": r.residual,
        "tolerance": r.tolerance,
        "pass": r.passed,
    }


def report_from_json(d: dict) -> IdentityReport:
    return IdentityReport(
        d["statement"],
        d["q"],
        d["instance"],
        value_from_json(d["lhs"]),
        value_from_json(d["rhs"]),
        d["residual"],
        d["tolerance"],
        d["pass"],
    )


def render_reports(reports: list[IdentityReport], summaries: list[SweepSummary], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["statement", "q", "instance", "lhs", "rhs", "residual", "pass"])
        for r in reports:
            w.writerow(
                [
                    r.name,
                    r.q,
                    r.instance,
                    fmt_value(r.lhs, r.q),
                    fmt_value(r.rhs, r.q),
                    repr(r.residual),
                    "true" if r.passed else "false",
                ]
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
        payload = [report_to_json(r) for r in reports]
        payload.append({"summaries": [asdict(s) for s in summaries]})
        return json.dumps(payload, indent=2) + "\n"
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status} {r.name} q={r.q} [{r.instance}] "
            f"lhs={fmt_value(r.lhs, r.q)} rhs={fmt_value(r.rhs, r.q)} residual={r.residual:.3e}"
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
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# -- verify -----------------------------------------------------------------


def cmd_verify(config: RunConfig) -> int:
    # One prime at a time, so only one field's tables are alive at once.
    results = []
    for q in config.primes:
        # The field tables and one length-(q-1) transform, which every
        # statement pays.
        cost = q * q.bit_length()
        if cost > config.work_budget:
            raise Infeasible(f"field cost q*log2(q) = {cost} exceeds budget {config.work_budget}")
        tables = SumTables(make_field(q))
        for si, label in enumerate(config.statements):
            try:
                reports = identities.run_statement(label, tables, config.seed, config.work_budget)
            except NotRational as e:
                reports = [
                    IdentityReport(
                        label, q, "<reconstruction failure>", 0j, 0j, e.residual, 0.0, False
                    )
                ]
            results.append((si, q, reports))
    results.sort(key=lambda item: (item[0], item[1]))

    reports: list[IdentityReport] = []
    for _, _, chunk in results:
        reports.extend(chunk)
    summaries = [
        identities.summarize(label, [r for r in reports if r.name == label])
        for label in config.statements
    ]
    _emit(render_reports(reports, summaries, config.output_format), config.output_path)
    # A statement with no instances checked nothing; that is not a pass.
    vacuous = [s.statement for s in summaries if s.instances == 0]
    for label in vacuous:
        print(f"warning: {label} has no instances over primes {config.primes}", file=sys.stderr)
    return EXIT_OK if all(r.passed for r in reports) and not vacuous else EXIT_FAILED


# -- sweep -----------------------------------------------------------------


def cmd_sweep(config: RunConfig, which: str) -> int:
    if which == "moments":
        rows, summary = identities.moment_sweep_rows(config.primes, config.work_budget)
    else:
        rows, summary = identities.estimate_sweep(config.primes, which, config.work_budget)
    _emit(render_sweep_rows(rows, summary, config.output_format), config.output_path)
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
            params = HyperParams.phi_eps(f, n)
            val = hyper_char(params, args.x, tables)
            try:
                exact = reconstruct(val, n, f.q)
                lines.append(f"{fn}({args.x}) = {exact.fmt(f.q)} = {val.real!r}")
            except NotRational:
                lines.append(f"{fn}({args.x}) = {val!r}")
    elapsed = time.perf_counter() - start
    for line in lines:
        print(line)
    print(f"elapsed {elapsed:.6f}s")
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, fmt_choices, fmt_default) -> None:
    p.add_argument("--primes", required=True, help="range a..b or list a,b,c of odd primes")
    p.add_argument("--statements", default="all")
    p.add_argument("--seed", type=int, default=0)
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
        config = RunConfig(
            primes=parse_primes(args.primes, args.strict),
            statements=parse_statements(args.statements),
            seed=args.seed,
            work_budget=args.budget,
            output_format=args.fmt,
            output_path=args.out,
        )
        if args.command == "verify":
            return cmd_verify(config)
        return cmd_sweep(config, args.which)
    except Infeasible as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (UsageError, RejectedInput, FFHyperError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
