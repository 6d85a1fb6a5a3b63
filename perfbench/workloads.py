"""The benchmark workloads: the argv each sends to ``ffhyper.cli.run``, and
the checks on what comes back.

A workload is built from the benchmark seed, and the program sees only
the argv.  ``argvs`` is one pass; ``check`` takes the calls of one pass
and returns ``(attempted, failed)`` operations.  The checks recompute
what they can by a path independent of the one that produced the output.
"""

from __future__ import annotations

import cmath
import csv
import inspect
import io
import math
import random
import re
from collections import Counter
from dataclasses import dataclass


@dataclass
class Call:
    code: int | None  # None when cli.run raised
    out: str
    seconds: float


def odd_primes(lo: int, hi: int) -> list[int]:
    """Odd primes in [lo, hi], by a sieve of the benchmark's own."""
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, hi + 1, p)))
    return [n for n in range(max(lo, 3), hi + 1) if sieve[n]]


def _original(fn):
    """``fn`` as defined, even while the tracer has wrapped it."""
    return inspect.unwrap(fn)


# -- verify-sweep -----------------------------------------------------------------

# Checks per statement and prime, for primes above 13, from the instance sets
# that run_statement documents: fixed counts, except that trace-bridge checks
# every lambda in 2..q-1 once per curve family.
_CHECKS_PER_PRIME = {
    "first-moment": lambda q: 6,
    "trace-moments": lambda q: 3,
    "second-moment": lambda q: 4,
    "trace-bridge": lambda q: 2 * (q - 2),
    "contiguous": lambda q: 5,
    "inductive-k": lambda q: 8,
    "product": lambda q: 5,
    "generating": lambda q: 4,
    "closed-form": lambda q: 4,
    "remark-sums": lambda q: 8,
}
STATEMENTS = tuple(_CHECKS_PER_PRIME)


class VerifySweep:
    """``verify --statements all`` over 11 primes, csv report."""

    name = "verify-sweep"
    primes = (101, 151)

    def __init__(self, seed: int):
        lo, hi = self.primes
        self.argvs = [
            ["verify", "--primes", f"{lo}..{hi}", "--statements", "all", "--seed", str(seed), "--format", "csv"]
        ]
        primes = odd_primes(lo, hi)
        self.expected = {s: sum(per(q) for q in primes) for s, per in _CHECKS_PER_PRIME.items()}
        self._first_report: str | None = None

    def check(self, calls: list[Call]) -> tuple[int, int]:
        (call,) = calls
        attempted = sum(self.expected.values())
        failed = call.code != 0
        try:
            report, _, summary = call.out.partition("\n\n")
            rows = list(csv.DictReader(io.StringIO(report)))
            summaries = {s["statement"]: s for s in csv.DictReader(io.StringIO(summary))}
            failed += sum(r["pass"] != "true" for r in rows)
            counts = Counter(r["statement"] for r in rows)
            failed += set(counts) != set(self.expected) or set(summaries) != set(self.expected)
            for label, n in self.expected.items():
                s = summaries.get(label)
                # A vacuous pass shows as a short count.
                failed += counts[label] != n or s is None or s["instances"] != str(n) or s["failures"] != "0"
        except (KeyError, ValueError, csv.Error):
            return attempted, attempted
        if self._first_report is None:
            self._first_report = call.out
        failed += call.out != self._first_report
        return attempted, min(int(failed), attempted)


# -- sweep-traces -----------------------------------------------------------------


class SweepTraces:
    """``sweep --which F43`` then ``--which F65`` over 214 primes.

    The sweeps have no random inputs, so the seed changes nothing here.
    """

    name = "sweep-traces"
    primes = (101, 1499)

    def __init__(self, seed: int):
        lo, hi = self.primes
        self.argvs = [["sweep", "--which", which, "--primes", f"{lo}..{hi}"] for which in ("F43", "F65")]
        self._primes = odd_primes(lo, hi)

    def check(self, calls: list[Call]) -> tuple[int, int]:
        attempted = len(self._primes) * len(calls)
        failed = 0
        for call in calls:
            failed += call.code != 0
            try:
                rows = list(csv.DictReader(io.StringIO(call.out)))
                failed += sum(r["pass"] != "True" for r in rows)
                failed += [int(r["q"]) for r in rows] != self._primes
            except (KeyError, ValueError, csv.Error):
                return attempted, attempted
        return attempted, min(failed, attempted)


# -- eval-cold ----------------------------------------------------------------------

# Queries per kind in one pass.  Each kind's primes are drawn one from each
# of that many equal slices of EVAL_PRIMES, so every seed spreads every kind
# over the same range of sizes; the last slice always gives the largest
# prime, so that peak memory does not depend on the seed.
EVAL_MIX = (
    ("2F1", 36),
    ("3F2", 36),
    ("4F3", 36),
    ("3F2-chars", 28),
    ("appell", 24),
    ("gauss", 24),
    ("jacobi", 24),
    ("trace-legendre", 16),
    ("trace-clausen", 16),
)
EVAL_PRIMES = (401, 1699)


@dataclass(frozen=True)
class Query:
    kind: str
    q: int
    x: int  # the argument x, or lambda for traces
    chars: tuple[int, ...]
    argv: tuple[str, ...]


def _query(kind: str, q: int, rng: random.Random) -> Query:
    n = q - 1
    head = ("eval", "--q", str(q))
    if kind in ("2F1", "3F2", "4F3"):
        # x outside {0, 1}: the 2F1 and 3F2 checks go through curve traces at x.
        x = rng.randrange(2, q)
        return Query(kind, q, x, (), head + ("--fn", kind, "--x", str(x)))
    if kind == "3F2-chars":
        ups = tuple(rng.randrange(n) for _ in range(3))
        los = tuple(rng.randrange(n) for _ in range(2))
        x = rng.randrange(1, q)
        argv = ("--fn", "3F2", "--x", str(x), "--uppers", ",".join(map(str, ups)),
                "--lowers", ",".join(map(str, los)))
        return Query(kind, q, x, ups + los, head + argv)
    if kind == "appell":
        chars = tuple(rng.randrange(n) for _ in range(4))
        x, y = rng.randrange(1, q), rng.randrange(1, q)
        argv = ("--fn", "appell", "--chars", ",".join(map(str, chars)), "--x", str(x), "--y", str(y))
        return Query(kind, q, x, chars, head + argv)
    if kind == "gauss":
        j = rng.randrange(n)
        return Query(kind, q, 0, (j,), head + ("--fn", "gauss", "--chars", str(j)))
    if kind == "jacobi":
        # a, b and a+b nontrivial, so that |J(a, b)| = sqrt(q) exactly.
        while True:
            a, b = rng.randrange(1, n), rng.randrange(1, n)
            if (a + b) % n:
                break
        return Query(kind, q, 0, (a, b), head + ("--fn", "jacobi", "--chars", f"{a},{b}"))
    if kind == "trace-legendre":
        lam = rng.randrange(2, q)
    elif kind == "trace-clausen":
        lam = rng.randrange(1, q - 1)
    else:
        raise ValueError(f"unknown eval kind {kind!r}")
    return Query(kind, q, lam, (), head + ("--fn", kind, "--lambda", str(lam)))


def eval_queries(seed: int) -> list[Query]:
    """The eval-cold query list for ``seed``: same seed, same list."""
    rng = random.Random(f"eval-cold:{seed}")
    primes = odd_primes(*EVAL_PRIMES)
    out = []
    for kind, count in EVAL_MIX:
        for i in range(count - 1):
            lo, hi = i * len(primes) // count, (i + 1) * len(primes) // count
            out.append(_query(kind, primes[rng.randrange(lo, hi)], rng))
        out.append(_query(kind, primes[-1], rng))
    rng.shuffle(out)
    return out


_ELAPSED = re.compile(r"elapsed \d+\.\d+s")


def _complex(text: str) -> complex:
    m = re.fullmatch(r"(?:np\.complex128)?\((.*)\)", text)
    z = complex(m.group(1) if m else text)
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite value {text}")
    return z


def _value(line: str, lhs: str) -> str:
    head, sep, value = line.partition(" = ")
    if head != lhs or not sep:
        raise ValueError(f"expected {lhs} = ..., got {line!r}")
    return value


def _phi(q: int, a: int) -> int:
    """Legendre symbol by Euler's criterion, for a not divisible by q."""
    return 1 if pow(a % q, (q - 1) // 2, q) == 1 else -1


def _check_phi_eps(query: Query, lines: list[str]) -> bool:
    """Exact value, its float, and for 2F1 and 3F2 a curve-trace identity."""
    from ffhyper.curves import clausen_trace, legendre_trace
    from ffhyper.field import make_field

    q, x = query.q, query.x
    order = int(query.kind[0]) - 1
    (line,) = lines
    m = re.fullmatch(rf"(-?\d+)(?:/{q}\^(\d+))? = (\S+)", _value(line, f"{query.kind}({x})"))
    if m is None:
        return False
    num, npow, real = int(m.group(1)), int(m.group(2) or 0), float(m.group(3))
    if npow > order or abs(real * q**order - num * q ** (order - npow)) >= 0.01:
        return False
    scaled = num * q ** (order - npow)  # q^order * F(x)
    field = _original(make_field)(q)
    if order == 1:
        # q * phi(-1) * 2F1(x) = -a_x for the Legendre curve at lambda = x.
        return scaled == -_phi(q, -1) * _original(legendre_trace)(field, x).trace
    if order == 2:
        # a'_mu^2 = q + phi(1-x) * q^2 * 3F2(x) for the Clausen curve at mu = x/(1-x).
        mu = x * pow(1 - x, -1, q) % q
        return _original(clausen_trace)(field, mu).trace ** 2 == q + _phi(q, 1 - x) * scaled
    return True


def _check_eval(query: Query, lines: list[str]) -> bool:
    q, kind = query.q, query.kind
    if kind in ("2F1", "3F2", "4F3"):
        return _check_phi_eps(query, lines)
    if kind in ("trace-legendre", "trace-clausen"):
        trace_line, count_line = lines
        trace = int(_value(trace_line, "trace"))
        return int(_value(count_line, "count")) == q + 1 - trace and trace * trace <= 4 * q
    (line,) = lines
    if kind == "3F2-chars":
        _complex(_value(line, f"3F2({query.x})"))
        return True
    if kind == "appell":
        _complex(_value(line, "F4*"))
        return True
    if kind == "gauss":
        (j,) = query.chars
        g = _complex(_value(line, f"g(chi_{j})"))
        return g == -1 if j % (q - 1) == 0 else abs(abs(g) - math.sqrt(q)) < 1e-9 * q
    if kind == "jacobi":
        a, b = query.chars
        return abs(abs(_complex(_value(line, f"J(chi_{a}, chi_{b})"))) - math.sqrt(q)) < 1e-9 * q
    raise ValueError(f"unknown eval kind {kind!r}")


class EvalCold:
    """One-shot ``eval`` queries, each on a fresh field and fresh tables."""

    name = "eval-cold"

    def __init__(self, seed: int):
        self.queries = eval_queries(seed)
        self.argvs = [list(query.argv) for query in self.queries]

    def check(self, calls: list[Call]) -> tuple[int, int]:
        failed = 0
        for query, call in zip(self.queries, calls, strict=True):
            lines = call.out.splitlines()
            try:
                ok = call.code == 0 and bool(lines) and bool(_ELAPSED.fullmatch(lines[-1]))
                ok = ok and _check_eval(query, lines[:-1])
            except ValueError:
                ok = False
            failed += not ok
        return len(calls), failed


WORKLOADS = {w.name: w for w in (VerifySweep, SweepTraces, EvalCold)}
