"""Independent references that the tests compare the library against.

None of these runs in a command: each is the slow, direct form of
something `ffhyper` computes another way (the descent relation, the
exact phi/eps descent, the point count, the cyclic correlation, the
exact-row judge, the per-lambda trace bridges, reading a JSON report
back), plus the helpers that drive the bridge oracles and perturb the
trace tables and hypergeometric values the checks read.
"""

import math

import numpy as np

import ffhyper.identities as ids
from ffhyper.charsums import SumTables
from ffhyper.errors import RejectedInput, SingularParameter
from ffhyper.field import PrimeField
from ffhyper.hypergeo import EXACT_GAP, HyperParams, QPowerRational, hyper_all_x, reconstruct
from ffhyper.identities import IdentityReport, _trace_table

# -- hypergeometric descent --------------------------------------------------------


def hyper_inductive_step(params: HyperParams, x: int, tables: SumTables) -> complex:
    """One descent step: peel the last slot and sum over the lower level.

    Equals hyper_char(params, x) for arbitrary characters; this is the
    implementation-independent check of the descent relation itself.
    """
    if params.n < 1:
        raise ValueError("descent needs at least one lower character")
    f = tables.field
    q = f.q
    x %= q
    if x == 0:
        return 0j
    an = params.uppers[-1]
    bn = params.lowers[-1]
    n = q - 1
    lower_vals = hyper_all_x(params.dropped_last(), tables)
    ys = np.arange(1, q)
    one_minus = (1 - ys) % q
    mask = one_minus != 0
    ys = ys[mask]
    one_minus = one_minus[mask]
    factor = f.unit_roots[(an * f.dlog[ys]) % n] * f.unit_roots[((bn - an) * f.dlog[one_minus]) % n]
    total = complex((lower_vals[(x * ys) % q] * factor).sum())
    sign = -1.0 if (an + bn) % 2 else 1.0
    return sign / q * total


def exact_numerators_naive(field: PrimeField, n: int) -> list[int]:
    """M_n[x] with (n+1)F_n(x) = phi(-1)**n * M_n[x] / q**n for the all-phi/eps family.

    The one-slot descent iterated on integer Legendre values from
    M_0[x] = eps(x) * phi(1-x), one Python sum per level and x: the
    independent oracle for hyper_exact_phi, O(n q^2).
    """
    q = field.q
    leg = [int(v) for v in field.legendre_table]
    table = [0] + [leg[(1 - x) % q] for x in range(1, q)]
    weights = [(y, leg[y] * leg[(1 - y) % q]) for y in range(2, q)]
    for _ in range(n):
        nxt = [0] * q
        for x in range(1, q):
            acc = 0
            for y, w in weights:
                acc += w * table[(x * y) % q]
            nxt[x] = acc
        table = nxt
    return table


# -- curve point counts ------------------------------------------------------------


def count_points_naive(field: PrimeField, family: str, lam: int) -> int:
    """#E(F_q) by enumerating all (x, y) pairs, plus the point at infinity.

    Test-only oracle; quadratic in q, use for q <= a few dozen.
    """
    q = field.q
    lam %= q
    count = 1  # infinity
    for x in range(q):
        if family == "legendre":
            rhs = x * (x - 1) * (x - lam) % q
        elif family == "clausen":
            rhs = (x - 1) * (x * x + lam) % q
        else:
            raise ValueError(f"unknown family {family!r}")
        for y in range(q):
            if y * y % q == rhs:
                count += 1
    return count


def hasse_bound(q: int) -> int:
    return math.isqrt(4 * q)


# -- cyclic correlation ----------------------------------------------------------------


def cyclic_correlation_naive(a: list[int], b: list[int]) -> list[int]:
    """c[l] = sum_y a[y] * b[(y + l) mod m] for l < m = len(a), one Python sum per l: O(m^2)."""
    m = len(a)
    return [sum(a[y] * b[(y + l) % m] for y in range(m)) for l in range(m)]


# -- exact rows ------------------------------------------------------------------------


def exact_report(
    name: str, q: int, instance: str, lhs: QPowerRational, rhs: QPowerRational, margin: float = 0.0
) -> IdentityReport:
    """lhs == rhs by cross-multiplying the two canonical values.

    A margin not below EXACT_GAP (NaN included) is a side's failed
    reconstruction: the row fails with the margin as its residual.
    """
    if not margin < EXACT_GAP:
        return IdentityReport(name, q, instance, lhs, rhs, margin, 0.0, False)
    diff = abs(lhs.num * q**rhs.npow - rhs.num * q**lhs.npow)
    return IdentityReport(name, q, instance, lhs, rhs, diff / q ** (lhs.npow + rhs.npow), 0.0, diff == 0)


# -- trace bridges, one lambda at a time ---------------------------------------------


def verify_legendre_bridge(lam: int, tables: SumTables) -> IdentityReport:
    """q*phi(-1)*2F1(lambda) reconstructs to minus the Legendre-family trace.

    Both sides are read off memoised whole-family tables: the trace table
    and the 2F1 values at every x (through identities' hyper_all_x, so
    patch_family moves them).  legendre_trace is their oracle.
    """
    f = tables.field
    q = f.q
    lam %= q
    if lam in (0, 1):
        raise SingularParameter(f"lambda = {lam} is singular for the Legendre family")
    trace = int(_trace_table("legendre", tables)[lam])
    f21 = ids.hyper_all_x(HyperParams.phi_eps(q, 1), tables)
    lhs = reconstruct(f.phi_minus_one * f21[lam], 1, q)
    rhs = QPowerRational.make(-trace, 1, q)
    return exact_report("trace-bridge", q, f"legendre lambda={lam}", lhs, rhs)


def verify_clausen_bridge(lam: int, tables: SumTables) -> IdentityReport:
    """Clausen trace squared against q + q^2 phi(1-lambda) 3F2(lambda).

    The trace at mu = lambda/(1-lambda) and 3F2(lambda) are read off
    memoised whole-family tables; clausen_trace is their oracle.
    """
    f = tables.field
    q = f.q
    lam %= q
    if lam in (0, 1):
        raise RejectedInput("lambda must avoid {0, 1}")
    mu = lam * f.inv((1 - lam) % q) % q
    trace = int(_trace_table("clausen", tables)[mu])
    f32 = ids.hyper_all_x(HyperParams.phi_eps(q, 2), tables)
    t2 = reconstruct(f32[lam], 2, q)
    t2 = t2.num * q ** (2 - t2.npow)  # q^2 * 3F2(lambda)
    lhs = QPowerRational.make(trace**2, 0, q)
    rhs = QPowerRational.make(q + f.legendre(1 - lam) * t2, 0, q)
    return exact_report("trace-bridge", q, f"clausen lambda={lam} mu={mu}", lhs, rhs)


def bridge_loop(tables: SumTables) -> list[IdentityReport]:
    """The trace-bridge rows by the per-lambda checks, in run_statement's order."""
    q = tables.field.q
    return [verify_legendre_bridge(lam, tables) for lam in range(2, q)] + [
        verify_clausen_bridge(lam, tables) for lam in range(2, q)
    ]


def patch_family(monkeypatch, offsets, table=1):
    """Move entries of the family tables: table[lam] += offset for each (family, lam).

    table 0 is a family's trace table, moved through its builder in
    identities, so only SumTables made after the patch read it; table 1
    its hypergeometric values (legendre 2F1, clausen 3F2), moved through
    identities' hyper_all_x as move_3f2 does.
    """

    def moved(family, values):
        values = values.copy()
        for (fam, lam), offset in offsets.items():
            if fam == family:
                values[lam] += offset
        return values

    if table == 0:
        for family in ("legendre", "clausen"):
            build = getattr(ids, f"{family}_trace_table")
            monkeypatch.setattr(
                ids, f"{family}_trace_table", lambda fields, b=build, fam=family: [moved(fam, t) for t in b(fields)]
            )
        return

    def all_x(params, tables, build=ids.hyper_all_x):
        values = build(params, tables)
        for family, n in (("legendre", 1), ("clausen", 2)):
            if params == HyperParams.phi_eps(params.q, n):
                return moved(family, values)
        return values

    monkeypatch.setattr(ids, "hyper_all_x", all_x)


def move_3f2(monkeypatch, lam):
    """Move the phi/eps 3F2 at lam by 0.02 at scale q^2, in every all-x table and point value the checks read."""

    def moved(fn):
        def wrapper(params, *args):
            value = fn(params, *args)
            if params != HyperParams.phi_eps(params.q, 2):
                return value
            offset = 0.02 / params.q**2
            if isinstance(value, np.ndarray):
                value = value.copy()
                value[lam] += offset
                return value
            return value + offset if args[0] == lam else value

        return wrapper

    monkeypatch.setattr(ids, "hyper_all_x", moved(ids.hyper_all_x))
    monkeypatch.setattr(ids, "hyper_char", moved(ids.hyper_char))


# -- reading a JSON report back --------------------------------------------------------


def value_from_json(d):
    if "num" in d:
        return QPowerRational(d["num"], d["npow"])
    return complex(d["re"], d["im"])


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
