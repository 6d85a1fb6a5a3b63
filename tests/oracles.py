"""Independent references that the tests compare the library against.

None of these runs in a command: each is the slow, direct form of
something `ffhyper` computes another way (the descent relation, the
exact phi/eps descent, Gauss sums and the Appell series F4*, the point
count, the cyclic correlation, the exact-row judge, the per-lambda trace
bridges, a summary read off rows, reading a JSON report back, the
per-prime tables read by gathers over index arrays), plus the
row type IdentityReport that they return, rows(block), the one place a
ReportBlock's columns are built into rows, and the helpers that drive the
bridge oracles, judge one check's sides by the production builders, and
perturb the trace tables and hypergeometric values the checks read.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

import ffhyper.identities as ids
from ffhyper.characters import character_row
from ffhyper.charsums import SumTables
from ffhyper.errors import RejectedInput, SingularParameter
from ffhyper.field import PrimeField
from ffhyper.hypergeo import EXACT_GAP, HyperParams, QPowerRational, hyper_all_x, reconstruct
from ffhyper.identities import ReportBlock, SweepSummary, _max_residual, _trace_table

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


# -- Gauss sums and the Appell series ------------------------------------------------


def gauss_naive(field: PrimeField, j: int) -> complex:
    """g(chi_j) = sum_{x != 0} chi_j(x) zeta_q^x by direct summation, with cmath only."""
    q = field.q
    total = 0j
    for x in range(1, q):
        chi = cmath.exp(2j * cmath.pi * j * int(field.dlog[x]) / (q - 1))
        total += chi * cmath.exp(2j * cmath.pi * x / q)
    return total


def appell_f4_naive(field: PrimeField, a: int, b: int, c: int, cp: int, x: int, y: int) -> complex:
    """F4*(chi_a; chi_b; chi_c, chi_cp; x, y) by its defining double sum, O(q^2).

    sum_{u,v} pair[u+v] G_C[u] chi_u(x) G_C'[v] chi_v(y) / ((q-1)^2 denom), with
    pair[s] = g(A chi_s) g(B chi_s), G_C[u] = g(conj(C) chi_-u) g(chi_-u),
    denom = g(A) g(B) g(conj(C)) g(conj(C')), Gauss sums by gauss_naive, and
    every character 0 at 0, so the sum is 0 where x or y is 0.
    """
    q, n = field.q, field.q - 1
    g = [gauss_naive(field, j) for j in range(n)]

    def chi(t: int) -> list[complex]:
        t %= q
        return [cmath.exp(2j * cmath.pi * u * int(field.dlog[t]) / n) if t else 0j for u in range(n)]

    chi_x, chi_y = chi(x), chi(y)
    total = 0j
    for u in range(n):
        for v in range(n):
            s = u + v
            total += (
                g[(a + s) % n] * g[(b + s) % n]
                * g[(-c - u) % n] * g[-u % n] * g[(-cp - v) % n] * g[-v % n]
                * chi_x[u] * chi_y[v]
            )
    return total / (n * n * g[a % n] * g[b % n] * g[-c % n] * g[-cp % n])


# -- per-prime tables read by gathers over index arrays --------------------------------
#
# The library reads these tables by slices and two-slice rotations; these are
# the same reads as gathers over np.arange index arrays, each product kept
# with the operands it had there (a temporary or a named array), so the two
# must agree bit for bit, also past the size where numpy reuses temporaries.


def line_bins_gathered(f: PrimeField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """d1 = dlog x, d2 = dlog(1-x) and the bins (d1-d2) mod (q-1), x in 2..q-1."""
    xs = np.arange(2, f.q)
    d1 = f.dlog[xs]
    d2 = f.dlog[(1 - xs) % f.q]
    return d1, d2, (d1 - d2) % (f.q - 1)


def line_kernel_gathered(tables: SumTables, diff: int, by_dlog: np.ndarray | None = None) -> np.ndarray:
    """charsums._line_kernel with its d1, d2 and bins from line_bins_gathered."""
    f = tables.field
    n = f.q - 1
    d1, d2, bins = line_bins_gathered(f)
    weights = f.unit_roots[(diff * d2) % n]
    if by_dlog is not None:
        weights = weights * by_dlog[d1]
    hist = np.zeros(n, dtype=complex)
    np.add.at(hist, bins, weights)
    line = np.fft.ifft(hist) * n / f.q
    line[(diff + 1) % 2 :: 2] *= -1
    return line


def coeff_product_gathered(params: HyperParams, tables: SumTables) -> np.ndarray:
    """hypergeo._coeff_product, each slot's line rotated by a modular index array."""
    n = params.q - 1
    ks = np.arange(n)
    a0 = params.uppers[0]
    c = tables.binomial_line(a0)[(ks + a0) % n]
    for up, lo in zip(params.uppers[1:], params.lowers):
        c *= tables.binomial_line(up - lo)[(ks + up) % n]
    c *= params.q / n
    return c


def twisted_sum_gathered(params: HyperParams, weights: np.ndarray, x: int, tables: SumTables) -> complex:
    """hypergeo.hyper_twisted_sum at x != 0, its last slot rotated by a modular index array."""
    f = tables.field
    n = f.q - 1
    a = params.uppers[-1]
    d = (a - params.lowers[-1]) % n
    last = line_kernel_gathered(tables, d, np.fft.ifft(weights) * n)[(np.arange(n) + a) % n]
    c = coeff_product_gathered(params.dropped_last(), tables) * last
    return complex((c * character_row(f, x % f.q)).sum())


def f4_spectra_gathered(tables: SumTables, ai: int, bi: int, ci: int, cpi: int):
    """hypergeo._f4_spectra with every Gauss-vector read a modular index array."""
    n = tables.field.q - 1
    g = tables.gauss_vector
    denom = g[ai] * g[bi] * g[(-ci) % n] * g[(-cpi) % n]
    ks = np.arange(n)
    weights = np.fft.fft(g[(ks + ai) % n] * g[(ks + bi) % n]) / (n**3 * denom)

    def doubled(lower: int) -> np.ndarray:
        spec = np.fft.ifft(g[(-lower - ks) % n] * g[(-ks) % n]) * n
        return np.concatenate((spec, spec[:-1]))

    return weights, doubled(ci), doubled(cpi)


def inductive_sum_gathered(free: HyperParams, k: int, x: int, tables: SumTables) -> complex:
    """identities._inductive_sum with b read as np.arange(1, q)."""
    q = tables.field.q
    vals_free = hyper_all_x(free, tables)
    vals_phi = hyper_all_x(HyperParams.phi_eps(q, k - 1), tables)
    bs = np.arange(1, q)
    return complex((tables.field.legendre_table[bs] * vals_free[(bs * x) % q] * vals_phi[bs]).sum())


def bridge_mus_gathered(f: PrimeField) -> np.ndarray:
    """mu = lambda/(1-lambda) for lambda in 2..q-1, off the dlog of lambda and of 1-lambda."""
    lams = np.arange(2, f.q)
    return f.exp[(f.dlog[lams] - f.dlog[(1 - lams) % f.q]) % (f.q - 1)]


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


# -- rows ------------------------------------------------------------------------------


@dataclass
class IdentityReport:
    """One judged row: its check, sides (complex or QPowerRational), residual, tolerance and pass."""

    name: str
    q: int
    instance: str
    lhs: object
    rhs: object
    residual: float
    tolerance: float
    passed: bool


def rows(block: ReportBlock) -> list[IdentityReport]:
    """A block's rows built from its columns, each side a QPowerRational (exact block) or a complex."""
    side = QPowerRational if block.exact else complex
    return [
        IdentityReport(block.name, block.q, instance, side(la, lb), side(ra, rb), residual, block.tolerance, passed)
        for instance, la, lb, ra, rb, residual, passed in zip(
            block.instances, block.lhs_a, block.lhs_b, block.rhs_a, block.rhs_b, block.residual, block.passed
        )
    ]


def judged(name: str, q: int, sides: tuple) -> IdentityReport:
    """One check's sides as the judged row its statement's block holds, by the production builders."""
    return rows(ids._block(name, q, [sides]))[0]


def summary_of(name: str, reports: list[IdentityReport]) -> SweepSummary:
    """summarize's result read off rows: counts, first failure and the NaN-sticky largest residual."""
    failed = [r for r in reports if not r.passed]
    first = f"q={failed[0].q} {failed[0].instance}" if failed else ""
    residual = _max_residual([r.residual for r in reports])
    return SweepSummary(name, sorted({r.q for r in reports}), len(reports), len(failed), first, residual)


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
