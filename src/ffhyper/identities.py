"""One verification operation per identity, each returning the sides of its check.

Identities whose two sides live in q**-m * Z are checked in exact integer
arithmetic after rational reconstruction; everything else is checked in
floating point against a scale-aware tolerance.  Float sides are
(instance, lhs, rhs, floor), the floor a cross-check's residual; exact
sides are (instance, lhs, rhs, npow, margin), two integers over one power
of q rounded by hypergeo's one nearest-integer rule (reconstruct_ints, a
scalar side read as a 0-d array), and that rounding's margin.
Every statement's rows are of one kind, and one builder turns them into
its ReportBlock, columns only: _float_block judges against float_tol, and
_exact_block judges every exact row, trace-bridge's included, by one rule
(_judge), hypergeo's canonical form (_canonical) only filling the printed
sides.  A value that is not exact fails only the rows that read it, each
holding its nearest value over q**m and its margin as the residual.
The inductive b-sum sum_b phi(b) F_free(bx) F_{k-1}(b) is stated once:
verify_inductive_k compares it with F in floating point, and every
second-moment row (every free slot phi/eps, the x=1, n+1=2k peak
included) reconstructs both exactly.  Each curve family's trace table is
one memo entry per prime, read by trace-moments, trace-bridge,
remark-sums' cross-checks and the F43/F65 sweeps, so verify computes each
trace once per family and prime.  The trace bridges, 2(q-2) exact checks
per prime, are reconstructed one family per array pass; their per-lambda
oracle lives in the tests.
STATEMENTS maps each statement to the function that draws its instances
at one prime, never inside the checks, and checks them into one block,
and to its per-prime cost; every instance is fully described in its row
so failures reproduce.  SWEEPS does the same for the three sweeps
estimate_sweep runs: the trace-route 4F3(1) and 6F5(1) estimates, and
the first-moment block pivoted into one row per n.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .characters import Character, character_row
from .charsums import SumTables, _line_bins, _rotated
from .curves import _stack_runs, clausen_trace_table, legendre_trace_table
from .errors import Infeasible, RejectedInput
from .field import PrimeField, make_field
from .hypergeo import (
    EXACT_GAP,
    HyperParams,
    QPowerRational,
    _canonical,
    appell_f4_batch,
    hyper_all_x,
    hyper_char,
    hyper_twisted_sum,
    reconstruct_ints,
)


@dataclass(frozen=True, eq=False)
class ReportBlock:
    """The checks of one statement at one prime, held as columns; every row of one kind.

    Row i compares two sides, each held in two columns (a, b).  In an exact
    block every row holds numerator and power, the value a / q**b in
    QPowerRational's canonical form, judged with tolerance 0; in a float
    block every row holds the real and imaginary parts, judged against the
    block's one tolerance.  Columns are Python lists, so exact numerators
    stay unbounded.  len() is the row count; summarize and the cli
    renderers read the columns, and no row object is built.
    """

    name: str
    q: int
    exact: bool
    tolerance: float
    instances: list[str]
    lhs_a: list
    lhs_b: list
    rhs_a: list
    rhs_b: list
    residual: list[float]
    passed: list[bool]

    def __len__(self) -> int:
        return len(self.instances)


@dataclass
class SweepSummary:
    statement: str
    primes: list[int]
    instances: int
    failures: int
    first_failure: str
    max_residual: float


def float_tol(q: int) -> float:
    """Residual ceiling for floating-point identity checks."""
    return 1e-6 if q <= 31 else 1e-5


def _float_block(name: str, q: int, instances, lhs, rhs, floor) -> ReportBlock:
    """Float rows: |lhs - rhs|, raised to its floor (a cross-check's residual), within float_tol(q).

    hypot of the difference's parts is abs of a Python complex to the last
    bit, which np.abs is not; np.maximum keeps a NaN floor, which max drops.
    """
    lhs, rhs = np.asarray(lhs, dtype=complex), np.asarray(rhs, dtype=complex)
    d = lhs - rhs
    residual = np.maximum(np.hypot(d.real, d.imag), floor)
    tol = float_tol(q)
    columns = (lhs.real, lhs.imag, rhs.real, rhs.imag, residual, residual <= tol)
    return ReportBlock(name, q, False, tol, list(instances), *(c.tolist() for c in columns))


def _judge(lhs: np.ndarray, rhs: np.ndarray, npow: np.ndarray, margin: np.ndarray, q: int):
    """Residual and pass of exact rows lhs / q**npow against rhs / q**npow, margin their reconstruction margin.

    A row passes when its margin is below EXACT_GAP and lhs == rhs.  Its
    residual is the margin where that is not below the gap (NaN included),
    else |lhs - rhs| / q**npow, taken in Python ints: on int64 columns
    q**npow wraps silently past 2**63.
    """
    ok = margin < EXACT_GAP
    residual = np.where(ok, 0.0, margin)
    for i in np.flatnonzero(ok & (lhs != rhs)):
        residual[i] = abs(int(lhs[i]) - int(rhs[i])) / q ** int(npow[i])
    return residual, ok & (lhs == rhs)


def _exact_block(name: str, q: int, instances, lhs, rhs, npow, margin) -> ReportBlock:
    """Exact rows lhs / q**npow against rhs / q**npow, judged by _judge; each side's columns canonical."""
    # Arrays (trace-bridge's int64) stay as they are; Python ints stay unbounded in object columns.
    lhs, rhs = (c if isinstance(c, np.ndarray) else np.array(c, dtype=object) for c in (lhs, rhs))
    npow = np.asarray(npow, dtype=np.int64)
    residual, passed = _judge(lhs, rhs, npow, np.asarray(margin, dtype=float), q)
    columns = (*_canonical(lhs, npow, q), *_canonical(rhs, npow, q), residual, passed)
    return ReportBlock(name, q, True, 0.0, list(instances), *(c.tolist() for c in columns))


def _block(name: str, q: int, rows: Iterable[tuple]) -> ReportBlock:
    """One statement's rows of sides at q as one block, in order, by one builder call; no rows make a float block.

    Float sides are (instance, lhs, rhs, floor), exact sides (instance, lhs, rhs, npow, margin).
    """
    rows = list(rows)
    kinds = {len(r) for r in rows}
    if len(kinds) > 1:
        raise ValueError(f"{name} mixes float and exact rows")
    return (_exact_block if kinds == {5} else _float_block)(name, q, *(list(zip(*rows)) or [()] * 4))


def _idx(indices) -> str:
    return "(" + ",".join(map(str, indices)) + ")"


# -- contiguous relation (trailing slot repeated above and below) ---------------


def verify_contiguous(params: HyperParams, psi: int, x: int, tables: SumTables) -> tuple:
    """(n+2)F_{n+1} with chi_psi appended to both rows against its two-term closed form."""
    f = tables.field
    q = f.q
    x %= q
    if x == 0:
        raise RejectedInput("x must be nonzero")
    lhs = hyper_char(params.extended(psi), x, tables)
    p = psi % (q - 1)
    prod = tables.binomial_index(params.uppers[0] - p, -p)
    for up, lo in zip(params.uppers[1:], params.lowers):
        prod *= tables.binomial_index(up - p, lo - p)
    rhs = -hyper_char(params, x, tables) / q + prod * Character(f, -p)(x)
    return f"n={params.n} psi={p} x={x} up={_idx(params.uppers)} lo={_idx(params.lowers)}", lhs, rhs, 0.0


# -- inductive representation with k trailing phi/eps slots ---------------------


def _inductive_sum(free: HyperParams, k: int, x: int, tables: SumTables) -> complex:
    """sum over b != 0 of phi(b) F_free(b x) F_{k-1}(b), F_{k-1} the all-phi/eps kF_{k-1}."""
    q = tables.field.q
    vals_free = hyper_all_x(free, tables)
    vals_phi = hyper_all_x(HyperParams.phi_eps(q, k - 1), tables)
    bs = np.arange(1, q)
    return complex((tables.field.legendre_table[1:] * vals_free[(bs * x) % q] * vals_phi[1:]).sum())


def verify_inductive_k(
    n: int,
    k: int,
    free_uppers: tuple[int, ...],
    free_lowers: tuple[int, ...],
    x: int,
    tables: SumTables,
) -> tuple:
    """(n+1)F_n with k trailing phi/eps slots against its b-sum of lower levels."""
    if not n > k >= 1:
        raise RejectedInput(f"need n > k >= 1, got n={n}, k={k}")
    if len(free_uppers) != n - k + 1 or len(free_lowers) != n - k:
        raise RejectedInput("free slots must number n-k+1 uppers and n-k lowers")
    f = tables.field
    q = f.q
    x %= q
    if x == 0:
        raise RejectedInput("x must be nonzero")
    free = HyperParams(q, free_uppers, free_lowers)
    full = HyperParams(q, (*free.uppers, *((q - 1) // 2,) * k), (*free.lowers, *(0,) * k))
    rhs = f.phi_minus_one**k / q * _inductive_sum(free, k, x, tables)
    return f"n={n} k={k} x={x} up={_idx(free.uppers)} lo={_idx(free.lowers)}", hyper_char(full, x, tables), rhs, 0.0


# -- product of 2F1 and (n+1)F_n via the Appell series --------------------------


def verify_product(
    free_uppers: tuple[int, ...],
    free_lowers: tuple[int, ...],
    x: int,
    z: int,
    tables: SumTables,
) -> tuple:
    """2F1(z) * (n+1)F_n(x) against the three-term Appell decomposition.

    The third term sums F4*(phi, phi; eps, eps; z(1-w), w(1-z)) over w = 2..q-1,
    a curve memoised per z through SumTables.memo: O(q^2) work that this
    check does not bound, STATEMENTS gives the product's per-prime cost.
    """
    n = len(free_uppers) + 1
    if n < 2 or len(free_lowers) != n - 2:
        raise RejectedInput("free slots must number n-1 uppers and n-2 lowers with n >= 2")
    f = tables.field
    q = f.q
    x %= q
    z %= q
    if x in (0, 1) or z in (0, 1):
        raise RejectedInput("x and z must avoid {0, 1}")
    phi = (q - 1) // 2
    free = HyperParams(q, free_uppers, free_lowers)
    full = HyperParams(q, (*free.uppers, phi, phi), (*free.lowers, 0, 0))
    f21 = HyperParams.phi_eps(q, 1)
    lower_vals = hyper_all_x(free, tables)
    f21_z = hyper_char(f21, z, tables)
    lhs = f21_z * hyper_char(full, x, tables)
    t1 = (
        f.phi_minus_one
        / q**2
        * f.legendre(1 - z)
        * lower_vals[((1 - z) * x) % q]
    )
    t2 = lower_vals[x] * hyper_char(f21, 1, tables) * f21_z / q
    ws = np.arange(2, q)
    f4 = tables.memo(("f4-curve", z), lambda: appell_f4_batch(phi, phi, 0, 0, z * (1 - ws), ws * (1 - z), tables))
    t3 = complex((f.legendre_table[2:] * lower_vals[(ws * x) % q] * f4).sum())
    rhs = t1 + t2 + t3 / q**3
    return f"n={n} x={x} z={z} up={_idx(free.uppers)} lo={_idx(free.lowers)}", lhs, rhs, 0.0


# -- first moments of the all-phi/eps family -------------------------------------


FIRST_MOMENT_NS = (1, 2, 3)  # the n of the first-moment statement and the moments sweep


def first_moment(n: int, weighted: bool, tables: SumTables) -> tuple:
    """q**n * sum_y [phi(y)] F(y) against its closed-form sign."""
    if n < 1:
        raise RejectedInput("n must be at least 1")
    f = tables.field
    q = f.q
    vals = hyper_all_x(HyperParams.phi_eps(q, n), tables)
    if weighted:
        total = complex((f.legendre_table * vals).sum())
        expected = (-f.phi_minus_one) ** (n + 1)
    else:
        total = complex(vals.sum())
        expected = (-1) ** (n + 1)
    num, margin = reconstruct_ints(total, n, q)
    return f"n={n} {'weighted' if weighted else 'unweighted'}", int(num), expected, n, margin


# -- trace moment identities -------------------------------------------------------


def _trace_builder(family: str):
    """The legendre or clausen family's stacked table builder, read at call time so patches apply."""
    return legendre_trace_table if family == "legendre" else clausen_trace_table


def _trace_table(family: str, tables: SumTables) -> np.ndarray:
    """The legendre or clausen family's traces, indexed by the curve parameter; memoised."""
    return tables.memo(("trace", family), lambda f: _trace_builder(family)([f])[0], tables.field)


def verify_trace_moments(tables: SumTables) -> list[tuple]:
    """The three exact trace identities tying both curve families to 3F2(1)."""
    f = tables.field
    q = f.q
    leg = f.legendre_table
    f32, margin = reconstruct_ints(hyper_char(HyperParams.phi_eps(q, 2), 1, tables), 2, q)
    phi_m1 = f.phi_minus_one

    lhs1 = int(_trace_table("legendre", tables)[2:].sum()) + phi_m1
    ap2 = _trace_table("clausen", tables)[1 : q - 1] ** 2  # clausen-valid lambda = 1..q-2: not in {0, -1}
    lhs2 = int((leg[2:] * ap2).sum()) + q + int(f32)
    lhs3 = int((leg[1 : q - 1] * ap2).sum()) + q * phi_m1 + int(f32)

    return [
        ("sum a_lambda + phi(-1)", lhs1, -1, 0, 0.0),
        ("phi(1+lambda)-weighted clausen squares", lhs2, -1, 0, margin),
        ("phi(lambda)-weighted clausen squares", lhs3, -phi_m1, 0, margin),
    ]


# -- second weighted moments ----------------------------------------------------------


def second_weighted_moment(n: int, k: int, x: int, tables: SumTables) -> tuple:
    """(n+1)F_n(x), all phi/eps, against its lambda-sum of products, exactly; the x=1, n+1=2k row is the peak.

    This is the inductive-k identity with every free slot phi/eps: the
    lambda-sum over q**(n-1) and (n+1)F_n(x) over q**n are reconstructed,
    and compared as integers over q**(n-1).
    """
    if not n > k >= 1:
        raise RejectedInput(f"need n > k >= 1, got n={n}, k={k}")
    f = tables.field
    q = f.q
    x %= q
    if x == 0:
        raise RejectedInput("x must be nonzero")
    lambda_sum = _inductive_sum(HyperParams.phi_eps(q, n - k), k, x, tables)
    left, left_margin = reconstruct_ints(lambda_sum, n - 1, q)
    right, right_margin = reconstruct_ints(hyper_char(HyperParams.phi_eps(q, n), x, tables), n, q)
    inst = f"k={k} x=1 second-moment peak" if x == 1 and n + 1 == 2 * k else f"n={n} k={k} x={x}"
    return inst, int(left), f.phi_minus_one**k * int(right), n - 1, _max_residual((left_margin, right_margin))


# -- trace bridges -----------------------------------------------------------------


def trace_bridge_block(tables: SumTables) -> ReportBlock:
    """Both trace bridges at every lambda in 2..q-1, one array pass per family.

    A Legendre row checks that q*phi(-1)*2F1(lambda) reconstructs to minus
    the Legendre trace at lambda, two integers over q; a Clausen row checks
    the square of the Clausen trace at mu = lambda/(1-lambda) against
    q + q^2 phi(1-lambda) 3F2(lambda), two integers.  Each family is
    reconstructed in one reconstruct_ints call, and both families' rows are
    judged in one _exact_block call, so a lambda whose value fails
    reconstruction fails only its own row.  mu = exp[bins] reads the binomial
    lines' bins dlog(lambda/(1-lambda)), and phi(1-lambda) is legendre_table[:1:-1].
    """
    f = tables.field
    q = f.q
    a = _trace_table("legendre", tables)
    f21 = hyper_all_x(HyperParams.phi_eps(q, 1), tables)
    legendre_ints, legendre_margin = reconstruct_ints(f.phi_minus_one * f21[2:], 1, q)
    ap = _trace_table("clausen", tables)
    f32 = hyper_all_x(HyperParams.phi_eps(q, 2), tables)
    t2, clausen_margin = reconstruct_ints(f32[2:], 2, q)
    mus = f.exp[tables.memo("bins", _line_bins, f)]
    lhs = np.concatenate((legendre_ints, ap[mus] ** 2))
    rhs = np.concatenate((-a[2:], q + f.legendre_table[:1:-1] * t2))
    npow = np.repeat(np.array([1, 0], dtype=np.int64), q - 2)
    instances = [f"legendre lambda={lam}" for lam in range(2, q)]
    instances += [f"clausen lambda={lam} mu={mu}" for lam, mu in zip(range(2, q), mus.tolist())]
    return _exact_block("trace-bridge", q, instances, lhs, rhs, npow, np.concatenate((legendre_margin, clausen_margin)))


# -- generating function and the closed-form psi-sum -----------------------------------


def _nontrivial_psi_at(f: PrimeField, t: int) -> np.ndarray:
    """psi(t) for every nontrivial psi, and 0 for the trivial one."""
    w = character_row(f, t)
    w[0] = 0
    return w


def generating_boundary_term(params: HyperParams, x: int, t: int, tables: SumTables) -> complex:
    """The y = 1-t term of the descent sum behind the generating identity.

    Expanding F(x/(1-t)) by the one-slot descent and substituting
    v = y/(1-t) turns 1 - v(1-t) into (1-v)(1 + vt/(1-v)), which is
    undefined at v = 1; that term survives as
    (A_n B_n)(-1)/q * conj(A_n)B_n(t) * F_low(x) and must be subtracted
    from F(x/(1-t)) * conj(A_n)(1-t).  It vanishes exactly when the
    lower-level value at x does.
    """
    f = tables.field
    an = params.uppers[-1]
    bn = params.lowers[-1]
    sign = -1.0 if (an + bn) % 2 else 1.0
    return sign / f.q * Character(f, bn - an)(t) * hyper_char(params.dropped_last(), x, tables)


def verify_generating(params: HyperParams, x: int, t: int, tables: SumTables) -> tuple:
    """The psi-sum of last-slot-twisted values against its closed form.

    Checks  q/(q-1) sum_psi (A_n conj(B_n) psi over psi) F(.., A_n psi; .. | x) psi(t)
          = F(x/(1-t)) conj(A_n)(1-t) - boundary,
    with the v = 1 boundary term of the descent included (see
    generating_boundary_term; the two-term form without it is off by
    exactly that term whenever F_low(x) is nonzero).
    """
    f = tables.field
    q = f.q
    x %= q
    t %= q
    if x == 0:
        raise RejectedInput("x must be nonzero")
    if t in (0, 1):
        raise RejectedInput("t must avoid {0, 1}")
    an = params.uppers[-1]
    d = an - params.lowers[-1]
    # weights[p] = (A_n conj(B_n) chi_p over chi_p) chi_p(t)
    weights = _rotated(tables.binomial_line(d), d) * character_row(f, t)
    lhs = q / (q - 1) * hyper_twisted_sum(params, weights, x, tables)
    arg = x * f.inv((1 - t) % q) % q
    rhs = hyper_char(params, arg, tables) * Character(f, -an)((1 - t) % q) - generating_boundary_term(
        params, x, t, tables
    )
    return f"n={params.n} x={x} t={t} up={_idx(params.uppers)} lo={_idx(params.lowers)}", lhs, rhs, 0.0


def verify_closed_form_sum(A: int, n: int, x: int, t: int, tables: SumTables) -> tuple:
    """q * sum over nontrivial psi of (n+2)F_{n+1}(A..A, psi | x) psi(t), in closed form.

    A is the index of a nontrivial character: nonzero mod q-1.

    The closed form carries the descent boundary term through the
    trailing-eps application of the generating identity, which turns
    the naive -(q-2) F(x) coefficient into +F(x):

        q * sum = (q-1) F(x/(1-t)) + F(x) + (-1/q)**n.
    """
    f = tables.field
    q = f.q
    if A % (q - 1) == 0:
        raise RejectedInput("A must be nontrivial")
    if n < 1:
        raise RejectedInput("n must be at least 1")
    x %= q
    t %= q
    if x == 0:
        raise RejectedInput("x must be nonzero")
    if t in (0, 1):
        raise RejectedInput("t must avoid {0, 1}")
    base = HyperParams(q, (A,) * (n + 1), (0,) * n)
    lhs = q * hyper_twisted_sum(base.extended(0), _nontrivial_psi_at(f, t), x, tables)
    arg = x * f.inv((1 - t) % q) % q
    rhs = (
        (q - 1) * hyper_char(base, arg, tables)
        + hyper_char(base, x, tables)
        + (-1 / q) ** n
    )
    return f"A={base.uppers[0]} n={n} x={x} t={t}", lhs, rhs, 0.0


def verify_remark_sums(lam: int, level: str, tables: SumTables) -> tuple:
    """The two worked psi-sums at t = 1 - lambda^2, with trace cross-checks.

    The right-hand sides use the hypergeometric value at lambda itself;
    that value is independently cross-checked against the matching curve
    trace, read from the family's memoised trace table (the Legendre trace
    at lambda, the Clausen trace at lambda/(1-lambda)), and the larger of
    the two residuals is reported.
    """
    f = tables.field
    q = f.q
    lam %= q
    if lam in (0, 1, q - 1):
        raise RejectedInput("lambda must avoid {0, 1, -1}")
    t = (1 - lam * lam) % q
    psi_t = _nontrivial_psi_at(f, t)
    if level == "3F2":
        base = HyperParams.phi_eps(q, 1)
        lhs = hyper_twisted_sum(base.extended(0), psi_t, lam, tables)
        f2 = hyper_char(base, lam, tables)
        # ((q-1) phi(lam) + 1)/q, the +1 carrying the descent boundary term
        rhs = ((q - 1) / q * f.legendre(lam) + 1 / q) * f2 - 1 / q**2
        bridge = -f.phi_minus_one * int(_trace_table("legendre", tables)[lam]) / q
        bridge_resid = abs(f2 - bridge)
    elif level == "4F3":
        base = HyperParams.phi_eps(q, 2)
        lhs = hyper_twisted_sum(base.extended(0), psi_t, lam, tables)
        f3 = hyper_char(base, lam, tables)
        rhs = ((q - 1) / q * f.legendre(-lam) + 1 / q) * f3 + 1 / q**3
        mu = lam * f.inv((1 - lam) % q) % q
        bridge = f.legendre(1 - lam) * (int(_trace_table("clausen", tables)[mu]) ** 2 - q) / q**2
        bridge_resid = abs(f3 - bridge)
    else:
        raise RejectedInput(f"unknown level {level!r}; expected 3F2 or 4F3")
    return f"level={level} lambda={lam} t={t} (with trace cross-check)", lhs, rhs, bridge_resid


# -- estimate sweeps ------------------------------------------------------------------


_LIMB_Q_LIMIT = 10**9  # see _weighted_square_excess


def _weighted_square_excess(w: np.ndarray, ap: np.ndarray, q: int) -> int:
    """Exact sum of w * (ap^2 - q)^2 for |w| <= 1, |ap| <= 2 sqrt(q), len(ap) <= q.

    Each term v = (ap^2 - q)^2 is below 9 q^2 < 2^63.  Split as
    v = hi * 2^32 + lo, the sum of w * lo is below q * 2^32 and the sum
    of w * hi below 9 q^3 / 2^32, both under 2^63 for q < 10^9; the two
    int64 sums are joined as Python ints.
    """
    if not len(ap) <= q < _LIMB_Q_LIMIT:
        raise Infeasible(f"exact int64 6F5 sum needs q < {_LIMB_Q_LIMIT} and at most q terms; got q={q}")
    v = (ap * ap - q) ** 2
    hi = int((w * (v >> 32)).sum())
    lo = int((w * (v & 0xFFFFFFFF)).sum())
    return (hi << 32) + lo


# Each sweep's row function gives, per prime, (failure label, row, residual) per row.


def _f43_rows(tables: SumTables) -> list[tuple[str, dict, float]]:
    f = tables.field
    q = f.q
    s = int((f.legendre_table[2:] * _trace_table("legendre", tables)[2:] ** 2).sum())  # lambda = 2..q-1
    dev = abs(s) / q**3  # |value - 1/q^3|
    value = QPowerRational.make(s + 1, 3, q).fmt(q)
    row = {"q": q, "value": value, "abs_dev": dev, "scaled_dev": dev * q, "bound": 4 / q, "pass": dev <= 4 / q}
    return [(f"q={q}", row, dev)]


def _f65_rows(tables: SumTables) -> list[tuple[str, dict, float]]:
    f = tables.field
    q = f.q
    # mu = 1..q-2: ap[1:q-1] is ap(mu), leg[2:] is phi(1 + mu), and
    # phi(mu(1 + mu)) = phi(mu) phi(1 + mu) by multiplicativity.
    ap = _trace_table("clausen", tables)[1 : q - 1]
    leg = f.legendre_table
    s = _weighted_square_excess(leg[1 : q - 1] * leg[2:], ap, q)
    t = -1 - q - int((leg[2:] * ap**2).sum())  # q^2 * 3F2(1)
    scaled = abs(s + t * t) / q**3  # q^2 * |value|
    value = QPowerRational.make(f.phi_minus_one * (s + t * t), 5, q).fmt(q)
    return [(f"q={q}", {"q": q, "value": value, "scaled_abs": scaled, "bound": 12.0, "pass": scaled <= 12.0}, scaled)]


_MOMENT_COLUMNS = ("q", "n", "unweighted", "weighted", "expected_unweighted", "expected_weighted", "pass")


def _moment_rows(tables: SumTables) -> list[tuple[str, dict, float]]:
    """The first-moment block pivoted: its unweighted and weighted rows at each n side by side."""
    b = run_statement("first-moment", tables, 0)
    rows = []
    for i, n in enumerate(FIRST_MOMENT_NS):
        u, w = 2 * i, 2 * i + 1
        ok = b.passed[u] and b.passed[w]
        row = dict(zip(_MOMENT_COLUMNS, (b.q, n, b.lhs_a[u], b.lhs_a[w], b.rhs_a[u], b.rhs_a[w], ok)))
        rows.append((f"q={b.q} n={n}", row, _max_residual((b.residual[u], b.residual[w]))))
    return rows


# Each sweep's summary label, row function, per-prime cost and the curve
# family whose trace table its rows read (None for moments): two forward
# real FFTs and one inverse per trace table, stacked or not, one binomial
# line and three inverse transforms per moments table.
_TRACE_COST = ("trace-table cost 3*q*log2(q)", lambda q: 3 * q * q.bit_length())
_MOMENT_COST = ("moment-table cost 4*(q-1)*log2(q-1)", lambda q: 4 * (q - 1) * (q - 1).bit_length())
SWEEPS = {
    "F43": ("estimate-F43", _f43_rows, _TRACE_COST, "legendre"),
    "F65": ("estimate-F65", _f65_rows, _TRACE_COST, "clausen"),
    "moments": ("moments", _moment_rows, _MOMENT_COST, None),
}


def estimate_sweep(primes, which: str) -> tuple[list[dict], SweepSummary]:
    """One sweep's rows over the primes, one run's tables alive at a time, and their summary.

    F43 and F65 give the exact trace-route values of 4F3(1) and 6F5(1), one
    row per prime.  Only the unconditional Hasse-derived bounds are
    asserted; the decay columns are reported for trend inspection, never
    asserted against an unknown big-O constant.  moments is the
    first-moment block pivoted, one row per n that passes when both its
    checks pass.  The summary's max residual is NaN-sticky: the largest
    monitored deviation, or for moments the largest first-moment residual
    (0.0 when every row passes).  make_field refuses a composite q.

    The primes go in runs of consecutive primes (curves._stack_runs for
    F43 and F65, one prime each for moments): one SumTables per prime,
    and a trace sweep builds its family's tables for the whole run in one
    stacked builder call, memoised in each prime's SumTables.
    """
    if which not in SWEEPS:
        raise RejectedInput(f"unknown sweep {which!r}; expected F43, F65 or moments")
    statement, rows_at, _, family = SWEEPS[which]
    checked = []
    for run in _stack_runs(primes) if family else [[q] for q in primes]:
        run_tables = [SumTables(make_field(q)) for q in run]
        if family:
            for t, table in zip(run_tables, _trace_builder(family)([t.field for t in run_tables])):
                t.memo(("trace", family), lambda table=table: table)
        checked += [row for t in run_tables for row in rows_at(t)]
    failed = [at for at, row, _ in checked if not row["pass"]]
    residual = _max_residual([r for _, _, r in checked])
    summary = SweepSummary(statement, list(primes), len(checked), len(failed), failed[0] if failed else "", residual)
    return [row for _, row, _ in checked], summary


# -- statement table --------------------------------------------------------------


def _rand_x(rng: random.Random, q: int, exclude=(0,)) -> int:
    while True:
        x = rng.randrange(q)
        if x not in exclude:
            return x


def _rand_slots(rng: random.Random, q: int, lowers: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """lowers+1 random upper character indices, then lowers random lower ones."""
    return tuple(rng.randrange(q - 1) for _ in range(lowers + 1)), tuple(rng.randrange(q - 1) for _ in range(lowers))


def _first_moment_at(tables: SumTables, rng: random.Random) -> ReportBlock:
    rows = [first_moment(n, weighted, tables) for n in FIRST_MOMENT_NS for weighted in (False, True)]
    return _block("first-moment", tables.field.q, rows)


def _second_moment_at(tables: SumTables, rng: random.Random) -> ReportBlock:
    q = tables.field.q
    rows = [second_weighted_moment(2 * k - 1, k, 1, tables) for k in (2, 3)]
    rows += [second_weighted_moment(n, k, _rand_x(rng, q), tables) for n, k in ((2, 1), (3, 2))]
    return _block("second-moment", q, rows)


def _contiguous_at(tables: SumTables, rng: random.Random) -> ReportBlock:
    q = tables.field.q
    base = HyperParams.phi_eps(q, 1)
    rows = [verify_contiguous(base, (q - 1) // 2, x, tables) for x in ((2, 3) if q > 3 else (1, 2))]
    rows.append(verify_contiguous(base, 0, 2, tables))
    for n in (1, 2):
        params = HyperParams(q, *_rand_slots(rng, q, n))
        rows.append(verify_contiguous(params, rng.randrange(q - 1), _rand_x(rng, q), tables))
    return _block("contiguous", q, rows)


def _inductive_k_at(tables: SumTables, rng: random.Random) -> ReportBlock:
    q = tables.field.q
    rows = []
    for n, k in ((2, 1), (3, 1), (3, 2), (4, 3)):
        for _ in range(2):
            rows.append(verify_inductive_k(n, k, *_rand_slots(rng, q, n - k), _rand_x(rng, q), tables))
    return _block("inductive-k", q, rows)


def _product_at(tables: SumTables, rng: random.Random) -> ReportBlock:
    q = tables.field.q
    if q == 7:  # the full grid, phi = 3
        return _block("product", q, [verify_product((3,), (), x, z, tables) for x in range(2, q) for z in range(2, q)])
    z = _rand_x(rng, q, exclude=(0, 1))  # one z, so the five rows share one F4* curve
    rows = []
    for lowers in (0, 0, 0, 1, 1):
        x = _rand_x(rng, q, exclude=(0, 1))
        rows.append(verify_product(*_rand_slots(rng, q, lowers), x, z, tables))
    return _block("product", q, rows)


def _generating_at(tables: SumTables, rng: random.Random) -> ReportBlock:
    q = tables.field.q
    base = HyperParams.phi_eps(q, 1)
    rows = [verify_generating(base, _rand_x(rng, q), _rand_x(rng, q, exclude=(0, 1)), tables) for _ in range(2)]
    for n in (1, 2):
        params = HyperParams(q, *_rand_slots(rng, q, n))
        rows.append(verify_generating(params, _rand_x(rng, q), _rand_x(rng, q, exclude=(0, 1)), tables))
    return _block("generating", q, rows)


def _closed_form_at(tables: SumTables, rng: random.Random) -> ReportBlock:
    q = tables.field.q
    rows = []
    for a in ((q - 1) // 2, 1):  # phi and the generator omega = chi_1
        for n in (1, 2):
            rows.append(verify_closed_form_sum(a, n, _rand_x(rng, q), _rand_x(rng, q, exclude=(0, 1)), tables))
    return _block("closed-form", q, rows)


def _remark_sums_at(tables: SumTables, rng: random.Random) -> ReportBlock:
    q = tables.field.q
    lams = range(2, q - 1) if q <= 13 else sorted(rng.sample(range(2, q - 1), 4))
    rows = [verify_remark_sums(lam, level, tables) for level in ("3F2", "4F3") for lam in lams]
    return _block("remark-sums", q, rows)


# The statements in run order: each one's draw-and-check function, and its
# per-prime cost as (formula, cost at q), or None for nothing past the field.
# A product costs one F4* curve, q-2 points of q-1 products, plus three
# transforms for its spectra, memoised per prime: the statement draws one z
# per prime, so its five instances share one curve (the q=7 grid builds five).
_PRODUCT_COST = ("w-sum cost (q-2)(q-1) + 3(q-1)log2(q-1)", lambda q: (q - 1) * (q - 2 + 3 * (q - 1).bit_length()))
STATEMENTS = {
    "first-moment": (_first_moment_at, None),
    "trace-moments": (lambda t, rng: _block("trace-moments", t.field.q, verify_trace_moments(t)), None),
    "second-moment": (_second_moment_at, None),
    "trace-bridge": (lambda tables, rng: trace_bridge_block(tables), None),
    "contiguous": (_contiguous_at, None),
    "inductive-k": (_inductive_k_at, None),
    "product": (_product_at, _PRODUCT_COST),
    "generating": (_generating_at, None),
    "closed-form": (_closed_form_at, None),
    "remark-sums": (_remark_sums_at, None),
}


def run_statement(label: str, tables: SumTables, seed: int) -> ReportBlock:
    """One statement's rows at one prime, in the order checked, as one ReportBlock; deterministic in seed."""
    if label not in STATEMENTS:
        raise RejectedInput(f"unknown statement {label!r}")
    q = tables.field.q
    check, _ = STATEMENTS[label]
    # Seeding with the string itself keeps derivation independent of
    # PYTHONHASHSEED, so runs reproduce across processes.
    return check(tables, random.Random(f"{seed}:{label}:{q}"))


def summarize(label: str, *blocks: ReportBlock) -> SweepSummary:
    """Counts, first failure and largest residual of one statement's blocks.

    Read off the blocks' columns; the result is that of their rows in order.
    """
    failed = [(b.q, instance) for b in blocks for instance, ok in zip(b.instances, b.passed) if not ok]
    residuals = [r for b in blocks for r in b.residual]
    return SweepSummary(
        label,
        sorted({b.q for b in blocks if len(b)}),
        len(residuals),
        len(failed),
        "q={} {}".format(*failed[0]) if failed else "",
        _max_residual(residuals),
    )


def _max_residual(residuals) -> float:
    """The largest residual, 0.0 for none, NaN if any is NaN."""
    # Python's max skips a NaN that is not first; a NaN row must show.
    return math.nan if any(map(math.isnan, residuals)) else max(residuals, default=0.0)
