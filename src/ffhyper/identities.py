"""One verification operation per identity, each returning a structured report.

Identities whose two sides live in q**-m * Z are checked in exact integer
arithmetic after rational reconstruction; everything else is checked in
floating point against a scale-aware tolerance.  A value that fails
reconstruction fails only the rows that read it, each holding its nearest
value over q**m and its margin as the residual.  Each check returns one
IdentityReport; the statement runner returns a statement's rows at one
prime as one ReportBlock of columns, exact and float rows alike.  The
trace bridges, 2(q-2) exact checks per prime, are checked one family per
array pass straight into those columns; their per-lambda oracle lives in
the tests (tests/oracles.py).  Randomized instance generation happens in
the statement runner, never inside the checks, and every instance is
fully described in its report so failures reproduce.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .characters import Character, character_row, quadratic, trivial
from .charsums import SumTables
from .curves import clausen_trace, clausen_trace_table, legendre_trace, legendre_trace_table
from .errors import Infeasible, NotRational, RejectedInput
from .field import PrimeField, is_prime, make_field
from .hypergeo import (
    EXACT_GAP,
    HyperParams,
    QPowerRational,
    appell_f4_batch,
    hyper_all_x,
    hyper_char,
    hyper_twisted_sum,
    reconstruct,
    reconstruct_ints,
)


@dataclass
class IdentityReport:
    name: str
    q: int
    instance: str
    lhs: object  # complex or QPowerRational
    rhs: object
    residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True, eq=False)
class ReportBlock(Sequence):
    """The checks of one statement at one prime, held as columns.

    Row i compares two sides, each held in two columns (a, b).  An exact
    row (exact[i]) holds numerator and power, the value a / q**b in
    QPowerRational's canonical form; a float row holds the real and
    imaginary parts.  Columns are Python lists, so exact numerators stay
    unbounded.  len() is the row count; indexing and iteration build each
    row's IdentityReport on demand, while summarize and the cli renderers
    read the columns.
    """

    name: str
    q: int
    instances: list[str]
    exact: list[bool]
    lhs_a: list
    lhs_b: list
    rhs_a: list
    rhs_b: list
    residual: list[float]
    tolerance: list[float]
    passed: list[bool]

    @classmethod
    def of(cls, name: str, q: int, reports: list[IdentityReport]) -> ReportBlock:
        """The block of one statement's reports at q, in order."""
        lhs = [_parts(r.lhs) for r in reports]
        rhs = [_parts(r.rhs) for r in reports]
        return cls(
            name,
            q,
            [r.instance for r in reports],
            [isinstance(r.lhs, QPowerRational) for r in reports],
            [a for a, _ in lhs],
            [b for _, b in lhs],
            [a for a, _ in rhs],
            [b for _, b in rhs],
            [r.residual for r in reports],
            [r.tolerance for r in reports],
            [r.passed for r in reports],
        )

    def __len__(self) -> int:
        return len(self.instances)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        side = QPowerRational if self.exact[i] else complex
        return IdentityReport(
            self.name,
            self.q,
            self.instances[i],
            side(self.lhs_a[i], self.lhs_b[i]),
            side(self.rhs_a[i], self.rhs_b[i]),
            self.residual[i],
            self.tolerance[i],
            self.passed[i],
        )


def _parts(v) -> tuple:
    """A side's two column entries: numerator and power, or real and imaginary part."""
    return (v.num, v.npow) if isinstance(v, QPowerRational) else (v.real, v.imag)


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


def _float_report(name: str, q: int, instance: str, lhs: complex, rhs: complex) -> IdentityReport:
    lhs, rhs = complex(lhs), complex(rhs)
    residual = float(abs(lhs - rhs))
    tol = float_tol(q)
    return IdentityReport(name, q, instance, lhs, rhs, residual, tol, residual <= tol)


def _exact_report(
    name: str, q: int, instance: str, lhs: QPowerRational, rhs: QPowerRational, margin: float = 0.0
) -> IdentityReport:
    """lhs == rhs exactly; a nonzero margin is a side's failed reconstruction, and the row's residual."""
    diff = abs(lhs.num * q**rhs.npow - rhs.num * q**lhs.npow)
    residual = margin or (float(diff) / q ** (lhs.npow + rhs.npow) if diff else 0.0)
    return IdentityReport(name, q, instance, lhs, rhs, residual, 0.0, diff == 0 and not margin)


def _reconstructed(v: complex, npow: int, q: int) -> tuple[QPowerRational, float]:
    """reconstruct(v, npow, q) and margin 0.0, or the nearest value over q**npow (0 if not finite) and its residual."""
    try:
        return reconstruct(v, npow, q), 0.0
    except NotRational as e:
        scaled = complex(v).real * q**npow
        return QPowerRational.make(round(scaled) if math.isfinite(scaled) else 0, npow, q), e.residual


def _canonical(num: np.ndarray, npow: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """QPowerRational.make(num[i], npow, q) for every i, as numerator and power columns."""
    pows = np.full(len(num), npow, dtype=np.int64)
    for _ in range(npow):
        cut = (pows > 0) & (num % q == 0)
        num = np.where(cut, num // q, num)
        pows -= cut
    return num, pows


def _idx(chars) -> str:
    return "(" + ",".join(str(c.index) for c in chars) + ")"


# -- contiguous relation (trailing slot repeated above and below) ---------------


def verify_contiguous(params: HyperParams, psi: Character, x: int, tables: SumTables) -> IdentityReport:
    """(n+2)F_{n+1} with psi appended to both rows against its two-term closed form."""
    f = params.field
    q = f.q
    x %= q
    if x == 0:
        raise RejectedInput("x must be nonzero")
    lhs = hyper_char(params.extended(psi), x, tables)
    p = psi.index
    prod = tables.binomial_index(params.uppers[0].index - p, -p)
    for up, lo in zip(params.uppers[1:], params.lowers):
        prod *= tables.binomial_index(up.index - p, lo.index - p)
    rhs = -hyper_char(params, x, tables) / q + prod * psi.inverse()(x)
    inst = f"n={params.n} psi={p} x={x} up={_idx(params.uppers)} lo={_idx(params.lowers)}"
    return _float_report("contiguous", q, inst, lhs, rhs)


# -- inductive representation with k trailing phi/eps slots ---------------------


def verify_inductive_k(
    n: int,
    k: int,
    free_uppers: tuple[Character, ...],
    free_lowers: tuple[Character, ...],
    x: int,
    tables: SumTables,
) -> IdentityReport:
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
    phi = quadratic(f)
    eps = trivial(f)
    full = HyperParams((*free_uppers, *(phi,) * k), (*free_lowers, *(eps,) * k))
    lhs = hyper_char(full, x, tables)
    vals_free = hyper_all_x(HyperParams(free_uppers, free_lowers), tables)
    vals_phi = hyper_all_x(HyperParams.phi_eps(f, k - 1), tables)
    bs = np.arange(1, q)
    total = complex(
        (f.legendre_table[bs] * vals_free[(bs * x) % q] * vals_phi[bs]).sum()
    )
    rhs = f.phi_minus_one**k / q * total
    inst = f"n={n} k={k} x={x} up={_idx(free_uppers)} lo={_idx(free_lowers)}"
    return _float_report("inductive-k", q, inst, lhs, rhs)


# -- product of 2F1 and (n+1)F_n via the Appell series --------------------------


def verify_product(
    free_uppers: tuple[Character, ...],
    free_lowers: tuple[Character, ...],
    x: int,
    z: int,
    tables: SumTables,
) -> IdentityReport:
    """2F1(z) * (n+1)F_n(x) against the three-term Appell decomposition.

    The third term sums F4* over q-2 points, O(q^2) work per prime; this
    check does not bound it: the command line charges it once per prime
    before any table of the run is built.
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
    phi = quadratic(f)
    eps = trivial(f)
    full = HyperParams((*free_uppers, phi, phi), (*free_lowers, eps, eps))
    f21 = HyperParams.phi_eps(f, 1)
    lower_vals = hyper_all_x(HyperParams(free_uppers, free_lowers), tables)
    lhs = hyper_char(f21, z, tables) * hyper_char(full, x, tables)
    t1 = (
        f.phi_minus_one
        / q**2
        * f.legendre(1 - z)
        * lower_vals[((1 - z) * x) % q]
    )
    t2 = lower_vals[x] * hyper_char(f21, 1, tables) * hyper_char(f21, z, tables) / q
    ws = np.arange(2, q)
    f4 = appell_f4_batch(phi, phi, eps, eps, z * (1 - ws) % q, ws * (1 - z) % q, tables)
    t3 = complex((f.legendre_table[ws] * lower_vals[(ws * x) % q] * f4).sum())
    rhs = t1 + t2 + t3 / q**3
    inst = f"n={n} x={x} z={z} up={_idx(free_uppers)} lo={_idx(free_lowers)}"
    return _float_report("product", q, inst, lhs, rhs)


# -- first moments of the all-phi/eps family -------------------------------------


def first_moment(n: int, weighted: bool, tables: SumTables) -> IdentityReport:
    """q**n * sum_y [phi(y)] F(y) against its closed-form sign."""
    if n < 1:
        raise RejectedInput("n must be at least 1")
    f = tables.field
    q = f.q
    vals = hyper_all_x(HyperParams.phi_eps(f, n), tables)
    if weighted:
        total = complex((f.legendre_table * vals).sum())
        expected = (-f.phi_minus_one) ** (n + 1)
    else:
        total = complex(vals.sum())
        expected = (-1) ** (n + 1)
    lhs, margin = _reconstructed(total, n, q)
    rhs = QPowerRational.make(expected, n, q)
    inst = f"n={n} {'weighted' if weighted else 'unweighted'}"
    return _exact_report("first-moment", q, inst, lhs, rhs, margin)


# -- trace moment identities -------------------------------------------------------


def _family_tables(family: str, tables: SumTables) -> tuple[np.ndarray, np.ndarray]:
    """A curve family's trace table and its phi/eps hypergeometric values, memoised.

    The Legendre traces pair with 2F1 and the Clausen traces with 3F2;
    both arrays are indexed by the curve or function parameter.
    """
    return tables.memo(("family", family), _family_pair, family, tables)


def _family_pair(family: str, tables: SumTables) -> tuple[np.ndarray, np.ndarray]:
    f = tables.field
    if family == "legendre":
        return legendre_trace_table(f), hyper_all_x(HyperParams.phi_eps(f, 1), tables)
    return clausen_trace_table(f), hyper_all_x(HyperParams.phi_eps(f, 2), tables)


def verify_trace_moments(tables: SumTables) -> list[IdentityReport]:
    """The three exact trace identities tying both curve families to 3F2(1)."""
    f = tables.field
    q = f.q
    leg = f.legendre_table
    a, _ = _family_tables("legendre", tables)
    ap, _ = _family_tables("clausen", tables)
    f32, margin = _reconstructed(hyper_char(HyperParams.phi_eps(f, 2), 1, tables), 2, q)
    phi_m1 = f.phi_minus_one

    sum_a = int(a[2:].sum())
    lhs1 = sum_a + phi_m1
    lams = np.arange(1, q - 1)  # clausen-valid: lambda not in {0, -1}
    lhs2 = int((leg[(1 + lams) % q] * ap[lams] ** 2).sum()) + q + f32.scaled_int(2, q)
    lhs3 = int((leg[lams] * ap[lams] ** 2).sum()) + q * phi_m1 + f32.scaled_int(2, q)

    def rep(lhs, rhs, inst, margin=0.0):
        return _exact_report(
            "trace-moments", q, inst, QPowerRational.make(lhs, 0, q), QPowerRational.make(rhs, 0, q), margin
        )

    return [
        rep(lhs1, -1, "sum a_lambda + phi(-1)"),
        rep(lhs2, -1, "phi(1+lambda)-weighted clausen squares", margin),
        rep(lhs3, -phi_m1, "phi(lambda)-weighted clausen squares", margin),
    ]


# -- second weighted moments ----------------------------------------------------------


def second_weighted_moment(n: int, k: int, x: int, tables: SumTables) -> IdentityReport:
    """(n+1)F_n(x) against its lambda-sum of products; exact at the x=1, n+1=2k peak."""
    if not n > k >= 1:
        raise RejectedInput(f"need n > k >= 1, got n={n}, k={k}")
    f = tables.field
    q = f.q
    x %= q
    leg = f.legendre_table
    lams = np.arange(1, q)
    if x == 1 and n + 1 == 2 * k:
        vals = hyper_all_x(HyperParams.phi_eps(f, k - 1), tables)
        total = complex((leg[lams] * vals[lams] ** 2).sum())
        left, left_margin = _reconstructed(total, 2 * k - 2, q)
        right, right_margin = _reconstructed(hyper_char(HyperParams.phi_eps(f, 2 * k - 1), 1, tables), 2 * k - 1, q)
        # Compare q**(2k-1) * both sides as integers.
        lhs_int = left.scaled_int(2 * k - 1, q)
        rhs_int = f.phi_minus_one**k * right.scaled_int(2 * k, q)
        inst = f"k={k} x=1 second-moment peak"
        return _exact_report(
            "second-moment",
            q,
            inst,
            QPowerRational.make(lhs_int, 2 * k - 1, q),
            QPowerRational.make(rhs_int, 2 * k - 1, q),
            max(left_margin, right_margin),
        )
    lhs = hyper_char(HyperParams.phi_eps(f, n), x, tables)
    vals_hi = hyper_all_x(HyperParams.phi_eps(f, n - k), tables)
    vals_lo = hyper_all_x(HyperParams.phi_eps(f, k - 1), tables)
    total = complex((leg[lams] * vals_hi[(lams * x) % q] * vals_lo[lams]).sum())
    rhs = f.phi_minus_one**k / q * total
    return _float_report("second-moment", q, f"n={n} k={k} x={x}", lhs, rhs)


# -- trace bridges -----------------------------------------------------------------


def trace_bridge_block(tables: SumTables) -> ReportBlock:
    """Both trace bridges at every lambda in 2..q-1, one array pass per family.

    A Legendre row checks that q*phi(-1)*2F1(lambda) reconstructs to minus
    the Legendre trace at lambda; a Clausen row checks the square of the
    Clausen trace at mu = lambda/(1-lambda) against
    q + q^2 phi(1-lambda) 3F2(lambda).  Each family is reconstructed in one
    reconstruct_ints call; a lambda whose value fails reconstruction fails
    its own row, with the residual the per-lambda oracle in
    tests/oracles.py raises.  mu is read off the discrete-log tables.
    """
    f = tables.field
    q = f.q
    lams = np.arange(2, q)
    a, f21 = _family_tables("legendre", tables)
    legendre_ints, legendre_margin = reconstruct_ints(f.phi_minus_one * f21[2:], 1, q)
    legendre_lhs = _canonical(legendre_ints, 1, q)
    legendre_rhs = _canonical(-a[2:], 1, q)
    ap, f32 = _family_tables("clausen", tables)
    t2, clausen_margin = reconstruct_ints(f32[2:], 2, q)
    one_minus = (1 - lams) % q
    mus = f.exp[(f.dlog[lams] - f.dlog[one_minus]) % (q - 1)]
    clausen_lhs = _canonical(ap[mus] ** 2, 0, q)
    clausen_rhs = _canonical(q + f.legendre_table[one_minus] * t2, 0, q)
    instances = [f"legendre lambda={lam}" for lam in range(2, q)]
    instances += [f"clausen lambda={lam} mu={mu}" for lam, mu in zip(range(2, q), mus.tolist())]
    # _exact_report over the int64 columns: every power is at most 1, so
    # num * q**pow stays far inside int64.
    lhs_num, lhs_pow = (np.concatenate(cols) for cols in zip(legendre_lhs, clausen_lhs))
    rhs_num, rhs_pow = (np.concatenate(cols) for cols in zip(legendre_rhs, clausen_rhs))
    diff = np.abs(lhs_num * q**rhs_pow - rhs_num * q**lhs_pow)
    margin = np.concatenate((legendre_margin, clausen_margin))
    ok = margin < EXACT_GAP
    residual = np.where(ok, diff / q ** (lhs_pow + rhs_pow), margin)
    n = len(instances)
    columns = (lhs_num, lhs_pow, rhs_num, rhs_pow, residual)
    passed = (ok & (diff == 0)).tolist()
    return ReportBlock("trace-bridge", q, instances, [True] * n, *(c.tolist() for c in columns), [0.0] * n, passed)


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
    f = params.field
    an = params.uppers[-1].index
    bn = params.lowers[-1].index
    sign = -1.0 if (an + bn) % 2 else 1.0
    return sign / f.q * Character(f, bn - an)(t) * hyper_char(params.dropped_last(), x, tables)


def verify_generating(params: HyperParams, x: int, t: int, tables: SumTables) -> IdentityReport:
    """The psi-sum of last-slot-twisted values against its closed form.

    Checks  q/(q-1) sum_psi (A_n conj(B_n) psi over psi) F(.., A_n psi; .. | x) psi(t)
          = F(x/(1-t)) conj(A_n)(1-t) - boundary,
    with the v = 1 boundary term of the descent included (see
    generating_boundary_term; the two-term form without it is off by
    exactly that term whenever F_low(x) is nonzero).
    """
    f = params.field
    q = f.q
    x %= q
    t %= q
    if x == 0:
        raise RejectedInput("x must be nonzero")
    if t in (0, 1):
        raise RejectedInput("t must avoid {0, 1}")
    n = q - 1
    an = params.uppers[-1].index
    d = an - params.lowers[-1].index
    # weights[p] = (A_n conj(B_n) chi_p over chi_p) chi_p(t)
    weights = tables.binomial_line(d)[(np.arange(n) + d) % n] * character_row(f, t)
    lhs = q / n * hyper_twisted_sum(params, weights, x, tables)
    arg = x * f.inv((1 - t) % q) % q
    rhs = hyper_char(params, arg, tables) * Character(f, -an)((1 - t) % q) - generating_boundary_term(
        params, x, t, tables
    )
    inst = f"n={params.n} x={x} t={t} up={_idx(params.uppers)} lo={_idx(params.lowers)}"
    return _float_report("generating", q, inst, lhs, rhs)


def verify_closed_form_sum(A: Character, n: int, x: int, t: int, tables: SumTables) -> IdentityReport:
    """q * sum over nontrivial psi of (n+2)F_{n+1}(A..A, psi | x) psi(t), in closed form.

    The closed form carries the descent boundary term through the
    trailing-eps application of the generating identity, which turns
    the naive -(q-2) F(x) coefficient into +F(x):

        q * sum = (q-1) F(x/(1-t)) + F(x) + (-1/q)**n.
    """
    if A.is_trivial:
        raise RejectedInput("A must be nontrivial")
    if n < 1:
        raise RejectedInput("n must be at least 1")
    f = A.field
    q = f.q
    x %= q
    t %= q
    if x == 0:
        raise RejectedInput("x must be nonzero")
    if t in (0, 1):
        raise RejectedInput("t must avoid {0, 1}")
    eps = trivial(f)
    base = HyperParams((A,) * (n + 1), (eps,) * n)
    lhs = q * hyper_twisted_sum(base.extended(eps), _nontrivial_psi_at(f, t), x, tables)
    arg = x * f.inv((1 - t) % q) % q
    rhs = (
        (q - 1) * hyper_char(base, arg, tables)
        + hyper_char(base, x, tables)
        + (-1 / q) ** n
    )
    inst = f"A={A.index} n={n} x={x} t={t}"
    return _float_report("closed-form", q, inst, lhs, rhs)


def verify_remark_sums(lam: int, level: str, tables: SumTables) -> IdentityReport:
    """The two worked psi-sums at t = 1 - lambda^2, with trace cross-checks.

    The right-hand sides use the hypergeometric value at lambda itself;
    that value is independently cross-checked against the matching curve
    trace, and the larger of the two residuals is reported.
    """
    f = tables.field
    q = f.q
    lam %= q
    if lam in (0, 1, q - 1):
        raise RejectedInput("lambda must avoid {0, 1, -1}")
    t = (1 - lam * lam) % q
    eps = trivial(f)
    psi_t = _nontrivial_psi_at(f, t)
    if level == "3F2":
        base = HyperParams.phi_eps(f, 1)
        lhs = hyper_twisted_sum(base.extended(eps), psi_t, lam, tables)
        f2 = hyper_char(base, lam, tables)
        # ((q-1) phi(lam) + 1)/q, the +1 carrying the descent boundary term
        rhs = ((q - 1) / q * f.legendre(lam) + 1 / q) * f2 - 1 / q**2
        bridge = -f.phi_minus_one * legendre_trace(f, lam).trace / q
        bridge_resid = abs(f2 - bridge)
    elif level == "4F3":
        base = HyperParams.phi_eps(f, 2)
        lhs = hyper_twisted_sum(base.extended(eps), psi_t, lam, tables)
        f3 = hyper_char(base, lam, tables)
        rhs = ((q - 1) / q * f.legendre(-lam) + 1 / q) * f3 + 1 / q**3
        mu = lam * f.inv((1 - lam) % q) % q
        bridge = f.legendre(1 - lam) * (clausen_trace(f, mu).trace ** 2 - q) / q**2
        bridge_resid = abs(f3 - bridge)
    else:
        raise RejectedInput(f"unknown level {level!r}; expected 3F2 or 4F3")
    lhs, rhs = complex(lhs), complex(rhs)
    residual = float(max(abs(lhs - rhs), bridge_resid))
    tol = float_tol(q)
    inst = f"level={level} lambda={lam} t={t} (with trace cross-check)"
    return IdentityReport("remark-sums", q, inst, lhs, rhs, residual, tol, residual <= tol)


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


def estimate_sweep(primes, which: str):
    """Exact trace-route values of 4F3(1) or 6F5(1) per prime, with bound checks.

    Only the unconditional Hasse-derived bounds are asserted; the decay
    columns are reported for trend inspection, never asserted against an
    unknown big-O constant.
    """
    if which not in ("F43", "F65"):
        raise RejectedInput(f"unknown sweep {which!r}; expected F43 or F65")
    rows = []
    failures = 0
    first_failure = ""
    max_resid = 0.0
    for q in primes:
        if q == 2 or not is_prime(q):
            raise RejectedInput(f"{q} is not an odd prime")
        f = make_field(q)
        if which == "F43":
            a = legendre_trace_table(f)
            s = int((f.legendre_table[2:] * a[2:] ** 2).sum())  # lambda = 2..q-1
            value = QPowerRational.make(s + 1, 3, q)
            dev = abs(s) / q**3  # |value - 1/q^3|
            bound = 4 / q
            ok = dev <= bound
            rows.append(
                {
                    "q": q,
                    "value": value.fmt(q),
                    "abs_dev": dev,
                    "scaled_dev": dev * q,
                    "bound": bound,
                    "pass": ok,
                }
            )
            monitored = dev
        else:
            # mu = 1..q-2: ap[1:q-1] is ap(mu), leg[2:] is phi(1 + mu), and
            # phi(mu(1 + mu)) = phi(mu) phi(1 + mu) by multiplicativity.
            ap = clausen_trace_table(f)[1 : q - 1]
            leg = f.legendre_table
            s = _weighted_square_excess(leg[1 : q - 1] * leg[2:], ap, q)
            t_sum = int((leg[2:] * ap**2).sum())
            t = -1 - q - t_sum  # q^2 * 3F2(1)
            num = f.phi_minus_one * (s + t * t)
            value = QPowerRational.make(num, 5, q)
            scaled = abs(s + t * t) / q**3  # q^2 * |value|
            bound = 12.0
            ok = scaled <= bound
            rows.append(
                {
                    "q": q,
                    "value": value.fmt(q),
                    "scaled_abs": scaled,
                    "bound": bound,
                    "pass": ok,
                }
            )
            monitored = scaled
        max_resid = max(max_resid, monitored)
        if not ok:
            failures += 1
            if not first_failure:
                first_failure = f"q={q}"
    summary = SweepSummary(f"estimate-{which}", list(primes), len(rows), failures, first_failure, max_resid)
    return rows, summary


def moment_sweep_rows(primes):
    """Exact first-moment integers per prime and n; every entry must be +-1."""
    rows = []
    failures = 0
    first_failure = ""
    for q in primes:
        if q == 2 or not is_prime(q):
            raise RejectedInput(f"{q} is not an odd prime")
        tables = SumTables(make_field(q))
        for n in (1, 2, 3):
            plain = first_moment(n, False, tables)
            weighted = first_moment(n, True, tables)
            ok = plain.passed and weighted.passed
            rows.append(
                {
                    "q": q,
                    "n": n,
                    "unweighted": plain.lhs.num,
                    "weighted": weighted.lhs.num,
                    "expected_unweighted": plain.rhs.num,
                    "expected_weighted": weighted.rhs.num,
                    "pass": ok,
                }
            )
            if not ok:
                failures += 1
                if not first_failure:
                    first_failure = f"q={q} n={n}"
    summary = SweepSummary("moments", list(primes), len(rows), failures, first_failure, 0.0)
    return rows, summary


# -- statement runner --------------------------------------------------------------

STATEMENTS = (
    "first-moment",
    "trace-moments",
    "second-moment",
    "trace-bridge",
    "contiguous",
    "inductive-k",
    "product",
    "generating",
    "closed-form",
    "remark-sums",
)


def _rng_for(seed: int, label: str, q: int) -> random.Random:
    # Seeding with the string itself keeps derivation independent of
    # PYTHONHASHSEED, so runs reproduce across processes.
    return random.Random(f"{seed}:{label}:{q}")


def _rand_char(rng: random.Random, f: PrimeField) -> Character:
    return Character(f, rng.randrange(f.q - 1))


def _rand_x(rng: random.Random, q: int, exclude=(0,)) -> int:
    while True:
        x = rng.randrange(q)
        if x not in exclude:
            return x


def run_statement(label: str, tables: SumTables, seed: int):
    """Default instance set for one statement over one prime; deterministic in seed.

    One ReportBlock of the statement's rows at this prime: trace-bridge's
    2(q-2) rows come from its array pass, every other statement's reports
    are packed in the order they were checked.
    """
    f = tables.field
    q = f.q
    rng = _rng_for(seed, label, q)
    phi = quadratic(f)
    eps = trivial(f)
    out: list[IdentityReport] = []

    if label == "first-moment":
        for n in (1, 2, 3):
            for weighted in (False, True):
                out.append(first_moment(n, weighted, tables))
    elif label == "trace-moments":
        out.extend(verify_trace_moments(tables))
    elif label == "second-moment":
        for k in (2, 3):
            out.append(second_weighted_moment(2 * k - 1, k, 1, tables))
        for n, k in ((2, 1), (3, 2)):
            out.append(second_weighted_moment(n, k, _rand_x(rng, q), tables))
    elif label == "trace-bridge":
        return trace_bridge_block(tables)
    elif label == "contiguous":
        base = HyperParams.phi_eps(f, 1)
        for x in ((2, 3) if q > 3 else (1, 2)):
            out.append(verify_contiguous(base, phi, x, tables))
        out.append(verify_contiguous(base, eps, 2, tables))
        for n in (1, 2):
            params = HyperParams(
                tuple(_rand_char(rng, f) for _ in range(n + 1)),
                tuple(_rand_char(rng, f) for _ in range(n)),
            )
            out.append(verify_contiguous(params, _rand_char(rng, f), _rand_x(rng, q), tables))
    elif label == "inductive-k":
        for n, k in ((2, 1), (3, 1), (3, 2), (4, 3)):
            for _ in range(2):
                ups = tuple(_rand_char(rng, f) for _ in range(n - k + 1))
                los = tuple(_rand_char(rng, f) for _ in range(n - k))
                out.append(verify_inductive_k(n, k, ups, los, _rand_x(rng, q), tables))
    elif label == "product":
        if q == 7:
            for x in range(2, q):
                for z in range(2, q):
                    out.append(verify_product((phi,), (), x, z, tables))
        else:
            for _ in range(3):
                x = _rand_x(rng, q, exclude=(0, 1))
                z = _rand_x(rng, q, exclude=(0, 1))
                out.append(verify_product((_rand_char(rng, f),), (), x, z, tables))
            for _ in range(2):
                x = _rand_x(rng, q, exclude=(0, 1))
                z = _rand_x(rng, q, exclude=(0, 1))
                ups = (_rand_char(rng, f), _rand_char(rng, f))
                los = (_rand_char(rng, f),)
                out.append(verify_product(ups, los, x, z, tables))
    elif label == "generating":
        base = HyperParams.phi_eps(f, 1)
        for _ in range(2):
            x = _rand_x(rng, q)
            t = _rand_x(rng, q, exclude=(0, 1))
            out.append(verify_generating(base, x, t, tables))
        for n in (1, 2):
            params = HyperParams(
                tuple(_rand_char(rng, f) for _ in range(n + 1)),
                tuple(_rand_char(rng, f) for _ in range(n)),
            )
            x = _rand_x(rng, q)
            t = _rand_x(rng, q, exclude=(0, 1))
            out.append(verify_generating(params, x, t, tables))
    elif label == "closed-form":
        omega = Character(f, 1)
        for a in (phi, omega):
            for n in (1, 2):
                x = _rand_x(rng, q)
                t = _rand_x(rng, q, exclude=(0, 1))
                out.append(verify_closed_form_sum(a, n, x, t, tables))
    elif label == "remark-sums":
        if q <= 13:
            lams = [lam for lam in range(2, q - 1)]
        else:
            lams = sorted(rng.sample(range(2, q - 1), 4))
        for level in ("3F2", "4F3"):
            for lam in lams:
                out.append(verify_remark_sums(lam, level, tables))
    else:
        raise RejectedInput(f"unknown statement {label!r}")
    return ReportBlock.of(label, q, out)


def summarize(label: str, *blocks: ReportBlock) -> SweepSummary:
    """Counts, first failure and largest residual of one statement's blocks.

    Read off the blocks' columns; the result is that of their rows in order.
    """
    failed = [(b.q, instance) for b in blocks for instance, ok in zip(b.instances, b.passed) if not ok]
    return SweepSummary(
        label,
        sorted({b.q for b in blocks if len(b)}),
        sum(map(len, blocks)),
        len(failed),
        "q={} {}".format(*failed[0]) if failed else "",
        max((r for b in blocks for r in b.residual), default=0.0),
    )
