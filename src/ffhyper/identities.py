"""One verification operation per identity, each returning a structured report.

Identities whose two sides live in q**-m * Z are checked in exact integer
arithmetic after rational reconstruction; everything else is checked in
floating point against a scale-aware tolerance.  A scalar exact row is two
integers over one power of q (_exact_ints), rounded by hypergeo's one
nearest-integer rule; a value that is not exact fails only the rows that
read it, each holding its nearest value over q**m and its margin as the
residual.  Each check returns one IdentityReport; the statement runner
returns a statement's rows at one prime as one ReportBlock of columns.
The inductive b-sum sum_b phi(b) F_free(bx) F_{k-1}(b) is stated once:
verify_inductive_k reads it, an off-peak second-moment row is the
inductive-k row with every free slot phi/eps, and the x=1, n+1=2k peak
reconstructs the same sum exactly.  Each curve family's trace table is
one memo entry per prime, read by trace-moments, trace-bridge and the
F43/F65 sweeps.  The trace bridges, 2(q-2) exact checks per prime, are
checked one family per array pass straight into those columns; their
per-lambda oracle lives in the tests (tests/oracles.py).  Randomized
instance generation happens in the statement runner, never inside the
checks, and every instance is fully described in its report so failures
reproduce.  estimate_sweep is the one prime loop of the three sweeps: the
trace-route 4F3(1) and 6F5(1) estimates, and the first-moment block
pivoted into one row per n.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .characters import Character, character_row
from .charsums import SumTables
from .curves import clausen_trace, clausen_trace_table, legendre_trace, legendre_trace_table
from .errors import Infeasible, RejectedInput
from .field import PrimeField, make_field
from .hypergeo import (
    EXACT_GAP,
    HyperParams,
    QPowerRational,
    _nearest,
    appell_f4_batch,
    hyper_all_x,
    hyper_char,
    hyper_twisted_sum,
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


def _float_report(name: str, q: int, instance: str, lhs: complex, rhs: complex, floor: float = 0.0) -> IdentityReport:
    """|lhs - rhs| within float_tol(q); a floor (a cross-check's residual) above it is the residual instead."""
    lhs, rhs = complex(lhs), complex(rhs)
    residual = float(max(abs(lhs - rhs), floor))
    tol = float_tol(q)
    return IdentityReport(name, q, instance, lhs, rhs, residual, tol, residual <= tol)


def _exact_report(
    name: str, q: int, instance: str, lhs: QPowerRational, rhs: QPowerRational, margin: float = 0.0
) -> IdentityReport:
    """lhs == rhs exactly; a nonzero margin is a side's failed reconstruction, and the row's residual."""
    diff = abs(lhs.num * q**rhs.npow - rhs.num * q**lhs.npow)
    residual = margin or (float(diff) / q ** (lhs.npow + rhs.npow) if diff else 0.0)
    return IdentityReport(name, q, instance, lhs, rhs, residual, 0.0, diff == 0 and not margin)


def _exact_ints(
    name: str, q: int, instance: str, lhs: int, rhs: int, npow: int, margin: float = 0.0
) -> IdentityReport:
    """_exact_report of lhs / q**npow against rhs / q**npow."""
    make = QPowerRational.make
    return _exact_report(name, q, instance, make(lhs, npow, q), make(rhs, npow, q), margin)


def _reconstructed(v: complex, npow: int, q: int) -> tuple[int, float]:
    """The integer nearest v * q**npow, and 0.0 or, where v is not exact, its margin (hypergeo._nearest)."""
    m, margin, failure = _nearest(v, npow, q)
    return m, 0.0 if failure is None else margin


def _canonical(num: np.ndarray, npow: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """QPowerRational.make(num[i], npow, q) for every i, as numerator and power columns."""
    pows = np.full(len(num), npow, dtype=np.int64)
    for _ in range(npow):
        cut = (pows > 0) & (num % q == 0)
        num = np.where(cut, num // q, num)
        pows -= cut
    return num, pows


def _idx(indices) -> str:
    return "(" + ",".join(map(str, indices)) + ")"


# -- contiguous relation (trailing slot repeated above and below) ---------------


def verify_contiguous(params: HyperParams, psi: int, x: int, tables: SumTables) -> IdentityReport:
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
    inst = f"n={params.n} psi={p} x={x} up={_idx(params.uppers)} lo={_idx(params.lowers)}"
    return _float_report("contiguous", q, inst, lhs, rhs)


# -- inductive representation with k trailing phi/eps slots ---------------------


def _inductive_sum(free: HyperParams, k: int, x: int, tables: SumTables) -> complex:
    """sum over b != 0 of phi(b) F_free(b x) F_{k-1}(b), F_{k-1} the all-phi/eps kF_{k-1}."""
    q = tables.field.q
    vals_free = hyper_all_x(free, tables)
    vals_phi = hyper_all_x(HyperParams.phi_eps(q, k - 1), tables)
    bs = np.arange(1, q)
    return complex((tables.field.legendre_table[bs] * vals_free[(bs * x) % q] * vals_phi[bs]).sum())


def verify_inductive_k(
    n: int,
    k: int,
    free_uppers: tuple[int, ...],
    free_lowers: tuple[int, ...],
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
    free = HyperParams(q, free_uppers, free_lowers)
    full = HyperParams(q, (*free.uppers, *((q - 1) // 2,) * k), (*free.lowers, *(0,) * k))
    lhs = hyper_char(full, x, tables)
    rhs = f.phi_minus_one**k / q * _inductive_sum(free, k, x, tables)
    inst = f"n={n} k={k} x={x} up={_idx(free.uppers)} lo={_idx(free.lowers)}"
    return _float_report("inductive-k", q, inst, lhs, rhs)


# -- product of 2F1 and (n+1)F_n via the Appell series --------------------------


def verify_product(
    free_uppers: tuple[int, ...],
    free_lowers: tuple[int, ...],
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
    phi = (q - 1) // 2
    free = HyperParams(q, free_uppers, free_lowers)
    full = HyperParams(q, (*free.uppers, phi, phi), (*free.lowers, 0, 0))
    f21 = HyperParams.phi_eps(q, 1)
    lower_vals = hyper_all_x(free, tables)
    lhs = hyper_char(f21, z, tables) * hyper_char(full, x, tables)
    t1 = (
        f.phi_minus_one
        / q**2
        * f.legendre(1 - z)
        * lower_vals[((1 - z) * x) % q]
    )
    t2 = lower_vals[x] * hyper_char(f21, 1, tables) * hyper_char(f21, z, tables) / q
    ws = np.arange(2, q)
    f4 = appell_f4_batch(phi, phi, 0, 0, z * (1 - ws) % q, ws * (1 - z) % q, tables)
    t3 = complex((f.legendre_table[ws] * lower_vals[(ws * x) % q] * f4).sum())
    rhs = t1 + t2 + t3 / q**3
    inst = f"n={n} x={x} z={z} up={_idx(free.uppers)} lo={_idx(free.lowers)}"
    return _float_report("product", q, inst, lhs, rhs)


# -- first moments of the all-phi/eps family -------------------------------------


def first_moment(n: int, weighted: bool, tables: SumTables) -> IdentityReport:
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
    num, margin = _reconstructed(total, n, q)
    inst = f"n={n} {'weighted' if weighted else 'unweighted'}"
    return _exact_ints("first-moment", q, inst, num, expected, n, margin)


# -- trace moment identities -------------------------------------------------------


def _trace_table(family: str, tables: SumTables) -> np.ndarray:
    """The legendre or clausen family's traces, indexed by the curve parameter; memoised."""
    build = legendre_trace_table if family == "legendre" else clausen_trace_table
    return tables.memo(("trace", family), build, tables.field)


def verify_trace_moments(tables: SumTables) -> list[IdentityReport]:
    """The three exact trace identities tying both curve families to 3F2(1)."""
    f = tables.field
    q = f.q
    leg = f.legendre_table
    ap = _trace_table("clausen", tables)
    f32, margin = _reconstructed(hyper_char(HyperParams.phi_eps(q, 2), 1, tables), 2, q)
    phi_m1 = f.phi_minus_one

    lhs1 = int(_trace_table("legendre", tables)[2:].sum()) + phi_m1
    lams = np.arange(1, q - 1)  # clausen-valid: lambda not in {0, -1}
    lhs2 = int((leg[(1 + lams) % q] * ap[lams] ** 2).sum()) + q + f32
    lhs3 = int((leg[lams] * ap[lams] ** 2).sum()) + q * phi_m1 + f32

    return [
        _exact_ints("trace-moments", q, "sum a_lambda + phi(-1)", lhs1, -1, 0),
        _exact_ints("trace-moments", q, "phi(1+lambda)-weighted clausen squares", lhs2, -1, 0, margin),
        _exact_ints("trace-moments", q, "phi(lambda)-weighted clausen squares", lhs3, -phi_m1, 0, margin),
    ]


# -- second weighted moments ----------------------------------------------------------


def second_weighted_moment(n: int, k: int, x: int, tables: SumTables) -> IdentityReport:
    """(n+1)F_n(x) against its lambda-sum of products; exact at the x=1, n+1=2k peak.

    Off the peak this is the inductive-k row with every free slot phi/eps; at
    the peak the lambda-sum over q**(2k-2) and (2k)F_{2k-1}(1) over q**(2k-1)
    are reconstructed, and compared as integers over q**(2k-2).
    """
    if not n > k >= 1:
        raise RejectedInput(f"need n > k >= 1, got n={n}, k={k}")
    f = tables.field
    q = f.q
    x %= q
    if x == 1 and n + 1 == 2 * k:
        total = _inductive_sum(HyperParams.phi_eps(q, k - 1), k, 1, tables)
        left, left_margin = _reconstructed(total, 2 * k - 2, q)
        right, right_margin = _reconstructed(hyper_char(HyperParams.phi_eps(q, 2 * k - 1), 1, tables), 2 * k - 1, q)
        margin = _max_residual((left_margin, right_margin))
        inst = f"k={k} x=1 second-moment peak"
        return _exact_ints("second-moment", q, inst, left, f.phi_minus_one**k * right, 2 * k - 2, margin)
    phi = (q - 1) // 2
    row = verify_inductive_k(n, k, (phi,) * (n - k + 1), (0,) * (n - k), x, tables)
    return replace(row, name="second-moment", instance=f"n={n} k={k} x={x}")


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
    a = _trace_table("legendre", tables)
    f21 = hyper_all_x(HyperParams.phi_eps(q, 1), tables)
    legendre_ints, legendre_margin = reconstruct_ints(f.phi_minus_one * f21[2:], 1, q)
    legendre_lhs = _canonical(legendre_ints, 1, q)
    legendre_rhs = _canonical(-a[2:], 1, q)
    ap = _trace_table("clausen", tables)
    f32 = hyper_all_x(HyperParams.phi_eps(q, 2), tables)
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
    f = tables.field
    an = params.uppers[-1]
    bn = params.lowers[-1]
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
    f = tables.field
    q = f.q
    x %= q
    t %= q
    if x == 0:
        raise RejectedInput("x must be nonzero")
    if t in (0, 1):
        raise RejectedInput("t must avoid {0, 1}")
    n = q - 1
    an = params.uppers[-1]
    d = an - params.lowers[-1]
    # weights[p] = (A_n conj(B_n) chi_p over chi_p) chi_p(t)
    weights = tables.binomial_line(d)[(np.arange(n) + d) % n] * character_row(f, t)
    lhs = q / n * hyper_twisted_sum(params, weights, x, tables)
    arg = x * f.inv((1 - t) % q) % q
    rhs = hyper_char(params, arg, tables) * Character(f, -an)((1 - t) % q) - generating_boundary_term(
        params, x, t, tables
    )
    inst = f"n={params.n} x={x} t={t} up={_idx(params.uppers)} lo={_idx(params.lowers)}"
    return _float_report("generating", q, inst, lhs, rhs)


def verify_closed_form_sum(A: int, n: int, x: int, t: int, tables: SumTables) -> IdentityReport:
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
    inst = f"A={base.uppers[0]} n={n} x={x} t={t}"
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
    psi_t = _nontrivial_psi_at(f, t)
    if level == "3F2":
        base = HyperParams.phi_eps(q, 1)
        lhs = hyper_twisted_sum(base.extended(0), psi_t, lam, tables)
        f2 = hyper_char(base, lam, tables)
        # ((q-1) phi(lam) + 1)/q, the +1 carrying the descent boundary term
        rhs = ((q - 1) / q * f.legendre(lam) + 1 / q) * f2 - 1 / q**2
        bridge = -f.phi_minus_one * legendre_trace(f, lam).trace / q
        bridge_resid = abs(f2 - bridge)
    elif level == "4F3":
        base = HyperParams.phi_eps(q, 2)
        lhs = hyper_twisted_sum(base.extended(0), psi_t, lam, tables)
        f3 = hyper_char(base, lam, tables)
        rhs = ((q - 1) / q * f.legendre(-lam) + 1 / q) * f3 + 1 / q**3
        mu = lam * f.inv((1 - lam) % q) % q
        bridge = f.legendre(1 - lam) * (clausen_trace(f, mu).trace ** 2 - q) / q**2
        bridge_resid = abs(f3 - bridge)
    else:
        raise RejectedInput(f"unknown level {level!r}; expected 3F2 or 4F3")
    inst = f"level={level} lambda={lam} t={t} (with trace cross-check)"
    return _float_report("remark-sums", q, inst, lhs, rhs, bridge_resid)


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
    for n, (u, w) in enumerate(((0, 1), (2, 3), (4, 5)), start=1):
        ok = b.passed[u] and b.passed[w]
        row = dict(zip(_MOMENT_COLUMNS, (b.q, n, b.lhs_a[u], b.lhs_a[w], b.rhs_a[u], b.rhs_a[w], ok)))
        rows.append((f"q={b.q} n={n}", row, _max_residual((b.residual[u], b.residual[w]))))
    return rows


_SWEEPS = {"F43": ("estimate-F43", _f43_rows), "F65": ("estimate-F65", _f65_rows), "moments": ("moments", _moment_rows)}


def estimate_sweep(primes, which: str) -> tuple[list[dict], SweepSummary]:
    """One sweep's rows over the primes, one field's tables alive at a time, and their summary.

    F43 and F65 give the exact trace-route values of 4F3(1) and 6F5(1), one
    row per prime.  Only the unconditional Hasse-derived bounds are
    asserted; the decay columns are reported for trend inspection, never
    asserted against an unknown big-O constant.  moments is the
    first-moment block pivoted, one row per n that passes when both its
    checks pass.  The summary's max residual is NaN-sticky: the largest
    monitored deviation, or for moments the largest first-moment residual
    (0.0 when every row passes).  make_field refuses a composite q.
    """
    if which not in _SWEEPS:
        raise RejectedInput(f"unknown sweep {which!r}; expected F43, F65 or moments")
    statement, rows_at = _SWEEPS[which]
    checked = [row for q in primes for row in rows_at(SumTables(make_field(q)))]
    failed = [at for at, row, _ in checked if not row["pass"]]
    residual = _max_residual([r for _, _, r in checked])
    summary = SweepSummary(statement, list(primes), len(checked), len(failed), failed[0] if failed else "", residual)
    return [row for _, row, _ in checked], summary


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


def _rand_x(rng: random.Random, q: int, exclude=(0,)) -> int:
    while True:
        x = rng.randrange(q)
        if x not in exclude:
            return x


def _rand_slots(rng: random.Random, q: int, lowers: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """lowers+1 random upper character indices, then lowers random lower ones."""
    return tuple(rng.randrange(q - 1) for _ in range(lowers + 1)), tuple(rng.randrange(q - 1) for _ in range(lowers))


def run_statement(label: str, tables: SumTables, seed: int):
    """Default instance set for one statement over one prime; deterministic in seed.

    One ReportBlock of the statement's rows at this prime: trace-bridge's
    2(q-2) rows come from its array pass, every other statement's reports
    are packed in the order they were checked.
    """
    q = tables.field.q
    rng = _rng_for(seed, label, q)
    phi = (q - 1) // 2
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
        base = HyperParams.phi_eps(q, 1)
        for x in ((2, 3) if q > 3 else (1, 2)):
            out.append(verify_contiguous(base, phi, x, tables))
        out.append(verify_contiguous(base, 0, 2, tables))
        for n in (1, 2):
            params = HyperParams(q, *_rand_slots(rng, q, n))
            out.append(verify_contiguous(params, rng.randrange(q - 1), _rand_x(rng, q), tables))
    elif label == "inductive-k":
        for n, k in ((2, 1), (3, 1), (3, 2), (4, 3)):
            for _ in range(2):
                out.append(verify_inductive_k(n, k, *_rand_slots(rng, q, n - k), _rand_x(rng, q), tables))
    elif label == "product":
        if q == 7:
            for x in range(2, q):
                for z in range(2, q):
                    out.append(verify_product((phi,), (), x, z, tables))
        else:
            for lowers in (0, 0, 0, 1, 1):
                x = _rand_x(rng, q, exclude=(0, 1))
                z = _rand_x(rng, q, exclude=(0, 1))
                out.append(verify_product(*_rand_slots(rng, q, lowers), x, z, tables))
    elif label == "generating":
        base = HyperParams.phi_eps(q, 1)
        for _ in range(2):
            x = _rand_x(rng, q)
            t = _rand_x(rng, q, exclude=(0, 1))
            out.append(verify_generating(base, x, t, tables))
        for n in (1, 2):
            params = HyperParams(q, *_rand_slots(rng, q, n))
            x = _rand_x(rng, q)
            t = _rand_x(rng, q, exclude=(0, 1))
            out.append(verify_generating(params, x, t, tables))
    elif label == "closed-form":
        for a in (phi, 1):  # phi and the generator omega = chi_1
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
