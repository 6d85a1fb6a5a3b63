"""One verification operation per identity, each returning a structured report.

Identities whose two sides live in q**-m * Z are checked in exact integer
arithmetic after rational reconstruction; everything else is checked in
floating point against a scale-aware tolerance.  Every exact row is two
integers over one power of q, rounded by hypergeo's one nearest-integer
rule, and that rounding's margin.  One judge (_judge) gives every exact
row's residual and pass, for the scalar rows (_exact_ints) and the
trace-bridge columns alike; canonical form only fills the printed sides.
A value that is not exact fails only the rows that read it, each holding
its nearest value over q**m and its margin as the residual.  Each check
returns one IdentityReport; run_statement returns a statement's rows at
one prime as one ReportBlock of columns.
The inductive b-sum sum_b phi(b) F_free(bx) F_{k-1}(b) is stated once:
verify_inductive_k reads it, an off-peak second-moment row is the
inductive-k row with every free slot phi/eps, and the x=1, n+1=2k peak
reconstructs the same sum exactly.  Each curve family's trace table is
one memo entry per prime, read by trace-moments, trace-bridge and the
F43/F65 sweeps.  The trace bridges, 2(q-2) exact checks per prime, are
reconstructed one family per array pass and judged in one call straight
into those columns; their per-lambda oracle lives in the tests.
STATEMENTS maps each statement to the function that draws its instances at
one prime, never inside the checks, and checks them, and to its per-prime
cost; every instance is fully described in its report so failures
reproduce.  SWEEPS does the same for the three sweeps estimate_sweep runs:
the trace-route 4F3(1) and 6F5(1) estimates, and the first-moment block
pivoted into one row per n.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .characters import Character, character_row
from .charsums import SumTables
from .curves import _stack_runs, clausen_trace, clausen_trace_table, legendre_trace, legendre_trace_table
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


def _judge(lhs, rhs, npow, margin, q):
    """Residual and pass of exact rows lhs / q**npow against rhs / q**npow, margin their reconstruction margin.

    A row passes when its margin is below EXACT_GAP and lhs == rhs.  Its
    residual is the margin where that is not below the gap (NaN included),
    else |lhs - rhs| / q**npow.  One rule for Python ints (a row, unbounded)
    and for numpy int64 columns with per-row powers.
    """
    ok = margin < EXACT_GAP
    return np.where(ok, abs(lhs - rhs) / q**npow, margin), ok & (lhs == rhs)


def _exact_ints(
    name: str, q: int, instance: str, lhs: int, rhs: int, npow: int, margin: float = 0.0
) -> IdentityReport:
    """The exact row lhs / q**npow against rhs / q**npow, judged by _judge; each side prints canonical."""
    residual, passed = _judge(lhs, rhs, npow, margin, q)
    make = QPowerRational.make
    return IdentityReport(name, q, instance, make(lhs, npow, q), make(rhs, npow, q), float(residual), 0.0, bool(passed))


def _canonical(num: np.ndarray, npow: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """QPowerRational.make(num[i], npow[i], q) for every i, as numerator and power columns."""
    for _ in range(npow.max(initial=0)):
        cut = (npow > 0) & (num % q == 0)
        num = np.where(cut, num // q, num)
        npow = npow - cut
    return num, npow


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

    The third term sums F4* over q-2 points, O(q^2) work that this check
    does not bound: STATEMENTS gives the product's per-prime cost.
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
    f4 = appell_f4_batch(phi, phi, 0, 0, z * (1 - ws) % q, ws * (1 - z) % q, tables)
    t3 = complex((f.legendre_table[ws] * lower_vals[(ws * x) % q] * f4).sum())
    rhs = t1 + t2 + t3 / q**3
    inst = f"n={n} x={x} z={z} up={_idx(free.uppers)} lo={_idx(free.lowers)}"
    return _float_report("product", q, inst, lhs, rhs)


# -- first moments of the all-phi/eps family -------------------------------------


FIRST_MOMENT_NS = (1, 2, 3)  # the n of the first-moment statement and the moments sweep


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
    num, margin, _ = _nearest(total, n, q)
    inst = f"n={n} {'weighted' if weighted else 'unweighted'}"
    return _exact_ints("first-moment", q, inst, num, expected, n, margin)


# -- trace moment identities -------------------------------------------------------


def _trace_builder(family: str):
    """The legendre or clausen family's stacked table builder, read at call time so patches apply."""
    return legendre_trace_table if family == "legendre" else clausen_trace_table


def _trace_table(family: str, tables: SumTables) -> np.ndarray:
    """The legendre or clausen family's traces, indexed by the curve parameter; memoised."""
    return tables.memo(("trace", family), lambda f: _trace_builder(family)([f])[0], tables.field)


def verify_trace_moments(tables: SumTables) -> list[IdentityReport]:
    """The three exact trace identities tying both curve families to 3F2(1)."""
    f = tables.field
    q = f.q
    leg = f.legendre_table
    ap = _trace_table("clausen", tables)
    f32, margin, _ = _nearest(hyper_char(HyperParams.phi_eps(q, 2), 1, tables), 2, q)
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
        left, left_margin, _ = _nearest(total, 2 * k - 2, q)
        right, right_margin, _ = _nearest(hyper_char(HyperParams.phi_eps(q, 2 * k - 1), 1, tables), 2 * k - 1, q)
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
    the Legendre trace at lambda, two integers over q; a Clausen row checks
    the square of the Clausen trace at mu = lambda/(1-lambda) against
    q + q^2 phi(1-lambda) 3F2(lambda), two integers.  Each family is
    reconstructed in one reconstruct_ints call, and both families' rows are
    judged in one _judge call, so a lambda whose value fails reconstruction
    fails only its own row.  mu is read off the discrete-log tables.
    """
    f = tables.field
    q = f.q
    lams = np.arange(2, q)
    a = _trace_table("legendre", tables)
    f21 = hyper_all_x(HyperParams.phi_eps(q, 1), tables)
    legendre_ints, legendre_margin = reconstruct_ints(f.phi_minus_one * f21[2:], 1, q)
    ap = _trace_table("clausen", tables)
    f32 = hyper_all_x(HyperParams.phi_eps(q, 2), tables)
    t2, clausen_margin = reconstruct_ints(f32[2:], 2, q)
    one_minus = (1 - lams) % q
    mus = f.exp[(f.dlog[lams] - f.dlog[one_minus]) % (q - 1)]
    lhs = np.concatenate((legendre_ints, ap[mus] ** 2))
    rhs = np.concatenate((-a[2:], q + f.legendre_table[one_minus] * t2))
    npow = np.repeat(np.array([1, 0], dtype=np.int64), q - 2)
    residual, passed = _judge(lhs, rhs, npow, np.concatenate((legendre_margin, clausen_margin)), q)
    instances = [f"legendre lambda={lam}" for lam in range(2, q)]
    instances += [f"clausen lambda={lam} mu={mu}" for lam, mu in zip(range(2, q), mus.tolist())]
    columns = (*_canonical(lhs, npow, q), *_canonical(rhs, npow, q), residual)
    exact, tolerance = [True] * len(instances), [0.0] * len(instances)
    return ReportBlock("trace-bridge", q, instances, exact, *(c.tolist() for c in columns), tolerance, passed.tolist())


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


def _first_moment_at(tables: SumTables, rng: random.Random) -> Iterable[IdentityReport]:
    return [first_moment(n, weighted, tables) for n in FIRST_MOMENT_NS for weighted in (False, True)]


def _second_moment_at(tables: SumTables, rng: random.Random) -> Iterable[IdentityReport]:
    for k in (2, 3):
        yield second_weighted_moment(2 * k - 1, k, 1, tables)
    for n, k in ((2, 1), (3, 2)):
        yield second_weighted_moment(n, k, _rand_x(rng, tables.field.q), tables)


def _contiguous_at(tables: SumTables, rng: random.Random) -> Iterable[IdentityReport]:
    q = tables.field.q
    base = HyperParams.phi_eps(q, 1)
    for x in ((2, 3) if q > 3 else (1, 2)):
        yield verify_contiguous(base, (q - 1) // 2, x, tables)
    yield verify_contiguous(base, 0, 2, tables)
    for n in (1, 2):
        params = HyperParams(q, *_rand_slots(rng, q, n))
        yield verify_contiguous(params, rng.randrange(q - 1), _rand_x(rng, q), tables)


def _inductive_k_at(tables: SumTables, rng: random.Random) -> Iterable[IdentityReport]:
    q = tables.field.q
    for n, k in ((2, 1), (3, 1), (3, 2), (4, 3)):
        for _ in range(2):
            yield verify_inductive_k(n, k, *_rand_slots(rng, q, n - k), _rand_x(rng, q), tables)


def _product_at(tables: SumTables, rng: random.Random) -> Iterable[IdentityReport]:
    q = tables.field.q
    if q == 7:
        return [verify_product(((q - 1) // 2,), (), x, z, tables) for x in range(2, q) for z in range(2, q)]
    out = []
    for lowers in (0, 0, 0, 1, 1):
        x = _rand_x(rng, q, exclude=(0, 1))
        z = _rand_x(rng, q, exclude=(0, 1))
        out.append(verify_product(*_rand_slots(rng, q, lowers), x, z, tables))
    return out


def _generating_at(tables: SumTables, rng: random.Random) -> Iterable[IdentityReport]:
    q = tables.field.q
    base = HyperParams.phi_eps(q, 1)
    for _ in range(2):
        yield verify_generating(base, _rand_x(rng, q), _rand_x(rng, q, exclude=(0, 1)), tables)
    for n in (1, 2):
        params = HyperParams(q, *_rand_slots(rng, q, n))
        yield verify_generating(params, _rand_x(rng, q), _rand_x(rng, q, exclude=(0, 1)), tables)


def _closed_form_at(tables: SumTables, rng: random.Random) -> Iterable[IdentityReport]:
    q = tables.field.q
    for a in ((q - 1) // 2, 1):  # phi and the generator omega = chi_1
        for n in (1, 2):
            yield verify_closed_form_sum(a, n, _rand_x(rng, q), _rand_x(rng, q, exclude=(0, 1)), tables)


def _remark_sums_at(tables: SumTables, rng: random.Random) -> Iterable[IdentityReport]:
    q = tables.field.q
    lams = range(2, q - 1) if q <= 13 else sorted(rng.sample(range(2, q - 1), 4))
    return [verify_remark_sums(lam, level, tables) for level in ("3F2", "4F3") for lam in lams]


# The statements in run order: each one's draw-and-check function, and its
# per-prime cost as (formula, cost at q), or None for nothing past the field.
# A product costs one F4* curve, q-2 points of q-1 gathered products, plus
# three transforms for its spectra, memoised per prime; the statement builds
# one curve per instance, five per prime (ROADMAP items 12 and 13).
_PRODUCT_COST = ("w-sum cost (q-2)(q-1) + 3(q-1)log2(q-1)", lambda q: (q - 1) * (q - 2 + 3 * (q - 1).bit_length()))
STATEMENTS = {
    "first-moment": (_first_moment_at, None),
    "trace-moments": (lambda tables, rng: verify_trace_moments(tables), None),
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
    rows = check(tables, random.Random(f"{seed}:{label}:{q}"))
    return rows if isinstance(rows, ReportBlock) else ReportBlock.of(label, q, list(rows))


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
