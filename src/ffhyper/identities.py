"""One verification operation per identity, each returning a structured report.

Identities whose two sides live in q**-m * Z are checked in exact integer
arithmetic after rational reconstruction; everything else is checked in
floating point against a scale-aware tolerance.  Randomized instance
generation happens in the statement runner, never inside the checks, and
every instance is fully described in its report so failures reproduce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .characters import Character, character_row, quadratic, trivial
from .charsums import SumTables
from .curves import clausen_trace, clausen_trace_table, legendre_trace, legendre_trace_table
from .errors import Infeasible, RejectedInput, SingularParameter
from .field import PrimeField, is_prime, make_field
from .hypergeo import (
    DEFAULT_BUDGET,
    HyperParams,
    QPowerRational,
    appell_f4_batch,
    hyper_all_x,
    hyper_char,
    hyper_twisted_sum,
    reconstruct,
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
    name: str, q: int, instance: str, lhs: QPowerRational, rhs: QPowerRational
) -> IdentityReport:
    diff = abs(lhs.num * q**rhs.npow - rhs.num * q**lhs.npow)
    residual = float(diff) / q ** (lhs.npow + rhs.npow) if diff else 0.0
    return IdentityReport(name, q, instance, lhs, rhs, residual, 0.0, diff == 0)


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
    budget: int = DEFAULT_BUDGET,
) -> IdentityReport:
    """2F1(z) * (n+1)F_n(x) against the three-term Appell decomposition."""
    n = len(free_uppers) + 1
    if n < 2 or len(free_lowers) != n - 2:
        raise RejectedInput("free slots must number n-1 uppers and n-2 lowers with n >= 2")
    f = tables.field
    q = f.q
    x %= q
    z %= q
    if x in (0, 1) or z in (0, 1):
        raise RejectedInput("x and z must avoid {0, 1}")
    # q-2 F4* points, each one gathered dot product of length q-1, after
    # three transforms of length q-1.
    cost = (q - 2) * (q - 1) + 3 * (q - 1) * (q - 1).bit_length()
    if cost > budget:
        raise Infeasible(f"w-sum cost (q-2)(q-1) + 3(q-1)log2(q-1) = {cost} exceeds budget {budget}")
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
    lhs = reconstruct(total, n, q)
    rhs = QPowerRational.make(expected, n, q)
    inst = f"n={n} {'weighted' if weighted else 'unweighted'}"
    return _exact_report("first-moment", q, inst, lhs, rhs)


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
    t2 = reconstruct(hyper_char(HyperParams.phi_eps(f, 2), 1, tables), 2, q).scaled_int(2, q)
    phi_m1 = f.phi_minus_one

    sum_a = int(a[2:].sum())
    lhs1 = sum_a + phi_m1
    lams = np.arange(1, q - 1)  # clausen-valid: lambda not in {0, -1}
    lhs2 = int((leg[(1 + lams) % q] * ap[lams] ** 2).sum()) + q + t2
    lhs3 = int((leg[lams] * ap[lams] ** 2).sum()) + q * phi_m1 + t2

    def rep(lhs, rhs, inst):
        return _exact_report(
            "trace-moments", q, inst, QPowerRational.make(lhs, 0, q), QPowerRational.make(rhs, 0, q)
        )

    return [
        rep(lhs1, -1, "sum a_lambda + phi(-1)"),
        rep(lhs2, -1, "phi(1+lambda)-weighted clausen squares"),
        rep(lhs3, -phi_m1, "phi(lambda)-weighted clausen squares"),
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
        left = reconstruct(total, 2 * k - 2, q)
        right = reconstruct(hyper_char(HyperParams.phi_eps(f, 2 * k - 1), 1, tables), 2 * k - 1, q)
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
        )
    lhs = hyper_char(HyperParams.phi_eps(f, n), x, tables)
    vals_hi = hyper_all_x(HyperParams.phi_eps(f, n - k), tables)
    vals_lo = hyper_all_x(HyperParams.phi_eps(f, k - 1), tables)
    total = complex((leg[lams] * vals_hi[(lams * x) % q] * vals_lo[lams]).sum())
    rhs = f.phi_minus_one**k / q * total
    return _float_report("second-moment", q, f"n={n} k={k} x={x}", lhs, rhs)


# -- trace bridges -----------------------------------------------------------------


def verify_legendre_bridge(lam: int, tables: SumTables) -> IdentityReport:
    """q*phi(-1)*2F1(lambda) reconstructs to minus the Legendre-family trace.

    Both sides are read off memoised whole-family tables: the trace table
    and the 2F1 values at every x.  legendre_trace is their oracle.
    """
    f = tables.field
    q = f.q
    lam %= q
    if lam in (0, 1):
        raise SingularParameter(f"lambda = {lam} is singular for the Legendre family")
    traces, f21 = _family_tables("legendre", tables)
    trace = int(traces[lam])
    lhs = reconstruct(f.phi_minus_one * f21[lam], 1, q)
    rhs = QPowerRational.make(-trace, 1, q)
    return _exact_report("trace-bridge", q, f"legendre lambda={lam}", lhs, rhs)


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
    traces, f32 = _family_tables("clausen", tables)
    trace = int(traces[mu])
    t2 = reconstruct(f32[lam], 2, q).scaled_int(2, q)
    lhs = QPowerRational.make(trace**2, 0, q)
    rhs = QPowerRational.make(q + f.legendre(1 - lam) * t2, 0, q)
    return _exact_report("trace-bridge", q, f"clausen lambda={lam} mu={mu}", lhs, rhs)


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
    weights = np.roll(tables.binomial_line(d), -d) * character_row(f, t)
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


def estimate_sweep(primes, which: str, budget: int = DEFAULT_BUDGET):
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
        # One trace table per prime: two forward real FFTs and one inverse
        # of length q.
        cost = 3 * q * q.bit_length()
        if cost > budget:
            raise Infeasible(f"trace-table cost 3*q*log2(q) = {cost} exceeds budget {budget}")
        f = make_field(q)
        if which == "F43":
            a = legendre_trace_table(f)
            lams = np.arange(2, q)
            s = int((f.legendre_table[lams] * a[lams] ** 2).sum())
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
            ap = clausen_trace_table(f)
            mus = np.arange(1, q - 1)
            leg = f.legendre_table
            w_both = leg[mus * (1 + mus) % q]
            s = int((w_both * (ap[mus].astype(object) ** 2 - q) ** 2).sum())
            t_sum = int((leg[(1 + mus) % q] * ap[mus] ** 2).sum())
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


def moment_sweep_rows(primes, budget: int = DEFAULT_BUDGET):
    """Exact first-moment integers per prime and n; every entry must be +-1."""
    rows = []
    failures = 0
    first_failure = ""
    for q in primes:
        if q == 2 or not is_prime(q):
            raise RejectedInput(f"{q} is not an odd prime")
        # One binomial line and three inverse transforms of length q-1.
        cost = 4 * (q - 1) * (q - 1).bit_length()
        if cost > budget:
            raise Infeasible(f"moment-table cost 4*(q-1)*log2(q-1) = {cost} exceeds budget {budget}")
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


def run_statement(label: str, tables: SumTables, seed: int, budget: int = DEFAULT_BUDGET):
    """Default instance set for one statement over one prime; deterministic in seed."""
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
        for lam in range(2, q):
            out.append(verify_legendre_bridge(lam, tables))
        for lam in range(2, q):
            out.append(verify_clausen_bridge(lam, tables))
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
                    out.append(verify_product((phi,), (), x, z, tables, budget))
        else:
            for _ in range(3):
                x = _rand_x(rng, q, exclude=(0, 1))
                z = _rand_x(rng, q, exclude=(0, 1))
                out.append(verify_product((_rand_char(rng, f),), (), x, z, tables, budget))
            for _ in range(2):
                x = _rand_x(rng, q, exclude=(0, 1))
                z = _rand_x(rng, q, exclude=(0, 1))
                ups = (_rand_char(rng, f), _rand_char(rng, f))
                los = (_rand_char(rng, f),)
                out.append(verify_product(ups, los, x, z, tables, budget))
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
    return out


def summarize(label: str, reports: list[IdentityReport]) -> SweepSummary:
    primes = sorted({r.q for r in reports})
    failures = [r for r in reports if not r.passed]
    first = f"q={failures[0].q} {failures[0].instance}" if failures else ""
    max_resid = max((r.residual for r in reports), default=0.0)
    return SweepSummary(label, primes, len(reports), len(failures), first, max_resid)
