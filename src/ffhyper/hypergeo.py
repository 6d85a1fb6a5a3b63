"""Gaussian hypergeometric functions over F_q, by two independent routes.

The character backend evaluates the defining sum

    F(x) = q/(q-1) * sum_chi (A0 chi over chi)(A1 chi over B1 chi)...(An chi over Bn chi) chi(x)

for n >= 1, with the n = 0 base case 1F0(A|x) = eps(x) * conj(A)(1-x).
Coefficient vectors and all-x value tables (the 1F0 table included) are
memoised per prime through SumTables.memo.  A weighted sum over psi of
F with its last upper character twisted by psi is one weighted binomial
line (hyper_twisted_sum), not q-1 separate evaluations.  The Appell
series F4* is three length-(q-1) transforms per batch of points: every
point reads one gathered dot product off the same two shifted spectra
(appell_f4_batch).
For the all-phi/eps parameter family an exact backend unrolls the
one-slot descent down to the base case and sums Legendre symbols in
arbitrary-precision integer arithmetic, which anchors the rational
reconstruction used by the exact identity checks; it keeps no memo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .characters import Character, character_row, quadratic, trivial
from .charsums import SumTables, _line_kernel
from .errors import FieldMismatch, Infeasible, NotRational
from .field import PrimeField

DEFAULT_BUDGET = 10**9
# Points per gathered block in appell_f4_batch: bounds its working memory
# to a few (_CHUNK, q-1) arrays whatever the batch size.
_CHUNK = 256


@dataclass(frozen=True)
class HyperParams:
    """Ordered upper and lower characters of an (n+1)F_n instance."""

    uppers: tuple[Character, ...]
    lowers: tuple[Character, ...]

    def __post_init__(self):
        if len(self.uppers) != len(self.lowers) + 1 or not self.uppers:
            raise ValueError("need n+1 upper characters and n lower characters")
        f = self.uppers[0].field
        for c in (*self.uppers, *self.lowers):
            if c.field != f:
                raise FieldMismatch("hypergeometric characters over different fields")

    @property
    def field(self) -> PrimeField:
        return self.uppers[0].field

    @property
    def n(self) -> int:
        return len(self.lowers)

    def index_key(self) -> tuple:
        return (tuple(c.index for c in self.uppers), tuple(c.index for c in self.lowers))

    @classmethod
    def phi_eps(cls, field: PrimeField, n: int) -> "HyperParams":
        """The (n+1)F_n family with all uppers phi and all lowers eps."""
        phi = quadratic(field)
        eps = trivial(field)
        return cls((phi,) * (n + 1), (eps,) * n)

    def dropped_last(self) -> "HyperParams":
        return HyperParams(self.uppers[:-1], self.lowers[:-1])

    def extended(self, psi: Character) -> "HyperParams":
        """Append psi to both rows (the contiguous (n+2)F_{n+1} instance)."""
        return HyperParams((*self.uppers, psi), (*self.lowers, psi))


# -- exact values of the form num / q**npow -----------------------------------


@dataclass(frozen=True)
class QPowerRational:
    """Exact value num / q**npow; canonical when q does not divide num."""

    num: int
    npow: int

    @classmethod
    def make(cls, num: int, npow: int, q: int) -> "QPowerRational":
        if num == 0:
            return cls(0, 0)
        while npow > 0 and num % q == 0:
            num //= q
            npow -= 1
        return cls(num, npow)

    def value(self, q: int) -> float:
        return self.num / q**self.npow

    def scaled_int(self, npow: int, q: int) -> int:
        """num * q**(npow - self.npow); requires npow >= self.npow."""
        if npow < self.npow:
            raise ValueError("cannot scale down an exact value")
        return self.num * q ** (npow - self.npow)

    def fmt(self, q: int) -> str:
        if self.npow == 0:
            return str(self.num)
        return f"{self.num}/{q}^{self.npow}"


def reconstruct(v: complex, npow: int, q: int) -> QPowerRational:
    """Recover the integer m with v ~= m / q**npow, or fail loudly.

    Both the imaginary part and the distance to the nearest integer of
    v * q**npow must stay below 0.01 -- two orders of magnitude above
    observed floating residuals, far below the unit gap between integers.
    """
    if npow < 0:
        raise ValueError("npow must be nonnegative")
    scaled = complex(v) * q**npow
    if abs(scaled.imag) >= 0.01:
        raise NotRational(f"imaginary part too large for an exact value at scale q^{npow}", abs(scaled.imag))
    m = round(scaled.real)
    resid = abs(scaled.real - m)
    if resid >= 0.01:
        raise NotRational(f"not within rounding distance of an integer at scale q^{npow}", resid)
    return QPowerRational.make(m, npow, q)


# -- character-sum backend ---------------------------------------------------


def _coeff_vector(params: HyperParams, tables: SumTables) -> np.ndarray:
    """c[j] with F(x) = sum_j c[j] chi_j(x); memoised per parameter tuple."""
    return tables.memo(("coeff", params.index_key()), _coeff_product, params, tables)


def _coeff_product(params: HyperParams, tables: SumTables) -> np.ndarray:
    f = params.field
    a0 = params.uppers[0].index
    c = np.roll(tables.binomial_line(a0), -a0)
    for up, lo in zip(params.uppers[1:], params.lowers):
        c *= np.roll(tables.binomial_line(up.index - lo.index), -up.index)
    c *= f.q / (f.q - 1)
    return c


def hyper_char(params: HyperParams, x: int, tables: SumTables) -> complex:
    """(n+1)F_n(x) by the defining character sum (the 1F0 table for n = 0)."""
    f = params.field
    x %= f.q
    if params.n == 0:
        return complex(hyper_all_x(params, tables)[x])
    if x == 0:
        return 0j
    return complex(_coeff_vector(params, tables) @ character_row(f, x))


def hyper_twisted_sum(params: HyperParams, weights: np.ndarray, x: int, tables: SumTables) -> complex:
    """sum_p weights[p] * F(params with last upper A_n chi_p | x), in O(q log q).

    With a = A_n, d = A_n - B_n, row p of the last slot is
    binomial_line(d+p)[a+p+j].  Its sign (-1)^(a+j-d) does not depend on
    p, and its Jacobi phase is the p = 0 phase times zeta^(p dlog y) at
    each summation point y.  So the weighted sum over p is the line
    kernel of d with y weighted by W[dlog y], W = (q-1) ifft(weights),
    read at a+j; it multiplies the coefficient vector of the lower slots.
    """
    if params.n < 1:
        raise ValueError("the twisted sum needs a last slot with a lower character")
    f = params.field
    q = f.q
    n = q - 1
    if len(weights) != n:
        raise ValueError(f"need one weight per character, got {len(weights)} for q = {q}")
    x %= q
    if x == 0:
        return 0j
    a = params.uppers[-1].index
    d = (a - params.lowers[-1].index) % n
    last = np.roll(_line_kernel(tables, d, np.fft.ifft(weights) * n), -a)
    c = _coeff_vector(params.dropped_last(), tables) * last
    return complex(c @ character_row(f, x))


def hyper_all_x(params: HyperParams, tables: SumTables) -> np.ndarray:
    """Values of (n+1)F_n at every x in F_q, as one array indexed by x.

    The coefficient vector is computed once; evaluating it at all
    nonzero arguments simultaneously is a length-(q-1) discrete Fourier
    transform over the exponent of x.  Memoised per parameter tuple.
    """
    return tables.memo(("allx", params.index_key()), _all_x_values, params, tables)


def _all_x_values(params: HyperParams, tables: SumTables) -> np.ndarray:
    f = params.field
    q = f.q
    out = np.zeros(q, dtype=complex)
    if params.n == 0:
        # conj(A)(1-x) for x outside {0, 1}; both of those give 0.
        xs = np.arange(2, q)
        out[xs] = f.unit_roots[(-params.uppers[0].index * f.dlog[(1 - xs) % q]) % (q - 1)]
    else:
        c = _coeff_vector(params, tables)
        vals_by_dlog = np.fft.ifft(c) * (q - 1)
        out[f.exp] = vals_by_dlog
    return out


def hyper_inductive_step(params: HyperParams, x: int, tables: SumTables) -> complex:
    """One descent step: peel the last slot and sum over the lower level.

    Equals hyper_char(params, x) for arbitrary characters; this is the
    implementation-independent check of the descent relation itself.
    """
    if params.n < 1:
        raise ValueError("descent needs at least one lower character")
    f = params.field
    q = f.q
    x %= q
    if x == 0:
        return 0j
    an = params.uppers[-1].index
    bn = params.lowers[-1].index
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


# -- exact integer backend for the all-phi/eps family -------------------------


def _exact_numerators(field: PrimeField, n: int) -> list[int]:
    """M_n[x] with (n+1)F_n(x) = phi(-1)**n * M_n[x] / q**n, exact.

    Built by iterating the one-slot descent on integer Legendre values,
    M_0[x] = eps(x) * phi(1-x); every call rebuilds all n levels.
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


def hyper_exact_phi(n: int, x: int, field: PrimeField, budget: int = DEFAULT_BUDGET) -> QPowerRational:
    """Exact (n+1)F_n(x) for all-phi uppers / all-eps lowers, n >= 1.

    Pure integer arithmetic throughout: Legendre symbols summed over the
    unrolled descent, normalized by phi(-1)**n / q**n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if field.q**n > budget:
        raise Infeasible(f"q^n = {field.q}^{n} exceeds the work budget {budget}")
    table = _exact_numerators(field, n)
    sign = field.phi_minus_one**n
    return QPowerRational.make(sign * table[x % field.q], n, field.q)


# -- finite-field Appell series ------------------------------------------------


def appell_f4(
    a: Character,
    b: Character,
    c: Character,
    cp: Character,
    x: int,
    y: int,
    tables: SumTables,
) -> complex:
    """F4*(A; B; C, C'; x, y) at one point; see appell_f4_batch."""
    return complex(appell_f4_batch(a, b, c, cp, np.array([x]), np.array([y]), tables)[0])


def appell_f4_batch(
    a: Character,
    b: Character,
    c: Character,
    cp: Character,
    xs: np.ndarray,
    ys: np.ndarray,
    tables: SumTables,
) -> np.ndarray:
    """F4*(A; B; C, C'; x, y) at the points (xs[i], ys[i]); 0 where x or y is 0.

    F4* is the double character sum of Gauss-sum ratios
    sum_{u,v} pair[u+v] G_C[u] chi_u(x) G_C'[v] chi_v(y) / ((q-1)^2 denom),
    with pair[s] = g(A chi_s) g(B chi_s) and G_C[u] = g(conj(C) chi_-u) g(chi_-u).
    Writing pair through its spectrum P = fft(pair) splits the sum over u
    from the sum over v, and each becomes one spectrum S_C = (q-1) ifft(G_C)
    read from k + dlog x:

        F4*(x, y) = sum_k P[k] S_C[k + dlog x] S_C'[k + dlog y] / ((q-1)^3 denom).

    So a batch costs three length-(q-1) transforms, then one gathered dot
    product per point, taken _CHUNK points at a time so that no
    (points, q-1) array is built.
    """
    f = tables.field
    q = f.q
    n = q - 1
    xs = np.asarray(xs, dtype=np.int64) % q
    ys = np.asarray(ys, dtype=np.int64) % q
    out = np.zeros(len(xs), dtype=complex)
    live = np.flatnonzero((xs != 0) & (ys != 0))
    g = tables.gauss_vector
    ai, bi, ci, cpi = a.index, b.index, c.index, cp.index
    denom = g[ai] * g[bi] * g[(-ci) % n] * g[(-cpi) % n]
    ks = np.arange(n)
    weights = np.fft.fft(np.roll(g, -ai) * np.roll(g, -bi)) / (n**3 * denom)

    def shifted(lower: int) -> np.ndarray:
        # Row m of this view is S_lower rotated left by m.
        spec = np.fft.ifft(g[(-lower - ks) % n] * g[(-ks) % n]) * n
        return sliding_window_view(np.concatenate((spec, spec[:-1])), n)

    rows_x, rows_y = shifted(ci), shifted(cpi)
    dx, dy = f.dlog[xs[live]], f.dlog[ys[live]]
    for s in range(0, len(live), _CHUNK):
        block = rows_x[dx[s : s + _CHUNK]]
        block *= rows_y[dy[s : s + _CHUNK]]
        out[live[s : s + _CHUNK]] = block @ weights
    return out
