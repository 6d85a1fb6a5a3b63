"""Gaussian hypergeometric functions over F_q, by two independent routes.

The character backend evaluates the defining sum

    F(x) = q/(q-1) * sum_chi (A0 chi over chi)(A1 chi over B1 chi)...(An chi over Bn chi) chi(x)

for n >= 1, with the n = 0 base case 1F0(A|x) = eps(x) * conj(A)(1-x).
Coefficient vectors and all-x value tables (the 1F0 table included) are
memoised per prime through SumTables.memo.  A weighted sum over psi of
F with its last upper character twisted by psi is one weighted binomial
line (hyper_twisted_sum), not q-1 separate evaluations.  The Appell
series F4* is three length-(q-1) transforms per prime and character
tuple, memoised through SumTables.memo: every point then reads one
gathered dot product off the same two shifted spectra (appell_f4_batch).
For the all-phi/eps parameter family an exact backend unrolls the
one-slot descent down to the base case and sums Legendre symbols in
arbitrary-precision integer arithmetic; it keeps no memo.  No command
runs it: the exact identity checks reconstruct their integers from the
character backend, and only the tests compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .characters import Character, character_row, quadratic, trivial
from .charsums import SumTables, _line_kernel
from .errors import FieldMismatch, Infeasible, NotRational
from .field import PrimeField

DEFAULT_BUDGET = 10**9
# Entries per gathered block in appell_f4_batch: 2**15 complex entries
# (512 KiB) bound its per-call working memory whatever q and the batch size;
# the memoised spectra it gathers from are O(q) per character tuple.
_BLOCK = 2**15


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

    def scaled_int(self, npow: int, q: int) -> int:
        """num * q**(npow - self.npow); requires npow >= self.npow."""
        if npow < self.npow:
            raise ValueError("cannot scale down an exact value")
        return self.num * q ** (npow - self.npow)

    def fmt(self, q: int) -> str:
        if self.npow == 0:
            return str(self.num)
        return f"{self.num}/{q}^{self.npow}"


# Reconstruction guard: two orders of magnitude above observed floating
# residuals, far below the unit gap between integers.
EXACT_GAP = 0.01


def float_scale(npow: int, q: int) -> float:
    """q**npow as a float, or NotRational when it is beyond float range."""
    try:
        return float(q**npow)
    except OverflowError:
        raise NotRational(f"scale q^{npow} = {q}^{npow} is beyond float range", math.inf) from None


def reconstruct(v: complex, npow: int, q: int) -> QPowerRational:
    """Recover the integer m with v ~= m / q**npow, or fail loudly.

    Both the imaginary part and the distance to the nearest integer of
    v * q**npow must stay below EXACT_GAP = 0.01 (reconstruct_ints's margin,
    which a NaN or infinite value fails), and q**npow must fit in a float.
    """
    if npow < 0:
        raise ValueError("npow must be nonnegative")
    scaled = complex(v) * float_scale(npow, q)
    m = round(scaled.real) if math.isfinite(scaled.real) else 0
    if abs(scaled.imag) < EXACT_GAP:
        margin, why = abs(scaled.real - m), "not within rounding distance of an integer"
    else:
        margin, why = abs(scaled.imag), "imaginary part too large for an exact value"
    if not margin < EXACT_GAP:  # NaN fails
        raise NotRational(f"{why} at scale q^{npow}", margin)
    return QPowerRational.make(m, npow, q)


def reconstruct_ints(values: np.ndarray, npow: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The integers m[i] nearest values[i] * q**npow, as int64, and each entry's margin.

    The margin is the residual reconstruct raises for the entry: the scaled
    imaginary part if not below EXACT_GAP, else the distance to m[i].  An
    entry passes reconstruct's rule exactly when its margin is below
    EXACT_GAP, so NaN fails; m[i] is 0 where the scaled value is not finite.
    """
    scaled = values * q**npow
    m = np.rint(np.nan_to_num(scaled.real, nan=0.0, posinf=0.0, neginf=0.0))
    margin = np.where(np.abs(scaled.imag) < EXACT_GAP, np.abs(scaled.real - m), np.abs(scaled.imag))
    return m.astype(np.int64), margin


# -- character-sum backend ---------------------------------------------------


def _coeff_vector(params: HyperParams, tables: SumTables) -> np.ndarray:
    """c[j] with F(x) = sum_j c[j] chi_j(x); memoised per parameter tuple."""
    return tables.memo(("coeff", params.index_key()), _coeff_product, params, tables)


def _coeff_product(params: HyperParams, tables: SumTables) -> np.ndarray:
    # Slot (A, B) contributes binomial_line(A - B)[j + A] to c[j].
    f = params.field
    n = f.q - 1
    ks = np.arange(n)
    a0 = params.uppers[0].index
    c = tables.binomial_line(a0)[(ks + a0) % n]
    for up, lo in zip(params.uppers[1:], params.lowers):
        c *= tables.binomial_line(up.index - lo.index)[(ks + up.index) % n]
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
    # A numpy sum, not a 1-D complex @: BLAS splits that dot product across
    # its threads, so its bits would depend on the thread count.
    return complex((_coeff_vector(params, tables) * character_row(f, x)).sum())


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
    last = _line_kernel(tables, d, np.fft.ifft(weights) * n)[(np.arange(n) + a) % n]
    c = _coeff_vector(params.dropped_last(), tables) * last
    return complex((c * character_row(f, x)).sum())  # not @, as in hyper_char


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

    The weights P / ((q-1)^3 denom) and both shifted spectra depend only on
    the characters, so they are built once per SumTables and character
    tuple through SumTables.memo: a batch costs three length-(q-1)
    transforms on its tuple's first use, then one gathered dot product
    per point, gathered max(1, 2**15 // (q-1)) points at a time so that
    no block holds more than 2**15 entries (512 KiB).
    """
    f = tables.field
    q = f.q
    xs = np.asarray(xs, dtype=np.int64) % q
    ys = np.asarray(ys, dtype=np.int64) % q
    out = np.zeros(len(xs), dtype=complex)
    live = np.flatnonzero((xs != 0) & (ys != 0))
    indices = (a.index, b.index, c.index, cp.index)
    weights, rows_x, rows_y = tables.memo(("f4", *indices), _f4_spectra, tables, *indices)
    dx, dy = f.dlog[xs[live]], f.dlog[ys[live]]
    step = max(1, _BLOCK // (q - 1))
    for s in range(0, len(live), step):
        block = rows_x[dx[s : s + step]]
        block *= rows_y[dy[s : s + step]]
        out[live[s : s + step]] = block @ weights
    return out


def _f4_spectra(tables: SumTables, ai: int, bi: int, ci: int, cpi: int):
    """The F4* weights and the shifted spectra of C and C' (see appell_f4_batch)."""
    n = tables.field.q - 1
    g = tables.gauss_vector
    denom = g[ai] * g[bi] * g[(-ci) % n] * g[(-cpi) % n]
    ks = np.arange(n)
    weights = np.fft.fft(g[(ks + ai) % n] * g[(ks + bi) % n]) / (n**3 * denom)

    def shifted(lower: int) -> np.ndarray:
        # Row m of this view is S_lower rotated left by m.
        spec = np.fft.ifft(g[(-lower - ks) % n] * g[(-ks) % n]) * n
        return sliding_window_view(np.concatenate((spec, spec[:-1])), n)

    return weights, shifted(ci), shifted(cpi)
