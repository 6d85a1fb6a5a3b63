"""Gaussian hypergeometric functions over F_q, by two independent routes.

The character backend evaluates the defining sum

    F(x) = q/(q-1) * sum_chi (A0 chi over chi)(A1 chi over B1 chi)...(An chi over Bn chi) chi(x)

for n >= 1, with the n = 0 base case 1F0(A|x) = eps(x) * conj(A)(1-x).
Characters are indices mod q-1 (see characters), so an instance is the
HyperParams (q, uppers, lowers) of index tuples, which is also its memo
key: coefficient vectors and all-x value tables (the 1F0 table included)
are memoised per prime through SumTables.memo under it, and the
character backend reads the field off its SumTables.  A weighted sum over psi of
F with its last upper character twisted by psi is one weighted binomial
line (hyper_twisted_sum), not q-1 separate evaluations.  The Appell
series F4* is three length-(q-1) transforms per prime and character
tuple, memoised through SumTables.memo: every point then reads one
gathered dot product off the same two shifted spectra (appell_f4_batch).
For the all-phi/eps parameter family an exact backend gives q**n F at
every x in Python ints: each level of the one-slot descent is one exact
integer correlation (curves._correlate on 20-bit limbs) of the level
below, from the 1F0 table, memoised through SumTables.memo.  No
command runs it: the exact identity checks reconstruct their integers
from the character backend, and only the tests compare the two.  Reconstruction
has one nearest-integer rule (_nearest): reconstruct raises its failure,
and reconstruct_ints is its array form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .characters import character_row
from .charsums import SumTables, _line_kernel
from .curves import _correlate
from .errors import Infeasible, NotRational

DEFAULT_BUDGET = 10**9
# Entries per gathered block in appell_f4_batch: 2**15 complex entries
# (512 KiB) bound its per-call working memory whatever q and the batch size;
# the memoised spectra it gathers from are O(q) per character tuple.
_BLOCK = 2**15


@dataclass(frozen=True)
class HyperParams:
    """An (n+1)F_n instance over F_q: its upper and lower character indices.

    Each index is reduced mod q-1 on construction, so equal instances are
    equal objects, and the object itself is the instance's memo key.
    """

    q: int
    uppers: tuple[int, ...]
    lowers: tuple[int, ...]

    def __post_init__(self):
        if len(self.uppers) != len(self.lowers) + 1:
            raise ValueError("need n+1 upper characters and n lower characters")
        n = self.q - 1
        object.__setattr__(self, "uppers", tuple(j % n for j in self.uppers))
        object.__setattr__(self, "lowers", tuple(j % n for j in self.lowers))

    @property
    def n(self) -> int:
        return len(self.lowers)

    @classmethod
    def phi_eps(cls, q: int, n: int) -> "HyperParams":
        """The (n+1)F_n family with all uppers phi = (q-1)/2 and all lowers eps = 0."""
        return cls(q, ((q - 1) // 2,) * (n + 1), (0,) * n)

    def dropped_last(self) -> "HyperParams":
        return HyperParams(self.q, self.uppers[:-1], self.lowers[:-1])

    def extended(self, psi: int) -> "HyperParams":
        """Append psi to both rows (the contiguous (n+2)F_{n+1} instance)."""
        return HyperParams(self.q, (*self.uppers, psi), (*self.lowers, psi))


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

    def fmt(self, q: int) -> str:
        return _q_power_text(self.num, self.npow, q)


def _q_power_text(num: int, npow: int, q: int) -> str:
    """The printed form of num / q**npow: num/q^npow, or num alone at power 0."""
    return f"{num}/{q}^{npow}" if npow else str(num)


# Reconstruction guard: two orders of magnitude above observed floating
# residuals, far below the unit gap between integers.
EXACT_GAP = 0.01


def float_scale(npow: int, q: int) -> float:
    """q**npow as a float, or NotRational when it is beyond float range."""
    try:
        return float(q**npow)
    except OverflowError:
        raise NotRational(f"scale q^{npow} = {q}^{npow} is beyond float range", math.inf) from None


def _nearest(v: complex, npow: int, q: int) -> tuple[int, float, NotRational | None]:
    """The integer m nearest v * q**npow, its margin, and why v is not m / q**npow (None if it is).

    m is 0 where either scaled part is not finite.  The margin is the scaled
    imaginary part if not below EXACT_GAP, else the distance to m; v is
    exact when its margin is below EXACT_GAP, so NaN fails.  A scale beyond
    float range raises float_scale's NotRational.  The two parts are scaled
    apart: a complex product would turn a non-finite real part times the
    scale's zero imaginary part into a NaN imaginary part.
    """
    if npow < 0:
        raise ValueError("npow must be nonnegative")
    v, scale = complex(v), float_scale(npow, q)
    re, im = v.real * scale, v.imag * scale
    m = round(re) if math.isfinite(re) and math.isfinite(im) else 0
    if abs(im) < EXACT_GAP:
        margin, why = abs(re - m), "not within rounding distance of an integer"
    else:
        margin, why = abs(im), "imaginary part too large for an exact value"
    return m, margin, None if margin < EXACT_GAP else NotRational(f"{why} at scale q^{npow}", margin)


def reconstruct(v: complex, npow: int, q: int) -> QPowerRational:
    """Recover the integer m with v ~= m / q**npow by _nearest's rule, or raise its NotRational."""
    m, _, failure = _nearest(v, npow, q)
    if failure is not None:
        raise failure
    return QPowerRational.make(m, npow, q)


def reconstruct_ints(values: np.ndarray, npow: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """_nearest over an array: each entry's integer, as int64, and margin."""
    scale = q**npow
    re, im = values.real * scale, values.imag * scale
    m = np.rint(np.where(np.isfinite(re) & np.isfinite(im), re, 0.0))
    margin = np.where(np.abs(im) < EXACT_GAP, np.abs(re - m), np.abs(im))
    return m.astype(np.int64), margin


# -- character-sum backend ---------------------------------------------------


def _coeff_vector(params: HyperParams, tables: SumTables) -> np.ndarray:
    """c[j] with F(x) = sum_j c[j] chi_j(x); memoised per parameter tuple."""
    return tables.memo(("coeff", params), _coeff_product, params, tables)


def _coeff_product(params: HyperParams, tables: SumTables) -> np.ndarray:
    # Slot (A, B) contributes binomial_line(A - B)[j + A] to c[j].
    n = params.q - 1
    ks = np.arange(n)
    a0 = params.uppers[0]
    c = tables.binomial_line(a0)[(ks + a0) % n]
    for up, lo in zip(params.uppers[1:], params.lowers):
        c *= tables.binomial_line(up - lo)[(ks + up) % n]
    c *= params.q / n
    return c


def hyper_char(params: HyperParams, x: int, tables: SumTables) -> complex:
    """(n+1)F_n(x) by the defining character sum (the 1F0 table for n = 0)."""
    f = tables.field
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
    f = tables.field
    q = f.q
    n = q - 1
    if len(weights) != n:
        raise ValueError(f"need one weight per character, got {len(weights)} for q = {q}")
    x %= q
    if x == 0:
        return 0j
    a = params.uppers[-1]
    d = (a - params.lowers[-1]) % n
    last = _line_kernel(tables, d, np.fft.ifft(weights) * n)[(np.arange(n) + a) % n]
    c = _coeff_vector(params.dropped_last(), tables) * last
    return complex((c * character_row(f, x)).sum())  # not @, as in hyper_char


def hyper_all_x(params: HyperParams, tables: SumTables) -> np.ndarray:
    """Values of (n+1)F_n at every x in F_q, as one array indexed by x.

    The coefficient vector is computed once; evaluating it at all
    nonzero arguments simultaneously is a length-(q-1) discrete Fourier
    transform over the exponent of x.  Memoised per parameter tuple.
    """
    return tables.memo(("allx", params), _all_x_values, params, tables)


def _all_x_values(params: HyperParams, tables: SumTables) -> np.ndarray:
    f = tables.field
    q = f.q
    out = np.zeros(q, dtype=complex)
    if params.n == 0:
        # conj(A)(1-x) for x outside {0, 1}; both of those give 0.
        xs = np.arange(2, q)
        out[xs] = f.unit_roots[(-params.uppers[0] * f.dlog[(1 - xs) % q]) % (q - 1)]
    else:
        c = _coeff_vector(params, tables)
        vals_by_dlog = np.fft.ifft(c) * (q - 1)
        out[f.exp] = vals_by_dlog
    return out


# -- exact integer backend for the all-phi/eps family -------------------------


def _correlate_ints(kernel: np.ndarray, level: np.ndarray) -> np.ndarray:
    """curves._correlate of a {-1, 0, 1} kernel with an object array of Python ints, exactly.

    The level is split into balanced 20-bit limbs, all correlated against
    the kernel in one stacked call and recombined in Python ints.  This
    relies on every limb correlation entry, at most sum|kernel| * 2**19,
    being below 2**45 (kernel length under 4 * 10**7), which _correlate's
    float transform rounds exactly.
    """
    limbs, rest = [], level
    while not limbs or rest.any():
        limb = (rest + 2**19) % 2**20 - 2**19
        limbs.append((kernel, limb.astype(np.int64)))
        rest = (rest - limb) >> 20
    out = np.zeros(len(level), dtype=object)
    for i, c in enumerate(_correlate(limbs)):
        out += c.astype(object) << 20 * i
    return out


def hyper_exact_phi(n: int, tables: SumTables, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """q**n (n+1)F_n(x) at every x in Python ints, all uppers phi and lowers eps, n >= 1; 0 at x = 0.

    Level k is T_k[g^l] = phi(-1) sum_j phi(g^j)phi(1-g^j) T_{k-1}[g^(j+l)] from T_0[x] = phi(1-x),
    one exact correlation (_correlate_ints), memoised read-only: hyper_all_x(phi_eps(q, n)) * q**n, exactly.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if tables.field.q**n > budget:
        raise Infeasible(f"q^n = {tables.field.q}^{n} exceeds the work budget {budget}")
    level = None
    for k in range(n + 1):
        level = tables.memo(("exact", k), _exact_level, tables.field, level)
    return level


def _exact_level(f, below: np.ndarray | None) -> np.ndarray:
    out, t0 = np.zeros(f.q, dtype=object), f.legendre_table[(1 - f.exp) % f.q]  # t0[j] = T_0[g^j]
    out[f.exp] = t0 if below is None else f.phi_minus_one * _correlate_ints(f.legendre_table[f.exp] * t0, below[f.exp])
    return out


# -- finite-field Appell series ------------------------------------------------


def appell_f4(
    a: int,
    b: int,
    c: int,
    cp: int,
    x: int,
    y: int,
    tables: SumTables,
) -> complex:
    """F4*(A; B; C, C'; x, y) at one point; see appell_f4_batch."""
    return complex(appell_f4_batch(a, b, c, cp, np.array([x]), np.array([y]), tables)[0])


def appell_f4_batch(
    a: int,
    b: int,
    c: int,
    cp: int,
    xs: np.ndarray,
    ys: np.ndarray,
    tables: SumTables,
) -> np.ndarray:
    """F4*(A; B; C, C'; x, y) at the points (xs[i], ys[i]); 0 where x or y is 0.

    The characters come as indices: A = chi_a, B = chi_b, C = chi_c and
    C' = chi_cp.  F4* is the double character sum of Gauss-sum ratios
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
    indices = (a % (q - 1), b % (q - 1), c % (q - 1), cp % (q - 1))
    weights, rows_x, rows_y = tables.memo(("f4", *indices), _f4_spectra, tables, *indices)
    dx, dy = f.dlog[xs[live]], f.dlog[ys[live]]
    step = max(1, _BLOCK // (q - 1))
    for s in range(0, len(live), step):
        block = rows_x[dx[s : s + step]]
        block *= rows_y[dy[s : s + step]]
        out[live[s : s + step]] = block @ weights
    return out


def _f4_spectra(tables: SumTables, ai: int, bi: int, ci: int, cpi: int):
    """The F4* weights and the shifted spectra of C and C' (see appell_f4_batch); one spectrum if C = C'."""
    n = tables.field.q - 1
    g = tables.gauss_vector
    denom = g[ai] * g[bi] * g[(-ci) % n] * g[(-cpi) % n]
    ks = np.arange(n)
    weights = np.fft.fft(g[(ks + ai) % n] * g[(ks + bi) % n]) / (n**3 * denom)

    def shifted(lower: int) -> np.ndarray:
        # Row m of this view is S_lower rotated left by m.
        spec = np.fft.ifft(g[(-lower - ks) % n] * g[(-ks) % n]) * n
        return sliding_window_view(np.concatenate((spec, spec[:-1])), n)

    rows_c = shifted(ci)
    return weights, rows_c, rows_c if cpi == ci else shifted(cpi)
