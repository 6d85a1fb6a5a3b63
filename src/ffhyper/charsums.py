"""Gauss sums, Jacobi sums and binomial coefficients, and the per-prime memo.

Jacobi sums are computed by direct summation over x rather than through
the Gauss-sum factorization: the factorization breaks down whenever a
product of characters degenerates to the trivial one, which the
binomial coefficients used downstream hit constantly.  The direct sum
is uniform in the characters, and one length-(q-1) transform evaluates
it for a whole binomial line at once, its terms binned by dlog(x/(1-x))
(_line_bins).  A shift of a character index is a two-slice rotation (_rotated).

SumTables is the one memo space for tables derived from a prime: the
Gauss vector, the line bins and binomial lines here, and the
coefficient vectors, all-x value tables, exact phi/eps
levels, F4* spectra, product's F4* curves and curve trace tables of the
layers above all go through SumTables.memo.
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField


class SumTables:
    """Every table derived from one prime field, memoised in one dict.

    memo(key, build, *args) builds a table on first use, marks every
    array it returns read-only and keeps it for the field's lifetime.
    A binomial line is the one memo for Jacobi sums and binomial
    coefficients: every scalar lookup reads its entry off a line.
    """

    def __init__(self, field: PrimeField):
        self.field = field
        self._memo: dict = {}

    def memo(self, key, build, *args):
        """The table under key, built as build(*args) on first use; read-only."""
        hit = self._memo.get(key)
        if hit is None:
            hit = build(*args)
            for arr in hit if isinstance(hit, tuple) else (hit,):
                arr.setflags(write=False)
            self._memo[key] = hit
        return hit

    # -- Gauss sums ------------------------------------------------------------

    @property
    def gauss_vector(self) -> np.ndarray:
        """g(chi_j) for every j; g(trivial) is stored as exactly -1."""
        return self.memo("gauss", _gauss_kernel, self.field)

    # -- Jacobi sums and binomial coefficients -----------------------------------

    def jacobi_index(self, a: int, b: int) -> complex:
        """J(chi_a, chi_b) = sum_x chi_a(x) chi_b(1-x) = (-1)^b q (chi_a over chi_{-b})."""
        sign = -1.0 if b % 2 else 1.0
        return complex(sign * self.field.q * self.binomial_line(a + b)[a % (self.field.q - 1)])

    def binomial_index(self, a: int, b: int) -> complex:
        """(chi_a over chi_b) = chi_b(-1) * J(chi_a, inverse(chi_b)) / q."""
        return complex(self.binomial_line(a - b)[a % (self.field.q - 1)])

    def binomial_line(self, diff: int) -> np.ndarray:
        """Vector over m of (chi_m over chi_{m-diff}).

        Every slot of a hypergeometric coefficient product reads its
        binomials off one such line, so lines are the natural cache unit.
        """
        diff %= self.field.q - 1
        return self.memo(("line", diff), _line_kernel, self, diff)


def _gauss_kernel(f: PrimeField) -> np.ndarray:
    # g(chi_j) = sum_k zeta_{q-1}^{jk} zeta_q^{g^k}: one inverse DFT over k
    # of the additive character at the powers g^k, built here and dropped,
    # since the memo keeps only the result.
    g = np.fft.ifft(np.exp(2j * np.pi * f.exp / f.q)) * (f.q - 1)
    g[0] = -1.0  # exact: sum of all nontrivial q-th roots of unity
    return g


def _line_bins(f: PrimeField) -> np.ndarray:
    """bins[x-2] = dlog(x/(1-x)) for x in 2..q-1 (0 and 1 add nothing to J): each dlog but dlog(-1) = (q-1)/2, once."""
    return (f.dlog[2:] - f.dlog[:1:-1]) % (f.q - 1)  # dlog x - dlog(1-x): dlog[:1:-1][x-2] = dlog[q+1-x]


def _rotated(v: np.ndarray, a: int) -> np.ndarray:
    """v rotated left by a, as a new array: entry j is v[(j + a) mod len(v)]; two slices, quicker than np.roll."""
    a %= len(v)
    return np.concatenate((v[a:], v[:a]))


def _line_kernel(tables: SumTables, diff: int, by_dlog: np.ndarray | None = None) -> np.ndarray:
    """The binomial line of diff, each x optionally weighted by by_dlog[dlog x].

    With d1 = dlog x and d2 = dlog(1-x), read as the slices dlog[2:] and
    dlog[:1:-1] beside the bins d1-d2 (_line_bins), the Jacobi sum behind
    entry m is sum_x zeta^(diff*d2) zeta^(m*(d1-d2)): a histogram of the
    first factor over the bins, then one inverse DFT over m.  Entry m is
    (-1)^(m-diff)/q times that sum, which without weights is
    (chi_m over chi_{m-diff}).
    """
    f = tables.field
    n = f.q - 1
    weights = f.unit_roots[(diff * f.dlog[:1:-1]) % n]
    if by_dlog is not None:
        weights = weights * by_dlog[f.dlog[2:]]
    hist = np.zeros(n, dtype=complex)
    np.add.at(hist, tables.memo("bins", _line_bins, f), weights)
    line = np.fft.ifft(hist) * n / f.q  # n * ifft[m] = J(chi_m, chi_{diff-m}) when unweighted
    line[(diff + 1) % 2 :: 2] *= -1  # (-1)^(m-diff)
    return line
