"""Gauss sums, Jacobi sums and binomial coefficients, memoized per field.

Jacobi sums are computed by direct summation over x rather than through
the Gauss-sum factorization: the factorization breaks down whenever a
product of characters degenerates to the trivial one, which the
binomial coefficients used downstream hit constantly.  The direct sum
is uniform in the characters, and one length-(q-1) transform evaluates
it for a whole binomial line at once.
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField


class SumTables:
    """Per-field Gauss vector and binomial lines.

    A binomial line is the one memo for Jacobi sums and binomial
    coefficients: every scalar lookup reads its entry off a line.  Lines
    are keyed by character-index difference, built lazily with one
    transform each and retained for the field's lifetime.
    """

    def __init__(self, field: PrimeField):
        self.field = field
        self._gauss: np.ndarray | None = None
        self._binom_lines: dict[int, np.ndarray] = {}
        # Memo space for the hypergeometric layer (coefficient vectors,
        # whole-argument value tables) and for each curve family's trace
        # table beside its hypergeometric values, keyed by tuples.
        self.hyper_cache: dict = {}

    # -- Gauss sums ------------------------------------------------------------

    @property
    def gauss_vector(self) -> np.ndarray:
        """g(chi_j) for every j; g(trivial) is stored as exactly -1."""
        if self._gauss is None:
            f = self.field
            n = f.q - 1
            # g(chi_j) = sum_k zeta_{q-1}^{jk} zeta_q^{g^k}: one inverse DFT over k.
            g = np.fft.ifft(f.zeta_add[f.exp]) * n
            g[0] = -1.0  # exact: sum of all nontrivial q-th roots of unity
            self._gauss = g
        return self._gauss

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
        n = self.field.q - 1
        diff %= n
        hit = self._binom_lines.get(diff)
        if hit is not None:
            return hit
        line = _line_kernel(self.field, diff)
        line.setflags(write=False)
        self._binom_lines[diff] = line
        return line


def _line_kernel(f: PrimeField, diff: int, by_dlog: np.ndarray | None = None) -> np.ndarray:
    """The binomial line of diff, each x optionally weighted by by_dlog[dlog x].

    With d1 = dlog x and d2 = dlog(1-x), the Jacobi sum behind entry m
    is sum_x zeta^(diff*d2) zeta^(m*(d1-d2)): a histogram of the first
    factor over the bins d1-d2, then one inverse DFT over m.  Entry m is
    (-1)^(m-diff)/q times that sum, which without weights is
    (chi_m over chi_{m-diff}).
    """
    n = f.q - 1
    xs = np.arange(2, f.q)  # x = 0, 1 contribute nothing to J
    d1 = f.dlog[xs]
    d2 = f.dlog[(1 - xs) % f.q]
    weights = f.unit_roots[(diff * d2) % n]
    if by_dlog is not None:
        weights = weights * by_dlog[d1]
    hist = np.zeros(n, dtype=complex)
    np.add.at(hist, (d1 - d2) % n, weights)
    jac = np.fft.ifft(hist) * n  # jac[m] = J(chi_m, chi_{diff-m}) when unweighted
    signs = np.where((np.arange(n) - diff) % 2, -1.0, 1.0)
    return signs * jac / f.q
