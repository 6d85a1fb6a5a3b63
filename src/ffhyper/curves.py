"""Frobenius traces of the Legendre and Clausen curve families.

Traces come from the quadratic-character sum over the defining cubic.
The whole-family tables are one exact length-q cyclic correlation each
(_correlate, O(q log q) by real FFT, the package's one exact integer
correlation: hypergeo's exact phi/eps descent runs on it at length q-1),
and the identity checks read them (memoised per prime) for every
parameter.  The rounded correlation must lie within 0.25 of integers or
it raises.  The direct O(q) sum for one parameter (`legendre_trace`,
`clausen_trace`) is the tables' independent oracle and serves single
queries; the tests count points naively (tests/oracles.py) to check it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularParameter
from .field import PrimeField


@dataclass(frozen=True)
class TraceRecord:
    lam: int
    trace: int
    count: int

    def __post_init__(self):
        # count = q + 1 - trace, so this is the Hasse bound |a| <= 2*sqrt(q)
        if self.trace**2 > 4 * (self.count + self.trace - 1):
            raise ArithmeticError(f"trace {self.trace} violates the Hasse bound")


def legendre_trace(field: PrimeField, lam: int) -> TraceRecord:
    """Trace of y^2 = x(x-1)(x-lam); lam outside {0, 1}."""
    q = field.q
    lam %= q
    if lam in (0, 1):
        raise SingularParameter(f"lambda = {lam} is singular for the Legendre family")
    xs = np.arange(q, dtype=np.int64)
    f = (xs * (xs - 1) % q) * (xs - lam) % q
    tr = -int(field.legendre_table[f].sum())
    return TraceRecord(lam, tr, q + 1 - tr)


def clausen_trace(field: PrimeField, lam: int) -> TraceRecord:
    """Trace of y^2 = (x-1)(x^2+lam); lam outside {0, -1}."""
    q = field.q
    lam %= q
    if lam == 0 or lam == q - 1:
        raise SingularParameter(f"lambda = {lam} is singular for the Clausen family")
    xs = np.arange(q, dtype=np.int64)
    f = ((xs - 1) % q) * ((xs * xs + lam) % q) % q
    tr = -int(field.legendre_table[f].sum())
    return TraceRecord(lam, tr, q + 1 - tr)


def _smooth_len(n: int) -> int:
    """Smallest 2^i * 3^j * 5^k >= n."""
    best = 1 << max(n - 1, 0).bit_length()  # a power of two >= n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _correlate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer cyclic correlation c[l] = sum_y a[y] * b[y + l] (mod len).

    The length m = len(a) is q for the trace tables and q-1 for the
    exact descent.  a, zero-padded, is correlated with b followed by
    b[:-1] at the smallest 5-smooth length N >= 2m - 1: y + l <= 2m - 2
    < N for y, l < m, so nothing wraps, and the first m entries are the
    cyclic correlation.  A smooth N also spares pocketfft its Bluestein
    route for a prime m (about two smooth transforms of length 2m each).
    One pair of real transforms and one inverse; the result is rounded
    to int64 only if every entry is within 0.25 of an integer, so a
    precision loss raises instead of being rounded away.
    """
    m = len(a)
    size = _smooth_len(2 * m - 1)
    spec = np.conj(np.fft.rfft(a, size)) * np.fft.rfft(np.concatenate((b, b[:-1])), size)
    c = np.fft.irfft(spec, size)[:m]
    out = np.rint(c)
    resid = float(np.abs(c - out).max())
    if resid >= 0.25:
        raise ArithmeticError(f"cyclic correlation of length {m} is {resid:.3g} from an integer")
    return out.astype(np.int64)


def legendre_trace_table(field: PrimeField) -> np.ndarray:
    """Traces for every lambda at once; entries at lambda in {0,1} are unused.

    a(lam) = -sum_x u[x] phi(x - lam) with u[x] = phi(x(x-1)), which is
    -sum_y phi(y) u[y + lam]: one correlation of phi against u.  phi is
    completely multiplicative, so u[x] = phi(x) phi(x-1) is a product of
    two shifted slices of the Legendre table (u[0] = 0), and the table
    reads no discrete log.
    """
    leg = field.legendre_table
    u = np.concatenate(([0], leg[1:] * leg[:-1]))
    return -_correlate(leg, u)


def clausen_trace_table(field: PrimeField) -> np.ndarray:
    """Traces for every lambda at once; entries at lambda in {0,-1} are unused.

    a'(lam) = -sum_t w[t] phi(t + lam) with w[t] = sum_{x^2 = t} phi(x-1):
    one correlation of w against phi.
    """
    q = field.q
    leg = field.legendre_table
    xs = np.arange(q, dtype=np.int64)
    w = np.bincount(xs * xs % q, weights=leg[(xs - 1) % q], minlength=q)
    return -_correlate(w, leg)
