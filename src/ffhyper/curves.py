"""Frobenius traces of the Legendre and Clausen curve families.

Traces come from the quadratic-character sum over the defining cubic.
The whole-family table of a prime is one exact length-q cyclic
correlation, and each builder takes a sequence of fields and returns
one table per field from one stacked kernel call (_correlate, O(q log q)
by real FFT, the package's one exact integer correlation: hypergeo's
exact phi/eps descent runs on it at length q-1, its limbs stacked).  A
prime sweep builds its tables in runs of consecutive primes
(_stack_runs, bounded by _STACK_ENTRIES), and the identity checks read
them (memoised per prime) for every parameter.  The rounded stack must
lie within 0.25 of integers or it raises.  The direct O(q) sum for one
parameter (`legendre_trace`, `clausen_trace`) is the tables' independent
oracle and serves single queries; the tests count points naively
(tests/oracles.py) to check it.
"""

from __future__ import annotations

from bisect import bisect_left
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


# Every 5-smooth number 2^i * 3^j * 5^k below 2**40, ascending (3,460 of them).
_SMOOTH = sorted(
    p << i for p in (3**j * 5**k for j in range(26) for k in range(18)) if p < 2**40 for i in range(41 - p.bit_length())
)


def _smooth_len(n: int) -> int:
    """Smallest 2^i * 3^j * 5^k >= n, for n up to 2**39."""
    return _SMOOTH[bisect_left(_SMOOTH, n)]


# Float64 entries in one operand stack of _correlate (64 KiB).  _stack_runs
# ends a run of primes before its stack would exceed it, so a prime whose
# padded length _smooth_len(2q - 1) is more than half of it (q > 2048)
# always stands alone.
_STACK_ENTRIES = 2**13


def _stack_runs(qs) -> list[list[int]]:
    """qs in order, split into runs whose trace tables fit one stacked correlation.

    A run holds as many consecutive q as keep rows * _smooth_len(2 max q - 1)
    within _STACK_ENTRIES, and at least one.
    """
    runs, width = [], 0
    for q in qs:
        size = _smooth_len(2 * q - 1)
        if runs and (len(runs[-1]) + 1) * max(width, size) <= _STACK_ENTRIES:
            runs[-1].append(q)
            width = max(width, size)
        else:
            runs.append([q])
            width = size
    return runs


def _correlate(pairs) -> list[np.ndarray]:
    """Exact integer cyclic correlations c_i[l] = sum_y a_i[y] * b_i[y + l] (mod m_i), stacked.

    pairs is a non-empty sequence of (a_i, b_i), integer-valued arrays of
    one length m_i each: q for the trace tables, q-1 for the exact
    descent.  Row i of one float64 stack holds a_i zero-padded, row i of
    another b_i followed by b_i[:-1], both of the smallest 5-smooth
    length N >= 2 max m_i - 1: y + l <= 2 m_i - 2 < N for y, l < m_i, so
    nothing wraps, and the first m_i entries of row i are its cyclic
    correlation.  A smooth N also spares pocketfft its Bluestein route
    for a prime m (about two smooth transforms of length 2m each).  One
    real transform of each stack and one inverse serve every row.  Every
    entry of the stack, padding included, is an integer correlation, so
    the whole stack is rounded to int64 only if every entry is within
    0.25 of an integer: a precision loss raises instead of being rounded
    away.  Row i comes back as its first m_i entries.
    """
    ms = [len(a) for a, _ in pairs]
    size = _smooth_len(2 * max(ms) - 1)
    left = np.zeros((len(ms), size))
    right = np.zeros((len(ms), size))
    for row, ((a, b), m) in enumerate(zip(pairs, ms)):
        left[row, :m] = a
        right[row, :m] = b
        right[row, m : 2 * m - 1] = b[:-1]
    spec = np.fft.rfft(left)
    np.conjugate(spec, out=spec)
    spec *= np.fft.rfft(right)
    c = np.fft.irfft(spec, size)
    out = np.rint(c)
    resid = float(np.abs(c - out).max())
    if resid >= 0.25:
        raise ArithmeticError(f"a cyclic correlation of length <= {max(ms)} is {resid:.3g} from an integer")
    ints = out.astype(np.int64)
    return [ints[row, :m] for row, m in enumerate(ms)]


def legendre_trace_table(fields) -> list[np.ndarray]:
    """Each field's traces for every lambda at once; entries at lambda in {0,1} are unused.

    a(lam) = -sum_x u[x] phi(x - lam) with u[x] = phi(x(x-1)), which is
    -sum_y phi(y) u[y + lam]: one correlation of phi against u per field,
    all of them one stacked _correlate call.  phi is completely
    multiplicative, so u[x] = phi(x) phi(x-1) is a product of two
    shifted slices of the Legendre table (u[0] = 0), and the table reads
    no discrete log.
    """
    pairs = []
    for field in fields:
        leg = field.legendre_table
        pairs.append((leg, np.concatenate(([0], leg[1:] * leg[:-1]))))
    return [-c for c in _correlate(pairs)]


def clausen_trace_table(fields) -> list[np.ndarray]:
    """Each field's traces for every lambda at once; entries at lambda in {0,-1} are unused.

    a'(lam) = -sum_t w[t] phi(t + lam) with w[t] = sum_{x^2 = t} phi(x-1):
    one correlation of w against phi per field, all of them one stacked
    _correlate call.
    """
    pairs = []
    for field in fields:
        q = field.q
        leg = field.legendre_table
        xs = np.arange(q, dtype=np.int64)
        pairs.append((np.bincount(xs * xs % q, weights=leg[(xs - 1) % q], minlength=q), leg))
    return [-c for c in _correlate(pairs)]
