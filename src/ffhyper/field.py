"""Prime fields F_q with a fixed primitive root and discrete-log table.

Every character evaluation downstream reduces to exponent arithmetic on
the tables built here: a nonzero residue x is identified with the unique
k in [0, q-2] such that g**k == x (mod q).  The smallest primitive root
is chosen so character indices are reproducible across runs.  Each table
is built on first read, so a caller that needs only the Legendre symbol
(the curve trace tables) never searches for a root or takes a discrete
log.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DivisionByZero, NotOdd, NotPrime


def is_prime(n: int) -> bool:
    """Trial division, by _prime_factors; moduli here are desk-scale."""
    return n > 1 and _prime_factors(n) == [n]


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Odd primes in the closed interval [lo, hi].

    A segmented sieve: the window [max(lo, 3), hi] is struck by the
    primes up to isqrt(hi), so memory is O(hi - lo + sqrt(hi)).
    """
    lo = max(lo, 3)
    if hi < lo:
        return []
    root = math.isqrt(hi)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p :: p] = False
    window = np.ones(hi - lo + 1, dtype=bool)
    for p in np.flatnonzero(base).tolist():
        # Multiples below p*p have a smaller prime factor, so start there.
        start = max(p * p, (lo + p - 1) // p * p)
        window[start - lo :: p] = False
    return (np.flatnonzero(window) + lo).tolist()


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def smallest_primitive_root(q: int) -> int:
    phi = q - 1
    factors = _prime_factors(phi)
    for g in range(2, q):
        if all(pow(g, phi // p, q) != 1 for p in factors):
            return g
    raise ArithmeticError(f"no primitive root modulo {q}")


def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


class PrimeField:
    """F_q for an odd prime q.

    Construction only validates q; every table is built on first read
    and kept on the instance (functools.cached_property).  `g` is the
    smallest primitive root.  The power table `exp` (exp[k] = g**k) is
    built baby-step/giant-step: O(sqrt(q)) Python steps for the powers
    g**j and g**(i*b) with b = isqrt(q-1) + 1, then one outer product
    of the two for all q-1 powers; `dlog` is its inverse, read off
    `exp`.  `legendre_table` is built from the squares x**2 for x in
    1..(q-1)/2 and needs neither `g` nor `dlog`.  `unit_roots` holds
    the (q-1)-th roots of unity.  Every other table derived from the
    prime lives in charsums.SumTables.

    The tables are read-only numpy arrays, so a stray write raises rather
    than corrupting every later character value, and all operations are
    pure, so instances are safe to share across threads: a first read
    racing another builds an equal table.
    """

    def __init__(self, q: int):
        if q == 2:
            raise NotOdd("q = 2 is excluded; the modulus must be an odd prime")
        if not is_prime(q):
            raise NotPrime(f"{q} is not prime")
        self.q = q

    @cached_property
    def g(self) -> int:
        return smallest_primitive_root(self.q)

    @cached_property
    def exp(self) -> np.ndarray:
        q, g = self.q, self.g
        n = q - 1
        # Baby steps small[j] = g**j, giant steps big[i] = g**(i*b); since
        # b*b > n, g**(i*b + j) = big[i] * small[j] covers every k < n.
        # Each product is below q**2, which int64 holds.
        b = math.isqrt(n) + 1
        small = np.empty(b, dtype=np.int64)
        acc = 1
        for j in range(b):
            small[j] = acc
            acc = acc * g % q
        big = np.empty(b, dtype=np.int64)
        step, acc = acc, 1  # acc is now g**b
        for i in range(b):
            big[i] = acc
            acc = acc * step % q
        return _read_only((big[:, None] * small[None, :] % q).ravel()[:n])

    @cached_property
    def dlog(self) -> np.ndarray:
        dlog = np.full(self.q, -1, dtype=np.int64)
        dlog[self.exp] = np.arange(self.q - 1, dtype=np.int64)
        return _read_only(dlog)

    @cached_property
    def legendre_table(self) -> np.ndarray:
        q = self.q
        leg = np.full(q, -1, dtype=np.int64)
        leg[0] = 0
        xs = np.arange(1, (q - 1) // 2 + 1, dtype=np.int64)
        leg[xs * xs % q] = 1
        return _read_only(leg)

    # -- element arithmetic -------------------------------------------------

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise DivisionByZero("inverse of 0")
        return pow(a, self.q - 2, self.q)

    def legendre(self, x: int) -> int:
        """Quadratic-character value in {-1, 0, 1}; agrees with Euler's criterion."""
        return int(self.legendre_table[x % self.q])

    @property
    def phi_minus_one(self) -> int:
        """legendre(-1) = (-1)**((q-1)/2)."""
        return self.legendre(self.q - 1)

    # -- shared complex tables ----------------------------------------------

    @cached_property
    def unit_roots(self) -> np.ndarray:
        """The (q-1)-th roots of unity, exp(2*pi*i*k/(q-1)).

        Computed once to double precision.  Entries at k = 0 and
        k = (q-1)/2 are pinned to exactly 1 and -1: the quadratic
        character must take exactly the Legendre value, and half-turn
        indices occur in every sum involving it.
        """
        n = self.q - 1
        roots = np.exp(2j * np.pi * np.arange(n) / n)
        roots[0] = 1.0
        roots[n // 2] = -1.0
        if n % 4 == 0:
            roots[n // 4] = 1j
            roots[3 * n // 4] = -1j
        return _read_only(roots)

    # -- plumbing -------------------------------------------------------------

    def __repr__(self) -> str:
        return f"PrimeField(q={self.q}, g={self.g})"


def make_field(q: int) -> PrimeField:
    """Build F_q, rejecting composite or even moduli."""
    return PrimeField(q)
