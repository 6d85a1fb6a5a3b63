"""Prime fields F_q with a fixed primitive root and discrete-log table.

Every character evaluation downstream reduces to exponent arithmetic on
the table built here: a nonzero residue x is identified with the unique
k in [0, q-2] such that g**k == x (mod q).  The smallest primitive root
is chosen so character indices are reproducible across runs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivisionByZero, NotOdd, NotPrime


def is_prime(n: int) -> bool:
    """Trial division; moduli here are desk-scale."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Odd primes in the closed interval [lo, hi]."""
    return [n for n in range(max(lo, 3), hi + 1) if n % 2 == 1 and is_prime(n)]


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


class PrimeField:
    """F_q for an odd prime q.

    The power table `exp` (exp[k] = g**k) and its inverse `dlog` are
    built baby-step/giant-step: O(sqrt(q)) Python steps for the powers
    g**j and g**(i*b) with b = isqrt(q-1) + 1, then one outer product
    of the two for all q-1 powers.  The one lazy table, `unit_roots`,
    is built on first use; every other table derived from the prime
    lives in charsums.SumTables.

    Immutable after construction; all tables are plain numpy arrays and
    all operations are pure, so instances are safe to share across
    threads.
    """

    def __init__(self, q: int):
        if q == 2:
            raise NotOdd("q = 2 is excluded; the modulus must be an odd prime")
        if not is_prime(q):
            raise NotPrime(f"{q} is not prime")
        self.q = q
        self.g = smallest_primitive_root(q)
        n = q - 1
        # Baby steps small[j] = g**j, giant steps big[i] = g**(i*b); since
        # b*b > n, g**(i*b + j) = big[i] * small[j] covers every k < n.
        # Each product is below q**2, which int64 holds.
        b = math.isqrt(n) + 1
        small = np.empty(b, dtype=np.int64)
        acc = 1
        for j in range(b):
            small[j] = acc
            acc = acc * self.g % q
        big = np.empty(b, dtype=np.int64)
        step, acc = acc, 1  # acc is now g**b
        for i in range(b):
            big[i] = acc
            acc = acc * step % q
        exp = (big[:, None] * small[None, :] % q).ravel()[:n]
        dlog = np.full(q, -1, dtype=np.int64)
        dlog[exp] = np.arange(n, dtype=np.int64)
        self.dlog = dlog
        self.exp = exp
        # Squares are exactly the even powers of g.
        leg = np.where(dlog % 2 == 0, 1, -1).astype(np.int64)
        leg[0] = 0
        self.legendre_table = leg
        self._unit_roots: np.ndarray | None = None

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

    @property
    def unit_roots(self) -> np.ndarray:
        """The (q-1)-th roots of unity, exp(2*pi*i*k/(q-1)).

        Computed once to double precision.  Entries at k = 0 and
        k = (q-1)/2 are pinned to exactly 1 and -1: the quadratic
        character must take exactly the Legendre value, and half-turn
        indices occur in every sum involving it.
        """
        if self._unit_roots is None:
            n = self.q - 1
            roots = np.exp(2j * np.pi * np.arange(n) / n)
            roots[0] = 1.0
            roots[n // 2] = -1.0
            if n % 4 == 0:
                roots[n // 4] = 1j
                roots[3 * n // 4] = -1j
            self._unit_roots = roots
        return self._unit_roots

    # -- plumbing -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        return f"PrimeField(q={self.q}, g={self.g})"


def make_field(q: int) -> PrimeField:
    """Build F_q, rejecting composite or even moduli."""
    return PrimeField(q)
