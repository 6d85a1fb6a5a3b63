"""The multiplicative characters of F_q, each one its index.

A character is its exponent j modulo q-1: chi_j sends the fixed
primitive root g to exp(2*pi*i*j/(q-1)).  Index 0 is the trivial
character, index (q-1)/2 the quadratic one, a product of characters is
the sum of their indices and an inverse the negated index.  Every
character, the trivial one included, takes the value 0 at 0; sums over
F_q silently depend on this convention.  Character(field, j)(x)
evaluates chi_j at one point; character_row evaluates every chi_j at one
point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import PrimeField


@dataclass(frozen=True)
class Character:
    """chi_index over field, evaluated at a point by calling it."""

    field: PrimeField
    index: int

    def __call__(self, x: int) -> complex:
        """chi(x) as a complex number, read off the field's unit roots.

        The pinned roots make eps exactly 1 and phi exactly the Legendre
        value off zero.
        """
        q = self.field.q
        x %= q
        if x == 0:
            return 0j
        k = (self.index * int(self.field.dlog[x])) % (q - 1)
        return complex(self.field.unit_roots[k])


def character_row(field: PrimeField, x: int) -> np.ndarray:
    """chi_j(x) for every j, by index, as a fresh array; x must be nonzero."""
    n = field.q - 1
    return field.unit_roots[(np.arange(n) * int(field.dlog[x % field.q])) % n]
