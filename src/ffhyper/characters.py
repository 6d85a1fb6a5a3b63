"""The multiplicative character group of F_q.

A character is just an exponent j modulo q-1: chi_j sends the fixed
primitive root g to exp(2*pi*i*j/(q-1)).  Index 0 is the trivial
character, index (q-1)/2 the quadratic one.  Every character, the
trivial one included, takes the value 0 at 0; sums over F_q silently
depend on this convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldMismatch
from .field import PrimeField


@dataclass(frozen=True)
class Character:
    field: PrimeField
    index: int

    def __post_init__(self):
        object.__setattr__(self, "index", self.index % (self.field.q - 1))

    # -- evaluation ----------------------------------------------------------

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

    # -- group structure -------------------------------------------------------

    def __mul__(self, other: "Character") -> "Character":
        if self.field != other.field:
            raise FieldMismatch("characters over different fields")
        return Character(self.field, self.index + other.index)

    def inverse(self) -> "Character":
        return Character(self.field, -self.index)

    @property
    def is_trivial(self) -> bool:
        return self.index == 0

    def __repr__(self) -> str:
        return f"chi_{self.index}(mod {self.field.q})"


def trivial(field: PrimeField) -> Character:
    return Character(field, 0)


def quadratic(field: PrimeField) -> Character:
    return Character(field, (field.q - 1) // 2)


def character_row(field: PrimeField, x: int) -> np.ndarray:
    """chi_j(x) for every j, by index, as a fresh array; x must be nonzero."""
    n = field.q - 1
    return field.unit_roots[(np.arange(n) * int(field.dlog[x % field.q])) % n]
