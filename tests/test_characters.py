import cmath

import numpy as np
import pytest

from ffhyper import make_field
from ffhyper.characters import Character, character_row
from ffhyper.field import primes_in_range


def test_trivial_on_nonzero():
    f = make_field(7)
    eps = Character(f, 0)
    assert eps(5) == 1
    assert all(eps(x) == 1 for x in range(1, 7))


def test_zero_absorbing_convention():
    f = make_field(7)
    for chi in [Character(f, j) for j in range(f.q - 1)]:
        assert chi(0) == 0


def test_quadratic_matches_legendre():
    assert Character(make_field(7), 3)(3) == -1
    for q in (3, 5, 7, 101, 1009):
        f = make_field(q)
        phi, eps = Character(f, (q - 1) // 2), Character(f, 0)
        for x in range(q):
            assert phi(x) == f.legendre(x)
            assert phi(x).imag == 0.0  # pinned unit roots
            if x:
                assert eps(x) == 1 + 0j and eps(x).imag == 0.0


def test_group_ops():
    """A product of characters is the sum of indices, an inverse the negated index, both mod q-1."""
    f = make_field(7)
    phi, eps, omega = Character(f, 3), Character(f, 0), Character(f, 1)
    for x in range(1, 7):
        assert Character(f, 3 + 3)(x) == phi(x) * phi(x) == eps(x)
        assert Character(f, -1)(x) == Character(f, 5)(x)
        assert abs(Character(f, -1)(x) - omega(x).conjugate()) < 1e-12


def test_delta_functions():
    """The deltas of the paper: eps(x) = 1 - delta(x), delta(chi) = 1 exactly for chi = eps."""
    f = make_field(7)
    eps = Character(f, 0)
    assert [1 - eps(x) for x in (0, 1, 6)] == [1, 0, 0]
    assert [int(all(Character(f, j)(x) == 1 for x in range(1, 7))) for j in (0, 3, 1)] == [1, 0, 0]


@pytest.mark.parametrize("q", primes_in_range(3, 31))
def test_orthogonality_over_characters(q):
    f = make_field(q)
    for x in range(2, q):
        s = sum(Character(f, j)(x) for j in range(q - 1))
        assert abs(s) < 1e-10
    s1 = sum(Character(f, j)(1) for j in range(q - 1))
    assert abs(s1 - (q - 1)) < 1e-10


@pytest.mark.parametrize("q", primes_in_range(3, 31))
def test_full_sum_detects_trivial(q):
    f = make_field(q)
    for j in range(f.q - 1):
        chi = Character(f, j)
        s = sum(chi(x) for x in range(q))
        expected = (q - 1) * int(j == 0)
        assert abs(s - expected) < 1e-10


def test_values_on_unit_circle():
    f = make_field(31)
    for chi in [Character(f, j) for j in range(f.q - 1)]:
        for x in range(1, 31):
            assert abs(abs(chi(x)) - 1) < 1e-12


def test_multiplicativity_on_units():
    f = make_field(13)
    for j in range(12):
        chi = Character(f, j)
        for x in range(1, 13):
            for y in range(1, 13):
                assert abs(chi(x * y) - chi(x) * chi(y)) < 1e-12


def test_character_at_minus_one():
    f = make_field(11)
    for j in range(10):
        chi = Character(f, j)
        assert chi(10) == (-1) ** chi.index == (-1) ** j


def test_eval_agrees_with_cmath():
    f = make_field(11)
    for j in range(10):
        chi = Character(f, j)
        for x in range(1, 11):
            direct = cmath.exp(2j * cmath.pi * j * int(f.dlog[x]) / 10)
            assert abs(chi(x) - direct) < 1e-12


@pytest.mark.parametrize("q", [7, 101])
def test_character_row_matches_character_calls(q):
    """The row of chi_j(x) over all j is the Character values exactly, as a fresh array."""
    f = make_field(q)
    for x in range(1, q):
        row = character_row(f, x)
        assert np.array_equal(row, [Character(f, j)(x) for j in range(q - 1)]), x
        assert not np.shares_memory(row, f.unit_roots)
