import cmath

import numpy as np
import pytest

from ffhyper import FieldMismatch, make_field
from ffhyper.characters import (
    Character,
    all_characters,
    character_row,
    delta_char,
    delta_elem,
    quadratic,
    trivial,
)
from ffhyper.field import primes_in_range


def test_trivial_on_nonzero():
    f = make_field(7)
    eps = trivial(f)
    assert eps(5) == 1
    assert all(eps(x) == 1 for x in range(1, 7))


def test_zero_absorbing_convention():
    f = make_field(7)
    for chi in all_characters(f):
        assert chi(0) == 0


def test_quadratic_matches_legendre():
    f = make_field(7)
    phi = quadratic(f)
    assert phi(3) == -1
    for x in range(7):
        assert phi(x) == f.legendre(x)
        assert phi(x).imag == 0.0  # exact integer fast path


def test_group_ops():
    f = make_field(7)
    phi, eps = quadratic(f), trivial(f)
    assert (phi * phi).index == eps.index == 0
    assert eps.inverse() == eps
    omega = Character(f, 1)
    assert omega.inverse().index == 5
    for x in range(1, 7):
        assert abs(omega.inverse()(x) - omega(x).conjugate()) < 1e-12


def test_field_mismatch():
    f7, f11 = make_field(7), make_field(11)
    with pytest.raises(FieldMismatch):
        _ = trivial(f7) * trivial(f11)


def test_delta_functions():
    f = make_field(7)
    assert delta_elem(0) == 1
    assert delta_elem(1) == 0
    assert delta_elem(6) == 0
    assert delta_char(trivial(f)) == 1
    assert delta_char(quadratic(f)) == 0
    assert delta_char(Character(f, 1)) == 0


@pytest.mark.parametrize("q", primes_in_range(3, 31))
def test_orthogonality_over_characters(q):
    f = make_field(q)
    for x in range(2, q):
        s = sum(chi(x) for chi in all_characters(f))
        assert abs(s) < 1e-10
    s1 = sum(chi(1) for chi in all_characters(f))
    assert abs(s1 - (q - 1)) < 1e-10


@pytest.mark.parametrize("q", primes_in_range(3, 31))
def test_full_sum_detects_trivial(q):
    f = make_field(q)
    for chi in all_characters(f):
        s = sum(chi(x) for x in range(q))
        expected = (q - 1) * delta_char(chi)
        assert abs(s - expected) < 1e-10


def test_values_on_unit_circle():
    f = make_field(31)
    for chi in all_characters(f):
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
        assert chi(10) == chi.at_minus_one() == (-1) ** j


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
