import cmath
import random

import numpy as np
import pytest

from ffhyper import make_field
from ffhyper.characters import Character, quadratic
from ffhyper.charsums import SumTables
from ffhyper.field import primes_in_range
from ffhyper.hypergeo import HyperParams, appell_f4, hyper_twisted_sum


def naive_gauss(f, j):
    """Direct summation with cmath only; the independent oracle."""
    q = f.q
    total = 0j
    for x in range(1, q):
        chi = cmath.exp(2j * cmath.pi * j * int(f.dlog[x]) / (q - 1))
        total += chi * cmath.exp(2j * cmath.pi * x / q)
    return total


def naive_jacobi(f, a, b):
    q = f.q
    total = 0j
    for x in range(2, q):
        ca = cmath.exp(2j * cmath.pi * a * int(f.dlog[x]) / (q - 1))
        cb = cmath.exp(2j * cmath.pi * b * int(f.dlog[(1 - x) % q]) / (q - 1))
        total += ca * cb
    return total


def test_gauss_trivial_exact(tables_for):
    t = tables_for(7)
    assert t.gauss_vector[0] == -1.0 + 0j  # stored exactly, never summed


@pytest.mark.parametrize("q", (3, 7, 101, 1009, 10007))
def test_gauss_vector_is_one_inverse_dft_of_the_additive_character(q, tables_for):
    # The same transform over a full additive-character table, read at g^k:
    # equal to the last bit.
    f = tables_for(q).field
    expect = np.fft.ifft(np.exp(2j * np.pi * np.arange(q) / q)[f.exp]) * (q - 1)
    expect[0] = -1.0
    assert np.array_equal(tables_for(q).gauss_vector, expect)


def test_gauss_quadratic_square(tables_for):
    for q in (5, 7, 13, 29):
        t = tables_for(q)
        f = t.field
        g_phi = complex(t.gauss_vector[quadratic(f).index])
        assert abs(g_phi * g_phi - f.phi_minus_one * q) <= 1e-9 * q


@pytest.mark.parametrize("q", primes_in_range(3, 97))
def test_gauss_magnitude_vs_direct_oracle(q, tables_for):
    t = tables_for(q)
    f = t.field
    for j in range(1, q - 1):
        val = t.gauss_vector[j]
        assert abs(abs(val) ** 2 - q) <= 1e-8 * q
        assert abs(val - naive_gauss(f, j)) <= 1e-8 * q


def test_gauss_conjugation_rule(tables_for):
    for q in (7, 13, 31):
        t = tables_for(q)
        g = t.gauss_vector
        n = q - 1
        for j in range(1, n):
            lhs = g[(-j) % n]
            rhs = (-1) ** j * np.conj(g[j])
            assert abs(lhs - rhs) <= 1e-8 * q


def test_jacobi_trivial_pair(tables_for):
    for q in (5, 7, 13):
        t = tables_for(q)
        assert abs(t.jacobi_index(0, 0) - (q - 2)) <= 1e-9 * q


def test_jacobi_symmetry_seeded_pairs(tables_for):
    rng = random.Random(42)
    for _ in range(50):
        q = rng.choice(primes_in_range(5, 97))
        t = tables_for(q)
        a, b = rng.randrange(q - 1), rng.randrange(q - 1)
        assert abs(t.jacobi_index(a, b) - t.jacobi_index(b, a)) <= 1e-9 * q


def test_jacobi_phi_phi_q5(tables_for):
    t = tables_for(5)
    f = t.field
    phi = quadratic(f)
    val = t.jacobi_index(phi.index, phi.index)
    direct = sum(f.legendre(x) * f.legendre(1 - x) for x in range(2, 5))
    assert direct == -1
    assert abs(val - -1) <= 1e-9 * 5
    assert abs(val - -f.phi_minus_one) <= 1e-9 * 5


def test_jacobi_magnitude_classical(tables_for):
    for q in (7, 13, 29):
        t = tables_for(q)
        n = q - 1
        for a in range(1, n):
            for b in range(1, n):
                if (a + b) % n == 0:
                    continue
                assert abs(abs(t.jacobi_index(a, b)) ** 2 - q) <= 1e-7 * q


@pytest.mark.parametrize("q", [13, 101])
def test_jacobi_matches_direct_oracle(q, tables_for):
    t = tables_for(q)
    f = t.field
    pairs = [(a, b) for a in range(q - 1) for b in range(q - 1)]
    if len(pairs) > 200:
        pairs = random.Random(q).sample(pairs, 200)
    for a, b in pairs:
        assert abs(t.jacobi_index(a, b) - naive_jacobi(f, a, b)) <= 1e-9 * q


def test_binomial_diagonal_closed_form(tables_for):
    for q in (5, 7, 11, 13):
        t = tables_for(q)
        assert abs(t.binomial_index(0, 0) - (q - 2) / q) <= 1e-9  # (eps over eps)
        for j in range(1, q - 1):
            assert abs(t.binomial_index(j, j) - -1 / q) <= 1e-9
            assert abs(t.binomial_index(j, 0) - -1 / q) <= 1e-9  # (chi over eps)


def test_binomial_eps_over_phi(tables_for):
    for q in (5, 7, 11, 13):
        t = tables_for(q)
        f = t.field
        val = t.binomial_index(0, quadratic(f).index)
        assert abs(val - -f.phi_minus_one / q) <= 1e-9


def test_cache_transparency_bit_identical(tables_for):
    t = SumTables(make_field(11))
    first = t.jacobi_index(3, 5)
    again = t.jacobi_index(3, 5)
    assert first == again  # bit-identical, not merely close
    line = t.binomial_line(4)
    assert line is t.binomial_line(4)


def test_line_bins_built_once_per_tables(monkeypatch):
    """The dlog bins behind every line are one memo entry per SumTables."""
    import ffhyper.charsums as cs

    built = []

    def counted(f, build=cs._line_bins):
        built.append(f.q)
        return build(f)

    monkeypatch.setattr(cs, "_line_bins", counted)
    for _ in range(2):
        t = SumTables(make_field(101))
        for d in (0, 1, 7, 50):
            t.binomial_line(d)
        params = HyperParams.phi_eps(t.field, 1)
        hyper_twisted_sum(params, np.ones(100, dtype=complex), 3, t)
    assert built == [101, 101]


def test_binomial_line_matches_scalar(tables_for):
    t = tables_for(11)
    n = 10
    for d in range(n):
        line = t.binomial_line(d)
        for m in range(n):
            assert line[m] == t.binomial_index(m, m - d)



def naive_appell_f4(f, a, b, c, cp, x, y):
    """F4* from its defining double sum of Gauss-sum ratios, with cmath only."""
    n = f.q - 1
    g = [naive_gauss(f, j) for j in range(n)]
    chi_x = [cmath.exp(2j * cmath.pi * u * int(f.dlog[x]) / n) for u in range(n)]
    chi_y = [cmath.exp(2j * cmath.pi * v * int(f.dlog[y]) / n) for v in range(n)]
    total = 0j
    for u in range(n):
        for v in range(n):
            s = u + v
            total += (
                g[(a + s) % n] * g[(b + s) % n]
                * g[(-c - u) % n] * g[-u % n] * g[(-cp - v) % n] * g[-v % n]
                * chi_x[u] * chi_y[v]
            )
    return total / (n * n * g[a % n] * g[b % n] * g[-c % n] * g[-cp % n])


@pytest.mark.parametrize("q", [7, 13, 101])
def test_appell_f4_matches_defining_sum(q, tables_for):
    t = tables_for(q)
    f = t.field
    rng = random.Random(q)
    for _ in range(6):
        a, b, c, cp = (rng.randrange(q - 1) for _ in range(4))
        x, y = rng.randrange(1, q), rng.randrange(1, q)
        chars = [Character(f, j) for j in (a, b, c, cp)]
        oracle = naive_appell_f4(f, a, b, c, cp, x, y)
        assert abs(appell_f4(*chars, x, y, t) - oracle) <= 1e-9 * q
