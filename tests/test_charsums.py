import cmath
import random

import numpy as np
import pytest

import ffhyper.charsums as cs
import ffhyper.hypergeo as hg
import ffhyper.identities as ids
from ffhyper import make_field
from ffhyper.charsums import SumTables
from ffhyper.field import primes_in_range
from ffhyper.hypergeo import HyperParams, appell_f4, hyper_twisted_sum
from oracles import (
    appell_f4_naive,
    bridge_mus_gathered,
    coeff_product_gathered,
    f4_spectra_gathered,
    gauss_naive,
    inductive_sum_gathered,
    line_kernel_gathered,
    twisted_sum_gathered,
)


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
        g_phi = complex(t.gauss_vector[(q - 1) // 2])
        assert abs(g_phi * g_phi - f.phi_minus_one * q) <= 1e-9 * q


@pytest.mark.parametrize("q", primes_in_range(3, 97))
def test_gauss_magnitude_vs_direct_oracle(q, tables_for):
    t = tables_for(q)
    f = t.field
    for j in range(1, q - 1):
        val = t.gauss_vector[j]
        assert abs(abs(val) ** 2 - q) <= 1e-8 * q
        assert abs(val - gauss_naive(f, j)) <= 1e-8 * q


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
    phi = 2  # (q-1)/2, the quadratic character at q = 5
    val = t.jacobi_index(phi, phi)
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
        val = t.binomial_index(0, (q - 1) // 2)
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
    built = []

    def counted(f, build=cs._line_bins):
        built.append(f.q)
        return build(f)

    monkeypatch.setattr(cs, "_line_bins", counted)
    for _ in range(2):
        t = SumTables(make_field(101))
        for d in (0, 1, 7, 50):
            t.binomial_line(d)
        params = HyperParams.phi_eps(t.field.q, 1)
        hyper_twisted_sum(params, np.ones(100, dtype=complex), 3, t)
    assert built == [101, 101]


def test_binomial_line_matches_scalar(tables_for):
    t = tables_for(11)
    n = 10
    for d in range(n):
        line = t.binomial_line(d)
        for m in range(n):
            assert line[m] == t.binomial_index(m, m - d)



@pytest.mark.parametrize("q", [7, 13, 101])
def test_appell_f4_matches_defining_sum(q, tables_for):
    t = tables_for(q)
    f = t.field
    rng = random.Random(q)
    for _ in range(6):
        a, b, c, cp = (rng.randrange(q - 1) for _ in range(4))
        x, y = rng.randrange(1, q), rng.randrange(1, q)
        oracle = appell_f4_naive(f, a, b, c, cp, x, y)
        assert abs(appell_f4(a, b, c, cp, x, y, t) - oracle) <= 1e-9 * q


def test_line_bins_are_dlog_of_x_over_one_minus_x():
    """x -> x/(1-x) maps 2..q-1 onto F_q minus {0, -1}: the bins hold every dlog but dlog(-1) = (q-1)/2, once."""
    for q in primes_in_range(3, 200):
        f = make_field(q)
        bins = cs._line_bins(f)
        assert sorted(bins.tolist()) == [r for r in range(q - 1) if r != (q - 1) // 2], q
        assert f.exp[bins].tolist() == [lam * pow(1 - lam, -1, q) % q for lam in range(2, q)], q


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# From q = 16411 on a length-(q-1) complex array is 256 KiB or more, where
# numpy may write a product into a temporary operand, and which operand it
# takes moves the product's last bits; q = 20011 is past that size.
@pytest.mark.parametrize("q", (5, 13, 101, 1601, 20011))
def test_slice_reads_match_the_gathers_bit_for_bit(q):
    """Every table read by slices or rotations equals its gathered form (tests/oracles.py) bit for bit."""
    t = SumTables(make_field(q))
    f = t.field
    n = q - 1
    rng = np.random.default_rng(q)
    r = random.Random(q)
    by_dlog = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for diff in sorted({0, 1, n // 2, n - 1, r.randrange(n)}):
        assert _same_bits(cs._line_kernel(t, diff), line_kernel_gathered(t, diff))
        assert _same_bits(cs._line_kernel(t, diff, by_dlog), line_kernel_gathered(t, diff, by_dlog))
    for lowers in (0, 1, 2):
        params = HyperParams(q, *(tuple(r.randrange(n) for _ in range(k)) for k in (lowers + 1, lowers)))
        assert _same_bits(hg._coeff_product(params, t), coeff_product_gathered(params, t))
        if lowers:
            weights = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x = r.randrange(1, q)
            got = hyper_twisted_sum(params, weights, x, t)
            assert _same_bits(got, twisted_sum_gathered(params, weights, x, t))
        free = HyperParams(q, *(tuple(r.randrange(n) for _ in range(k)) for k in (lowers + 1, lowers)))
        for k in (1, 2):
            x = r.randrange(1, q)
            assert _same_bits(ids._inductive_sum(free, k, x, t), inductive_sum_gathered(free, k, x, t))
    for chars in ((n // 2, n // 2, 0, 0), tuple(r.randrange(n) for _ in range(4))):
        for got, want in zip(hg._f4_spectra(t, *chars), f4_spectra_gathered(t, *chars)):
            assert _same_bits(got, want)
    block = ids.trace_bridge_block(t)
    mus = [int(inst.rpartition("mu=")[2]) for inst in block.instances[q - 2 :]]
    assert mus == bridge_mus_gathered(f).tolist()
