import math

import numpy as np
import pytest

from ffhyper import SingularParameter, make_field
from ffhyper.curves import (
    _correlate,
    _smooth_len,
    clausen_trace,
    clausen_trace_table,
    legendre_trace,
    legendre_trace_table,
)
from ffhyper.field import primes_in_range
from oracles import count_points_naive, cyclic_correlation_naive, hasse_bound


def test_legendre_q5_lambda2():
    f = make_field(5)
    rec = legendre_trace(f, 2)
    assert rec.trace == -2
    assert rec.count == 8
    assert count_points_naive(f, "legendre", 2) == 8


def test_clausen_q5_lambda1():
    f = make_field(5)
    rec = clausen_trace(f, 1)
    assert rec.trace == -2
    assert rec.count == 8
    assert count_points_naive(f, "clausen", 1) == 8


def test_singular_parameters():
    f = make_field(7)
    for lam in (0, 1):
        with pytest.raises(SingularParameter):
            legendre_trace(f, lam)
    for lam in (0, 7 - 1):
        with pytest.raises(SingularParameter):
            clausen_trace(f, lam)


@pytest.mark.parametrize("q", primes_in_range(3, 61))
def test_hasse_bound(q):
    f = make_field(q)
    bound = hasse_bound(q)
    assert bound == math.isqrt(4 * q)
    for lam in range(2, q):
        assert abs(legendre_trace(f, lam).trace) <= bound
    for lam in range(1, q - 1):
        assert abs(clausen_trace(f, lam).trace) <= bound


@pytest.mark.parametrize("q", primes_in_range(3, 31))
def test_charsum_count_matches_naive(q):
    f = make_field(q)
    for lam in range(2, q):
        assert legendre_trace(f, lam).count == count_points_naive(f, "legendre", lam)
    for lam in range(1, q - 1):
        assert clausen_trace(f, lam).count == count_points_naive(f, "clausen", lam)


@pytest.mark.parametrize("q", primes_in_range(3, 97))
def test_trace_sum_identity(q):
    f = make_field(q)
    total = sum(legendre_trace(f, lam).trace for lam in range(2, q))
    assert total + f.phi_minus_one == -1


def test_trace_tables_match_single_calls():
    for q in (7, 13, 29, 101, 1009):
        f = make_field(q)
        (a,) = legendre_trace_table([f])
        for lam in range(2, q):
            assert int(a[lam]) == legendre_trace(f, lam).trace
        (ap,) = clausen_trace_table([f])
        for lam in range(1, q - 1):
            assert int(ap[lam]) == clausen_trace(f, lam).trace


def test_trace_tables_match_single_calls_sampled():
    q = 10007
    f = make_field(q)
    (a,) = legendre_trace_table([f])
    (ap,) = clausen_trace_table([f])
    rng = np.random.default_rng(2021)
    for lam in rng.integers(2, q - 1, size=200):
        lam = int(lam)
        assert int(a[lam]) == legendre_trace(f, lam).trace
        assert int(ap[lam]) == clausen_trace(f, lam).trace


@pytest.mark.parametrize("q", (101, 401))  # q - 1 is a perfect square
def test_trace_tables_hasse_bound(q):
    f = make_field(q)
    bound = hasse_bound(q)
    (a,) = legendre_trace_table([f])
    (ap,) = clausen_trace_table([f])
    assert a.dtype == ap.dtype == np.int64
    assert np.abs(a[2:]).max() <= bound
    assert np.abs(ap[1 : q - 1]).max() <= bound


def test_trace_correlation_refuses_to_round_non_integers():
    with pytest.raises(ArithmeticError):
        _correlate([(np.array([0.5, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))])
    # Stacked: only the second, shorter row is off the integers.
    with pytest.raises(ArithmeticError, match="length <= 5"):
        _correlate([(np.arange(5.0), np.ones(5)), (np.array([0.0, 0.5]), np.array([1.0, 3.0]))])


def test_stacked_correlation_matches_naive_per_row():
    rng = np.random.default_rng(30)
    lengths = [1, 2, 3, 300, *rng.integers(1, 301, size=12)]
    pairs = [(rng.integers(-9, 10, size=m), rng.integers(-9, 10, size=m)) for m in lengths]
    got = _correlate(pairs)
    assert len(got) == len(pairs)
    for c, (a, b) in zip(got, pairs):
        assert c.dtype == np.int64
        assert c.tolist() == cyclic_correlation_naive(a.tolist(), b.tolist())


def test_smooth_len_is_smallest_5_smooth_at_least_n():
    smooth = sorted(2**i * 3**j * 5**k for i in range(14) for j in range(9) for k in range(7))
    for n in range(1, 5001):
        assert _smooth_len(n) == next(m for m in smooth if m >= n), n
    smooth = sorted(2**i * 3**j * 5**k for i in range(41) for j in range(26) for k in range(18))
    for n in (10**6 + 1, 2 * 10**7 + 37, 3**20 + 1, 5**16 - 1, 2**39 - 1, 2**39):
        assert _smooth_len(n) == next(m for m in smooth if m >= n), n


def test_trace_tables_equal_prime_length_correlation():
    def prime_length(a, b):
        # The unpadded cyclic correlation at length q.
        q = len(a)
        return np.rint(np.fft.irfft(np.conj(np.fft.rfft(a)) * np.fft.rfft(b), q)).astype(np.int64)

    # One stacked call per family for 3..1499; 10007 alone, since stacking
    # it with them would pad all 239 rows to its length of 20250.
    for primes in (primes_in_range(3, 1499), [10007]):
        fields = [make_field(q) for q in primes]
        tables = zip(fields, legendre_trace_table(fields), clausen_trace_table(fields), strict=True)
        for f, a, ap in tables:
            q = f.q
            leg = f.legendre_table
            xs = np.arange(q, dtype=np.int64)
            u = leg[xs * (xs - 1) % q]
            w = np.bincount(xs * xs % q, weights=leg[(xs - 1) % q], minlength=q)
            assert np.array_equal(a, -prime_length(leg, u)), q
            assert np.array_equal(ap, -prime_length(w, leg)), q


def test_naive_count_unknown_family():
    f = make_field(5)
    with pytest.raises(ValueError):
        count_points_naive(f, "weierstrass", 2)
