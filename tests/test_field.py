import pytest
from hypothesis import given, strategies as st

from ffhyper import DivisionByZero, NotOdd, NotPrime, make_field
from ffhyper.field import is_prime, primes_in_range, smallest_primitive_root

SMALL_PRIMES = primes_in_range(3, 199)


def brute_smallest_root(q):
    """Order check of every candidate, independent of the library's factoring."""
    for g in range(2, q):
        if len({pow(g, k, q) for k in range(q - 1)}) == q - 1:
            return g
    raise AssertionError


def test_make_field_7_smallest_root():
    f = make_field(7)
    assert f.q == 7
    assert f.g == 3 == brute_smallest_root(7)


@pytest.mark.parametrize("q", primes_in_range(3, 61))
def test_smallest_root_matches_bruteforce(q):
    assert smallest_primitive_root(q) == brute_smallest_root(q)


def test_composite_rejected():
    with pytest.raises(NotPrime):
        make_field(9)


def test_two_rejected():
    with pytest.raises(NotOdd):
        make_field(2)


def test_arith_examples():
    f = make_field(7)
    assert f.inv(3) == 5
    with pytest.raises(DivisionByZero):
        f.inv(0)


def test_legendre_examples():
    f = make_field(7)
    squares = {x * x % 7 for x in range(1, 7)}
    assert squares == {1, 2, 4}
    assert f.legendre(1) == 1
    assert f.legendre(0) == 0
    assert f.legendre(3) == -1


# The larger primes mostly have q - 1 a perfect square, the edge case of
# the baby-step/giant-step power build.
@pytest.mark.parametrize("q", SMALL_PRIMES + [401, 577, 1009, 10007])
def test_dlog_roundtrip(q):
    f = make_field(q)
    for x in range(1, q):
        assert pow(f.g, int(f.dlog[x]), q) == x
        assert int(f.exp[f.dlog[x]]) == x
    assert sorted(int(v) for v in f.exp) == list(range(1, q))


@pytest.mark.parametrize("q", primes_in_range(3, 61) + [401, 577, 1009, 10007])
def test_legendre_euler_criterion(q):
    f = make_field(q)
    for x in range(q):
        euler = pow(x, (q - 1) // 2, q)
        expected = 0 if x == 0 else (1 if euler == 1 else -1)
        assert f.legendre(x) == expected


@pytest.mark.parametrize("q", primes_in_range(3, 31))
def test_legendre_complete_multiplicativity(q):
    f = make_field(q)
    for x in range(q):
        for y in range(q):
            assert f.legendre(x) * f.legendre(y) == f.legendre(x * y)


def test_legendre_minus_one_pattern():
    for q in SMALL_PRIMES:
        f = make_field(q)
        assert f.phi_minus_one == (-1) ** ((q - 1) // 2)


@given(
    q=st.sampled_from(primes_in_range(3, 97)),
    x=st.integers(min_value=0, max_value=10**6),
    y=st.integers(min_value=0, max_value=10**6),
)
def test_legendre_multiplicative_property(q, x, y):
    f = make_field(q)
    assert f.legendre(x) * f.legendre(y) == f.legendre(x * y)


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime(293)
    assert not is_prime(1) and not is_prime(9) and not is_prime(291)


def test_primes_in_range_sieve_matches_trial_division():
    for lo in range(-2, 41):
        for hi in range(-2, 301):
            expected = [n for n in range(max(lo, 3), hi + 1) if n % 2 == 1 and is_prime(n)]
            assert primes_in_range(lo, hi) == expected, (lo, hi)
    # pi(10^6) = 78498 counts the prime 2; 1000003 is the next prime.
    assert len(primes_in_range(3, 10**6)) == 78497
    assert len(primes_in_range(3, 1000003)) == 78498
