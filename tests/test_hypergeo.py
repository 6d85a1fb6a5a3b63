import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ffhyper import NotRational, hypergeo, make_field
from ffhyper.characters import Character
from ffhyper.charsums import SumTables
from ffhyper.field import primes_in_range
from ffhyper.hypergeo import (
    HyperParams,
    QPowerRational,
    appell_f4,
    appell_f4_batch,
    hyper_all_x,
    hyper_char,
    hyper_exact_phi,
    hyper_twisted_sum,
    reconstruct,
    reconstruct_ints,
)
from oracles import appell_f4_naive, count_points_naive, exact_numerators_naive, hyper_inductive_step


def rand_params(rng, f, n):
    return HyperParams(
        f.q,
        tuple(rng.randrange(f.q - 1) for _ in range(n + 1)),
        tuple(rng.randrange(f.q - 1) for _ in range(n)),
    )


def test_params_validation():
    """n+1 uppers and n lowers; every index is reduced mod q-1, so equal instances are equal keys."""
    with pytest.raises(ValueError):
        HyperParams(7, (3, 3), (0, 0))
    params = HyperParams(7, (9, -3), (6,))
    assert params == HyperParams(7, (3, 3), (0,)) == HyperParams.phi_eps(7, 1)
    assert hash(params) == hash(HyperParams.phi_eps(7, 1))


def test_2f1_at_one(tables_for):
    for q in (5, 7, 11, 13, 29):
        t = tables_for(q)
        f = t.field
        val = hyper_char(HyperParams.phi_eps(f.q, 1), 1, t)
        assert abs(val - (-f.phi_minus_one / q)) < 1e-10


def test_value_at_zero_is_zero(tables_for):
    t = tables_for(11)
    f = t.field
    rng = random.Random(5)
    for n in (1, 2, 3):
        assert hyper_char(rand_params(rng, f, n), 0, t) == 0


def test_2f1_against_point_count_q5(tables_for):
    # y^2 = x(x-1)(x-2) over F_5 has 8 points, so the trace is -2.
    t = tables_for(5)
    f = t.field
    count = count_points_naive(f, "legendre", 2)
    assert count == 8
    trace = 5 + 1 - count
    assert trace == -2
    val = hyper_char(HyperParams.phi_eps(f.q, 1), 2, t)
    assert abs(-5 * f.phi_minus_one * val - trace) < 1e-9


def test_exact_phi_base_cases():
    """q 2F1(1) = -phi(-1), and the table is 0 at x = 0."""
    f = make_field(7)
    table = hyper_exact_phi(1, SumTables(f))
    assert (table[1], table[0]) == (-f.phi_minus_one, 0)
    f13 = make_field(13)
    assert hyper_exact_phi(1, SumTables(f13))[1] == -f13.phi_minus_one


@pytest.mark.parametrize(("q", "top"), ((3, 5), (5, 5), (7, 5), (13, 5), (101, 4), (401, 3)))
def test_exact_phi_matches_naive_descent(q, top):
    """The correlation descent equals the naive O(n q^2) descent at every x, up to n = top."""
    f = make_field(q)
    tables = SumTables(f)
    for n in range(1, top + 1):
        naive = exact_numerators_naive(f, n)
        got = hyper_exact_phi(n, tables)
        assert list(got) == [f.phi_minus_one**n * m for m in naive], n
        assert {type(v) for v in got} == {int}


def test_exact_phi_second_moment_peak_at_q_100003():
    """|q^5 6F5(1)| at q = 100003, the k=3 second-moment peak the float route reads at margin 0.0098."""
    got = hyper_exact_phi(5, SumTables(make_field(100003)))[1]
    assert got == -5292301055871
    assert type(got) is int


def test_exact_phi_levels_are_memoised(monkeypatch):
    """Reading levels 5, 3 and 5 again builds each level once, by one correlation, and hands it out read-only."""
    calls = []

    def counted(kernel, level, correlate=hypergeo._correlate_ints):
        calls.append(len(level))
        return correlate(kernel, level)

    monkeypatch.setattr(hypergeo, "_correlate_ints", counted)
    tables = SumTables(make_field(13))
    top = hyper_exact_phi(5, tables)
    hyper_exact_phi(3, tables)
    assert hyper_exact_phi(5, tables) is top
    assert len(calls) == 5
    assert not top.flags.writeable


@pytest.mark.parametrize("q", [*primes_in_range(3, 13), 101])
def test_backend_agreement(q, tables_for):
    t = tables_for(q)
    f = t.field
    for n in (1, 2, 3):
        vals = hyper_all_x(HyperParams.phi_eps(f.q, n), t)
        exact = hyper_exact_phi(n, t)
        for x in range(q):
            assert abs(vals[x] - exact[x] / q**n) < 1e-8


def test_inductive_step_random_characters(tables_for):
    t = tables_for(11)
    f = t.field
    rng = random.Random(20)
    for _ in range(20):
        n = rng.choice([1, 2, 3])
        params = rand_params(rng, f, n)
        x = rng.randrange(1, 11)
        direct = hyper_char(params, x, t)
        stepped = hyper_inductive_step(params, x, t)
        assert abs(direct - stepped) < 1e-8


def test_inductive_step_phi_eps_matches_exact(tables_for):
    t = tables_for(7)
    f = t.field
    exact = hyper_exact_phi(1, t)
    for x in range(1, 7):
        stepped = hyper_inductive_step(HyperParams.phi_eps(f.q, 1), x, t)
        assert abs(stepped - exact[x] / 7) < 1e-8
    assert hyper_inductive_step(HyperParams.phi_eps(f.q, 1), 0, t) == 0


def test_appell_zero_arguments(tables_for):
    t = tables_for(7)
    assert appell_f4(3, 3, 0, 0, 0, 3, t) == 0
    assert appell_f4(3, 3, 0, 0, 3, 0, t) == 0


def test_appell_swap_symmetry(tables_for):
    rng = random.Random(31)
    for _ in range(20):
        q = rng.choice([5, 7, 11, 13])
        t = tables_for(q)
        a, b, c, cp = (rng.randrange(q - 1) for _ in range(4))
        x, y = rng.randrange(1, q), rng.randrange(1, q)
        lhs = appell_f4(a, b, c, cp, x, y, t)
        rhs = appell_f4(a, b, cp, c, y, x, t)
        assert abs(lhs - rhs) < 1e-9 * q


@pytest.mark.parametrize("q, points", [(13, None), (101, 200), (101, 600)])
def test_appell_f4_batch_matches_scalar(q, points, tables_for):
    """Every batched F4* value equals the one-point value, zeros included.

    Each point reads its own two spectrum slices, so a batch of 200 or 600
    points gives each point the value it has alone."""
    t = tables_for(q)
    rng = random.Random(q)
    if points is None:
        xs, ys = (g.ravel() for g in np.meshgrid(np.arange(q), np.arange(q)))
    else:
        xs = np.array([rng.randrange(q) for _ in range(points)])
        ys = np.array([rng.randrange(q) for _ in range(points)])
        xs[:10] = 0
        ys[5:15] = 0
    for _ in range(2):
        chars = [rng.randrange(q - 1) for _ in range(4)]
        batch = appell_f4_batch(*chars, xs, ys, t)
        assert batch.shape == xs.shape
        for x, y, v in zip(xs, ys, batch):
            if x == 0 or y == 0:
                assert v == 0
            else:
                assert abs(v - appell_f4(*chars, int(x), int(y), t)) <= 1e-12 * q


def test_appell_f4_batch_memory_bounded_by_bytes():
    """One batch of product's q-2 points at q=3203 stays under 2 MB of working memory.

    The kernel's working memory is one reused length-(q-1) buffer (50 KiB)
    and the output, where gathering 256 points at a time took about 25 MB;
    every value is still the one-point value.
    """
    q = 3203
    t = SumTables(make_field(q))
    phi, eps = (q - 1) // 2, 0
    ws = np.arange(2, q)
    xs, ys = 5 * (1 - ws) % q, ws * (1 - 5) % q
    appell_f4_batch(phi, phi, eps, eps, xs[:1], ys[:1], t)  # build the spectra
    tracemalloc.start()
    try:
        batch = appell_f4_batch(phi, phi, eps, eps, xs, ys, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MB"
    one = np.array([appell_f4(phi, phi, eps, eps, int(x), int(y), t) for x, y in zip(xs, ys)])
    assert np.abs(batch - one).max() <= 1e-12 * np.abs(one).max()


@pytest.mark.parametrize("q", (5, 7, 13))
def test_appell_f4_batch_matches_defining_sum(q, tables_for):
    """The batch kernel against the O(q^2) double sum of Gauss-sum ratios, zero coordinates included."""
    t = tables_for(q)
    rng = random.Random(q)
    xs = np.array([0, 3, 0, *(rng.randrange(1, q) for _ in range(9))])
    ys = np.array([2, 0, 0, *(rng.randrange(1, q) for _ in range(9))])
    for i in range(6):
        a, b, c, cp = (rng.randrange(q - 1) for _ in range(4))
        if i % 2:
            cp = c  # C = C': one spectrum serves both coordinates
        batch = appell_f4_batch(a, b, c, cp, xs, ys, t)
        oracle = [appell_f4_naive(t.field, a, b, c, cp, int(x), int(y)) for x, y in zip(xs, ys)]
        assert batch[:3].tolist() == [0, 0, 0]
        assert np.abs(batch - oracle).max() <= 1e-9 * q, (a, b, c, cp)


@pytest.mark.parametrize("xs, ys", (([0], [1, 2, 3]), ([2], [1, 2, 3]), ([[2, 3], [4, 5]], [[2, 3], [4, 5]])))
def test_appell_f4_batch_refuses_unequal_point_counts(xs, ys, monkeypatch):
    """xs and ys of different shapes, or not 1-D, raise ValueError before any F4* table is built."""
    t = SumTables(make_field(7))
    monkeypatch.setattr(t, "memo", lambda *args: pytest.fail("built a table"))
    with pytest.raises(ValueError, match="one y per x"):
        appell_f4_batch(3, 3, 0, 0, np.array(xs), np.array(ys), t)


def test_f4_spectra_built_once_per_tables_and_key(monkeypatch):
    """product's 5 instances at q=101 build the F4* spectra once per SumTables."""
    import ffhyper.hypergeo as hg
    from ffhyper.charsums import SumTables
    from ffhyper.identities import run_statement

    built = []

    def counted(tables, *indices, build=hg._f4_spectra):
        built.append((id(tables), indices))
        return build(tables, *indices)

    monkeypatch.setattr(hg, "_f4_spectra", counted)
    key = (50, 50, 0, 0)  # (phi, phi, eps, eps) at q = 101
    for _ in range(2):
        t = SumTables(make_field(101))
        block = run_statement("product", t, 42)
        assert len(block) == 5 and all(block.passed)
        assert built[-1] == (id(t), key)
        spectra = t.memo(("f4", *key), pytest.fail)
        assert spectra[1] is spectra[2]  # C = C': one shifted spectrum serves both
        for arr in spectra:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
    assert [indices for _, indices in built] == [key, key]


def _psi_loop(params, weights, x, t):
    """sum_p weights[p] F(params with last upper A_n chi_p | x), one value at a time,
    and the sum of the magnitudes of its terms."""
    total, scale = 0j, 0.0
    for p in range(params.q - 1):
        twisted = HyperParams(params.q, (*params.uppers[:-1], params.uppers[-1] + p), params.lowers)
        term = weights[p] * hyper_char(twisted, x, t)
        total += term
        scale += abs(term)
    return total, scale


@pytest.mark.parametrize("q", [7, 13, 101])
def test_twisted_sum_matches_psi_loop(q, tables_for):
    t = tables_for(q)
    f = t.field
    rng = random.Random(1000 + q)
    for n in (1, 2, 3):
        for trivial_weight in (True, False):
            params = rand_params(rng, f, n)
            weights = np.exp(2j * np.pi * np.array([rng.random() for _ in range(q - 1)]))
            if not trivial_weight:
                weights[0] = 0
            x = rng.randrange(1, q)
            want, scale = _psi_loop(params, weights, x, t)
            got = hyper_twisted_sum(params, weights, x, t)
            assert abs(got - want) <= 1e-12 * max(scale, 1.0), (n, x)
            assert hyper_twisted_sum(params, weights, 0, t) == 0


def test_twisted_sum_rejects_bad_input(tables_for):
    t = tables_for(7)
    f = t.field
    with pytest.raises(ValueError):
        hyper_twisted_sum(HyperParams(7, (3,), ()), np.ones(6), 2, t)
    with pytest.raises(ValueError):
        hyper_twisted_sum(HyperParams.phi_eps(f.q, 1), np.ones(5), 2, t)


def _product_relation_sides(t, a, b, c, z, w):
    """Product of two 2F1 values vs its Appell/Gauss-sum closed form."""
    f = t.field
    q = f.q
    n = q - 1
    g = t.gauss_vector
    lhs = hyper_char(HyperParams(q, (a, b), (c,)), z, t) * hyper_char(
        HyperParams(q, (a, b), (a + b - c,)), w, t
    )
    f4 = appell_f4(a, b, c, a + b - c, z * (1 - w) % q, w * (1 - z) % q, t)
    coef = (
        (-1) ** a
        * g[b]
        * g[(-c) % n]
        * g[(c - a - b) % n]
        / (q * g[(-b) % n] * g[(b - c) % n] * g[(c - a) % n])
    )
    delta_arg = (1 - w - z) % q
    second = 0j
    if delta_arg == 0:
        second = (
            q
            * (-1) ** b
            * Character(f, -a)((1 - z) % q)
            * Character(f, c - b)(w)
            * Character(f, -c)((1 - w) % q)
            / (g[a] * g[(-b) % n] * g[(b - c) % n] * g[(c - a) % n])
        )
    return lhs, coef * f4 + second


def test_appell_product_relation(tables_for):
    rng = random.Random(8)
    checked_delta = 0
    for _ in range(30):
        q = rng.choice([5, 7, 11, 13])
        t = tables_for(q)
        n = q - 1
        a = rng.randrange(1, n)
        b = rng.randrange(1, n)
        c = rng.randrange(n)
        if c in (a, b):
            continue
        z = rng.randrange(2, q)
        w = rng.choice([(1 - z) % q, rng.randrange(2, q)])  # hit the delta branch too
        if w in (0, 1):
            continue
        if (1 - w - z) % q == 0:
            checked_delta += 1
        lhs, rhs = _product_relation_sides(t, a, b, c, z, w)
        assert abs(lhs - rhs) < 1e-8, (q, a, b, c, z, w)
    assert checked_delta >= 1


def test_all_x_matches_pointwise(tables_for):
    t = tables_for(7)
    f = t.field
    params = HyperParams.phi_eps(f.q, 1)
    vals = hyper_all_x(params, t)
    for x in range(7):
        assert abs(vals[x] - hyper_char(params, x, t)) <= 1e-10 * 7
    assert vals[0] == 0
    assert abs(vals[1] - (-f.phi_minus_one / 7)) < 1e-10
    rng = random.Random(2)
    for n in (1, 2):
        params = rand_params(rng, f, n)
        vals = hyper_all_x(params, t)
        for x in range(7):
            assert abs(vals[x] - hyper_char(params, x, t)) <= 1e-10 * 7


@pytest.mark.parametrize("q", [7, 101])
def test_all_x_order_zero_matches_character_loop(q, tables_for):
    """The 1F0 table is conj(A)(1-x) exactly, as the Character calls give it."""
    t = tables_for(q)
    f = t.field
    rng = random.Random(q)
    for j in (0, (q - 1) // 2, *(rng.randrange(q - 1) for _ in range(4))):
        want = np.zeros(q, dtype=complex)
        for x in range(1, q):
            want[x] = Character(f, -j)((1 - x) % q)
        got = hyper_all_x(HyperParams(q, (j,), ()), t)
        assert np.array_equal(got, want), j


def test_phi_eps_values_are_real_and_rational(tables_for):
    for q in (7, 13):
        t = tables_for(q)
        f = t.field
        for n in (1, 2, 3):
            vals = hyper_all_x(HyperParams.phi_eps(f.q, n), t)
            assert np.max(np.abs(vals.imag)) < 1e-9 * q
            exact = hyper_exact_phi(n, t)
            for x in range(q):
                got = reconstruct(vals[x], n, q)
                assert got == QPowerRational.make(exact[x], n, q)


def test_reconstruct_examples():
    f = make_field(7)
    val = reconstruct(-f.phi_minus_one / 7, 1, 7)
    assert val == QPowerRational.make(-f.phi_minus_one, 1, 7)
    with pytest.raises(NotRational):
        reconstruct(0.5 + 0j, 0, 7)
    with pytest.raises(NotRational):
        reconstruct(1 / 7 + 0.3j, 1, 7)


def test_reconstruct_ints_margins_are_reconstructs_residuals():
    """Each entry's margin is what reconstruct raises for it, or is below the gap where it passes; NaN fails."""
    q = 7
    values = np.array([3 / 49, -5 / 49 + 0.003j / 49, 0.5 / 49, 2 / 49 + 0.3j / 49, 1 / 49 + 0.02 / 49 + 0.02j / 49])
    ints, margin = reconstruct_ints(values, 2, q)
    assert ints.dtype == np.int64
    assert ints.tolist() == [3, -5, 0, 2, 1]
    for v, m, r in zip(values, ints, margin):
        try:
            assert reconstruct(v, 2, q) == QPowerRational.make(int(m), 2, q) and r < 0.01
        except NotRational as e:
            assert r == e.residual
    assert (margin < 0.01).tolist() == [True, True, False, False, False]
    ints, margin = reconstruct_ints(np.array([complex(np.nan, 0), complex(1, np.nan)]), 0, q)
    assert ints.tolist() == [0, 0] and not (margin < 0.01).any()


@pytest.mark.parametrize("q", (5, 7, 13))
def test_nearest_certifies_only_exact_descent_values(q):
    """Every phi/eps value with n <= 60 that reconstruct_ints certifies is the exact descent's integer at its x.

    Past a scaled real part of 2**46 a double's spacing is above EXACT_GAP,
    so those values must fail rather than round to a wrong integer.
    """
    tables = SumTables(make_field(q))
    for n in range(1, 61):
        values = hyper_all_x(HyperParams.phi_eps(q, n), tables)
        exact = hyper_exact_phi(n, tables)
        ints, margins = reconstruct_ints(values, n, q)
        for x in range(1, q):
            assert not margins[x] < 0.01 or int(ints[x]) == exact[x], (n, x)


@pytest.mark.parametrize("re", (2.0**46, -(2.0**46) - 64, 2.0**60, 1e300))
def test_reconstruct_past_float_precision_fails_with_the_spacing(re):
    """A finite scaled real part at or past 2**46 fails: integer 0, margin the float spacing there, in both forms."""
    ints, margins = reconstruct_ints(np.array([complex(re, 0), 2.0**46 - 1]), 0, 7)
    margin = math.ulp(re)
    assert ints.tolist() == [0, 2**46 - 1] and margins.tolist() == [margin, 0.0] and margin >= 2**-6
    with pytest.raises(NotRational) as failure:
        reconstruct(complex(re, 0), 0, 7)
    assert str(failure.value).startswith("real part past float precision at scale q^0")
    assert failure.value.residual == margin


def test_reconstruct_ints_rejects_a_negative_power():
    """A negative power is refused, not read as rounding at a scale below 1."""
    with pytest.raises(ValueError, match="npow must be nonnegative"):
        reconstruct_ints(np.array([1 / 7 + 0j, 3 + 0j]), -1, 7)
    with pytest.raises(ValueError, match="npow must be nonnegative"):
        reconstruct(1 / 7, -1, 7)


@pytest.mark.parametrize("value", (complex(math.nan, 0), complex(-math.inf, 0), complex(1, math.nan)), ids=str)
@pytest.mark.parametrize("npow", (0, 2))
def test_reconstruct_non_finite_raises_not_rational(value, npow):
    """reconstruct fails a NaN or infinite value with reconstruct_ints's margin, not round's ValueError.

    A non-finite real part is not near an integer; scaled as one complex
    product, inf * 0 would make it a NaN imaginary part, and numpy would warn.
    """
    why = "imaginary part too large" if math.isnan(value.imag) else "not within rounding distance"
    with pytest.raises(NotRational, match=why) as exc:
        reconstruct(value, npow, 7)
    _, margin = reconstruct_ints(np.array([value]), npow, 7)  # warnings are errors in this suite
    assert not exc.value.residual < 0.01
    assert np.array_equal([exc.value.residual], margin, equal_nan=True)


def test_reconstruct_canonicalizes():
    # 7/7^2 canonicalizes to 1/7^1
    v = reconstruct(7 / 49, 2, 7)
    assert v == QPowerRational(1, 1)
    assert reconstruct(0j, 3, 7) == QPowerRational(0, 0)


@given(
    num=st.integers(min_value=-10**6, max_value=10**6),
    npow=st.integers(min_value=0, max_value=4),
)
def test_reconstruct_roundtrip_property(num, npow):
    q = 13
    got = reconstruct(num / q**npow, npow, q)
    assert got == QPowerRational.make(num, npow, q)
