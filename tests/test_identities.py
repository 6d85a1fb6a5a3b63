import math
import random
from collections.abc import Sequence
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ffhyper.identities as ids
from ffhyper import Infeasible, NotPrime, NotRational, RejectedInput, SingularParameter, make_field
from ffhyper.charsums import SumTables, _parity
from ffhyper.cli import EXIT_FAILED, EXIT_INFEASIBLE, EXIT_OK, run
from ffhyper.curves import _STACK_ENTRIES, _smooth_len, clausen_trace, clausen_trace_table, legendre_trace
from ffhyper.hypergeo import (
    EXACT_GAP,
    HyperParams,
    QPowerRational,
    _coeff_vector,
    _nearest,
    hyper_all_x,
    hyper_char,
    reconstruct,
    reconstruct_ints,
)
from ffhyper.identities import (
    STATEMENTS,
    IdentityReport,
    ReportBlock,
    SweepSummary,
    _max_residual,
    _trace_table,
    _weighted_square_excess,
    estimate_sweep,
    first_moment,
    float_tol,
    generating_boundary_term,
    run_statement,
    second_weighted_moment,
    summarize,
    verify_closed_form_sum,
    verify_contiguous,
    verify_generating,
    verify_inductive_k,
    verify_product,
    verify_remark_sums,
    verify_trace_moments,
)
from ffhyper.field import primes_in_range
from oracles import bridge_loop, exact_report, move_3f2, patch_family, verify_clausen_bridge, verify_legendre_bridge


def rand_chars(rng, f, count):
    return tuple(rng.randrange(f.q - 1) for _ in range(count))


# -- contiguous ---------------------------------------------------------------


def test_contiguous_phi_eps(tables_for):
    t = tables_for(7)
    f = t.field
    r = verify_contiguous(HyperParams.phi_eps(f.q, 1), (f.q - 1) // 2, 3, t)
    assert r.passed and r.residual < 1e-8


def test_contiguous_random_q11(tables_for):
    t = tables_for(11)
    f = t.field
    rng = random.Random(11)
    for _ in range(20):
        n = rng.choice([1, 2])
        params = HyperParams(f.q, rand_chars(rng, f, n + 1), rand_chars(rng, f, n))
        r = verify_contiguous(params, rng.randrange(10), rng.randrange(1, 11), t)
        assert r.passed, r


def test_contiguous_trivial_psi_reduces_product(tables_for):
    # With psi trivial the product term is (phi over eps)**(n+1) = (-1/q)**(n+1).
    t = tables_for(7)
    f = t.field
    q = 7
    for n in (1, 2):
        params = HyperParams.phi_eps(f.q, n)
        r = verify_contiguous(params, 0, 3, t)
        assert r.passed
        expected_rhs = -hyper_char(params, 3, t) / q + (-1 / q) ** (n + 1)
        assert abs(r.rhs - expected_rhs) < 1e-12


def test_contiguous_rejects_zero(tables_for):
    t = tables_for(7)
    with pytest.raises(RejectedInput):
        verify_contiguous(HyperParams.phi_eps(t.field.q, 1), (t.field.q - 1) // 2, 0, t)


# -- inductive representation -----------------------------------------------------


def test_inductive_all_phi_case(tables_for):
    t = tables_for(7)
    f = t.field
    phi, eps = (f.q - 1) // 2, 0
    r = verify_inductive_k(2, 1, (phi, phi), (eps,), 3, t)
    assert r.passed and r.residual < 1e-8


def test_inductive_random_q11(tables_for):
    t = tables_for(11)
    f = t.field
    rng = random.Random(3)
    for _ in range(10):
        n, k = 3, 2
        r = verify_inductive_k(n, k, rand_chars(rng, f, n - k + 1), rand_chars(rng, f, n - k), rng.randrange(1, 11), t)
        assert r.passed, r


def test_inductive_rejects_bad_nk(tables_for):
    t = tables_for(7)
    f = t.field
    phi, eps = (f.q - 1) // 2, 0
    with pytest.raises(RejectedInput):
        verify_inductive_k(2, 2, (phi,), (), 3, t)
    with pytest.raises(RejectedInput):
        verify_inductive_k(2, 1, (phi,), (), 3, t)  # wrong slot counts


# -- product formula ----------------------------------------------------------------


def test_product_full_grid_q7(tables_for):
    t = tables_for(7)
    phi = (t.field.q - 1) // 2
    for x in range(2, 7):
        for z in range(2, 7):
            r = verify_product((phi,), (), x, z, t)
            assert r.passed and r.residual < 1e-6, (x, z, r.residual)


def test_product_random_q11_n3(tables_for):
    t = tables_for(11)
    f = t.field
    rng = random.Random(5)
    for _ in range(5):
        r = verify_product(
            rand_chars(rng, f, 2), rand_chars(rng, f, 1), rng.randrange(2, 11), rng.randrange(2, 11), t
        )
        assert r.passed, r


def test_product_rejects_bad_arguments(tables_for):
    t = tables_for(7)
    phi = (t.field.q - 1) // 2
    with pytest.raises(RejectedInput):
        verify_product((phi,), (), 3, 1, t)
    with pytest.raises(RejectedInput):
        verify_product((phi,), (), 0, 3, t)


def _refuse_field(q):
    raise AssertionError(f"built F_{q}")


def test_product_budget(monkeypatch, capsys):
    """verify charges product at q=11, (q-2)(q-1) + 3(q-1)log2(q-1) = 210, before it builds F_11."""
    command = ["verify", "--primes", "11", "--statements", "product", "--budget"]
    assert run([*command, "210"]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr("ffhyper.cli.make_field", _refuse_field)
    assert run([*command, "100"]) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.err == "error: w-sum cost (q-2)(q-1) + 3(q-1)log2(q-1) = 210 exceeds budget 100\n"
    assert captured.out == ""


# -- first moments ------------------------------------------------------------------


def test_first_moment_examples(tables_for):
    r = first_moment(1, False, tables_for(5))
    assert r.passed and r.lhs == QPowerRational(1, 1)  # q * sum = (-1)^2 = +1

    t7 = tables_for(7)
    r = first_moment(2, True, t7)
    assert r.passed
    assert r.lhs.num == 1  # (-phi(-1))^3 = 1 since q=7 has phi(-1)=-1

    t13 = tables_for(13)
    for weighted in (False, True):
        assert first_moment(3, weighted, t13).passed


def test_first_moment_rejects_n0(tables_for):
    with pytest.raises(RejectedInput):
        first_moment(0, False, tables_for(5))


# -- trace moments -------------------------------------------------------------------


@pytest.mark.parametrize("q", (5, 13))
def test_trace_moments_exact(q, tables_for):
    reports = verify_trace_moments(tables_for(q))
    assert len(reports) == 3
    for r in reports:
        assert r.passed and r.residual == 0.0


def test_trace_moment_first_identity_restated(tables_for):
    # sum of traces = -1 - phi(-1)
    for q in (5, 7, 13):
        f = make_field(q)
        from ffhyper.curves import legendre_trace_table

        total = int(legendre_trace_table([f])[0][2:].sum())
        assert total == -1 - f.phi_minus_one


# -- second weighted moments -----------------------------------------------------------


def test_second_moment_exact_peaks(tables_for):
    r = second_weighted_moment(3, 2, 1, tables_for(7))
    assert r.passed and r.residual == 0.0
    r = second_weighted_moment(5, 3, 1, tables_for(13))
    assert r.passed and r.residual == 0.0


def test_second_moment_general_instance(tables_for):
    r = second_weighted_moment(3, 1, 2, tables_for(7))
    assert r.passed and r.residual < 1e-7


def test_second_moment_rejects(tables_for):
    with pytest.raises(RejectedInput):
        second_weighted_moment(2, 2, 1, tables_for(7))
    # x = 0 is refused as verify_inductive_k refuses it, not passed with both sides 0.
    for n, k in ((2, 1), (3, 2)):
        with pytest.raises(RejectedInput, match="x must be nonzero"):
            second_weighted_moment(n, k, 0, tables_for(101))


@pytest.mark.parametrize("q, n, k, x", ((7, 3, 1, 2), (101, 2, 1, 29), (101, 3, 2, 5), (101, 4, 3, 77)))
def test_second_moment_off_peak_is_the_all_phi_inductive_k_row(q, n, k, x, tables_for):
    t = tables_for(q)
    phi = (q - 1) // 2
    row = verify_inductive_k(n, k, (phi,) * (n - k + 1), (0,) * (n - k), x, t)
    want = replace(row, name="second-moment", instance=f"n={n} k={k} x={x}")
    assert second_weighted_moment(n, k, x, t) == want and want.passed


# -- trace bridges -----------------------------------------------------------------------


def test_bridges_small(tables_for):
    t = tables_for(7)
    for lam in range(2, 7):
        assert verify_legendre_bridge(lam, t).passed
        assert verify_clausen_bridge(lam, t).passed
    for lam in (0, 1, 7, 8):
        with pytest.raises(SingularParameter):
            verify_legendre_bridge(lam, t)
        with pytest.raises(RejectedInput):
            verify_clausen_bridge(lam, t)


@pytest.mark.parametrize("q", (101, 797))
def test_bridges_match_direct_trace_oracle(q, tables_for):
    """Reports read off the trace tables equal those built from one direct sum per lambda."""
    t = tables_for(q)
    f = t.field
    f21 = hyper_all_x(HyperParams.phi_eps(f.q, 1), t)
    f32 = hyper_all_x(HyperParams.phi_eps(f.q, 2), t)
    for lam in range(2, q):
        lhs = reconstruct(f.phi_minus_one * f21[lam], 1, q)
        rhs = QPowerRational.make(-legendre_trace(f, lam).trace, 1, q)
        want = exact_report("trace-bridge", q, f"legendre lambda={lam}", lhs, rhs)
        assert verify_legendre_bridge(lam, t) == want

        mu = lam * f.inv(1 - lam) % q
        t2 = reconstruct(f32[lam], 2, q)
        t2 = t2.num * q ** (2 - t2.npow)
        lhs = QPowerRational.make(clausen_trace(f, mu).trace ** 2, 0, q)
        rhs = QPowerRational.make(q + f.legendre(1 - lam) * t2, 0, q)
        want = exact_report("trace-bridge", q, f"clausen lambda={lam} mu={mu}", lhs, rhs)
        assert verify_clausen_bridge(lam, t) == want


@pytest.mark.parametrize("q", (3, 5, 7, 13, 101, 797))
def test_trace_bridge_block_matches_per_lambda_oracle(q, tables_for):
    """The array pass gives the per-lambda reports row for row."""
    t = tables_for(q)
    block = run_statement("trace-bridge", t, 0)
    assert isinstance(block, ReportBlock) and isinstance(block, Sequence)
    assert len(block) == 2 * (q - 2)
    want = bridge_loop(t)
    assert list(block) == want
    assert [block[i] for i in range(-len(block), 0)] == want
    assert block[1:4] == want[1:4]
    with pytest.raises(IndexError):
        block[len(block)]
    s = summarize("trace-bridge", block)
    assert s == summarize("trace-bridge", ReportBlock.of("trace-bridge", q, want))
    assert s.instances == 2 * (q - 2) and s.failures == 0 and s.primes == [q]


@pytest.mark.parametrize(
    "offsets",
    (
        # per-lambda order is every Legendre lambda before any Clausen one
        {("legendre", 9): 0.03 / 101, ("clausen", 3): 0.02 / 101**2},
        {("legendre", 40): 0.02j / 101},
        {("clausen", 7): 0.04 / 101**2, ("clausen", 4): 0.02j / 101**2},
        {("clausen", 100): -0.02 / 101**2},
    ),
)
def test_trace_bridge_block_raises_first_failure_of_loop(offsets, monkeypatch):
    """A family value off by 0.02 at scale fails its own row, and only it.

    The failed row keeps its sides, the nearest values, and takes as residual
    what the per-lambda check raises for that lambda; every other row passes.
    """
    q = 101
    want = list(run_statement("trace-bridge", SumTables(make_field(q)), 0))
    patch_family(monkeypatch, offsets)
    t = SumTables(make_field(q))
    for family, lam in offsets:
        check = verify_legendre_bridge if family == "legendre" else verify_clausen_bridge
        with pytest.raises(NotRational) as loop:
            check(lam, t)
        i = lam - 2 + (q - 2) * (family == "clausen")
        assert want[i].passed
        want[i] = replace(want[i], residual=loop.value.residual, passed=False)
    block = run_statement("trace-bridge", t, 0)
    assert list(block) == want
    assert summarize("trace-bridge", block).failures == len(offsets)


@pytest.mark.parametrize(
    "label, lam, failing",
    (
        ("first-moment", 5, ("n=2 unweighted", "n=2 weighted")),
        ("trace-moments", 1, ("phi(1+lambda)-weighted clausen squares", "phi(lambda)-weighted clausen squares")),
    ),
)
def test_failed_reconstruction_fails_only_the_rows_that_read_it(label, lam, failing, monkeypatch):
    """A 3F2 value off by 0.02 at scale q^2: the rows that read it fail with that margin, the others pass."""
    q = 101
    want = list(run_statement(label, SumTables(make_field(q)), 0))
    move_3f2(monkeypatch, lam)
    got = list(run_statement(label, SumTables(make_field(q)), 0))
    assert [r.instance for r in got if not r.passed] == list(failing)
    for r, w in zip(got, want):
        assert w.passed
        if r.instance in failing:
            assert r.residual == pytest.approx(0.02, abs=1e-6)
            assert r == replace(w, residual=r.residual, passed=False)
        else:
            assert r == w
    assert run(["verify", "--primes", str(q), "--statements", label]) == EXIT_FAILED


def test_non_finite_value_is_a_failed_row(monkeypatch, capsys):
    """A NaN exact value fails every row that reads it, nearest value 0 and residual NaN: verify exits 1, not 2."""
    monkeypatch.setattr(ids, "hyper_all_x", lambda params, tables: np.full(tables.field.q, complex(math.nan, 0)))
    block = run_statement("first-moment", SumTables(make_field(7)), 0)
    assert len(block) == 6 and not any(block.passed)
    assert block.lhs_a == [0] * 6 and all(math.isnan(r) for r in block.residual)
    assert run(["verify", "--primes", "7", "--statements", "first-moment"]) == EXIT_FAILED
    capsys.readouterr()


@pytest.mark.parametrize("value", (complex(1, math.nan), complex(3, math.inf), complex(math.nan, 0)), ids=str)
def test_reconstructed_non_finite_value_is_that_of_reconstruct_ints(value):
    """A scalar exact row and an array entry give one non-finite value one nearest value: 0, margin NaN or inf."""
    (num,), (margin,) = reconstruct_ints(np.array([value]), 0, 7)
    m, scalar_margin, failure = _nearest(value, 0, 7)
    assert m == num == 0 and failure is not None
    row = ids._exact_ints("first-moment", 7, "n=0", m, 0, 0, scalar_margin)
    assert not row.passed and not math.isfinite(row.residual)
    for got in (scalar_margin, row.residual):
        assert got == margin or math.isnan(got) and math.isnan(margin)


def _same_residual(got, want, ints):
    """Equal where every integer is below 2**53 (each division then rounds once), else within 1e-12."""
    if math.isnan(want):
        return math.isnan(got)
    if all(abs(i) < 2**53 for i in ints):
        return got == want
    return math.isclose(got, want, rel_tol=1e-12)


_BIG = 2**70


@st.composite
def _exact_rows(draw):
    q = draw(st.sampled_from((2, 3, 7, 13, 101, 10007, 100003)))
    npow = draw(st.integers(0, 8))
    lhs = draw(st.integers(-_BIG, _BIG) | st.integers(-(10**6), 10**6))
    rhs = draw(st.just(lhs) | st.integers(-_BIG, _BIG) | st.integers(lhs - 3, lhs + 3) | st.integers(-(10**6), 10**6))
    margin = draw(
        st.just(0.0)
        | st.floats(0.0, EXACT_GAP, exclude_max=True)
        | st.floats(EXACT_GAP, 1e6)
        | st.just(math.nan)
        | st.just(math.inf)
    )
    return q, npow, lhs, rhs, margin


@given(rows=st.lists(_exact_rows(), min_size=1, max_size=8))
def test_exact_judge_matches_cross_multiplying_oracle(rows):
    """_exact_ints gives the oracle's pass and sides; the judge gives one answer on Python ints and int64 columns."""
    for q, npow, lhs, rhs, margin in rows:
        make = QPowerRational.make
        want = exact_report("first-moment", q, "row", make(lhs, npow, q), make(rhs, npow, q), margin)
        got = ids._exact_ints("first-moment", q, "row", lhs, rhs, npow, margin)
        assert (got.lhs, got.rhs, got.passed, got.tolerance) == (want.lhs, want.rhs, want.passed, 0.0)
        assert _same_residual(got.residual, want.residual, (lhs, rhs, q**npow))
        assert isinstance(got.residual, float) and isinstance(got.passed, bool)

    for q in {q for q, *_ in rows}:
        # int64 columns: rows whose integers, difference and power of q all fit
        fit = [r for r in rows if r[0] == q and q ** r[1] < 2**63 and max(abs(r[2]), abs(r[3])) < 2**62]
        if not fit:
            continue
        _, npow, lhs, rhs, margin = (np.array(c) for c in zip(*fit))
        residual, passed = ids._judge(lhs.astype(np.int64), rhs.astype(np.int64), npow.astype(np.int64), margin, q)
        for (_, n, a, b, m), r, ok in zip(fit, residual.tolist(), passed.tolist()):
            one = ids._exact_ints("first-moment", q, "row", a, b, n, m)
            assert ok == one.passed
            assert _same_residual(r, one.residual, (a, b, q**n))


def test_first_moment_ns_are_stated_once(monkeypatch):
    """The first-moment statement and the moments sweep both read FIRST_MOMENT_NS."""
    ns = (1, 2)
    monkeypatch.setattr(ids, "FIRST_MOMENT_NS", ns)
    block = run_statement("first-moment", SumTables(make_field(101)), 0)
    assert len(block) == 2 * len(ns) and all(block.passed)
    assert block.instances == [f"n={n} {w}" for n in ns for w in ("unweighted", "weighted")]
    rows, summary = estimate_sweep([101], "moments")
    assert [row["n"] for row in rows] == list(ns) and summary.instances == len(ns) == 2


def test_trace_tables_built_once_per_tables(monkeypatch):
    """trace-moments and both bridges share one memoised table per family."""
    import ffhyper.identities as ids

    built = []
    for name in ("legendre_trace_table", "clausen_trace_table"):

        def counted(fields, build=getattr(ids, name), name=name):
            built.append(name)
            return build(fields)

        monkeypatch.setattr(ids, name, counted)
    t = SumTables(make_field(13))
    for _ in range(2):
        for label in ("trace-moments", "trace-bridge"):
            assert all(r.passed for r in run_statement(label, t, 0))
    assert sorted(built) == ["clausen_trace_table", "legendre_trace_table"]
    for family in ("legendre", "clausen"):
        assert not _trace_table(family, t).flags.writeable


def test_trace_moments_builds_only_the_trace_tables():
    """trace-moments memoises both trace tables and no all-x table: it reads 3F2 at 1 only."""
    t = SumTables(make_field(13))
    run_statement("trace-moments", t, 0)
    assert {("trace", "legendre"), ("trace", "clausen")} <= set(t._memo)
    assert [key for key in t._memo if isinstance(key, tuple) and key[0] == "allx"] == []


def test_memo_returns_one_read_only_table():
    """Every memoised table comes back as the same object, and writing to it raises."""
    t = SumTables(make_field(13))
    f = t.field
    params = HyperParams(f.q, (2, 5), (7,))
    getters = {
        "gauss": lambda: t.gauss_vector,
        "line": lambda: t.binomial_line(3),
        "coeff": lambda: _coeff_vector(params, t),
        "allx": lambda: hyper_all_x(params, t),
        "legendre": lambda: _trace_table("legendre", t),
        "legendre-2F1": lambda: hyper_all_x(HyperParams.phi_eps(f.q, 1), t),
        "clausen": lambda: _trace_table("clausen", t),
        "clausen-3F2": lambda: hyper_all_x(HyperParams.phi_eps(f.q, 2), t),
        "parity": lambda: t.memo("parity", _parity, 12),
    }
    for name, get in getters.items():
        table = get()
        assert get() is table, name
        assert isinstance(table, np.ndarray), name
        with pytest.raises(ValueError):
            table[0] = 0


# -- generating function ------------------------------------------------------------------


def test_generating_full_grid_q7(tables_for):
    t = tables_for(7)
    params = HyperParams.phi_eps(t.field.q, 1)
    for x in range(1, 7):
        for tt in range(2, 7):
            r = verify_generating(params, x, tt, t)
            assert r.passed, (x, tt, r.residual)


def test_generating_random_q11(tables_for):
    t = tables_for(11)
    f = t.field
    rng = random.Random(17)
    for _ in range(10):
        n = rng.choice([1, 2])
        params = HyperParams(f.q, rand_chars(rng, f, n + 1), rand_chars(rng, f, n))
        r = verify_generating(params, rng.randrange(1, 11), rng.randrange(2, 11), t)
        assert r.passed, r


def test_generating_rejects(tables_for):
    t = tables_for(7)
    params = HyperParams.phi_eps(t.field.q, 1)
    with pytest.raises(RejectedInput):
        verify_generating(params, 3, 1, t)
    with pytest.raises(RejectedInput):
        verify_generating(params, 0, 2, t)


def test_generating_two_term_form_needs_boundary(tables_for):
    """The two-term closed form alone is off by exactly the descent boundary term.

    Whenever the lower-level value at x is nonzero, the psi-sum differs
    from F(x/(1-t)) conj(A_n)(1-t) by (A_n B_n)(-1)/q * conj(A_n)B_n(t) * F_low(x);
    that defect vanishes only where F_low(x) does.
    """
    t = tables_for(7)
    f = t.field
    q = 7
    params = HyperParams.phi_eps(f.q, 1)
    nontrivial = 0
    for x in range(1, 7):
        for tt in range(2, 7):
            r = verify_generating(params, x, tt, t)
            assert r.passed
            boundary = generating_boundary_term(params, x, tt, t)
            two_term = r.rhs + boundary  # F(x/(1-t)) conj(A_n)(1-t) alone
            if abs(boundary) > 1e-9:
                nontrivial += 1
                assert abs(r.lhs - two_term) > 1e-3  # the uncorrected form fails...
                assert abs((r.lhs - two_term) + boundary) < 1e-9  # ...by exactly the boundary
    assert nontrivial > 0
    # boundary vanishes at x = 1 for the phi/eps family: 1F0(phi | 1) = 0
    assert generating_boundary_term(params, 1, 3, t) == 0


# -- closed-form sum ----------------------------------------------------------------------


def test_closed_form_q7_phi_all_pairs(tables_for):
    t = tables_for(7)
    phi = (t.field.q - 1) // 2
    for x in range(1, 7):
        for tt in range(2, 7):
            r = verify_closed_form_sum(phi, 1, x, tt, t)
            assert r.passed, (x, tt, r.residual)


def test_closed_form_omega_n2_q11(tables_for):
    t = tables_for(11)
    omega = 1
    rng = random.Random(23)
    for _ in range(5):
        r = verify_closed_form_sum(omega, 2, rng.randrange(1, 11), rng.randrange(2, 11), t)
        assert r.passed, r


def test_closed_form_rejects_trivial_A(tables_for):
    t = tables_for(7)
    with pytest.raises(RejectedInput):
        verify_closed_form_sum(0, 1, 3, 2, t)


# -- remark sums ---------------------------------------------------------------------------


def test_remark_sums_examples(tables_for):
    r = verify_remark_sums(3, "3F2", tables_for(7))
    assert r.passed, r
    r = verify_remark_sums(4, "4F3", tables_for(11))
    assert r.passed, r


def test_remark_rejects(tables_for):
    t = tables_for(7)
    with pytest.raises(RejectedInput):
        verify_remark_sums(1, "3F2", t)
    with pytest.raises(RejectedInput):
        verify_remark_sums(6, "3F2", t)  # -1 mod 7
    with pytest.raises(RejectedInput):
        verify_remark_sums(3, "5F4", t)


@pytest.mark.parametrize("label", ["generating", "closed-form", "remark-sums"])
def test_psi_sum_statements_pass_at_q401(label, tables_for):
    reports = run_statement(label, tables_for(401), 42)
    assert reports and all(r.passed for r in reports), [r for r in reports if not r.passed]


# -- estimate sweeps -----------------------------------------------------------------------


def test_estimate_sweep_bounds():
    primes = primes_in_range(5, 97)
    rows, summary = estimate_sweep(primes, "F43")
    assert summary.failures == 0
    for row in rows:
        assert row["abs_dev"] <= 4 / row["q"]
    rows, summary = estimate_sweep(primes, "F65")
    assert summary.failures == 0
    for row in rows:
        assert row["scaled_abs"] <= 12


def test_estimate_sweep_rejects_composite():
    with pytest.raises(NotPrime):
        estimate_sweep([9], "F43")
    with pytest.raises(RejectedInput):
        estimate_sweep([5], "F66")


def test_estimate_sweep_budget(monkeypatch, capsys):
    monkeypatch.setattr("ffhyper.identities.make_field", _refuse_field)
    assert run(["sweep", "--which", "F43", "--primes", "101", "--budget", "1000"]) == EXIT_INFEASIBLE
    assert capsys.readouterr().err == "error: trace-table cost 3*q*log2(q) = 2121 exceeds budget 1000\n"


def test_estimate_sweep_budget_charges_fft_cost(tmp_path, capsys):
    # Per prime: two forward real FFTs and one inverse at the padded
    # length curves._smooth_len(2q-1), charged as 3*q*log2(q).
    cost = 3 * 101 * (101).bit_length()
    out = tmp_path / "f65.csv"
    assert run(["sweep", "--which", "F65", "--primes", "101", "--budget", str(cost), "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 2
    out.unlink()
    rc = run(["sweep", "--which", "F65", "--primes", "101", "--budget", str(cost - 1), "--out", str(out)])
    assert rc == EXIT_INFEASIBLE
    assert capsys.readouterr().err == "error: trace-table cost 3*q*log2(q) = 2121 exceeds budget 2120\n"
    assert not out.exists()


def test_f65_trace_route_matches_character_backend(tables_for):
    # The exact 6F5(1) from traces must equal the reconstructed character sum.
    from ffhyper.hypergeo import reconstruct

    for q in (5, 7, 11, 13):
        rows, _ = estimate_sweep([q], "F65")
        t = tables_for(q)
        direct = reconstruct(hyper_char(HyperParams.phi_eps(t.field.q, 5), 1, t), 5, q)
        assert rows[0]["value"] == direct.fmt(q)


@pytest.mark.parametrize("q", (101, 103, 1009))
def test_estimate_sweep_matches_direct_trace_sums(q):
    # The sweeps read the trace tables through shifted slices; rebuild both
    # values from the direct one-parameter traces.  q = 103 is 3 mod 4: at
    # every prime q = 1 mod 4 below 400 the 3F2 sum comes out the same
    # weighted by phi(mu) as by phi(1 + mu), so such primes miss that slip.
    f = make_field(q)
    phi = f.legendre
    s43 = sum(phi(lam) * legendre_trace(f, lam).trace ** 2 for lam in range(2, q))
    (row,), _ = estimate_sweep([q], "F43")
    assert row["value"] == QPowerRational.make(s43 + 1, 3, q).fmt(q)
    s65 = t_sum = 0
    for mu in range(1, q - 1):
        ap = clausen_trace(f, mu).trace
        s65 += phi(mu * (1 + mu)) * (ap * ap - q) ** 2
        t_sum += phi(1 + mu) * ap * ap
    t = -1 - q - t_sum
    (row,), _ = estimate_sweep([q], "F65")
    assert row["value"] == QPowerRational.make(f.phi_minus_one * (s65 + t * t), 5, q).fmt(q)


def _one_prime_at_a_time(primes, which):
    """estimate_sweep over each prime alone, its rows concatenated and its summaries folded."""
    parts = [estimate_sweep([q], which) for q in primes]
    each = [s for _, s in parts]
    first = [s.first_failure for s in each if s.failures]
    summary = SweepSummary(
        each[0].statement,
        list(primes),
        sum(s.instances for s in each),
        sum(s.failures for s in each),
        first[0] if first else "",
        _max_residual([s.max_residual for s in each]),
    )
    return [row for rows, _ in parts for row in rows], summary


@pytest.mark.parametrize("which", ("F43", "F65"))
@pytest.mark.parametrize("lo, hi", ((3, 1499), (1999, 2203)))  # the second straddles q = 2048
def test_stacked_sweep_equals_one_prime_at_a_time(which, lo, hi):
    primes = primes_in_range(lo, hi)
    assert estimate_sweep(primes, which) == _one_prime_at_a_time(primes, which)


@pytest.mark.parametrize("which, family", (("F43", "legendre"), ("F65", "clausen")))
def test_sweep_stacks_runs_within_the_bound(monkeypatch, which, family):
    """One builder call per run: fewer calls than primes below q = 2048, one per prime above."""
    calls = []

    def counted(fields, build=getattr(ids, f"{family}_trace_table")):
        calls.append([f.q for f in fields])
        return build(fields)

    monkeypatch.setattr(ids, f"{family}_trace_table", counted)
    small = primes_in_range(101, 1499)
    estimate_sweep(small, which)
    assert [q for run in calls for q in run] == small
    assert len(calls) < len(small)
    assert max(len(run) * _smooth_len(2 * max(run) - 1) for run in calls) <= _STACK_ENTRIES
    calls.clear()
    large = primes_in_range(2053, 2203)
    estimate_sweep(large, which)
    assert calls == [[q] for q in large]


@pytest.mark.parametrize("q", (1009, 10007))
def test_f65_limb_sum_matches_python_integers(q):
    f = make_field(q)
    (ap,) = clausen_trace_table([f])
    mus = np.arange(1, q - 1)
    w = f.legendre_table[mus * (1 + mus) % q]
    expected = int((w * (ap[mus].astype(object) ** 2 - q) ** 2).sum())
    assert _weighted_square_excess(w, ap[mus], q) == expected


def test_f65_limb_sum_exact_where_int64_sum_overflows():
    # Near-Hasse traces make each (a^2 - q)^2 close to 9 q^2 ~ 9e14, so
    # 40,000 same-signed terms exceed 2^63.
    q = 10**7 + 19
    edge = math.isqrt(4 * q)
    rng = np.random.default_rng(9)
    ap = np.full(40_000, edge, dtype=np.int64)
    ap[::2] = -edge
    ap[::7] = rng.integers(-edge, edge + 1, size=len(ap[::7]))
    w = np.ones(len(ap), dtype=np.int64)
    w[::11] = -1
    w[::13] = 0
    expected = int((w.astype(object) * (ap.astype(object) ** 2 - q) ** 2).sum())
    assert expected > 2**63
    assert _weighted_square_excess(w, ap, q) == expected
    assert _weighted_square_excess(-w, ap, q) == -expected


def test_f65_limb_sum_refuses_outside_its_bound():
    ap = np.array([0, 1, -1], dtype=np.int64)
    w = np.ones(3, dtype=np.int64)
    with pytest.raises(Infeasible):
        _weighted_square_excess(w, ap, 10**9 + 7)
    with pytest.raises(Infeasible):
        _weighted_square_excess(w, ap, 2)
    q = 10**9 - 63  # the largest prime below the bound
    assert _weighted_square_excess(w, ap, q) == q**2 + 2 * (q - 1) ** 2


def test_moment_sweep_budget_charges_table_cost(monkeypatch, capsys):
    # One line and three inverse transforms at q=101: 4*100*7 = 2800.
    command = ["sweep", "--which", "moments", "--primes", "101", "--budget"]
    assert run([*command, "2800"]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr("ffhyper.identities.make_field", _refuse_field)
    assert run([*command, "2799"]) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.err == "error: moment-table cost 4*(q-1)*log2(q-1) = 2800 exceeds budget 2799\n"
    assert captured.out == ""


def test_moment_sweep_rows():
    rows, summary = estimate_sweep([5, 7], "moments")
    assert summary.failures == 0
    assert len(rows) == 6
    for row in rows:
        assert abs(row["unweighted"]) == 1 and abs(row["weighted"]) == 1


# -- statement runner ----------------------------------------------------------------------


@pytest.mark.parametrize("q", (3, 5, 7, 11, 13))
def test_all_statements_pass_small_fields(q, tables_for):
    t = tables_for(q)
    from ffhyper.identities import STATEMENTS

    for label in STATEMENTS:
        reports = run_statement(label, t, seed=1)
        assert reports or label == "remark-sums"  # q=3 has no valid remark lambda
        for r in reports:
            assert r.passed, (label, r.instance, r.residual)


def test_runner_deterministic(tables_for):
    t = tables_for(11)
    a = run_statement("inductive-k", t, seed=42)
    b = run_statement("inductive-k", t, seed=42)
    assert [(r.instance, r.residual) for r in a] == [(r.instance, r.residual) for r in b]
    c = run_statement("inductive-k", t, seed=43)
    assert [r.instance for r in a] != [r.instance for r in c]


def test_summarize():
    reports = [
        IdentityReport("x", 5, "a", 0j, 0j, 0.0, 1e-6, True),
        IdentityReport("x", 7, "b", 0j, 0j, 2e-5, 1e-6, False),
    ]
    s = summarize("x", *(ReportBlock.of("x", r.q, [r]) for r in reports))
    assert s.primes == [5, 7]
    assert s.instances == 2
    assert s.failures == 1
    assert s.first_failure == "q=7 b"
    assert s.max_residual == 2e-5


def test_summarize_shows_a_nan_residual(monkeypatch, capsys):
    """A NaN residual anywhere makes max_residual NaN; Python's max would skip one that is not first."""
    four_f_three = HyperParams.phi_eps(7, 3)

    def nan_4f3(params, tables, values=ids.hyper_all_x):
        return np.full(tables.field.q, complex(math.nan, 0)) if params == four_f_three else values(params, tables)

    monkeypatch.setattr(ids, "hyper_all_x", nan_4f3)
    block = run_statement("first-moment", SumTables(make_field(7)), 0)
    assert block.passed == [True] * 4 + [False] * 2 and math.isnan(block.residual[-1])
    s = summarize("first-moment", block)
    assert (s.failures, s.first_failure) == (2, "q=7 n=3 unweighted")
    assert math.isnan(s.max_residual)
    assert run(["verify", "--primes", "7", "--statements", "first-moment", "--format", "csv"]) == EXIT_FAILED
    summary_row = capsys.readouterr().out.splitlines()[-1]
    assert summary_row == "first-moment,7,6,2,nan,q=7 n=3 unweighted"


def test_run_statement_returns_one_block_per_statement(tables_for):
    t = tables_for(13)
    for label in STATEMENTS:
        block = run_statement(label, t, 0)
        assert isinstance(block, ReportBlock) and (block.name, block.q) == (label, 13)
        columns = (block.exact, block.lhs_a, block.lhs_b, block.rhs_a, block.rhs_b)
        columns += (block.residual, block.tolerance, block.passed)
        assert all(len(c) == len(block) for c in columns), label


def test_run_statement_rejects_an_unknown_label(tables_for):
    with pytest.raises(RejectedInput, match="unknown statement 'nope'"):
        run_statement("nope", tables_for(13), 0)


def test_second_moment_block_keeps_exact_peaks_at_q10007(monkeypatch):
    """Exact peak rows and float rows share one block; the peaks stay in Python ints.

    At q=10007 the k=3 peak is 7600117151/10007^4, so comparing its sides
    takes num * q**4 and q**8, both past int64.
    """
    import ffhyper.identities as ids

    q = 10007
    t = SumTables(make_field(q))
    block = run_statement("second-moment", t, 0)
    assert block.exact == [True, True, False, False]
    assert block[0] == second_weighted_moment(3, 2, 1, t)
    assert block[1] == second_weighted_moment(5, 3, 1, t)
    assert block.tolerance == [0.0, 0.0, float_tol(q), float_tol(q)]
    assert all(block.passed)

    peak = block[1]
    assert peak.rhs == QPowerRational(7600117151, 4) and q**8 > 2**63
    off = QPowerRational(peak.rhs.num + 1, peak.rhs.npow)
    want = exact_report("second-moment", q, peak.instance, peak.lhs, off)
    assert not want.passed and math.isclose(want.residual, q**-4, rel_tol=1e-12)

    def off_by_one(n, k, x, tables, check=ids.second_weighted_moment):
        return want if (n, k, x) == (5, 3, 1) else check(n, k, x, tables)

    monkeypatch.setattr(ids, "second_weighted_moment", off_by_one)
    block = run_statement("second-moment", t, 0)
    assert block[1] == want
    assert (block.residual[1], block.passed[1]) == (want.residual, False)
    s = summarize("second-moment", block)
    assert (s.failures, s.first_failure) == (1, f"q={q} {peak.instance}")
