import random

import numpy as np
import pytest

from ffhyper import Infeasible, RejectedInput, SingularParameter, make_field
from ffhyper.characters import Character, quadratic, trivial
from ffhyper.charsums import SumTables
from ffhyper.curves import clausen_trace, legendre_trace
from ffhyper.hypergeo import HyperParams, QPowerRational, _coeff_vector, hyper_all_x, hyper_char, reconstruct
from ffhyper.identities import (
    IdentityReport,
    _exact_report,
    _family_tables,
    estimate_sweep,
    first_moment,
    generating_boundary_term,
    moment_sweep_rows,
    run_statement,
    second_weighted_moment,
    summarize,
    verify_clausen_bridge,
    verify_closed_form_sum,
    verify_contiguous,
    verify_generating,
    verify_inductive_k,
    verify_legendre_bridge,
    verify_product,
    verify_remark_sums,
    verify_trace_moments,
)
from ffhyper.field import primes_in_range


def rand_chars(rng, f, count):
    return tuple(Character(f, rng.randrange(f.q - 1)) for _ in range(count))


# -- contiguous ---------------------------------------------------------------


def test_contiguous_phi_eps(tables_for):
    t = tables_for(7)
    f = t.field
    r = verify_contiguous(HyperParams.phi_eps(f, 1), quadratic(f), 3, t)
    assert r.passed and r.residual < 1e-8


def test_contiguous_random_q11(tables_for):
    t = tables_for(11)
    f = t.field
    rng = random.Random(11)
    for _ in range(20):
        n = rng.choice([1, 2])
        params = HyperParams(rand_chars(rng, f, n + 1), rand_chars(rng, f, n))
        r = verify_contiguous(params, Character(f, rng.randrange(10)), rng.randrange(1, 11), t)
        assert r.passed, r


def test_contiguous_trivial_psi_reduces_product(tables_for):
    # With psi trivial the product term is (phi over eps)**(n+1) = (-1/q)**(n+1).
    t = tables_for(7)
    f = t.field
    q = 7
    for n in (1, 2):
        params = HyperParams.phi_eps(f, n)
        r = verify_contiguous(params, trivial(f), 3, t)
        assert r.passed
        expected_rhs = -hyper_char(params, 3, t) / q + (-1 / q) ** (n + 1)
        assert abs(r.rhs - expected_rhs) < 1e-12


def test_contiguous_rejects_zero(tables_for):
    t = tables_for(7)
    with pytest.raises(RejectedInput):
        verify_contiguous(HyperParams.phi_eps(t.field, 1), quadratic(t.field), 0, t)


# -- inductive representation -----------------------------------------------------


def test_inductive_all_phi_case(tables_for):
    t = tables_for(7)
    f = t.field
    phi, eps = quadratic(f), trivial(f)
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
    phi, eps = quadratic(f), trivial(f)
    with pytest.raises(RejectedInput):
        verify_inductive_k(2, 2, (phi,), (), 3, t)
    with pytest.raises(RejectedInput):
        verify_inductive_k(2, 1, (phi,), (), 3, t)  # wrong slot counts


# -- product formula ----------------------------------------------------------------


def test_product_full_grid_q7(tables_for):
    t = tables_for(7)
    phi = quadratic(t.field)
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
    phi = quadratic(t.field)
    with pytest.raises(RejectedInput):
        verify_product((phi,), (), 3, 1, t)
    with pytest.raises(RejectedInput):
        verify_product((phi,), (), 0, 3, t)


def test_product_budget(tables_for):
    t = tables_for(11)
    phi = quadratic(t.field)
    with pytest.raises(Infeasible):
        verify_product((phi,), (), 2, 3, t, budget=100)


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

        total = int(legendre_trace_table(f)[2:].sum())
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
    f21 = hyper_all_x(HyperParams.phi_eps(f, 1), t)
    f32 = hyper_all_x(HyperParams.phi_eps(f, 2), t)
    for lam in range(2, q):
        lhs = reconstruct(f.phi_minus_one * f21[lam], 1, q)
        rhs = QPowerRational.make(-legendre_trace(f, lam).trace, 1, q)
        want = _exact_report("trace-bridge", q, f"legendre lambda={lam}", lhs, rhs)
        assert verify_legendre_bridge(lam, t) == want

        mu = lam * f.inv(1 - lam) % q
        t2 = reconstruct(f32[lam], 2, q).scaled_int(2, q)
        lhs = QPowerRational.make(clausen_trace(f, mu).trace ** 2, 0, q)
        rhs = QPowerRational.make(q + f.legendre(1 - lam) * t2, 0, q)
        want = _exact_report("trace-bridge", q, f"clausen lambda={lam} mu={mu}", lhs, rhs)
        assert verify_clausen_bridge(lam, t) == want


def test_trace_tables_built_once_per_tables(monkeypatch):
    """trace-moments and both bridges share one memoised table per family."""
    import ffhyper.identities as ids

    built = []
    for name in ("legendre_trace_table", "clausen_trace_table"):

        def counted(f, build=getattr(ids, name), name=name):
            built.append(name)
            return build(f)

        monkeypatch.setattr(ids, name, counted)
    t = SumTables(make_field(13))
    for _ in range(2):
        for label in ("trace-moments", "trace-bridge"):
            assert all(r.passed for r in run_statement(label, t, 0))
    assert sorted(built) == ["clausen_trace_table", "legendre_trace_table"]
    for family in ("legendre", "clausen"):
        assert all(not a.flags.writeable for a in _family_tables(family, t))


def test_memo_returns_one_read_only_table():
    """Every memoised table comes back as the same object, and writing to it raises."""
    t = SumTables(make_field(13))
    f = t.field
    params = HyperParams((Character(f, 2), Character(f, 5)), (Character(f, 7),))
    getters = {
        "gauss": lambda: t.gauss_vector,
        "line": lambda: t.binomial_line(3),
        "coeff": lambda: _coeff_vector(params, t),
        "allx": lambda: hyper_all_x(params, t),
        "legendre": lambda: _family_tables("legendre", t)[0],
        "legendre-2F1": lambda: _family_tables("legendre", t)[1],
        "clausen": lambda: _family_tables("clausen", t)[0],
        "clausen-3F2": lambda: _family_tables("clausen", t)[1],
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
    params = HyperParams.phi_eps(t.field, 1)
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
        params = HyperParams(rand_chars(rng, f, n + 1), rand_chars(rng, f, n))
        r = verify_generating(params, rng.randrange(1, 11), rng.randrange(2, 11), t)
        assert r.passed, r


def test_generating_rejects(tables_for):
    t = tables_for(7)
    params = HyperParams.phi_eps(t.field, 1)
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
    params = HyperParams.phi_eps(f, 1)
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
    phi = quadratic(t.field)
    for x in range(1, 7):
        for tt in range(2, 7):
            r = verify_closed_form_sum(phi, 1, x, tt, t)
            assert r.passed, (x, tt, r.residual)


def test_closed_form_omega_n2_q11(tables_for):
    t = tables_for(11)
    omega = Character(t.field, 1)
    rng = random.Random(23)
    for _ in range(5):
        r = verify_closed_form_sum(omega, 2, rng.randrange(1, 11), rng.randrange(2, 11), t)
        assert r.passed, r


def test_closed_form_rejects_trivial_A(tables_for):
    t = tables_for(7)
    with pytest.raises(RejectedInput):
        verify_closed_form_sum(trivial(t.field), 1, 3, 2, t)


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
    with pytest.raises(RejectedInput):
        estimate_sweep([9], "F43")
    with pytest.raises(RejectedInput):
        estimate_sweep([5], "F66")


def test_estimate_sweep_budget():
    with pytest.raises(Infeasible):
        estimate_sweep([101], "F43", budget=1000)


def test_estimate_sweep_budget_charges_fft_cost():
    # Per prime: two forward real FFTs and one inverse of length q.
    cost = 3 * 101 * (101).bit_length()
    rows, _ = estimate_sweep([101], "F65", budget=cost)
    assert len(rows) == 1
    with pytest.raises(Infeasible, match="3\\*q\\*log2\\(q\\) = 2121"):
        estimate_sweep([101], "F65", budget=cost - 1)


def test_f65_trace_route_matches_character_backend(tables_for):
    # The exact 6F5(1) from traces must equal the reconstructed character sum.
    from ffhyper.hypergeo import reconstruct

    for q in (5, 7, 11, 13):
        rows, _ = estimate_sweep([q], "F65")
        t = tables_for(q)
        direct = reconstruct(hyper_char(HyperParams.phi_eps(t.field, 5), 1, t), 5, q)
        assert rows[0]["value"] == direct.fmt(q)


def test_moment_sweep_budget_charges_table_cost():
    # One line and three inverse transforms at q=101: 4*100*7 = 2800.
    moment_sweep_rows([101], budget=2800)
    with pytest.raises(Infeasible, match="2800"):
        moment_sweep_rows([101], budget=2799)


def test_moment_sweep_rows():
    rows, summary = moment_sweep_rows([5, 7])
    assert summary.failures == 0
    assert len(rows) == 6
    for row in rows:
        assert abs(row["unweighted"]) == 1 and abs(row["weighted"]) == 1


# -- statement runner ----------------------------------------------------------------------


@pytest.mark.parametrize("q", (5, 7, 11, 13))
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
    s = summarize("x", reports)
    assert s.primes == [5, 7]
    assert s.instances == 2
    assert s.failures == 1
    assert s.first_failure == "q=7 b"
    assert s.max_residual == 2e-5
