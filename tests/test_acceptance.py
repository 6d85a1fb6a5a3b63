"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here: exact checks demand
integer equality after reconstruction (residual 0), floating checks use
the stated 1e-6 / 1e-8 ceilings, and the estimate sweep asserts only the
unconditional Hasse-derived bounds.
"""

import random
import subprocess
import sys
import time
from contextlib import contextmanager

from ffhyper import make_field
from ffhyper.characters import Character, quadratic
from ffhyper.charsums import SumTables
from ffhyper.curves import clausen_trace, legendre_trace
from ffhyper.field import primes_in_range
from ffhyper.hypergeo import HyperParams, hyper_all_x, hyper_exact_phi
from ffhyper.identities import (
    estimate_sweep,
    first_moment,
    second_weighted_moment,
    verify_closed_form_sum,
    verify_generating,
    verify_inductive_k,
    verify_product,
    verify_remark_sums,
    verify_trace_moments,
)
from oracles import count_points_naive, verify_clausen_bridge, verify_legendre_bridge


@contextmanager
def criterion(num, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {num} {name}: PASS ({time.perf_counter() - start:.1f}s)", flush=True)


def rand_chars(rng, f, count):
    return tuple(Character(f, rng.randrange(f.q - 1)) for _ in range(count))


def test_criterion_1_first_moments():
    with criterion(1, "first moments"):
        start = time.perf_counter()
        for q in primes_in_range(3, 97):
            t = SumTables(make_field(q))
            for n in (1, 2, 3):
                for weighted in (False, True):
                    r = first_moment(n, weighted, t)
                    assert r.passed and r.residual == 0.0, (q, n, weighted)
        assert time.perf_counter() - start < 120


def test_criterion_2_trace_moment_identities():
    with criterion(2, "trace moment identities"):
        start = time.perf_counter()
        for q in primes_in_range(3, 97):
            for r in verify_trace_moments(SumTables(make_field(q))):
                assert r.passed and r.residual == 0.0, (q, r.instance)
        assert time.perf_counter() - start < 60


def test_criterion_3_second_weighted_moments():
    with criterion(3, "second weighted moments"):
        for q in primes_in_range(3, 61):
            t = SumTables(make_field(q))
            for k in (2, 3):
                r = second_weighted_moment(2 * k - 1, k, 1, t)
                assert r.passed and r.residual == 0.0, (q, k)


def test_criterion_4_trace_bridges():
    with criterion(4, "trace bridges"):
        for q in primes_in_range(3, 199):
            t = SumTables(make_field(q))
            for lam in range(2, q):
                r = verify_legendre_bridge(lam, t)
                assert r.passed and r.residual == 0.0, (q, lam)
        for q in primes_in_range(3, 61):
            t = SumTables(make_field(q))
            for lam in range(2, q):
                r = verify_clausen_bridge(lam, t)
                assert r.passed and r.residual == 0.0, (q, lam)


def test_criterion_5_inductive_representation():
    with criterion(5, "inductive representation"):
        instances = 0
        for q in (7, 11, 13, 17):
            t = SumTables(make_field(q))
            f = t.field
            rng = random.Random(1000 + q)
            for n, k in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)):
                for _ in range(5):
                    ups = rand_chars(rng, f, n - k + 1)
                    los = rand_chars(rng, f, n - k)
                    x = rng.randrange(1, q)
                    r = verify_inductive_k(n, k, ups, los, x, t)
                    assert r.residual < 1e-6, (q, n, k, r.instance, r.residual)
                    instances += 1
        assert instances >= 100


def test_criterion_6_product_formula():
    with criterion(6, "product formula"):
        t7 = SumTables(make_field(7))
        phi7 = quadratic(t7.field)
        for x in range(2, 7):
            for z in range(2, 7):
                r = verify_product((phi7,), (), x, z, t7)
                assert r.residual < 1e-6, (x, z, r.residual)
        count = 0
        for q in (11, 13):
            t = SumTables(make_field(q))
            f = t.field
            rng = random.Random(2000 + q)
            for _ in range(10):
                ups = rand_chars(rng, f, 2)
                los = rand_chars(rng, f, 1)
                x, z = rng.randrange(2, q), rng.randrange(2, q)
                r = verify_product(ups, los, x, z, t)
                assert r.residual < 1e-6, (q, r.instance, r.residual)
                count += 1
        assert count >= 20


def test_criterion_7_generating_and_closed_form():
    with criterion(7, "generating function and closed-form sum"):
        for q in (7, 11):
            t = SumTables(make_field(q))
            f = t.field
            rng = random.Random(3000 + q)
            for n in (1, 2):
                params = HyperParams(rand_chars(rng, f, n + 1), rand_chars(rng, f, n))
                for x in range(1, q):
                    for tt in range(2, q):
                        r = verify_generating(params, x, tt, t)
                        assert r.residual < 1e-6, (q, n, x, tt, r.residual)
            for a in (quadratic(f), Character(f, 1)):
                for n in (1, 2):
                    for x in range(1, q):
                        for tt in range(2, q):
                            r = verify_closed_form_sum(a, n, x, tt, t)
                            assert r.residual < 1e-6, (q, a.index, n, x, tt, r.residual)
        for q in (7, 11, 13):
            t = SumTables(make_field(q))
            for level in ("3F2", "4F3"):
                for lam in range(2, q - 1):
                    r = verify_remark_sums(lam, level, t)
                    assert r.residual < 1e-6, (q, level, lam, r.residual)


def test_criterion_8_estimates():
    with criterion(8, "estimates"):
        start = time.perf_counter()
        primes = primes_in_range(5, 293)
        rows43, s43 = estimate_sweep(primes, "F43")
        assert s43.failures == 0
        for row in rows43:
            assert row["abs_dev"] <= 4 / row["q"]
        rows65, s65 = estimate_sweep(primes, "F65")
        assert s65.failures == 0
        for row in rows65:
            assert row["scaled_abs"] <= 12
        assert time.perf_counter() - start < 300
        # Trend report (not asserted against unknown constants): the scaled
        # columns should look bounded / non-growing, consistent with decay.
        head43, tail43 = rows43[:3], rows43[-3:]
        print("\n  F43 trend  q*|value - 1/q^3|:")
        for row in head43 + tail43:
            print(f"    q={row['q']:>3}  {row['scaled_dev']:.4f}")
        print("  F65 trend  q^2*|value|:")
        for row in rows65[:3] + rows65[-3:]:
            print(f"    q={row['q']:>3}  {row['scaled_abs']:.4f}")


def test_criterion_9_backend_equivalence():
    with criterion(9, "backend equivalence"):
        for q in primes_in_range(3, 13):
            f = make_field(q)
            t = SumTables(f)
            for n in (1, 2, 3):
                vals = hyper_all_x(HyperParams.phi_eps(f, n), t)
                for x in range(q):
                    exact = hyper_exact_phi(n, x, f)
                    assert abs(vals[x] - exact.num / q**exact.npow) < 1e-8, (q, n, x)
        for q in primes_in_range(3, 31):
            f = make_field(q)
            for lam in range(2, q):
                assert legendre_trace(f, lam).count == count_points_naive(f, "legendre", lam)
            for lam in range(1, q - 1):
                assert clausen_trace(f, lam).count == count_points_naive(f, "clausen", lam)


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "determinism"):
        outs = []
        for name in ("run1.csv", "run2.csv"):
            out = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable, "-m", "ffhyper.cli", "verify",
                    "--statements", "all", "--primes", "5..31",
                    "--seed", "42", "--format", "csv", "--out", str(out),
                ],
                capture_output=True,
                text=True,
                timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert b"false" not in outs[0]
