"""Jump-functional tests: frozen closed-form values, agreement with the
quadrature reference and 30-digit mpmath, derivative and Monte Carlo
oracles, dominance and sampling."""

import math
import os
import subprocess
import sys
import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import pikappa as pk
from pikappa import jumps as jumps_mod
from pikappa.jumps import utility_jump_curve
from quadrature_reference import _beta_log_quadrature, psi_quadrature

BETA28 = pk.JumpLaw(lam=1.0, law=pk.BetaJumps(alpha=2.0, beta=8.0))


def quad_psi_oracle(alpha, beta, kappa, eta):
    """Plain-QUADPACK oracle for E[Y/(1-kY)^eta], independent of the library
    quadrature configuration."""
    c = np.exp(special.gammaln(alpha + beta) - special.gammaln(alpha)
               - special.gammaln(beta))
    f = lambda y: c * y ** alpha * (1 - y) ** (beta - 1) * (1 - kappa * y) ** (-eta)
    v, _ = integrate.quad(f, 0, 1, epsabs=1e-13, epsrel=1e-12, limit=300)
    return v


def count_direct_calls(monkeypatch):
    """Wrap the series kernel jumps._sums and list its outermost calls with
    an entry at z >= CONNECTION_SWITCH: the direct series near kappa = 1
    (the 1 - kappa route sums in w = 1 - kappa <= 0.1). A call the kernel
    makes to finish an array's last entry is part of the outer call."""
    calls, depth = [], [0]
    kernel, switch = jumps_mod._sums, jumps_mod.CONNECTION_SWITCH

    def counted(p, q, r, s, z, *args, **kwargs):
        if not depth[0] and np.any(np.asarray(z) >= switch):
            calls.append((p, q, r, s, z))
        depth[0] += 1
        try:
            return kernel(p, q, r, s, z, *args, **kwargs)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(jumps_mod, "_sums", counted)
    return calls


def utility_quadrature(law, kappa, eta):
    """E[U_eta(1 - kappa Y)] for a Beta law by quadrature alone, independent
    of the series and the digamma closed form: the power moment
    (m, s) = (0, eta - 1) over 1 - eta, and the log case integrated."""
    if eta == 1.0:
        return _beta_log_quadrature(law.law, kappa)
    return psi_quadrature(law, kappa, eta - 1.0, m=0) / (1.0 - eta)


class TestPsi:
    def test_kappa_zero_is_mean(self):
        # 2F1(.; 0) = 1, so psi(0, eta) = E[Y] for any eta
        for eta in (0.5, 1.0, 2.0, 7.0):
            assert pk.psi(BETA28, 0.0, eta) == pytest.approx(0.2, abs=1e-14)

    def test_kappa_one_gamma_formula(self):
        # alpha Gamma(a+b) Gamma(b-eta) / (Gamma(b) Gamma(a+b+1-eta)) at
        # Beta(2,8), eta=2: 2*9!*5!/(7!*8!) = 3/7, checked by hand
        assert pk.psi(BETA28, 1.0, 2.0) == pytest.approx(3.0 / 7.0, abs=1e-12)

    def test_kappa_one_diverges_at_eta_ge_beta(self):
        # E[Y (1 - Y)^(-eta)] = +inf for eta >= beta: the value, not an error
        assert pk.psi(BETA28, 1.0, 8.0) == np.inf
        assert pk.psi(BETA28, 1.0, 9.5) == np.inf

    def test_series_matches_quadrature_at_half(self):
        val = pk.psi(BETA28, 0.5, 2.0)
        orc = quad_psi_oracle(2.0, 8.0, 0.5, 2.0)
        assert val == pytest.approx(orc, abs=1e-10)

    def test_dual_path_randomized_grid(self):
        # spec tolerance: |series - quadrature| <= 1e-8 (1 + |psi|)
        rng = np.random.default_rng(20240801)
        for _ in range(1000):
            a = rng.uniform(0.5, 20.0)
            b = rng.uniform(0.5, 20.0)
            kappa = rng.uniform(0.0, 0.999)
            eta = rng.uniform(1e-3, b - 0.01)
            law = pk.JumpLaw(lam=1.0, law=pk.BetaJumps(alpha=a, beta=b))
            s = pk.psi(law, kappa, eta)
            q = psi_quadrature(law, kappa, eta)
            assert abs(s - q) <= 1e-8 * (1.0 + abs(s))

    def test_discrete_exact_sum(self):
        law = pk.JumpLaw(lam=1.0, law=pk.DiscreteJumps(points=[0.3, 0.6],
                                                       weights=[0.25, 0.75]))
        expect = 0.25 * 0.3 / 0.85 ** 2 + 0.75 * 0.6 / 0.7 ** 2
        assert pk.psi(law, 0.5, 2.0) == pytest.approx(expect, abs=1e-15)

    def test_near_one_series_route(self):
        # every kappa < 1 takes a series: at 1 - 5e-7 the one in 1 - kappa
        val = pk.psi(BETA28, 1.0 - 5e-7, 3.0)
        orc = quad_psi_oracle(2.0, 8.0, 1.0 - 5e-7, 3.0)
        assert val == pytest.approx(orc, rel=1e-8)

    @given(k1=st.floats(0.0, 0.99), k2=st.floats(0.0, 0.99),
           e1=st.floats(0.1, 7.5), e2=st.floats(0.1, 7.5))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_kappa_and_eta(self, k1, k2, e1, e2):
        # y (1 - k y)^(-eta) increases in both k and eta
        lo_k, hi_k = sorted((k1, k2))
        lo_e, hi_e = sorted((e1, e2))
        assert pk.psi(BETA28, hi_k, lo_e) >= pk.psi(BETA28, lo_k, lo_e) - 1e-12
        assert pk.psi(BETA28, lo_k, hi_e) >= pk.psi(BETA28, lo_k, lo_e) - 1e-12

    def test_b1_psi_near_one_makes_no_direct_series_call(self, monkeypatch):
        # b1 (Beta(2, 8), eta = 2): c - a - b = 6, DLMF 15.8.10 in 1 - kappa
        direct = count_direct_calls(monkeypatch)
        val = pk.psi(BETA28, 0.999, 2.0)
        assert direct == []
        assert val == pytest.approx(
            jumps_mod._sums(2.0, 3.0, 11.0, 1.0, 0.999)[0] * 0.2, rel=1e-10)

    def test_out_of_range_kappa(self):
        with pytest.raises(pk.DomainError):
            pk.psi(BETA28, -0.1, 2.0)
        with pytest.raises(pk.DomainError):
            pk.psi(BETA28, 1.1, 2.0)


class TestPsiDkappa:
    def test_kappa_zero_second_moment(self):
        # E[Y^2] = a(a+1)/((a+b)(a+b+1)) = 6/110
        assert pk.psi_dkappa(BETA28, 0.0, 3.0) == pytest.approx(6.0 / 110.0,
                                                                abs=1e-14)

    def test_single_atom(self):
        law = pk.JumpLaw(lam=1.0, law=pk.DiscreteJumps(points=[0.3],
                                                       weights=[1.0]))
        assert pk.psi_dkappa(law, 0.5, 1.0) == pytest.approx(0.09 / 0.85 ** 2,
                                                             abs=1e-15)

    def test_finite_difference_oracle(self):
        # eta * psi_dkappa = d(psi)/d(kappa), central differences
        h = 1e-6
        for kappa in (0.1, 0.4, 0.75):
            for eta in (0.7, 2.0, 4.5):
                fd = (pk.psi(BETA28, kappa + h, eta)
                      - pk.psi(BETA28, kappa - h, eta)) / (2 * h)
                assert eta * pk.psi_dkappa(BETA28, kappa, eta) == \
                    pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_derivative_consistency_grid(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(50):
            a = rng.uniform(1.0, 12.0)
            b = rng.uniform(2.0, 12.0)
            law = pk.JumpLaw(lam=1.0, law=pk.BetaJumps(alpha=a, beta=b))
            kappa = rng.uniform(0.05, 0.9)
            eta = rng.uniform(0.2, b - 0.5)
            fd = (pk.psi(law, kappa + h, eta) - pk.psi(law, kappa - h, eta)) / (2 * h)
            assert eta * pk.psi_dkappa(law, kappa, eta) == \
                pytest.approx(fd, rel=2e-5, abs=1e-6)

    def test_kappa_one_divergence_guard(self):
        assert pk.psi_dkappa(BETA28, 1.0, 7.5) == np.inf   # 1 + eta >= beta

    def test_matches_quadrature_reference(self):
        # (m, s) = (2, 1 + eta) on the series, closed-form and split routes
        for kappa in (0.3, 0.95, 1.0 - 5e-7, 1.0):
            for eta in (0.5, 3.0, 6.5):
                ref = psi_quadrature(BETA28, kappa, 1.0 + eta, m=2)
                assert pk.psi_dkappa(BETA28, kappa, eta) == \
                    pytest.approx(ref, rel=1e-9)


# kappa bands of the 30-digit reference checks and their relative
# tolerances. Every moment, the log term too, sums the direct series below
# kappa = 0.9 and in 1 - kappa above it; [0.9, 0.999) keeps the direct
# series' 1e-12 for the draws the 1 - kappa route declines (cancellation).
MP_BANDS = [(0.0, 0.9, 1e-12), (0.9, 0.999, 1e-12),
            (0.999, 1.0 - 1e-6, 1e-13), (1.0 - 1e-6, 1.0, 1e-13)]


@pytest.mark.parametrize("lo,hi,rtol", MP_BANDS,
                         ids=[f"kappa{lo:g}" for lo, _, _ in MP_BANDS])
def test_psi_and_psi_dkappa_match_mpmath_hyp2f1(lo, hi, rtol):
    # psi = a/(a+b) 2F1(eta, a+1; a+b+1; kappa), psi_dkappa =
    # a(a+1)/((a+b)(a+b+1)) 2F1(eta+1, a+2; a+b+2; kappa) and the utility
    # term 2F1(eta-1, a; a+b; kappa)/(1-eta) for Y ~ Beta(a, b)
    rng = np.random.default_rng(20261018)
    with mpmath.workdps(30):
        for _ in range(25):
            a, b = rng.uniform(0.5, 20.0, size=2)
            eta = rng.uniform(0.0, b)
            kappa = rng.uniform(lo, hi)
            law = pk.JumpLaw(lam=1.0, law=pk.BetaJumps(alpha=a, beta=b))
            A, B, E, K = (mpmath.mpf(float(x)) for x in (a, b, eta, kappa))
            ref_psi = A / (A + B) * mpmath.hyp2f1(E, A + 1, A + B + 1, K)
            ref_dk = A * (A + 1) / ((A + B) * (A + B + 1)) \
                * mpmath.hyp2f1(E + 1, A + 2, A + B + 2, K)
            assert pk.psi(law, kappa, eta) == \
                pytest.approx(float(ref_psi), rel=rtol, abs=0.0)
            assert pk.psi_dkappa(law, kappa, eta) == \
                pytest.approx(float(ref_dk), rel=rtol, abs=0.0)
            ref_u = mpmath.hyp2f1(E - 1, A, A + B, K) / (1 - E)
            assert pk.utility_jump_term(law, kappa, eta) == \
                pytest.approx(float(ref_u), rel=rtol, abs=0.0)


NEAR_ONE = [0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-9]
# (alpha, beta, eta, kappas, taken): c - a - b is beta - eta for psi,
# beta - eta - 1 for psi_dkappa and beta - eta + 1 for the utility term;
# taken says whether the 1 - kappa route must take all three (True) or
# leave all three to the direct series (False)
ROUTE_CASES = [
    (2.0, 8.0, 2.0, NEAR_ONE, True),          # integer > 0: DLMF 15.8.10
    (2.0, 8.0, 10.0, NEAR_ONE, True),         # integer < 0: Euler first
    (2.0, 8.0, 11.0, NEAR_ONE, True),         # Euler gives a = 0: finite
    (2.0, 8.0, 2.0 + 1e-2, NEAR_ONE, True),   # near an integer: paired
    (2.0, 8.0, 2.0 + 1e-4, NEAR_ONE, True),
    (2.0, 8.0, 2.0 + 1e-8, NEAR_ONE, True),
    (2.0, 8.0, 2.5, NEAR_ONE, True),          # 5.5, 4.5, 6.5: half-integers
    (2.0, 8.0, 7.7, NEAR_ONE[1:], True),      # 0.3, -0.7, 1.3; cancels at 0.9
    (2.0, 8.0, 200.0, [0.9], False),          # Gamma(200) overflows
    (20.0, 30.0, 25.0, [0.9], False),         # cancellation at 1 - kappa 0.1
]


@pytest.mark.parametrize("alpha,beta,eta,kappas,taken", ROUTE_CASES,
                         ids=["integer", "integer-negative",
                              "integer-negative-pole", "gap1e-2",
                              "gap1e-4", "gap1e-8", "half-integer",
                              "far-from-integer", "gamma-overflow",
                              "cancellation"])
def test_near_one_route_matches_mpmath(alpha, beta, eta, kappas, taken,
                                       monkeypatch):
    # psi, psi_dkappa and the utility term from kappa = 0.9 on: within
    # 1e-13 of 30-digit mpmath where the 1 - kappa route takes them, and
    # within the direct series' own 1e-11 where it declines
    direct = count_direct_calls(monkeypatch)
    law = pk.JumpLaw(lam=1.0, law=pk.BetaJumps(alpha=alpha, beta=beta))
    A, B, E = (mpmath.mpf(x) for x in (alpha, beta, eta))
    with mpmath.workdps(30):
        for kappa in kappas:
            K = mpmath.mpf(kappa)
            cases = [
                (pk.psi, A / (A + B) * mpmath.hyp2f1(E, A + 1, A + B + 1, K)),
                (pk.psi_dkappa, A * (A + 1) / ((A + B) * (A + B + 1))
                 * mpmath.hyp2f1(E + 1, A + 2, A + B + 2, K)),
                (pk.utility_jump_term,
                 mpmath.hyp2f1(E - 1, A, A + B, K) / (1 - E))]
            for fn, ref in cases:
                before = len(direct)
                val = fn(law, kappa, eta)
                took = len(direct) == before
                assert took == taken, (fn.__name__, kappa)
                assert val == pytest.approx(float(ref), rel=1e-13 if took
                                            else 1e-11, abs=0.0), \
                    (fn.__name__, kappa)


def mp_log_term(mpmath, a, b, kappa):
    """E[ln(1 - kappa Y)] for Y ~ Beta(a, b) by tanh-sinh quadrature at the
    working precision, split at y = 1/2."""
    A, B, K = (mpmath.mpf(float(x)) for x in (a, b, kappa))
    return mpmath.quad(lambda y: mpmath.log1p(-K * y) * y ** (A - 1)
                       * (1 - y) ** (B - 1), [0, 0.5, 1]) / mpmath.beta(A, B)


@pytest.mark.parametrize("lo,hi,rtol", MP_BANDS,
                         ids=[f"kappa{lo:g}" for lo, _, _ in MP_BANDS])
def test_log_term_matches_mpmath_quadrature(lo, hi, rtol):
    rng = np.random.default_rng(20261019)
    with mpmath.workdps(30):
        for _ in range(25):
            a, b = rng.uniform(0.5, 20.0, size=2)
            kappa = rng.uniform(lo, hi)
            law = pk.JumpLaw(lam=1.0, law=pk.BetaJumps(alpha=a, beta=b))
            ref = mp_log_term(mpmath, a, b, kappa)
            assert pk.utility_jump_term(law, kappa, 1.0) == \
                pytest.approx(float(ref), rel=rtol, abs=0.0)


def test_log_term_at_kappa_one_is_the_digamma_difference():
    # E[ln(1 - Y)] = digamma(b) - digamma(a + b), against the quadrature
    # and against mpmath's digamma
    rng = np.random.default_rng(20261020)
    with mpmath.workdps(30):
        for _ in range(10):
            a, b = rng.uniform(0.5, 20.0, size=2)
            law = pk.JumpLaw(lam=1.0, law=pk.BetaJumps(alpha=a, beta=b))
            val = pk.utility_jump_term(law, 1.0, 1.0)
            assert val == pytest.approx(float(mp_log_term(mpmath, a, b, 1.0)),
                                        rel=1e-12, abs=0.0)
            A, B = mpmath.mpf(float(a)), mpmath.mpf(float(b))
            ref = mpmath.digamma(B) - mpmath.digamma(A + B)
            assert val == pytest.approx(float(ref), rel=1e-14, abs=0.0)


def test_digamma_matches_mpmath():
    for x in np.linspace(0.3, 40.0, 400):
        ref = mpmath.digamma(mpmath.mpf(float(x)))
        assert abs(jumps_mod._digamma(float(x)) - float(ref)) <= 5e-15


@given(p=st.one_of(st.floats(-12.0, 40.0), st.floats(1e100, 1e300)),
       q=st.floats(-12.0, 40.0), r=st.floats(0.25, 40.0),
       s=st.floats(0.25, 40.0),
       zs=st.lists(st.floats(0.0, 1.0), min_size=2,
                   max_size=2 * jumps_mod.ARRAY_TAIL + 6),
       g0=st.one_of(st.none(), st.floats(-4.0, 4.0)),
       eps=st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3)))
# an array runs the numpy loop while more than ARRAY_TAIL entries are live,
# so the examples of that loop have more than 32 entries
@example(p=1e200, q=1.0, r=2.0, s=1.0, zs=[0.0, 1e-250] + [0.5] * 33,
         g0=None, eps=0.0)         # the 0.5 entries overflow to +inf
@example(p=0.5, q=0.5, r=1.5, s=1.0, zs=[0.1, 0.5] + [0.999] * 33,
         g0=None, eps=0.0)         # the 0.999 entries hit the term cap
@example(p=2.5, q=3.0, r=1.0, s=4.0, zs=[0.05, 0.1, 0.02, 0.3, 0.5] * 7,
         g0=-3.0, eps=0.0)         # |g_k| crosses 1 in the numpy loop
@example(p=2.5, q=3.0, r=1.0004, s=3.0, zs=[0.05, 0.1, 0.3, 0.02] * 9,
         g0=1.5, eps=-4e-4)        # the weight of the paired sums
@example(p=4.091537975268825e-196, q=2.77500102626232e-138, r=1.0, s=1.0,
         zs=[0.0, 0.0], g0=0.0, eps=0.0008759508510148754)  # the first weight step is past range
@example(p=1e100, q=2.225073858507203e-309, r=1.0, s=1.0,
         zs=[0.0] * 32 + [1.0], g0=0.0, eps=0.0)  # g_1 = +inf in numpy
@example(p=2.0, q=-0.5, r=2.5, s=1.0, zs=[i / 74 for i in range(70)],
         g0=None, eps=0.0)         # 70 entries leave the loop one by one
@example(p=3.0, q=1.5, r=1.0004, s=3.0, zs=[i / 74 for i in range(70)],
         g0=0.5, eps=2e-4)         # and weighted
@settings(max_examples=200, deadline=None)
def test_sums_entries_do_not_depend_on_the_array(p, q, r, s, zs, g0, eps):
    # the series kernel sums a float z, a 1-entry array and a many-entry
    # array with the same IEEE arithmetic: bit-identical sums (and, with a
    # weight, sums of absolute values) and the same converged flags. The
    # term cap is lowered so that entries reach it cheaply.
    if g0 is not None:             # the bracket divides by p + k and q + k
        assume(all(x > 0.0 or x != round(x) for x in (p, q)))
        assume(not eps or min(p, q, p + eps, q + eps) > 0.0)
    z = np.array(zs)
    g = None if g0 is None else g0 + z
    bits = lambda x: np.float64(x).tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jumps_mod, "SERIES_MAX_TERMS", 500)
        many = jumps_mod._sums(p, q, r, s, z, g, eps)
        for i, zi in enumerate(zs):
            gi = None if g is None else float(g[i])
            alone = jumps_mod._sums(p, q, r, s, zi, gi, eps)
            one = jumps_mod._sums(
                p, q, r, s, z[i:i + 1], None if g is None else g[i:i + 1],
                eps)
            for x_alone, x_one, x_many in zip(alone, one, many):
                assert bits(x_alone) == bits(x_one[0]) == bits(x_many[i]), \
                    (i, zi)
        # the series' table is kept per parameter set: the same sums come
        # back after another set has run, and after the tables have been
        # filled past their key bound, which drops this one
        for refill in (other_series, fill_tables):
            refill()
            for i, zi in enumerate(zs):
                again = jumps_mod._sums(
                    p, q, r, s, zi, None if g is None else float(g[i]), eps)
                for x_again, x_many in zip(again, many):
                    assert bits(x_again) == bits(x_many[i]), (refill, i, zi)


def other_series():
    """Sum an unweighted and a weighted series of their own parameters."""
    jumps_mod._sums(1.5, 2.0, 3.5, 1.0, 0.5)
    jumps_mod._sums(2.5, 3.5, 1.0004, 3.0, 0.05, 1.5, -4e-4)


def fill_tables():
    """Sum one more series than the tables keep, each of its own key."""
    for j in range(jumps_mod.TABLE_KEYS + 1):
        jumps_mod._sums(1.0 + j, 1.0, 2.0, 1.0, 0.25)
        jumps_mod._sums(1.0 + j, 1.0, 1.0, 2.0, 0.05, 0.5, 0.0)


SERIES_CALLS = (
    ("psi", lambda: pk.psi(BETA28, 0.5, 3.0)),
    ("log-term", lambda: pk.utility_jump_term(BETA28, 0.5, 1.0)),
    ("curve", lambda: utility_jump_curve(BETA28, np.array([0.2, 0.5]), 3.0)),
    ("fosd", lambda: pk.fosd_compare(BETA28, BETA28)))


@pytest.mark.parametrize("call, warm", [
    pytest.param(call, warm, id=name + "-warm" * warm)
    for warm in (False, True) for name, call in SERIES_CALLS])
def test_unconverged_series_raises_nonconvergence(call, warm, monkeypatch):
    # with no quadrature behind it, a series that reaches its term cap is
    # a typed error, not a value; a warm row first fills the series' tables
    # past the cap, which must not let them finish
    if warm:
        call()
    monkeypatch.setattr(jumps_mod, "SERIES_MAX_TERMS", 3)
    with pytest.raises(pk.NonConvergence):
        call()


def test_sums_overflow_and_term_cap():
    # a partial sum past double range stops there, converged, at +inf; a
    # series too slow for SERIES_MAX_TERMS stops at the cap, unconverged
    assert jumps_mod._sums(1e200, 1.0, 2.0, 1.0, 0.5) == (math.inf, True)
    total, ok = jumps_mod._sums(0.5, 0.5, 1.5, 1.0, 1.0)
    assert math.isfinite(total) and not ok
    # the tables keep no more than their bound of that long series
    ratios, steps = jumps_mod._table(0.5, 0.5, 1.5, 1.0, None).terms
    assert len(ratios) == jumps_mod.TABLE_TERMS and steps is None
    for cache in (jumps_mod._table, jumps_mod._paired_constants,
                  jumps_mod._connection, jumps_mod._log_constants):
        assert cache.cache_info().maxsize == jumps_mod.TABLE_KEYS
        assert cache.cache_info().currsize <= jumps_mod.TABLE_KEYS


def test_psi_from_threads_on_a_cold_cache_has_the_serial_bits():
    # four threads fill and read the same tables at once, each over the
    # grid from its own starting point, while the interpreter switches
    # threads often: every value has the bits of a serial call. Each round
    # starts from empty tables (a table seen half-built failed about one
    # round in fifty)
    kappas = np.linspace(0.0, 0.9999, 41).tolist()
    etas = (0.5, 2.5, 6.0)
    jumps_mod._clear_tables()
    serial = [pk.psi(BETA28, k, e).hex() for e in etas for k in kappas]
    interval = sys.getswitchinterval()

    def sweep(start):
        order = kappas[start:] + kappas[:start]
        barrier.wait()
        return {(k, e): pk.psi(BETA28, k, e).hex() for e in etas
                for k in order}
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(60):
                jumps_mod._clear_tables()
                barrier = threading.Barrier(4, timeout=60.0)
                for run in pool.map(sweep, (0, 10, 20, 30)):
                    assert [run[k, e] for e in etas for k in kappas] == serial
    finally:
        sys.setswitchinterval(interval)


class TestBeyondDoubleRange:
    # On Beta(2, 8) at kappa = 1 - 1e-12 and eta = 40 the power moments are
    # finite, but beyond double range (psi is about 1.5e377): psi and
    # psi_dkappa are +inf, the utility term and its curve entry -inf, as at
    # a divergent kappa = 1
    KAPPA = 1.0 - 1e-12

    @pytest.mark.parametrize("eta", [40.0, 40.5])
    def test_moment_beyond_double_range_is_inf(self, eta):
        with mpmath.workdps(30):
            K, E = mpmath.mpf(self.KAPPA), mpmath.mpf(eta)
            refs = [mpmath.mpf(1) / 5 * mpmath.hyp2f1(E, 3, 11, K),
                    mpmath.mpf(6) / 110 * mpmath.hyp2f1(E + 1, 4, 12, K),
                    mpmath.hyp2f1(E, 2, 10, K) / E]
            assert all(ref > mpmath.mpf(np.finfo(float).max) for ref in refs)
        assert pk.psi(BETA28, self.KAPPA, eta) == math.inf
        assert pk.psi_dkappa(BETA28, self.KAPPA, eta) == math.inf
        assert pk.utility_jump_term(BETA28, self.KAPPA, eta + 1.0) == -math.inf
        curve = utility_jump_curve(BETA28, np.array([0.5, self.KAPPA]),
                                   eta + 1.0)
        assert np.isfinite(curve[0]) and curve[1] == -math.inf

    def test_large_representable_moment_keeps_its_value(self):
        kappa, eta = 1.0 - 1e-9, 40.0
        with mpmath.workdps(30):
            ref = mpmath.mpf(1) / 5 * mpmath.hyp2f1(
                mpmath.mpf(eta), 3, 11, mpmath.mpf(kappa))
        val = pk.psi(BETA28, kappa, eta)
        assert val == pytest.approx(float(ref), rel=1e-13, abs=0.0)
        assert val == pytest.approx(1.4628510949e281, rel=1e-10, abs=0.0)


class TestDiscreteBeyondDoubleRange:
    # At large eta a discrete law's (1 - kappa y) ** s underflows: to 0 at
    # eta = 5e4, to a subnormal at eta = 560, whose quotient overflows.
    # Either way the moment is beyond double range: psi and psi_dkappa are
    # +inf and the utility term -inf, with no numpy warning (the suite makes
    # a RuntimeWarning an error)
    LAW = pk.JumpLaw(lam=0.1, law=pk.DiscreteJumps(
        points=[0.1, 0.4, 0.8], weights=[0.5, 0.3, 0.2]))

    @pytest.mark.parametrize("eta", [560.0, 5e4])
    def test_moment_beyond_double_range_is_inf(self, eta):
        assert pk.psi(self.LAW, 0.9, eta) == math.inf
        assert pk.psi_dkappa(self.LAW, 0.9, eta) == math.inf
        assert pk.utility_jump_term(self.LAW, 0.9, eta) == -math.inf
        curve = utility_jump_curve(self.LAW, np.array([0.0, 1e-4, 0.9]), eta)
        assert curve[0] == 1.0 / (1.0 - eta) and np.isfinite(curve[1])
        assert curve[2] == -math.inf

    def test_solve_and_grid_oracle_at_large_eta(self):
        model = pk.MarketModel(mu=[0.16], sigma=[[0.26]], r=0.03, R=0.09,
                               rho=[0.0], b=0.4)
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.3))
        rep = pk.solve(model, self.LAW, fric, pk.Utility(5e4))
        assert rep.case_label == "DiffRates-i"
        _, value, bound = pk.grid_maximize(model, self.LAW, fric,
                                           pk.Utility(2000.0))
        rep = pk.solve(model, self.LAW, fric, pk.Utility(2000.0))
        assert value - rep.objective.value <= bound + 1e-12


class TestUtilityJumpTerm:
    def test_kappa_zero(self):
        # U_eta(1) = 1/(1-eta)
        assert pk.utility_jump_term(BETA28, 0.0, 2.0) == pytest.approx(-1.0, abs=1e-12)
        assert pk.utility_jump_term(BETA28, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_single_atom_log(self):
        law = pk.JumpLaw(lam=1.0, law=pk.DiscreteJumps(points=[0.5],
                                                       weights=[1.0]))
        assert pk.utility_jump_term(law, 1.0, 1.0) == pytest.approx(
            np.log(0.5), abs=1e-15)

    def test_log_full_retention_digamma(self):
        # E[ln(1-Y)] for Beta(a,b) = digamma(b) - digamma(a+b)
        expect = special.digamma(8.0) - special.digamma(10.0)
        assert pk.utility_jump_term(BETA28, 1.0, 1.0) == pytest.approx(
            expect, abs=1e-10)

    def test_monte_carlo_oracle(self):
        # spec example: Beta(2,8), kappa=0.7, eta=3 within 4 SE of 1e6 draws
        y = pk.sample_jumps(BETA28, 1_000_000, seed=3)
        u = (1 - 0.7 * y) ** (-2.0) / (-2.0)
        mc, se = u.mean(), u.std(ddof=1) / 1000.0
        val = pk.utility_jump_term(BETA28, 0.7, 3.0)
        assert abs(val - mc) <= 4 * se

    def test_series_curve_matches_quadrature(self):
        kappas = np.linspace(0.0, 1.0, 23)
        for eta in (0.5, 1.0, 2.0, 4.0):
            curve = utility_jump_curve(BETA28, kappas, eta)
            direct = [utility_quadrature(BETA28, float(k), eta)
                      for k in kappas]
            np.testing.assert_allclose(curve, direct, rtol=1e-9, atol=1e-10)

    def test_kappa_one_closed_form_beyond_beta(self):
        # E[(1-Y)^(1-eta)] = B(a, b+1-eta)/B(a, b) is finite for
        # eta < beta + 1: at Beta(2, 8), B(2, 1)/B(2, 8) = 36 for eta = 8 and
        # B(2, 1/2)/B(2, 8) = 96 for eta = 8.5
        for eta, moment in ((8.0, 36.0), (8.5, 96.0)):
            expect = moment / (1.0 - eta)
            assert pk.utility_jump_term(BETA28, 1.0, eta) == \
                pytest.approx(expect, rel=1e-12)
            assert utility_quadrature(BETA28, 1.0, eta) == \
                pytest.approx(expect, rel=1e-9)
            assert utility_jump_curve(BETA28, np.array([1.0]), eta)[0] == \
                pytest.approx(expect, rel=1e-12)

    def test_curve_scores_divergent_kappa_one_as_minus_inf(self):
        # eta >= beta + 1: E[U_eta(1 - Y)] = -inf, the objective's value there
        curve = utility_jump_curve(BETA28, np.array([0.5, 1.0]), 9.0)
        assert np.isfinite(curve[0]) and curve[1] == -np.inf
        assert curve[1] == pk.utility_jump_term(BETA28, 1.0, 9.0)

    def test_divergence_guard(self):
        # eta >= beta + 1: E[(1 - Y)^(1 - eta)] / (1 - eta) = -inf
        assert pk.utility_jump_term(BETA28, 1.0, 9.0) == -np.inf


class TestFosd:
    def test_beta_12_8_dominates_2_8(self):
        hi = pk.JumpLaw(lam=1.0, law=pk.BetaJumps(alpha=12.0, beta=8.0))
        assert pk.fosd_compare(hi, BETA28) is pk.Ordering.DOMINATES
        assert pk.fosd_compare(BETA28, hi) is pk.Ordering.DOMINATED_BY

    def test_self_incomparable(self):
        assert pk.fosd_compare(BETA28, BETA28) is pk.Ordering.INCOMPARABLE

    def test_shifted_atom(self):
        lo = pk.JumpLaw(lam=1.0, law=pk.DiscreteJumps(points=[0.2], weights=[1.0]))
        hi = pk.JumpLaw(lam=1.0, law=pk.DiscreteJumps(points=[0.6], weights=[1.0]))
        assert pk.fosd_compare(lo, hi) is pk.Ordering.DOMINATED_BY

    def test_fosd_transfers_to_psi(self):
        hi = pk.JumpLaw(lam=1.0, law=pk.BetaJumps(alpha=12.0, beta=8.0))
        for kappa in (0.0, 0.3, 0.8):
            for eta in (0.5, 2.0, 5.0):
                assert pk.psi(hi, kappa, eta) >= pk.psi(BETA28, kappa, eta) - 1e-12


class TestSampling:
    def test_empty(self):
        assert pk.sample_jumps(BETA28, 0, seed=1).shape == (0,)

    def test_moment_check(self):
        y = pk.sample_jumps(BETA28, 1_000_000, seed=1)
        sd = np.sqrt(0.2 * 0.8 / 11.0)
        assert abs(y.mean() - 0.2) <= 4 * sd / 1000.0

    def test_deterministic(self):
        a = pk.sample_jumps(BETA28, 1000, seed=42)
        b = pk.sample_jumps(BETA28, 1000, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_support(self):
        y = pk.sample_jumps(BETA28, 10_000, seed=5)
        assert np.all((y > 0) & (y < 1))
        law = pk.JumpLaw(lam=1.0, law=pk.DiscreteJumps(points=[0.2, 0.6],
                                                       weights=[0.5, 0.5]))
        y = pk.sample_jumps(law, 1000, seed=5)
        assert set(np.unique(y)) <= {0.2, 0.6}


class TestCache:
    def test_memo_agrees_with_fresh(self):
        cache = pk.JumpFunctionals(BETA28)
        for kappa in (0.0, 0.3, 0.999, 1.0):
            for eta in (0.5, 2.0):
                v1 = cache.psi(kappa, eta)
                v2 = cache.psi(kappa, eta)
                assert v1 == v2
                assert abs(v1 - pk.psi(BETA28, kappa, eta)) <= 1e-12

    def test_moments(self):
        cache = pk.JumpFunctionals(BETA28)
        assert cache.mean == pytest.approx(0.2)
        assert cache.second_moment == pytest.approx(6.0 / 110.0)


def mp_utility(alpha, beta, kappa, eta):
    """E[U_eta(1 - kappa Y)] for Y ~ Beta(alpha, beta) in mpmath at the
    working precision: 2F1(eta - 1, alpha; alpha + beta; kappa) / (1 - eta),
    and for eta = 1 minus the derivative at 0 of 2F1(., alpha; alpha + beta;
    kappa) (tanh-sinh quadrature loses digits near kappa = 1 for beta < 1/2).
    """
    A, B, K, E = (mpmath.mpf(float(x)) for x in (alpha, beta, kappa, eta))
    if eta == 1.0:
        return -mpmath.diff(lambda a: mpmath.hyp2f1(a, A, A + B, K), 0)
    return mpmath.hyp2f1(E - 1, A, A + B, K) / (1 - E)


class TestUtilityCurveSlowTail:
    def test_kappa_near_one_eta_near_beta(self):
        # kappa near 1 with eta - 1 near beta, where the direct series would
        # outlast its term cap: every entry within 1e-13 of 30-digit mpmath
        kappas = np.array([0.5, 0.999, 1.0 - 2.5e-6, 1.0 - 1e-7])
        for eta in (7.9, 7.5, 1.0):
            curve = utility_jump_curve(BETA28, kappas, eta)
            with mpmath.workdps(30):
                ref = [float(mp_utility(2.0, 8.0, k, eta)) for k in kappas]
            np.testing.assert_allclose(curve, ref, rtol=1e-13, atol=0.0)
            assert utility_jump_curve(BETA28, np.array([1.0]), eta)[0] == \
                pk.utility_jump_term(BETA28, 1.0, eta)

    def test_near_integer_entry_takes_the_near_one_route(self, monkeypatch):
        # c - a - b = beta - eta + 1 = 1.0005 lies 5e-4 from the integer 1,
        # where the direct series cannot finish: the paired connection
        # formula takes the entry, with no direct call
        calls = count_direct_calls(monkeypatch)
        kappa, eta = 1.0 - 2.5e-6, 7.9995
        curve = utility_jump_curve(BETA28, np.array([kappa]), eta)
        assert calls == []
        with mpmath.workdps(30):
            ref = float(mp_utility(2.0, 8.0, kappa, eta))
        assert curve[0] == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_former_quadrature_entry_matches_mpmath(self):
        # kappa = 1 - 2.5e-6 at eta = 7.9 took the quadrature before the
        # 1 - kappa route (c - a - b = 1.1) converged there
        kappa, eta = 1.0 - 2.5e-6, 7.9
        with mpmath.workdps(30):
            E = mpmath.mpf(eta)
            ref = mpmath.hyp2f1(E - 1, 2, 10, mpmath.mpf(kappa)) / (1 - E)
        curve = utility_jump_curve(BETA28, np.array([kappa]), eta)
        assert curve[0] == pytest.approx(float(ref), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("eta", [0.5, 1.0, 3.0, 9.0])
def test_curve_entries_do_not_depend_on_the_grid(eta):
    # each entry stops its series on its own: the same kappa alone gives the
    # same bits, and so does the scalar series of utility_jump_term (for
    # eta = 1 the one log series both share); at eta = 9 >= beta + 1 the
    # kappa = 1 entry is the closed form's -inf, and the entries from 0.9 on
    # take the 1 - kappa route
    kappas = np.linspace(0.0, 1.0, 41)
    curve = utility_jump_curve(BETA28, kappas, eta)
    for kappa, value in zip(kappas, curve):
        assert value == utility_jump_curve(BETA28, np.array([kappa]), eta)[0]
        assert value == pk.utility_jump_term(BETA28, float(kappa), eta)


@given(atoms=st.lists(st.tuples(st.floats(1e-3, 0.999), st.floats(1e-3, 1.0)),
                     min_size=1, max_size=24),
       kappas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
       eta=st.one_of(st.just(1.0), st.sampled_from([0.5, 3.0, 7.3]),
                     st.floats(0.05, 12.0)))
@settings(max_examples=200, deadline=None)
def test_discrete_curve_entries_are_the_scalar_term(atoms, kappas, eta):
    # a discrete law's curve is the exact sum of utility_jump_term, entry by
    # entry: the same bits at every kappa, at eta = 1 and eta != 1
    points, weights = zip(*atoms)
    law = pk.JumpLaw(lam=1.0, law=pk.DiscreteJumps(
        points=np.array(points), weights=np.array(weights) / sum(weights)))
    curve = utility_jump_curve(law, np.array(kappas), eta)
    for kappa, value in zip(kappas, curve):
        term = pk.utility_jump_term(law, kappa, eta)
        assert np.float64(value).tobytes() == np.float64(term).tobytes(), \
            (kappa, value, term)


@pytest.mark.parametrize("law", [BETA28, pk.JumpLaw(
    lam=1.0, law=pk.DiscreteJumps(points=[0.2, 0.6], weights=[0.5, 0.5]))],
    ids=["beta", "discrete"])
@pytest.mark.parametrize("kappas,first", [
    ([math.nan, 0.5, 1.5, -0.5], "nan"), ([0.5, 1.5, -0.5], "1.5"),
    ([0.0, 1.0, -0.5], "-0.5"), ([math.inf], "inf")],
    ids=["nan", "above-one", "negative", "inf"])
def test_curve_kappa_outside_unit_interval_is_a_domain_error(law, kappas,
                                                             first):
    # the grid is checked once, as the scalar functionals check one kappa:
    # the error names the first kappa outside [0, 1]
    with pytest.raises(pk.DomainError, match=f"kappa={first} outside"):
        utility_jump_curve(law, np.array(kappas), 2.0)


@pytest.mark.parametrize("eta", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("fn", [
    pk.psi, pk.psi_dkappa, pk.utility_jump_term,
    lambda law, kappa, eta: utility_jump_curve(law, np.array([kappa]), eta)],
    ids=["psi", "psi_dkappa", "utility_jump_term", "utility_jump_curve"])
def test_non_finite_eta_is_a_domain_error(fn, eta):
    with pytest.raises(pk.DomainError):
        fn(BETA28, 0.5, eta)


def test_jump_functionals_run_without_scipy():
    # scipy is no runtime dependency: with its import blocked, the
    # near-integer and log routes near kappa = 1, a curve and fosd_compare
    # all run
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        import numpy as np
        import pikappa as pk
        from pikappa.jumps import utility_jump_curve
        law = pk.JumpLaw(1.0, pk.BetaJumps(2.0, 8.0))
        skew = pk.JumpLaw(1.0, pk.BetaJumps(6.904, 1.428))
        values = [pk.psi(law, 0.999, 7.9995),
                  pk.psi_dkappa(law, 0.999, 6.9995),
                  pk.utility_jump_term(law, 1.0 - 2.5e-6, 7.9995),
                  pk.utility_jump_term(skew, 0.99997, 1.0)]
        values += list(utility_jump_curve(law, np.array([0.5, 0.999, 1.0]),
                                          1.0))
        assert np.all(np.isfinite(values)), values
        hi = pk.JumpLaw(1.0, pk.BetaJumps(12.0, 8.0))
        assert pk.fosd_compare(hi, law) is pk.Ordering.DOMINATES
        print("ok")
        """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pk.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_beta_cdf_matches_scipy_betainc():
    # fosd_compare's series CDF (DLMF 8.17.7, reflected above x = 1/2)
    rng = np.random.default_rng(20261021)
    for _ in range(200):
        a, b = 10.0 ** rng.uniform(-1.0, math.log10(40.0), size=2)
        x = rng.uniform(0.0, 1.0, size=64)
        np.testing.assert_allclose(
            jumps_mod._cdf(pk.BetaJumps(a, b), x), special.betainc(a, b, x),
            rtol=0.0, atol=1e-13)


def assert_matches_mp(value, ref, rtol):
    """value within rtol of the mpmath ref, or +-inf where ref lies beyond
    double range."""
    if abs(ref) > mpmath.mpf(np.finfo(float).max):
        assert value == math.copysign(math.inf, ref)
    else:
        assert value == pytest.approx(float(ref), rel=rtol, abs=0.0)


@given(alpha=st.floats(0.1, 40.0), beta=st.floats(0.1, 40.0),
       log_w=st.floats(-12.0, -1.0),
       eta=st.one_of(st.just(1.0), st.floats(1e-3, 64.0)),
       near=st.one_of(st.none(), st.tuples(
           st.integers(-3, 3), st.floats(-1e-3, 1e-3),
           st.sampled_from([0.0, 1.0, -1.0]))))
@example(alpha=0.5, beta=32.0, log_w=-12.0, eta=31.0 + 1e-9, near=None)
@example(alpha=4.0, beta=0.2, log_w=-12.0, eta=1.0, near=None)
@settings(max_examples=40, derandomize=True, deadline=None)
def test_census_near_one_matches_mpmath(alpha, beta, log_w, eta, near):
    # every Beta moment for kappa = 1 - w in [0.9, 1 - 1e-12] takes a
    # series that converges, within MP_BANDS of 30-digit mpmath: half the
    # draws put beta - s within 1e-3 of an integer j in [-3, 3], with s =
    # eta + shift the exponent of psi (0), psi_dkappa (1) or the utility
    # term (-1)
    if near is not None:
        j, off, shift = near
        eta = beta - j - off - shift
        assume(1e-3 <= eta <= 64.0)
    kappa = 1.0 - 10.0 ** log_w
    rtol = next(r for lo, hi, r in MP_BANDS if lo <= kappa < hi)
    law = pk.JumpLaw(lam=1.0, law=pk.BetaJumps(alpha=alpha, beta=beta))
    u = pk.utility_jump_term(law, kappa, eta)
    curve = utility_jump_curve(law, np.array([0.5, kappa, 1.0]), eta)
    assert curve[1] == u or math.isnan(u)
    with mpmath.workdps(30):
        A, B, K, E = (mpmath.mpf(x) for x in (alpha, beta, kappa, eta))
        assert_matches_mp(pk.psi(law, kappa, eta), A / (A + B)
                          * mpmath.hyp2f1(E, A + 1, A + B + 1, K), rtol)
        assert_matches_mp(pk.psi_dkappa(law, kappa, eta),
                          A * (A + 1) / ((A + B) * (A + B + 1))
                          * mpmath.hyp2f1(E + 1, A + 2, A + B + 2, K), rtol)
        assert_matches_mp(u, mp_utility(alpha, beta, kappa, eta), rtol)


def test_log_term_with_a_huge_beta_skips_the_long_finite_sum(monkeypatch):
    # Gamma(alpha + beta) overflows, so the 1 - kappa log route gives way
    # before its sum of round(beta) - 1 terms (1e5 here): the direct series
    # takes the moment
    def unreached(*args):
        raise AssertionError("the finite sum ran")
    monkeypatch.setattr(jumps_mod, "_digamma_gap", unreached)
    law = pk.JumpLaw(lam=1.0, law=pk.BetaJumps(alpha=2.0, beta=1e5))
    total, ok = jumps_mod._sums(3.0, 1.0, 1e5 + 3.0, 2.0, 0.95)
    assert ok and pk.utility_jump_term(law, 0.95, 1.0) == \
        -0.95 * 2.0 / (1e5 + 2.0) * total


def test_census_pins():
    # two moments the quadrature fallback raised on, to the digits known
    law = pk.JumpLaw(lam=1.0, law=pk.BetaJumps(alpha=0.5, beta=32.0))
    assert pk.psi(law, 1.0 - 1e-12, 31.0 + 1e-9) == \
        pytest.approx(2.11939741371, rel=1e-11)
    law = pk.JumpLaw(lam=1.0, law=pk.BetaJumps(alpha=4.0, beta=0.2))
    assert pk.utility_jump_term(law, 1.0 - 1e-12, 1.0) == \
        pytest.approx(-6.57041947003, rel=1e-11)
