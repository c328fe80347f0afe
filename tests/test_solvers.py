"""Regime-solver tests: paper parameter sets, hand-solved degenerate cases,
corner detection, comparative statics and the mutual-fund combination."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pikappa as pk
from pikappa import solvers
from pikappa.hamiltonian import _soc_bound
from pikappa.rootfind import MAX_ITER, brent
from pikappa.cli import resolve_model_path
from pikappa.models import law_mean, load_model_file
from pikappa.oracle import _apply_param
from pikappa.solvers import ETA_XTOL, _DiffRatesKernel

from nested_reference import kappa_of_xi, pi_sum, threshold_nested

BETA28_025 = pk.JumpLaw(lam=0.25, law=pk.BetaJumps(alpha=2.0, beta=8.0))
BETA128_015 = pk.JumpLaw(lam=0.15, law=pk.BetaJumps(alpha=12.0, beta=8.0))


def sigma_from_s(s1, s2, s):
    return np.array([[s1, 0.0], [s2 * s, s2 * np.sqrt(1 - s * s)]])


def a1_model():
    return pk.MarketModel(mu=[0.08, 0.10], sigma=sigma_from_s(0.25, 0.32, 0.25),
                          r=0.02, R=0.06, rho=[0.2, -0.3], b=0.4)


def a2_model():
    return pk.MarketModel(mu=[0.16, 0.08], sigma=sigma_from_s(0.25, 0.32, 0.05),
                          r=0.03, R=0.10, rho=[0.2, -0.3], b=0.6)


def b1_model(rho):
    return pk.MarketModel(mu=[0.16], sigma=[[0.26]], r=0.03, R=0.09,
                          rho=[rho], b=0.4)


def c_model(mu, b, rho):
    return pk.MarketModel(mu=[mu], sigma=[[0.30]], r=0.03, R=0.09,
                          rho=[rho], b=b)


Q03 = pk.LinearPremium(q=0.3)
Q08 = pk.LinearPremium(q=0.8)
Q02 = pk.LinearPremium(q=0.2)


class TestDiffRates:
    def test_a1_eta1_case_iii(self):
        # eta = 1.0 lies inside A1's all-risky band [0.60, 1.47]
        rep = pk.solve(a1_model(), BETA28_025, pk.DifferentialRates(Q03),
                       pk.Utility(1.0))
        assert rep.case_label == "DiffRates-iii"
        assert rep.policy.pi_sum == pytest.approx(1.0, abs=1e-8)
        assert rep.xi_star is not None and 0.02 <= rep.xi_star <= 0.06
        assert rep.certificate.passes

    def test_a2_eta3_case_i(self):
        # eta = 3.0 > eta_r = 2.35 for A2: own funds only
        rep = pk.solve(a2_model(), BETA28_025, pk.DifferentialRates(Q08),
                       pk.Utility(3.0))
        assert rep.case_label == "DiffRates-i"
        assert rep.policy.pi_sum < 1.0
        assert rep.xi_star == pytest.approx(0.03)

    def test_no_background_risk_merton_full_retention(self):
        # lambda = 0, b = 0: insurance is worthless but costs q, so kappa = 1
        # and pi is the Merton point at the lending rate
        m = pk.MarketModel(mu=[0.08], sigma=[[0.3]], r=0.02, R=0.06,
                           rho=[0.0], b=0.0)
        jumps = pk.JumpLaw(lam=0.0, law=pk.BetaJumps(2.0, 8.0))
        eta = 3.0
        rep = pk.solve(m, jumps, pk.DifferentialRates(Q03), pk.Utility(eta))
        assert rep.policy.kappa == 1.0
        assert rep.case_label == "DiffRates-vi"
        assert rep.policy.pi[0] == pytest.approx(0.06 / (eta * 0.09), abs=1e-12)

    def test_b1_full_retention_corners(self):
        # B1 at rho = -1 -> case vi (short + full retention); at rho = +1 ->
        # case vii (leveraged + full retention)
        jumps = pk.JumpLaw(lam=0.1, law=pk.BetaJumps(2.0, 8.0))
        rep = pk.solve(b1_model(-1.0), jumps, pk.DifferentialRates(Q03),
                       pk.Utility(2.0))
        assert rep.case_label == "DiffRates-vi"
        assert rep.policy.kappa == 1.0
        assert rep.policy.pi[0] == pytest.approx(-0.576923076923, abs=1e-9)
        rep = pk.solve(b1_model(1.0), jumps, pk.DifferentialRates(Q03),
                       pk.Utility(2.0))
        assert rep.case_label == "DiffRates-vii"
        assert rep.policy.kappa == 1.0
        assert rep.policy.pi[0] == pytest.approx(2.056213017751, abs=1e-9)

    def test_c1_full_insurance_case_iv(self):
        # rho above the 0.5156 threshold: full insurance, Merton at r
        rep = pk.solve(c_model(-0.05, 0.8, 0.60), BETA128_015,
                       pk.DifferentialRates(Q02), pk.Utility(4.0))
        assert rep.case_label == "DiffRates-iv"
        assert rep.policy.kappa == 0.0
        assert rep.policy.pi[0] == pytest.approx(-0.2222, abs=1e-3)

    def test_invalid_inputs_rejected(self):
        bad = pk.MarketModel(mu=[0.08], sigma=[[0.3]], r=0.06, R=0.02,
                             rho=[0.0], b=0.4)
        with pytest.raises(pk.ModelValidationError):
            pk.solve(bad, BETA28_025, pk.DifferentialRates(Q03),
                     pk.Utility(2.0))

    def test_shadow_rate_sum_strictly_decreasing(self):
        kern = _DiffRatesKernel(a1_model(), BETA28_025, Q03)
        xis = np.linspace(0.02, 0.06, 50)
        sums = [pi_sum(kern, float(x), 1.0) for x in xis]
        assert np.all(np.diff(sums) < 0)

    def test_existence_window_gives_interior_kappa(self):
        # when lambda E[Y] + p'(0) < b rho' sigma^-1 (mu - xi 1) <
        # eta b^2 (1-|rho|^2) + lambda psi(1) + p'(1), kappa(xi) is interior
        m = b1_model(0.5)
        jumps = pk.JumpLaw(lam=0.1, law=pk.BetaJumps(2.0, 8.0))
        eta = 2.0
        kern = _DiffRatesKernel(m, jumps, Q02)
        checked = 0
        for xi in np.linspace(0.03, 0.09, 7):
            lo = jumps.lam * law_mean(jumps.law) - Q02.q
            mid = m.b * 0.5 * (0.16 - xi) / 0.26
            hi = eta * m.b ** 2 * (1 - 0.25) \
                + jumps.lam * pk.psi(jumps, 1.0, eta) - Q02.q
            if lo < mid < hi:
                kappa, tag = kappa_of_xi(kern, float(xi), eta)
                assert tag == "interior" and 0.0 < kappa < 1.0
                checked += 1
        assert checked >= 1


class TestThresholds:
    def test_a1(self):
        eta_R, eta_r = pk.threshold_etas(a1_model(), BETA28_025, Q03)
        assert eta_R == pytest.approx(0.60, abs=0.01)
        assert eta_r == pytest.approx(1.47, abs=0.01)

    def test_ordering_and_r_dependence(self):
        # eta_R < eta_r when R > r, and eta_R rises as R falls toward r
        m = a2_model()
        eta_R, eta_r = pk.threshold_etas(m, BETA28_025, Q08)
        assert eta_R < eta_r
        prev = eta_R
        for R in (0.08, 0.06, 0.04):
            e_R, e_r = pk.threshold_etas(replace(m, R=R), BETA28_025, Q08)
            assert e_R > prev
            assert e_R < e_r
            prev = e_R

    def test_no_threshold_raises(self):
        # mu below both rates: pi sums never reach 1 at any eta
        m = pk.MarketModel(mu=[0.01], sigma=[[0.3]], r=0.03, R=0.09,
                           rho=[0.0], b=0.2)
        with pytest.raises(pk.NoThreshold):
            pk.threshold_etas(m, BETA28_025, Q03)

    @pytest.mark.parametrize("beta", [5e-4, 1e-3, 1.1e-3, 2e-3])
    def test_beta_at_the_search_floor_has_no_threshold(self, beta,
                                                       monkeypatch):
        # a Beta law caps the eta interval at beta - 1e-3, so beta <= 2e-3
        # leaves (1e-3, beta - 1e-3) empty: refused before any evaluation
        def no_call(*args):
            raise AssertionError("evaluated on an empty eta interval")
        monkeypatch.setattr(_DiffRatesKernel, "h", no_call)
        monkeypatch.setattr(solvers, "brent", no_call)
        inputs = load_model_file(resolve_model_path("table-etaR"))
        jumps = replace(inputs.jumps, law=pk.BetaJumps(2.0, beta))
        with pytest.raises(pk.NoThreshold, match="interval .* is empty"):
            pk.threshold_etas(inputs.model, jumps, inputs.friction.premium)

    def test_one_bisection_per_threshold(self, monkeypatch):
        # the sign test takes no kappa root inside the eta root
        calls = []

        def counting_brent(*args, **kwargs):
            calls.append(args)
            return brent(*args, **kwargs)

        monkeypatch.setattr(solvers, "brent", counting_brent)
        inputs = load_model_file(resolve_model_path("table-etaR"))
        pk.threshold_etas(replace(inputs.model, R=0.06), inputs.jumps,
                          inputs.friction.premium)
        assert len(calls) == 2


def _random_rates_model(rng, d, law_kind):
    # the ranges of the benchmark's crosscheck generator
    r = rng.uniform(0.0, 0.05)
    if d == 1:
        model = pk.MarketModel(
            mu=[r + rng.uniform(-0.02, 0.18)],
            sigma=[[rng.uniform(0.15, 0.45)]], r=r,
            R=r + rng.uniform(0.0, 0.08), rho=[rng.uniform(-0.9, 0.9)],
            b=rng.uniform(0.05, 0.8))
    else:
        s1, s2 = rng.uniform(0.15, 0.45, size=2)
        rho = rng.uniform(-1.0, 1.0, size=2)
        rho = rho / np.linalg.norm(rho) * rng.uniform(0.1, 0.9)
        model = pk.MarketModel(
            mu=r + rng.uniform(-0.02, 0.15, size=2),
            sigma=sigma_from_s(s1, s2, rng.uniform(-0.7, 0.7)), r=r,
            R=r + rng.uniform(0.0, 0.08), rho=rho, b=rng.uniform(0.05, 0.7))
    if law_kind == "beta":
        law = pk.BetaJumps(rng.uniform(0.8, 14.0), rng.uniform(2.5, 12.0))
    else:
        n = int(rng.integers(2, 6))
        law = pk.DiscreteJumps(np.sort(rng.uniform(0.05, 0.95, size=n)),
                               rng.dirichlet(np.ones(n)))
    jumps = pk.JumpLaw(lam=rng.uniform(0.05, 0.5), law=law)
    return model, jumps, pk.LinearPremium(q=rng.uniform(0.0, 0.5))


def test_thresholds_match_nested_route_randomized():
    # the hyperplane sign test against an eta bisection over kappa roots
    rng = np.random.default_rng(7)
    for i in range(60):
        model, jumps, prem = _random_rates_model(
            rng, 1 + i % 2, ("beta", "discrete")[(i // 2) % 2])
        hi = jumps.law.beta - 1e-3 \
            if isinstance(jumps.law, pk.BetaJumps) else 64.0
        kern = _DiffRatesKernel(model, jumps, prem)
        try:
            expected = tuple(threshold_nested(kern, xi, 1e-3, hi, ETA_XTOL)
                             for xi in (model.R, model.r))
        except pk.NoThreshold:
            with pytest.raises(pk.NoThreshold):
                pk.threshold_etas(model, jumps, prem)
            continue
        got = pk.threshold_etas(model, jumps, prem)
        assert got == pytest.approx(expected, abs=ETA_XTOL), i


QUAD_C = 0.2


class TestSmoothG:
    def test_degenerate_merton(self):
        # tiny regularizer keeps g'' < 0; b = 0, lambda = 0 reduces to Merton
        m = pk.MarketModel(mu=[0.10], sigma=[[0.25]], r=0.02, R=0.02,
                           rho=[0.0], b=0.0)
        jumps = pk.JumpLaw(lam=0.0, law=pk.BetaJumps(2.0, 8.0))
        rep = pk.solve(m, jumps, pk.SmoothG(pk.LinearPremium(q=0.0), 1e-12),
                       pk.Utility(2.0))
        assert rep.policy.pi[0] == pytest.approx(0.08 / (2 * 0.0625), rel=1e-8)

    def test_quadratic_g_full_insurance(self):
        # g = -c pi^2, b = 0, lambda E[Y] > q: linear FOC gives
        # pi = (mu - r)/(eta sigma^2 + 2c), kappa = 0 (cheap full insurance)
        c = 0.3
        m = pk.MarketModel(mu=[0.12], sigma=[[0.25]], r=0.02, R=0.02,
                           rho=[0.0], b=0.0)
        jumps = pk.JumpLaw(lam=0.5, law=pk.BetaJumps(2.0, 8.0))   # lam E[Y] = 0.1
        prem = pk.LinearPremium(q=0.05)
        eta = 2.0
        rep = pk.solve(m, jumps, pk.SmoothG(prem, c), pk.Utility(eta))
        assert rep.case_label == "SmoothG-2"
        assert rep.policy.kappa == 0.0
        assert rep.policy.pi[0] == pytest.approx(0.10 / (eta * 0.0625 + 2 * c),
                                                 rel=1e-9)

    def test_matches_grid_oracle(self):
        m = c_model(0.16, 0.4, -0.35)
        fric = pk.SmoothG(premium=Q02, c=QUAD_C)
        rep = pk.solve(m, BETA128_015, fric, pk.Utility(4.0))
        pol, val, bound = pk.grid_maximize(m, BETA128_015, fric, pk.Utility(4.0))
        assert rep.objective.value >= val - bound
        assert abs(pol.pi[0] - rep.policy.pi[0]) <= 0.05
        assert abs(pol.kappa - rep.policy.kappa) <= 0.05


class TestLargeInvestor:
    def test_zero_pressure_reduces_to_frictionless(self):
        m = c_model(0.16, 0.4, 0.3)
        jumps = BETA128_015
        rep = pk.solve(m, jumps, pk.LargeInvestor(Q02, 0.0, 0.0),
                       pk.Utility(4.0))
        base = pk.solve(m, jumps, pk.Frictionless(Q02), pk.Utility(4.0))
        assert rep.policy.pi[0] == pytest.approx(base.policy.pi[0], abs=1e-9)
        assert rep.policy.kappa == pytest.approx(base.policy.kappa, abs=1e-9)

    def test_case_iv_full_insurance_long(self):
        # lam E[Y] + p'(0) >= b rho (mu - r + m+)/sigma with mu + m+ > r:
        # long position, kappa = 0 (needs rho <= -0.6875 here)
        m = c_model(0.16, 0.4, -0.75)
        rep = pk.solve(m, BETA128_015, pk.LargeInvestor(Q02, -0.01, 0.02),
                       pk.Utility(4.0))
        assert rep.case_label == "Large-iv"
        assert rep.policy.kappa == 0.0
        assert rep.policy.pi[0] == pytest.approx((0.16 - 0.03 - 0.01)
                                                 / (4.0 * 0.09), rel=1e-9)

    def test_no_trade_band_case_iii(self):
        # mu - r inside [-m-, -m+] with b = 0, lambda = 0, p = 0: pi = 0
        m = pk.MarketModel(mu=[0.031], sigma=[[0.3]], r=0.03, R=0.03,
                           rho=[0.0], b=0.0)
        jumps = pk.JumpLaw(lam=0.0, law=pk.BetaJumps(2.0, 8.0))
        rep = pk.solve(m, jumps,
                       pk.LargeInvestor(pk.LinearPremium(q=0.0), -0.01, 0.02),
                       pk.Utility(2.0))
        assert rep.case_label == "Large-iii"
        assert rep.policy.pi[0] == 0.0
        assert -0.01 <= rep.xi_star <= 0.02

    def test_matches_grid_oracle(self):
        m = c_model(0.16, 0.4, 0.45)
        rep = pk.solve(m, BETA128_015, pk.LargeInvestor(Q02, -0.015, 0.025),
                       pk.Utility(3.0))
        fric = pk.LargeInvestor(premium=Q02, m_plus=-0.015, m_minus=0.025)
        pol, val, bound = pk.grid_maximize(m, BETA128_015, fric, pk.Utility(3.0))
        assert rep.objective.value >= val - bound


# One model per large-investor label: (mu, sigma, rho, b, q, eta) with
# r = 0.03, m+ = -0.02, m- = 0.03, lambda = 0.5, Y ~ Beta(2, 8), and the
# reference (pi, kappa, xi_star, objective).
LARGE_PINS = [
    ("i", (-0.05, 0.3, 0.8, 0.3, 0.3, 3.0),
     (0.058753671765292836, 0.5364050526695792, -0.02, -0.49668163380900443)),
    ("ii", (-0.1, 0.2, -0.8, 0.1, 0.1, 1.0),
     (-2.863257060770411, 0.9081426519260276, 0.03, 0.04543468727013167)),
    ("iii", (-0.1, 0.3, 0.8, 0.3, 0.3, 3.0),
     (0.0, 0.5088008064485621, 0.020099025807110572, -0.49697315432681377)),
    ("iv", (0.1, 0.2, -0.8, 0.1, 0.0, 1.0),
     (1.2499999999999998, 0.0, -0.02, 0.03125000000000001)),
    ("v", (-0.1, 0.2, -0.8, 0.1, 0.0, 1.0),
     (-2.4999999999999996, 0.0, 0.03, 0.125)),
    ("vi", (0.0, 0.3, 0.8, 0.3, 0.3, 1.0),
     (0.24444444444444446, 1.0, -0.02, -0.16036666666666632)),
    ("vii", (-0.1, 0.2, -0.8, 0.1, 0.3, 1.0),
     (-2.8999999999999995, 1.0, 0.03, 0.04514444444444478)),
]


@pytest.mark.parametrize("label,params,expected", LARGE_PINS,
                         ids=[p[0] for p in LARGE_PINS])
def test_large_investor_regression_pins(label, params, expected):
    mu, sig, rho, b, q, eta = params
    m = pk.MarketModel(mu=[mu], sigma=[[sig]], r=0.03, R=0.03, rho=[rho], b=b)
    jumps = pk.JumpLaw(lam=0.5, law=pk.BetaJumps(2.0, 8.0))
    rep = pk.solve(m, jumps,
                   pk.LargeInvestor(pk.LinearPremium(q=q), -0.02, 0.03),
                   pk.Utility(eta))
    assert rep.case_label == f"Large-{label}"
    got = (rep.policy.pi[0], rep.policy.kappa, rep.xi_star,
           rep.objective.value)
    assert got == pytest.approx(expected, abs=1e-12)


# Differential-rates case iii on the bundled configs: (config, swept
# parameter, value) and the reference (pi, kappa, xi_star, objective) from
# an independent route (an xi bisection over kappa roots), held to the
# tolerances of the steps that produce each column.
RATES_III_PINS = [
    ("a1", "eta", 1.0,
     ((0.9061700570918387, 0.09382994299529052), 1.0, 0.04148777257185428,
      -0.08972796434499196)),
    ("a2", "eta", 2.0,
     ((1.427711631244963, -0.42771163125845146), 1.0, 0.044957739144447256,
      -0.525225718549738)),
    ("b1", "rho", 0.3,
     ((0.9999999999745126,), 0.9987689168483485, 0.08712318041478281,
      -0.16377114720634203)),
    ("b2", "rho", 0.7,
     ((1.0000000000111937,), 0.7561921797168907, 0.04980316273053177,
      -0.17314002359054326)),
]


@pytest.mark.parametrize("config,param,value,expected", RATES_III_PINS,
                         ids=[p[0] for p in RATES_III_PINS])
def test_rates_case_iii_regression_pins(config, param, value, expected):
    inputs = load_model_file(resolve_model_path(config))
    m, j, f, u = _apply_param(param, value, inputs.model, inputs.jumps,
                              inputs.friction, inputs.utility)
    rep = pk.solve(m, j, f, u)
    pi, kappa, xi_star, objective = expected
    assert rep.case_label == "DiffRates-iii"
    assert rep.policy.pi == pytest.approx(np.array(pi), abs=1e-9)
    assert rep.policy.kappa == pytest.approx(kappa, abs=1e-10)
    assert rep.xi_star == pytest.approx(xi_star, abs=1e-11)
    assert rep.objective.value == pytest.approx(objective, abs=1e-10)


# The section5-example portfolio-premium solve along rho: reference
# (pi, kappa, objective) from the scan-then-bisect route (the kappa
# first-order condition on a 129-point grid before the bisection).
PREMIUM_PINS = [
    (0.0, (0.15586169506084646, 0.006855858748563549, -0.13002278213555563)),
    (0.25, (0.16261430605997956, 0.029707100280743387, -0.12967745217904791)),
    (0.5, (0.17882424523485801, 0.05727011825144773, -0.12879949425853346)),
]


@pytest.mark.parametrize("rho,expected", PREMIUM_PINS,
                         ids=[str(p[0]) for p in PREMIUM_PINS])
def test_portfolio_premium_regression_pins(rho, expected):
    inputs = load_model_file(resolve_model_path("section5-example"))
    m, j, f, u = _apply_param("rho", rho, inputs.model, inputs.jumps,
                              inputs.friction, inputs.utility)
    rep = pk.solve(m, j, f, u)
    pi, kappa, objective = expected
    assert rep.case_label == "PortfolioPremium-interior"
    assert rep.policy.pi[0] == pytest.approx(pi, abs=1e-10)
    assert rep.policy.kappa == pytest.approx(kappa, abs=1e-10)
    assert rep.objective.value == pytest.approx(objective, abs=1e-12)


DISCRETE_03 = pk.JumpLaw(lam=0.3, law=pk.DiscreteJumps([0.1, 0.4, 0.7],
                                                       [0.5, 0.3, 0.2]))


def _large(q):
    return pk.LargeInvestor(premium=pk.LinearPremium(q=q), m_plus=-0.015,
                            m_minus=0.025)


# Regimes no golden file covers: (id, model, jumps, friction, eta) and the
# reference (label, xi_star, pi, kappa, objective), captured before the
# smooth and shadow kernels replaced the per-regime solvers.
UNPINNED_PINS = [
    ("smoothg-beta", c_model(0.16, 0.4, -0.35), BETA128_015,
     pk.SmoothG(Q02, c=0.2), 4.0,
     ("SmoothG-1", None, (0.15025376990307554,), 0.09409008853253908,
      -0.2349989226558508)),
    ("smoothg-discrete",
     pk.MarketModel(mu=[0.12], sigma=[[0.25]], r=0.03, R=0.09, rho=[0.5],
                    b=0.3),
     DISCRETE_03, pk.SmoothG(pk.PowerPremium(q=0.15, delta=2.0), c=0.1), 2.0,
     ("SmoothG-1", None, (0.36486559751576353,), 0.3810842559032608,
      -0.3928532497410177)),
    ("large-i", c_model(0.16, 0.4, 0.45), BETA128_015, _large(0.2), 3.0,
     ("Large-i", -0.015, (0.59498454583701,), 0.28176436651847325,
      -0.22396005289472137)),
    ("large-ii", c_model(-0.05, 0.4, 0.3), BETA128_015, _large(0.2), 3.0,
     ("Large-ii", 0.025, (-0.1485623136468887,), 0.1378534751420375,
      -0.26321480276613984)),
    ("large-iii", c_model(0.02, 0.3, 0.3), DISCRETE_03, _large(0.2), 3.0,
     ("Large-iii", -0.009038092489732669, (0.0,), 0.23503817888558842,
      -0.3369070319086541)),
    ("large-iv", c_model(0.16, 0.4, -0.75), BETA128_015, _large(0.2), 3.0,
     ("Large-iv", -0.015, (0.425925925925926,), 0.0, -0.25050925925925926)),
    ("frictionless-d1", c_model(0.16, 0.4, 0.3), BETA128_015,
     pk.Frictionless(Q02), 4.0,
     ("Frictionless-i", 0.03, (0.4339813021697208,), 0.1821754776465241,
      -0.21124553735468973)),
    ("frictionless-d2", a1_model(), DISCRETE_03, pk.Frictionless(Q03), 2.0,
     ("Frictionless-i", 0.02, (0.5876553344098269, 0.13434070045321284),
      0.47076362048392184, -0.5254198036984523)),
]


@pytest.mark.parametrize("model,jumps,friction,eta,expected",
                         [p[1:] for p in UNPINNED_PINS],
                         ids=[p[0] for p in UNPINNED_PINS])
def test_unpinned_regime_regression_pins(model, jumps, friction, eta,
                                         expected):
    label, xi_star, pi, kappa, objective = expected
    rep = pk.solve(model, jumps, friction, pk.Utility(eta))
    assert rep.case_label == label
    assert rep.xi_star == xi_star
    assert rep.policy.pi == pytest.approx(np.array(pi), abs=1e-10)
    assert rep.policy.kappa == pytest.approx(kappa, abs=1e-10)
    assert rep.objective.value == pytest.approx(objective, abs=1e-12)


def test_solve_refuses_a_non_friction():
    with pytest.raises(TypeError):
        pk.solve(a1_model(), BETA28_025, Q03, pk.Utility(1.0))


def test_frictionless_model_validated_as_given():
    # R < r fails validation whatever the friction; the frictionless
    # market has no use for R, but the model it is given must be valid
    bad = replace(c_model(0.16, 0.4, 0.3), R=0.01)
    with pytest.raises(pk.ModelValidationError, match="R >= r"):
        pk.solve(bad, BETA128_015, pk.Frictionless(Q02), pk.Utility(4.0))


@pytest.mark.parametrize("eta", [9.5, 34.0, 40.0, 60.0])
def test_b1_beyond_beta_certifies(eta):
    # eta >= beta = 8: psi(1) = +inf makes h(1) = -inf, so the kappa root
    # is interior and no h evaluation overflows next to kappa = 1
    inputs = load_model_file(resolve_model_path("b1"))
    parts = _apply_param("eta", eta, inputs.model, inputs.jumps,
                         inputs.friction, inputs.utility)
    rep = pk.solve(*parts)
    assert rep.case_label.startswith("DiffRates-")
    assert rep.certificate.passes
    _, val, bound = pk.grid_maximize(*parts, pk.GridSpec(
        resolution=41, refine_resolution=81, rounds=1))
    assert val - rep.objective.value <= bound + 1e-12


def test_portfolio_premium_takes_no_kappa_scan(monkeypatch):
    # q is evaluated once per first-order-condition evaluation of one kappa
    # bisection, plus the objective and certificate; validation reads C, A
    # and lambda E[Y] and evaluates none
    inputs = load_model_file(resolve_model_path("section5-example"))
    calls = []
    rate = pk.PortfolioPremium.rate

    def counting(self, pi, jumps):
        calls.append(pi)
        return rate(self, pi, jumps)
    monkeypatch.setattr(pk.PortfolioPremium, "rate", counting)
    parts = (inputs.model, inputs.jumps, inputs.friction, inputs.utility)
    assert pk.validate_model(*parts).ok and not calls
    pk.solve(*parts)
    assert 0 < len(calls) < 60


def _log_floats(lo, hi):
    return st.floats(np.log(lo), np.log(hi)).map(np.exp).map(float)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(eta=_log_floats(1e-3, 50.0), sig=_log_floats(1e-3, 2.0),
       excess=st.floats(-0.5, 0.5), rho=st.sampled_from([0.0, 0.4, -0.9]),
       b=st.sampled_from([0.0, 0.3, 1.0]), big_c=st.floats(0.0, 5.0),
       a=_log_floats(1e-4, 5.0),
       kappas=st.lists(st.floats(0.0, 1.0), max_size=4))
def test_allocation_bracket_has_a_sign_change(eta, sig, excess, rho, b,
                                              big_c, a, kappas):
    # every root the portfolio premium's kernel starts, the allocation
    # root's at kappa 0, 1 and random kappas among them, has t of strictly
    # opposite signs at its two ends, or exactly 0 at one; the second-order
    # check is switched off, since the bracket does not rest on it
    model = pk.MarketModel(mu=[0.03 + excess], sigma=[[sig]], r=0.03,
                           R=0.09, rho=[rho], b=b)
    jumps = pk.JumpLaw(lam=0.2, law=pk.DiscreteJumps([0.1, 0.5], [0.6, 0.4]))
    friction = pk.PortfolioPremium(C=big_c, A=a)
    ends = []

    def checked(f, lo, hi, **kw):
        flo, fhi = f(lo), f(hi)
        ends.append((lo, hi, flo, fhi))
        assert flo == 0.0 or fhi == 0.0 or flo * fhi < 0.0, ends[-1]
        return brent(f, lo, hi, **kw)

    def probe(h):
        for k in [0.0, 1.0] + kappas:
            h(k)
        return 0.5, "interior"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "brent", checked)
        mp.setattr(solvers, "_solve_kappa", probe)
        mp.setattr(solvers, "_soc_bound", lambda *args: (0.0, 1.0))
        try:
            pk.solve(model, jumps, friction, pk.Utility(eta))
        except pk.PikappaError:
            pass                   # the certificate at kappa = 0.5
    assert len(ends) >= 2 + len(kappas)


BETA28_020 = pk.JumpLaw(lam=0.2, law=pk.BetaJumps(alpha=2.0, beta=8.0))
# at eta = 1e-4 the allocation is about 1.2e4, where pi's float spacing
# (1.8e-12) exceeds an absolute step of 1e-12
LARGE_PI_ETA = 1e-4


def _recording_bisect(monkeypatch, root="bisect"):
    """Patch the solvers' bisect, or their root of another name, to record
    each call's bracket and steps."""
    calls = []
    original = getattr(solvers, root)

    def recording(f, lo, hi, **kw):
        res = original(f, lo, hi, **kw)
        calls.append((lo, hi, res.iterations))
        return res
    monkeypatch.setattr(solvers, root, recording)
    return calls


@pytest.mark.parametrize("model,jumps,friction,eta",
                         [p[1:5] for p in UNPINNED_PINS[:2]]
                         + [(c_model(0.16, 0.4, 0.3), BETA28_020,
                             pk.SmoothG(Q02, c=1e-6), LARGE_PI_ETA)],
                         ids=["smoothg-beta", "smoothg-discrete", "large-pi"])
def test_smooth_g_bisects_kappa_only(model, jumps, friction, eta,
                                     monkeypatch):
    # pi(kappa) is a formula for smooth g, so an interior kappa root on
    # [0, 1] is the one bisection a solve starts, and a corner starts none
    calls = _recording_bisect(monkeypatch)
    rep = pk.solve(model, jumps, friction, pk.Utility(eta))
    interior = 0.0 < rep.policy.kappa < 1.0
    assert [c[:2] for c in calls] == [(0.0, 1.0)] * interior


@settings(max_examples=200, derandomize=True, deadline=None)
@given(excess=st.floats(-0.05, 0.2), sig=st.floats(0.05, 0.6),
       rho=st.floats(-0.95, 0.95), b=st.floats(0.0, 1.0),
       lam=st.floats(0.0, 0.6), c=_log_floats(1e-6, 2.0),
       eta=_log_floats(0.05, 30.0))
@example(excess=0.13, sig=0.3, rho=0.3, b=0.4, lam=0.2, c=1e-6,
         eta=LARGE_PI_ETA)
def test_smooth_g_allocation_condition_vanishes(excess, sig, rho, b, lam, c,
                                                eta):
    # mu - r - eta sigma^2 pi + eta sigma rho b kappa - 2c pi = 0 at the
    # solved policy, to the rounding of its terms
    model = pk.MarketModel(mu=[0.03 + excess], sigma=[[sig]], r=0.03,
                           R=0.09, rho=[rho], b=b)
    jumps = pk.JumpLaw(lam=lam, law=pk.BetaJumps(2.0, 8.0))
    rep = pk.solve(model, jumps, pk.SmoothG(Q02, c=c), pk.Utility(eta))
    pi, kappa = float(rep.policy.pi[0]), rep.policy.kappa
    terms = [0.03 + excess, 0.03, eta * sig * sig * pi,
             eta * sig * rho * b * kappa, 2.0 * c * pi]
    residual = float(rep.objective.grad_pi[0]) - 2.0 * c * pi
    assert abs(residual) <= 4 * np.finfo(float).eps * sum(map(abs, terms))


def test_portfolio_premium_allocation_root_stops_at_large_pi(monkeypatch):
    # the allocation root steps to 1e-12 max(1, |x0|), above pi's float
    # spacing, so no root runs to MAX_ITER; C = 0 with this fair rate
    # leaves the kappa condition without an interior root
    calls = _recording_bisect(monkeypatch, "brent")
    with pytest.raises(pk.NoInteriorSolution):
        pk.solve(c_model(0.16, 0.4, 0.3), BETA28_020,
                 pk.PortfolioPremium(C=0.0, A=0.5), pk.Utility(LARGE_PI_ETA))
    assert calls and max(c[2] for c in calls) < MAX_ITER


@settings(max_examples=300, derandomize=True, deadline=None)
@given(big_c=st.floats(0.0, 5.0), a=_log_floats(1e-4, 50.0),
       sig=_log_floats(1e-3, 2.0), rho=st.floats(-1.0, 1.0),
       b=st.floats(0.0, 2.0), lam=st.floats(0.0, 2.0),
       eta=_log_floats(1e-3, 50.0))
def test_soc_bound_peaks_at_the_ends(big_c, a, sig, rho, b, lam, eta):
    # q' increases in pi and (q' + eta rho b sigma)^2 is convex in q', so
    # the bound on a pi grid is the bound at the grid's two ends
    model = pk.MarketModel(mu=[0.1], sigma=[[sig]], r=0.03, R=0.09,
                           rho=[rho], b=b)
    jumps = pk.JumpLaw(lam=lam, law=pk.BetaJumps(2.0, 8.0))
    slope = pk.PortfolioPremium(C=big_c, A=a).slope
    grid = np.linspace(-50.0, 50.0, 201)
    assert _soc_bound(slope(grid), model, jumps, eta) == \
        _soc_bound(slope(grid[[0, -1]]), model, jumps, eta)


class TestPortfolioPremium:
    def test_section5_interior_matches_oracle(self):
        m = c_model(0.16, 0.4, 0.3)
        fric = pk.PortfolioPremium(C=0.25, A=0.5)
        rep = pk.solve(m, BETA128_015, fric, pk.Utility(4.0))
        assert rep.case_label == "PortfolioPremium-interior"
        assert 0.0 < rep.policy.kappa < 1.0
        pol, val, bound = pk.grid_maximize(m, BETA128_015, fric, pk.Utility(4.0))
        assert rep.objective.value >= val - bound

    def test_constant_q_decouples_to_frictionless(self):
        # C = 0: q = lambda E[Y] and q' = 0, so the pi FOC is
        # Merton-with-hedge and kappa solves the frictionless h with
        # p = Linear(q); both solvers must agree
        qv = 0.15 * 0.6
        m = c_model(0.16, 0.4, 0.4)
        rep = pk.solve(m, BETA128_015, pk.PortfolioPremium(C=0.0, A=0.5),
                       pk.Utility(4.0))
        base = pk.solve(m, BETA128_015,
                        pk.Frictionless(pk.LinearPremium(q=qv)),
                        pk.Utility(4.0))
        assert rep.policy.pi[0] == pytest.approx(base.policy.pi[0], abs=1e-8)
        assert rep.policy.kappa == pytest.approx(base.policy.kappa, abs=1e-8)

    def test_degenerate_coupling_reports_no_interior(self):
        # b = 0 and C = 0: q is the fair premium lam E[Y] = 0.09, so the
        # kappa FOC q - lam psi(kappa) starts at 0 and falls: no interior
        # root
        m = pk.MarketModel(mu=[0.16], sigma=[[0.3]], r=0.03, R=0.03,
                           rho=[0.0], b=0.0)
        with pytest.raises(pk.NoInteriorSolution):
            pk.solve(m, BETA128_015, pk.PortfolioPremium(C=0.0, A=0.5),
                     pk.Utility(4.0))

    def test_soc_violation_raised(self):
        # steep q' breaks the global second-order bound
        m = c_model(0.16, 0.4, 0.3)
        with pytest.raises(pk.SOCViolation):
            pk.solve(m, BETA128_015, pk.PortfolioPremium(C=2.0, A=0.5),
                     pk.Utility(4.0))


class TestMutualFund:
    def test_a2_corner_triple_exact(self):
        res = pk.mutual_fund_combine(a2_model(), BETA28_025, Q08, 1.0, 2.0, 1.5)
        direct = pk.solve(a2_model(), BETA28_025, pk.DifferentialRates(Q08),
                          pk.Utility(1.5))
        assert res.endpoint_low.case_label == "DiffRates-iii"
        assert direct.case_label == "DiffRates-iii"
        disc = max(float(np.max(np.abs(res.policy.pi - direct.policy.pi))),
                   abs(res.policy.kappa - direct.policy.kappa))
        assert disc <= 1e-6
        assert res.policy.pi_sum == pytest.approx(1.0, abs=1e-6)
        # both kappas on the corner 1: delta solves
        # 1/1.5 = delta/1 + (1 - delta)/2 in closed form, with no root
        assert res.endpoint_low.policy.kappa == 1.0
        assert res.endpoint_high.policy.kappa == 1.0
        assert res.delta == (1.0 / 1.5 - 1.0 / 2.0) / (1.0 / 1.0 - 1.0 / 2.0)

    def test_a1_interior_triple_near_optimal(self):
        # interior-kappa separation is only approximate; the combination
        # still lands within ~1e-3 of the direct solve (see decisions ledger)
        res = pk.mutual_fund_combine(a1_model(), BETA28_025, Q03, 2.0, 5.0, 3.0)
        direct = pk.solve(a1_model(), BETA28_025, pk.DifferentialRates(Q03),
                          pk.Utility(3.0))
        disc = max(float(np.max(np.abs(res.policy.pi - direct.policy.pi))),
                   abs(res.policy.kappa - direct.policy.kappa))
        assert disc <= 5e-3
        assert 0.0 < res.delta < 1.0

    def test_endpoint_degeneracy(self):
        # eta_bar -> eta1 pushes delta -> 1
        res = pk.mutual_fund_combine(a1_model(), BETA28_025, Q03,
                                     2.0, 5.0, 2.0 + 1e-7)
        assert res.delta > 1.0 - 1e-4

    def test_case_mismatch(self):
        # A1: eta=1.0 is case iii, eta=5.0 is case i
        with pytest.raises(pk.CaseMismatch):
            pk.mutual_fund_combine(a1_model(), BETA28_025, Q03, 1.0, 5.0, 2.0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            pk.mutual_fund_combine(a1_model(), BETA28_025, Q03, 2.0, 5.0, 6.0)
        with pytest.raises(ValueError):
            pk.mutual_fund_combine(a1_model(), BETA28_025,
                                   pk.PowerPremium(q=0.3, delta=2.0),
                                   2.0, 5.0, 3.0)


class TestComparativeStatics:
    def test_kappa_monotone_in_lambda_q_and_fosd(self):
        m = c_model(0.16, 0.4, 0.35)
        util = pk.Utility(4.0)

        lam_ladder = [0.05, 0.1, 0.2, 0.4, 0.8]
        kappas = [pk.solve(m, pk.JumpLaw(lam=l, law=pk.BetaJumps(2.0, 8.0)),
                           pk.DifferentialRates(Q02),
                           util).policy.kappa for l in lam_ladder]
        assert all(a >= b - 1e-9 for a, b in zip(kappas, kappas[1:]))

        q_ladder = [0.05, 0.1, 0.2, 0.35]
        jumps = pk.JumpLaw(lam=0.15, law=pk.BetaJumps(2.0, 8.0))
        kappas = [pk.solve(m, jumps,
                           pk.DifferentialRates(pk.LinearPremium(q=q)),
                           util).policy.kappa for q in q_ladder]
        assert all(a <= b + 1e-9 for a, b in zip(kappas, kappas[1:]))

        lo = pk.JumpLaw(lam=0.15, law=pk.BetaJumps(2.0, 8.0))
        hi = pk.JumpLaw(lam=0.15, law=pk.BetaJumps(12.0, 8.0))
        assert pk.fosd_compare(hi, lo) is pk.Ordering.DOMINATES
        k_lo = pk.solve(m, lo, pk.DifferentialRates(Q02), util).policy.kappa
        k_hi = pk.solve(m, hi, pk.DifferentialRates(Q02), util).policy.kappa
        assert k_hi <= k_lo + 1e-9

    def test_smooth_g_risk_premium_response(self):
        # rho > 0: pi and kappa both nondecreasing in mu - r
        jumps = pk.JumpLaw(lam=0.15, law=pk.BetaJumps(2.0, 8.0))
        util = pk.Utility(3.0)
        mus = [0.08, 0.10, 0.12, 0.14]
        reps = [pk.solve(c_model(mu, 0.4, 0.5), jumps,
                         pk.SmoothG(Q02, QUAD_C), util) for mu in mus]
        pis = [r.policy.pi[0] for r in reps]
        ks = [r.policy.kappa for r in reps]
        assert all(a <= b + 1e-9 for a, b in zip(pis, pis[1:]))
        assert all(a <= b + 1e-9 for a, b in zip(ks, ks[1:]))
