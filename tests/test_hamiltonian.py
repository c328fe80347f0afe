"""Objective, gradient, conjugate and certificate tests with
finite-difference and hand-computed oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest

import pikappa as pk
from pikappa.cli import resolve_model_path
from pikappa.hamiltonian import friction_term

BETA28 = pk.JumpLaw(lam=0.25, law=pk.BetaJumps(alpha=2.0, beta=8.0))
BETA128 = pk.JumpLaw(lam=0.15, law=pk.BetaJumps(alpha=12.0, beta=8.0))


def merton_model(d=1):
    if d == 1:
        return pk.MarketModel(mu=[0.10], sigma=[[0.25]], r=0.02, R=0.02,
                              rho=[0.0], b=0.0)
    return pk.MarketModel(mu=[0.08, 0.10],
                          sigma=[[0.25, 0.0], [0.08, 0.3098386676965934]],
                          r=0.02, R=0.06, rho=[0.2, -0.3], b=0.4)


def c2_model(rho=-0.6346):
    return pk.MarketModel(mu=[0.16], sigma=[[0.30]], r=0.03, R=0.09,
                          rho=[rho], b=0.4)


class TestEvalObjective:
    def test_merton_gradient_zero(self):
        # b=0, lambda=0, no friction: the Merton point kills the gradient
        m = merton_model()
        jumps = pk.JumpLaw(lam=0.0, law=pk.BetaJumps(2.0, 8.0))
        fric = pk.Frictionless(premium=pk.LinearPremium(q=0.0))
        eta = 2.0
        pi = (0.10 - 0.02) / (eta * 0.25 ** 2)
        obj = pk.eval_objective(pk.Policy(pi=[pi], kappa=0.3), m, jumps, fric,
                                pk.Utility(eta))
        assert abs(obj.grad_pi[0]) <= 1e-14

    def test_origin_values(self):
        # pi=0, kappa=0: H = lambda U_eta(1), dH/dkappa = -lambda E[Y]
        m = c2_model()
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.2))
        obj = pk.eval_objective(pk.Policy(pi=[0.0], kappa=0.0), m, BETA128,
                                fric, pk.Utility(4.0))
        assert obj.H_value == pytest.approx(0.15 * (1.0 / (1.0 - 4.0)), abs=1e-12)
        assert obj.dH_dkappa == pytest.approx(-0.15 * 0.6, abs=1e-12)

    def test_c2_boundary_kappa_derivative(self):
        # at the C2 full-insurance threshold rho = -0.6346, the Merton-at-r
        # policy pi = 0.3611 with kappa = 0 sits exactly on the corner
        # optimality boundary: dH/dkappa = p'(0) = -q, i.e.
        # eta*b*rho*sigma*pi = -q + lambda E[Y] = -0.11
        m = c2_model(rho=-0.634615384615)
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.2))
        pi = 0.13 / (4.0 * 0.09)
        obj = pk.eval_objective(pk.Policy(pi=[pi], kappa=0.0), m, BETA128,
                                fric, pk.Utility(4.0))
        hedge = 4.0 * 0.4 * (-0.634615384615) * 0.30 * pi
        assert hedge == pytest.approx(-0.11, abs=1e-6)
        assert obj.dH_dkappa == pytest.approx(-0.2, abs=1e-6)

    def test_value_is_f_plus_h(self):
        m = c2_model()
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.2))
        obj = pk.eval_objective(pk.Policy(pi=[1.4], kappa=0.5), m, BETA128,
                                fric, pk.Utility(4.0))
        assert obj.value == pytest.approx(obj.f_value + obj.H_value, abs=1e-12)
        # leveraged position pays the spread
        assert obj.f_value == pytest.approx(-(0.09 - 0.03) * 0.4
                                            - 0.2 * 0.5, abs=1e-12)


def _fd_check(model, jumps, friction, utility, policies, rel=1e-5):
    h = 1e-6
    for pi, kappa in policies:
        pol = pk.Policy(pi=pi, kappa=kappa)
        obj = pk.eval_objective(pol, model, jumps, friction, utility)

        def H_at(pi_v, k_v):
            o = pk.eval_objective(pk.Policy(pi=pi_v, kappa=k_v), model, jumps,
                                  friction, utility)
            return o.H_value

        for i in range(len(pi)):
            up = np.array(pi, dtype=float); up[i] += h
            dn = np.array(pi, dtype=float); dn[i] -= h
            fd = (H_at(up, kappa) - H_at(dn, kappa)) / (2 * h)
            assert obj.grad_pi[i] == pytest.approx(fd, rel=rel, abs=1e-5)
        fd = (H_at(pi, kappa + h) - H_at(pi, kappa - h)) / (2 * h)
        assert obj.dH_dkappa == pytest.approx(fd, rel=rel, abs=1e-5)


class TestGradientConsistency:
    def test_fd_gradients_all_regimes(self):
        rng = np.random.default_rng(99)
        m1 = c2_model(rho=0.35)
        m2 = merton_model(d=2)
        prem = pk.LinearPremium(q=0.2)
        regimes = [
            (m2, BETA28, pk.DifferentialRates(premium=prem)),
            (m1, BETA128, pk.Frictionless(premium=prem)),
            (m1, BETA128, pk.SmoothG(premium=prem, c=0.1)),
            (m1, BETA128, pk.LargeInvestor(premium=prem, m_plus=-0.01,
                                           m_minus=0.02)),
            (m1, BETA128, pk.PortfolioPremium(C=0.2, A=0.5)),
        ]
        for model, jumps, fric in regimes:
            policies = [(rng.uniform(-2, 2, size=model.d),
                         rng.uniform(0.05, 0.95)) for _ in range(200)]
            _fd_check(model, jumps, fric, pk.Utility(3.0), policies)

    def test_h_concave_in_pi_along_segments(self):
        m = merton_model(d=2)
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.3))
        util = pk.Utility(2.0)
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.uniform(-3, 3, size=2)
            b = rng.uniform(-3, 3, size=2)
            kappa = rng.uniform(0, 1)
            H = lambda p: pk.eval_objective(pk.Policy(pi=p, kappa=kappa), m,
                                            BETA28, fric, util).H_value
            mid = H(0.5 * (a + b))
            assert mid >= 0.5 * (H(a) + H(b)) - 1e-12


class TestConjugate:
    def test_linear_premium_endpoint_formula(self):
        # sup over kappa of -q(1-kappa) + gamma kappa = max(-q, gamma)
        prem = pk.LinearPremium(q=0.3)
        for gamma in (-1.0, -0.3, -0.1, 0.0, 0.5):
            assert pk.conj_premium(gamma, prem) == pytest.approx(
                max(-0.3, gamma), abs=1e-15)

    def test_power_premium_matches_grid_sup(self):
        prem = pk.PowerPremium(q=0.4, delta=2.5)
        ks = np.linspace(0, 1, 20001)
        for gamma in (-1.5, -0.7, -0.25, -0.05, 0.3):
            grid_sup = float(np.max(-prem.q * (1 - ks) ** prem.delta + gamma * ks))
            assert pk.conj_premium(gamma, prem) == pytest.approx(
                grid_sup, abs=1e-7)

    def test_diff_rates_domain(self):
        m = merton_model(d=2)
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.3))
        v, ok = pk.conjugate(np.array([0.0, 0.0]), -0.3, fric, m)
        assert ok and v == pytest.approx(-0.3)
        # unequal components: out of the effective domain
        v, ok = pk.conjugate(np.array([0.02, 0.05]), 0.0, fric, m)
        assert not ok and math.isinf(v)
        # common value above R - r: out of domain
        v, ok = pk.conjugate(np.array([0.05, 0.05]), 0.0, fric, m)
        assert not ok

    def test_large_investor_domain(self):
        # effective domain is zeta in [-m_minus, -m_plus] = [-0.02, 0.01],
        # equivalently -zeta in [m_plus, m_minus]
        m = c2_model()
        fric = pk.LargeInvestor(premium=pk.LinearPremium(q=0.3),
                                m_plus=-0.01, m_minus=0.02)
        for z in (0.005, -0.015, 0.01, -0.02):
            v, ok = pk.conjugate(np.array([z]), -0.5, fric, m)
            assert ok and v == pytest.approx(-0.3)
        for z in (0.015, 0.05, -0.03):
            v, ok = pk.conjugate(np.array([z]), -0.5, fric, m)
            assert not ok

    def test_smooth_g_value(self):
        # g = -c pi^2: gtilde(z) = z^2/(4c), attained at x = z/(2c)
        c = 0.25
        m = c2_model()
        fric = pk.SmoothG(premium=pk.LinearPremium(q=0.0), c=c)
        z = 0.3
        v, ok = pk.conjugate(np.array([z]), -1.0, fric, m)
        assert ok and v == pytest.approx(z * z / (4 * c), abs=1e-9)
        # every z is in the domain, and the sup dominates g on a grid
        xs = np.linspace(-50.0, 50.0, 20001)
        for z in (-1e3, -2.0, 0.0, 7.5, 1e3):
            v, ok = pk.conjugate(np.array([z]), -1.0, fric, m)
            assert ok and v >= float(np.max(-c * xs * xs + z * xs))

    def test_conjugate_dominates_lagrangian(self):
        # f(pi,kappa) + pi.zeta + kappa gamma <= ftilde(zeta,gamma) + 1e-9
        rng = np.random.default_rng(17)
        m = merton_model(d=2)
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.3))
        for _ in range(300):
            xi = rng.uniform(m.r, m.R)
            zeta = (xi - m.r) * np.ones(2)
            gamma = rng.uniform(-2.0, 1.0)
            v, ok = pk.conjugate(zeta, gamma, fric, m)
            assert ok
            pi = rng.uniform(-3, 3, size=2)
            kappa = rng.uniform(0, 1)
            f = friction_term(fric, m, BETA28, pi, kappa)
            assert f + pi @ zeta + kappa * gamma <= v + 1e-9


class TestCertify:
    def test_merton_passes(self):
        m = merton_model()
        jumps = pk.JumpLaw(lam=0.0, law=pk.BetaJumps(2.0, 8.0))
        fric = pk.Frictionless(premium=pk.LinearPremium(q=0.0))
        eta = 2.0
        pi = (0.10 - 0.02) / (eta * 0.25 ** 2)
        cert = pk.certify(pk.Policy(pi=[pi], kappa=0.0), m, jumps, fric,
                          pk.Utility(eta), tol=1e-9)
        assert cert.passes and abs(cert.residual) <= 1e-12

    def test_perturbed_fails(self):
        m = merton_model()
        jumps = pk.JumpLaw(lam=0.0, law=pk.BetaJumps(2.0, 8.0))
        fric = pk.Frictionless(premium=pk.LinearPremium(q=0.0))
        eta = 2.0
        pi = (0.10 - 0.02) / (eta * 0.25 ** 2) + 0.1
        cert = pk.certify(pk.Policy(pi=[pi], kappa=0.0), m, jumps, fric,
                          pk.Utility(eta), tol=1e-9)
        assert not cert.passes

    def test_tiny_eta_certifies_to_the_scale_of_its_terms(self):
        # b1 at eta = 1e-12: f and pi.zeta are about 6.2e10 and cancel to
        # 0.04, so their round-off alone leaves a residual of about 1.3e-5
        inputs = pk.load_model_file(resolve_model_path("b1"))
        rep = pk.solve(inputs.model, inputs.jumps, inputs.friction,
                       pk.Utility(1e-12))
        cert = rep.certificate
        assert cert.passes and 1e-6 < abs(cert.residual) < 1e-4
        assert abs(cert.direct_value) < 1.0 and abs(cert.conjugate_value) < 1.0

    @pytest.mark.parametrize("shift,passes", [(2e-7, False), (-2e-7, False),
                                              (5e-8, True)])
    def test_residual_on_an_order_one_objective_stays_absolute(self, shift,
                                                               passes):
        # every term of the identity is O(1) at b1's own eta: the default
        # tol 1e-7 applies as is to a residual moved by shift
        inputs = pk.load_model_file(resolve_model_path("b1"))
        parts = (inputs.model, inputs.jumps, inputs.friction, inputs.utility)
        rep = pk.solve(*parts)
        obj = rep.objective
        assert abs(rep.certificate.residual) < 1e-10
        assert max(abs(obj.f_value), abs(rep.certificate.conjugate_value),
                   abs(obj.dH_dkappa), float(np.abs(obj.grad_pi).max())) < 1.0
        moved = replace(obj, f_value=obj.f_value - shift)
        cert = pk.certify(rep.policy, *parts, obj=moved)
        assert cert.residual == pytest.approx(shift, rel=1e-3)
        assert cert.passes is passes


class TestValueFunction:
    def _eval(self, kappa=0.4, pi=0.8, rho=0.2):
        m = c2_model(rho=rho)
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.2))
        return m, pk.eval_objective(pk.Policy(pi=[pi], kappa=kappa), m,
                                    BETA128, fric, pk.Utility(4.0))

    def test_terminal_condition(self):
        m, obj = self._eval()
        for x in (0.5, 1.0, 3.7):
            v = pk.value_function(1.0, x, 1.0, obj, m, BETA128, pk.Utility(4.0))
            assert v == pytest.approx(x ** (1 - 4.0) / (1 - 4.0), abs=1e-12)

    def test_flat_theta(self):
        # theta is constant when (1-eta)(r + f + H) = lambda
        m, obj = self._eval()
        eta = 4.0
        lam_needed = (1 - eta) * (m.r + obj.value)
        jumps = pk.JumpLaw(lam=lam_needed, law=pk.BetaJumps(12.0, 8.0))
        v0 = pk.value_function(0.0, 2.0, 1.0, obj, m, jumps, pk.Utility(eta))
        vT = pk.value_function(1.0, 2.0, 1.0, obj, m, jumps, pk.Utility(eta))
        assert v0 == pytest.approx(vT, rel=1e-12)

    def test_positive_wealth_required(self):
        m, obj = self._eval()
        with pytest.raises(pk.DomainError):
            pk.value_function(0.0, -1.0, 1.0, obj, m, BETA128, pk.Utility(4.0))

    def test_log_case_continuity_in_eta(self):
        # log value is the eta -> 1 limit of the adjusted power value
        m = c2_model(rho=0.2)
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.2))
        pol = pk.Policy(pi=[0.8], kappa=0.4)
        x, T = 1.7, 2.0
        v1 = pk.value_function(0.0, x, T,
                               pk.eval_objective(pol, m, BETA128, fric,
                                                 pk.Utility(1.0)),
                               m, BETA128, pk.Utility(1.0))
        eps = 1e-6
        eta = 1.0 + eps
        obj = pk.eval_objective(pol, m, BETA128, fric, pk.Utility(eta))
        # shifted CRRA (x^(1-eta) - 1)/(1-eta) -> ln x; the shift adds
        # -theta(0)/(1-eta) ... compare E[(V^(1-eta)-1)/(1-eta)] instead
        theta = math.exp(((1 - eta) * (m.r + obj.value) - BETA128.lam) * T)
        shifted = (theta * x ** (1 - eta) - 1.0) / (1 - eta)
        assert shifted == pytest.approx(v1, abs=5e-5)
