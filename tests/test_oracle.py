"""Grid-oracle and sweep-engine tests."""

import numpy as np
import pytest

import pikappa as pk
from pikappa.oracle import sweep_csv

BETA28 = pk.JumpLaw(lam=0.25, law=pk.BetaJumps(alpha=2.0, beta=8.0))
BETA128 = pk.JumpLaw(lam=0.15, law=pk.BetaJumps(alpha=12.0, beta=8.0))


def c2_model(rho=0.0):
    return pk.MarketModel(mu=[0.16], sigma=[[0.30]], r=0.03, R=0.09,
                          rho=[rho], b=0.4)


class TestGridMaximize:
    def test_frictionless_merton_argmax(self):
        m = pk.MarketModel(mu=[0.10], sigma=[[0.25]], r=0.02, R=0.02,
                           rho=[0.0], b=0.0)
        jumps = pk.JumpLaw(lam=0.0, law=pk.BetaJumps(2.0, 8.0))
        fric = pk.Frictionless(premium=pk.LinearPremium(q=0.0))
        pol, val, bound = pk.grid_maximize(m, jumps, fric, pk.Utility(2.0))
        merton = 0.08 / (2.0 * 0.0625)
        # within one refined cell of the closed form
        assert abs(pol.pi[0] - merton) <= 2e-3

    def test_value_beats_random_grid_points(self):
        m = c2_model(0.4)
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.2))
        util = pk.Utility(4.0)
        pol, val, bound = pk.grid_maximize(m, BETA128, fric, util)
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = pk.Policy(pi=[rng.uniform(-3, 3)], kappa=rng.uniform(0, 1))
            other = pk.eval_objective(p, m, BETA128, fric, util).value
            assert val >= other - bound

    def test_refinement_never_decreases(self):
        m = c2_model(0.4)
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.2))
        util = pk.Utility(4.0)
        vals = []
        for rounds in (0, 1, 2):
            _, val, _ = pk.grid_maximize(m, BETA128, fric, util,
                                         pk.GridSpec(rounds=rounds))
            vals.append(val)
        assert vals[0] <= vals[1] <= vals[2]

    def test_consistent_with_solver(self):
        m = pk.MarketModel(mu=[0.16], sigma=[[0.26]], r=0.03, R=0.09,
                           rho=[0.5], b=0.4)
        jumps = pk.JumpLaw(lam=0.1, law=pk.BetaJumps(2.0, 8.0))
        rep = pk.solve(m, jumps, pk.DifferentialRates(pk.LinearPremium(q=0.3)),
                       pk.Utility(2.0))
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.3))
        pol, val, bound = pk.grid_maximize(m, jumps, fric, pk.Utility(2.0))
        assert rep.objective.value >= val - bound

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            pk.GridSpec(resolution=2)


class TestSweep:
    def test_a1_kappa_eta_profile(self):
        m = pk.MarketModel(
            mu=[0.08, 0.10],
            sigma=[[0.25, 0.0], [0.08, 0.3098386676965934]],
            r=0.02, R=0.06, rho=[0.2, -0.3], b=0.4)
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.3))
        grid = np.arange(0.4, 4.01, 0.2)
        res = pk.sweep("eta", grid, m, BETA28, fric, pk.Utility(1.0))
        assert all(not p.error for p in res.points)
        ks = np.array([p.kappa for p in res.points])
        # kappa = 1 on an initial segment, then strictly decreasing
        on = ks >= 1.0 - 1e-12
        assert on[0]
        first_off = int(np.argmin(on))
        assert not on[first_off:].any()
        tail = ks[first_off:]
        assert np.all(np.diff(tail) < 0)
        # pi sum nonincreasing in eta (one grid step slack)
        sums = np.array([p.pi_sum for p in res.points])
        assert np.all(np.diff(sums) <= 1e-9)

    def test_sweep_deterministic_csv(self):
        m = c2_model()
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.2))
        grid = np.linspace(-0.9, 0.9, 19)
        r1 = pk.sweep("rho", grid, m, BETA128, fric, pk.Utility(4.0))
        r2 = pk.sweep("rho", grid, m, BETA128, fric, pk.Utility(4.0))
        assert sweep_csv(r1, 1) == sweep_csv(r2, 1)

    def test_b1_kappa_rho_u_shape(self):
        m = pk.MarketModel(mu=[0.16], sigma=[[0.26]], r=0.03, R=0.09,
                           rho=[0.0], b=0.4)
        jumps = pk.JumpLaw(lam=0.1, law=pk.BetaJumps(2.0, 8.0))
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.3))
        grid = np.linspace(-1.0, 1.0, 41)
        res = pk.sweep("rho", grid, m, jumps, fric, pk.Utility(2.0))
        ks = np.array([p.kappa for p in res.points])
        # U-shape as a local property: nonincreasing then nondecreasing
        dn = np.diff(ks) <= 1e-9
        up = np.diff(ks) >= -1e-9
        pivot = int(np.argmin(ks))
        assert np.all(dn[:pivot]) and np.all(up[pivot:])
        assert ks[0] == 1.0 and ks[-1] == 1.0

    def test_error_points_recorded_not_fatal(self):
        m = c2_model()
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.2))
        # R sweep crossing below r: invalid points carry error strings
        grid = np.linspace(0.01, 0.05, 5)
        res = pk.sweep("R", grid, m, BETA128, fric, pk.Utility(4.0))
        bad = [p for p in res.points if p.error]
        good = [p for p in res.points if not p.error]
        assert bad and good

    def test_strictly_increasing_grid_required(self):
        m = c2_model()
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.2))
        with pytest.raises(ValueError):
            pk.sweep("eta", [1.0, 1.0, 2.0], m, BETA128, fric, pk.Utility(4.0))

    def test_unknown_parameter_rejected_before_solving(self):
        m = c2_model()
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.2))
        with pytest.raises(ValueError, match="unknown parameter 'zeta'"):
            pk.sweep("zeta", [1.0, 2.0], m, BETA128, fric, pk.Utility(4.0))

    def test_b_and_power_premium_q_sweep(self):
        m = c2_model()
        fric = pk.DifferentialRates(premium=pk.PowerPremium(q=0.2, delta=2.0))
        res = pk.sweep("b", [0.2, 0.5], m, BETA128, fric, pk.Utility(4.0))
        assert not any(p.error for p in res.points)
        res_q = pk.sweep("q", [0.1, 0.3], m, BETA128, fric, pk.Utility(4.0))
        assert not any(p.error for p in res_q.points)
        direct = pk.solve(m.replace(b=0.5), BETA128, fric, pk.Utility(4.0))
        assert res.points[1].kappa == direct.policy.kappa
        direct = pk.solve(m, BETA128, pk.DifferentialRates(
            premium=pk.PowerPremium(q=0.3, delta=2.0)), pk.Utility(4.0))
        assert res_q.points[1].kappa == direct.policy.kappa

    def test_csv_schema(self):
        m = c2_model()
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.2))
        res = pk.sweep("eta", [2.0, 3.0], m, BETA128, fric, pk.Utility(4.0))
        text = sweep_csv(res, 1)
        header = text.splitlines()[0]
        assert header == ("param_value,pi_1,pi_sum,kappa,case_label,"
                          "xi_star,objective,cert_residual")
        assert len(text.splitlines()) == 3


class TestCertificateSoundness:
    def test_certified_value_is_grid_unbeatable(self):
        # a certificate passing at 1e-9 caps the brute-force value up to the
        # oracle resolution bound
        m = pk.MarketModel(mu=[0.16], sigma=[[0.26]], r=0.03, R=0.09,
                           rho=[0.35], b=0.4)
        jumps = pk.JumpLaw(lam=0.1, law=pk.BetaJumps(2.0, 8.0))
        prem = pk.LinearPremium(q=0.3)
        util = pk.Utility(2.0)
        rep = pk.solve(m, jumps, pk.DifferentialRates(prem), util,
                       cert_tol=1e-9)
        assert rep.certificate.passes and abs(rep.certificate.residual) <= 1e-9
        fric = pk.DifferentialRates(premium=prem)
        _, val, bound = pk.grid_maximize(m, jumps, fric, util)
        assert val <= rep.objective.value + bound
