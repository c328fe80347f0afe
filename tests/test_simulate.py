"""Simulator tests: exact-law sampling against closed forms, determinism,
error scaling and paired comparisons."""

import numpy as np
import pytest

import pikappa as pk

BETA128 = pk.JumpLaw(lam=0.15, law=pk.BetaJumps(alpha=12.0, beta=8.0))
NOJUMPS = pk.JumpLaw(lam=0.0, law=pk.BetaJumps(alpha=2.0, beta=8.0))
PREM02 = pk.LinearPremium(q=0.2)


def c2_model(rho=0.2):
    return pk.MarketModel(mu=[0.16], sigma=[[0.30]], r=0.03, R=0.09,
                          rho=[rho], b=0.4)


class TestSimulateTerminalUtility:
    def test_deterministic_degenerate_path(self):
        # lambda = 0, b = 0, pi = 0: V_T = x exp((r + f) T) with zero SE
        m = pk.MarketModel(mu=[0.16], sigma=[[0.30]], r=0.03, R=0.09,
                           rho=[0.0], b=0.0)
        fric = pk.DifferentialRates(premium=PREM02)
        pol = pk.Policy(pi=[0.0], kappa=0.25)
        est = pk.simulate_terminal_utility(pol, m, NOJUMPS, fric,
                                           pk.Utility(2.0),
                                           pk.SimConfig(n_paths=1000, seed=1))
        f = -0.2 * 0.75
        v = 1.0 * np.exp((0.03 + f) * 1.0)
        assert est.std_error <= 1e-15   # zero up to mean-rounding noise
        assert est.mean == pytest.approx(v ** (-1.0) / (-1.0), rel=1e-12)

    def test_no_retention_matches_lognormal_closed_form(self):
        # kappa = 0 removes the jump product; E[V^(1-eta)] is lognormal
        m = c2_model(0.2)
        fric = pk.DifferentialRates(premium=PREM02)
        eta = 4.0
        pol = pk.Policy(pi=[0.8], kappa=0.0)
        est = pk.simulate_terminal_utility(pol, m, BETA128, fric,
                                           pk.Utility(eta),
                                           pk.SimConfig(n_paths=400_000, seed=2))
        var = (0.3 * 0.8) ** 2
        f = -PREM02.value(0.0)
        drift = 0.03 + f + 0.8 * 0.13 - 0.5 * var
        closed = np.exp((1 - eta) * drift + 0.5 * (1 - eta) ** 2 * var) / (1 - eta)
        assert abs(est.mean - closed) <= 3 * est.std_error

    def test_certified_policy_matches_value_function(self):
        m = c2_model(-0.8)
        rep = pk.solve(m, BETA128, pk.DifferentialRates(PREM02),
                       pk.Utility(4.0))
        closed = pk.value_function(0.0, 1.0, 1.0, rep.objective, m, BETA128,
                                   pk.Utility(4.0))
        fric = pk.DifferentialRates(premium=PREM02)
        est = pk.simulate_terminal_utility(rep.policy, m, BETA128, fric,
                                           pk.Utility(4.0),
                                           pk.SimConfig(n_paths=1_000_000,
                                                        seed=7))
        assert abs(est.mean - closed) <= 3 * est.std_error

    def test_log_utility_case(self):
        m = c2_model(0.3)
        rep = pk.solve(m, BETA128, pk.DifferentialRates(PREM02),
                       pk.Utility(1.0))
        closed = pk.value_function(0.0, 1.0, 1.0, rep.objective, m, BETA128,
                                   pk.Utility(1.0))
        fric = pk.DifferentialRates(premium=PREM02)
        est = pk.simulate_terminal_utility(rep.policy, m, BETA128, fric,
                                           pk.Utility(1.0),
                                           pk.SimConfig(n_paths=500_000, seed=9))
        assert abs(est.mean - closed) <= 3 * est.std_error

    def test_martingale_moment_check(self):
        # f = 0, lambda = 0, kappa = 0: E[V_T] = x exp((r + pi(mu - r)) T)
        m = pk.MarketModel(mu=[0.16], sigma=[[0.30]], r=0.03, R=0.03,
                           rho=[0.0], b=0.0)
        fric = pk.Frictionless(premium=pk.LinearPremium(q=0.0))
        pol = pk.Policy(pi=[1.3], kappa=0.0)
        cfg = pk.SimConfig(n_paths=1_000_000, seed=12)
        drift = 0.03 + 1.3 * 0.13
        var = (0.3 * 1.3) ** 2
        rng = np.random.Generator(np.random.Philox(12))
        z = rng.standard_normal(cfg.n_paths)
        v = np.exp(drift - 0.5 * var + np.sqrt(var) * z)
        se = v.std(ddof=1) / np.sqrt(cfg.n_paths)
        assert abs(v.mean() - np.exp(drift)) <= 4 * se

    def test_seed_determinism(self):
        m = c2_model()
        fric = pk.DifferentialRates(premium=PREM02)
        pol = pk.Policy(pi=[0.8], kappa=0.5)
        cfg = pk.SimConfig(n_paths=50_000, seed=99)
        e1 = pk.simulate_terminal_utility(pol, m, BETA128, fric,
                                          pk.Utility(4.0), cfg)
        e2 = pk.simulate_terminal_utility(pol, m, BETA128, fric,
                                          pk.Utility(4.0), cfg)
        assert e1 == e2

    def test_se_scaling(self):
        m = c2_model()
        fric = pk.DifferentialRates(premium=PREM02)
        pol = pk.Policy(pi=[0.8], kappa=0.5)
        e1 = pk.simulate_terminal_utility(pol, m, BETA128, fric,
                                          pk.Utility(4.0),
                                          pk.SimConfig(n_paths=100_000, seed=5))
        e4 = pk.simulate_terminal_utility(pol, m, BETA128, fric,
                                          pk.Utility(4.0),
                                          pk.SimConfig(n_paths=400_000, seed=5))
        assert e4.std_error == pytest.approx(0.5 * e1.std_error, rel=0.2)

    def test_positivity_and_floor(self):
        m = c2_model()
        fric = pk.DifferentialRates(premium=PREM02)
        pol = pk.Policy(pi=[0.8], kappa=1.0)
        est = pk.simulate_terminal_utility(pol, m, BETA128, fric,
                                           pk.Utility(2.0),
                                           pk.SimConfig(n_paths=200_000, seed=3))
        assert est.floor_fraction == 0.0
        assert np.isfinite(est.mean)

    def test_antithetic_reduces_se(self):
        m = c2_model()
        fric = pk.DifferentialRates(premium=PREM02)
        pol = pk.Policy(pi=[0.8], kappa=0.3)
        plain = pk.simulate_terminal_utility(pol, m, BETA128, fric,
                                             pk.Utility(2.0),
                                             pk.SimConfig(n_paths=200_000, seed=4))
        anti = pk.simulate_terminal_utility(pol, m, BETA128, fric,
                                            pk.Utility(2.0),
                                            pk.SimConfig(n_paths=200_000, seed=4,
                                                         antithetic=True))
        assert anti.std_error < plain.std_error


class TestComparePolicies:
    def test_identical_policies_tie_exactly(self):
        m = c2_model()
        fric = pk.DifferentialRates(premium=PREM02)
        pol = pk.Policy(pi=[0.8], kappa=0.5)
        v = pk.compare_policies(pol, pol, m, BETA128, fric, pk.Utility(4.0),
                                pk.SimConfig(n_paths=10_000, seed=1))
        assert v.verdict == "indistinguishable"
        assert v.diff_mean == 0.0 and v.diff_se == 0.0

    def test_certified_never_loses_to_perturbation(self):
        m = c2_model(-0.4)
        rep = pk.solve(m, BETA128, pk.DifferentialRates(PREM02),
                       pk.Utility(4.0))
        fric = pk.DifferentialRates(premium=PREM02)
        cfg = pk.SimConfig(n_paths=400_000, seed=21)
        k = min(1.0, rep.policy.kappa + 0.1)
        perturbed = pk.Policy(pi=rep.policy.pi, kappa=k)
        v = pk.compare_policies(rep.policy, perturbed, m, BETA128, fric,
                                pk.Utility(4.0), cfg)
        assert v.verdict != "B-better"

    def test_short_plus_retention_beats_merton_at_negative_rho(self):
        # B1 at rho = -1: the certified corner policy (short, kappa = 1)
        # beats Merton-with-full-insurance
        m = pk.MarketModel(mu=[0.16], sigma=[[0.26]], r=0.03, R=0.09,
                           rho=[-1.0], b=0.4)
        jumps = pk.JumpLaw(lam=0.1, law=pk.BetaJumps(2.0, 8.0))
        prem = pk.LinearPremium(q=0.3)
        rep = pk.solve(m, jumps, pk.DifferentialRates(prem), pk.Utility(2.0))
        assert rep.case_label == "DiffRates-vi"
        merton = pk.Policy(pi=[0.13 / (2.0 * 0.26 ** 2)], kappa=0.0)
        fric = pk.DifferentialRates(premium=prem)
        v = pk.compare_policies(rep.policy, merton, m, jumps, fric,
                                pk.Utility(2.0),
                                pk.SimConfig(n_paths=400_000, seed=8))
        assert v.verdict == "A-better"


PIN_LAWS = {
    "beta": pk.JumpLaw(lam=0.8, law=pk.BetaJumps(2.0, 8.0)),
    "discrete": pk.JumpLaw(lam=0.8, law=pk.DiscreteJumps(
        points=np.array([0.1, 0.4, 0.8]), weights=np.array([0.5, 0.3, 0.2]))),
}
# law -> (plain mean, plain SE, antithetic mean, antithetic SE,
#         comparison diff mean, diff SE, mean A, mean B)
MC_PINS = {
    "beta": (-0.5701812077077362, 0.0012807181805052329,
             -0.5718849278524243, 0.001217098328804395,
             0.05857776980599558, 0.0008630253750706904,
             -0.5701812077077362, -0.6287589775137318),
    "discrete": (-0.6772638582940447, 0.002977849115147976,
                 -0.6758694762320889, 0.003885835871264706,
                 0.27724069328175205, 0.009010644090605206,
                 -0.6772638582940447, -0.9545045515757967),
}


@pytest.mark.parametrize("law", sorted(MC_PINS))
def test_monte_carlo_streams_bit_identical(law):
    m = pk.MarketModel(mu=[0.08], sigma=[[0.2]], r=0.03, R=0.05, rho=[0.4],
                       b=0.2)
    fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.05))
    u = pk.Utility(3.0)
    a = pk.Policy(pi=[0.6], kappa=0.4)
    b = pk.Policy(pi=[0.5], kappa=0.6)
    jumps = PIN_LAWS[law]
    plain = pk.simulate_terminal_utility(a, m, jumps, fric, u,
                                         pk.SimConfig(n_paths=20_000, seed=7))
    anti = pk.simulate_terminal_utility(
        a, m, jumps, fric, u,
        pk.SimConfig(n_paths=20_000, seed=7, antithetic=True))
    cmp = pk.compare_policies(a, b, m, jumps, fric, u,
                              pk.SimConfig(n_paths=20_000, seed=7))
    got = (plain.mean, plain.std_error, anti.mean, anti.std_error,
           cmp.diff_mean, cmp.diff_se, cmp.mean_a, cmp.mean_b)
    assert got == MC_PINS[law]
    assert cmp.verdict == "A-better"


def test_jump_that_rounds_to_one_is_refused_by_both_estimators():
    # Beta(0.5, 0.001) is a valid law whose draws round to 1.0 (9,601 of
    # 10,000 at seed 1): at kappa = 1 such a jump takes all the wealth
    m = pk.MarketModel(mu=[0.08], sigma=[[0.2]], r=0.03, R=0.05, rho=[0.4],
                       b=0.2)
    jumps = pk.JumpLaw(lam=0.8, law=pk.BetaJumps(0.5, 0.001))
    fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.05))
    u = pk.Utility(3.0)
    assert pk.validate_model(m, jumps, fric, u).ok
    assert (pk.sample_jumps(jumps, 10_000, seed=1) == 1.0).sum() == 9_601
    a = pk.Policy(pi=[0.6], kappa=1.0)
    b = pk.Policy(pi=[0.5], kappa=0.6)
    cfg = pk.SimConfig(n_paths=10_000, seed=7)
    msg = r"sampled 1 - kappa Y <= 0"
    with pytest.raises(pk.DomainError, match=msg):
        pk.simulate_terminal_utility(a, m, jumps, fric, u, cfg)
    for first, second in ((a, b), (b, a)):
        with pytest.raises(pk.DomainError, match=msg):
            pk.compare_policies(first, second, m, jumps, fric, u, cfg)


def test_sample_jumps_stream_bit_identical():
    assert pk.sample_jumps(PIN_LAWS["beta"], 5, seed=3).tolist() == [
        0.28607459870959356, 0.055356250806029544, 0.19999872511705233,
        0.15709268536541515, 0.42797400624717646]
    assert pk.sample_jumps(PIN_LAWS["discrete"], 5, seed=3).tolist() == [
        0.1, 0.1, 0.1, 0.8, 0.8]


class TestPathDump:
    def test_per_path_csv(self, tmp_path):
        m = c2_model()
        fric = pk.DifferentialRates(premium=PREM02)
        pol = pk.Policy(pi=[0.8], kappa=0.5)
        out = tmp_path / "paths.csv"
        est = pk.simulate_terminal_utility(pol, m, BETA128, fric,
                                           pk.Utility(2.0),
                                           pk.SimConfig(n_paths=100, seed=6),
                                           dump_csv=str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "path_id,N_T,G,V_T,utility"
        assert len(lines) == 101
        # the dumped utilities average to the reported estimate
        us = [float(l.split(",")[4]) for l in lines[1:]]
        assert np.mean(us) == pytest.approx(est.mean, rel=1e-9)
        vs = [float(l.split(",")[3]) for l in lines[1:]]
        assert all(v > 0 for v in vs)
