"""Simulator tests: exact-law sampling against closed forms, determinism,
error scaling and paired comparisons."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

import pikappa as pk
from mc_reference import terminal_utilities as unblocked_utilities
from pikappa import simulate
from pikappa.jumps import _generator

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
        rng = _generator(12)
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


@pytest.mark.parametrize("field,value", [
    ("horizon", float("nan")), ("horizon", float("inf")), ("horizon", 0.0),
    ("x0", float("nan")), ("x0", float("inf")), ("x0", -1.0),
    ("n_paths", 1e6), ("n_paths", 1000.0),
    ("seed", -1), ("seed", 1.5)])
def test_sim_config_names_the_bad_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        pk.SimConfig(**{field: value})


@pytest.mark.parametrize("n_paths,antithetic", [
    (1, False), (3, True), (2, True), (1, True)])
def test_path_count_without_a_standard_error_is_refused(n_paths, antithetic):
    with pytest.raises(ValueError, match="path"):
        pk.SimConfig(n_paths=n_paths, antithetic=antithetic)


def test_smallest_path_counts_give_a_standard_error():
    m = c2_model()
    fric = pk.DifferentialRates(premium=PREM02)
    pol = pk.Policy(pi=[0.8], kappa=0.5)
    for cfg in (pk.SimConfig(n_paths=2, seed=1),
                pk.SimConfig(n_paths=4, seed=1, antithetic=True)):
        est = pk.simulate_terminal_utility(pol, m, BETA128, fric,
                                           pk.Utility(2.0), cfg)
        assert est.std_error > 0.0
    v = pk.compare_policies(pol, pk.Policy(pi=[0.5], kappa=0.5), m, BETA128,
                            fric, pk.Utility(2.0),
                            pk.SimConfig(n_paths=2, seed=1))
    assert v.diff_se > 0.0


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
PIN_NAMES = ("plain mean", "plain SE", "antithetic mean", "antithetic SE",
             "comparison diff mean", "diff SE", "mean A", "mean B")
MC_PINS = {
    "beta": (-0.5702889390617758, 0.0012939836446819882,
             -0.5695070398460897, 0.0012166501480746705,
             0.058906015063885944, 0.0008975259204055177,
             -0.5702889390617758, -0.6291949541256618),
    "discrete": (-0.6731615179046229, 0.0029868571398611495,
                 -0.6783689641385118, 0.004166000938632343,
                 0.2726811738385612, 0.012746751897935057,
                 -0.6731615179046229, -0.9458426917431841),
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
    moved = [f"{name}: {pin!r} -> {value!r}"
             for name, pin, value in zip(PIN_NAMES, MC_PINS[law], got)
             if value != pin]
    assert got == MC_PINS[law], "moved pins:\n" + "\n".join(moved)
    assert cmp.verdict == "A-better"


@pytest.mark.parametrize("law", sorted(PIN_LAWS))
def test_antithetic_comparison_runs_the_antithetic_paths(law, tmp_path):
    # an antithetic config pairs the comparison's paths as it pairs the
    # estimate's: mean_a is the antithetic mean to the bit, and the SE comes
    # from the pair means of the difference
    m = pk.MarketModel(mu=[0.08], sigma=[[0.2]], r=0.03, R=0.05, rho=[0.4],
                       b=0.2)
    fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.05))
    u = pk.Utility(3.0)
    a = pk.Policy(pi=[0.6], kappa=0.4)
    b = pk.Policy(pi=[0.5], kappa=0.6)
    jumps = PIN_LAWS[law]
    cfg = pk.SimConfig(n_paths=20_000, seed=7, antithetic=True)
    means, utilities = [], []
    for policy, name in ((a, "a.csv"), (b, "b.csv")):
        means.append(pk.simulate_terminal_utility(
            policy, m, jumps, fric, u, cfg, dump_csv=str(tmp_path / name)).mean)
        utilities.append(np.loadtxt(tmp_path / name, delimiter=",",
                                    skiprows=1, usecols=4))
    cmp = pk.compare_policies(a, b, m, jumps, fric, u, cfg)
    assert (cmp.mean_a, cmp.mean_b) == tuple(means)
    assert cmp.mean_a == MC_PINS[law][2]
    # the dump lists the mirror paths last, at 12 significant digits
    pairs = [0.5 * (x[:10_000] + x[10_000:]) for x in utilities]
    diff = pairs[0] - pairs[1]
    assert cmp.diff_mean == pytest.approx(diff.mean(), rel=1e-9)
    assert cmp.diff_se == pytest.approx(diff.std(ddof=1) / 100.0, rel=1e-6)


def test_jump_that_rounds_to_one_is_refused_by_both_estimators():
    # Beta(0.5, 0.001) is a valid law whose draws round to 1.0 (9,668 of
    # 10,000 at seed 1): at kappa = 1 such a jump takes all the wealth
    m = pk.MarketModel(mu=[0.08], sigma=[[0.2]], r=0.03, R=0.05, rho=[0.4],
                       b=0.2)
    jumps = pk.JumpLaw(lam=0.8, law=pk.BetaJumps(0.5, 0.001))
    fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.05))
    u = pk.Utility(3.0)
    assert pk.validate_model(m, jumps, fric, u).ok
    assert (pk.sample_jumps(jumps, 10_000, seed=1) == 1.0).sum() == 9_668
    a = pk.Policy(pi=[0.6], kappa=1.0)
    b = pk.Policy(pi=[0.5], kappa=0.6)
    cfg = pk.SimConfig(n_paths=10_000, seed=7)
    msg = r"sampled 1 - kappa Y <= 0"
    with pytest.raises(pk.DomainError, match=msg):
        pk.simulate_terminal_utility(a, m, jumps, fric, u, cfg)
    for first, second in ((a, b), (b, a)):
        with pytest.raises(pk.DomainError, match=msg):
            pk.compare_policies(first, second, m, jumps, fric, u, cfg)



@pytest.mark.parametrize("eta", [3.0])
def test_floored_means_out_of_double_range_are_refused_by_both_estimators(
        eta):
    # at pi = 128 most of the 2,000 paths floor at WEALTH_FLOOR, and at
    # eta = 3 each floored utility overflows to -inf. Both estimators raise
    # a DomainError, not numpy's overflow warning, and the comparison
    # refuses a mean before it forms the difference (inf - inf where both
    # policies floor).
    m, fric = c2_model(0.0), pk.DifferentialRates(premium=PREM02)
    u = pk.Utility(eta)
    floored = pk.Policy(pi=[128.0], kappa=0.0)
    # the message names the utility's mean, -inf, not the +inf mean of the
    # kernel's exp((1 - eta) log V_T) before its division by 1 - eta
    msg = r"the Monte Carlo mean of U_eta\(V_T\) is -inf"
    for cfg in (pk.SimConfig(n_paths=2_000, seed=1),
                pk.SimConfig(n_paths=2_000, seed=1, antithetic=True)):
        with pytest.raises(pk.DomainError, match=msg):
            pk.simulate_terminal_utility(floored, m, BETA128, fric, u, cfg)
        for other in (pk.Policy(pi=[120.0], kappa=0.0),
                      pk.Policy(pi=[1.0], kappa=0.0)):
            for a, b in ((floored, other), (other, floored)):
                with pytest.raises(pk.DomainError, match=msg):
                    pk.compare_policies(a, b, m, BETA128, fric, u, cfg)


def test_a_finite_mean_out_of_double_range_once_divided_is_refused():
    # eta = 1e-6 on a riskless path whose exp((1 - eta) log V_T) lies just
    # below the largest double: each kernel value and their mean are
    # finite, but the mean over 1 - eta = 0.999999, the utility's, is not
    m = pk.MarketModel(mu=[0.16], sigma=[[0.30]], r=0.05, R=0.05,
                       rho=[0.0], b=0.0)
    fric = pk.Frictionless(premium=pk.LinearPremium(q=0.0))
    pol, u = pk.Policy(pi=[0.0], kappa=0.0), pk.Utility(1e-6)
    horizon = 1000.0
    drift = simulate._policy_coefficients(pol, m, NOJUMPS, fric)[0]
    top = math.log(np.finfo(float).max)
    log_wealth = (top - 5e-7) / (1.0 - u.eta)
    cfg = pk.SimConfig(horizon=horizon, n_paths=1_000, seed=1,
                       x0=math.exp(log_wealth - drift * horizon))
    x = np.concatenate([b.copy() for b, _, _ in simulate._terminal_utilities(
        pol, simulate._common_draws(NOJUMPS, cfg), m, NOJUMPS, fric, u,
        cfg)])
    with np.errstate(over="ignore"):
        assert np.isfinite(x).all() and np.isinf(x / (1.0 - u.eta)).all()
    msg = r"the Monte Carlo mean of U_eta\(V_T\) is inf"
    with pytest.raises(pk.DomainError, match=msg):
        pk.simulate_terminal_utility(pol, m, NOJUMPS, fric, u, cfg)
    with pytest.raises(pk.DomainError, match=msg):
        pk.compare_policies(pol, pol, m, NOJUMPS, fric, u, cfg)


@pytest.mark.parametrize("antithetic", [False, True])
def test_finite_utilities_whose_sum_overflows_give_their_mean(antithetic):
    # at eta = 2.02 each floored utility is finite, about -9.8e305, and
    # their plain sum overflows: the block's mean is taken from x / max|x|
    # and scaled back, so both estimators return the finite mean
    m, fric = c2_model(0.0), pk.DifferentialRates(premium=PREM02)
    u = pk.Utility(2.02)
    floored = pk.Policy(pi=[128.0], kappa=0.0)
    cfg = pk.SimConfig(n_paths=2_000, seed=1, antithetic=antithetic)
    est = pk.simulate_terminal_utility(floored, m, BETA128, fric, u, cfg)
    assert 0.8 < est.floor_fraction < 0.9
    x = _samples(floored, m, BETA128, fric, u, cfg)
    scale = float(np.abs(x).max())
    assert est.mean == pytest.approx(
        math.fsum(x / scale) / x.size * scale, rel=1e-13)
    assert -9e305 < est.mean < -7e305
    assert math.isfinite(est.std_error) and est.std_error > 0.0
    for other in (pk.Policy(pi=[120.0], kappa=0.0),
                  pk.Policy(pi=[1.0], kappa=0.0)):
        cmp = pk.compare_policies(floored, other, m, BETA128, fric, u, cfg)
        assert cmp.mean_a == est.mean and cmp.verdict == "B-better"
        assert math.isfinite(cmp.diff_mean) and math.isfinite(cmp.diff_se)


def test_sample_jumps_stream_bit_identical():
    assert pk.sample_jumps(PIN_LAWS["beta"], 5, seed=3).tolist() == [
        0.21773038416564333, 0.1363117239915391, 0.07318866474572293,
        0.08024029968851379, 0.1659271558351959]
    assert pk.sample_jumps(PIN_LAWS["discrete"], 5, seed=3).tolist() == [
        0.4, 0.8, 0.4, 0.8, 0.4]


@pytest.mark.parametrize("weights", [
    [0.7, 0.3], [0.5, 0.3, 0.2], [0.1, 0.2, 0.3, 0.4],
    [0.05, 0.25, 0.0, 0.4, 0.3]])
def test_discrete_draw_is_generator_choice_bit_for_bit(weights):
    # the count of cdf[:-1] <= u takes the uniforms and the atoms that
    # Generator.choice(p=weights) takes, a zero-weight atom included
    points = np.linspace(0.1, 0.9, len(weights))
    jumps = pk.JumpLaw(lam=1.0, law=pk.DiscreteJumps(points=points,
                                                     weights=weights))
    idx = _generator(5).choice(len(weights), size=10_000, p=weights)
    assert pk.sample_jumps(jumps, 10_000, seed=5).tobytes() == \
        points[idx].tobytes()


@pytest.mark.parametrize("weights", [[0.5, 0.6], [1.2, -0.2], [0.5, np.nan]])
def test_discrete_draw_refuses_weights_that_choice_refuses(weights):
    jumps = pk.JumpLaw(lam=1.0, law=pk.DiscreteJumps(points=[0.2, 0.6],
                                                     weights=weights))
    with pytest.raises(ValueError, match="jump weights"):
        pk.sample_jumps(jumps, 10, seed=1)


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


def _block_stream(seed, b):
    """Block b's substream of a draw on seed: child b of its SeedSequence."""
    return _generator(np.random.SeedSequence(seed).spawn(b + 1)[b])


def _global_owner(draw):
    """The path of each jump of a draw, its block-local owner mapped to the
    index of its path among all n."""
    z, _, owner, cuts = draw
    starts = np.arange(0, z.size, simulate.BLOCK)
    return owner + np.repeat(starts, np.diff(cuts))


def _streamed(policy, draw, model, jumps, fric, utility, cfg, wealth=False):
    """The kernel's blocks joined as one pass over all paths would give
    them: utilities (its values divided by 1 - eta) and V_T shaped as the
    normals, (n,) or the antithetic (2, n), and the floored count."""
    divisor = simulate._divisor(utility)
    blocks = [(u / divisor, floored, None if v is None else v.copy())
              for u, floored, v in simulate._terminal_utilities(
                  policy, draw, model, jumps, fric, utility, cfg, wealth)]
    shape = (2, -1) if cfg.antithetic else (-1,)
    u = np.concatenate([b[0] for b in blocks], axis=1).reshape(shape)
    v = np.concatenate([b[2] for b in blocks], axis=1).reshape(shape) \
        if wealth else None
    return u, sum(b[1] for b in blocks), v


def _samples(policy, model, jumps, fric, utility, cfg):
    """The estimator's independent samples on cfg's draw, every path's
    utility or pair mean, joined over the blocks: the kernel's values or
    their pair means, divided by 1 - eta."""
    draw = simulate._common_draws(jumps, cfg)
    divisor = simulate._divisor(utility)
    return np.concatenate([
        simulate._pair_means(u) / divisor for u, _, _ in
        simulate._terminal_utilities(policy, draw, model, jumps, fric,
                                     utility, cfg)])


def _log_wealth(policy, model, jumps, fric, cfg):
    """Unfloored log V_T on the paths of cfg, built apart from the kernel
    and rounded as it rounds: (log x0 + drift T) + sd z, then each jump log
    of a path added into it in the order of the draw."""
    draw = simulate._common_draws(jumps, cfg)
    z, y = draw[0], draw[1]
    if cfg.antithetic:
        z = np.stack([z, -z])
    drift, var = simulate._policy_coefficients(policy, model, jumps, fric)
    w = (math.log(cfg.x0) + drift * cfg.horizon) \
        + math.sqrt(var * cfg.horizon) * z
    jump_log = np.log1p(-policy.kappa * y)
    for row in np.atleast_2d(w):
        np.add.at(row, _global_owner(draw), jump_log)
    return w


def _parent_utility(w, eta):
    """U_eta(max(exp(w), WEALTH_FLOOR)) by exp and pow, the direct form."""
    v = np.maximum(np.exp(w), simulate.WEALTH_FLOOR)
    return v, (np.log(v) if eta == 1.0 else v ** (1.0 - eta) / (1.0 - eta))


# pi = 128 at sigma = 0.3 takes most paths, not all, below WEALTH_FLOOR
FLOORED = pk.Policy(pi=[128.0], kappa=0.0)


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("eta", [0.5, 1.0, 3.0, 30.0])
def test_log_space_utilities_match_the_direct_form(eta, antithetic):
    # the kernel's one exp of a rounded product (1 - eta) w is within
    # 4 eps (1 + |(1 - eta) w|) relative of the direct form
    # max(exp(w), 1e-300) ** (1 - eta) / (1 - eta), log at eta = 1, taken
    # at 30 digits on the same log wealth
    m, fric = c2_model(), pk.DifferentialRates(premium=PREM02)
    pol = pk.Policy(pi=[2.5], kappa=0.5)
    cfg = pk.SimConfig(n_paths=2_000, seed=5, antithetic=antithetic)
    draw = simulate._common_draws(BETA128, cfg)
    u, floored, v = _streamed(pol, draw, m, BETA128, fric, pk.Utility(eta),
                              cfg)
    assert u.shape == ((2, 1_000) if antithetic else (2_000,))
    assert floored == 0 and v is None
    w = _log_wealth(pol, m, BETA128, fric, cfg).ravel()
    with mpmath.workdps(30):
        floor = mpmath.mpf(simulate.WEALTH_FLOOR)
        ref = [max(mpmath.exp(wi), floor) for wi in w]
        ref = [mpmath.log(x) if eta == 1.0
               else x ** (1 - eta) / (1 - eta) for x in ref]
        err = np.array([float(abs(ui - ri) / abs(ri))
                        for ui, ri in zip(u.ravel(), ref)])
    tol = 4.0 * np.finfo(float).eps * (1.0 + np.abs((1.0 - eta) * w))
    assert (err <= tol).all(), float((err / tol).max())


@pytest.mark.parametrize("eta", [0.5, 1.0])
def test_floor_fraction_counts_the_paths_below_the_wealth_floor(eta):
    m, fric = c2_model(), pk.DifferentialRates(premium=PREM02)
    cfg = pk.SimConfig(n_paths=20_000, seed=3)
    w = _log_wealth(FLOORED, m, BETA128, fric, cfg)
    below = int(np.count_nonzero(np.exp(w) < simulate.WEALTH_FLOOR))
    assert 0 < below < cfg.n_paths
    est = pk.simulate_terminal_utility(FLOORED, m, BETA128, fric,
                                       pk.Utility(eta), cfg)
    assert est.floor_fraction == below / cfg.n_paths
    assert est.mean == pytest.approx(
        _parent_utility(w, eta)[1].mean(), rel=1e-12)
    assert math.isfinite(est.std_error) and est.std_error > 0.0


@pytest.mark.parametrize("policy,eta,antithetic", [
    (pk.Policy(pi=[0.8], kappa=0.5), 3.0, False),
    (pk.Policy(pi=[0.8], kappa=0.5), 3.0, True),
    (FLOORED, 0.5, False)])
def test_dump_columns_match_the_direct_form(policy, eta, antithetic,
                                            tmp_path):
    # V_T = max(exp(w), 1e-300) and its utility by pow, as printed at 12
    # significant digits, the antithetic mirror paths last
    m, fric = c2_model(), pk.DifferentialRates(premium=PREM02)
    cfg = pk.SimConfig(n_paths=2_000, seed=6, antithetic=antithetic)
    out = tmp_path / "paths.csv"
    pk.simulate_terminal_utility(policy, m, BETA128, fric, pk.Utility(eta),
                                 cfg, dump_csv=str(out))
    got = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(3, 4))
    v, u = _parent_utility(_log_wealth(policy, m, BETA128, fric, cfg).ravel(),
                           eta)
    np.testing.assert_allclose(got[:, 0], v, rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(got[:, 1], u, rtol=1e-11, atol=0.0)


def test_standard_error_of_a_sample_near_double_range_is_finite():
    # the centred squares overflow; the rescaled sum gives the SE of x / s
    # times s
    x = np.array([1e300, 3e300, -2e300, 5e300, 4e300])
    moments = simulate._Moments(1.0)
    moments.add(x.copy())
    assert moments.mean == x.mean()
    assert moments.std_error == pytest.approx(np.std(x / 1e300, ddof=1)
                                              * 1e300 / math.sqrt(5),
                                              rel=1e-15)
    with pytest.raises(pk.DomainError, match="mean"):
        simulate._Moments(1.0).add(np.array([1.0, 2.0, np.inf]))


BLOCK = simulate.BLOCK
# path counts below one block, at whole blocks and with a ragged last block
PATH_COUNTS = st.one_of(
    st.integers(2, BLOCK - 1),
    st.integers(1, 3).map(lambda k: k * BLOCK),
    st.tuples(st.integers(1, 3), st.integers(1, BLOCK - 1)).map(
        lambda kr: kr[0] * BLOCK + kr[1]))


def _kernel_inputs(seed, n, jumps_on, lam_t):
    """A draw (z, y, owner, cuts) of n paths laid out as _common_draws lays
    it, with Beta(2, 8) sizes: Poisson(lam_t m) jumps on each block of m
    paths at uniform block-local owners, none, or 1 to 30 jumps all on the
    first or the last path."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    sizes = np.diff(np.append(np.arange(0, n, BLOCK), n))
    if jumps_on == "spread":
        counts = rng.poisson(lam_t * sizes)
        owner = np.concatenate([rng.integers(0, m, size=k)
                                for m, k in zip(sizes, counts)])
    else:
        total = 0 if jumps_on == "none" else int(rng.integers(1, 31))
        counts = np.zeros(sizes.size, dtype=np.int64)
        counts[0 if jumps_on == "first" else -1] = total
        owner = np.full(total, 0 if jumps_on == "first" else sizes[-1] - 1,
                        dtype=np.int64)
    cuts = np.concatenate([[0], np.cumsum(counts)])
    return z, rng.beta(2.0, 8.0, size=owner.size), owner, cuts


def _reference_args(draw, rows):
    """The unblocked reference's z, y and owner for a draw: the rows
    [z, -z] when rows = 2, and each jump's owner as its path among all n."""
    z, y = draw[0], draw[1]
    return (np.stack([z, -z]) if rows == 2 else z), y, _global_owner(draw)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(n=PATH_COUNTS, rows=st.sampled_from([1, 2]),
       jumps_on=st.sampled_from(["spread", "none", "first", "last"]),
       lam_t=st.sampled_from([0.05, 0.5, 2.0]),
       pi=st.sampled_from([0.0, 0.8, -3.0, 128.0]),
       kappa=st.sampled_from([0.0, 0.4, 1.0]),
       eta=st.sampled_from([0.5, 1.0, 3.0, 30.0]),
       x0=st.sampled_from([1.0, 2.5]), horizon=st.sampled_from([1.0, 0.25]),
       wealth=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(n=2 * BLOCK, rows=2, jumps_on="last", lam_t=0.5, pi=128.0,
         kappa=1.0, eta=1.0, x0=1.0, horizon=1.0, wealth=True, seed=1)
@example(n=BLOCK + 7, rows=1, jumps_on="first", lam_t=0.5, pi=0.8,
         kappa=0.4, eta=0.5, x0=2.5, horizon=1.0, wealth=True, seed=2)
@example(n=100, rows=2, jumps_on="none", lam_t=0.5, pi=-3.0, kappa=0.0,
         eta=3.0, x0=1.0, horizon=0.25, wealth=False, seed=3)
def test_blocked_kernel_is_the_unblocked_kernel_bit_for_bit(
        n, rows, jumps_on, lam_t, pi, kappa, eta, x0, horizon, wealth, seed):
    # pi = 128 floors most paths, whose utility leaves double range beyond
    # eta of about 2.03
    assume(pi != 128.0 or eta <= 1.0)
    draw = _kernel_inputs(seed, n, jumps_on, lam_t)
    policy, fric = pk.Policy(pi=[pi], kappa=kappa), \
        pk.DifferentialRates(premium=PREM02)
    cfg = pk.SimConfig(horizon=horizon, x0=x0, antithetic=rows == 2)
    u, floored, v = _streamed(policy, draw, c2_model(), BETA128, fric,
                              pk.Utility(eta), cfg, wealth)
    ref_u, ref_floored, ref_v = unblocked_utilities(
        policy, *_reference_args(draw, rows), c2_model(), BETA128, fric,
        pk.Utility(eta), cfg, wealth=wealth)
    assert u.shape == ref_u.shape and u.tobytes() == ref_u.tobytes()
    assert floored == ref_floored
    if wealth:
        assert v.shape == ref_v.shape and v.tobytes() == ref_v.tobytes()
    else:
        assert v is None and ref_v is None


def test_a_path_just_below_the_floor_is_floored_in_its_block():
    # one path of the second block sits half a unit below LOG_FLOOR, so the
    # block's minimum, not a far tail, decides whether it is floored
    pol = pk.Policy(pi=[1.0], kappa=0.0)
    m, fric = c2_model(), pk.DifferentialRates(premium=PREM02)
    drift, var = simulate._policy_coefficients(pol, m, NOJUMPS, fric)
    z = np.zeros(BLOCK + 3)
    z[BLOCK + 1] = (simulate.LOG_FLOOR - 0.5 - drift) / math.sqrt(var)
    draw = (z, np.empty(0), np.empty(0, dtype=np.int64),
            np.zeros(3, dtype=np.int64))
    args = (m, NOJUMPS, fric, pk.Utility(0.5), pk.SimConfig())
    u, floored, v = _streamed(pol, draw, *args, wealth=True)
    ref_u, ref_floored, ref_v = unblocked_utilities(
        pol, *_reference_args(draw, 1), *args, wealth=True)
    assert floored == ref_floored == 1
    assert v[BLOCK + 1] == math.exp(simulate.LOG_FLOOR)
    assert u.tobytes() == ref_u.tobytes() and v.tobytes() == ref_v.tobytes()


def test_blocked_kernel_refuses_a_full_loss_in_the_last_block():
    z, y, owner, cuts = _kernel_inputs(4, 2 * BLOCK + 5, "spread", 0.5)
    assert cuts[-1] > cuts[-2]        # the last block has a jump
    y[-1] = 1.0
    blocks = simulate._terminal_utilities(
        pk.Policy(pi=[0.6], kappa=1.0), (z, y, owner, cuts), c2_model(),
        BETA128, pk.DifferentialRates(premium=PREM02), pk.Utility(3.0),
        pk.SimConfig())
    for _ in range(2):
        next(blocks)
    with pytest.raises(pk.DomainError, match="sampled 1 - kappa Y <= 0"):
        next(blocks)


def test_kernel_memory_is_the_output_and_a_few_blocks():
    # beyond the kept draw, an estimate and a paired comparison at 1e6 paths
    # hold a few blocks at a time: no n-path buffer, a peak below 1 MiB
    args = (c2_model(), BETA128, pk.DifferentialRates(premium=PREM02),
            pk.Utility(3.0), pk.SimConfig(n_paths=1_000_000, seed=5))
    a, b = pk.Policy(pi=[0.8], kappa=0.5), pk.Policy(pi=[0.6], kappa=0.3)
    pk.simulate_terminal_utility(a, *args)          # the draw is kept
    tracemalloc.start()
    try:
        pk.simulate_terminal_utility(a, *args)
        pk.compare_policies(a, b, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20, peak / 2 ** 20


def _run(jumps, cfg):
    """Every estimate one config gives: the plain or antithetic estimate and
    a paired comparison."""
    m = c2_model()
    fric = pk.DifferentialRates(premium=PREM02)
    u = pk.Utility(3.0)
    a = pk.Policy(pi=[0.6], kappa=0.4)
    b = pk.Policy(pi=[0.5], kappa=0.6)
    return (pk.simulate_terminal_utility(a, m, jumps, fric, u, cfg),
            pk.compare_policies(a, b, m, jumps, fric, u, cfg))


def _fresh(jumps, cfg):
    """_run with no draw kept from an earlier call, as in a new process."""
    simulate._last_draw = ()
    return _run(jumps, cfg)


MEMO_CASES = {
    "seed 7": (BETA128, pk.SimConfig(n_paths=20_000, seed=7)),
    "seed 8": (BETA128, pk.SimConfig(n_paths=20_000, seed=8)),
    # n_paths / 2 = 20,000 normals: the same draw as the plain seed 7
    "antithetic 7": (BETA128, pk.SimConfig(n_paths=40_000, seed=7,
                                           antithetic=True)),
    # equal to BETA128 but another object, so drawn again
    "equal law 7": (pk.JumpLaw(lam=0.15, law=pk.BetaJumps(12.0, 8.0)),
                    pk.SimConfig(n_paths=20_000, seed=7)),
    "discrete 7": (PIN_LAWS["discrete"], pk.SimConfig(n_paths=20_000,
                                                      seed=7)),
    "horizon 2": (BETA128, pk.SimConfig(n_paths=20_000, seed=7,
                                        horizon=2.0)),
    # x0 is not part of the draw, so this reuses the seed 7 draw
    "x0 2": (BETA128, pk.SimConfig(n_paths=20_000, seed=7, x0=2.0)),
}


class TestCommonDraws:
    """Calls on one config and law share one draw; no order of calls moves
    a bit of any estimate."""

    def test_any_order_gives_the_fresh_bits(self):
        fresh = {name: _fresh(*case) for name, case in MEMO_CASES.items()}
        order = ["seed 7", "seed 8", "seed 7", "seed 7", "antithetic 7",
                 "seed 7", "antithetic 7", "equal law 7", "seed 7",
                 "discrete 7", "horizon 2", "x0 2", "seed 7", "x0 2",
                 "seed 8"]
        simulate._last_draw = ()
        for name in order:
            assert _run(*MEMO_CASES[name]) == fresh[name], name

    def test_kept_draw_is_read_only_and_reused(self):
        cfg = pk.SimConfig(n_paths=1_000, seed=3)
        first = simulate._common_draws(BETA128, cfg)
        again = simulate._common_draws(BETA128, cfg)
        assert all(a is b for a, b in zip(first, again))
        for a in first:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[:1] = 0

    def test_threads_on_different_seeds_match_serial_results(self):
        seeds = (7, 8, 9, 10)
        cases = {s: (BETA128, pk.SimConfig(n_paths=20_000, seed=s))
                 for s in seeds}
        serial = {s: _fresh(*cases[s]) for s in seeds}
        got = {s: [] for s in seeds}

        def work(s):
            for _ in range(6):
                got[s].append(_run(*cases[s]))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(s,))
                       for s in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for s in seeds:
            assert got[s] == [serial[s]] * 6, s

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_dump_counts_match_the_poisson_draws(self, antithetic, tmp_path):
        # a block's substream holds, in order: one Poisson(lam T m) count
        # for its m paths, their m normals, then that many owners, uniform
        # on the block's paths (one block here, n < BLOCK)
        jumps = pk.JumpLaw(lam=2.0, law=pk.BetaJumps(2.0, 8.0))
        cfg = pk.SimConfig(n_paths=400, seed=11, antithetic=antithetic)
        n = 200 if antithetic else 400
        rng = _block_stream(11, 0)
        total = rng.poisson(2.0 * n)
        rng.standard_normal(n)
        counts = np.bincount(rng.integers(0, n, size=total), minlength=n)
        _run(jumps, cfg)              # the dump below reuses this draw
        out = tmp_path / "paths.csv"
        pk.simulate_terminal_utility(pk.Policy(pi=[0.6], kappa=0.4),
                                     c2_model(), jumps,
                                     pk.DifferentialRates(premium=PREM02),
                                     pk.Utility(3.0), cfg, dump_csv=str(out))
        n_t = [int(line.split(",")[1])
               for line in out.read_text().splitlines()[1:]]
        assert n_t == counts.tolist() * (2 if antithetic else 1)
        assert counts.sum() > 0


class _CountedThread(threading.Thread):
    """threading.Thread that counts the threads started through it."""
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


class TestParallelDraw:
    """The blocks of a draw are filled on threads; their bits depend on the
    seed, n, T and the law, not on the number of threads."""

    def _outputs(self, monkeypatch, tmp_path, workers):
        monkeypatch.setattr(simulate, "_workers", lambda: workers)
        monkeypatch.setattr(_CountedThread, "started", 0)
        monkeypatch.setattr(simulate.threading, "Thread", _CountedThread)
        jumps = pk.JumpLaw(lam=0.5, law=pk.BetaJumps(2.0, 8.0))
        m, fric, u = c2_model(), pk.DifferentialRates(premium=PREM02), \
            pk.Utility(3.0)
        a, b = pk.Policy(pi=[0.6], kappa=0.4), pk.Policy(pi=[0.5], kappa=0.6)
        out = {}
        for antithetic in (False, True):
            # 200,000 paths: six whole blocks and a ragged one of 3,392
            cfg = pk.SimConfig(n_paths=200_000 * (1 + antithetic), seed=5,
                               antithetic=antithetic)
            simulate._last_draw = ()
            out["draw", antithetic] = [
                x.tobytes() for x in simulate._common_draws(jumps, cfg)]
            dump = None if antithetic else tmp_path / f"{workers}.csv"
            out["estimate", antithetic] = pk.simulate_terminal_utility(
                a, m, jumps, fric, u, cfg, dump_csv=dump and str(dump))
            out["comparison", antithetic] = pk.compare_policies(
                a, b, m, jumps, fric, u, cfg)
        out["dump"] = (tmp_path / f"{workers}.csv").read_bytes()
        return out, _CountedThread.started

    def test_bits_do_not_depend_on_the_worker_count(self, monkeypatch,
                                                    tmp_path):
        serial, started = self._outputs(monkeypatch, tmp_path, 1)
        assert started == 0
        for workers in (2, 3):
            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)   # interleave the fills finely
            try:
                got, started = self._outputs(monkeypatch, tmp_path, workers)
            finally:
                sys.setswitchinterval(old)
            # two draws of seven blocks, workers - 1 helpers each
            assert started == 2 * (workers - 1)
            assert got.keys() == serial.keys()
            for key in serial:
                assert got[key] == serial[key], (workers, key)

    def test_a_one_block_draw_starts_no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-block draw started a thread")

        monkeypatch.setattr(simulate, "_workers", lambda: 4)
        monkeypatch.setattr(simulate.threading, "Thread", refuse)
        simulate._last_draw = ()
        _run(BETA128, pk.SimConfig(n_paths=BLOCK, seed=6))

    @staticmethod
    def _fault_in(monkeypatch, where):
        """Make _draw_y raise DomainError on a later block: on the helper
        thread's first block, or on the caller's second."""
        caller, calls, draw_y = threading.current_thread(), [], simulate._draw_y

        def faulty(rng, law, out):
            here = threading.current_thread()
            if here is caller:
                calls.append(here)
            if (here is not caller) if where == "helper" else len(calls) == 2:
                raise pk.DomainError(f"injected fault on the {where}")
            return draw_y(rng, law, out)

        monkeypatch.setattr(simulate, "_workers", lambda: 2)
        monkeypatch.setattr(simulate, "_draw_y", faulty)
        simulate._last_draw = ()

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_a_fault_in_a_block_reaches_the_caller(self, monkeypatch, where):
        self._fault_in(monkeypatch, where)
        before = threading.active_count()
        with pytest.raises(pk.DomainError, match=f"injected fault on the "
                                                 f"{where}"):
            simulate._common_draws(BETA128,
                                   pk.SimConfig(n_paths=200_000, seed=5))
        assert simulate._last_draw == ()        # nothing published
        assert threading.active_count() == before

    def test_a_fault_in_a_helper_is_one_cli_line(self, monkeypatch, capsys):
        from pikappa import cli
        self._fault_in(monkeypatch, "helper")
        code = cli.main(["simulate", "--model", "c2", "--paths", "200000"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == ("simulate failed: DomainError: injected fault on the "
                       "helper\n")

    def test_a_path_count_beyond_memory_fails_before_any_substream(
            self, monkeypatch):
        made = []
        monkeypatch.setattr(simulate, "_generator", made.append)
        simulate._last_draw = ()
        with pytest.raises(MemoryError):
            simulate._common_draws(BETA128, pk.SimConfig(n_paths=10 ** 15))
        assert made == []


def _poisson_chi2(counts, mean):
    """Pearson's chi-square of the counts against the Poisson(mean) pmf, one
    bin per count while the pooled tail still expects 5 paths, and its p."""
    n = counts.size
    pmf, p, k = [], math.exp(-mean), 0
    while n * (1.0 - sum(pmf) - p) >= 5.0:
        pmf.append(p)
        k += 1
        p *= mean / k
    expected = n * np.array(pmf + [1.0 - sum(pmf)])
    observed = np.bincount(np.minimum(counts, len(pmf)),
                           minlength=len(pmf) + 1)
    stat = float(((observed - expected) ** 2 / expected).sum())
    return stat, float(stats.chi2.sf(stat, df=len(pmf)))


@pytest.mark.parametrize("lam_t", [0.05, 0.5, 2.0])
def test_dumped_jump_counts_follow_the_poisson_law(lam_t, tmp_path):
    # each path's N_T is Poisson(lam T), however the stream draws it
    jumps = pk.JumpLaw(lam=lam_t, law=pk.BetaJumps(2.0, 8.0))
    cfg = pk.SimConfig(n_paths=200_000, seed=31)
    out = tmp_path / "paths.csv"
    pk.simulate_terminal_utility(pk.Policy(pi=[0.6], kappa=0.4), c2_model(),
                                 jumps, pk.DifferentialRates(premium=PREM02),
                                 pk.Utility(3.0), cfg, dump_csv=str(out))
    n_t = np.array([int(line.split(",")[1])
                    for line in out.read_text().splitlines()[1:]])
    assert n_t.size == cfg.n_paths
    y = simulate._common_draws(jumps, cfg)[1]
    assert n_t.sum() == y.size
    stat, p = _poisson_chi2(n_t, lam_t)
    assert p > 1e-3, (stat, p)


def test_draw_is_blocked_and_each_path_count_is_poisson():
    # 200,000 paths: six whole blocks and a ragged last one of 3,392. Block
    # b is child b of the seed's SeedSequence: its count, normals, owners
    # (offsets in the block) and jump sizes replay from that substream
    # alone, and the per-path counts of the whole draw follow Poisson(lam T)
    jumps = pk.JumpLaw(lam=0.5, law=pk.BetaJumps(2.0, 8.0))
    cfg = pk.SimConfig(n_paths=200_000, seed=41)
    draw = simulate._common_draws(jumps, cfg)
    z, y, owner, cuts = draw
    sizes = [BLOCK] * 6 + [200_000 - 6 * BLOCK]
    assert cuts.size == len(sizes) + 1 and cuts[0] == 0
    assert cuts[-1] == y.size == owner.size
    for b, size in enumerate(sizes):
        rng = _block_stream(41, b)
        lo, hi, s = cuts[b], cuts[b + 1], b * BLOCK
        assert hi - lo == rng.poisson(0.5 * size) > 0
        assert z[s:s + size].tobytes() == rng.standard_normal(size).tobytes()
        block = owner[lo:hi]
        assert block.tolist() == rng.integers(
            0, size, size=hi - lo, dtype=np.int32).tolist()
        assert 0 <= block.min() and block.max() < size
        g1 = rng.standard_gamma(2.0, size=hi - lo)
        g2 = rng.standard_gamma(8.0, size=hi - lo)
        assert y[lo:hi].tobytes() == (g1 / (g2 + g1)).tobytes()
    counts = np.bincount(_global_owner(draw), minlength=cfg.n_paths)
    stat, p = _poisson_chi2(counts, 0.5)
    assert p > 1e-3, (stat, p)


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("eta", [0.5, 1.0, 3.0])
def test_streamed_moments_match_a_two_pass_fsum(eta, antithetic):
    # the running mean and deviation merged over four blocks (one ragged)
    # agree with an exactly rounded two-pass reference on the same samples,
    # for the estimate and the paired difference; the estimators divide by
    # 1 - eta once, a positive divisor at eta = 0.5, none at 1 and a
    # negative one at 3
    m, fric, u = c2_model(), pk.DifferentialRates(premium=PREM02), \
        pk.Utility(eta)
    a, b = pk.Policy(pi=[0.8], kappa=0.5), pk.Policy(pi=[0.5], kappa=0.7)
    cfg = pk.SimConfig(n_paths=2 * (3 * BLOCK + 123) if antithetic
                       else 3 * BLOCK + 123, seed=17, antithetic=antithetic)

    def two_pass(x):
        mean = math.fsum(x) / x.size
        ss = math.fsum((x - mean) ** 2)
        return mean, math.sqrt(ss / (x.size - 1)) / math.sqrt(x.size)

    xa = _samples(a, m, BETA128, fric, u, cfg)
    xb = _samples(b, m, BETA128, fric, u, cfg)
    est = pk.simulate_terminal_utility(a, m, BETA128, fric, u, cfg)
    cmp = pk.compare_policies(a, b, m, BETA128, fric, u, cfg)
    for got, x in (((est.mean, est.std_error), xa),
                   ((cmp.diff_mean, cmp.diff_se), xa - xb)):
        assert got == pytest.approx(two_pass(x), rel=1e-13, abs=0.0)
    assert cmp.mean_a == est.mean
    assert cmp.mean_b == pytest.approx(two_pass(xb)[0], rel=1e-13, abs=0.0)


def test_antithetic_dump_writes_each_block_then_its_mirrors(tmp_path):
    # rows go out a block at a time: the block's paths, then their mirrors
    # n + i, whose G is the path's G negated
    n = BLOCK + 5
    cfg = pk.SimConfig(n_paths=2 * n, seed=2, antithetic=True)
    out = tmp_path / "paths.csv"
    pk.simulate_terminal_utility(pk.Policy(pi=[0.8], kappa=0.5), c2_model(),
                                 BETA128, pk.DifferentialRates(premium=PREM02),
                                 pk.Utility(3.0), cfg, dump_csv=str(out))
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    ids = rows[:, 0].astype(int)
    first, last = np.arange(BLOCK), np.arange(BLOCK, n)
    assert ids.tolist() == np.concatenate(
        [first, n + first, last, n + last]).tolist()
    by_id = rows[np.argsort(ids)]
    assert (by_id[n:, 1] == by_id[:n, 1]).all()
    assert (by_id[n:, 2] == -by_id[:n, 2]).all()


NONE_GLOBALS = """
import importlib, pkgutil, sys
import pikappa, pikappa.cli
for info in pkgutil.iter_modules(pikappa.__path__):
    importlib.import_module("pikappa." + info.name)
print(sorted(f"{name}.{attr}" for name, mod in list(sys.modules.items())
             if name == "pikappa" or name.startswith("pikappa.")
             for attr, value in vars(mod).items() if value is None))
"""


def test_no_pikappa_module_holds_none_at_module_level():
    # perfbench/tracer.py Tracer.unwrapped() reports a module-level name as
    # an unwrapped layer function when _originals.get(id(value)) is value,
    # which holds for every None, so a None global fails a traced benchmark
    # run; module state uses another sentinel, such as (). A new process
    # sees the globals as imported, before any call sets them.
    src = str(Path(pk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NONE_GLOBALS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
