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
from mc_reference import conditional_utilities
from pikappa import simulate
from pikappa.jumps import _draw_y, _generator

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

    def test_conditional_estimate_reduces_se(self, tmp_path):
        # the dump's V_T are plain paths over the estimate's jumps: their
        # plain utilities estimate the same mean with a wider SE
        m = c2_model()
        fric = pk.DifferentialRates(premium=PREM02)
        pol = pk.Policy(pi=[0.8], kappa=0.3)
        cfg = pk.SimConfig(n_paths=20_000, seed=4)
        out = tmp_path / "paths.csv"
        est = pk.simulate_terminal_utility(pol, m, BETA128, fric,
                                           pk.Utility(2.0), cfg,
                                           dump_csv=str(out))
        plain = -1.0 / np.loadtxt(out, delimiter=",", skiprows=1, usecols=3)
        plain_se = plain.std(ddof=1) / math.sqrt(plain.size)
        assert est.std_error < 0.5 * plain_se
        assert abs(est.mean - plain.mean()) <= 3.0 * math.hypot(
            est.std_error, plain_se)


@pytest.mark.parametrize("field,value", [
    ("horizon", float("nan")), ("horizon", float("inf")), ("horizon", 0.0),
    ("x0", float("nan")), ("x0", float("inf")), ("x0", -1.0),
    ("n_paths", 1e6), ("n_paths", 1000.0),
    ("seed", -1), ("seed", 1.5)])
def test_sim_config_names_the_bad_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        pk.SimConfig(**{field: value})


@pytest.mark.parametrize("n_paths,numpy_int", [
    (1, False), (1, True), (0, False)])
def test_path_count_without_a_standard_error_is_refused(n_paths, numpy_int):
    # refused whatever integer type carries the count
    with pytest.raises(ValueError, match="path"):
        pk.SimConfig(n_paths=np.int64(n_paths) if numpy_int else n_paths)


def test_smallest_path_counts_give_a_standard_error():
    m = c2_model()
    fric = pk.DifferentialRates(premium=PREM02)
    pol = pk.Policy(pi=[0.8], kappa=0.5)
    for n in (2, 4):
        est = pk.simulate_terminal_utility(pol, m, BETA128, fric,
                                           pk.Utility(2.0),
                                           pk.SimConfig(n_paths=n, seed=1))
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
PIN_NAMES = ("mean", "SE", "comparison diff mean", "diff SE", "mean A",
             "mean B")
# at 20,000 and 300,000 paths; 20,000 are one block, and 300,000 are two
# whole blocks and a ragged one, so those pins also hold BLOCK, part of
# the stream's definition
MC_PINS = {
    "beta": {
        20_000: (-0.5707141809721675, 0.0008388571048031217,
                 0.05835145037646058, 0.0007906757703985963,
                 -0.5707141809721675, -0.6290656313486281),
        300_000: (-0.5710053579323363, 0.00022186214200411628,
                  0.059042178311834226, 0.00021802418040376277,
                  -0.5710053579323363, -0.6300475362441705),
    },
    "discrete": {
        20_000: (-0.6738796319116661, 0.002514195014373269,
                 0.2616086492636335, 0.006370434228534058,
                 -0.6738796319116661, -0.9354882811752996),
        300_000: (-0.6752003055099222, 0.0006759480342924299,
                  0.26986388129674915, 0.002278657137070157,
                  -0.6752003055099222, -0.9450641868066713),
    },
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
    for n_paths, pins in MC_PINS[law].items():
        cfg = pk.SimConfig(n_paths=n_paths, seed=7)
        est = pk.simulate_terminal_utility(a, m, jumps, fric, u, cfg)
        cmp = pk.compare_policies(a, b, m, jumps, fric, u, cfg)
        got = (est.mean, est.std_error, cmp.diff_mean, cmp.diff_se,
               cmp.mean_a, cmp.mean_b)
        moved = [f"{name}: {pin!r} -> {value!r}"
                 for name, pin, value in zip(PIN_NAMES, pins, got)
                 if value != pin]
        assert got == pins, (f"moved pins at {n_paths} paths:\n"
                             + "\n".join(moved))
        assert cmp.verdict == "A-better"


@pytest.mark.parametrize("law", sorted(PIN_LAWS))
def test_comparison_pairs_the_dumped_conditional_utilities(law, tmp_path):
    # the comparison runs the estimate's paths: mean_a is the estimate's
    # mean to the bit, and the difference and its SE are those of the
    # paths' dumped conditional utilities
    m = pk.MarketModel(mu=[0.08], sigma=[[0.2]], r=0.03, R=0.05, rho=[0.4],
                       b=0.2)
    fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.05))
    u = pk.Utility(3.0)
    a = pk.Policy(pi=[0.6], kappa=0.4)
    b = pk.Policy(pi=[0.5], kappa=0.6)
    jumps = PIN_LAWS[law]
    cfg = pk.SimConfig(n_paths=20_000, seed=7)
    means, utilities = [], []
    for policy, name in ((a, "a.csv"), (b, "b.csv")):
        means.append(pk.simulate_terminal_utility(
            policy, m, jumps, fric, u, cfg, dump_csv=str(tmp_path / name)).mean)
        utilities.append(np.loadtxt(tmp_path / name, delimiter=",",
                                    skiprows=1, usecols=4))
    cmp = pk.compare_policies(a, b, m, jumps, fric, u, cfg)
    assert (cmp.mean_a, cmp.mean_b) == tuple(means)
    assert cmp.mean_a == MC_PINS[law][20_000][0]
    # at 12 significant digits
    diff = utilities[0] - utilities[1]
    assert cmp.diff_mean == pytest.approx(diff.mean(), rel=1e-9)
    assert cmp.diff_se == pytest.approx(diff.std(ddof=1) / math.sqrt(20_000),
                                        rel=1e-6)


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
    # at pi = 128 and eta = 3 the conditional value
    # exp((1 - eta) c + (1 - eta)^2 sd^2 / 2) overflows on every path, and
    # each utility is -inf. Both estimators raise a DomainError, not
    # numpy's overflow warning, and the comparison refuses a mean before it
    # forms the difference (inf - inf where both policies overflow).
    m, fric = c2_model(0.0), pk.DifferentialRates(premium=PREM02)
    u = pk.Utility(eta)
    floored = pk.Policy(pi=[128.0], kappa=0.0)
    # the message names the utility's mean, -inf, not the +inf mean of the
    # kernel's exp((1 - eta) log V_T) before its division by 1 - eta
    msg = r"the Monte Carlo mean of U_eta\(V_T\) is -inf"
    cfg = pk.SimConfig(n_paths=2_000, seed=1)
    with pytest.raises(pk.DomainError, match=msg):
        pk.simulate_terminal_utility(floored, m, BETA128, fric, u, cfg)
    for other in (pk.Policy(pi=[120.0], kappa=0.0),
                  pk.Policy(pi=[1.0], kappa=0.0)):
        for a, b in ((floored, other), (other, floored)):
            with pytest.raises(pk.DomainError, match=msg):
                pk.compare_policies(a, b, m, BETA128, fric, u, cfg)


def test_a_finite_mean_out_of_double_range_once_divided_is_refused():
    # eta = 1e-6 on a riskless path whose exp((1 - eta) log V_T) lies just
    # below the largest double: the value the jumpless paths share is
    # finite, but over 1 - eta = 0.999999, the utility's, it is not
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
    blocks = [(x.size, x0, m0) for x, x0, m0, _ in
              simulate._terminal_utilities(
                  pol, simulate._common_draws(NOJUMPS, cfg), m, NOJUMPS,
                  fric, u, cfg)]
    assert [(size, m0) for size, _, m0 in blocks] == [(0, 1_000)]
    x0 = blocks[0][1]
    with np.errstate(over="ignore"):
        assert math.isfinite(x0) and math.isinf(x0 / (1.0 - u.eta))
    msg = r"the Monte Carlo mean of U_eta\(V_T\) is inf"
    with pytest.raises(pk.DomainError, match=msg):
        pk.simulate_terminal_utility(pol, m, NOJUMPS, fric, u, cfg)
    with pytest.raises(pk.DomainError, match=msg):
        pk.compare_policies(pol, pol, m, NOJUMPS, fric, u, cfg)


# lam T = 30: no path of 2,000 is jumpless (P = e^-30 a path)
EVERY_PATH_JUMPS = pk.JumpLaw(lam=30.0, law=pk.BetaJumps(2.0, 8.0))


@pytest.mark.parametrize("jumped", [False, True])
def test_finite_utilities_whose_sum_overflows_give_their_mean(jumped):
    # at eta = 2 and x0 = exp(-704.6 - drift) each utility is finite, about
    # -1.1e306, and the plain sum of 2,000 overflows: a block of jumped
    # paths takes its mean from x / max|x| and scales it back, and the
    # jumpless paths fold in as one value, so both estimators return the
    # finite mean
    m, fric = c2_model(0.0), pk.DifferentialRates(premium=PREM02)
    u = pk.Utility(2.0)
    low = pk.Policy(pi=[0.0], kappa=0.01)
    jumps = EVERY_PATH_JUMPS if jumped else NOJUMPS
    drift = simulate._policy_coefficients(low, m, jumps, fric)[0]
    cfg = pk.SimConfig(n_paths=2_000, seed=1, x0=math.exp(-704.6 - drift))
    est = pk.simulate_terminal_utility(low, m, jumps, fric, u, cfg)
    assert est.floor_fraction == 1.0        # V_T near 1e-306 on every path
    x = _samples(low, m, jumps, fric, u, cfg)
    with np.errstate(over="ignore"):
        assert np.isinf(x.sum())
    scale = float(np.abs(x).max())
    assert est.mean == pytest.approx(
        math.fsum(x / scale) / x.size * scale, rel=1e-13)
    assert -1.5e306 < est.mean < -0.9e306
    assert math.isfinite(est.std_error) and est.std_error > 0.0
    for other in (pk.Policy(pi=[0.3], kappa=0.01),
                  pk.Policy(pi=[0.6], kappa=0.01)):
        cmp = pk.compare_policies(low, other, m, jumps, fric, u, cfg)
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


def _dump_normals(seed, b, m):
    """The m normals a dump draws for block b: child 0 of the block's
    SeedSequence."""
    return _generator(np.random.SeedSequence(seed).spawn(b + 1)[b]
                      .spawn(1)[0]).standard_normal(m)


def _owners(ranks):
    """The path of each jump of a block, as an offset in the block, built
    rank by rank from its ranks rem_1, rem_2, ...: the k-th jumps of paths
    [0, rem_k) take the next rem_k jump sizes."""
    return np.concatenate([np.arange(r) for r in ranks]).astype(np.int64)


def _joined(blocks, n):
    """The jump sizes and owners of a draw's blocks of n paths joined in
    block order, the owners built from each block's ranks and mapped to the
    index of their path among all n."""
    starts = range(0, n, simulate.BLOCK)
    return (np.concatenate([y for y, _ in blocks]),
            np.concatenate([_owners(ranks) + s for s, (_, ranks) in
                            zip(starts, blocks)]))


def _streamed(policy, blocks, model, jumps, fric, utility, cfg):
    """The kernel's blocks expanded to every path, as one pass over all n
    would give them: each block's jumped values, then its jumpless value
    once a jumpless path, divided by 1 - eta."""
    divisor = simulate._divisor(utility)
    return np.concatenate([
        np.concatenate([x, np.full(m0, x0)]) / divisor
        for x, x0, m0, _ in simulate._terminal_utilities(
            policy, blocks, model, jumps, fric, utility, cfg)])


def _samples(policy, model, jumps, fric, utility, cfg):
    """The estimator's samples on cfg's draw, every path's conditional
    utility, joined over the blocks."""
    return _streamed(policy, simulate._common_draws(jumps, cfg), model,
                     jumps, fric, utility, cfg)


def _jump_sums(policy, jumps, cfg):
    """Each path's sum of log(1 - kappa y), built apart from the kernel and
    rounded as it rounds: the path's jump logs added in the order of the
    draw."""
    y, owner = _joined(simulate._common_draws(jumps, cfg), cfg.n_paths)
    j = np.zeros(cfg.n_paths)
    np.add.at(j, owner, np.log1p(-policy.kappa * y))
    return j


def _log_wealth(policy, model, jumps, fric, cfg):
    """log V_T on the dumped paths of cfg, rounded as the dump rounds it:
    (sd z + (log x0 + drift T)) + J, z the dump's normals."""
    n = cfg.n_paths
    z = np.concatenate([_dump_normals(cfg.seed, b, min(BLOCK, n - s))
                        for b, s in enumerate(range(0, n, BLOCK))])
    drift, var = simulate._policy_coefficients(policy, model, jumps, fric)
    return (math.sqrt(var * cfg.horizon) * z
            + (math.log(cfg.x0) + drift * cfg.horizon)) \
        + _jump_sums(policy, jumps, cfg)


def _conditional_reference(policy, model, jumps, fric, utility, cfg):
    """mc_reference's conditional utilities on the paths of cfg's draw."""
    y, owner = _joined(simulate._common_draws(jumps, cfg), cfg.n_paths)
    return conditional_utilities(policy, y, owner, cfg.n_paths, model, jumps,
                                 fric, utility, cfg)


# pi = 128 at sigma = 0.3 takes most of the law of V_T, not all of it,
# below WEALTH_FLOOR
FLOORED = pk.Policy(pi=[128.0], kappa=0.0)


@pytest.mark.parametrize("jumped", [False, True])
@pytest.mark.parametrize("eta", [0.5, 1.0, 3.0, 30.0])
def test_log_space_utilities_match_the_direct_form(eta, jumped):
    # the kernel's one exp of a (1 - eta) J + ((1 - eta) c +
    # (1 - eta)^2 sd^2 / 2) is within 4 eps (1 + |exponent|) relative of
    # the direct form exp((1 - eta)(c + J) + (1 - eta)^2 sd^2 / 2) /
    # (1 - eta), c + J at eta = 1, taken at 30 digits on the same J; on a
    # law where most paths are jumpless and share one value, and on one
    # where every path jumps
    m, fric = c2_model(), pk.DifferentialRates(premium=PREM02)
    pol = pk.Policy(pi=[2.5], kappa=0.5 if not jumped else 0.05)
    jumps = EVERY_PATH_JUMPS if jumped else BETA128
    cfg = pk.SimConfig(n_paths=2_000, seed=5)
    u = _samples(pol, m, jumps, fric, pk.Utility(eta), cfg)
    assert u.shape == (2_000,)
    j = _jump_sums(pol, jumps, cfg)
    assert (j != 0.0).all() if jumped else (j == 0.0).mean() > 0.8
    drift, var = simulate._policy_coefficients(pol, m, jumps, fric)
    c = math.log(cfg.x0) + drift * cfg.horizon
    a = 1.0 - eta
    with mpmath.workdps(30):
        ref = [mpmath.mpf(c) + mpmath.mpf(ji) if eta == 1.0
               else mpmath.exp(a * (mpmath.mpf(c) + mpmath.mpf(ji))
                               + a * a * mpmath.mpf(var) / 2) / a
               for ji in j]
        err = np.array([float(abs(ui - ri) / abs(ri))
                        for ui, ri in zip(u, ref)])
    exponent = c + j if eta == 1.0 else a * (c + j) + 0.5 * a * a * var
    tol = 4.0 * np.finfo(float).eps * (1.0 + np.abs(exponent))
    assert (err <= tol).all(), float((err / tol).max())


@pytest.mark.parametrize("eta", [0.5, 1.0])
def test_floor_fraction_counts_the_paths_below_the_wealth_floor(eta):
    # floor_fraction is the mean over the paths of P(V_T < 1e-300 | jumps),
    # Phi((LOG_FLOOR - c - J) / sd); the estimate itself is not floored
    m, fric = c2_model(), pk.DifferentialRates(premium=PREM02)
    cfg = pk.SimConfig(n_paths=20_000, seed=3)
    drift, var = simulate._policy_coefficients(FLOORED, m, BETA128, fric)
    g = math.log(cfg.x0) + drift + _jump_sums(FLOORED, BETA128, cfg)
    below = stats.norm.cdf((simulate.LOG_FLOOR - g) / math.sqrt(var))
    assert 0.0 < below.mean() < 1.0
    est = pk.simulate_terminal_utility(FLOORED, m, BETA128, fric,
                                       pk.Utility(eta), cfg)
    assert est.floor_fraction == pytest.approx(below.mean(), rel=1e-12)
    assert est.mean == pytest.approx(_conditional_reference(
        FLOORED, m, BETA128, fric, pk.Utility(eta), cfg).mean(), rel=1e-12)
    assert math.isfinite(est.std_error) and est.std_error > 0.0


@pytest.mark.parametrize("policy,eta,kept", [
    (pk.Policy(pi=[0.8], kappa=0.5), 3.0, False),
    (pk.Policy(pi=[0.8], kappa=0.5), 3.0, True),
    (FLOORED, 0.5, False)])
def test_dump_columns_match_the_direct_form(policy, eta, kept, tmp_path):
    # V_T = exp(log V_T) on the dump's normals, unfloored, and the path's
    # conditional utility, as printed at 12 significant digits; the same
    # on a fresh draw and on one kept from an earlier estimate
    m, fric = c2_model(), pk.DifferentialRates(premium=PREM02)
    cfg = pk.SimConfig(n_paths=2_000, seed=6)
    simulate._last_draw = ()
    if kept:
        pk.simulate_terminal_utility(policy, m, BETA128, fric,
                                     pk.Utility(eta), cfg)
    out = tmp_path / "paths.csv"
    pk.simulate_terminal_utility(policy, m, BETA128, fric, pk.Utility(eta),
                                 cfg, dump_csv=str(out))
    got = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(3, 4))
    v = np.exp(_log_wealth(policy, m, BETA128, fric, cfg))
    u = _conditional_reference(policy, m, BETA128, fric, pk.Utility(eta), cfg)
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
    # a whole block of deviations of 1e307: their root sum of squares is
    # beyond double range, their root mean square is not
    x = np.tile([1e307, -1e307], simulate.BLOCK // 2)
    moments = simulate._Moments(1.0)
    moments.add(x.copy())
    assert moments.std_error == pytest.approx(1e307 / math.sqrt(x.size - 1),
                                              rel=1e-12)


BLOCK = simulate.BLOCK
# path counts below one block, at whole blocks and with a ragged last block
PATH_COUNTS = st.one_of(
    st.integers(2, BLOCK - 1),
    st.integers(1, 3).map(lambda k: k * BLOCK),
    st.tuples(st.integers(1, 3), st.integers(1, BLOCK - 1)).map(
        lambda kr: kr[0] * BLOCK + kr[1]))


def _ranks(counts):
    """The ranks rem_1, rem_2, ..., 0 of a block whose paths have the given
    jump counts, largest first: rem_k paths have at least k jumps."""
    return np.array([np.count_nonzero(counts >= k)
                     for k in range(1, counts.max(initial=0) + 2)],
                    dtype=np.int64)


def _kernel_inputs(seed, n, jumps_on, lam_t):
    """The blocks of a draw of n paths laid out as _common_draws lays them,
    with Beta(2, 8) sizes: Poisson(lam_t) jumps on each path, none, or 1 to
    30 jumps all on the first path of the first or the last block."""
    rng = np.random.default_rng(seed)
    sizes = np.diff(np.append(np.arange(0, n, BLOCK), n))
    if jumps_on == "spread":
        ranks = [_ranks(rng.poisson(lam_t, size=m)) for m in sizes]
    else:
        total = 0 if jumps_on == "none" else int(rng.integers(1, 31))
        ranks = [np.zeros(1, dtype=np.int64) for _ in sizes]
        ranks[0 if jumps_on == "first" else -1] = _ranks(np.array([total]))
    counts = [int(r.sum()) for r in ranks]
    y = rng.beta(2.0, 8.0, size=sum(counts))
    return tuple(zip(np.split(y, np.cumsum(counts)[:-1]), ranks))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(n=PATH_COUNTS,
       jumps_on=st.sampled_from(["spread", "none", "first", "last"]),
       lam_t=st.sampled_from([0.05, 0.5, 2.0]),
       pi=st.sampled_from([0.0, 0.8, -3.0, 128.0]),
       kappa=st.sampled_from([0.0, 0.4, 1.0]),
       eta=st.sampled_from([0.5, 1.0, 3.0, 30.0]),
       x0=st.sampled_from([1.0, 2.5]), horizon=st.sampled_from([1.0, 0.25]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=2 * BLOCK, jumps_on="last", lam_t=0.5, pi=128.0, kappa=1.0,
         eta=1.0, x0=1.0, horizon=1.0, seed=1)
@example(n=BLOCK + 7, jumps_on="first", lam_t=0.5, pi=0.8, kappa=0.4,
         eta=0.5, x0=2.5, horizon=1.0, seed=2)
@example(n=100, jumps_on="none", lam_t=0.5, pi=-3.0, kappa=0.0, eta=3.0,
         x0=1.0, horizon=0.25, seed=3)
def test_blocked_kernel_is_the_unblocked_kernel_bit_for_bit(
        n, jumps_on, lam_t, pi, kappa, eta, x0, horizon, seed):
    # pi = 128 takes the conditional value out of double range beyond eta
    # of about 1: both kernels give the same infinities
    blocks = _kernel_inputs(seed, n, jumps_on, lam_t)
    policy, fric = pk.Policy(pi=[pi], kappa=kappa), \
        pk.DifferentialRates(premium=PREM02)
    cfg = pk.SimConfig(horizon=horizon, x0=x0, n_paths=n)
    u = _streamed(policy, blocks, c2_model(), BETA128, fric, pk.Utility(eta),
                  cfg)
    ref = conditional_utilities(policy, *_joined(blocks, n), n, c2_model(),
                                BETA128, fric, pk.Utility(eta), cfg)
    assert u.shape == ref.shape and u.tobytes() == ref.tobytes()


def test_a_path_just_below_the_floor_is_floored_in_its_block():
    # one path of the second block, with 20 jumps of 0.99 at kappa = 0.5,
    # sits about 3.7 below LOG_FLOOR, 18 sd; every other path sits 10 above
    # it, 50 sd. The block's least jump-log sum, not a far tail, decides
    # whether the block's paths are weighed: floor_fraction is 1 / n
    pol = pk.Policy(pi=[0.0], kappa=0.5)
    m, fric = c2_model(), pk.DifferentialRates(premium=PREM02)
    drift, var = simulate._policy_coefficients(pol, m, BETA128, fric)
    assert math.sqrt(var) == pytest.approx(0.2)
    n = BLOCK + 3
    cfg = pk.SimConfig(n_paths=n, seed=9,
                       x0=math.exp(simulate.LOG_FLOOR + 10.0 - drift))
    jumpless = (np.empty(0), np.zeros(1, dtype=np.int64))
    jumped = (np.full(20, 0.99), np.array([1] * 20 + [0], dtype=np.int64))
    simulate._last_draw = ((cfg.seed, n, cfg.horizon), BETA128,
                           (jumpless, jumped))
    est = pk.simulate_terminal_utility(pol, m, BETA128, fric,
                                       pk.Utility(0.5), cfg)
    assert est.floor_fraction == 1.0 / n
    simulate._last_draw = ()


def test_blocked_kernel_refuses_a_full_loss_in_the_last_block():
    blocks = _kernel_inputs(4, 2 * BLOCK + 5, "spread", 0.5)
    y = blocks[-1][0]
    assert y.size > 0                 # the last block has a jump
    y[-1] = 1.0
    kernel = simulate._terminal_utilities(
        pk.Policy(pi=[0.6], kappa=1.0), blocks, c2_model(),
        BETA128, pk.DifferentialRates(premium=PREM02), pk.Utility(3.0),
        pk.SimConfig(n_paths=2 * BLOCK + 5))
    for _ in range(2):
        next(kernel)
    with pytest.raises(pk.DomainError, match="sampled 1 - kappa Y <= 0"):
        next(kernel)


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
    """Every estimate one config gives: the estimate and a paired
    comparison."""
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
    # another path count on the same seed: drawn again
    "n 40000 7": (BETA128, pk.SimConfig(n_paths=40_000, seed=7)),
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
        order = ["seed 7", "seed 8", "seed 7", "seed 7", "n 40000 7",
                 "seed 7", "n 40000 7", "equal law 7", "seed 7",
                 "discrete 7", "horizon 2", "x0 2", "seed 7", "x0 2",
                 "seed 8"]
        simulate._last_draw = ()
        for name in order:
            assert _run(*MEMO_CASES[name]) == fresh[name], name

    def test_kept_draw_is_read_only_and_reused(self):
        # three blocks: every block's jump sizes and ranks
        cfg = pk.SimConfig(n_paths=2 * BLOCK + 1_000, seed=3)
        first, again = (_arrays(simulate._common_draws(BETA128, cfg))
                        for _ in range(2))
        assert len(first) == 6
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

    @pytest.mark.parametrize("kept", [False, True])
    def test_dump_counts_match_the_poisson_draws(self, kept, tmp_path):
        # a block's substream opens with its ranks: rem_k, the number of its
        # m paths with at least k jumps, is Binomial(rem_{k - 1}, q_k) from
        # rem_0 = m, until rem_k = 0; path i has #{k: rem_k > i} jumps (one
        # block here, n < BLOCK), on a fresh draw and on a kept one
        jumps = pk.JumpLaw(lam=2.0, law=pk.BetaJumps(2.0, 8.0))
        cfg = pk.SimConfig(n_paths=400, seed=11)
        rng, rem = _block_stream(11, 0), 400
        counts = np.zeros(400, dtype=np.int64)
        for q in simulate._rank_probabilities(2.0):
            rem = rng.binomial(rem, q)
            counts[:rem] += 1
            if not rem:
                break
        simulate._last_draw = ()
        if kept:
            _run(jumps, cfg)          # the dump below reuses this draw
        out = tmp_path / "paths.csv"
        pk.simulate_terminal_utility(pk.Policy(pi=[0.6], kappa=0.4),
                                     c2_model(), jumps,
                                     pk.DifferentialRates(premium=PREM02),
                                     pk.Utility(3.0), cfg, dump_csv=str(out))
        n_t = [int(line.split(",")[1])
               for line in out.read_text().splitlines()[1:]]
        assert n_t == counts.tolist()
        assert counts.sum() > 0


def _arrays(blocks):
    """Every array of a draw: each block's y and ranks."""
    return [a for block in blocks for a in block]


class _CountedThread(threading.Thread):
    """threading.Thread that counts the threads started through it."""
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


class TestParallelDraw:
    """The blocks of a draw are filled on threads; their bits depend on the
    seed, n, T and the law, not on the number of threads."""

    # three whole blocks and a ragged one of 3,392 paths: more blocks than
    # threads at 2 and 3 workers, fewer at 8
    N_PATHS = 3 * BLOCK + 3_392
    BLOCKS = -(-N_PATHS // BLOCK)

    def _gate_helpers(self, monkeypatch, helpers):
        """Make each helper thread's first block of a draw wait until the
        draw's helpers are all running: the pool reuses a helper thread
        that has finished, so without the wait how many threads start
        would depend on timing. Returns the call that opens a new draw.
        The gate calls the jumps module's own _draw_y, so a later gate
        replaces an earlier one rather than wrapping it."""
        caller, gate = threading.current_thread(), {}

        def gated(rng, law, out):
            here = threading.current_thread()
            if here is not caller and here not in gate["seen"]:
                gate["seen"].add(here)
                # a broken barrier (too few helpers) fails the draw
                gate["barrier"].wait(timeout=10.0)
            return _draw_y(rng, law, out)

        def new_draw():
            gate.update(seen=set(), barrier=threading.Barrier(helpers))

        monkeypatch.setattr(simulate, "_draw_y", gated)
        return new_draw

    def _outputs(self, monkeypatch, tmp_path, workers):
        monkeypatch.setattr(simulate, "_workers", lambda: workers)
        helpers = min(workers, self.BLOCKS) - 1
        new_draw = (self._gate_helpers(monkeypatch, helpers) if helpers
                    else lambda: None)
        monkeypatch.setattr(_CountedThread, "started", 0)
        monkeypatch.setattr(threading, "Thread", _CountedThread)
        jumps = pk.JumpLaw(lam=0.5, law=pk.BetaJumps(2.0, 8.0))
        m, fric, u = c2_model(), pk.DifferentialRates(premium=PREM02), \
            pk.Utility(3.0)
        a, b = pk.Policy(pi=[0.6], kappa=0.4), pk.Policy(pi=[0.5], kappa=0.6)
        out = {}
        for seed in (5, 6):
            cfg = pk.SimConfig(n_paths=self.N_PATHS, seed=seed)
            simulate._last_draw = ()
            new_draw()
            out["draw", seed] = [
                x.tobytes() for x in _arrays(simulate._common_draws(jumps,
                                                                    cfg))]
            dump = tmp_path / f"{workers}.csv" if seed == 5 else None
            out["estimate", seed] = pk.simulate_terminal_utility(
                a, m, jumps, fric, u, cfg, dump_csv=dump and str(dump))
            out["comparison", seed] = pk.compare_policies(
                a, b, m, jumps, fric, u, cfg)
        out["dump"] = (tmp_path / f"{workers}.csv").read_bytes()
        return out, _CountedThread.started

    def test_bits_do_not_depend_on_the_worker_count(self, monkeypatch,
                                                    tmp_path):
        serial, started = self._outputs(monkeypatch, tmp_path, 1)
        assert started == 0
        for workers in (2, 3, 8):
            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)   # interleave the fills finely
            try:
                got, started = self._outputs(monkeypatch, tmp_path, workers)
            finally:
                sys.setswitchinterval(old)
            # two draws, min(workers, blocks) - 1 helper threads each: one
            # a worker while there are more blocks than workers, and at 8
            # workers one for each block but the caller's
            assert started == 2 * (min(workers, self.BLOCKS) - 1)
            assert got.keys() == serial.keys()
            for key in serial:
                assert got[key] == serial[key], (workers, key)

    def test_a_one_block_draw_starts_no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-block draw started a thread")

        monkeypatch.setattr(simulate, "_workers", lambda: 4)
        monkeypatch.setattr(threading, "Thread", refuse)
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
            simulate._common_draws(
                BETA128, pk.SimConfig(n_paths=self.N_PATHS, seed=5))
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
    y = _joined(simulate._common_draws(jumps, cfg), cfg.n_paths)[0]
    assert n_t.sum() == y.size
    stat, p = _poisson_chi2(n_t, lam_t)
    assert p > 1e-3, (stat, p)


def test_draw_is_blocked_and_each_path_count_is_poisson():
    # six whole blocks and a ragged last one of 3,392 paths. Block b is
    # child b of the seed's SeedSequence: its ranks (sequential binomials)
    # and then its jump sizes replay from that substream alone, and the
    # per-path counts of the whole draw follow Poisson(lam T)
    jumps = pk.JumpLaw(lam=0.5, law=pk.BetaJumps(2.0, 8.0))
    sizes = [BLOCK] * 6 + [3_392]
    cfg = pk.SimConfig(n_paths=sum(sizes), seed=41)
    blocks = simulate._common_draws(jumps, cfg)
    assert len(blocks) == len(sizes)
    q = simulate._rank_probabilities(0.5)
    for b, (size, (y, ranks)) in enumerate(zip(sizes, blocks)):
        rng = _block_stream(41, b)
        replayed = [rng.binomial(size, q[0])]
        for qk in q[1:]:
            if not replayed[-1]:
                break
            replayed.append(rng.binomial(replayed[-1], qk))
        assert ranks.tolist() == replayed and replayed[-1] == 0
        assert y.size == sum(replayed) > 0
        g1 = rng.standard_gamma(2.0, size=y.size)
        g2 = rng.standard_gamma(8.0, size=y.size)
        assert y.tobytes() == (g1 / (g2 + g1)).tobytes()
    counts = np.bincount(_joined(blocks, cfg.n_paths)[1],
                         minlength=cfg.n_paths)
    stat, p = _poisson_chi2(counts, 0.5)
    assert p > 1e-3, (stat, p)


@pytest.mark.parametrize("lam_t", [1e-12, 1e-3, 0.5, 30.0, 800.0])
def test_rank_probabilities_are_ratios_of_poisson_tails(lam_t):
    # q_k = P(N >= k) / P(N >= k - 1), N ~ Poisson(lam T): against the
    # ratios of scipy's survival function wherever both tails are normal
    # doubles, and against 40-digit mpmath at a few ranks. At lam T = 800,
    # exp(-lam T) underflows and q_1 rounds to 1. The table stops at a K
    # where P(N > K) < 1e-300 and closes with q_{K + 1} = 0.
    q = np.array(simulate._rank_probabilities(lam_t))
    K = q.size - 1
    assert q[K] == 0.0 and (q[:K] > 0.0).all() and (q <= 1.0).all()
    k = np.arange(1, K + 1)
    tail = stats.poisson.sf(k - 1, lam_t)             # P(N >= k)
    normal = tail >= np.finfo(float).tiny
    ratio = tail[normal] / stats.poisson.sf(k[normal] - 2, lam_t)
    np.testing.assert_allclose(q[:K][normal], ratio, rtol=1e-11, atol=0.0)
    if lam_t == 800.0:
        assert math.exp(-lam_t) == 0.0 and q[0] == 1.0
    with mpmath.workdps(40):
        def at_least(j):
            return mpmath.gammainc(j, 0, lam_t, regularized=True) if j \
                else mpmath.mpf(1)
        assert at_least(K + 1) < mpmath.mpf("1e-300")
        for j in sorted({1, 2, 5, int(lam_t) + 1, int(lam_t) + 20}):
            exact = at_least(j) / at_least(j - 1)
            assert abs(q[j - 1] - exact) <= 1e-15 * exact, j


def test_no_jump_rate_draws_no_jump():
    # lam = 0: every q_k is 0, so each block's ranks are [0] and it holds
    # no jump size
    assert set(simulate._rank_probabilities(0.0)) == {0.0}
    blocks = simulate._common_draws(NOJUMPS,
                                    pk.SimConfig(n_paths=BLOCK + 7, seed=2))
    assert len(blocks) == 2
    for y, ranks in blocks:
        assert ranks.tolist() == [0] and y.size == 0


def test_ranks_at_thirty_jumps_a_path_run_down_to_zero(tmp_path):
    # lam T = 30: every path jumps, the ranks fall from m to 0 with every
    # earlier rem positive, the sizes are exactly their sum, and the dumped
    # per-path counts follow Poisson(30)
    jumps = pk.JumpLaw(lam=30.0, law=pk.BetaJumps(2.0, 8.0))
    cfg = pk.SimConfig(n_paths=BLOCK + 3_000, seed=13)
    blocks = simulate._common_draws(jumps, cfg)
    for m, (y, ranks) in zip((BLOCK, 3_000), blocks):
        assert ranks[0] == m and ranks[-1] == 0 and (ranks[:-1] > 0).all()
        assert (np.diff(ranks) <= 0).all() and y.size == ranks.sum()
    out = tmp_path / "paths.csv"
    pk.simulate_terminal_utility(pk.Policy(pi=[0.6], kappa=0.01), c2_model(),
                                 jumps, pk.DifferentialRates(premium=PREM02),
                                 pk.Utility(3.0), cfg, dump_csv=str(out))
    n_t = np.loadtxt(out, delimiter=",", skiprows=1, usecols=1, dtype=int)
    assert n_t.sum() == sum(y.size for y, _ in blocks)
    stat, p = _poisson_chi2(n_t, 30.0)
    assert p > 1e-3, (stat, p)


@pytest.mark.parametrize("jumped", [False, True])
@pytest.mark.parametrize("eta", [0.5, 1.0, 3.0])
def test_streamed_moments_match_a_two_pass_fsum(eta, jumped):
    # the running mean and deviation merged over the blocks (the last one
    # ragged), each its jumped paths and then its jumpless ones as one
    # value, agree with an exactly rounded two-pass reference on the same
    # samples, for the estimate and the paired difference; on a law where
    # most paths are jumpless (four blocks) and on one where every path
    # jumps, some 30 jumps a path. The latter draws two blocks, a whole one
    # and 123 paths (3.9M jumps, 31 MB), to bound the test's memory; the
    # merge over many blocks, each with jumped and jumpless paths, is the
    # four-block case's. The estimators divide by 1 - eta once, a positive
    # divisor at eta = 0.5, none at 1 and a negative one at 3
    m, fric, u = c2_model(), pk.DifferentialRates(premium=PREM02), \
        pk.Utility(eta)
    a, b = pk.Policy(pi=[0.8], kappa=0.5), pk.Policy(pi=[0.5], kappa=0.7)
    cfg = pk.SimConfig(n_paths=(1 if jumped else 3) * BLOCK + 123, seed=17)
    jumps = EVERY_PATH_JUMPS if jumped else BETA128

    def two_pass(x):
        mean = math.fsum(x) / x.size
        ss = math.fsum((x - mean) ** 2)
        return mean, math.sqrt(ss / (x.size - 1)) / math.sqrt(x.size)

    xa = _samples(a, m, jumps, fric, u, cfg)
    xb = _samples(b, m, jumps, fric, u, cfg)
    est = pk.simulate_terminal_utility(a, m, jumps, fric, u, cfg)
    cmp = pk.compare_policies(a, b, m, jumps, fric, u, cfg)
    for got, x in (((est.mean, est.std_error), xa),
                   ((cmp.diff_mean, cmp.diff_se), xa - xb)):
        assert got == pytest.approx(two_pass(x), rel=1e-13, abs=0.0)
    assert cmp.mean_a == est.mean
    assert cmp.mean_b == pytest.approx(two_pass(xb)[0], rel=1e-13, abs=0.0)


def test_dump_draws_its_normals_apart_from_the_jumps(tmp_path):
    # rows go out a block at a time, in path order; G is sd times normals
    # from child 0 of each block's SeedSequence, so a dump leaves the draw,
    # and every estimate on it, as they are without one
    n = BLOCK + 5
    cfg = pk.SimConfig(n_paths=n, seed=2)
    pol = pk.Policy(pi=[0.6], kappa=0.4)            # _run's policy A
    args = (c2_model(), BETA128, pk.DifferentialRates(premium=PREM02),
            pk.Utility(3.0), cfg)
    plain = _fresh(BETA128, cfg)
    draw = [a.tobytes() for a in _arrays(simulate._common_draws(BETA128,
                                                                cfg))]
    out = tmp_path / "paths.csv"
    simulate._last_draw = ()
    dumped = pk.simulate_terminal_utility(pol, *args, dump_csv=str(out))
    assert [a.tobytes() for a in _arrays(simulate._common_draws(
        BETA128, cfg))] == draw
    assert dumped == plain[0] and _run(BETA128, cfg) == plain
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows[:, 0].astype(int).tolist() == list(range(n))
    sd = math.sqrt(simulate._policy_coefficients(pol, *args[:3])[1])
    z = np.concatenate([_dump_normals(2, 0, BLOCK), _dump_normals(2, 1, 5)])
    np.testing.assert_allclose(rows[:, 2], sd * z, rtol=1e-11, atol=0.0)


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
