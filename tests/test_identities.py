"""Cross-kernel identities: the paper's frictions nest, so one friction at a
degenerate parameter must solve like another. Each property bounds its
deviation by the step tolerance of the root that produced the numbers
(KAPPA_XTOL for kappa, the allocation root's xtol for the portfolio
premium's pi), carried to pi and the shadow value through their slopes in
kappa, and checks the case labels that the identity maps."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pikappa as pk
from pikappa.models import law_mean
from pikappa.solvers import CORNER_TIE, KAPPA_XTOL, _DiffRatesKernel

# the allocation root's step: 1e-12 relative to the bracket's widening
# max(1, |x0|), where x0 is the frictionless allocation
ALLOC_XTOL = 1e-12
# corner tag of a label's roman numeral; case iii names no tag
_TAG = {"i": "interior", "ii": "interior", "iii": None,
        "iv": "lo", "v": "lo", "vi": "hi", "vii": "hi"}


def _log_floats(lo, hi):
    return st.floats(np.log(lo), np.log(hi)).map(np.exp).map(float)


laws = st.one_of(
    st.builds(pk.BetaJumps, alpha=st.floats(0.5, 12.0),
              beta=st.floats(1.5, 20.0)),
    st.builds(lambda p, w: pk.DiscreteJumps([p, 0.5 * (1.0 + p)],
                                            [w, 1.0 - w]),
              st.floats(0.01, 0.9), st.floats(0.0, 1.0)))
premia = st.builds(pk.PowerPremium, q=st.floats(0.0, 0.4),
                   delta=st.sampled_from([1.0, 1.5, 2.0]))
etas = _log_floats(0.3, 20.0)


@st.composite
def d1_inputs(draw, min_lam=0.0):
    """A d = 1 model of the survey box and a jump law."""
    r = draw(st.floats(0.0, 0.06))
    model = pk.MarketModel(
        mu=[r + draw(st.floats(-0.05, 0.2))],
        sigma=[[draw(st.floats(0.05, 0.6))]], r=r,
        R=r + draw(st.floats(0.0, 0.08)), rho=[draw(st.floats(-0.95, 0.95))],
        b=draw(st.floats(0.0, 1.0)))
    jumps = pk.JumpLaw(lam=draw(st.floats(min_lam, 0.6)), law=draw(laws))
    return model, jumps


@st.composite
def d2_inputs(draw):
    """A d = 2 model with correlated assets and |rho|_2 <= 0.95."""
    r = draw(st.floats(0.0, 0.06))
    s1, s2 = draw(st.floats(0.05, 0.6)), draw(st.floats(0.05, 0.6))
    s = draw(st.floats(-0.8, 0.8))
    angle, norm = draw(st.floats(0.0, 2 * np.pi)), draw(st.floats(0.0, 0.95))
    model = pk.MarketModel(
        mu=[r + draw(st.floats(-0.05, 0.2)), r + draw(st.floats(-0.05, 0.2))],
        sigma=[[s1, 0.0], [s2 * s, s2 * np.sqrt(1.0 - s * s)]], r=r,
        R=r + draw(st.floats(0.0, 0.08)),
        rho=[norm * np.cos(angle), norm * np.sin(angle)],
        b=draw(st.floats(0.0, 1.0)))
    jumps = pk.JumpLaw(lam=draw(st.floats(0.0, 0.6)), law=draw(laws))
    return model, jumps


def _kappa_slopes(model, jumps, premium, eta):
    """Bounds on |dpi/dkappa| (largest entry) and |dxi/dkappa| of the
    shadow kernel, over both the clipped cases (dpi = hedge) and case iii
    (xi on the hyperplane)."""
    kern = _DiffRatesKernel(model, jumps, premium)
    dxi = abs(eta * kern.bB_one / kern.sinv_one)
    s_inv_one = np.linalg.solve(kern.SST, kern.ones)
    dpi = float(np.abs(kern.hedge_dir).max()
                + np.abs(s_inv_one).max() * dxi / eta)
    return dpi, dxi


def _assert_same_solve(rep, ref, dpi, order=slice(None)):
    """rep matches ref, its assets taken in the given order, within the
    kappa step and its move of pi."""
    assert abs(rep.policy.kappa - ref.policy.kappa) <= KAPPA_XTOL
    assert np.abs(rep.policy.pi - ref.policy.pi[order]).max() \
        <= KAPPA_XTOL * (1.0 + dpi)
    assert abs(rep.objective.value - ref.objective.value) <= KAPPA_XTOL


@settings(max_examples=40, derandomize=True, deadline=None)
@given(inputs=d1_inputs(), premium=premia, eta=etas)
def test_diff_rates_at_equal_rates_is_frictionless(inputs, premium, eta):
    model, jumps = inputs
    model = replace(model, R=model.r)
    util = pk.Utility(eta)
    rates = pk.solve(model, jumps, pk.DifferentialRates(premium), util)
    ref = pk.solve(model, jumps, pk.Frictionless(premium), util)
    assert rates.case_label == ref.case_label.replace("Frictionless",
                                                      "DiffRates")
    assert rates.xi_star == ref.xi_star == model.r
    _assert_same_solve(rates, ref,
                       _kappa_slopes(model, jumps, premium, eta)[0])


@settings(max_examples=40, derandomize=True, deadline=None)
@given(inputs=d1_inputs(), premium=premia, eta=etas)
def test_large_investor_without_pressure_is_frictionless(inputs, premium,
                                                         eta):
    # the tag (interior or a kappa corner) carries over; the large
    # investor's family is the side of pi = 0 it holds, i long, ii short
    model, jumps = inputs
    util = pk.Utility(eta)
    large = pk.solve(model, jumps, pk.LargeInvestor(premium, 0.0, 0.0), util)
    ref = pk.solve(model, jumps, pk.Frictionless(premium), util)
    numeral = large.case_label.split("-")[1]
    tags = {_TAG[numeral], _TAG[ref.case_label.split("-")[1]]} - {None}
    assert len(tags) <= 1
    pi = float(ref.policy.pi[0])
    if numeral in ("i", "iv", "vi"):
        assert pi >= 0.0
    elif numeral in ("ii", "v", "vii"):
        assert pi <= 0.0
    else:
        assert large.policy.pi[0] == 0.0 and abs(pi) <= KAPPA_XTOL
    assert large.xi_star == 0.0
    _assert_same_solve(large, ref,
                       _kappa_slopes(model, jumps, premium, eta)[0])


@settings(max_examples=40, derandomize=True, deadline=None)
@given(inputs=d1_inputs(), premium=premia, eta=etas,
       shift=st.floats(-0.02, 0.05))
def test_diff_rates_is_unchanged_by_a_common_rate_shift(inputs, premium, eta,
                                                        shift):
    # mu, r and R enter only as excess returns over r and as the spread,
    # so the policy and the label stay and xi_star moves with the rates;
    # the objective is f + H, which holds excess returns only
    model, jumps = inputs
    util, friction = pk.Utility(eta), pk.DifferentialRates(premium)
    ref = pk.solve(model, jumps, friction, util)
    moved = replace(model, mu=model.mu + shift, r=model.r + shift,
                    R=model.R + shift)
    rep = pk.solve(moved, jumps, friction, util)
    assert rep.case_label == ref.case_label
    dpi, dxi = _kappa_slopes(model, jumps, premium, eta)
    assert abs((rep.xi_star - moved.r) - (ref.xi_star - model.r)) \
        <= KAPPA_XTOL * (1.0 + dxi)
    _assert_same_solve(rep, ref, dpi)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(inputs=d2_inputs(), premium=premia, eta=etas)
def test_swapping_two_assets_permutes_pi(inputs, premium, eta):
    # the assets are the rows of mu and sigma; the Brownian drivers, and so
    # rho, stay where they are
    model, jumps = inputs
    util, friction = pk.Utility(eta), pk.DifferentialRates(premium)
    ref = pk.solve(model, jumps, friction, util)
    swapped = replace(model, mu=model.mu[::-1], sigma=model.sigma[::-1])
    rep = pk.solve(swapped, jumps, friction, util)
    assert rep.case_label == ref.case_label
    dpi, dxi = _kappa_slopes(model, jumps, premium, eta)
    assert abs(rep.xi_star - ref.xi_star) <= KAPPA_XTOL * (1.0 + dxi)
    _assert_same_solve(rep, ref, dpi, order=[1, 0])


@settings(max_examples=50, derandomize=True, deadline=None)
@given(inputs=d1_inputs(min_lam=0.01), eta=etas, a=_log_floats(1e-3, 10.0))
def test_flat_portfolio_premium_is_frictionless(inputs, eta, a):
    # C = 0 makes q the fair rate lambda E[Y] at every pi: the linear
    # premium of that rate. The portfolio premium solves interior optima
    # only and raises NoInteriorSolution where the frictionless kappa sits
    # on a corner
    model, jumps = inputs
    util = pk.Utility(eta)
    ref = pk.solve(model, jumps, pk.Frictionless(pk.LinearPremium(
        jumps.lam * law_mean(jumps.law))), util)
    friction = pk.PortfolioPremium(C=0.0, A=a)
    if not 0.0 < ref.policy.kappa < 1.0:
        with pytest.raises(pk.NoInteriorSolution):
            pk.solve(model, jumps, friction, util)
        return
    rep = pk.solve(model, jumps, friction, util)
    assert rep.case_label == "PortfolioPremium-interior"
    assert _TAG[ref.case_label.split("-")[1]] in ("interior", None)
    _, sig, rho = model.d1()
    pi = float(ref.policy.pi[0])
    assert abs(rep.policy.kappa - ref.policy.kappa) <= KAPPA_XTOL
    assert abs(float(rep.policy.pi[0]) - pi) <= \
        ALLOC_XTOL * max(1.0, abs(pi)) + abs(rho * model.b / sig) * KAPPA_XTOL
    assert abs(rep.objective.value - ref.objective.value) <= KAPPA_XTOL


@settings(max_examples=50, derandomize=True, deadline=None)
@given(inputs=d1_inputs(), premium=premia, eta=etas,
       c=_log_floats(1e-10, 1e-4))
def test_smooth_g_tends_to_frictionless_at_rate_c(inputs, premium, eta, c):
    # at a fixed kappa g = -c pi^2 scales the frictionless allocation
    # pi_0(kappa) by 1 / (1 + e), e = 2c / (eta sigma^2); the kappa
    # condition moves by eta b sigma rho times that change and falls at
    # least at eta b^2 (1 - rho^2), and the optimal values are sandwiched
    # by c pi^2 at either optimum; pi keeps the allocation step as slack,
    # so the bound holds for a bisected allocation too
    model, jumps = inputs
    util = pk.Utility(eta)
    rep = pk.solve(model, jumps, pk.SmoothG(premium, c), util)
    ref = pk.solve(model, jumps, pk.Frictionless(premium), util)
    mu, sig, rho = model.d1()
    b, r = model.b, model.r
    e = 2.0 * c / (eta * sig * sig)

    def pi_0(k):
        return (mu - r + eta * sig * rho * b * k) / (eta * sig * sig)
    dh = eta * b * sig * abs(rho) * max(abs(pi_0(0.0)), abs(pi_0(1.0))) \
        * e / (1.0 + e)
    fall = eta * b * b * (1.0 - rho * rho)
    dk = KAPPA_XTOL + ((dh + 2.0 * CORNER_TIE) / fall if b > 0.0 else 0.0)
    k_c, k_0 = rep.policy.kappa, ref.policy.kappa
    assert abs(k_c - k_0) <= dk
    if dk < min(k_0, 1.0 - k_0):
        assert rep.case_label == "SmoothG-1"
    pi_c, pi_r = float(rep.policy.pi[0]), float(ref.policy.pi[0])
    assert abs(pi_c - pi_r) <= abs(pi_0(k_c)) * e / (1.0 + e) \
        + abs(rho * b / sig) * abs(k_c - k_0) \
        + ALLOC_XTOL * max(1.0, abs(pi_0(k_c)))
    gap = ref.objective.value - rep.objective.value
    assert c * pi_c * pi_c - KAPPA_XTOL <= gap <= c * pi_r * pi_r + KAPPA_XTOL
