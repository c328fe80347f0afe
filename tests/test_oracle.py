"""Grid-oracle and sweep-engine tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pikappa as pk
from pikappa import oracle
from pikappa.cli import resolve_model_path
from pikappa.oracle import (_auto_pi_bounds, _eval_grid, _grid_argmax,
                            _point_value, _row_argmax, sweep_csv)

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

    def test_tie_takes_the_smallest_kappa(self):
        # b = 0, lambda = 0 and q = 0: f + H does not depend on kappa, so
        # every kappa of a row ties and the first grid point in C order wins
        m = pk.MarketModel(mu=[0.10], sigma=[[0.25]], r=0.02, R=0.02,
                           rho=[0.0], b=0.0)
        jumps = pk.JumpLaw(lam=0.0, law=pk.BetaJumps(2.0, 8.0))
        fric = pk.Frictionless(premium=pk.LinearPremium(q=0.0))
        pol, _, _ = pk.grid_maximize(m, jumps, fric, pk.Utility(2.0))
        assert pol.kappa == 0.0

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


def _hull_cases():
    """Seeded inputs over the regimes, laws, premiums and utility edges the
    hull query must treat as the brute-force grid does."""
    rng = np.random.default_rng(20261018)

    def market(d=1, frictionless=False):
        r = rng.uniform(0.0, 0.05)
        if d == 1:
            sigma = [[rng.uniform(0.15, 0.45)]]
            rho = [rng.uniform(-0.9, 0.9)]
        else:
            s1, s2 = rng.uniform(0.15, 0.45, size=2)
            c = rng.uniform(-0.7, 0.7)
            sigma = [[s1, 0.0], [s2 * c, s2 * np.sqrt(1.0 - c * c)]]
            rho = rng.uniform(-0.6, 0.6, size=2)
        return pk.MarketModel(mu=r + rng.uniform(0.0, 0.15, size=d),
                              sigma=sigma, r=r,
                              R=r if frictionless else
                              r + rng.uniform(0.0, 0.08),
                              rho=rho, b=rng.uniform(0.05, 0.8))

    beta28 = pk.JumpLaw(lam=0.3, law=pk.BetaJumps(2.0, 8.0))
    discrete = pk.JumpLaw(lam=0.4, law=pk.DiscreteJumps(
        points=[0.1, 0.35, 0.8], weights=[0.5, 0.3, 0.2]))
    linear = pk.LinearPremium(q=rng.uniform(0.05, 0.5))
    power = pk.PowerPremium(q=rng.uniform(0.05, 0.5), delta=2.5)
    # p = 0.2 (1 - kappa)^3; the "tabulated" cases once took this schedule
    # as a black-box premium and keep their names
    tabulated = pk.PowerPremium(q=0.2, delta=3.0)
    smooth_g = pk.SmoothG(premium=power, c=rng.uniform(0.01, 0.4))
    # the section-5 example, whose retention is interior
    beta128 = pk.JumpLaw(lam=0.15, law=pk.BetaJumps(12.0, 8.0))
    pp = pk.PortfolioPremium(C=0.25, A=0.5)
    return {
        "rates-beta-linear": (market(), beta28,
                              pk.DifferentialRates(linear), 3.0),
        "frictionless-discrete-power": (market(frictionless=True), discrete,
                                        pk.Frictionless(power), 2.0),
        "large-investor-beta-tabulated": (
            market(), beta28, pk.LargeInvestor(tabulated, -0.02, 0.03), 0.7),
        "smooth-g-discrete-log": (market(), discrete, smooth_g, 1.0),
        "portfolio-premium-beta": (c2_model(0.3), beta128, pp, 4.0),
        "rates-beta-log": (market(), beta28,
                           pk.DifferentialRates(tabulated), 1.0),
        # eta >= beta + 1: f + H is -inf at kappa = 1
        "divergent-kappa-one": (market(), beta28,
                                pk.DifferentialRates(linear), 9.5),
        # a huge eta: the jump term overflows to -inf on a run of kappas
        "divergent-run-of-kappas": (market(), beta28,
                                    pk.DifferentialRates(linear), 400.0),
        "rates-two-assets": (market(2), beta28,
                             pk.DifferentialRates(power), 2.5),
        "frictionless-two-assets": (market(2, frictionless=True), discrete,
                                    pk.Frictionless(linear), 1.5),
    }


HULL_CASES = _hull_cases()


@pytest.mark.parametrize("case", sorted(HULL_CASES))
def test_hull_argmax_is_the_brute_force_argmax(case):
    # the full box, then a 10x zoom around its winner as the oracle's next
    # round would take: index and value equal np.argmax over the full tensor
    model, jumps, fric, eta = HULL_CASES[case]
    d = model.d
    res = [41, 61] if d == 1 else [21, 21, 21]
    bounds = _auto_pi_bounds(model, eta) + [(0.0, 1.0)]
    for rnd in range(2):
        axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(bounds, res)]
        vals = _eval_grid(model, jumps, fric, eta, axes)
        if rnd == 0:
            assert np.isneginf(vals[..., -1]).all() \
                == case.startswith("divergent")
        idx = _grid_argmax(model, jumps, fric, eta, axes)
        assert idx == np.unravel_index(np.argmax(vals), vals.shape)
        pt = [float(ax[i]) for ax, i in zip(axes, idx)]
        value = _point_value(model, jumps, fric, eta, pt)
        if d == 1:
            assert value == vals[idx]
        else:
            # one portfolio's matrix products may round apart from the
            # grid's by an ulp
            assert value == pytest.approx(vals[idx], rel=1e-15, abs=0.0)
        bounds = [(c - (hi - lo) / 20.0, c + (hi - lo) / 20.0)
                  for (lo, hi), c in zip(bounds, pt)]
        bounds[-1] = (max(0.0, bounds[-1][0]), min(1.0, bounds[-1][1]))


@st.composite
def _hull_rows(draw):
    """(kappas, K, u, shape) on a dyadic grid kappa_j = j / 32 with integer
    K and slopes u in quarters, so that K_j + u kappa_j and the chain's
    cross products are exact and a tie in the brute force is a tie in the
    hull: a strictly concave K, one with collinear runs, one that is not
    concave, and any of these with -inf entries (one entry stays finite)."""
    n = draw(st.integers(1, 33))
    shape = draw(st.sampled_from(["concave", "collinear", "non-concave",
                                  "with -inf"]))
    ints = st.integers(-200, 200)
    if shape == "non-concave":
        K = draw(st.lists(ints, min_size=n, max_size=n))
    else:
        steps = sorted(draw(st.lists(ints, min_size=n - 1, max_size=n - 1,
                                     unique=shape == "concave")),
                       reverse=True)
        if shape == "collinear":
            steps = sorted(s for s in steps for _ in range(2))[::-1][:n - 1]
        K = np.concatenate([[draw(ints)], steps]).cumsum().tolist()
    K = np.array(K, dtype=float)
    if shape == "with -inf":
        dead = draw(st.lists(st.integers(0, n - 1), max_size=n))
        K[dead] = -np.inf
        K[draw(st.integers(0, n - 1))] = float(draw(ints))
    kappas = np.arange(n) / 32.0
    # quarter slopes, and the exact ties -32 (K_(j+1) - K_j) of neighbours
    u = [q / 4.0 for q in draw(st.lists(st.integers(-40_000, 40_000),
                                        min_size=1, max_size=8))]
    finite = np.flatnonzero(np.isfinite(K))
    u += (-32.0 * np.diff(K[finite])[np.diff(finite) == 1]).tolist()
    return kappas, K, np.array(u), shape


@given(_hull_rows())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_row_argmax_is_the_first_brute_force_argmax(row):
    kappas, K, u, shape = row
    brute = np.argmax(K[None, :] + u[:, None] * kappas[None, :], axis=1)
    assert _row_argmax(kappas, K, u).tolist() == brute.tolist(), shape


def test_row_argmax_takes_the_chain_only_where_a_triple_fails(monkeypatch):
    calls = []

    def chain(x, y):
        calls.append(len(x))
        return upper_hull(x, y)

    upper_hull = oracle._upper_hull
    monkeypatch.setattr(oracle, "_upper_hull", chain)
    kappas = np.arange(5) / 4.0
    u = np.array([-3.0, 0.0, 3.0])
    _row_argmax(kappas, np.array([0.0, 3.0, 5.0, 6.0, 6.5]), u)
    assert calls == []
    # 0.0, 1.0, 2.0 are collinear: the chain pops the middle point
    _row_argmax(kappas, np.array([0.0, 1.0, 2.0, 2.5, 2.0]), u)
    assert calls == [5]


class TestSweep:
    def test_a1_kappa_eta_profile(self):
        m = pk.MarketModel(
            mu=[0.08, 0.10],
            sigma=[[0.25, 0.0], [0.08, 0.3098386676965934]],
            r=0.02, R=0.06, rho=[0.2, -0.3], b=0.4)
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.3))
        grid = np.arange(0.4, 4.01, 0.2)
        res = pk.sweep("eta", grid, m, BETA28, fric, pk.Utility(1.0))
        assert all(not p.error for p in res)
        ks = np.array([p.report.policy.kappa for p in res])
        # kappa = 1 on an initial segment, then strictly decreasing
        on = ks >= 1.0 - 1e-12
        assert on[0]
        first_off = int(np.argmin(on))
        assert not on[first_off:].any()
        tail = ks[first_off:]
        assert np.all(np.diff(tail) < 0)
        # pi sum nonincreasing in eta (one grid step slack)
        sums = np.array([p.report.policy.pi_sum for p in res])
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
        ks = np.array([p.report.policy.kappa for p in res])
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
        bad = [p for p in res if p.error]
        good = [p for p in res if not p.error]
        assert bad and good

    def test_strictly_increasing_grid_required(self):
        m = c2_model()
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.2))
        with pytest.raises(ValueError):
            pk.sweep("eta", [1.0, 1.0, 2.0], m, BETA128, fric, pk.Utility(4.0))

    @pytest.mark.parametrize("grid", [[np.nan, 1.0], [1.0, 2.0, np.nan],
                                      [1.0, np.inf], [-np.inf, 1.0]])
    def test_non_finite_grid_rejected(self, grid):
        m = c2_model()
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.2))
        with pytest.raises(ValueError, match="finite, strictly increasing"):
            pk.sweep("eta", grid, m, BETA128, fric, pk.Utility(4.0))

    def test_unknown_parameter_rejected_before_solving(self):
        m = c2_model()
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.2))
        with pytest.raises(ValueError, match="unknown parameter 'zeta'"):
            pk.sweep("zeta", [1.0, 2.0], m, BETA128, fric, pk.Utility(4.0))

    def test_b_and_power_premium_q_sweep(self):
        m = c2_model()
        fric = pk.DifferentialRates(premium=pk.PowerPremium(q=0.2, delta=2.0))
        res = pk.sweep("b", [0.2, 0.5], m, BETA128, fric, pk.Utility(4.0))
        assert not any(p.error for p in res)
        res_q = pk.sweep("q", [0.1, 0.3], m, BETA128, fric, pk.Utility(4.0))
        assert not any(p.error for p in res_q)
        direct = pk.solve(dataclasses.replace(m, b=0.5), BETA128, fric,
                          pk.Utility(4.0))
        assert res[1].report.policy.kappa == direct.policy.kappa
        direct = pk.solve(m, BETA128, pk.DifferentialRates(
            premium=pk.PowerPremium(q=0.3, delta=2.0)), pk.Utility(4.0))
        assert res_q[1].report.policy.kappa == direct.policy.kappa

    def test_csv_schema(self):
        m = c2_model()
        fric = pk.DifferentialRates(premium=pk.LinearPremium(q=0.2))
        res = pk.sweep("eta", [2.0, 3.0], m, BETA128, fric, pk.Utility(4.0))
        text = sweep_csv(res, 1)
        header = text.splitlines()[0]
        assert header == ("param_value,pi_1,pi_sum,kappa,case_label,"
                          "xi_star,objective,cert_residual")
        assert len(text.splitlines()) == 3


def _leaves(obj, path: str) -> dict:
    """Every number and label of a frozen input keyed by its attribute
    path, one entry per array element."""
    if dataclasses.is_dataclass(obj):
        out = {}
        for f in dataclasses.fields(obj):
            out.update(_leaves(getattr(obj, f.name), f"{path}.{f.name}"))
        return out
    if isinstance(obj, np.ndarray):
        return {f"{path}[{i}]": x for i, x in enumerate(obj.ravel().tolist())}
    return {path: obj}


# the leaf each sweep parameter sets; rho at d = 2 is rescaled instead
_SWEPT_LEAF = {"eta": "utility.eta", "rho": "model.rho[0]", "R": "model.R",
               "r": "model.r", "lambda": "jumps.lam",
               "q": "friction.premium.q", "b": "model.b",
               "mu": "model.mu[0]", "mu1": "model.mu[0]",
               "mu2": "model.mu[1]"}


@pytest.mark.parametrize("config", ["b1", "a2"])
@pytest.mark.parametrize("name", oracle.SWEEP_PARAMS)
def test_apply_param_sets_only_the_field_it_names(name, config):
    inp = pk.load_model_file(resolve_model_path(config))
    parts = (inp.model, inp.jumps, inp.friction, inp.utility)
    d = inp.model.d
    if (name == "mu" and d != 1) or (name == "mu2" and d != 2):
        pytest.skip(f"{name} does not apply at d = {d}")
    v = 0.37

    def leaves(inputs):
        out = {}
        for part, obj in zip(("model", "jumps", "friction", "utility"),
                             inputs):
            out.update(_leaves(obj, part))
        return out

    before = leaves(parts)
    want = dict(before)
    if name == "rho" and d == 2:
        rho = inp.model.rho * (v / np.linalg.norm(inp.model.rho))
        want.update({f"model.rho[{i}]": x for i, x in enumerate(rho.tolist())})
        assert np.linalg.norm(rho) == pytest.approx(v, rel=1e-15)
    else:
        want[_SWEPT_LEAF[name]] = v
    assert want != before
    assert leaves(oracle._apply_param(name, v, *parts)) == want


def test_apply_param_mu2_on_one_asset_is_a_value_error():
    inp = pk.load_model_file(resolve_model_path("b1"))
    with pytest.raises(ValueError, match="mu2 needs a two-asset model"):
        oracle._apply_param("mu2", 0.1, inp.model, inp.jumps, inp.friction,
                            inp.utility)


class TestCertificateSoundness:
    def test_certified_value_is_grid_unbeatable(self):
        # a certificate with residual at most 1e-9 caps the brute-force
        # value up to the oracle resolution bound
        m = pk.MarketModel(mu=[0.16], sigma=[[0.26]], r=0.03, R=0.09,
                           rho=[0.35], b=0.4)
        jumps = pk.JumpLaw(lam=0.1, law=pk.BetaJumps(2.0, 8.0))
        prem = pk.LinearPremium(q=0.3)
        util = pk.Utility(2.0)
        rep = pk.solve(m, jumps, pk.DifferentialRates(prem), util)
        assert rep.certificate.passes and abs(rep.certificate.residual) <= 1e-9
        fric = pk.DifferentialRates(premium=prem)
        _, val, bound = pk.grid_maximize(m, jumps, fric, util)
        assert val <= rep.objective.value + bound
