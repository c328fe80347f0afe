"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass/fail line (visible with pytest -s, captured
otherwise). Two sub-criteria fail honestly by construction of the source
material rather than by implementation defect; the analysis lives in the
decisions ledger and the failing asserts are kept as stated:

  * criterion 7, B2 lower window endpoint (paper figure annotation 0.60 vs
    exact 0.654);
  * criterion 11, A1 interior-kappa mutual-fund triple (separation is exact
    only at kappa corners; interior discrepancy ~1e-3 > 1e-5).
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import pikappa as pk
from pikappa.models import law_second_moment
from pikappa.solvers import _DiffRatesKernel
from pikappa.rootfind import bisect

from nested_reference import pi_sum
from quadrature_reference import psi_quadrature


def criterion(cid: str, ok: bool, detail: str = ""):
    print(f"[criterion {cid}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {cid}: {detail}"


def sigma_from_s(s1, s2, s):
    return np.array([[s1, 0.0], [s2 * s, s2 * np.sqrt(1 - s * s)]])


A1 = pk.MarketModel(mu=[0.08, 0.10], sigma=sigma_from_s(0.25, 0.32, 0.25),
                    r=0.02, R=0.06, rho=[0.2, -0.3], b=0.4)
A2 = pk.MarketModel(mu=[0.16, 0.08], sigma=sigma_from_s(0.25, 0.32, 0.05),
                    r=0.03, R=0.10, rho=[0.2, -0.3], b=0.6)
J_A = pk.JumpLaw(lam=0.25, law=pk.BetaJumps(alpha=2.0, beta=8.0))
Q_A1 = pk.LinearPremium(q=0.3)
Q_A2 = pk.LinearPremium(q=0.8)

J_B = pk.JumpLaw(lam=0.1, law=pk.BetaJumps(alpha=2.0, beta=8.0))
J_B2 = pk.JumpLaw(lam=0.1, law=pk.BetaJumps(alpha=2.0, beta=6.0))
J_C = pk.JumpLaw(lam=0.15, law=pk.BetaJumps(alpha=12.0, beta=8.0))
Q_B = pk.LinearPremium(q=0.3)
Q_C = pk.LinearPremium(q=0.2)


def b1_model(rho):
    return pk.MarketModel(mu=[0.16], sigma=[[0.26]], r=0.03, R=0.09,
                          rho=[rho], b=0.4)


def b2_model(rho):
    return pk.MarketModel(mu=[0.10], sigma=[[0.26]], r=0.03, R=0.09,
                          rho=[rho], b=0.4)


def c1_model(rho):
    return pk.MarketModel(mu=[-0.05], sigma=[[0.30]], r=0.03, R=0.09,
                          rho=[rho], b=0.8)


def c2_model(rho):
    return pk.MarketModel(mu=[0.16], sigma=[[0.30]], r=0.03, R=0.09,
                          rho=[rho], b=0.4)


B_SETS = {
    "B1": (b1_model, J_B, Q_B, pk.Utility(2.0)),
    "B2": (b2_model, J_B2, Q_B, pk.Utility(4.0)),
    "C1": (c1_model, J_C, Q_C, pk.Utility(4.0)),
    "C2": (c2_model, J_C, Q_C, pk.Utility(4.0)),
}


def test_c01_thresholds_a1():
    t0 = time.time()
    eta_R, eta_r = pk.threshold_etas(A1, J_A, Q_A1)
    dt = time.time() - t0
    ok = abs(eta_R - 0.60) <= 0.01 and abs(eta_r - 1.47) <= 0.01 and dt < 10.0
    criterion("1", ok, f"A1 (eta_R, eta_r)=({eta_R:.4f}, {eta_r:.4f}) "
                       f"target (0.60, 1.47) +-0.01, {dt:.1f}s")


def test_c02_thresholds_a2():
    t0 = time.time()
    eta_R, eta_r = pk.threshold_etas(A2, J_A, Q_A2)
    dt = time.time() - t0
    ok = abs(eta_R - 0.71) <= 0.01 and abs(eta_r - 2.35) <= 0.01 and dt < 10.0
    criterion("2", ok, f"A2 (eta_R, eta_r)=({eta_R:.4f}, {eta_r:.4f}) "
                       f"target (0.71, 2.35) +-0.01, {dt:.1f}s")


def test_c03_eta_R_borrowing_rate_table():
    t0 = time.time()
    Rs = [0.10, 0.09, 0.08, 0.07, 0.06, 0.05, 0.04, 0.035, 0.031]
    targets = [0.71, 0.95, 1.18, 1.42, 1.65, 1.89, 2.12, 2.24, 2.33]
    got = []
    for R in Rs:
        eta_R, _ = pk.threshold_etas(replace(A2, R=R), J_A, Q_A2)
        got.append(eta_R)
    dt = time.time() - t0
    errs = [abs(g - t) for g, t in zip(got, targets)]
    ok = max(errs) <= 0.01 and dt < 60.0
    criterion("3", ok, f"max|eta_R - target|={max(errs):.4f} (tol 0.01), "
                       f"{dt:.1f}s")


def test_c04_c1_full_insurance_region():
    fric = pk.DifferentialRates(premium=Q_C)
    grid = np.round(np.arange(-1.0, 1.0001, 0.01), 10)
    res = pk.sweep("rho", grid, c1_model(0.0), J_C, fric, pk.Utility(4.0))
    thresh = 0.5156
    ok = True
    detail = []
    for p in res:
        if p.error:
            ok = False
            detail.append(f"error at rho={p.param_value}")
            continue
        if p.param_value >= thresh + 0.01:
            if p.report.policy.kappa != 0.0 \
                    or abs(p.report.policy.pi[0] + 0.2222) > 1e-3:
                ok = False
                detail.append(f"rho={p.param_value}: "
                              f"kappa={p.report.policy.kappa} "
                              f"pi={p.report.policy.pi[0]}")
        elif p.param_value <= thresh - 0.01:
            if p.report.policy.kappa <= 0.0:
                ok = False
                detail.append(f"rho={p.param_value}: kappa=0 below threshold")
    criterion("4", ok, f"kappa=0 iff rho >= 0.5156 +-0.01 with "
                       f"pi=-0.2222+-1e-3; {'; '.join(detail[:3])}")


def test_c05_c2_full_insurance_region():
    fric = pk.DifferentialRates(premium=Q_C)
    grid = np.round(np.arange(-1.0, 1.0001, 0.01), 10)
    res = pk.sweep("rho", grid, c2_model(0.0), J_C, fric, pk.Utility(4.0))
    thresh = -0.6346
    ok = True
    detail = []
    for p in res:
        if p.error:
            ok = False
            detail.append(f"error at rho={p.param_value}")
            continue
        if p.param_value <= thresh - 0.01:
            if p.report.policy.kappa != 0.0 \
                    or abs(p.report.policy.pi[0] - 0.3611) > 1e-3:
                ok = False
                detail.append(f"rho={p.param_value}: "
                              f"kappa={p.report.policy.kappa} "
                              f"pi={p.report.policy.pi[0]}")
        elif p.param_value >= thresh + 0.01:
            if p.report.policy.kappa <= 0.0:
                ok = False
                detail.append(f"rho={p.param_value}: kappa=0 above threshold")
    criterion("5", ok, f"kappa=0 on rho in [-1, -0.6346+-0.01] with "
                       f"pi=0.3611+-1e-3; {'; '.join(detail[:3])}")


def test_c06_b1_corner_boundary_expressions():
    lam, q, sig, b, mu, eta = 0.1, 0.3, 0.26, 0.4, 0.16, 2.0
    r, R = 0.03, 0.09
    psi1 = pk.psi(J_B, 1.0, eta)
    # case-vi quantities at rho = -1
    rho = -1.0
    q_vi = lam * psi1 - b * rho * (mu - r) / sig + eta * b * b * (1 - rho ** 2) - q
    pi_vi = (mu - r) / (eta * sig * sig) + b * rho / sig
    # case-vii quantities at rho = +1
    rho = 1.0
    q_vii = lam * psi1 - b * rho * (mu - R) / sig + eta * b * b * (1 - rho ** 2) - q
    pi_vii = (mu - R) / (eta * sig * sig) + b * rho / sig
    rep_m = pk.solve(b1_model(-1.0), J_B, pk.DifferentialRates(Q_B),
                     pk.Utility(eta))
    rep_p = pk.solve(b1_model(1.0), J_B, pk.DifferentialRates(Q_B),
                     pk.Utility(eta))
    ok = (abs(q_vi - (-0.05714)) <= 1e-4 and abs(pi_vi - (-0.5769)) <= 1e-3
          and abs(q_vii - (-0.3648)) <= 1e-3 and abs(pi_vii - 2.0562) <= 1e-3
          and rep_m.policy.kappa == 1.0 and rep_p.policy.kappa == 1.0)
    criterion("6", ok, f"vi: ({q_vi:.5f}, {pi_vi:.4f}) "
                       f"vii: ({q_vii:.4f}, {pi_vii:.4f}); "
                       f"kappa=({rep_m.policy.kappa}, {rep_p.policy.kappa})")


def _unit_allocation_window(model_fn, jumps, prem, util):
    """Exact [rho_lo, rho_hi] where the all-risky case iii holds."""
    def pi_sum_at(rho, xi):
        kern = _DiffRatesKernel(model_fn(rho), jumps, prem)
        return pi_sum(kern, xi, util.eta)

    lo = bisect(lambda rho: pi_sum_at(rho, model_fn(0.0).r) - 1.0,
                -0.999, 0.999, xtol=1e-8).root
    hi = bisect(lambda rho: pi_sum_at(rho, model_fn(0.0).R) - 1.0,
                lo, 0.9999, xtol=1e-8).root
    return lo, hi


def test_c07_b1_unit_allocation_window():
    lo, hi = _unit_allocation_window(b1_model, J_B, Q_B, pk.Utility(2.0))
    ok = abs(lo - 0.01) <= 0.02 and abs(hi - 0.30) <= 0.02
    criterion("7 (B1)", ok, f"window [{lo:.4f}, {hi:.4f}] vs paper "
                            f"[0.01, 0.30] +-0.02")


def test_c07_b2_unit_allocation_window():
    # honest failure: the exact lower endpoint is 0.654, the paper's figure
    # annotation says 0.60 (see decisions ledger); asserted as stated
    lo, hi = _unit_allocation_window(b2_model, J_B2, Q_B, pk.Utility(4.0))
    ok = abs(lo - 0.60) <= 0.02 and abs(hi - 0.77) <= 0.02
    criterion("7 (B2)", ok, f"window [{lo:.4f}, {hi:.4f}] vs paper "
                            f"[0.60, 0.77] +-0.02")


def test_c08_special_function_cross_check():
    t0 = time.time()
    exact = pk.psi(J_A, 1.0, 2.0)
    ok = abs(exact - 3.0 / 7.0) <= 1e-12
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for _ in range(1000):
        a = rng.uniform(0.5, 20.0)
        b = rng.uniform(0.5, 20.0)
        kappa = rng.uniform(0.0, 0.999)
        eta = rng.uniform(1e-3, b - 0.01)
        law = pk.JumpLaw(lam=1.0, law=pk.BetaJumps(alpha=a, beta=b))
        s = pk.psi(law, kappa, eta)
        qd = psi_quadrature(law, kappa, eta)
        worst = max(worst, abs(s - qd) / (1.0 + abs(s)))
    dt = time.time() - t0
    ok = ok and worst <= 1e-8 and dt < 5.0
    criterion("8", ok, f"kappa=1 Gamma formula err={abs(exact - 3/7):.2e}, "
                       f"worst dual-path rel={worst:.2e}, {dt:.1f}s")


# --- criterion 9: randomized oracle equivalence per regime -----------------

def _random_d1_market(rng, mu_lo=-0.02):
    sig = rng.uniform(0.15, 0.45)
    r = rng.uniform(0.0, 0.05)
    return pk.MarketModel(mu=[r + rng.uniform(mu_lo, 0.18)],
                          sigma=[[sig]], r=r, R=r + rng.uniform(0.0, 0.08),
                          rho=[rng.uniform(-0.9, 0.9)],
                          b=rng.uniform(0.05, 0.8))


def _random_jumps(rng):
    beta = rng.uniform(2.5, 12.0)
    return pk.JumpLaw(lam=rng.uniform(0.0, 0.5),
                      law=pk.BetaJumps(alpha=rng.uniform(0.8, 14.0),
                                       beta=beta)), beta


def _check_oracle(rep, model, jumps, fric, util, failures, tag,
                  grid=None, cert_tol=1e-7):
    pol, val, bound = pk.grid_maximize(model, jumps, fric, util, grid)
    if rep.objective.value < val - bound:
        failures.append(f"{tag}: solver {rep.objective.value:.8f} < oracle "
                        f"{val:.8f} - bound {bound:.2e}")
    if rep.certificate.mode == "conjugate" \
            and abs(rep.certificate.residual) > cert_tol:
        failures.append(f"{tag}: certificate residual "
                        f"{rep.certificate.residual:.2e}")


def test_c09_oracle_equivalence_randomized():
    t0 = time.time()
    rng = np.random.default_rng(1234)
    failures = []

    # differential rates, one asset
    n = 0
    while n < 50:
        m = _random_d1_market(rng)
        jumps, beta = _random_jumps(rng)
        util = pk.Utility(rng.uniform(0.4, beta - 0.3))
        prem = pk.LinearPremium(q=rng.uniform(0.0, 0.5))
        rep = pk.solve(m, jumps, pk.DifferentialRates(prem), util)
        _check_oracle(rep, m, jumps, pk.DifferentialRates(premium=prem),
                      util, failures, f"dr1[{n}]")
        n += 1

    # differential rates, two assets
    n = 0
    while n < 50:
        s1, s2 = rng.uniform(0.15, 0.45, size=2)
        s = rng.uniform(-0.7, 0.7)
        r = rng.uniform(0.0, 0.05)
        rho = rng.uniform(-1, 1, size=2)
        nrm = np.linalg.norm(rho)
        rho = rho / nrm * rng.uniform(0.1, 0.9)
        m = pk.MarketModel(mu=r + rng.uniform(-0.02, 0.15, size=2),
                           sigma=sigma_from_s(s1, s2, s), r=r,
                           R=r + rng.uniform(0.0, 0.08), rho=rho,
                           b=rng.uniform(0.05, 0.7))
        jumps, beta = _random_jumps(rng)
        util = pk.Utility(rng.uniform(0.4, beta - 0.3))
        prem = pk.LinearPremium(q=rng.uniform(0.0, 0.5))
        rep = pk.solve(m, jumps, pk.DifferentialRates(prem), util)
        _check_oracle(rep, m, jumps, pk.DifferentialRates(premium=prem),
                      util, failures, f"dr2[{n}]")
        n += 1

    # smooth g (quadratic)
    n = 0
    while n < 50:
        m = _random_d1_market(rng)
        jumps, beta = _random_jumps(rng)
        util = pk.Utility(rng.uniform(0.4, beta - 0.3))
        prem = pk.LinearPremium(q=rng.uniform(0.0, 0.5))
        c = rng.uniform(0.01, 0.4)
        fric = pk.SmoothG(premium=prem, c=c)
        rep = pk.solve(m, jumps, fric, util)
        _check_oracle(rep, m, jumps, fric, util, failures, f"sg[{n}]")
        n += 1

    # large investor
    n = 0
    while n < 50:
        m = _random_d1_market(rng)
        jumps, beta = _random_jumps(rng)
        util = pk.Utility(rng.uniform(0.4, beta - 0.3))
        prem = pk.LinearPremium(q=rng.uniform(0.0, 0.5))
        mp, mm = -rng.uniform(0.0, 0.04), rng.uniform(0.0, 0.04)
        rep = pk.solve(m, jumps, pk.LargeInvestor(prem, mp, mm), util)
        _check_oracle(rep, m, jumps,
                      pk.LargeInvestor(premium=prem, m_plus=mp, m_minus=mm),
                      util, failures, f"li[{n}]")
        n += 1

    # portfolio-dependent premium (resample until an interior solve)
    n = 0
    attempts = 0
    while n < 50 and attempts < 600:
        attempts += 1
        m = _random_d1_market(rng, mu_lo=0.02)
        jumps, beta = _random_jumps(rng)
        eta = rng.uniform(1.5, beta - 0.3)
        util = pk.Utility(eta)
        _, sig, rho = m.d1()
        rhs = sig * sig * eta * eta \
            * (m.b ** 2 + jumps.lam * law_second_moment(jumps.law))
        c_max = np.sqrt(rhs) - eta * abs(rho) * m.b * sig
        if c_max <= 0.02:
            continue
        C = rng.uniform(0.3, 0.9) * c_max
        A = rng.uniform(0.2, 1.0)
        fric = pk.PortfolioPremium(C=C, A=A)
        try:
            rep = pk.solve(m, jumps, fric, util)
        except (pk.NoInteriorSolution, pk.SOCViolation):
            continue
        _check_oracle(rep, m, jumps, fric, util, failures, f"pp[{n}]")
        n += 1

    dt = time.time() - t0
    ok = not failures and n == 50 and dt < 600.0
    criterion("9", ok, f"250 randomized solves within oracle bound, "
                       f"{dt:.0f}s; failures: {failures[:5]}")


def test_c10_closed_form_vs_monte_carlo():
    failures = []
    rho_values = {"B1": (-0.8, 0.1, 0.6), "B2": (-0.8, 0.1, 0.7),
                  "C1": (-0.8, 0.1, 0.6), "C2": (-0.8, 0.1, 0.6)}
    for name, (model_fn, jumps, prem, util) in B_SETS.items():
        fric = pk.DifferentialRates(premium=prem)
        for i, rho in enumerate(rho_values[name]):
            m = model_fn(rho)
            rep = pk.solve(m, jumps, pk.DifferentialRates(prem), util)
            closed = pk.value_function(0.0, 1.0, 1.0, rep.objective, m,
                                       jumps, util)
            cfg = pk.SimConfig(horizon=1.0, x0=1.0, n_paths=1_000_000,
                               seed=1000 + i)
            est = pk.simulate_terminal_utility(rep.policy, m, jumps, fric,
                                               util, cfg)
            z = (est.mean - closed) / est.std_error
            if abs(z) > 3.0:
                failures.append(f"{name} rho={rho}: z={z:.2f}")
            # perturbed policies must never win at 3 SE under CRN
            perturbations = [
                pk.Policy(pi=rep.policy.pi,
                          kappa=min(1.0, rep.policy.kappa + 0.1)),
                pk.Policy(pi=rep.policy.pi,
                          kappa=max(0.0, rep.policy.kappa - 0.1)),
                pk.Policy(pi=rep.policy.pi * 1.1, kappa=rep.policy.kappa),
                pk.Policy(pi=rep.policy.pi * 0.9, kappa=rep.policy.kappa),
            ]
            for j, pert in enumerate(perturbations):
                v = pk.compare_policies(rep.policy, pert, m, jumps, fric,
                                        util, cfg)
                if v.verdict == "B-better":
                    failures.append(f"{name} rho={rho} pert{j}: perturbation "
                                    f"won, diff={v.diff_mean:.2e}")
    criterion("10", not failures, f"12 set/rho combos, 48 perturbations; "
                                  f"failures: {failures[:4]}")


def _mutual_fund_discrepancy(model, jumps, prem, triple):
    e1, e2, ebar = triple
    res = pk.mutual_fund_combine(model, jumps, prem, e1, e2, ebar)
    direct = pk.solve(model, jumps, pk.DifferentialRates(prem),
                      pk.Utility(ebar))
    return max(float(np.max(np.abs(res.policy.pi - direct.policy.pi))),
               abs(res.policy.kappa - direct.policy.kappa))


def test_c11_mutual_fund_a2_case_iii():
    disc = _mutual_fund_discrepancy(A2, J_A, Q_A2, (1.0, 2.0, 1.5))
    criterion("11 (A2)", disc <= 1e-5, f"case-iii triple discrepancy "
                                       f"{disc:.2e} (tol 1e-5)")


def test_c11_mutual_fund_a1_case_i():
    # honest failure: interior-kappa separation is approximate (~1e-3);
    # see decisions ledger
    disc = _mutual_fund_discrepancy(A1, J_A, Q_A1, (2.0, 5.0, 3.0))
    criterion("11 (A1)", disc <= 1e-5, f"case-i triple discrepancy "
                                       f"{disc:.2e} (tol 1e-5)")


def test_c12_fosd_monotonicity_diff_rates():
    j_low = pk.JumpLaw(lam=0.15, law=pk.BetaJumps(alpha=2.0, beta=8.0))
    dominance = pk.fosd_compare(J_C, j_low)
    grid = np.round(np.arange(-1.0, 1.0001, 0.05), 10)
    fric = pk.DifferentialRates(premium=Q_C)
    res_hi = pk.sweep("rho", grid, c2_model(0.0), J_C, fric, pk.Utility(4.0))
    res_lo = pk.sweep("rho", grid, c2_model(0.0), j_low, fric, pk.Utility(4.0))
    bad = [
        (p_hi.param_value, p_hi.report.policy.kappa, p_lo.report.policy.kappa)
        for p_hi, p_lo in zip(res_hi, res_lo)
        if p_hi.error or p_lo.error
        or p_hi.report.policy.kappa > p_lo.report.policy.kappa + 1e-9
    ]
    ok = dominance is pk.Ordering.DOMINATES and not bad
    criterion("12", ok, f"Beta(12,8) vs Beta(2,8): {dominance.value}; "
                        f"kappa ordering violations: {bad[:3]}")


def test_c13_section5_interior_and_fosd():
    # parameters satisfy the admissible (C, eta) interval at rho = 0.3:
    # (b rho sigma)^2/C^2 <= 1/eta^2 <= sigma^2/(2 C^2) (b^2(1-2rho^2)+lam E[Y^2])
    rho0, C, A, eta = 0.3, 0.25, 0.5, 4.0
    sig, b = 0.30, 0.4
    ey2 = law_second_moment(J_C.law)
    lhs = (b * rho0 * sig) ** 2 / C ** 2
    rhs = sig ** 2 / (2 * C ** 2) * (b * b * (1 - 2 * rho0 ** 2)
                                     + J_C.lam * ey2)
    interval_ok = lhs <= 1.0 / eta ** 2 <= rhs

    m = c2_model(rho0)
    fric = pk.PortfolioPremium(C=C, A=A)
    rep = pk.solve(m, J_C, fric, pk.Utility(eta))
    pol, val, bound = pk.grid_maximize(m, J_C, fric, pk.Utility(eta))
    oracle_ok = rep.objective.value >= val - bound

    # kappa(rho) under the sqrt-premium friction preserves the FOSD ordering
    j_low = pk.JumpLaw(lam=0.15, law=pk.BetaJumps(alpha=2.0, beta=8.0))
    compared = 0
    violations = []
    for rho in np.round(np.arange(-0.45, 0.46, 0.15), 10):
        ks = {}
        for tag, jumps in (("hi", J_C), ("lo", j_low)):
            try:
                r = pk.solve(c2_model(float(rho)), jumps, fric,
                             pk.Utility(eta))
                ks[tag] = r.policy.kappa
            except (pk.NoInteriorSolution, pk.SOCViolation):
                pass
        if len(ks) == 2:
            compared += 1
            if ks["hi"] > ks["lo"] + 1e-9:
                violations.append((float(rho), ks["hi"], ks["lo"]))
    ok = interval_ok and oracle_ok and compared >= 4 and not violations
    criterion("13", ok, f"interval={interval_ok}, oracle gap ok={oracle_ok}, "
                        f"{compared} rho points compared, "
                        f"violations: {violations[:3]}")
