"""Optimal (pi, kappa) for each friction regime, with regime labels and
optimality certificates. solve() is the one entry point: it validates the
inputs once and sends each friction to one of two kernels, which both end
in one evaluate / corner-check / certify step that builds the SolveReport.

The shadow kernel solves the piecewise-linear frictions: differential rates,
the frictionless market and the large investor. Each is a min over a shadow
value xi = r + x, x in an interval, of -x times the slack of a hyperplane
(hamiltonian._shadow_interval): xi in [r, R] with pi.1 = 1 for differential
rates (xi = r without friction), and xi = r - m for the price pressure m in
[m+, m-] with pi = 0 for the large investor. For fixed kappa the optimal xi
is the hyperplane point, affine in kappa, clipped to the interval, so one
kappa root solves the whole case split, and the clip names the case: an
interval end for cases i and ii, the hyperplane for case iii.

The smooth kernel solves the one-asset smooth frictions, a concave g(pi) and
the portfolio-dependent premium (1 - kappa) q(pi), by one kappa root over the
allocation pi(kappa): a formula for g = -c pi^2, whose allocation condition
is linear in pi, and a root for the premium, whose condition is not.

Every scalar root here is a bracketing root (rootfind) of a function that is
monotone by construction, over a bracket given by a formula: the kappa
first-order condition is the derivative of a concave partial maximum, so it
decreases in kappa (for the portfolio-dependent premium, the second-order
bound makes f + H jointly concave). Every kappa root brackets [0, 1]: where
the jump moment diverges at kappa = 1 (a Beta law with eta >= beta),
psi(1) = +inf gives h(1) = -inf, which rules that corner out. The kappa
root is a bisection; every other root is Brent's. The portfolio premium's
allocation root is solved at every step of its kappa root. The risk-aversion
thresholds take a root in eta alone, reading the sign of pi.1 - 1 from one h
call at the kappa that puts pi.1 on 1. The mutual-fund weight is a root on
[0, 1] for interior kappas and has a closed form at a shared corner.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import (BracketError, CaseMismatch, NoInteriorSolution, NoRoot,
                     NoSolution, NoThreshold, SOCViolation)
from .hamiltonian import (Certificate, ObjectiveEval, _shadow_interval,
                          _soc_bound, certify, eval_objective)
from .jumps import psi
from .models import (BetaJumps, DifferentialRates, FrictionSpec, Frictionless,
                     JumpLaw, LargeInvestor, MarketModel, Policy,
                     PortfolioPremium, PowerPremium, SmoothG, Utility,
                     require_valid)
from .rootfind import bisect, brent

CORNER_TIE = 1e-12
KAPPA_XTOL = 1e-10
ETA_XTOL = 1e-8
# eta search interval of threshold_etas; a Beta law caps it below beta
ETA_LO = 1e-3
ETA_HI = 64.0
# ends of the pi range on which the portfolio-premium second-order bound is
# checked: q' increases in pi and (q' + c)^2 is convex, so it peaks at one
_SOC_PI_ENDS = np.array([-50.0, 50.0])


@dataclass(frozen=True)
class SolveReport:
    """Solver output: certified policy plus regime diagnostics.

    xi_star is the shadow rate in [r, R] for differential rates, the active
    price-pressure m in [m+, m-] for the large investor, and None otherwise.
    """
    policy: Policy
    case_label: str
    xi_star: float | None
    objective: ObjectiveEval
    certificate: Certificate


def _solve_kappa(h):
    """Root of the strictly decreasing h on [0, 1] with corner handling.

    Returns (kappa, tag); tag is "lo"/"hi" for strict corners, "tie" when
    h vanishes at a corner (labeled as the interior case) and "interior"
    otherwise.
    """
    h0 = h(0.0)
    if h0 < -CORNER_TIE:
        return 0.0, "lo"
    if abs(h0) <= CORNER_TIE:
        return 0.0, "tie"
    h1 = h(1.0)
    if h1 > CORNER_TIE:
        return 1.0, "hi"
    if abs(h1) <= CORNER_TIE:
        return 1.0, "tie"
    # brent here lifts repro peak_rss_mb 11-18% (bound 10%): ROADMAP item 8
    res = bisect(h, 0.0, 1.0, xtol=KAPPA_XTOL, flo=h0, fhi=h1)
    return res.root, "interior"


_ROMAN = {("i", "interior"): "i", ("i", "tie"): "i",
          ("i", "lo"): "iv", ("i", "hi"): "vi",
          ("ii", "interior"): "ii", ("ii", "tie"): "ii",
          ("ii", "lo"): "v", ("ii", "hi"): "vii"}


def _case_label(prefix: str, family: str, tag: str) -> str:
    """One shared string per label (interned), not a new one per solve."""
    if family == "iii":
        return sys.intern(f"{prefix}-iii")
    return sys.intern(f"{prefix}-{_ROMAN[(family, tag)]}")


def _corner_consistency(obj: ObjectiveEval, premium: PowerPremium | None,
                        kappa: float) -> float:
    """Corner optimality inequalities, returned as a violation magnitude."""
    if kappa <= 0.0:
        return max(obj.dH_dkappa - premium.derivative(0.0), 0.0)
    if kappa >= 1.0:
        return max(premium.derivative(1.0) - obj.dH_dkappa, 0.0)
    return 0.0


def _certified(policy: Policy, label: str, xi_star: float | None,
               model: MarketModel, jumps: JumpLaw, friction: FrictionSpec,
               utility: Utility) -> SolveReport:
    """Evaluate, corner-check and certify a candidate policy.

    Raises NoSolution when the certificate fails or a corner kappa violates
    its optimality inequality. Portfolio-premium candidates are interior, so
    their missing premium schedule is never consulted.
    """
    obj = eval_objective(policy, model, jumps, friction, utility)
    corner_violation = _corner_consistency(
        obj, getattr(friction, "premium", None), policy.kappa)
    cert = certify(policy, model, jumps, friction, utility, obj=obj)
    if not cert.passes or corner_violation > 1e-7:
        raise NoSolution(f"label={label} residual={cert.residual:.3e} "
                         f"in_domain={cert.in_domain} "
                         f"corner_violation={corner_violation:.3e}")
    return SolveReport(policy=policy, case_label=label, xi_star=xi_star,
                       objective=obj, certificate=cert)


# ---------------------------------------------------------------------------
# Linear frictions with a shadow value: differential rates, the frictionless
# market and the large investor
# ---------------------------------------------------------------------------

class _DiffRatesKernel:
    """Maps of the shadow value xi shared by the solver and threshold search.

    pi(xi, kappa) = S^-1 (mu - xi 1) / eta + hedge kappa with S = sigma
    sigma', so pi.1 is affine in xi and kappa, and so is the kappa
    first-order condition h(kappa, xi) through its drift term
    bB(xi) = b rho' sigma^-1 (mu - xi 1) = hedge'(mu - xi 1).
    """

    def __init__(self, model: MarketModel, jumps: JumpLaw,
                 premium: PowerPremium):
        self.model = model
        self.jumps = jumps
        self.premium = premium
        self.ones = np.ones(model.d)
        self.SST = model.sigma @ model.sigma.T
        self.hedge_dir = np.linalg.solve(model.sigma.T, model.rho) * model.b
        self.rho2 = float(model.rho @ model.rho)
        self.bB_mu = float(self.hedge_dir @ model.mu)
        self.bB_one = float(self.hedge_dir.sum())
        self.sinv_mu = float(np.linalg.solve(self.SST, model.mu).sum())
        self.sinv_one = float(np.linalg.solve(self.SST, self.ones).sum())

    def h(self, k: float, xi: float, eta: float) -> float:
        m = self.model
        jump = self.jumps.lam * psi(self.jumps, k, eta) \
            if self.jumps.lam > 0 else 0.0
        slope = eta * m.b * m.b * (1.0 - self.rho2)
        return self.bB_mu - xi * self.bB_one - slope * k - jump \
            - self.premium.derivative(k)

    def xi_plane(self, k: float, eta: float, level: float) -> float:
        """The xi that puts pi(xi, k).1 on level."""
        return (self.sinv_mu + eta * self.bB_one * k - eta * level) / self.sinv_one

    def pi(self, xi: float, kappa: float, eta: float) -> np.ndarray:
        return np.linalg.solve(self.SST, self.model.mu - xi * self.ones) \
            / eta + self.hedge_dir * kappa


# label prefix and the case families at the low and the high end of the
# shadow interval
_SHADOW_CASES = {DifferentialRates: ("DiffRates", "i", "ii"),
                 Frictionless: ("Frictionless", "i", "ii"),
                 LargeInvestor: ("Large", "ii", "i")}


def _solve_shadow(model: MarketModel, jumps: JumpLaw,
                  friction: DifferentialRates | Frictionless | LargeInvestor,
                  utility: Utility) -> SolveReport:
    """Case split on the shadow interval and the hyperplane pi.1 = level, by
    one kappa root.

    For fixed kappa the optimal shadow value is the hyperplane point
    xi_plane(kappa) clipped to the interval, so h(kappa, clip(xi_plane))
    is the derivative in kappa of the partial maximum over pi of a jointly
    concave objective: it decreases, and its root is the optimum. The
    family is read off the clip: one at each end of the interval and "iii"
    on the hyperplane; the kappa corners give cases iv-vii. The large
    investor holds pi = 0 in case iii and reports the active price pressure
    m = r - xi as xi_star.
    """
    prefix, below, above = _SHADOW_CASES[type(friction)]
    lo, hi, level = _shadow_interval(friction, model)
    xi_lo, xi_hi = model.r + lo, model.r + hi
    eta = utility.eta
    kern = _DiffRatesKernel(model, jumps, friction.premium)

    def xi_of(k: float) -> float:
        return min(max(kern.xi_plane(k, eta, level), xi_lo), xi_hi)

    kappa, tag = _solve_kappa(lambda k: kern.h(k, xi_of(k), eta))
    xi_p = kern.xi_plane(kappa, eta, level)
    family = below if xi_p < xi_lo else above if xi_p > xi_hi else "iii"
    xi = xi_of(kappa)
    pi = kern.pi(xi, kappa, eta)
    if isinstance(friction, LargeInvestor):
        # xi_star reports the active price pressure m = -x
        xi = -{below: lo, above: hi}.get(family, xi - model.r)
        if family == "iii":
            pi = np.zeros(1)
    return _certified(Policy(pi=pi, kappa=kappa),
                      _case_label(prefix, family, tag), xi, model, jumps,
                      friction, utility)


def threshold_etas(model: MarketModel, jumps: JumpLaw,
                   premium: PowerPremium) -> tuple[float, float]:
    """Risk-aversion thresholds (eta_R, eta_r) bracketing the all-risky band.

    eta_R solves pi(R, eta).1 = 1 and eta_r solves pi(r, eta).1 = 1 at the
    optimal kappa. For fixed xi, pi.1 = a/eta + c kappa with
    a = 1'S^-1(mu - xi 1) and c = 1'hedge, so pi.1 - 1 = c (kappa - k_p)
    for k_p = (1 - a/eta)/c. As h(., xi, eta) decreases, kappa > k_p
    exactly when h(k_p) > 0 for k_p inside the kappa interval, and outside
    it the sign is fixed: one eta root, no kappa root inside it. A Beta law
    caps the eta interval at beta - 1e-3, so beta <= 2e-3 leaves it empty
    and raises NoThreshold.
    """
    require_valid(model, jumps, DifferentialRates(premium), Utility(ETA_LO))
    lo = ETA_LO
    hi = jumps.law.beta - 1e-3 if isinstance(jumps.law, BetaJumps) else ETA_HI
    if hi <= lo:
        raise NoThreshold(f"the eta search interval ({lo}, {hi}) is empty: "
                          f"a Beta law caps it at beta - 1e-3")
    kern = _DiffRatesKernel(model, jumps, premium)
    c = kern.bB_one

    def threshold_at(xi: float) -> float:
        a = kern.sinv_mu - xi * kern.sinv_one

        def sign_of_excess(eta: float) -> float:
            # has the sign of pi(xi, kappa(xi, eta)).1 - 1
            if c == 0.0:
                return a / eta - 1.0
            k_p = (1.0 - a / eta) / c
            if 0.0 < k_p < 1.0:
                return c * kern.h(k_p, xi, eta)
            return -c * k_p

        f_lo, f_hi = sign_of_excess(lo), sign_of_excess(hi)
        if (f_lo > 0) == (f_hi > 0):
            raise NoThreshold(
                f"pi(xi={xi}).1 - 1 has no sign change for eta in "
                f"({lo}, {hi}): {'> 0' if f_lo > 0 else '<= 0'} at both ends")
        return brent(sign_of_excess, lo, hi, xtol=ETA_XTOL, flo=f_lo,
                     fhi=f_hi).root

    return threshold_at(model.R), threshold_at(model.r)


# ---------------------------------------------------------------------------
# Smooth frictions on one asset: a concave g and the portfolio premium
# ---------------------------------------------------------------------------

def _solve_smooth(model: MarketModel, jumps: JumpLaw,
                  friction: SmoothG | PortfolioPremium,
                  utility: Utility) -> SolveReport:
    """kappa is the root of

        f_kappa(pi(kappa), kappa) + eta b sigma rho pi(kappa)
            - (eta b^2 kappa + lambda psi(kappa)),

    the derivative of a concave partial maximum, so it decreases. pi(kappa)
    zeroes mu - r - eta sigma^2 pi + eta sigma rho b kappa + f_pi(pi, kappa).
    Smooth g, f = -c pi^2 - p(kappa), makes that condition linear, so
    pi(kappa) = (mu - r + eta sigma rho b kappa) / (eta sigma^2 + 2c); it
    labels its kappa corners. The portfolio premium, f = -(1 - kappa) q(pi),
    takes a Brent root for pi(kappa): f_pi has the sign of -pi, so the root
    lies between 0 and the frictionless allocation x0, on a bracket widened
    by w = max(1, |x0|) for strict end signs under rounding, and the root
    stops at 1e-12 w, above pi's float spacing. It first checks its
    second-order bound, which makes f + H jointly concave, at pi = +-50 (q'
    increases in pi, so |q' + eta rho b sigma| peaks at an end); a kappa
    corner raises NoInteriorSolution.
    """
    eta = utility.eta
    mu, sig, rho = model.d1()
    b, lam = model.b, jumps.lam
    r = model.r
    if isinstance(friction, SmoothG):
        den = eta * sig * sig + 2.0 * friction.c
        pi_of = lambda k: (mu - r + eta * sig * rho * b * k) / den
        f_k = lambda x, k: -friction.premium.derivative(k)
    else:
        soc_lhs, soc_rhs = _soc_bound(friction.slope(_SOC_PI_ENDS), model,
                                      jumps, eta)
        if soc_lhs >= soc_rhs:
            raise SOCViolation(
                f"second-order bound fails on the search bracket: "
                f"max |q'+eta rho b sigma| = {soc_lhs:.6g} >= "
                f"|sigma| eta sqrt(b^2 + lambda E[Y^2]) = {soc_rhs:.6g}")

        def pi_of(k: float) -> float:
            def t(x: float) -> float:
                return mu - r - eta * sig * sig * x + eta * sig * rho * b * k \
                    - (1.0 - k) * float(friction.slope(x))
            x0 = (mu - r + eta * sig * rho * b * k) / (eta * sig * sig)
            w = max(1.0, abs(x0))
            return brent(t, min(0.0, x0) - w, max(0.0, x0) + w,
                         xtol=1e-12 * w).root
        f_k = lambda x, k: float(friction.rate(x, jumps))

    def foc(k: float) -> float:
        pi_k = pi_of(k)
        return f_k(pi_k, k) + eta * b * sig * rho * pi_k \
            - (eta * b * b * k + lam * (psi(jumps, k, eta) if lam > 0 else 0.0))

    k_hat, tag = _solve_kappa(foc)
    if isinstance(friction, SmoothG):
        label = {"lo": "SmoothG-2", "hi": "SmoothG-3"}.get(tag, "SmoothG-1")
    elif tag != "interior":
        raise NoInteriorSolution(
            "first-order condition has no sign change on (0, 1)")
    else:
        label = "PortfolioPremium-interior"
    return _certified(Policy(pi=np.array([pi_of(k_hat)]), kappa=k_hat),
                      label, None, model, jumps, friction, utility)


# ---------------------------------------------------------------------------
# Mutual-fund separation (differential rates, linear premium)
# ---------------------------------------------------------------------------

_FAMILY = {"i": "i", "iv": "i", "vi": "i",
           "ii": "ii", "v": "ii", "vii": "ii",
           "iii": "iii"}


@dataclass(frozen=True)
class MutualFundResult:
    delta: float
    policy: Policy
    endpoint_low: SolveReport     # solved at eta1
    endpoint_high: SolveReport    # solved at eta2


def mutual_fund_combine(model: MarketModel, jumps: JumpLaw,
                        premium_linear: PowerPremium, eta1: float,
                        eta2: float, eta_bar: float) -> MutualFundResult:
    """Combine the eta1 and eta2 optimal policies into one for eta_bar.

    Both endpoint solves must land in the same case family. When both
    endpoint kappas sit on the same corner the combination weight solves
    the harmonic-mean condition 1/eta_bar = delta/eta1 + (1 - delta)/eta2
    in closed form and the result is exact; for interior kappas the scalar
    optimality-defect function L has a Brent root in delta on [0, 1].
    """
    if not (isinstance(premium_linear, PowerPremium)
            and premium_linear.delta == 1.0):
        raise ValueError("mutual-fund separation assumes a linear premium")
    if not (eta1 < eta_bar < eta2):
        raise ValueError(f"need eta1 < eta_bar < eta2, got "
                         f"{eta1}, {eta_bar}, {eta2}")
    friction = DifferentialRates(premium_linear)
    rep1 = solve(model, jumps, friction, Utility(eta1))
    rep2 = solve(model, jumps, friction, Utility(eta2))
    fam1 = _FAMILY[rep1.case_label.split("-")[1]]
    fam2 = _FAMILY[rep2.case_label.split("-")[1]]
    if fam1 != fam2:
        raise CaseMismatch(f"endpoint regimes differ: {rep1.case_label} vs "
                           f"{rep2.case_label}")
    pi1, k1 = rep1.policy.pi, rep1.policy.kappa
    pi2, k2 = rep2.policy.pi, rep2.policy.kappa
    xi1, xi2 = rep1.xi_star, rep2.xi_star
    q = premium_linear.q
    util_bar = Utility(eta_bar)

    def f(d: float) -> float:
        pi_t = d * pi1 + (1.0 - d) * pi2
        k_t = d * k1 + (1.0 - d) * k2
        obj = eval_objective(Policy(pi=pi_t, kappa=k_t), model, jumps,
                             friction, util_bar)
        if fam1 == "i":
            xi = model.r
        elif fam1 == "ii":
            xi = model.R
        else:
            xi = d * xi1 + (1.0 - d) * xi2
        zeta = obj.grad_pi - (xi - model.r)
        return float(pi_t @ zeta) + k_t * (obj.dH_dkappa + q)

    if (min(k1, k2) >= 1.0 - 1e-9) or (max(k1, k2) <= 1e-9):
        # a shared corner kappa makes the kappa bracket of L slack; the
        # remaining gradient condition 1/eta_bar = d/eta1 + (1 - d)/eta2 is
        # linear in d
        delta = (1.0 / eta_bar - 1.0 / eta2) / (1.0 / eta1 - 1.0 / eta2)
    else:
        try:
            delta = brent(f, 0.0, 1.0, xtol=1e-10).root
        except BracketError as exc:
            raise NoRoot("combination function L has no sign change in "
                         "delta; separation hypothesis violated") from exc
    policy = Policy(pi=delta * pi1 + (1.0 - delta) * pi2,
                    kappa=delta * k1 + (1.0 - delta) * k2)
    return MutualFundResult(delta=delta, policy=policy, endpoint_low=rep1,
                            endpoint_high=rep2)


# ---------------------------------------------------------------------------
# The one entry point
# ---------------------------------------------------------------------------

def solve(model: MarketModel, jumps: JumpLaw, friction: FrictionSpec,
          utility: Utility) -> SolveReport:
    """The certified optimal policy under any friction regime.

    Validates the inputs as given, then solves a piecewise-linear friction
    with the shadow kernel and a smooth one with the smooth kernel. An
    object that is not a friction raises TypeError.
    """
    if not isinstance(friction, FrictionSpec):
        raise TypeError(f"no solver for friction {friction!r}")
    require_valid(model, jumps, friction, utility)
    smooth = isinstance(friction, (SmoothG, PortfolioPremium))
    kernel = _solve_smooth if smooth else _solve_shadow
    return kernel(model, jumps, friction, utility)
