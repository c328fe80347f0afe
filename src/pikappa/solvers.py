"""Optimal (pi, kappa) for each friction regime via the case-by-case
characterizations, with regime labels and optimality certificates.

Differential rates, the frictionless market and the large investor share one
kernel. Each friction is the concave piecewise-linear min over a shadow value
xi in an interval of xi times the slack of a hyperplane: xi in [r, R] with
pi.1 = 1 for differential rates (R = r without friction), and xi = r - m for
the price pressure m in [m+, m-] with pi = 0 for the large investor. For
fixed kappa the optimal xi is the hyperplane point, affine in kappa, clipped
to the interval, so one kappa root solves the whole case split, and the clip
names the case: an interval end for cases i and ii, the hyperplane for case
iii. Every regime solver ends in one evaluate / corner-check / certify step
that builds the SolveReport.

Every scalar root here is a bracketing bisection on a function that is
monotone by construction: the kappa first-order condition is the derivative
of a concave partial maximum, so it decreases in kappa (for the
portfolio-dependent premium, the second-order bound makes f + H jointly
concave). No root nests another: the risk-aversion thresholds bisect eta
alone, reading the sign of pi.1 - 1 from one h call at the kappa that puts
pi.1 on 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (BracketError, CaseMismatch, NoInteriorSolution, NoRoot,
                     NoSolution, NoThreshold, SOCViolation)
from .hamiltonian import (Certificate, DEFAULT_CERT_TOL, ObjectiveEval,
                          certify, eval_objective)
from .jumps import JumpFunctionals
from .models import (BetaJumps, DifferentialRates, FrictionSpec, Frictionless,
                     JumpLaw, LargeInvestor, LinearPremium, MarketModel,
                     Policy, PortfolioPremium, PremiumSchedule, SmoothG,
                     Utility, require_valid)
from .rootfind import bisect, expand_bracket

CORNER_TIE = 1e-12
KAPPA_XTOL = 1e-10
ETA_XTOL = 1e-8
# pi grid on which the portfolio-premium second-order bound is checked
_SOC_PI_GRID = np.linspace(-50.0, 50.0, 201)


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
    iterations: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)


def _kappa_upper(jumps: JumpLaw, eta: float) -> tuple[float, bool]:
    """Upper end of the kappa search interval.

    The kappa = 1 corner is excluded a priori when the Beta functional
    E[Y/(1-Y)^eta] diverges (eta >= beta with lambda > 0).
    """
    if jumps.lam > 0 and isinstance(jumps.law, BetaJumps) \
            and eta >= jumps.law.beta:
        return 1.0 - 1e-9, False
    return 1.0, True


def _solve_kappa(h, jumps: JumpLaw, eta: float):
    """Root of the strictly decreasing h on [0, 1] with corner handling.

    Returns (kappa, tag, iterations, residual); tag is "lo"/"hi" for strict
    corners, "tie" when h vanishes at a corner (labeled as the interior
    case) and "interior" otherwise.
    """
    hi, corner_ok = _kappa_upper(jumps, eta)
    h0 = h(0.0)
    if h0 < -CORNER_TIE:
        return 0.0, "lo", 0, h0
    if abs(h0) <= CORNER_TIE:
        return 0.0, "tie", 0, h0
    h1 = h(hi)
    if corner_ok and h1 > CORNER_TIE:
        return 1.0, "hi", 0, h1
    if corner_ok and abs(h1) <= CORNER_TIE:
        return 1.0, "tie", 0, h1
    if h1 >= 0.0:
        # corner excluded (eta >= beta); the root is within 1e-9 of 1
        return hi, "interior", 0, h1
    res = bisect(h, 0.0, hi, xtol=KAPPA_XTOL, flo=h0, fhi=h1)
    return res.root, "interior", res.iterations, res.residual


_ROMAN = {("i", "interior"): "i", ("i", "tie"): "i",
          ("i", "lo"): "iv", ("i", "hi"): "vi",
          ("ii", "interior"): "ii", ("ii", "tie"): "ii",
          ("ii", "lo"): "v", ("ii", "hi"): "vii"}


def _case_label(prefix: str, family: str, tag: str) -> str:
    if family == "iii":
        return f"{prefix}-iii"
    return f"{prefix}-{_ROMAN[(family, tag)]}"


def _corner_consistency(obj: ObjectiveEval, premium: PremiumSchedule | None,
                        kappa: float) -> float:
    """Corner optimality inequalities, returned as a violation magnitude."""
    if kappa <= 0.0:
        return max(obj.dH_dkappa - premium.derivative(0.0), 0.0)
    if kappa >= 1.0:
        return max(premium.derivative(1.0) - obj.dH_dkappa, 0.0)
    return 0.0


def _certified(policy: Policy, label: str, xi_star: float | None,
               model: MarketModel, jumps: JumpLaw, friction: FrictionSpec,
               utility: Utility, cert_tol: float, cache: JumpFunctionals,
               iterations: dict, residuals: dict) -> SolveReport:
    """Evaluate, corner-check and certify a candidate policy.

    Raises NoSolution when the certificate fails or a corner kappa violates
    its optimality inequality. Portfolio-premium candidates are interior, so
    their missing premium schedule is never consulted.
    """
    obj = eval_objective(policy, model, jumps, friction, utility, cache)
    corner_violation = _corner_consistency(
        obj, getattr(friction, "premium", None), policy.kappa)
    residuals["corner"] = corner_violation
    cert = certify(policy, model, jumps, friction, utility, tol=cert_tol,
                   cache=cache, obj=obj)
    residuals["certificate"] = cert.residual
    if not cert.passes or corner_violation > 1e-7:
        raise NoSolution(f"label={label} residual={cert.residual:.3e} "
                         f"in_domain={cert.in_domain} "
                         f"corner_violation={corner_violation:.3e}")
    return SolveReport(policy=policy, case_label=label, xi_star=xi_star,
                       objective=obj, certificate=cert,
                       iterations=iterations, residuals=residuals)


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
                 premium: PremiumSchedule, cache: JumpFunctionals):
        self.model = model
        self.jumps = jumps
        self.premium = premium
        self.cache = cache
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
        jump = self.jumps.lam * self.cache.psi(k, eta) \
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


def _shadow_case(kern: _DiffRatesKernel, eta: float, xi_lo: float,
                 xi_hi: float, level: float, below: str, above: str):
    """Case split on the shadow interval [xi_lo, xi_hi] and the hyperplane
    pi.1 = level, by one kappa root.

    For fixed kappa the optimal shadow value is the hyperplane point
    xi_plane(kappa) clipped to the interval, so h(kappa, clip(xi_plane))
    is the derivative in kappa of the partial maximum over pi of a jointly
    concave objective: it decreases, and its root is the optimum. The
    family is read off the clip: `below` at xi_lo, `above` at xi_hi and
    "iii" on the hyperplane.
    Returns (family, tag, xi, pi, kappa, iterations, residuals).
    """
    def xi_of(k: float) -> float:
        return min(max(kern.xi_plane(k, eta, level), xi_lo), xi_hi)

    kappa, tag, it_k, hres = _solve_kappa(
        lambda k: kern.h(k, xi_of(k), eta), kern.jumps, eta)
    xi_p = kern.xi_plane(kappa, eta, level)
    family = below if xi_p < xi_lo else above if xi_p > xi_hi else "iii"
    xi = xi_of(kappa)
    return (family, tag, xi, kern.pi(xi, kappa, eta), kappa,
            {"kappa": it_k}, {"h": hres})


def _solve_rates(model: MarketModel, jumps: JumpLaw,
                 friction: DifferentialRates | Frictionless, utility: Utility,
                 cert_tol: float, cache: JumpFunctionals | None,
                 prefix: str) -> SolveReport:
    require_valid(model, jumps, friction, utility)
    cache = cache or JumpFunctionals(jumps)
    kern = _DiffRatesKernel(model, jumps, friction.premium, cache)
    family, tag, xi, pi, kappa, iterations, residuals = _shadow_case(
        kern, utility.eta, model.r, model.R, 1.0, below="i", above="ii")
    return _certified(Policy(pi=pi, kappa=kappa),
                      _case_label(prefix, family, tag), xi, model, jumps,
                      friction, utility, cert_tol, cache, iterations,
                      residuals)


def solve_diff_rates(model: MarketModel, jumps: JumpLaw,
                     premium: PremiumSchedule, utility: Utility,
                     cert_tol: float = DEFAULT_CERT_TOL,
                     cache: JumpFunctionals | None = None) -> SolveReport:
    """Differential-rates regime: own funds (i), leverage (ii) or all-risky
    with a shadow rate (iii), with kappa corners labeled iv-vii."""
    return _solve_rates(model, jumps, DifferentialRates(premium), utility,
                        cert_tol, cache, "DiffRates")


def solve_frictionless(model: MarketModel, jumps: JumpLaw,
                       premium: PremiumSchedule, utility: Utility,
                       cert_tol: float = DEFAULT_CERT_TOL,
                       cache: JumpFunctionals | None = None) -> SolveReport:
    """No portfolio friction: the R = r special case of differential rates."""
    return _solve_rates(model.replace(R=model.r), jumps, Frictionless(premium),
                        utility, cert_tol, cache, "Frictionless")


def solve_large_investor(model: MarketModel, jumps: JumpLaw,
                         premium: PremiumSchedule, m_plus: float,
                         m_minus: float, utility: Utility,
                         cert_tol: float = DEFAULT_CERT_TOL,
                         cache: JumpFunctionals | None = None) -> SolveReport:
    """Large-investor regime: differential rates with the shadow rate
    xi = r - m for the price pressure m in [m+, m-] and the hyperplane
    pi = 0 in place of pi.1 = 1. Long (i), short (ii) or no trade (iii),
    with kappa corners labeled iv-vii; xi_star reports the active m."""
    friction = LargeInvestor(premium=premium, m_plus=m_plus, m_minus=m_minus)
    require_valid(model, jumps, friction, utility)
    cache = cache or JumpFunctionals(jumps)
    kern = _DiffRatesKernel(model, jumps, premium, cache)
    r = model.r
    family, tag, xi, pi, kappa, iterations, residuals = _shadow_case(
        kern, utility.eta, r - m_minus, r - m_plus, 0.0, below="ii",
        above="i")
    if family == "iii":
        pi, m_hat = np.zeros(1), r - xi
    else:
        m_hat = m_plus if family == "i" else m_minus
    return _certified(Policy(pi=pi, kappa=kappa),
                      _case_label("Large", family, tag), m_hat, model, jumps,
                      friction, utility, cert_tol, cache, iterations,
                      residuals)


def threshold_etas(model: MarketModel, jumps: JumpLaw,
                   premium: PremiumSchedule,
                   lo: float = 1e-3, hi: float | None = None,
                   xtol: float = ETA_XTOL) -> tuple[float, float]:
    """Risk-aversion thresholds (eta_R, eta_r) bracketing the all-risky band.

    eta_R solves pi(R, eta).1 = 1 and eta_r solves pi(r, eta).1 = 1 at the
    optimal kappa. For fixed xi, pi.1 = a/eta + c kappa with
    a = 1'S^-1(mu - xi 1) and c = 1'hedge, so pi.1 - 1 = c (kappa - k_p)
    for k_p = (1 - a/eta)/c. As h(., xi, eta) decreases, kappa > k_p
    exactly when h(k_p) > 0 for k_p inside the kappa interval, and outside
    it the sign is fixed: one eta bisection, no kappa root inside it.
    """
    require_valid(model, jumps, DifferentialRates(premium),
                  Utility(eta=max(lo, 1e-3)))
    if hi is None:
        if isinstance(jumps.law, BetaJumps):
            hi = jumps.law.beta - 1e-3
        else:
            hi = 64.0
    cache = JumpFunctionals(jumps)
    kern = _DiffRatesKernel(model, jumps, premium, cache)
    c = kern.bB_one

    def threshold_at(xi: float) -> float:
        a = kern.sinv_mu - xi * kern.sinv_one

        def sign_of_excess(eta: float) -> float:
            # has the sign of pi(xi, kappa(xi, eta)).1 - 1
            if c == 0.0:
                return a / eta - 1.0
            k_p = (1.0 - a / eta) / c
            if 0.0 < k_p < _kappa_upper(jumps, eta)[0]:
                return c * kern.h(k_p, xi, eta)
            return -c * k_p

        f_lo, f_hi = sign_of_excess(lo), sign_of_excess(hi)
        if (f_lo > 0) == (f_hi > 0):
            raise NoThreshold(
                f"pi(xi={xi}).1 - 1 has no sign change for eta in "
                f"({lo}, {hi}): {'> 0' if f_lo > 0 else '<= 0'} at both ends")
        return bisect(sign_of_excess, lo, hi, xtol=xtol, flo=f_lo,
                      fhi=f_hi).root

    return threshold_at(model.R), threshold_at(model.r)


# ---------------------------------------------------------------------------
# Smooth strictly concave g (one risky asset)
# ---------------------------------------------------------------------------

def _normalize_smooth_g(premium: PremiumSchedule, g) -> SmoothG:
    if isinstance(g, SmoothG):
        return SmoothG(premium=premium, g=g.g, g_prime=g.g_prime,
                       g_second=g.g_second)
    g_fn, gp, gpp = g
    return SmoothG(premium=premium, g=g_fn, g_prime=gp, g_second=gpp)


def solve_smooth_g(model: MarketModel, jumps: JumpLaw,
                   premium: PremiumSchedule, g, utility: Utility,
                   cert_tol: float = DEFAULT_CERT_TOL,
                   cache: JumpFunctionals | None = None) -> SolveReport:
    """Smooth-friction regime: invert Q = eta sigma^2 pi - g' and solve the
    retained-fraction equation h(kappa) = 0, corners per the optimality
    system's kappa inequalities.

    g is a SmoothG friction or a (g, g', g'') triple of callables.
    """
    friction = _normalize_smooth_g(premium, g)
    require_valid(model, jumps, friction, utility)
    cache = cache or JumpFunctionals(jumps)
    eta = utility.eta
    mu, sig, rho = model.d1()
    b, lam = model.b, jumps.lam
    r = model.r

    def Q(x: float) -> float:
        return eta * sig * sig * x - float(friction.g_prime(x))

    def Q_inv(target: float) -> float:
        x0 = target / (eta * sig * sig)
        try:
            lo_b, hi_b = expand_bracket(lambda x: Q(x) - target, x0=x0,
                                        step=max(1.0, abs(x0)))
        except BracketError as exc:
            raise BracketError(
                f"argument {target:.6g} left the range of Q") from exc
        return bisect(lambda x: Q(x) - target, lo_b, hi_b, xtol=1e-12).root

    def h(k: float) -> float:
        pi_k = Q_inv(mu - r + eta * sig * rho * b * k)
        jump = lam * cache.psi(k, eta) if lam > 0 else 0.0
        return eta * b * (sig * rho * pi_k - b * k) - jump \
            - premium.derivative(k)

    k_hat, tag, it_k, hres = _solve_kappa(h, jumps, eta)
    pi_hat = Q_inv(mu - r + eta * sig * rho * b * k_hat)

    label = {"interior": "SmoothG-1", "tie": "SmoothG-1",
             "lo": "SmoothG-2", "hi": "SmoothG-3"}[tag]
    return _certified(Policy(pi=np.array([pi_hat]), kappa=k_hat), label,
                      None, model, jumps, friction, utility, cert_tol, cache,
                      {"kappa": it_k}, {"h": hres})


# ---------------------------------------------------------------------------
# Portfolio-dependent premium rate (one risky asset)
# ---------------------------------------------------------------------------

def solve_portfolio_premium(model: MarketModel, jumps: JumpLaw, q_fn,
                            utility: Utility,
                            cert_tol: float = DEFAULT_CERT_TOL,
                            cache: JumpFunctionals | None = None) -> SolveReport:
    """Interior solve for f = -(1-kappa) q(pi).

    q_fn is a PortfolioPremium friction or a (q, q') pair. With q convex,
    pi(kappa) is the one root of the allocation first-order condition, which
    decreases in pi. Under the second-order bound, checked on a pi grid, the
    Hessian of f + H in (pi, kappa) is negative definite, so the
    retained-fraction condition Q(pi(kappa)) - G(kappa), with
    Q(pi) = q(pi) + eta b sigma rho pi, is the derivative of a concave
    partial maximum: it decreases, and one kappa root solves the problem.
    A kappa corner raises NoInteriorSolution.
    """
    if isinstance(q_fn, PortfolioPremium):
        friction = q_fn
    else:
        friction = PortfolioPremium(q=q_fn[0], q_prime=q_fn[1])
    require_valid(model, jumps, friction, utility)
    cache = cache or JumpFunctionals(jumps)
    eta = utility.eta
    mu, sig, rho = model.d1()
    b, lam = model.b, jumps.lam
    r = model.r

    qp_grid = np.array([friction.q_prime(x) for x in _SOC_PI_GRID])
    soc_rhs = sig * sig * eta * eta * (b * b + lam * cache.second_moment)
    soc_lhs = float(np.max((qp_grid + eta * rho * b * sig) ** 2))
    if soc_lhs >= soc_rhs:
        raise SOCViolation(
            f"second-order bound fails on the search bracket: "
            f"max (q'+eta rho b sigma)^2 = {soc_lhs:.6g} >= "
            f"sigma^2 eta^2 (b^2 + lambda E[Y^2]) = {soc_rhs:.6g}")

    def pi_from_kappa(k: float) -> float:
        # allocation FOC: mu - r - eta sig^2 pi + eta sig rho b k
        #                 - q'(pi)(1 - k) = 0, strictly decreasing in pi
        def t(x):
            return mu - r - eta * sig * sig * x + eta * sig * rho * b * k \
                - float(friction.q_prime(x)) * (1.0 - k)
        x0 = (mu - r + eta * sig * rho * b * k) / (eta * sig * sig)
        lo_b, hi_b = expand_bracket(t, x0=x0, step=max(1.0, abs(x0)))
        return bisect(t, lo_b, hi_b, xtol=1e-12).root

    def G(k: float) -> float:
        return eta * b * b * k + lam * (cache.psi(k, eta) if lam > 0 else 0.0)

    def foc(k: float) -> float:
        # retained-fraction FOC, Q(pi(k)) - G(k) = 0
        pi_k = pi_from_kappa(k)
        return float(friction.q(pi_k)) + eta * b * sig * rho * pi_k - G(k)

    k_hat, tag, it_k, res_k = _solve_kappa(foc, jumps, eta)
    if tag != "interior" or k_hat >= _kappa_upper(jumps, eta)[0]:
        raise NoInteriorSolution(
            "first-order condition has no sign change on (0, 1)")
    return _certified(Policy(pi=np.array([pi_from_kappa(k_hat)]),
                             kappa=k_hat),
                      "PortfolioPremium-interior", None, model, jumps,
                      friction, utility, cert_tol, cache,
                      {"kappa": it_k}, {"foc": res_k})


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
                        premium_linear: LinearPremium, eta1: float,
                        eta2: float, eta_bar: float,
                        cache: JumpFunctionals | None = None) -> MutualFundResult:
    """Combine the eta1 and eta2 optimal policies into one for eta_bar.

    Both endpoint solves must land in the same case family. When both
    endpoint kappas sit on the same corner the combination weight reduces to
    the harmonic-mean condition on eta and the result is exact; for interior
    kappas the scalar optimality-defect function L is bisected in delta.
    """
    if not isinstance(premium_linear, LinearPremium):
        raise ValueError("mutual-fund separation assumes a linear premium")
    if not (eta1 < eta_bar < eta2):
        raise ValueError(f"need eta1 < eta_bar < eta2, got "
                         f"{eta1}, {eta_bar}, {eta2}")
    cache = cache or JumpFunctionals(jumps)
    rep1 = solve_diff_rates(model, jumps, premium_linear, Utility(eta1),
                            cache=cache)
    rep2 = solve_diff_rates(model, jumps, premium_linear, Utility(eta2),
                            cache=cache)
    fam1 = _FAMILY[rep1.case_label.split("-")[1]]
    fam2 = _FAMILY[rep2.case_label.split("-")[1]]
    if fam1 != fam2:
        raise CaseMismatch(f"endpoint regimes differ: {rep1.case_label} vs "
                           f"{rep2.case_label}")
    pi1, k1 = rep1.policy.pi, rep1.policy.kappa
    pi2, k2 = rep2.policy.pi, rep2.policy.kappa
    xi1, xi2 = rep1.xi_star, rep2.xi_star
    friction = DifferentialRates(premium_linear)
    q = premium_linear.q
    util_bar = Utility(eta_bar)

    same_corner = (min(k1, k2) >= 1.0 - 1e-9) or (max(k1, k2) <= 1e-9)
    if same_corner:
        # corner kappa makes the kappa bracket of L slack; the remaining
        # gradient condition is the harmonic-mean equation in delta
        f = lambda d: 1.0 - eta_bar * (d / eta1 + (1.0 - d) / eta2)
    else:
        def f(d: float) -> float:
            pi_t = d * pi1 + (1.0 - d) * pi2
            k_t = d * k1 + (1.0 - d) * k2
            obj = eval_objective(Policy(pi=pi_t, kappa=k_t), model, jumps,
                                 friction, util_bar, cache)
            if fam1 == "i":
                xi = model.r
            elif fam1 == "ii":
                xi = model.R
            else:
                xi = d * xi1 + (1.0 - d) * xi2
            zeta = obj.grad_pi - (xi - model.r)
            return float(pi_t @ zeta) + k_t * (obj.dH_dkappa + q)

    try:
        res = bisect(f, 0.0, 1.0, xtol=1e-10)
    except BracketError as exc:
        raise NoRoot("combination function L has no sign change in delta; "
                     "separation hypothesis violated") from exc
    delta = res.root
    policy = Policy(pi=delta * pi1 + (1.0 - delta) * pi2,
                    kappa=delta * k1 + (1.0 - delta) * k2)
    return MutualFundResult(delta=delta, policy=policy, endpoint_low=rep1,
                            endpoint_high=rep2)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def solve(model: MarketModel, jumps: JumpLaw, friction: FrictionSpec,
          utility: Utility, cert_tol: float = DEFAULT_CERT_TOL,
          cache: JumpFunctionals | None = None) -> SolveReport:
    """Route to the regime solver selected by the friction variant."""
    if isinstance(friction, DifferentialRates):
        return solve_diff_rates(model, jumps, friction.premium, utility,
                                cert_tol=cert_tol, cache=cache)
    if isinstance(friction, Frictionless):
        return solve_frictionless(model, jumps, friction.premium, utility,
                                  cert_tol=cert_tol, cache=cache)
    if isinstance(friction, SmoothG):
        return solve_smooth_g(model, jumps, friction.premium, friction,
                              utility, cert_tol=cert_tol, cache=cache)
    if isinstance(friction, LargeInvestor):
        return solve_large_investor(model, jumps, friction.premium,
                                    friction.m_plus, friction.m_minus,
                                    utility, cert_tol=cert_tol, cache=cache)
    if isinstance(friction, PortfolioPremium):
        return solve_portfolio_premium(model, jumps, friction, utility,
                                       cert_tol=cert_tol, cache=cache)
    raise TypeError(f"no solver for friction {friction!r}")
