"""Reduced objective f + H, its gradient, the friction conjugate, the
optimality certificate and the closed-form value function.

H(pi, kappa; eta) = pi.(mu - r 1) - (eta/2)[|sigma^T pi|^2 + (b kappa)^2
                    - 2 b kappa pi.sigma rho] + lambda E[U_eta(1 - kappa Y)]

A policy is globally optimal for the reduced problem exactly when the
conjugate identity f(p) + p.grad = f~(grad) holds at its own gradient, which
is what certify() checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .jumps import JumpFunctionals, _overflow_as_domain_error
from .models import (DifferentialRates, FrictionSpec, Frictionless, JumpLaw,
                     LargeInvestor, LinearPremium, MarketModel, Policy,
                     PortfolioPremium, PowerPremium, PremiumSchedule, SmoothG,
                     TabulatedPremium, Utility)
from .rootfind import bisect, expand_bracket

DOMAIN_TOL = 1e-9
DEFAULT_CERT_TOL = 1e-7


@dataclass(frozen=True)
class ObjectiveEval:
    """f + H and its pieces at one policy (all rates per year)."""
    value: float
    grad_pi: np.ndarray
    dH_dkappa: float
    f_value: float
    H_value: float


def _each(fn, x):
    """A scalar callable applied to every entry of x, one float at a time:
    the user callables (g, q, tabulated premiums) need not broadcast."""
    x = np.asarray(x)
    return np.array([float(fn(float(v))) for v in x.ravel()]).reshape(x.shape)


def _premium_value(premium: PremiumSchedule, kappa):
    if isinstance(premium, TabulatedPremium):
        return _each(premium.value, kappa)
    return premium.value(kappa)


def _pi_friction(friction: FrictionSpec, model: MarketModel, pi: np.ndarray):
    """The part of a separable friction that depends on pi alone."""
    if isinstance(friction, Frictionless):
        return 0.0
    if isinstance(friction, DifferentialRates):
        return -(model.R - model.r) * np.maximum(pi.sum(axis=-1) - 1.0, 0.0)
    if isinstance(friction, SmoothG):
        return _each(friction.g, pi[..., 0])
    if isinstance(friction, LargeInvestor):
        p = pi[..., 0]
        return p * np.where(p >= 0.0, friction.m_plus, friction.m_minus)
    raise TypeError(f"unknown friction {friction!r}")


def friction_term(friction: FrictionSpec, model: MarketModel,
                  pi: np.ndarray, kappa):
    """The drift friction f(pi, kappa) for any regime.

    The last axis of pi holds the d weights; its other axes broadcast
    against kappa, so a grid of portfolios of shape (..., 1, d) against a
    kappa axis gives the whole table at once. One policy gives a float.
    """
    if isinstance(friction, PortfolioPremium):
        f = -(1.0 - kappa) * _each(friction.q, pi[..., 0])
    else:
        f = _pi_friction(friction, model, pi) \
            - _premium_value(friction.premium, kappa)
    return float(f) if np.ndim(f) == 0 else f


def eval_objective(policy: Policy, model: MarketModel, jumps: JumpLaw,
                   friction: FrictionSpec, utility: Utility,
                   cache: JumpFunctionals | None = None) -> ObjectiveEval:
    """Evaluate f + H, the gradient of H in pi and its kappa derivative."""
    if not (0.0 <= policy.kappa <= 1.0):
        raise DomainError(f"kappa={policy.kappa} outside [0, 1]")
    eta = utility.eta
    pi = policy.pi
    kappa = policy.kappa
    b = model.b
    lam = jumps.lam
    if cache is None:
        cache = JumpFunctionals(jumps)

    st_pi = model.sigma.T @ pi
    srho = model.sigma @ model.rho
    pi_srho = float(pi @ srho)
    quad = float(st_pi @ st_pi) + (b * kappa) ** 2 - 2.0 * b * kappa * pi_srho

    jump_u = cache.utility_jump_term(kappa, eta) if lam > 0.0 else 0.0
    jump_psi = cache.psi(kappa, eta) if lam > 0.0 else 0.0

    excess = pi @ (model.mu - model.r * np.ones(model.d))
    H = float(excess) - 0.5 * eta * quad + lam * jump_u
    grad_pi = model.mu - model.r * np.ones(model.d) \
        - eta * (model.sigma @ (st_pi - model.rho * b * kappa))
    dH_dk = eta * b * (pi_srho - b * kappa) - lam * jump_psi

    f = friction_term(friction, model, pi, kappa)
    return ObjectiveEval(value=f + H, grad_pi=grad_pi, dH_dkappa=dH_dk,
                         f_value=f, H_value=H)


# ---------------------------------------------------------------------------
# Convex conjugate
# ---------------------------------------------------------------------------

def conj_premium(gamma: float, premium: PremiumSchedule) -> float:
    """sup over kappa in [0,1] of -p(kappa) + gamma kappa."""
    if isinstance(premium, LinearPremium):
        # Range p' is the single point -q; endpoint enumeration is exact.
        return max(-premium.q, gamma)
    if isinstance(premium, PowerPremium):
        if premium.delta == 1.0 or premium.q == 0.0:
            return max(-premium.q, gamma)
        q, delta = premium.q, premium.delta
        dp0, dp1 = -q * delta, 0.0
        if gamma <= dp0:
            return -q
        if gamma >= dp1:
            return gamma
        kstar = 1.0 - (-gamma / (q * delta)) ** (1.0 / (delta - 1.0))
        return -premium.value(kstar) + gamma * kstar
    dp0 = premium.derivative(0.0)
    dp1 = premium.derivative(1.0)
    if gamma < dp0:
        return -premium.value(0.0)
    if gamma > dp1:
        return gamma
    kstar = bisect(lambda k: premium.derivative(k) - gamma, 0.0, 1.0,
                   xtol=1e-12).root
    return -premium.value(kstar) + gamma * kstar


def conjugate(zeta: np.ndarray, gamma: float, friction: FrictionSpec,
              model: MarketModel) -> tuple[float, bool]:
    """f~(zeta, gamma) and whether (zeta, gamma) lies in the effective domain.

    Out-of-domain points return (+inf, False).
    """
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    if isinstance(friction, Frictionless):
        if float(np.max(np.abs(zeta))) > DOMAIN_TOL:
            return (math.inf, False)
        return (conj_premium(gamma, friction.premium), True)
    if isinstance(friction, DifferentialRates):
        zbar = float(zeta.mean())
        spread = model.R - model.r
        if float(np.max(np.abs(zeta - zbar))) > DOMAIN_TOL:
            return (math.inf, False)
        if zbar < -DOMAIN_TOL or zbar > spread + DOMAIN_TOL:
            return (math.inf, False)
        zbar = min(max(zbar, 0.0), spread)
        return (zbar + conj_premium(gamma, friction.premium), True)
    if isinstance(friction, LargeInvestor):
        z = float(zeta[0])
        if not (friction.m_plus - DOMAIN_TOL <= -z <= friction.m_minus + DOMAIN_TOL):
            return (math.inf, False)
        return (conj_premium(gamma, friction.premium), True)
    if isinstance(friction, SmoothG):
        z = float(zeta[0])
        try:
            lo, hi = expand_bracket(lambda x: friction.g_prime(x) + z,
                                    x0=0.0, step=1.0, max_expand=60)
            x = bisect(lambda x_: friction.g_prime(x_) + z, lo, hi,
                       xtol=1e-12).root
        except Exception:
            return (math.inf, False)
        val = float(friction.g(x)) + z * x \
            + conj_premium(gamma, friction.premium)
        return (val, True)
    raise ValueError("the conjugate of the portfolio-dependent premium "
                     "friction is not piecewise-simple; certify() uses the "
                     "first/second-order conditions for that regime")


# ---------------------------------------------------------------------------
# Certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Both sides of the conjugate optimality identity at a policy.

    mode is "conjugate" for the separable frictions and "foc" for the
    portfolio-dependent premium, where the residual is the largest
    first-order-condition violation and in_domain records the second-order
    bound instead.
    """
    conjugate_value: float
    direct_value: float
    residual: float
    in_domain: bool
    passes: bool
    tol: float
    mode: str = "conjugate"


def _certify_foc(policy: Policy, model: MarketModel, jumps: JumpLaw,
                 friction: PortfolioPremium, utility: Utility, tol: float,
                 obj: ObjectiveEval, cache: JumpFunctionals) -> Certificate:
    eta = utility.eta
    _, sig, rho = model.d1()
    pi = float(policy.pi[0])
    kappa = policy.kappa
    qp = float(friction.q_prime(pi))
    foc_pi = -qp * (1.0 - kappa) + float(obj.grad_pi[0])
    foc_k = float(friction.q(pi)) + obj.dH_dkappa
    if kappa <= tol:
        k_res = max(foc_k, 0.0)            # corner: slope must push down
    elif kappa >= 1.0 - tol:
        k_res = max(-foc_k, 0.0)
    else:
        k_res = abs(foc_k)
    residual = max(abs(foc_pi), k_res)
    soc_lhs = (qp + eta * rho * model.b * sig) ** 2
    soc_rhs = sig * sig * eta * eta \
        * (model.b ** 2 + jumps.lam * cache.second_moment)
    in_domain = soc_lhs < soc_rhs
    return Certificate(conjugate_value=math.nan, direct_value=math.nan,
                       residual=residual, in_domain=in_domain,
                       passes=in_domain and residual <= tol, tol=tol,
                       mode="foc")


def certify(policy: Policy, model: MarketModel, jumps: JumpLaw,
            friction: FrictionSpec, utility: Utility,
            tol: float = DEFAULT_CERT_TOL,
            cache: JumpFunctionals | None = None,
            obj: ObjectiveEval | None = None) -> Certificate:
    """Check the conjugate optimality identity at the policy's own gradient.

    A passing certificate proves global optimality of the policy for the
    reduced problem.
    """
    if cache is None:
        cache = JumpFunctionals(jumps)
    if obj is None:
        obj = eval_objective(policy, model, jumps, friction, utility, cache)
    if isinstance(friction, PortfolioPremium):
        return _certify_foc(policy, model, jumps, friction, utility, tol,
                            obj, cache)
    zeta = obj.grad_pi
    gamma = obj.dH_dkappa
    direct = obj.f_value + float(policy.pi @ zeta) + policy.kappa * gamma
    conj, in_dom = conjugate(zeta, gamma, friction, model)
    residual = conj - direct if in_dom else math.inf
    return Certificate(conjugate_value=conj, direct_value=direct,
                       residual=residual, in_domain=in_dom,
                       passes=in_dom and abs(residual) <= tol, tol=tol)


# ---------------------------------------------------------------------------
# Value function
# ---------------------------------------------------------------------------

@_overflow_as_domain_error
def value_function(t: float, x: float, T: float, optimal_eval: ObjectiveEval,
                   model: MarketModel, jumps: JumpLaw,
                   utility: Utility) -> float:
    """Closed-form expected terminal utility under the certified policy.

    v(t, x) = theta(t) x^(1-eta) / (1-eta) with
    theta(t) = exp{[(1-eta)(r + f + H) - lambda](T - t)}; the log case is the
    eta -> 1 limit, v = ln x + (r + f + H)(T - t). Matches the exact law of
    the terminal wealth for constant policies.
    """
    if x <= 0.0:
        raise DomainError(f"wealth x={x} must be positive")
    eta = utility.eta
    tau = T - t
    fh = optimal_eval.value
    if eta == 1.0:
        return math.log(x) + (model.r + fh) * tau
    theta = math.exp(((1.0 - eta) * (model.r + fh) - jumps.lam) * tau)
    return theta * x ** (1.0 - eta) / (1.0 - eta)
