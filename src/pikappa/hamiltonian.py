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
from .jumps import _overflow_as_domain_error, psi, utility_jump_term
from .models import (DifferentialRates, FrictionSpec, Frictionless, JumpLaw,
                     LargeInvestor, MarketModel, Policy, PortfolioPremium,
                     PowerPremium, SmoothG, Utility, law_second_moment)

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


def _shadow_interval(friction: FrictionSpec, model: MarketModel):
    """(lo, hi, level) of a piecewise-linear friction, stated as
    f(pi) = min over x in [lo, hi] of -x (pi.1 - level), with x = xi - r the
    shadow value over the lending rate: the borrowing spread on pi.1 = 1
    for differential rates, none for the frictionless market, and minus the
    price pressure on pi = 0 for the large investor."""
    if isinstance(friction, DifferentialRates):
        return 0.0, model.R - model.r, 1.0
    if isinstance(friction, Frictionless):
        return 0.0, 0.0, 1.0
    if isinstance(friction, LargeInvestor):
        return -friction.m_minus, -friction.m_plus, 0.0
    raise TypeError(f"{friction!r} is not a piecewise-linear friction")


def _pi_friction(friction: FrictionSpec, model: MarketModel, pi: np.ndarray):
    """The part of a separable friction that depends on pi alone."""
    if isinstance(friction, SmoothG):
        x = pi[..., 0]
        return -friction.c * x * x
    lo, hi, level = _shadow_interval(friction, model)
    s = pi.sum(axis=-1) - level
    return -np.maximum(lo * s, hi * s)


def friction_term(friction: FrictionSpec, model: MarketModel, jumps: JumpLaw,
                  pi: np.ndarray, kappa):
    """The drift friction f(pi, kappa) for any regime; the jump law gives
    the portfolio premium's fair part.

    The last axis of pi holds the d weights; its other axes broadcast
    against kappa, so a grid of portfolios of shape (..., 1, d) against a
    kappa axis gives the whole table at once. One policy gives a float.
    """
    if isinstance(friction, PortfolioPremium):
        f = -(1.0 - kappa) * friction.rate(pi[..., 0], jumps)
    else:
        f = _pi_friction(friction, model, pi) - friction.premium.value(kappa)
    return float(f) if np.ndim(f) == 0 else f


def eval_objective(policy: Policy, model: MarketModel, jumps: JumpLaw,
                   friction: FrictionSpec, utility: Utility) -> ObjectiveEval:
    """Evaluate f + H, the gradient of H in pi and its kappa derivative."""
    eta = utility.eta
    pi = policy.pi
    kappa = policy.kappa
    b = model.b
    lam = jumps.lam

    # a huge policy overflows to a non-finite value, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        st_pi = model.sigma.T @ pi
        pi_srho = float(pi @ (model.sigma @ model.rho))
        quad = float(st_pi @ st_pi) + (b * kappa) ** 2 \
            - 2.0 * b * kappa * pi_srho
        jump_u = utility_jump_term(jumps, kappa, eta) if lam > 0.0 else 0.0
        jump_psi = psi(jumps, kappa, eta) if lam > 0.0 else 0.0
        excess = pi @ (model.mu - model.r * np.ones(model.d))
        H = float(excess) - 0.5 * eta * quad + lam * jump_u
        grad_pi = model.mu - model.r * np.ones(model.d) \
            - eta * (model.sigma @ (st_pi - model.rho * b * kappa))
        dH_dk = eta * b * (pi_srho - b * kappa) - lam * jump_psi
        f = friction_term(friction, model, jumps, pi, kappa)
    if not math.isfinite(f + H):
        raise DomainError(f"f + H = {f + H} at pi={pi.tolist()}, "
                          f"kappa={kappa}")
    return ObjectiveEval(value=f + H, grad_pi=grad_pi, dH_dkappa=dH_dk,
                         f_value=f, H_value=H)


# ---------------------------------------------------------------------------
# Convex conjugate
# ---------------------------------------------------------------------------

def conj_premium(gamma: float, premium: PowerPremium) -> float:
    """sup over kappa in [0,1] of -p(kappa) + gamma kappa."""
    if premium.delta == 1.0 or premium.q == 0.0:
        # Range p' is the single point -q; endpoint enumeration is exact.
        return max(-premium.q, gamma)
    q, delta = premium.q, premium.delta
    if gamma <= -q * delta:
        return -q
    if gamma >= 0.0:
        return gamma
    kstar = 1.0 - (-gamma / (q * delta)) ** (1.0 / (delta - 1.0))
    return -premium.value(kstar) + gamma * kstar


def conjugate(zeta: np.ndarray, gamma: float, friction: FrictionSpec,
              model: MarketModel) -> tuple[float, bool]:
    """f~(zeta, gamma) and whether (zeta, gamma) lies in the effective domain.

    Out-of-domain points return (+inf, False).
    """
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    if isinstance(friction, PortfolioPremium):
        raise ValueError("the conjugate of the portfolio-dependent premium "
                         "friction is not piecewise-simple; certify() uses "
                         "the first/second-order conditions for that regime")
    if isinstance(friction, SmoothG):
        # sup over x of -c x^2 + z x, attained at x = z / (2c)
        z = float(zeta[0])
        return (z * z / (4.0 * friction.c)
                + conj_premium(gamma, friction.premium), True)
    # sup over pi of min over x of -x (pi.1 - level) + pi.zeta is finite
    # only for zeta = x 1 with x in [lo, hi], where it is x level
    lo, hi, level = _shadow_interval(friction, model)
    zbar = float(zeta.mean())
    if float(np.max(np.abs(zeta - zbar))) > DOMAIN_TOL \
            or zbar < lo - DOMAIN_TOL or zbar > hi + DOMAIN_TOL:
        return (math.inf, False)
    return (min(max(zbar, lo), hi) * level
            + conj_premium(gamma, friction.premium), True)


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
    mode: str = "conjugate"


def _soc_bound(q_prime, model: MarketModel, jumps: JumpLaw,
               eta: float) -> tuple[float, float]:
    """Both sides of the portfolio premium's second-order bound: the largest
    |q' + eta rho b sigma| over the given q' values, and
    |sigma| eta sqrt(b^2 + lambda E[Y^2]). The Hessian of f + H in
    (pi, kappa) is negative definite where the first is below the second.
    Unsquared, the sides stay finite where eta b sigma is past 1e154."""
    _, sig, rho = model.d1()
    b = model.b
    lhs = float(np.max(np.abs(np.asarray(q_prime) + eta * rho * b * sig)))
    ey2 = law_second_moment(jumps.law)
    rhs = abs(sig) * eta * math.sqrt(b * b + jumps.lam * ey2)
    return lhs, rhs


def _certify_foc(policy: Policy, model: MarketModel, jumps: JumpLaw,
                 friction: PortfolioPremium, utility: Utility, tol: float,
                 obj: ObjectiveEval) -> Certificate:
    pi = float(policy.pi[0])
    kappa = policy.kappa
    qp = float(friction.slope(pi))
    foc_pi = -qp * (1.0 - kappa) + float(obj.grad_pi[0])
    foc_k = float(friction.rate(pi, jumps)) + obj.dH_dkappa
    if kappa <= tol:
        k_res = max(foc_k, 0.0)            # corner: slope must push down
    elif kappa >= 1.0 - tol:
        k_res = max(-foc_k, 0.0)
    else:
        k_res = abs(foc_k)
    residual = max(abs(foc_pi), k_res)
    soc_lhs, soc_rhs = _soc_bound(qp, model, jumps, utility.eta)
    in_domain = soc_lhs < soc_rhs
    return Certificate(conjugate_value=math.nan, direct_value=math.nan,
                       residual=residual, in_domain=in_domain,
                       passes=in_domain and residual <= tol, mode="foc")


def certify(policy: Policy, model: MarketModel, jumps: JumpLaw,
            friction: FrictionSpec, utility: Utility,
            tol: float = DEFAULT_CERT_TOL,
            obj: ObjectiveEval | None = None) -> Certificate:
    """Check the conjugate optimality identity at the policy's own gradient.

    A passing certificate proves global optimality of the policy for the
    reduced problem. The identity passes when |conjugate - direct| <= tol
    times the largest of 1, |conjugate| and the terms f, pi.zeta and
    kappa gamma that direct adds up: tol is absolute on an O(1) objective
    and relative where those terms are large, as at a tiny eta, where f
    and pi.zeta cancel to O(1) and their round-off alone exceeds an
    absolute tol. (The portfolio premium's first-order conditions stay
    absolute.)
    """
    if obj is None:
        obj = eval_objective(policy, model, jumps, friction, utility)
    if isinstance(friction, PortfolioPremium):
        return _certify_foc(policy, model, jumps, friction, utility, tol, obj)
    zeta = obj.grad_pi
    gamma = obj.dH_dkappa
    pi_zeta = float(policy.pi @ zeta)
    kappa_gamma = policy.kappa * gamma
    direct = obj.f_value + pi_zeta + kappa_gamma
    conj, in_dom = conjugate(zeta, gamma, friction, model)
    residual = conj - direct if in_dom else math.inf
    scale = max(1.0, abs(conj), abs(obj.f_value), abs(pi_zeta),
                abs(kappa_gamma))
    return Certificate(conjugate_value=conj, direct_value=direct,
                       residual=residual, in_domain=in_dom,
                       passes=in_dom and abs(residual) <= tol * scale)


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
