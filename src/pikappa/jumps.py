"""Expectations over the jump size Y needed by the objective and solvers.

Every Beta-law functional has two independent evaluation paths: a Gaussian
hypergeometric power series (primary for kappa away from 1) and adaptive
quadrature against the Beta density with algebraic endpoint weights
(fallback near kappa = 1 and the cross-check oracle in tests). Discrete laws
are exact weighted sums.
"""

from __future__ import annotations

import enum
import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .errors import DomainError, NonConvergence
from .models import BetaJumps, DiscreteJumps, JumpLaw

SERIES_SWITCH = 1.0 - 1e-6     # series below, quadrature above
SERIES_RTOL = 1e-14
SERIES_MAX_TERMS = 200_000
QUAD_LIMIT = 200               # max interval subdivisions
QUAD_EPSABS = 1e-12


def _hyp2f1_series(a: float, b: float, c: float, z: float):
    """2F1(a, b; c; z) by direct summation with term-ratio truncation.

    Valid for the parameter ranges used here (b, c > 0, 0 <= z < 1).
    Returns (value, converged).
    """
    term = 1.0
    total = 1.0
    for n in range(SERIES_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z
        total += term
        if abs(term) <= SERIES_RTOL * abs(total):
            return total, True
    return total, False


def _overflow_as_domain_error(fn):
    """Report a float overflow inside a quadrature integrand (huge eta, say)
    as a DomainError instead of an untyped OverflowError."""
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
            raise DomainError(f"{fn.__name__} overflowed: {exc}") from exc
    return wrapped


@_overflow_as_domain_error
def _beta_quad(alpha: float, beta_: float, p_extra: float, q_extra: float,
               smooth, kappa_one: bool = False):
    """Integrate smooth(y) * y^(alpha-1+p_extra) * (1-y)^(beta-1+q_extra)
    over [0,1], normalized by B(alpha, beta).

    The algebraic endpoint exponents are delegated to the quadrature weight
    so integrable singularities at 0 and 1 are handled exactly.
    """
    p = alpha - 1.0 + p_extra
    q = beta_ - 1.0 + q_extra
    if p <= -1.0 or q <= -1.0:
        raise DomainError(f"non-integrable endpoint exponent (p={p}, q={q})")
    lognorm = special.gammaln(alpha + beta_) - special.gammaln(alpha) \
        - special.gammaln(beta_)
    norm = np.exp(lognorm)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if p < 1.0 or q < 1.0:
            # delegate (near-)singular endpoint factors to the algebraic
            # quadrature weight; normalization stays inside the integrand so
            # the tolerances are meaningful for peaked densities
            val, abserr = integrate.quad(lambda y: norm * smooth(y), 0.0, 1.0,
                                         weight="alg", wvar=(p, q),
                                         epsabs=QUAD_EPSABS, epsrel=1e-12,
                                         limit=QUAD_LIMIT)
        else:
            f = lambda y: norm * smooth(y) * y ** p * (1.0 - y) ** q
            val, abserr = integrate.quad(f, 0.0, 1.0, epsabs=QUAD_EPSABS,
                                         epsrel=1e-12, limit=QUAD_LIMIT)
    if abserr > 1e-8 * (1.0 + abs(val)):
        raise NonConvergence(
            f"quadrature error estimate {abserr:.2e} exceeds tolerance")
    return val


@_overflow_as_domain_error
def _beta_power_quad(alpha: float, beta_: float, m_pow: float, s_pow: float,
                     kappa: float) -> float:
    """E[Y^m (1 - kappa Y)^s] for Y ~ Beta(alpha, beta), robust as
    kappa -> 1.

    In the variable w = 1 - y the awkward factor becomes (eps + kappa w)^s
    with eps = 1 - kappa, an algebraic layer of width eps at w = 0. The
    integral is split at the layer edge; the outer piece runs on a log grid
    in w, where the layer is polynomial and adaptive quadrature resolves it.
    """
    eps = 1.0 - kappa
    if eps <= 0.0:
        raise DomainError("kappa = 1 must use the closed forms")
    norm = np.exp(special.gammaln(alpha + beta_) - special.gammaln(alpha)
                  - special.gammaln(beta_))
    p = alpha - 1.0 + m_pow        # exponent of (1 - w)
    q = beta_ - 1.0                # exponent of w
    if p <= -1.0 or q <= -1.0:
        raise DomainError(f"non-integrable endpoint exponent (p={p}, q={q})")
    w1 = min(0.25, eps * 2.0 ** (10.0 / max(abs(s_pow), 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        # inner piece [0, w1]: bounded (eps + kappa w)^s ratio by choice of w1
        fa = lambda w: norm * (1.0 - w) ** p * (eps + kappa * w) ** s_pow
        if q < 1.0:
            va, ea = integrate.quad(fa, 0.0, w1, weight="alg", wvar=(q, 0.0),
                                    epsabs=QUAD_EPSABS, epsrel=1e-12,
                                    limit=QUAD_LIMIT)
        else:
            va, ea = integrate.quad(lambda w: fa(w) * w ** q, 0.0, w1,
                                    epsabs=QUAD_EPSABS, epsrel=1e-12,
                                    limit=QUAD_LIMIT)
        # outer piece on the log grid w = e^x, x in [ln w1, 0]
        def fb(x):
            w = np.exp(x)
            return norm * (1.0 - w) ** p * w ** (q + 1.0) \
                * (eps + kappa * w) ** s_pow
        vb, eb = integrate.quad(fb, np.log(w1), 0.0, epsabs=QUAD_EPSABS,
                                epsrel=1e-12, limit=2 * QUAD_LIMIT)
    val = va + vb
    if ea + eb > 1e-8 * (1.0 + abs(val)):
        raise NonConvergence(
            f"split quadrature error estimate {ea + eb:.2e} exceeds tolerance")
    return val


def _check_kappa_eta(kappa: float, eta: float) -> None:
    if not (0.0 <= kappa <= 1.0):
        raise DomainError(f"kappa={kappa} outside [0, 1]")
    if eta <= 0.0:
        raise DomainError(f"eta={eta} must be positive")


def psi(jumps: JumpLaw, kappa: float, eta: float) -> float:
    """E[Y / (1 - kappa Y)^eta]."""
    _check_kappa_eta(kappa, eta)
    law = jumps.law
    if isinstance(law, DiscreteJumps):
        y, w = law.points, law.weights
        return float(np.sum(w * y / (1.0 - kappa * y) ** eta))
    a, b = law.alpha, law.beta
    if kappa == 1.0:
        if eta >= b:
            raise DomainError(
                f"E[Y/(1-Y)^eta] diverges for eta={eta} >= beta={b}")
        return float(np.exp(np.log(a) + special.gammaln(a + b)
                            + special.gammaln(b - eta) - special.gammaln(b)
                            - special.gammaln(a + b + 1.0 - eta)))
    if kappa <= SERIES_SWITCH:
        val, ok = _hyp2f1_series(eta, a + 1.0, a + b + 1.0, kappa)
        if ok:
            return val * a / (a + b)
    if kappa >= 0.9:
        return _beta_power_quad(a, b, 1.0, -eta, kappa)
    return _beta_quad(a, b, 1.0, 0.0,
                      lambda y: (1.0 - kappa * y) ** (-eta))


def psi_quadrature(jumps: JumpLaw, kappa: float, eta: float) -> float:
    """Quadrature-only path of psi (the independent oracle route)."""
    _check_kappa_eta(kappa, eta)
    law = jumps.law
    if isinstance(law, DiscreteJumps):
        return psi(jumps, kappa, eta)
    a, b = law.alpha, law.beta
    if kappa == 1.0:
        if eta >= b:
            raise DomainError(
                f"E[Y/(1-Y)^eta] diverges for eta={eta} >= beta={b}")
        return _beta_quad(a, b, 1.0, -eta, lambda y: 1.0)
    return _beta_quad(a, b, 1.0, 0.0, lambda y: (1.0 - kappa * y) ** (-eta))


def psi_dkappa(jumps: JumpLaw, kappa: float, eta: float) -> float:
    """E[Y^2 / (1 - kappa Y)^(1+eta)], i.e. (1/eta) d(psi)/d(kappa)."""
    _check_kappa_eta(kappa, eta)
    law = jumps.law
    if isinstance(law, DiscreteJumps):
        y, w = law.points, law.weights
        return float(np.sum(w * y * y / (1.0 - kappa * y) ** (1.0 + eta)))
    a, b = law.alpha, law.beta
    if kappa == 1.0:
        if 1.0 + eta >= b:
            raise DomainError(
                f"E[Y^2/(1-Y)^(1+eta)] diverges for eta={eta}, beta={b}")
        return float(np.exp(np.log(a) + np.log(a + 1.0)
                            + special.gammaln(a + b)
                            + special.gammaln(b - eta - 1.0)
                            - special.gammaln(b)
                            - special.gammaln(a + b + 1.0 - eta)))
    if kappa <= SERIES_SWITCH:
        val, ok = _hyp2f1_series(eta + 1.0, a + 2.0, a + b + 2.0, kappa)
        if ok:
            return val * a * (a + 1.0) / ((a + b) * (a + b + 1.0))
    if kappa >= 0.9:
        return _beta_power_quad(a, b, 2.0, -(1.0 + eta), kappa)
    return _beta_quad(a, b, 2.0, 0.0,
                      lambda y: (1.0 - kappa * y) ** (-(1.0 + eta)))


def utility_jump_term(jumps: JumpLaw, kappa: float, eta: float) -> float:
    """E[U_eta(1 - kappa Y)]: the jump contribution to the objective."""
    _check_kappa_eta(kappa, eta)
    law = jumps.law
    if isinstance(law, DiscreteJumps):
        y, w = law.points, law.weights
        z = 1.0 - kappa * y
        if eta == 1.0:
            return float(np.sum(w * np.log(z)))
        return float(np.sum(w * z ** (1.0 - eta)) / (1.0 - eta))
    a, b = law.alpha, law.beta
    if kappa == 1.0 and eta != 1.0 and eta >= b:
        raise DomainError(
            f"E[U_eta(1-Y)] requires eta < beta (eta={eta}, beta={b})")
    if eta == 1.0:
        # clip keeps the y=1 endpoint evaluation finite; the log singularity
        # is integrable and the quadrature weight never sits exactly on it
        return _beta_quad(a, b, 0.0, 0.0,
                          lambda y: np.log1p(-kappa * min(y, 1.0 - 1e-16)))
    if kappa == 1.0:
        # (1-y)^(1-eta) folded into the algebraic weight
        return _beta_quad(a, b, 0.0, 1.0 - eta,
                          lambda y: 1.0 / (1.0 - eta))
    if kappa >= 0.9 and eta > 1.0:
        return _beta_power_quad(a, b, 0.0, 1.0 - eta, kappa) / (1.0 - eta)
    return _beta_quad(a, b, 0.0, 0.0,
                      lambda y: (1.0 - kappa * y) ** (1.0 - eta) / (1.0 - eta))


def utility_jump_curve(jumps: JumpLaw, kappas: np.ndarray,
                       eta: float) -> np.ndarray:
    """Vectorized E[U_eta(1 - kappa Y)] over a kappa grid.

    Series-based fast path used by the grid oracle; independent of the
    quadrature route in utility_jump_term and cross-checked against it.
    """
    kappas = np.asarray(kappas, dtype=float)
    law = jumps.law
    if isinstance(law, DiscreteJumps):
        y, w = law.points, law.weights
        z = 1.0 - np.outer(kappas, y)
        if eta == 1.0:
            return np.log(z) @ w
        return (z ** (1.0 - eta)) @ w / (1.0 - eta)
    a, b = law.alpha, law.beta
    out = np.empty_like(kappas)
    interior = kappas < 1.0
    z = kappas[interior]
    if eta == 1.0:
        # E[ln(1-kY)] = -sum_n k^n E[Y^n] / n
        total = np.zeros_like(z)
        moment = 1.0
        power = np.ones_like(z)
        term = np.zeros_like(z)
        for n in range(1, SERIES_MAX_TERMS):
            moment *= (a + n - 1.0) / (a + b + n - 1.0)
            power = power * z
            term = power * moment / n
            total -= term
            if np.all(np.abs(term) <= SERIES_RTOL * (1.0 + np.abs(total))):
                break
        converged = np.abs(term) <= SERIES_RTOL * (1.0 + np.abs(total))
        out[interior] = total
    else:
        # E[(1-kY)^(1-eta)] = 2F1(eta-1, alpha; alpha+beta; k)
        term = np.ones_like(z)
        total = np.ones_like(z)
        aa, bb, cc = eta - 1.0, a, a + b
        for n in range(SERIES_MAX_TERMS):
            term = term * (aa + n) * (bb + n) / ((cc + n) * (1.0 + n)) * z
            total += term
            if np.all(np.abs(term) <= SERIES_RTOL * np.abs(total)):
                break
        converged = np.abs(term) <= SERIES_RTOL * np.abs(total)
        out[interior] = total / (1.0 - eta)
    # entries near kappa = 1 can outlast the term cap; finish by quadrature
    slow = np.nonzero(interior)[0][~converged]
    for i in slow:
        out[i] = utility_jump_term(jumps, float(kappas[i]), eta)
    for i in np.nonzero(~interior)[0]:
        out[i] = utility_jump_term(jumps, float(kappas[i]), eta)
    return out


class Ordering(enum.Enum):
    DOMINATES = "dominates"
    DOMINATED_BY = "dominated-by"
    INCOMPARABLE = "incomparable"


def _cdf(law, y: np.ndarray) -> np.ndarray:
    if isinstance(law, BetaJumps):
        return special.betainc(law.alpha, law.beta, y)
    pts, w = law.points, law.weights
    return (w[None, :] * (pts[None, :] <= y[:, None])).sum(axis=1)


def fosd_compare(law_a: JumpLaw, law_b: JumpLaw, grid_size: int = 512) -> Ordering:
    """First-order stochastic dominance by CDF comparison on a uniform grid.

    A dominates B iff F_A <= F_B everywhere (1e-12 slack) and strictly
    somewhere; a law never dominates itself.
    """
    y = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    fa = _cdf(law_a.law, y)
    fb = _cdf(law_b.law, y)
    a_le = bool(np.all(fa <= fb + 1e-12))
    b_le = bool(np.all(fb <= fa + 1e-12))
    a_strict = bool(np.any(fa < fb - 1e-12))
    b_strict = bool(np.any(fb < fa - 1e-12))
    if a_le and a_strict:
        return Ordering.DOMINATES
    if b_le and b_strict:
        return Ordering.DOMINATED_BY
    return Ordering.INCOMPARABLE


def _draw_y(rng, law, n: int) -> np.ndarray:
    """n i.i.d. draws of Y from rng: the one sampler of the jump size.

    Beta sampling goes through the two-Gamma-draw ratio so the draw count
    per variate is fixed.
    """
    if isinstance(law, BetaJumps):
        g1 = rng.standard_gamma(law.alpha, size=n)
        g2 = rng.standard_gamma(law.beta, size=n)
        return g1 / (g1 + g2)
    idx = rng.choice(law.points.shape[0], size=n, p=law.weights)
    return law.points[idx]


def sample_jumps(jumps: JumpLaw, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws of Y, deterministic given seed."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _draw_y(np.random.Generator(np.random.Philox(seed)), jumps.law, n)


def law_mean(law) -> float:
    if isinstance(law, BetaJumps):
        return law.alpha / (law.alpha + law.beta)
    return float(np.sum(law.points * law.weights))


def law_second_moment(law) -> float:
    if isinstance(law, BetaJumps):
        a, b = law.alpha, law.beta
        return a * (a + 1.0) / ((a + b) * (a + b + 1.0))
    return float(np.sum(law.points ** 2 * law.weights))


@dataclass
class JumpFunctionals:
    """Memoizing front end for the jump functionals of one law.

    Solvers hit identical (kappa, eta) points thousands of times during
    bisection; keys are rounded to 1e-12 so memoization cannot drift the
    values. Reads/inserts on the dict are atomic, so sharing across threads
    is safe.
    """

    jumps: JumpLaw

    def __post_init__(self):
        self._memo: dict = {}
        self.mean = law_mean(self.jumps.law)
        self.second_moment = law_second_moment(self.jumps.law)

    def _cached(self, tag: str, fn, kappa: float, eta: float) -> float:
        key = (tag, round(kappa, 12), eta)
        hit = self._memo.get(key)
        if hit is None:
            hit = fn(self.jumps, kappa, eta)
            self._memo[key] = hit
        return hit

    def psi(self, kappa: float, eta: float) -> float:
        return self._cached("psi", psi, kappa, eta)

    def psi_dkappa(self, kappa: float, eta: float) -> float:
        return self._cached("dpsi", psi_dkappa, kappa, eta)

    def utility_jump_term(self, kappa: float, eta: float) -> float:
        return self._cached("ujt", utility_jump_term, kappa, eta)
