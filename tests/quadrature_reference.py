"""The adaptive quadrature of the Beta jump moments, kept as the tests'
independent reference: the library sums every moment by series, and the
tests hold those sums to this route (and to 30-digit mpmath).

psi_quadrature(jumps, kappa, s, m) is E[Y^m (1 - kappa Y)^(-s)] by
quadrature against the Beta density with algebraic endpoint weights (exact
sums for discrete laws), and _beta_log_quadrature(law, kappa) is
E[ln(1 - kappa Y)]. At a divergent kappa = 1 psi_quadrature raises
DomainError, where the library returns +inf.
"""

import math
import warnings

import numpy as np

from pikappa.errors import DomainError, NonConvergence
from pikappa.jumps import _log_beta, _overflow_as_domain_error, _power_moment
from pikappa.models import BetaJumps, DiscreteJumps, JumpLaw

QUAD_LIMIT = 200               # max interval subdivisions
QUAD_EPSABS = 1e-12


@_overflow_as_domain_error
def _beta_quad(alpha: float, beta_: float, p_extra: float, q_extra: float,
               smooth):
    """Integrate smooth(y) * y^(alpha-1+p_extra) * (1-y)^(beta-1+q_extra)
    over [0,1], normalized by B(alpha, beta).

    The algebraic endpoint exponents are delegated to the quadrature weight
    so integrable singularities at 0 and 1 are handled exactly.
    """
    p = alpha - 1.0 + p_extra
    q = beta_ - 1.0 + q_extra
    if p <= -1.0 or q <= -1.0:
        raise DomainError(f"non-integrable endpoint exponent (p={p}, q={q})")
    from scipy import integrate
    norm = math.exp(-_log_beta(alpha, beta_))
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
    from scipy import integrate
    eps = 1.0 - kappa              # kappa < 1: kappa = 1 has a closed form
    norm = math.exp(-_log_beta(alpha, beta_))
    p = alpha - 1.0 + m_pow        # exponent of (1 - w), > -1 for m >= 0
    q = beta_ - 1.0                # exponent of w
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


def _beta_moment_quadrature(law: BetaJumps, m: int, s: float,
                            kappa: float) -> float:
    """E[Y^m (1 - kappa Y)^(-s)] for Y ~ Beta(alpha, beta) by quadrature
    alone; at kappa = 1 the factor (1 - y)^(-s) joins the algebraic weight."""
    a, b = law.alpha, law.beta
    if kappa == 1.0:
        return _beta_quad(a, b, m, -s, lambda y: 1.0)
    if kappa >= 0.9 and s > 0.0:
        return _beta_power_quad(a, b, m, -s, kappa)
    return _beta_quad(a, b, m, 0.0, lambda y: (1.0 - kappa * y) ** (-s))


def psi_quadrature(jumps: JumpLaw, kappa: float, s: float,
                   m: int = 1) -> float:
    """E[Y^m (1 - kappa Y)^(-s)] by quadrature alone (exact sums for
    discrete laws): the independent reference of every jump functional.
    With m = 1 and s = eta it is psi."""
    if not (0.0 <= kappa <= 1.0):
        raise DomainError(f"kappa={kappa} outside [0, 1]")
    if isinstance(jumps.law, DiscreteJumps):
        return _power_moment(jumps.law, m, s, 0.0, kappa)
    return _beta_moment_quadrature(jumps.law, m, s, kappa)


def _beta_log_quadrature(law: BetaJumps, kappa: float) -> float:
    """E[ln(1 - kappa Y)] for Y ~ Beta(alpha, beta) by quadrature: the
    reference of the log series."""
    # clip keeps the y=1 endpoint evaluation finite; the log singularity
    # is integrable and the quadrature weight never sits exactly on it
    return _beta_quad(law.alpha, law.beta, 0.0, 0.0,
                      lambda y: np.log1p(-kappa * min(y, 1.0 - 1e-16)))
