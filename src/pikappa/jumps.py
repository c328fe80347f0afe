"""Expectations over the jump size Y needed by the objective and solvers.

Each one is a power moment E[Y^m (1 - kappa Y)^(-s)]: psi is (m, s) =
(1, eta), psi_dkappa is (2, 1 + eta) and the power-utility jump term is
(0, eta - 1), divided by 1 - eta. One routing function, _power_moment,
evaluates all three:

- discrete laws: the exact weighted sum;
- Beta(alpha, beta) at kappa = 1: the closed form
  B(alpha + m, beta - s) / B(alpha, beta), finite exactly when s < beta;
- Beta below SERIES_SWITCH: the Gaussian hypergeometric series
  (alpha)_m / (alpha + beta)_m 2F1(s, alpha + m; alpha + beta + m; kappa)
  (DLMF 15.2);
- otherwise, or when the series does not converge: adaptive quadrature
  against the Beta density with algebraic endpoint weights.

The quadrature route alone (psi_quadrature) is the independent reference
the tests check every functional against. The log-utility term (eta = 1)
is not a power moment: an exact sum for discrete laws, quadrature for Beta.
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .errors import DomainError, NonConvergence
from .models import (BetaJumps, DiscreteJumps, JumpLaw, law_mean,
                     law_second_moment)

SERIES_SWITCH = 1.0 - 1e-6     # series below, quadrature above
SERIES_RTOL = 1e-14
SERIES_MAX_TERMS = 200_000
QUAD_LIMIT = 200               # max interval subdivisions
QUAD_EPSABS = 1e-12
FOSD_GRID_SIZE = 512           # interior CDF points of fosd_compare


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


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b) for a, b > 0."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _overflow_as_domain_error(fn):
    """Report a float overflow (in a quadrature integrand or the value
    function at a huge or tiny eta, say) as a DomainError instead of an
    untyped OverflowError."""
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
            raise DomainError(f"{fn.__name__} overflowed: {exc}") from exc
    return wrapped


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


def _check_kappa_eta(kappa: float, eta: float) -> None:
    if not (0.0 <= kappa <= 1.0):
        raise DomainError(f"kappa={kappa} outside [0, 1]")
    if eta <= 0.0:
        raise DomainError(f"eta={eta} must be positive")


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


def _power_moment(law, m: int, s: float, kappa: float) -> float:
    """E[Y^m (1 - kappa Y)^(-s)]: the one route of every power-type jump
    functional (see the module docstring)."""
    if isinstance(law, DiscreteJumps):
        y, w = law.points, law.weights
        return float(np.sum(w * y ** m / (1.0 - kappa * y) ** s))
    a, b = law.alpha, law.beta
    if kappa == 1.0:
        if s >= b:
            raise DomainError(f"E[Y^{m:g} (1-Y)^(-s)] diverges for "
                              f"s={s} >= beta={b}")
        return math.exp(_log_beta(a + m, b - s) - _log_beta(a, b))
    if kappa <= SERIES_SWITCH:
        val, ok = _hyp2f1_series(s, a + m, a + b + m, kappa)
        if ok:
            for j in range(m):     # times (alpha)_m / (alpha + beta)_m
                val = val * (a + j) / (a + b + j)
            return val
    return _beta_moment_quadrature(law, m, s, kappa)


def psi(jumps: JumpLaw, kappa: float, eta: float) -> float:
    """E[Y / (1 - kappa Y)^eta]."""
    _check_kappa_eta(kappa, eta)
    return _power_moment(jumps.law, 1, eta, kappa)


def psi_quadrature(jumps: JumpLaw, kappa: float, s: float,
                   m: int = 1) -> float:
    """E[Y^m (1 - kappa Y)^(-s)] by quadrature alone (exact sums for
    discrete laws): the independent reference of every jump functional.
    With m = 1 and s = eta it is psi."""
    if not (0.0 <= kappa <= 1.0):
        raise DomainError(f"kappa={kappa} outside [0, 1]")
    if isinstance(jumps.law, DiscreteJumps):
        return _power_moment(jumps.law, m, s, kappa)
    return _beta_moment_quadrature(jumps.law, m, s, kappa)


def psi_dkappa(jumps: JumpLaw, kappa: float, eta: float) -> float:
    """E[Y^2 / (1 - kappa Y)^(1+eta)], i.e. (1/eta) d(psi)/d(kappa)."""
    _check_kappa_eta(kappa, eta)
    return _power_moment(jumps.law, 2, 1.0 + eta, kappa)


def utility_jump_term(jumps: JumpLaw, kappa: float, eta: float) -> float:
    """E[U_eta(1 - kappa Y)]: the jump contribution to the objective."""
    _check_kappa_eta(kappa, eta)
    law = jumps.law
    if eta != 1.0:
        return _power_moment(law, 0, eta - 1.0, kappa) / (1.0 - eta)
    if isinstance(law, DiscreteJumps):
        return float(np.sum(law.weights * np.log(1.0 - kappa * law.points)))
    # clip keeps the y=1 endpoint evaluation finite; the log singularity
    # is integrable and the quadrature weight never sits exactly on it
    return _beta_quad(law.alpha, law.beta, 0.0, 0.0,
                      lambda y: np.log1p(-kappa * min(y, 1.0 - 1e-16)))


def _series_by_entry(z: np.ndarray, first: float, ratio, floor: float):
    """first + sum over n >= 0 of t_n for every entry of z, where
    t_n = t_(n-1) * (ratio(n) z) and t_(-1) = 1.

    Each entry stops on its own, at the first n with
    |t_n| <= SERIES_RTOL (floor + |sum|), so its value does not depend on
    the other entries; the loop carries only the entries still running.
    Returns (sums, converged).
    """
    out = np.empty_like(z)
    converged = np.zeros(z.shape, dtype=bool)
    live = np.arange(z.size)
    zl = z
    term = np.ones_like(z)
    total = np.full_like(z, first)
    for n in range(SERIES_MAX_TERMS):
        if live.size == 0:
            break
        term = term * (ratio(n) * zl)
        total = total + term
        stop = np.abs(term) <= SERIES_RTOL * (floor + np.abs(total))
        if stop.any():
            out[live[stop]] = total[stop]
            converged[live[stop]] = True
            keep = ~stop
            live, zl, term, total = live[keep], zl[keep], term[keep], \
                total[keep]
    out[live] = total
    return out, converged


def utility_jump_curve(jumps: JumpLaw, kappas: np.ndarray,
                       eta: float) -> np.ndarray:
    """Vectorized E[U_eta(1 - kappa Y)] over a kappa grid: the grid oracle's
    jump term.

    Beta laws sum a series for every kappa up to SERIES_SWITCH at once, each
    entry to its own stop, so an entry equals the same kappa evaluated
    alone: for eta != 1 the series of utility_jump_term term for term, and
    an entry whose series did not converge takes its quadrature. kappa = 1,
    kappas above the switch and unconverged log-utility entries take the
    scalar route. Where E[U_eta(1 - Y)] diverges (eta >= beta + 1) the
    scalar route raises, and the kappa = 1 entry is -inf, the objective's
    true value there.
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
    summed = kappas <= SERIES_SWITCH
    if eta == 1.0:
        # E[ln(1-kY)] = -sum_n k^n E[Y^n] / n, with E[Y^n] / E[Y^(n-1)]
        # = (a + n - 1) / (a + b + n - 1)
        ratio = lambda n: (-a / (a + b) if n == 0
                           else (a + n) / (a + b + n) * n / (n + 1.0))
        total, converged = _series_by_entry(kappas[summed], 0.0, ratio, 1.0)
        out[summed] = total
    else:
        # E[(1-kY)^(1-eta)] = 2F1(eta-1, alpha; alpha+beta; k), with the
        # term ratio of _hyp2f1_series; at a huge eta a term overflows to
        # inf, and so does the sum: the entry is then -inf, its value in
        # double precision
        aa, bb, cc = eta - 1.0, a, a + b
        ratio = lambda n: (aa + n) * (bb + n) / ((cc + n) * (1.0 + n))
        with np.errstate(over="ignore"):
            total, converged = _series_by_entry(kappas[summed], 1.0, ratio,
                                                0.0)
        out[summed] = total / (1.0 - eta)
    stalled = np.flatnonzero(summed)[~converged]
    scalar = np.flatnonzero(~summed)
    if eta == 1.0:
        scalar = np.union1d(scalar, stalled)
    else:
        for i in stalled:          # the quadrature of _power_moment's route
            out[i] = psi_quadrature(jumps, float(kappas[i]), eta - 1.0,
                                    m=0) / (1.0 - eta)
    for i in scalar:
        try:
            out[i] = utility_jump_term(jumps, float(kappas[i]), eta)
        except DomainError:
            if kappas[i] != 1.0:
                raise
            out[i] = -np.inf       # E[U_eta(1 - Y)] diverges to -inf
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


def fosd_compare(law_a: JumpLaw, law_b: JumpLaw) -> Ordering:
    """First-order stochastic dominance by CDF comparison on a uniform grid.

    A dominates B iff F_A <= F_B everywhere (1e-12 slack) and strictly
    somewhere; a law never dominates itself.
    """
    y = np.linspace(0.0, 1.0, FOSD_GRID_SIZE + 2)[1:-1]
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


@dataclass
class JumpFunctionals:
    """A standalone memo of the jump functionals of one law; no solver uses
    it. Solves call psi and utility_jump_term directly: 3% of the memo's
    lookups hit over the repro recipes.

    The class stays only because the benchmark tracer (perfbench/tracer.py,
    Tracer.install) wraps _cached to report jumps.memo_hit_ratio; it goes
    with that hook. Keys round kappa to 12 decimals.
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
