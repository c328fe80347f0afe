"""Expectations over the jump size Y needed by the objective and solvers.

Each one is a power moment E[Y^m (1 - kappa Y)^(-s)]: psi is (m, s) =
(1, eta), psi_dkappa is (2, 1 + eta) and the power-utility jump term is
(0, eta - 1), divided by 1 - eta. One routing function, _power_moment,
evaluates all three:

- discrete laws: the exact weighted sum;
- Beta(alpha, beta) at kappa = 1: the closed form
  B(alpha + m, beta - s) / B(alpha, beta) when s < beta, and +inf, the
  moment's true value, when s >= beta;
- Beta at kappa < CONNECTION_SWITCH = 0.9: (alpha)_m / (alpha + beta)_m
  2F1(s, alpha + m; alpha + beta + m; kappa), its series summed directly
  (DLMF 15.2); the terms decay like n^(s - beta - 1) kappa^n;
- Beta at 0.9 <= kappa < 1: the same 2F1 summed in w = 1 - kappa, whose
  terms decay like w^n: DLMF 15.8.4 for c - a - b = beta - s not an
  integer, DLMF 15.8.10 (with _digamma) for an integer beta - s >= 0, and
  Euler's transformation (DLMF 15.8.1) first for beta - s < 0, whose factor
  w^(beta - s) may carry the moment beyond double range, to +inf. It leaves
  to the direct series: beta - s within INTEGER_GAP of an integer, Gamma
  factors that overflow (eta = 1e6, say), and cancellation between its
  pieces (large alpha or eta near w = 0.1);
- when the direct series does not converge: adaptive quadrature against
  the Beta density with algebraic endpoint weights.

The log-utility term (eta = 1) is not a power moment: an exact sum for
discrete laws; for Beta below kappa = 1 the series E[ln(1 - kappa Y)] =
-kappa alpha / (alpha + beta) 3F2(1, 1, alpha + 1; 2, alpha + beta + 1;
kappa) (quadrature if it does not converge), and at kappa = 1 the closed
form digamma(beta) - digamma(alpha + beta).

Every one of these series, in kappa or in 1 - kappa, has terms u_k with
the ratio u_(k+1) / u_k = (p + k)(q + k) / ((r + k)(s + k)) z, and the one
kernel _sums sums them all, for a float z or an array. It stops at the
first term below SERIES_RTOL times the partial sum whose successor is
smaller still (or where the sum overflows to inf), and gives up,
unconverged, at SERIES_MAX_TERMS terms. utility_jump_curve hands a kappa
grid to the same routes; each entry stops on its own, so it has the bits
of utility_jump_term at the same kappa.

The quadrature route alone (psi_quadrature) is the tests' independent
reference. Only it and fosd_compare's Beta CDF import scipy, on first call:
the series and closed forms, all a bundled config's solve reaches, do not.

A divergent moment is decided here alone. At kappa = 1 under a Beta law,
psi is +inf for eta >= beta, psi_dkappa for 1 + eta >= beta, and the
utility term is -inf for eta >= beta + 1. The solvers read the sign of
their kappa condition at kappa = 1 from these values like any other
(psi_quadrature, the reference, still raises DomainError there).
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence
from .models import (BetaJumps, DiscreteJumps, JumpLaw, law_mean,
                     law_second_moment)

SERIES_RTOL = 1e-14
SERIES_MAX_TERMS = 200_000
CONNECTION_SWITCH = 0.9        # z from which 2F1 is summed in 1 - z
# the 1 - z route holds while (|c1 s1| + |c2 s2|) / |2F1| stays below
# CONNECTION_MAX_GAIN / (1 - z): the direct series' stop rule leaves an error
# that grows like 1 / (1 - z), so nearer 1 the route may cancel more digits
CONNECTION_MAX_GAIN = 1.0
INTEGER_GAP = 1e-3             # c - a - b this near an integer: direct series
EULER_GAMMA = 0.5772156649015329
QUAD_LIMIT = 200               # max interval subdivisions
QUAD_EPSABS = 1e-12
FOSD_GRID_SIZE = 512           # interior CDF points of fosd_compare


def _sums(p, q, r, s, z, g=None, start=0):
    """sum_k u_k g_k, and whether it converged, for z a float or an array:
    u_k = (p)_k (q)_k / ((r)_k (s)_k) z^k, and g_k = 1 or, given g_0 (like
    z), the digamma bracket g_k = g_0 + sum_(j < k) (1/(p + j) + 1/(q + j)
    - 1/(r + j) - 1/(s + j)).

    Each entry stops at its first k >= start with |u_k| max(1, |g_k|) <=
    SERIES_RTOL |S_k| and |u_(k+1) / u_k| < 1, or with S_k overflowed to
    +-inf; it has not converged if SERIES_MAX_TERMS terms do not get there.
    Callers keep r + k and s + k off 0, and r + k > 0 past start, so no
    small denominator scales up the tail left behind. A float z is summed
    in Python floats, an array by _array_sums with the same IEEE
    arithmetic, so each entry has the bits of its z alone.
    """
    if isinstance(z, np.ndarray):
        return _array_sums(p, q, r, s, z, g, start)
    # the term ratio is written out twice, so that the loop every psi runs
    # keeps no temporary
    rtol = SERIES_RTOL
    u, total = 1.0, 0.0
    if g is None:
        for k in range(SERIES_MAX_TERMS):
            total = total + u
            if abs(u) <= rtol * abs(total) and k >= start and (abs(
                    (p + k) * (q + k) / ((r + k) * (s + k)) * z) < 1.0
                    or abs(total) == math.inf):
                return total, True
            u = u * ((p + k) * (q + k) / ((r + k) * (s + k)) * z)
        return total, False
    for k in range(SERIES_MAX_TERMS):
        piece = u * g
        total = total + piece
        # |u_k| max(1, |g_k|) <= rtol |S_k|: both |u_k| and |u_k g_k| are
        if abs(u) <= rtol * abs(total) >= abs(piece) and k >= start and (abs(
                (p + k) * (q + k) / ((r + k) * (s + k)) * z) < 1.0
                or abs(total) == math.inf):
            return total, True
        u = u * ((p + k) * (q + k) / ((r + k) * (s + k)) * z)
        g = g + (1.0 / (p + k) + 1.0 / (q + k) - 1.0 / (r + k)
                 - 1.0 / (s + k))
    return total, False


def _array_sums(p, q, r, s, z, g, start):
    """_sums for an array z: one numpy loop that carries only the entries
    still running. The last one is summed again alone, in Python floats,
    which is cheaper than numpy's per-call cost on one entry."""
    out, converged = np.empty_like(z), np.zeros(z.shape, dtype=bool)
    live, zl, gl = np.arange(z.size), z, g
    u, total = np.ones_like(z), np.zeros_like(z)
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size > 1 and k < SERIES_MAX_TERMS:
            if g is None:
                total = total + u
                bound = np.abs(u)
            else:              # |u_k| max(1, |g_k|), as max(|u_k|, |u_k g_k|)
                piece = u * gl
                total = total + piece
                bound = np.maximum(np.abs(u), np.abs(piece))
            ratio = (p + k) * (q + k) / ((r + k) * (s + k)) * zl
            stop = bound <= SERIES_RTOL * np.abs(total)
            if k >= start and stop.any():
                stop &= (np.abs(ratio) < 1.0) | np.isinf(total)
                out[live[stop]] = total[stop]
                converged[live[stop]] = True
                keep = ~stop
                live, zl, u, total, ratio = (
                    x[keep] for x in (live, zl, u, total, ratio))
                gl = None if g is None else gl[keep]
            u = u * ratio
            if g is not None:
                gl = gl + (1.0 / (p + k) + 1.0 / (q + k) - 1.0 / (r + k)
                           - 1.0 / (s + k))
            k += 1
    if live.size == 1:
        i = live[0]
        gi = None if g is None else float(g[i])
        out[i], converged[i] = _sums(p, q, r, s, float(z[i]), gi, start)
    else:
        out[live] = total
    return out, converged


def _rgamma(x: float) -> float:
    """1 / Gamma(x), 0 at the poles x = 0, -1, -2, ..."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


def _times_power(v: float, x: float, d: float) -> float:
    """v x^d, +-inf where that lies beyond double range (x^d alone may)."""
    try:
        return v * x ** d
    except OverflowError:
        lg = d * math.log(x) + (math.log(abs(v)) if v else -math.inf)
        return math.copysign(math.inf if lg > 709.0 else math.exp(lg), v)


def _each(fn, *args):
    """fn of floats, or of arrays entry by entry in Python floats, so that
    an entry has the bits of the same floats alone."""
    if isinstance(args[0], np.ndarray):
        return np.array([fn(*x) for x in zip(*(a.tolist() for a in args))])
    return fn(*args)


def _connection_noninteger(a: float, b: float, c: float, d: float, w):
    """2F1(a, b; c; 1 - w) for c - a - b = d > 0 not an integer (DLMF
    15.8.4) as c1 s1 + c2 s2, |c1 s1| + |c2 s2|, and whether both sums
    converged."""
    gc = math.gamma(c)
    c1 = gc * math.gamma(d) * _rgamma(c - a) * _rgamma(c - b)
    c2 = gc * math.gamma(-d) * _rgamma(a) * _rgamma(b) * _each(
        lambda x: x ** d, w)
    s1, ok1 = _sums(a, b, 1.0 - d, 1.0, w, start=math.floor(d))
    s2, ok2 = _sums(c - a, c - b, 1.0 + d, 1.0, w)
    return c1 * s1 + c2 * s2, abs(c1 * s1) + abs(c2 * s2), ok1 & ok2


def _connection_log(a: float, b: float, c: float, m: int, w):
    """2F1(a, b; a + b + m; 1 - w) for an integer m >= 0 (DLMF 15.8.10), the
    absolute values of its pieces summed, and whether its series converged:
    a finite sum in (-w)^k, and c2 s2 with the bracket ln(w) - psi(k + 1) -
    psi(k + m + 1) + psi(a + k + m) + psi(b + k + m)."""
    gc = math.gamma(c)
    total = mass = 0.0 * w
    x = 1.0 + total                # (-w)^k
    t = gc * _rgamma(a + m) * _rgamma(b + m) * math.gamma(m) if m else 0.0
    for k in range(m):
        if k:
            t *= (a + k - 1.0) * (b + k - 1.0) / (k * (m - k))
        piece = t * x
        total = total + piece
        mass = mass + abs(piece)
        x = x * -w
    c2 = -gc * _rgamma(a) * _rgamma(b) / math.gamma(m + 1.0)
    if c2 == 0.0:                  # a or b a pole: 2F1 is the finite sum
        return total, mass, True
    c2 = c2 * x
    am, bm = a + m, b + m
    g0 = 2.0 * EULER_GAMMA - math.fsum(1.0 / j for j in range(1, m + 1)) \
        + _digamma(am) + _digamma(bm)
    s2, ok = _sums(am, bm, 1.0, m + 1.0, w, g=_each(math.log, w) + g0)
    return total + c2 * s2, mass + abs(c2 * s2), ok


def _hyp2f1_near_one(a: float, b: float, c: float, w):
    """2F1(a, b; c; 1 - w) for w a float or an array of entries in (0, 1)
    summed in w, and where that holds (a bool, or a bool array). It does
    not hold when c - a - b lies within INTEGER_GAP of an integer, a Gamma
    factor overflows, a series does not converge, or the pieces' absolute
    values add up to CONNECTION_MAX_GAIN / w times the result (cancellation).
    For c - a - b < 0 Euler's transformation (DLMF 15.8.1) comes first; its
    factor w^(c - a - b) may carry the result beyond double range, to +-inf.
    """
    a, b, c = float(a), float(b), float(c)
    d = c - a - b
    m = round(d)
    if m != d and abs(d - m) < INTEGER_GAP:
        return w * math.nan, w < 0.0       # (nan, False) for every entry
    euler = d < 0.0
    if euler:
        a, b, d, m = c - a, c - b, -d, -m
    try:
        if m == d:
            value, mass, ok = _connection_log(a, b, c, m, w)
        else:
            value, mass, ok = _connection_noninteger(a, b, c, d, w)
    except OverflowError:
        return w * math.nan, w < 0.0
    holds = ok & (mass * w < CONNECTION_MAX_GAIN * abs(value))
    if euler:
        value = _each(lambda v, x: _times_power(v, x, -d), value, w)
    return value, holds


def _hyp2f1(a: float, b: float, c: float, z):
    """2F1(a, b; c; z) and whether it converged, for z a float or an array
    in [0, 1) (b, c > 0): in 1 - z from CONNECTION_SWITCH where that holds,
    else the direct series _sums(a, b, c, 1, z) (DLMF 15.2)."""
    if not isinstance(z, np.ndarray):
        if z >= CONNECTION_SWITCH:
            value, holds = _hyp2f1_near_one(a, b, c, 1.0 - float(z))
            if holds:
                return value, True
        return _sums(a, b, c, 1.0, z)
    value, ok = np.empty_like(z), np.zeros(z.shape, dtype=bool)
    near = np.flatnonzero(z >= CONNECTION_SWITCH)
    value[near], ok[near] = _hyp2f1_near_one(a, b, c, 1.0 - z[near])
    rest = np.flatnonzero(~ok)
    value[rest], ok[rest] = _sums(a, b, c, 1.0, z[rest])
    return value, ok


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b) for a, b > 0."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _digamma(x: float) -> float:
    """digamma(x) = d ln Gamma(x) / dx for x > 0: the recurrence
    digamma(x) = digamma(x + 1) - 1/x up to x >= 12, then the asymptotic
    series of DLMF 5.11.2 through its z^-14 term (the next is below 1e-18
    there)."""
    shift = []
    while x < 12.0:
        shift.append(1.0 / x)
        x += 1.0
    w = 1.0 / (x * x)
    tail = w * (1.0 / 12.0 - w * (1.0 / 120.0 - w * (1.0 / 252.0 - w * (
        1.0 / 240.0 - w * (1.0 / 132.0 - w * (691.0 / 32760.0
                                              - w / 12.0))))))
    return math.log(x) - 0.5 / x - tail - math.fsum(shift)


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
            return math.inf
        return math.exp(_log_beta(a + m, b - s) - _log_beta(a, b))
    val, ok = _hyp2f1(s, a + m, a + b + m, kappa)
    if ok:
        for j in range(m):         # times (alpha)_m / (alpha + beta)_m
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


def _beta_log_quadrature(law: BetaJumps, kappa: float) -> float:
    """E[ln(1 - kappa Y)] for Y ~ Beta(alpha, beta) by quadrature: the
    fallback of an unconverged log series."""
    # clip keeps the y=1 endpoint evaluation finite; the log singularity
    # is integrable and the quadrature weight never sits exactly on it
    return _beta_quad(law.alpha, law.beta, 0.0, 0.0,
                      lambda y: np.log1p(-kappa * min(y, 1.0 - 1e-16)))


def _log_series(law: BetaJumps, kappa):
    """E[ln(1 - kappa Y)] for Y ~ Beta(a, b) and kappa < 1 (a float or an
    array) as -kappa a / (a + b) 3F2(1, 1, a + 1; 2, a + b + 1; kappa), and
    whether it converged: the one log series of the scalar and the curve."""
    a, b = law.alpha, law.beta
    total, converged = _sums(a + 1.0, 1.0, a + b + 1.0, 2.0, kappa)
    return -kappa * a / (a + b) * total, converged


def utility_jump_term(jumps: JumpLaw, kappa: float, eta: float) -> float:
    """E[U_eta(1 - kappa Y)]: the jump contribution to the objective."""
    _check_kappa_eta(kappa, eta)
    law = jumps.law
    if eta != 1.0:
        return _power_moment(law, 0, eta - 1.0, kappa) / (1.0 - eta)
    if isinstance(law, DiscreteJumps):
        return float(np.sum(law.weights * np.log(1.0 - kappa * law.points)))
    if kappa == 1.0:               # E[ln(1 - Y)] for Y ~ Beta(alpha, beta)
        return _digamma(law.beta) - _digamma(law.alpha + law.beta)
    total, converged = _log_series(law, kappa)
    if converged:
        return total
    return _beta_log_quadrature(law, kappa)


def utility_jump_curve(jumps: JumpLaw, kappas: np.ndarray,
                       eta: float) -> np.ndarray:
    """Vectorized E[U_eta(1 - kappa Y)] over a kappa grid: the grid oracle's
    jump term.

    A Beta law hands every kappa < 1 to the series of utility_jump_term at
    once: the log series for eta = 1, else 2F1(eta - 1, alpha; alpha +
    beta; kappa), in 1 - kappa from CONNECTION_SWITCH where that holds.
    The kernel _sums stops each entry on its own (SERIES_RTOL, at most
    SERIES_MAX_TERMS terms), so an entry has the bits of utility_jump_term
    at the same kappa: -inf where the sum lies beyond double range, and the
    quadrature where it did not converge. kappa = 1 takes the closed form:
    -inf where E[U_eta(1 - Y)] diverges (eta >= beta + 1), the objective's
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
    out = np.empty_like(kappas)
    summed = np.flatnonzero(kappas < 1.0)
    if eta == 1.0:
        out[summed], converged = _log_series(law, kappas[summed])
    else:
        total, converged = _hyp2f1(eta - 1.0, law.alpha,
                                   law.alpha + law.beta, kappas[summed])
        out[summed] = total / (1.0 - eta)
    for i in summed[~converged]:
        kappa = float(kappas[i])   # the scalar route's quadrature
        out[i] = (_beta_log_quadrature(law, kappa) if eta == 1.0 else
                  psi_quadrature(jumps, kappa, eta - 1.0, m=0) / (1.0 - eta))
    for i in np.flatnonzero(kappas == 1.0):
        out[i] = utility_jump_term(jumps, float(kappas[i]), eta)
    return out


class Ordering(enum.Enum):
    DOMINATES = "dominates"
    DOMINATED_BY = "dominated-by"
    INCOMPARABLE = "incomparable"


def _cdf(law, y: np.ndarray) -> np.ndarray:
    if isinstance(law, BetaJumps):
        from scipy import special
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
