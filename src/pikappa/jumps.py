"""Expectations over the jump size Y needed by the objective and solvers.

Each one is a power moment E[Y^m (1 - kappa Y)^(-s)]: psi is (m, s) =
(1, eta), psi_dkappa is (2, 1 + eta) and the power-utility jump term is
(0, eta - 1), divided by 1 - eta. One routing function, _power_moment,
evaluates all three:

- discrete laws: the exact weighted sum, for one kappa or a grid;
- Beta(alpha, beta) at kappa = 1: the closed form
  B(alpha + m, beta - s) / B(alpha, beta) when s < beta, and +inf, the
  moment's true value, when s >= beta;
- Beta at kappa < CONNECTION_SWITCH = 0.9: (alpha)_m / (alpha + beta)_m
  2F1(s, alpha + m; alpha + beta + m; kappa), its series summed directly
  (DLMF 15.2); the terms decay like n^(s - beta - 1) kappa^n;
- Beta at 0.9 <= kappa < 1: the same 2F1 summed in w = 1 - kappa
  (_hyp2f1_near_one) by DLMF 15.8.4 with the terms of its two sums paired
  across their poles (the one form for every c - a - b, integer or not),
  after Euler's transformation where c - a - b < 0; its terms decay like
  w^n. The direct series serves where Gamma factors overflow or the
  pieces cancel.

The log-utility term (eta = 1) is an exact sum for discrete laws and, for
a Beta law, digamma(beta) - digamma(alpha + beta) at kappa = 1, the series
-kappa alpha / (alpha + beta) 3F2(1, 1, alpha + 1; 2, alpha + beta + 1;
kappa) below 0.9, and from there the connection formula's derivative in
2F1's first parameter (_log_near_one).

Every one of these series has terms u_k with the ratio u_(k+1) / u_k =
(p + k)(q + k) / ((r + k)(s + k)) z, and the one kernel _sums sums them
all, for a float z or an array; a functional whose series has not
converged at SERIES_MAX_TERMS terms raises NonConvergence. Each entry of
utility_jump_curve's kappa grid stops on its own, so it has the bits of
utility_jump_term at the same kappa. fosd_compare's Beta CDF is such a
series too (DLMF 8.17.7), so nothing here needs scipy.

What does not depend on kappa is kept, keyed by the parameters it comes
from, so that the ~30 evaluations of one kappa root, and a sweep that
keeps the law and eta, work it out once: each series' table (_run) of its
ratios (p + k)(q + k) / ((r + k)(s + k)) and, for the paired sums, its
digamma steps rho_k; and the w-free constants of the 1 - kappa routes
(_paired_constants, _connection, _log_constants). Each kind keeps its
TABLE_KEYS = 32 keys last used, and a table at most TABLE_TERMS = 1024
terms of one or two lists of floats, 32 bytes an entry: 2 MiB at most
in all, beside constant sets of at most about 170 floats. A table grows
by new lists published in one assignment under a lock, and no list
changes once published, so a reader in any thread sees the old table or
the new one, never half of one. A tabled term has the bits of the expression it
stands for, so a value is the same whether its tables were kept or not.

A divergent moment is decided here alone. At kappa = 1 under a Beta law,
psi is +inf for eta >= beta, psi_dkappa for 1 + eta >= beta, and the
utility term is -inf for eta >= beta + 1. The solvers read the sign of
their kappa condition at kappa = 1 from these values like any other.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import threading
import types
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence
from .models import (BetaJumps, DiscreteJumps, JumpLaw, law_mean,
                     law_second_moment)

SERIES_RTOL = 1e-14
SERIES_MAX_TERMS = 200_000
CONNECTION_SWITCH = 0.9        # z from which 2F1 is summed in 1 - z
# the 1 - z route holds while the sum of its terms' absolute values over
# |2F1| stays below CONNECTION_MAX_GAIN / (1 - z): the direct series takes
# about 40 / (1 - z) terms, so nearer 1 the route may cancel more digits
# before it gives way
CONNECTION_MAX_GAIN = 1.0
EULER_GAMMA = 0.5772156649015329
# B_2k / (2k (2k - 1)), k = 1..7: Stirling's series of ln Gamma (DLMF 5.11.1)
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
             1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0)
FOSD_GRID_SIZE = 512           # interior CDF points of fosd_compare
# how far discrete weights may sum from 1 in a draw, Generator.choice's bound
_WEIGHT_SUM_TOL = math.sqrt(np.finfo(float).eps)
TABLE_KEYS = 32                # series tables, and w-free constant sets, kept
TABLE_TERMS = 1024             # terms a series table keeps
_FIRST_RUN = 16                # terms a new series table starts with
_TABLE_LOCK = threading.Lock()  # held to lengthen a series table


def _sums(p, q, r, s, z, g=None, eps=0.0):
    """sum_k u_k g_k and whether it converged, for z a float or an array,
    with u_k = (p)_k (q)_k / ((r)_k (s)_k) z^k and g_k = 1 or, given g_0
    (like z), g_(k+1) = g_k + rho_k (1 + eps g_k) with rho_k of
    _bracket_step; then sum_k |u_k g_k| comes back too, between the two.

    Each entry stops at its first k with |u_k| max(1, |g_k|) <= rtol |S_k|
    and |u_(k+1) / u_k| < 1, or with S_k overflowed to +-inf; it has not
    converged if SERIES_MAX_TERMS terms do not get there. rtol is
    SERIES_RTOL times min(1, (1 - z) / (1 - CONNECTION_SWITCH)), as the
    tail left is about 1 / (1 - z) times the last term. Callers keep r + k
    and s + k off 0, and r > 0. The ratios u_(k+1) / u_k = c_k z and the
    rho_k come from the series' table (_run), c_k z with the bits of
    (p + k)(q + k) / ((r + k)(s + k)) z. A float z is summed in Python
    floats, an array by _array_sums with the same IEEE arithmetic, so each
    entry has the bits of its z alone.
    """
    if isinstance(z, np.ndarray):
        return _array_sums(p, q, r, s, z, g, eps)
    rtol = SERIES_RTOL * min(1.0, (1.0 - z) / (1.0 - CONNECTION_SWITCH))
    u, total, k = 1.0, 0.0, 0
    if g is None:
        while True:
            ratios = _run(p, q, r, s, None, k)[0]
            if not ratios:
                return total, False
            for c in ratios:
                total = total + u
                if abs(u) <= rtol * abs(total) and (
                        abs(c * z) < 1.0 or abs(total) == math.inf):
                    return total, True
                u = u * (c * z)
            k += len(ratios)
    mass = 0.0
    while True:
        ratios, steps = _run(p, q, r, s, eps, k)
        if not ratios:
            return total, mass, False
        for c, rho in zip(ratios, steps):
            piece = u * g
            total = total + piece
            mass = mass + abs(piece)
            # |u_k| max(1, |g_k|) <= rtol |S_k|: both |u_k| and |u_k g_k| are
            if abs(u) <= rtol * abs(total) >= abs(piece) and (
                    abs(c * z) < 1.0 or abs(total) == math.inf):
                return total, mass, True
            u = u * (c * z)
            # no 1 + eps g at eps = 0, where g = inf gives nan
            g = g + rho * (1.0 + eps * g) if eps else g + rho
        k += len(ratios)


@functools.lru_cache(maxsize=TABLE_KEYS)
def _table(p, q, r, s, eps):
    """The z-free terms of the series (p, q, r, s) weighted with eps, or
    with eps None unweighted, as terms = (ratios, steps): c_k and rho_k
    (steps None unweighted). A longer table replaces terms in one
    assignment under _TABLE_LOCK, and no list in it changes after, so a
    reader holds the old lists or the new ones, never a list being filled.
    The TABLE_KEYS tables last used are kept."""
    return types.SimpleNamespace(terms=([], None if eps is None else []))


def _run(p, q, r, s, eps, k):
    """(ratios, steps) of the series of _table(p, q, r, s, eps) from term k
    on, and none from SERIES_MAX_TERMS on (read here at each call): the
    table's terms or, past its end, new ones, as many as there are before
    k (at least _FIRST_RUN, at most TABLE_TERMS). New terms lengthen a
    table that ends at k, up to TABLE_TERMS; a term has the same bits
    whether tabled or not."""
    cap = SERIES_MAX_TERMS
    table = _table(p, q, r, s, eps)
    ratios, steps = table.terms
    if k < len(ratios):
        if k or len(ratios) > cap:
            ratios = ratios[k:cap]
            steps = None if steps is None else steps[k:cap]
        return ratios, steps
    new, new_steps = [], None if eps is None else []
    end = min(k + min(max(k, _FIRST_RUN), TABLE_TERMS), cap)
    for j in range(k, end):
        new.append((p + j) * (q + j) / ((r + j) * (s + j)))
        if eps is not None:
            new_steps.append(_bracket_step(p, q, r, s, j, eps))
    if k < TABLE_TERMS:
        room = TABLE_TERMS - k
        with _TABLE_LOCK:
            ratios, steps = table.terms
            if len(ratios) == k:   # else another thread has lengthened it
                table.terms = (ratios + new[:room], None if steps is None
                               else steps + new_steps[:room])
    return new, new_steps


def _clear_tables():
    """Empty every table and constant set that the series keep."""
    for cache in (_table, _paired_constants, _connection, _log_constants):
        cache.cache_clear()


def _bracket_step(p, q, r, s, k, eps):
    """rho_k of _sums: the digamma step, each 1/x log1p(eps / x) / eps.
    A step past double range is +-inf, as the plain sum of 1/x gives at
    eps = 0 (math.expm1 would raise); callers keep |eps| < 1, so an e^x
    past range divided by eps is past range too."""
    if not eps:
        return 1.0 / (p + k) + 1.0 / (q + k) - 1.0 / (r + k) - 1.0 / (s + k)
    x = (math.log1p(eps / (p + k)) + math.log1p(eps / (q + k))
         - math.log1p(eps / (r + k)) - math.log1p(eps / (s + k)))
    try:
        return math.expm1(x) / eps
    except OverflowError:
        return math.inf / eps


def _terms(p, q, r, s, eps):
    """(c_k, rho_k) of _run for k = 0, 1, ... up to SERIES_MAX_TERMS, rho_k
    None for an unweighted series."""
    k = 0
    while True:
        ratios, steps = _run(p, q, r, s, eps, k)
        if not ratios:
            return
        yield from zip(ratios, itertools.repeat(None) if steps is None
                       else steps)
        k += len(ratios)


def _array_sums(p, q, r, s, z, g, eps):
    """_sums for an array z: one numpy loop over the terms of the series'
    table that carries only the entries still running. The last eight are
    summed again alone, in Python floats, which is cheaper than numpy's
    per-call cost on a few entries."""
    out, masses = np.empty_like(z), np.empty_like(z)
    converged = np.zeros(z.shape, dtype=bool)
    live, zl, gl = np.arange(z.size), z, g
    rtol = SERIES_RTOL * np.minimum(1.0, (1.0 - z) / (1.0 - CONNECTION_SWITCH))
    u, total, mass = np.ones_like(z), np.zeros_like(z), np.zeros_like(z)
    with np.errstate(over="ignore", invalid="ignore"):
        for c, rho in _terms(p, q, r, s, None if g is None else eps):
            if live.size <= 8:
                break
            if g is None:
                total = total + u
                bound = np.abs(u)
            else:              # |u_k| max(1, |g_k|), as max(|u_k|, |u_k g_k|)
                piece = u * gl
                total = total + piece
                mass = mass + np.abs(piece)
                bound = np.maximum(np.abs(u), np.abs(piece))
            ratio = c * zl
            stop = bound <= rtol * np.abs(total)
            if stop.any():
                stop &= (np.abs(ratio) < 1.0) | np.isinf(total)
                out[live[stop]] = total[stop]
                masses[live[stop]] = mass[stop]
                converged[live[stop]] = True
                keep = ~stop
                live, zl, rtol, u, total, mass, ratio = (x[keep] for x in (
                    live, zl, rtol, u, total, mass, ratio))
                gl = None if g is None else gl[keep]
            u = u * ratio
            if g is not None:      # as _sums: no 1 + eps g at eps = 0
                gl = gl + (rho * (1.0 + eps * gl) if eps else rho)
        else:                      # the entries left reached the term cap
            out[live], masses[live] = total, mass
            live = live[:0]
    for i in live:
        one = _sums(p, q, r, s, float(z[i]), None if g is None else
                    float(g[i]), eps)
        out[i], masses[i], converged[i] = one[0], one[-2], one[-1]
    return (out, converged) if g is None else (out, masses, converged)


def _rgamma(x: float) -> float:
    """1 / Gamma(x), 0 at the poles x = 0, -1, -2, ..."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


def _scaled(val, law: BetaJumps, m: int, div: float):
    """val (alpha)_m / (alpha + beta)_m / div, a factor at a time, for val
    a float or an array: the scale of _power_moment's 2F1."""
    a, b = law.alpha, law.beta
    for j in range(m):
        val = val * (a + j) / (a + b + j)
    return val / div


def _times_power(v: float, x: float, d: float, law: BetaJumps, m: int,
                 div: float) -> float:
    """_scaled(v x^d, law, m, div), +-inf only where that lies beyond double
    range (x^d or v x^d alone may)."""
    try:
        value = _scaled(v * x ** d, law, m, div)
        if abs(value) < math.inf:
            return value
    except OverflowError:
        pass
    try:
        half = x ** (d / 2.0)
    except OverflowError:
        return _scaled(math.copysign(math.inf, v), law, m, div)
    return _scaled(v * half, law, m, div) * half


def _each(fn, xs, *consts):
    """fn(*xs, *consts) for xs floats or, for xs arrays of one shape, entry
    by entry in Python floats: the scalar math of this module that does
    not broadcast (an entry has the bits of its floats alone)."""
    if not isinstance(xs[0], np.ndarray):
        return float(fn(*map(float, xs), *consts))
    flat = (np.asarray(a, dtype=float).ravel().tolist() for a in xs)
    return np.array([float(fn(*x, *consts)) for x in zip(*flat)]).reshape(
        xs[0].shape)


def _paired_sum(p: float, q: float, m: int, eps: float, w):
    """(f, s, sum of |terms of s|, converged): the k >= m terms of DLMF
    15.8.4's two sums at c - a - b = m + eps, p = a + m and q = b + m,
    paired across their poles at eps = 0 (N. Michel and M. V. Stoitsov,
    Comput. Phys. Commun. 178 (2008) 535). Term k = m + n of the first sum
    and term n of the second add up to -Gamma(c) (-w)^m f / (Gamma(a)
    Gamma(b) m!) times term n of s = sum_n (p)_n (q)_n / ((1 - eps)_n
    (1 + m)_n) w^n g_n, with f = (pi eps / sin(pi eps)) Gamma(p) Gamma(q) /
    (Gamma(p + eps) Gamma(q + eps) Gamma(1 - eps)) and g_n = expm1(eps l_n)
    / eps, l_0 = ln w + D(p) + D(q) - D(1 - eps) - D(1 + m) for D of
    _digamma. At eps = 0, f = 1 and g_n = l_n: DLMF 15.8.10."""
    f, l0 = _paired_constants(p, q, m, eps)
    g = _each(_paired_weight, (w,), eps, l0)
    return (f,) + _sums(p, q, 1.0 - eps, m + 1.0, w, g=g, eps=eps)


@functools.lru_cache(maxsize=TABLE_KEYS)
def _paired_constants(p: float, q: float, m: int, eps: float):
    """(f, l_0 - ln w) of _paired_sum, which hold for every w."""
    if eps:
        dp, dq, d1 = (_digamma(x, eps) for x in (p, q, 1.0 - eps))
        f = math.pi * eps / math.sin(math.pi * eps) \
            * math.exp(-eps * (dp + dq - d1))
        return f, dp + dq - d1 - _digamma(m + 1.0, eps)
    return 1.0, 2.0 * EULER_GAMMA - math.fsum(
        1.0 / j for j in range(1, m + 1)) + _digamma(p) + _digamma(q)


def _paired_weight(w: float, eps: float, l0: float) -> float:
    """g_0 of _paired_sum at w, with l_0 = ln w + l0."""
    if eps:
        return math.expm1(eps * (math.log(w) + l0)) / eps
    return math.log(w) + l0


def _hyp2f1_near_one(w, law: BetaJumps, m: int, eta: float, shift: float,
                     div: float):
    """(_scaled(2F1(a, b; c; 1 - w)), where that holds) for w a float or an
    array in (0, 1), a bool or a bool array, with _power_moment's a = eta +
    shift, b = alpha + m, c = alpha + beta + m and d = c - a - b. With d =
    n + eps > 0, n the integer nearest, it is the k < n terms of DLMF
    15.8.4's first sum, a finite sum in (-w)^k, and the rest by
    _paired_sum, with no pole to cancel. It fails where a Gamma factor
    overflows, the series does not converge, or the pieces add up to
    CONNECTION_MAX_GAIN / w times the result. For d < 0 Euler's
    transformation (DLMF 15.8.1) comes first, the result scaled before its
    factor w^d."""
    a, b, c = eta + shift, law.alpha + m, law.alpha + law.beta + m
    try:
        euler, a, b, d, n, coeffs, c2 = _connection(
            a, b, c, math.fsum((law.beta, -eta, -shift)))
        total = mass = 0.0 * w
        x = 1.0 + total            # (-w)^k
        for t in coeffs:
            piece = t * x
            total = total + piece
            mass = mass + abs(piece)
            x = x * -w
        ok = True
        if c2 != 0.0:              # else a or b is a pole: the finite sum
            f, s2, mass2, ok = _paired_sum(a + n, b + n, n, d - n, w)
            c2 = c2 * f * x
            total, mass = total + c2 * s2, mass + abs(c2) * mass2
    except OverflowError:
        return w * math.nan, w < 0.0       # (nan, False) for every entry
    holds = ok & (mass * w < CONNECTION_MAX_GAIN * abs(total))
    if euler:
        return _each(_times_power, (total, w), -d, law, m, div), holds
    return _scaled(total, law, m, div), holds


@functools.lru_cache(maxsize=TABLE_KEYS)
def _connection(a: float, b: float, c: float, d: float):
    """The w-free part of _hyp2f1_near_one: (euler, a, b, d, n, the finite
    sum's coefficients, the paired sums' factor without f (-w)^n), after
    Euler's transformation where d < 0."""
    euler = d < 0.0
    if euler:
        a, b, d = c - a, c - b, -d
    n = round(d)
    gc = math.gamma(c)
    t = gc * _rgamma(a + d) * _rgamma(b + d) * math.gamma(d) if n else 0.0
    coeffs = []
    for k in range(n):
        if k:
            t *= (a + k - 1.0) * (b + k - 1.0) / (k * (d - k))
        coeffs.append(t)
    c2 = -gc * _rgamma(a) * _rgamma(b) / math.gamma(n + 1.0)
    return euler, a, b, d, n, tuple(coeffs), c2


def _hyp2f1_direct(z, law: BetaJumps, m: int, eta: float, shift: float,
                   div: float):
    """(_scaled(2F1(a, b; c; z)), converged) of _hyp2f1_near_one's a, b
    and c, by the direct series."""
    total, ok = _sums(eta + shift, law.alpha + m, law.alpha + law.beta + m,
                      1.0, z)
    return _scaled(total, law, m, div), ok


def _near_one_or_direct(z, near_one, direct, *args):
    """near_one(1 - z, *args) from CONNECTION_SWITCH where it holds, else
    direct(z, *args), for z a float or an array; both give (value, where
    it holds). NonConvergence where neither converges."""
    if not isinstance(z, np.ndarray):
        if z >= CONNECTION_SWITCH:
            value, holds = near_one(1.0 - float(z), *args)
            if holds:
                return value
        value, ok = direct(z, *args)
    else:
        value, ok = np.empty_like(z), np.zeros(z.shape, dtype=bool)
        near = np.flatnonzero(z >= CONNECTION_SWITCH)
        value[near], ok[near] = near_one(1.0 - z[near], *args)
        rest = np.flatnonzero(~ok)
        value[rest], ok[rest] = direct(z[rest], *args)
        ok = ok.all()
    if not ok:
        raise NonConvergence(f"series unconverged at z = {z}")
    return value


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b) for a, b > 0."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _digamma(x: float, eps: float = 0.0) -> float:
    """digamma(x) for x > 0 or, for eps != 0, D(x) = (ln Gamma(x + eps) -
    ln Gamma(x)) / eps, its mean over [x, x + eps]: the recurrence D(x) =
    D(x + 1) - log1p(eps / x) / eps (1/x at eps = 0) up to x >= 12, then
    the asymptotic series of DLMF 5.11.2 through its z^-14 term (the next
    is below 1e-18 there), its mean taken in log1p and expm1."""
    shift = []
    while x < 12.0:
        shift.append(math.log1p(eps / x) / eps if eps else 1.0 / x)
        x += 1.0
    if eps:
        lg = math.log1p(eps / x)   # (x + eps)^j = x^j exp(j lg)
        tail = -math.fsum(c * x ** (1 - 2 * k) * math.expm1((1 - 2 * k) * lg)
                          for k, c in enumerate(_STIRLING, 1)) / eps
        return math.log(x) + lg + ((x - 0.5) * lg / eps - 1.0) - tail \
            - math.fsum(shift)
    w = 1.0 / (x * x)
    tail = w * (1.0 / 12.0 - w * (1.0 / 120.0 - w * (1.0 / 252.0 - w * (
        1.0 / 240.0 - w * (1.0 / 132.0 - w * (691.0 / 32760.0
                                              - w / 12.0))))))
    return math.log(x) - 0.5 / x - tail - math.fsum(shift)


def _digamma_gap(x: float, a: float) -> float:
    """digamma(x + a) - digamma(x) for x, a > 0, as _digamma's recurrence
    and asymptotic series differenced term by term, with no cancellation."""
    shift = []
    while x < 12.0:
        shift.append(a / (x * (x + a)))
        x += 1.0
    lg = math.log1p(a / x)
    tail = math.fsum(c * (1 - 2 * k) * x ** (-2 * k) * math.expm1(-2 * k * lg)
                     for k, c in enumerate(_STIRLING, 1))
    return lg + 0.5 * a / (x * (x + a)) + tail + math.fsum(shift)


def _overflow_as_domain_error(fn):
    """Report a float overflow (in the value function at a huge or tiny eta,
    say) as a DomainError instead of an untyped OverflowError."""
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
            raise DomainError(f"{fn.__name__} overflowed: {exc}") from exc
    return wrapped


def _check_kappa_eta(kappa: float, eta: float) -> None:
    if not (0.0 <= kappa <= 1.0):
        raise DomainError(f"kappa={kappa} outside [0, 1]")
    if not (0.0 < eta < math.inf):
        raise DomainError(f"eta={eta} must be positive and finite")


def _discrete_sum(law: DiscreteJumps, kappa, term):
    """sum_i term(w_i, y_i, 1 - kappa y_i) over the atoms y_i of weight w_i:
    a discrete law's exact moment, for kappa a float or an array (a sum per
    entry, with the bits of that kappa alone)."""
    y = law.points
    total = np.sum(term(law.weights, y, 1.0 - np.multiply.outer(kappa, y)),
                   axis=-1)
    return total if isinstance(kappa, np.ndarray) else float(total)


def _log_term(w, y, z):
    """The term of E[ln(1 - kappa Y)] in _discrete_sum."""
    return w * np.log(z)


def _power_moment(law, m: int, eta: float, shift: float, kappa: float,
                  div: float = 1.0) -> float:
    """E[Y^m (1 - kappa Y)^(-s)] / div with s = eta + shift: the one route
    of every power-type jump functional (see the module docstring); kappa
    is a float, or for a discrete law a float or an array. For a Beta law
    below kappa = 1 it is (alpha)_m / (alpha + beta)_m 2F1(s, alpha + m;
    alpha + beta + m; kappa) (utility_jump_curve takes the same route for
    a grid). c - a - b = beta - s is rounded once: near kappa = 1 the
    result goes like (1 - kappa)^(c - a - b), so its error comes back times
    ln(1 - kappa)."""
    s = eta + shift
    if isinstance(law, DiscreteJumps):
        # a term beyond double range (z ** s underflows at large s) is +inf
        with np.errstate(divide="ignore", over="ignore"):
            return _discrete_sum(law, kappa,
                                 lambda w, y, z: w * y ** m / z ** s) / div
    if kappa == 1.0:
        a, b = law.alpha, law.beta
        if s >= b:
            return math.inf / div
        return math.exp(_log_beta(a + m, b - s) - _log_beta(a, b)) / div
    return _near_one_or_direct(kappa, _hyp2f1_near_one, _hyp2f1_direct,
                               law, m, eta, shift, div)


def psi(jumps: JumpLaw, kappa: float, eta: float) -> float:
    """E[Y / (1 - kappa Y)^eta]."""
    _check_kappa_eta(kappa, eta)
    return _power_moment(jumps.law, 1, eta, 0.0, kappa)


def psi_dkappa(jumps: JumpLaw, kappa: float, eta: float) -> float:
    """E[Y^2 / (1 - kappa Y)^(1+eta)], i.e. (1/eta) d(psi)/d(kappa)."""
    _check_kappa_eta(kappa, eta)
    return _power_moment(jumps.law, 2, eta, 1.0, kappa)


def _log_near_one(w, a: float, b: float):
    """E[ln(1 - kappa Y)] for Y ~ Beta(a, b), w = 1 - kappa a float or an
    array, and where that holds, as in _hyp2f1_near_one: minus the
    derivative at 0 of 2F1(., a; a + b; 1 - w) by DLMF 15.8.4 at m =
    max(1, round b), eps = b - m, where only 1/Gamma(0) = 0 moves (its
    derivative is 1): digamma(b) - digamma(a + b) - sum_(k = 1)^(m - 1)
    (a)_k w^k / (k (1 - b)_k) + Gamma(a + b) (-w)^m f / (Gamma(a) m!) s,
    with f and s of _paired_sum at p = m and q = a + m."""
    try:
        m, c2, gap = _log_constants(a, b)
        f, s2, mass2, ok = _paired_sum(float(m), a + m, m, b - m, w)
    except OverflowError:
        return w * math.nan, w < 0.0
    total = 0.0 * w - gap
    mass, t, x = abs(total), 1.0 + 0.0 * w, -w
    for k in range(1, m):          # t = (a)_k w^k / (1 - b)_k, x = (-w)^k
        t = t * ((a + k - 1.0) / (k - b) * w)
        total = total - t / k
        mass = mass + abs(t / k)
        x = x * -w
    c2 = c2 * f * x
    total = total + c2 * s2
    return total, ok & ((mass + abs(c2) * mass2) * w
                        < CONNECTION_MAX_GAIN * abs(total))


@functools.lru_cache(maxsize=TABLE_KEYS)
def _log_constants(a: float, b: float):
    """The w-free part of _log_near_one: (m, Gamma(a + b) / (Gamma(a) m!),
    digamma(a + b) - digamma(b)). Gamma(a + b) is taken first, so that an
    overflow comes before the finite sum, which a huge b makes long."""
    m = max(1, round(b))
    c2 = math.gamma(a + b) * _rgamma(a) / math.gamma(m + 1.0)
    return m, c2, _digamma_gap(b, a)


def _log_direct(kappa, a: float, b: float):
    """(E[ln(1 - kappa Y)], converged), Y ~ Beta(a, b), by its direct
    series -kappa a / (a + b) 3F2(1, 1, a + 1; 2, a + b + 1; kappa)."""
    total, ok = _sums(a + 1.0, 1.0, a + b + 1.0, 2.0, kappa)
    return -kappa * a / (a + b) * total, ok


def utility_jump_term(jumps: JumpLaw, kappa: float, eta: float) -> float:
    """E[U_eta(1 - kappa Y)]: the jump contribution to the objective."""
    _check_kappa_eta(kappa, eta)
    law = jumps.law
    if eta != 1.0:
        return _power_moment(law, 0, eta, -1.0, kappa, 1.0 - eta)
    if isinstance(law, DiscreteJumps):
        return _discrete_sum(law, kappa, _log_term)
    if kappa == 1.0:               # E[ln(1 - Y)] for Y ~ Beta(alpha, beta)
        return -_digamma_gap(law.beta, law.alpha)
    return _near_one_or_direct(kappa, _log_near_one, _log_direct, law.alpha,
                               law.beta)


def utility_jump_curve(jumps: JumpLaw, kappas: np.ndarray,
                       eta: float) -> np.ndarray:
    """Vectorized E[U_eta(1 - kappa Y)] over a kappa grid: the grid oracle's
    jump term. Every entry takes the routes of utility_jump_term, with the
    bits of the same kappa alone: a discrete law's exact sum, and for a
    Beta law every kappa < 1 at once and kappa = 1 by the closed form, -inf
    where E[U_eta(1 - Y)] diverges (eta >= beta + 1), the objective's true
    value there. A kappa outside [0, 1], NaN too, is a DomainError."""
    kappas = np.asarray(kappas, dtype=float)
    outside = kappas[~((0.0 <= kappas) & (kappas <= 1.0))]
    _check_kappa_eta(outside[0] if outside.size else 0.0, eta)
    law = jumps.law
    if isinstance(law, DiscreteJumps):
        if eta == 1.0:
            return _discrete_sum(law, kappas, _log_term)
        return _power_moment(law, 0, eta, -1.0, kappas, 1.0 - eta)
    out = np.empty_like(kappas)
    summed = np.flatnonzero(kappas < 1.0)
    if eta == 1.0:
        out[summed] = _near_one_or_direct(
            kappas[summed], _log_near_one, _log_direct, law.alpha, law.beta)
    else:
        out[summed] = _near_one_or_direct(
            kappas[summed], _hyp2f1_near_one, _hyp2f1_direct, law, 0, eta,
            -1.0, 1.0 - eta)
    for i in np.flatnonzero(kappas == 1.0):
        out[i] = utility_jump_term(jumps, float(kappas[i]), eta)
    return out


class Ordering(enum.Enum):
    DOMINATES = "dominates"
    DOMINATED_BY = "dominated-by"
    INCOMPARABLE = "incomparable"


def _cdf(law, y: np.ndarray) -> np.ndarray:
    if isinstance(law, BetaJumps):
        return _beta_cdf(law.alpha, law.beta, y)
    pts, w = law.points, law.weights
    return (w[None, :] * (pts[None, :] <= y[:, None])).sum(axis=1)


def _beta_cdf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) 2F1(a + b, 1; a + 1; x) for
    x <= 1/2 (DLMF 8.17.7), and 1 - I_(1 - x)(b, a) above (DLMF 8.17.4)."""
    out = np.empty_like(x)
    for upper, p, q in ((False, a, b), (True, b, a)):
        i = np.flatnonzero((x > 0.5) == upper)
        y = 1.0 - x[i] if upper else x[i]
        total, ok = _sums(p + q, 1.0, p + 1.0, 1.0, y)
        if not ok.all():
            raise NonConvergence(f"Beta({a}, {b}) CDF series unconverged")
        v = np.exp(p * np.log(y) + q * np.log1p(-y) - math.log(p)
                   - _log_beta(p, q)) * total
        out[i] = 1.0 - v if upper else v
    return out


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


def _generator(seed) -> np.random.Generator:
    """The random stream of seed, an int or a np.random.SeedSequence, the
    one source of every Monte Carlo draw (sample_jumps, and each block of
    simulate's paths): numpy's Generator on the SFC64 bit generator, whose
    normals and gammas come faster than Philox's."""
    return np.random.Generator(np.random.SFC64(seed))


def _draw_y(rng, law, out: np.ndarray) -> np.ndarray:
    """Fill out with i.i.d. draws of Y from rng and return it: the one
    sampler of the jump size.

    Beta sampling goes through the two-Gamma-draw ratio so the draw count
    per variate is fixed; the ratio g1 / (g2 + g1) is formed in out, which
    holds g1.

    A discrete law takes numpy's own Generator.choice recipe, so the stream
    and the bits are choice's: one uniform u a draw, against
    cdf = weights.cumsum() / its last entry. The atom's index, choice's
    searchsorted of u, is here the count of cdf[:-1] <= u, one pass an
    atom, which at a few atoms is faster. Weights that choice would refuse
    (a negative one, or a sum off 1 by more than sqrt(eps)) are refused.
    """
    if isinstance(law, BetaJumps):
        rng.standard_gamma(law.alpha, out=out)
        g2 = rng.standard_gamma(law.beta, size=out.size)
        g2 += out
        out /= g2
        return out
    w = law.weights
    cdf = w.cumsum()
    if not (np.all(w >= 0.0) and abs(cdf[-1] - 1.0) <= _WEIGHT_SUM_TOL):
        raise ValueError(f"jump weights must be non-negative and sum to 1, "
                         f"got {w.tolist()}")
    cdf /= cdf[-1]
    u = rng.random(out.size)
    idx = np.zeros(out.size, dtype=np.intp)
    for c in cdf[:-1]:
        idx += u >= c
    return np.take(law.points, idx, out=out)


def sample_jumps(jumps: JumpLaw, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws of Y, deterministic given seed."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _draw_y(_generator(seed), jumps.law, np.empty(n))


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
