"""Bracketing roots of monotone scalar equations.

Every 1-D root in this package is bracketed by a sign change that its
caller writes down in closed form, on an equation that is monotone by
construction, so a bracketing method converges unconditionally and needs no
derivative code. Two methods share one contract:

- brent, Brent's zeroin (R. P. Brent, *Algorithms for Minimization without
  Derivatives*, 1973, ch. 4): inverse quadratic or secant steps, with a
  bisection step wherever these do not shrink the bracket fast enough, so
  it converges superlinearly on a smooth equation and survives a jump in
  f. Every root uses it except the kappa root, which stays on bisection.
- bisect, plain bisection.

Both take a non-empty bracket [lo, hi] on which f changes sign, return an
exact zero of f as it is, and otherwise return the midpoint of the last
bracket, within xtol / 2 of a sign change (xtol / 2 + 2 eps |root| for
brent), after at most MAX_ITER steps. f is evaluated only to
move the bracket: never again at an end the caller has evaluated, nor at
the returned root, since optimality is proved by the certificate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import BracketError

MAX_ITER = 200
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class RootResult:
    """The root and the number of steps (evaluations of f inside the
    bracket) that found it."""
    root: float
    iterations: int


def _ends(f: Callable[[float], float], lo: float, hi: float,
          flo: float | None, fhi: float | None) -> tuple[float, float]:
    """f at both ends of [lo, hi], evaluated here only where not given.

    Raises BracketError for an empty bracket, before f is evaluated, and
    for ends of one strict sign.
    """
    if lo > hi:
        raise BracketError(f"empty bracket [{lo}, {hi}]")
    if flo is None:
        flo = f(lo)
    if fhi is None:
        fhi = f(hi)
    if flo != 0.0 and fhi != 0.0 and (flo > 0) == (fhi > 0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={flo:.3e},{fhi:.3e}")
    return flo, fhi


def bisect(f: Callable[[float], float], lo: float, hi: float,
           xtol: float = 1e-10, flo: float | None = None,
           fhi: float | None = None) -> RootResult:
    """Root of f on [lo, hi], lo <= hi, by bisection; flo = f(lo) and
    fhi = f(hi), evaluated here when not given, must differ in sign.

    An end or midpoint where f is exactly 0 is returned as it is; otherwise
    the root is the midpoint of the last bracket, where f is not evaluated.
    """
    flo, fhi = _ends(f, lo, hi, flo, fhi)
    if flo == 0.0:
        return RootResult(lo, 0)
    if fhi == 0.0:
        return RootResult(hi, 0)
    it = 0
    while hi - lo > xtol and it < MAX_ITER:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        it += 1
        if fm == 0.0:
            return RootResult(mid, it)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return RootResult(0.5 * (lo + hi), it)


def brent(f: Callable[[float], float], lo: float, hi: float,
          xtol: float = 1e-10, flo: float | None = None,
          fhi: float | None = None) -> RootResult:
    """Root of f on [lo, hi], lo <= hi, by Brent's zeroin; flo = f(lo) and
    fhi = f(hi), evaluated here when not given, must differ in sign.

    b is the best iterate and c the opposite end of the bracket, a the
    previous b. Each step interpolates f's inverse through a, b and c (a
    secant when a = c) and takes the step only while it lands well inside
    the bracket and shrinks faster than the one before the last; otherwise
    it bisects. A step is never shorter than tol = 2 eps |b| + xtol / 2, and
    the search stops once |c - b| <= 2 tol. An iterate where f is exactly 0
    is returned as it is; otherwise the root is the midpoint of the last
    bracket, where f is not evaluated.
    """
    fa, fb = _ends(f, lo, hi, flo, fhi)
    if fa == 0.0:
        return RootResult(lo, 0)
    if fb == 0.0:
        return RootResult(hi, 0)
    a, b = lo, hi
    c, fc = a, fa
    d = e = b - a
    it = 0
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * xtol
        half = 0.5 * (c - b)
        if abs(half) <= tol or it >= MAX_ITER:
            return RootResult(b + half, it)
        p = q = 0.0
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
        if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(e * q)):
            e, d = d, p / q
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, half)
        fb = f(b)
        it += 1
        if fb == 0.0:
            return RootResult(b, it)
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
