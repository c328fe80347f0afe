"""Bracketing bisection for monotone scalar equations.

Every 1-D root in this package is solved by plain bisection on a sign-change
bracket: the equations are monotone by construction, so bisection converges
unconditionally and needs no derivative code. f is evaluated only to move
the bracket: never again at an end expand_bracket has found, nor at the
returned root, since optimality is proved by the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import BracketError

MAX_ITER = 200


@dataclass(frozen=True)
class RootResult:
    """The root and the number of bisection steps that found it."""
    root: float
    iterations: int


def bisect(f: Callable[[float], float], lo: float, hi: float,
           xtol: float = 1e-10, flo: float | None = None,
           fhi: float | None = None) -> RootResult:
    """Root of f on [lo, hi], lo <= hi, by bisection; flo = f(lo) and
    fhi = f(hi), evaluated here when not given, must differ in sign.

    An end or midpoint where f is exactly 0 is returned as it is; otherwise
    the root is the midpoint of the last bracket, where f is not evaluated.
    """
    if flo is None:
        flo = f(lo)
    if fhi is None:
        fhi = f(hi)
    if flo == 0.0:
        return RootResult(lo, 0)
    if fhi == 0.0:
        return RootResult(hi, 0)
    if (flo > 0) == (fhi > 0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={flo:.3e},{fhi:.3e}")
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


def expand_bracket(f: Callable[[float], float], x0: float = 0.0,
                   step: float = 1.0, max_expand: int = 80
                   ) -> tuple[float, float, float, float]:
    """Geometrically expand outward from x0 until f changes sign.

    Returns (lo, hi, f(lo), f(hi)), the last two of opposite signs and ready
    for bisect's flo and fhi. Raises BracketError if the function appears
    single-signed within the expansion budget (range ~ step * 2^80).
    """
    lo = hi = x0
    flo = fhi = f(x0)
    if flo == 0.0:
        return (x0, x0, flo, fhi)
    d = step
    for _ in range(max_expand):
        lo_new = lo - d
        fl = f(lo_new)
        if (fl > 0) != (fhi > 0):
            return (lo_new, hi, fl, fhi)
        lo, flo = lo_new, fl
        hi_new = hi + d
        fh = f(hi_new)
        if (fh > 0) != (flo > 0):
            return (lo, hi_new, flo, fh)
        hi, fhi = hi_new, fh
        d *= 2.0
    raise BracketError("no sign change found while expanding bracket")
