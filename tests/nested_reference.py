"""The nested route to the differential-rates allocation sum, kept as a test
reference: for a fixed shadow value xi, take the kappa root of
h(., xi, eta), then sum pi(xi, kappa). The solvers no longer take it;
threshold_etas reads the sign of pi.1 - 1 from one h call, and the tests
check that against this route."""

from pikappa.errors import NoThreshold
from pikappa.rootfind import bisect
from pikappa.solvers import _solve_kappa


def kappa_of_xi(kern, xi: float, eta: float):
    return _solve_kappa(lambda k: kern.h(k, xi, eta))


def pi_sum(kern, xi: float, eta: float) -> float:
    return float(kern.pi(xi, kappa_of_xi(kern, xi, eta)[0], eta).sum())


def threshold_nested(kern, xi: float, lo: float, hi: float,
                     xtol: float) -> float:
    """eta with pi(xi, eta).1 = 1 by an eta bisection over kappa roots."""
    f = lambda eta: pi_sum(kern, xi, eta) - 1.0
    f_lo, f_hi = f(lo), f(hi)
    if (f_lo > 0) == (f_hi > 0):
        raise NoThreshold(f"no sign change for xi={xi}")
    return bisect(f, lo, hi, xtol=xtol, flo=f_lo, fhi=f_hi).root
