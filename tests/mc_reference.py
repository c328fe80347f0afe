"""The unblocked terminal-utility kernel, kept as a test reference: it adds
every jump log into its path with one np.add.at over all n paths, works
the whole n-float buffer a step at a time and divides each path by
1 - eta. simulate._terminal_utilities walks the paths in blocks and leaves
the division to the estimators instead; the tests divide its values and
check them against this one bit for bit."""

import numpy as np

from pikappa.errors import DomainError
from pikappa.simulate import LOG_FLOOR, _policy_coefficients


def terminal_utilities(policy, z, y, owner, model, jumps, friction, utility,
                       config, wealth=False):
    """U_eta(V_T) on each path, the number of floored paths, and the floored
    V_T when wealth is set (else None), as simulate._terminal_utilities."""
    T = config.horizon
    drift, var_rate = _policy_coefficients(policy, model, jumps, friction)
    ky = policy.kappa * y
    if np.any(ky >= 1.0):
        raise DomainError("sampled 1 - kappa Y <= 0; jump law violates Y < 1")
    np.negative(ky, out=ky)
    np.log1p(ky, out=ky)
    w = np.multiply(z, np.sqrt(var_rate * T))
    w += np.log(config.x0) + drift * T
    for row in np.atleast_2d(w):
        np.add.at(row, owner, ky)       # each path's jumps in draw order
    floored = int(np.count_nonzero(w < LOG_FLOOR))
    np.maximum(w, LOG_FLOOR, out=w)
    v = np.exp(w) if wealth else None
    eta = utility.eta
    if eta != 1.0:
        w *= 1.0 - eta
        np.exp(w, out=w)
        w /= 1.0 - eta
    return w, floored, v
