"""The unblocked conditional kernel, kept as a test reference: it sums
every path's jump logs with one np.add.at over all n paths, zero on a
jumpless path, maps all n sums a step at a time to their conditional
utility and divides each path by 1 - eta. simulate._terminal_utilities
walks the paths in blocks, forms only the jumped ones and leaves the
division to the estimators instead; the tests expand its blocks, divide
its values and check them against this one bit for bit."""

import math

import numpy as np

from pikappa.errors import DomainError
from pikappa.simulate import _policy_coefficients


def conditional_utilities(policy, y, owner, n, model, jumps, friction,
                          utility, config):
    """E[U_eta(V_T) | jumps] on each of the n paths, the path of jump i
    being owner[i]: exp((1 - eta)(c + J) + (1 - eta)^2 sd^2 / 2) / (1 - eta)
    with the exponent formed as (1 - eta) J + ((1 - eta) c +
    (1 - eta)^2 sd^2 / 2), or c + J at eta = 1, for J the path's sum of
    log(1 - kappa y), c = log x0 + drift T and sd^2 = var_rate T."""
    T = config.horizon
    drift, var_rate = _policy_coefficients(policy, model, jumps, friction)
    ky = policy.kappa * y
    if np.any(ky >= 1.0):
        raise DomainError("sampled 1 - kappa Y <= 0; jump law violates Y < 1")
    np.negative(ky, out=ky)
    np.log1p(ky, out=ky)
    j = np.zeros(n)
    np.add.at(j, owner, ky)             # each path's jumps in draw order
    c = math.log(config.x0) + drift * T
    eta = utility.eta
    if eta == 1.0:
        return j + c
    a = 1.0 - eta
    j *= a
    j += a * c + 0.5 * a * a * (var_rate * T)
    with np.errstate(over="ignore"):
        np.exp(j, out=j)
    return j / a
