"""Exact Monte Carlo for the terminal wealth under a constant policy.

No time discretization: for a constant (pi, kappa) the continuous part of
the wealth is lognormal and the jump product is an independent compound
Poisson factor, so terminal wealth is sampled from its exact law and the
closed-form-vs-MC comparison is a sharp test.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hamiltonian import friction_term
from .jumps import _draw_y, _generator
from .models import FrictionSpec, JumpLaw, MarketModel, Policy, Utility

WEALTH_FLOOR = 1e-300
LOG_FLOOR = math.log(WEALTH_FLOOR)
BLOCK = 32_768          # paths per step of the utility kernel: 256 KiB a row


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo settings. At least 2 paths, so that a standard error
    exists; antithetic mode pairs the paths, so it needs an even count and
    at least 2 pairs."""
    horizon: float = 1.0
    x0: float = 1.0
    n_paths: int = 100_000
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self):
        for name in ("horizon", "x0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {value!r}")
        if not isinstance(self.n_paths, numbers.Integral):
            raise ValueError(f"n_paths must be an integer, "
                             f"got {self.n_paths!r}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, "
                             f"got {self.seed!r}")
        if self.n_paths < 2:
            raise ValueError(f"need at least 2 paths for a standard error, "
                             f"got {self.n_paths}")
        if self.antithetic and (self.n_paths % 2 or self.n_paths < 4):
            raise ValueError(f"antithetic sampling needs an even path count "
                             f"of at least 4 (2 pairs), got {self.n_paths}")


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    std_error: float
    floor_fraction: float


def _policy_coefficients(policy: Policy, model: MarketModel, jumps: JumpLaw,
                         friction: FrictionSpec):
    """Deterministic drift and Gaussian variance rate of log wealth."""
    pi, kappa = policy.pi, policy.kappa
    st = model.sigma.T @ pi
    var_rate = float(st @ st) + (model.b * kappa) ** 2 \
        - 2.0 * model.b * kappa * float(pi @ (model.sigma @ model.rho))
    f = friction_term(friction, model, jumps, pi, kappa)
    drift = model.r + f + float(pi @ (model.mu - model.r)) - 0.5 * var_rate
    return drift, max(var_rate, 0.0)


# The last draw, (key, jumps, z, y, owner), kept so that calls on the same
# config and law share one set of random numbers; () before the first. Not
# None: perfbench's Tracer.unwrapped() takes every module-level None for an
# unwrapped layer function.
_last_draw = ()


def _common_draws(jumps: JumpLaw, n: int, config: SimConfig):
    """The n paths' standard normals z, then the pooled jump sizes y and the
    path each belongs to (sorted), from the stream of config.seed
    (jumps._generator: numpy's Generator on SFC64).

    The stream is drawn in this order: z = standard_normal(n); one total
    jump count N ~ Poisson(n lam T), or 0 when lam = 0; the N owners,
    uniform on the n paths, then sorted; the N jump sizes. This is exact:
    n independent Poisson(lam T) counts have the law of one Poisson(n lam T)
    total whose points fall on paths chosen uniformly and independently
    (superposition and conditional uniformity of a Poisson process). Sorted
    owners give each block of _terminal_utilities its jumps as one run.

    The last draw is kept (read-only) and returned again while the seed, n,
    the horizon and the JumpLaw object are the same: the entry holds the law,
    so its id is not reused, and laws are immutable. The global is read once
    and replaced in one assignment, so concurrent callers stay correct.
    """
    global _last_draw
    key = (config.seed, n, config.horizon)
    last = _last_draw
    if last and last[0] == key and last[1] is jumps:
        return last[2:]
    _last_draw = ()
    rng = _generator(config.seed)
    z = rng.standard_normal(n)
    total = int(rng.poisson(jumps.lam * config.horizon * n)) \
        if jumps.lam > 0.0 else 0
    owner = rng.integers(0, n, size=total)
    owner.sort()
    y = _draw_y(rng, jumps.law, total)
    for a in (z, y, owner):
        a.setflags(write=False)
    _last_draw = (key, jumps, z, y, owner)
    return z, y, owner


def _paths(jumps: JumpLaw, config: SimConfig):
    """(z, y, owner) of config's paths: _common_draws for n_paths paths, or
    in antithetic mode for n_paths / 2 paths, whose normals z become the
    two rows [z, -z] over the same jumps."""
    n = config.n_paths // 2 if config.antithetic else config.n_paths
    z, y, owner = _common_draws(jumps, n, config)
    return (np.stack([z, -z]) if config.antithetic else z), y, owner


def _samples(x: np.ndarray, config: SimConfig) -> np.ndarray:
    """The independent samples of a per-path quantity on _paths' draw: the
    pair means of the rows [z, -z] in antithetic mode, else x itself.

    The pair means are formed in x's own buffer, as 0.5 x[0] + 0.5 x[1]:
    halving is exact, so these are the bits of 0.5 (x[0] + x[1]), and a
    pair of finite values never overflows to inf."""
    if not config.antithetic:
        return x
    x *= 0.5
    return np.add(x[0], x[1], out=x[0])


def _terminal_utilities(policy: Policy, z: np.ndarray, y: np.ndarray,
                        owner: np.ndarray, model: MarketModel, jumps: JumpLaw,
                        friction: FrictionSpec, utility: Utility,
                        config: SimConfig, wealth: bool = False):
    """U_eta(V_T) on each path, the number of floored paths, and the floored
    V_T when wealth is set (else None).

    z holds the paths' standard normals, shape (..., n); y the pooled jump
    sizes and owner the path of each, sorted, so every row of z shares the
    jumps. A sampled jump that would take all the wealth is refused.

    The work stays in log space, in one n-float output, BLOCK paths at a
    time so that each block's steps run on a slice that stays in cache: log
    wealth w = ((log x0 + drift T) + sd z) + jump log, the block's jump log
    one bincount over its own run of the sorted owners; w floored at
    LOG_FLOOR, then mapped in place to exp((1 - eta) w) / (1 - eta); at
    eta = 1 the floored w is the utility. That is one exp a path, within
    4 eps (1 + |(1 - eta) w|) relative of
    max(exp(w), WEALTH_FLOOR) ** (1 - eta) / (1 - eta). Each path gets the
    same operations in the same order as in one pass over all n, so the
    blocks do not move a bit. V_T = exp(w) is formed only when wealth asks
    for it. Beyond the output (and V_T), the temporaries are O(BLOCK).
    """
    drift, var_rate = _policy_coefficients(policy, model, jumps, friction)
    sd = np.sqrt(var_rate * config.horizon)
    c = np.log(config.x0) + drift * config.horizon
    kappa, eta = policy.kappa, utility.eta
    n = z.shape[-1]
    u = np.empty(z.shape)
    v = np.empty(z.shape) if wealth else None
    # the jumps of the block from path s are lo:hi, owner being sorted
    cuts = np.searchsorted(owner, range(0, n + BLOCK, BLOCK)).tolist()
    floored = 0
    for s, lo, hi in zip(range(0, n, BLOCK), cuts, cuts[1:]):
        e = min(s + BLOCK, n)
        w = u[..., s:e]
        np.multiply(z[..., s:e], sd, out=w)
        w += c
        ky = kappa * y[lo:hi]
        if np.any(ky >= 1.0):
            raise DomainError("sampled 1 - kappa Y <= 0; "
                              "jump law violates Y < 1")
        np.negative(ky, out=ky)
        np.log1p(ky, out=ky)
        w += np.bincount(owner[lo:hi] - s, weights=ky, minlength=e - s)
        if w.min() < LOG_FLOOR:
            floored += int(np.count_nonzero(w < LOG_FLOOR))
            np.maximum(w, LOG_FLOOR, out=w)
        if wealth:
            np.exp(w, out=v[..., s:e])
        if eta != 1.0:
            w *= 1.0 - eta
            # a floored path at eta above about 2.03 overflows to -inf
            # utility, which _finite_mean refuses
            with np.errstate(over="ignore"):
                np.exp(w, out=w)
            w /= 1.0 - eta
    return u, floored, v


def _finite_mean(x: np.ndarray) -> float:
    """The mean of x; a non-finite one (or a sum that overflows) raises."""
    with np.errstate(over="ignore"):
        mean = float(x.mean())
    if not math.isfinite(mean):
        raise DomainError(f"the Monte Carlo mean of U_eta(V_T) is {mean}: "
                          f"the utilities leave double range")
    return mean


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (SimConfig ensures 2+ samples).

    x is a buffer the caller owns and is centred in place; the sum of
    squares is one dot product. Where that overflows though every sample
    is finite, the centred sample is scaled by its largest magnitude and
    the sum taken again, so a finite sample gives a finite standard error.
    A non-finite mean is a DomainError (_finite_mean)."""
    mean = _finite_mean(x)
    x -= mean
    scale = 1.0
    with np.errstate(over="ignore"):     # an overflow is rescaled below
        ss = float(np.dot(x, x))
    if not math.isfinite(ss):
        scale = max(float(x.max()), -float(x.min()))
        x /= scale
        ss = float(np.dot(x, x))
    return mean, scale * math.sqrt(ss / (x.size - 1)) / math.sqrt(x.size)


def simulate_terminal_utility(policy: Policy, model: MarketModel,
                              jumps: JumpLaw, friction: FrictionSpec,
                              utility: Utility, config: SimConfig,
                              dump_csv=None) -> SimEstimate:
    """Sample mean and standard error of U_eta(V_T) under the policy.

    Deterministic given the seed (numpy's Generator on the SFC64 bit
    generator, fixed reduction order). The stream holds n normals, one
    Poisson(n lam T) total jump count, the jumps' owners drawn uniformly on
    the paths, and the jump sizes; by Poisson superposition this is the
    exact law of n independent compound Poisson paths. One sampler serves
    this and compare_policies, so on the same config, plain or antithetic,
    the mean here equals compare_policies' mean_a bit for bit. One config
    and law are drawn once and shared: the normals and jumps of the last
    draw stay in memory until the next draw, about 8 n (1 + 2 lam T) bytes
    for n paths (16 MB at 1e6 paths and lam T = 0.5). The utilities take
    one n-float output plus O(BLOCK) temporaries, worked in log space a
    block of paths at a time (see _terminal_utilities), and the standard
    error is a centred dot product in that output (see _mean_se); a mean
    out of double range is a DomainError.
    Antithetic mode draws n_paths / 2 normals z and runs the paths [z, -z]
    over the same jump draws; the standard error then comes from the pair
    means. dump_csv optionally writes per-path debug rows
    (path_id, N_T, G, V_T, utility), the antithetic mirror paths last.
    """
    z, y, owner = _paths(jumps, config)
    u, floored, v = _terminal_utilities(policy, z, y, owner, model, jumps,
                                        friction, utility, config,
                                        wealth=dump_csv is not None)

    if dump_csv is not None:
        sd = np.sqrt(_policy_coefficients(policy, model, jumps, friction)[1]
                     * config.horizon)
        n = z.shape[-1]
        counts = np.bincount(owner, minlength=n)
        with open(dump_csv, "w", encoding="utf-8") as fh:
            fh.write("path_id,N_T,G,V_T,utility\n")
            for i, (zi, vi, ui) in enumerate(zip(z.ravel(), v.ravel(),
                                                 u.ravel())):
                fh.write(f"{i},{counts[i % n]},{sd * zi:.12g},{vi:.12g},"
                         f"{ui:.12g}\n")

    mean, se = _mean_se(_samples(u, config))
    return SimEstimate(mean, se, floored / config.n_paths)


@dataclass(frozen=True)
class ComparisonVerdict:
    verdict: str                  # "A-better" | "B-better" | "indistinguishable"
    diff_mean: float
    diff_se: float
    mean_a: float
    mean_b: float


def compare_policies(policy_a: Policy, policy_b: Policy, model: MarketModel,
                     jumps: JumpLaw, friction: FrictionSpec, utility: Utility,
                     config: SimConfig) -> ComparisonVerdict:
    """Paired estimate of E[U(V_T^A)] - E[U(V_T^B)] under common random
    numbers, judged at three standard errors. The draw is the one
    simulate_terminal_utility makes on the same config and law, and is
    shared with it; in antithetic mode the standard error comes from the
    pair means, as there."""
    z, y, owner = _paths(jumps, config)
    ua, ub = (_samples(_terminal_utilities(p, z, y, owner, model, jumps,
                                           friction, utility, config)[0],
                       config) for p in (policy_a, policy_b))
    # refuse a non-finite mean before the difference, which could be
    # inf - inf
    mean_a, mean_b = _finite_mean(ua), _finite_mean(ub)
    ua -= ub
    dm, dse = _mean_se(ua)
    if dm > 3.0 * dse:
        verdict = "A-better"
    elif dm < -3.0 * dse:
        verdict = "B-better"
    else:
        verdict = "indistinguishable"
    return ComparisonVerdict(verdict=verdict, diff_mean=dm, diff_se=dse,
                             mean_a=mean_a, mean_b=mean_b)
