"""Exact Monte Carlo for the terminal wealth under a constant policy.

No time discretization: for a constant (pi, kappa) the continuous part of
the wealth is lognormal and the jump product is an independent compound
Poisson factor, so terminal wealth is sampled from its exact law and the
closed-form-vs-MC comparison is a sharp test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hamiltonian import friction_term
from .jumps import _draw_y
from .models import FrictionSpec, JumpLaw, MarketModel, Policy, Utility

WEALTH_FLOOR = 1e-300


@dataclass(frozen=True)
class SimConfig:
    horizon: float = 1.0
    x0: float = 1.0
    n_paths: int = 100_000
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.x0 <= 0.0:
            raise ValueError("initial wealth must be positive")
        if self.n_paths < 1:
            raise ValueError("need at least one path")


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    std_error: float
    n_paths: int
    floor_fraction: float


def _policy_coefficients(policy: Policy, model: MarketModel,
                         friction: FrictionSpec):
    """Deterministic drift and Gaussian variance rate of log wealth."""
    pi, kappa = policy.pi, policy.kappa
    st = model.sigma.T @ pi
    var_rate = float(st @ st) + (model.b * kappa) ** 2 \
        - 2.0 * model.b * kappa * float(pi @ (model.sigma @ model.rho))
    f = friction_term(friction, model, pi, kappa)
    drift = model.r + f + float(pi @ (model.mu - model.r)) - 0.5 * var_rate
    return drift, max(var_rate, 0.0)


def _draw_jumps(rng, jumps: JumpLaw, n: int, T: float):
    """Poisson jump counts per path, then the pooled jump sizes Y and the
    path each size belongs to."""
    counts = rng.poisson(jumps.lam * T, size=n) if jumps.lam > 0.0 \
        else np.zeros(n, dtype=int)
    y = _draw_y(rng, jumps.law, int(counts.sum()))
    return counts, y, np.repeat(np.arange(n), counts)


def _draw_jump_logs(rng, jumps: JumpLaw, kappa: float, n: int, T: float):
    """Per-path sum of log(1 - kappa Y_i) over a Poisson number of jumps,
    with the per-path jump counts."""
    counts, y, owner = _draw_jumps(rng, jumps, n, T)
    z = 1.0 - kappa * y
    if np.any(z <= 0.0):
        raise DomainError("sampled 1 - kappa Y <= 0; jump law violates Y < 1")
    return np.bincount(owner, weights=np.log(z), minlength=n), counts


def simulate_terminal_utility(policy: Policy, model: MarketModel,
                              jumps: JumpLaw, friction: FrictionSpec,
                              utility: Utility, config: SimConfig,
                              dump_csv=None) -> SimEstimate:
    """Sample mean and standard error of U_eta(V_T) under the policy.

    Deterministic given the seed (counter-based Philox stream, fixed
    reduction order). Antithetic mode negates the Gaussian exponent within
    pairs sharing the jump draws; the standard error then comes from pair
    means. dump_csv optionally writes per-path debug rows
    (path_id, N_T, G, V_T, utility).
    """
    T, x = config.horizon, config.x0
    eta = utility.eta
    drift, var_rate = _policy_coefficients(policy, model, friction)
    sd = np.sqrt(var_rate * T)
    rng = np.random.Generator(np.random.Philox(config.seed))

    if config.antithetic and config.n_paths % 2:
        raise ValueError("antithetic sampling needs an even path count")
    n = config.n_paths // 2 if config.antithetic else config.n_paths
    z = rng.standard_normal(n)
    jl, counts = _draw_jump_logs(rng, jumps, policy.kappa, n, T)
    g = sd * z
    if config.antithetic:
        g = np.concatenate([g, -g])
        jl = np.concatenate([jl, jl])
        counts = np.concatenate([counts, counts])
    logv = np.log(x) + drift * T + g + jl

    v = np.exp(logv)
    floored = v < WEALTH_FLOOR
    v = np.maximum(v, WEALTH_FLOOR)
    u = np.log(v) if eta == 1.0 else v ** (1.0 - eta) / (1.0 - eta)

    if dump_csv is not None:
        with open(dump_csv, "w", encoding="utf-8") as fh:
            fh.write("path_id,N_T,G,V_T,utility\n")
            for i in range(config.n_paths):
                fh.write(f"{i},{counts[i]},{g[i]:.12g},{v[i]:.12g},"
                         f"{u[i]:.12g}\n")

    if config.antithetic:
        half = config.n_paths // 2
        pair_means = 0.5 * (u[:half] + u[half:])
        mean = float(pair_means.mean())
        se = float(pair_means.std(ddof=1) / np.sqrt(half)) if half > 1 else 0.0
    else:
        mean = float(u.mean())
        se = float(u.std(ddof=1) / np.sqrt(config.n_paths)) \
            if config.n_paths > 1 else 0.0
    return SimEstimate(mean=mean, std_error=se, n_paths=config.n_paths,
                       floor_fraction=float(floored.mean()))


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
    numbers, judged at three standard errors."""
    T, x = config.horizon, config.x0
    eta = utility.eta
    n = config.n_paths
    rng = np.random.Generator(np.random.Philox(config.seed))
    z = rng.standard_normal(n)
    _, y, owner = _draw_jumps(rng, jumps, n, T)

    def terminal_utilities(policy: Policy) -> np.ndarray:
        drift, var_rate = _policy_coefficients(policy, model, friction)
        sd = np.sqrt(var_rate * T)
        jl = np.bincount(owner, weights=np.log1p(-policy.kappa * y),
                         minlength=n)
        v = np.exp(np.log(x) + drift * T + sd * z + jl)
        v = np.maximum(v, WEALTH_FLOOR)
        return np.log(v) if eta == 1.0 else v ** (1.0 - eta) / (1.0 - eta)

    ua = terminal_utilities(policy_a)
    ub = terminal_utilities(policy_b)
    diff = ua - ub
    dm = float(diff.mean())
    dse = float(diff.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    if dm > 3.0 * dse:
        verdict = "A-better"
    elif dm < -3.0 * dse:
        verdict = "B-better"
    else:
        verdict = "indistinguishable"
    return ComparisonVerdict(verdict=verdict, diff_mean=dm, diff_se=dse,
                             mean_a=float(ua.mean()), mean_b=float(ub.mean()))
