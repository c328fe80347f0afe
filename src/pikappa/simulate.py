"""Exact Monte Carlo for the terminal wealth under a constant policy.

No time discretization: for a constant (pi, kappa) the log wealth is
Gaussian given the path's jumps, so only the compound Poisson jumps are
sampled, and each path contributes its conditional expectation
E[U_eta(V_T) | jumps], a closed form (conditional Monte Carlo; P.
Glasserman, Monte Carlo Methods in Financial Engineering, 2004, ch. 4).
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hamiltonian import friction_term
from .jumps import _draw_y, _generator
from .models import FrictionSpec, JumpLaw, MarketModel, Policy, Utility

WEALTH_FLOOR = 1e-300
LOG_FLOOR = math.log(WEALTH_FLOOR)
BLOCK = 32_768          # paths per block of the draw and of every estimate
# the standard deviation of a rounding error spread evenly over
# [-4 eps, 4 eps]: the relative rounding of one conditional value
ROUNDING = 4.0 * float(np.finfo(float).eps) / math.sqrt(3.0)


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo settings. At least 2 paths, so that a standard error
    exists."""
    horizon: float = 1.0
    x0: float = 1.0
    n_paths: int = 100_000
    seed: int = 0

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


def _log_coefficients(policy: Policy, model: MarketModel, jumps: JumpLaw,
                      friction: FrictionSpec, utility: Utility,
                      config: SimConfig):
    """(c, sd, a, base): given its sum J of jump logs, log V_T is
    Normal(c + J, sd^2), and a path's conditional value exp(a J + base),
    a = 1 - eta, base = a c + a^2 sd^2 / 2; J + c at eta = 1 (a = 1)."""
    drift, var_rate = _policy_coefficients(policy, model, jumps, friction)
    sd2, a = var_rate * config.horizon, _divisor(utility)
    c = math.log(config.x0) + drift * config.horizon
    base = a * c + 0.5 * a * a * sd2 if utility.eta != 1.0 else c
    return c, math.sqrt(sd2), a, base


def _workers() -> int:
    """The CPUs this process may run on (its affinity mask where the OS
    has one), and so the most threads that fill a draw."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill_blocks(fill, count: int) -> list:
    """[fill(0), ..., fill(count - 1)], filled on min(_workers(), count)
    threads, the caller one of them; thread t takes the indices t, t + k,
    t + 2k, ... An exception in any thread is raised in the caller once
    every thread is done. One index starts no thread."""
    k = min(_workers(), count)
    out = [None] * count

    def run(t):
        for b in range(t, count, k):
            out[b] = fill(b)

    if k == 1:
        run(0)
        return out
    # imported here: concurrent.futures loads logging, about 5 ms of every
    # cold start, which only a many-block draw should pay
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(k - 1) as pool:
        helpers = [pool.submit(run, t) for t in range(1, k)]
        run(0)
    for helper in helpers:
        helper.result()
    return out


def _rank_probabilities(lam_t: float) -> list:
    """[q_1, ..., q_K, 0.0], q_k = P(N >= k | N >= k - 1) for N ~
    Poisson(lam_t) truncated at K = ceil(lam_t + 40 sqrt(lam_t)) + 200,
    where P(N > K) < 1e-300 (a Chernoff bound), far below the rounding of
    any q_k; the closing 0.0 is q_{K + 1}.

    No exp(-lam_t) is formed, which underflows beyond lam_t of about 745:
    t_k = P(N >= k) / P(N = k - 1) follows the backward recursion
    t_k = lam_t / k (1 + t_{k + 1}) from t_{K + 1} = 0, and
    q_k = t_k / (1 + t_k), 1 where t_k overflows. An error in t_{k + 1}
    reaches t_k scaled by q_{k + 1} < 1, so the recursion is stable.
    """
    size = math.ceil(lam_t + 40.0 * math.sqrt(lam_t)) + 200
    q, t = [0.0] * (size + 1), 0.0
    for k in range(size, 0, -1):
        t = lam_t / k * (1.0 + t)
        q[k - 1] = t / (1.0 + t) if t < math.inf else 1.0
    return q


# The last draw, (key, jumps, blocks), kept so that calls on the same config
# and law share one set of random numbers; () before the first. Not None:
# perfbench's Tracer.unwrapped() takes every module-level None for an
# unwrapped layer function.
_last_draw = ()


def _common_draws(jumps: JumpLaw, config: SimConfig) -> tuple:
    """The jumps of config's n = n_paths paths, one (y, ranks) a block of
    m_b paths, b BLOCK to min((b + 1) BLOCK, n); no normals. y holds the
    block's jump sizes, and ranks rem_1, rem_2, ..., down to the first
    rem_k = 0, count its paths with at least 1, 2, ... jumps: paths
    [0, rem_k) take the next rem_k sizes as their k-th jumps, so path i has
    N_T = #{k: rem_k > i} jumps, descending along the block.

    Block b draws from child b of np.random.SeedSequence(config.seed),
    through jumps._generator: its ranks by sequential conditional binomials
    rem_k ~ Binomial(rem_{k - 1}, q_k), rem_0 = m_b (_rank_probabilities;
    L. Devroye, Non-Uniform Random Variate Generation, 1986, ch. XI), then
    its sizes. The ranks are those of m_b i.i.d. Poisson(lam T) counts
    sorted in descending order, independent of the i.i.d. sizes, so a block
    is a permutation of m_b independent compound Poisson paths, and every
    estimate, symmetric in its paths, has the exact law. The blocks fill
    on the threads of _fill_blocks; their bits depend only on their
    substreams, and BLOCK is part of the stream's definition.

    The last draw is kept (read-only) and returned again while the seed, n,
    the horizon and the JumpLaw object are the same: the entry holds the
    law, so its id is not reused, and laws are immutable. The global is
    read once and replaced in one assignment, after every block is filled,
    so concurrent callers stay correct.
    """
    global _last_draw
    n = config.n_paths
    key = (config.seed, n, config.horizon)
    last = _last_draw
    if last and last[0] == key and last[1] is jumps:
        return last[2]
    _last_draw = ()
    lam_t = jumps.lam * config.horizon
    count = -(-n // BLOCK)
    # first, and before the rank table, which grows with lam T: a draw
    # beyond memory fails here, its n lam T jump sizes or some 64 words a
    # block for its ranks, substream and Python objects
    np.empty(int(min(n * lam_t + 64.0 * count, 2.0 ** 62)))
    seeds = np.random.SeedSequence(config.seed).spawn(count)
    q = _rank_probabilities(lam_t)

    def fill(b):
        rng = _generator(seeds[b])
        rem, ranks = min(BLOCK, n - b * BLOCK), []
        for qk in q:                    # q ends at 0.0, and so does rem
            rem = rng.binomial(rem, qk)
            ranks.append(rem)
            if not rem:
                break
        y = _draw_y(rng, jumps.law, np.empty(sum(ranks)))
        ranks = np.array(ranks, dtype=np.int64)
        for a in (y, ranks):
            a.setflags(write=False)
        return y, ranks

    blocks = tuple(_fill_blocks(fill, count))
    _last_draw = (key, jumps, blocks)
    return blocks


def _terminal_utilities(policy: Policy, blocks: tuple, model: MarketModel,
                        jumps: JumpLaw, friction: FrictionSpec,
                        utility: Utility, config: SimConfig, inspect=None):
    """E[U_eta(V_T) | jumps] times _divisor(utility) on the draw blocks of
    _common_draws, a block at a time: yields (x, x0, m0, e) a block, x the
    values of its jumped paths [0, rem_1) in a buffer that the next block
    overwrites, x0 the value its m0 = m_b - rem_1 jumpless paths share, and
    e the scale of their rounding. inspect(j, m0, lo), where given, sees the
    block's sums J of jump logs first, lo = K log(1 - max kappa Y) <= J, K
    its most jumps on a path. A jump with kappa Y >= 1 is refused.

    The sums J are added in place in the block's jump logs, whose first
    rem_1 entries are the first jumps of paths [0, rem_1), the k-th jump
    logs of paths [0, rem_k) as one slice, then map to exp(a J + base), one
    exp a path, or to J + c at eta = 1 ((c, sd, a, base) of
    _log_coefficients); x0 is the map at J = 0. A value is within
    4 eps (1 + e) relative of the exact one at the same J (absolute at
    eta = 1), e = |a| (|c| + sd^2 - lo) + a^2 sd^2 / 2 (no a^2 term at
    eta = 1), the summed magnitudes of its exponent's terms, c's own
    -sd^2 / 2 among them; out of double range it is inf, which the
    estimators refuse.
    """
    c, sd, a, base = _log_coefficients(policy, model, jumps, friction,
                                       utility, config)
    kappa, power = policy.kappa, utility.eta != 1.0
    terms = abs(a) * (abs(c) + sd * sd) + (0.5 * a * a * sd * sd if power
                                           else 0.0)
    with np.errstate(over="ignore"):
        x0 = float(np.exp(base)) if power else base
    jl = np.empty(max(y.size for y, _ in blocks))
    for s, (y, ranks) in zip(range(0, config.n_paths, BLOCK), blocks):
        ky = np.multiply(y, -kappa, out=jl[:y.size])
        least = float(ky.min()) if y.size else 0.0
        if least <= -1.0:
            raise DomainError("sampled 1 - kappa Y <= 0; "
                              "jump law violates Y < 1")
        np.log1p(ky, out=ky)
        ranks = ranks.tolist()
        lo = (len(ranks) - 1) * math.log1p(least)
        o = ranks[0]
        j = ky[:o]
        for r in ranks[1:]:
            j[:r] += ky[o:o + r]
            o += r
        m0 = min(BLOCK, config.n_paths - s) - j.size
        if inspect is not None:
            inspect(j, m0, lo)
        j *= a
        j += base
        if power:
            with np.errstate(over="ignore"):
                np.exp(j, out=j)
        yield j, x0, m0, terms - abs(a) * lo


def _divisor(utility: Utility) -> float:
    """What _terminal_utilities' values are divided by to give U_eta(V_T):
    1 - eta, or 1 at eta = 1, where they are E[log V_T | jumps]."""
    return 1.0 - utility.eta if utility.eta != 1.0 else 1.0


def _block_mean(x: np.ndarray) -> float:
    """The mean of x. Where the plain sum overflows though every value is
    finite, it is (x / s).mean() s, s the largest magnitude."""
    with np.errstate(over="ignore"):
        mean = float(np.add.reduce(x)) / x.size
    if not math.isfinite(mean):
        scale = max(float(x.max()), -float(x.min()))
        if math.isfinite(scale):
            mean = float((x / scale).mean()) * scale
    return mean


class _Moments:
    """The count, mean and root mean square deviation of a sample fed a
    block at a time, merged by the pairwise update of Chan, Golub and
    LeVeque (Amer. Statist. 37(3), 1983), of values times divisor, which
    mean and std_error divide out. No term exceeds the sample's largest
    magnitude, so a finite sample keeps a finite standard error."""

    def __init__(self, divisor: float):
        self.divisor = divisor
        self.n, self.raw_mean, self.rms = 0, 0.0, 0.0

    def add(self, x: np.ndarray, spread: bool = True) -> None:
        """Fold in the block x, if not empty; with spread, also its
        deviations, for which x is centred in place."""
        if not x.size:
            return
        mean, scale, ss = self.checked(_block_mean(x)), 1.0, 0.0
        if spread:
            x -= mean
            with np.errstate(over="ignore"):     # rescaled below
                ss = float(np.dot(x, x))
            if not math.isfinite(ss):   # every x finite, their squares not
                scale = max(float(x.max()), -float(x.min()))
                x /= scale
                ss = float(np.dot(x, x))
        self.merge(x.size, mean, scale * math.sqrt(ss / x.size))

    def checked(self, mean: float) -> float:
        """mean, refused where mean / divisor, U_eta(V_T)'s, is not finite."""
        if not math.isfinite(mean / self.divisor):
            raise DomainError(f"the Monte Carlo mean of U_eta(V_T) is "
                              f"{mean / self.divisor}: the utilities leave "
                              f"double range")
        return mean

    def merge(self, m: int, mean: float, rms: float = 0.0) -> None:
        """Fold in m values of the given mean and root mean square
        deviation rms: 0 for m copies of one value, checked as a mean."""
        if not m:
            return
        n = self.n + m
        delta = self.checked(mean) - self.raw_mean
        self.rms = math.hypot(self.rms * math.sqrt(self.n / n),
                              rms * math.sqrt(m / n),
                              delta * (math.sqrt(self.n * m) / n))
        self.raw_mean += delta * (m / n)
        self.n = n

    @property
    def mean(self) -> float:
        return self.raw_mean / self.divisor

    @property
    def std_error(self) -> float:
        return self.rms / math.sqrt(self.n - 1) / abs(self.divisor)


def _rounding(big: float, moments, utility: Utility) -> float:
    """The floor of a standard error: ROUNDING (1 + big) times the summed
    |means| (1 a mean at eta = 1), the spread of _terminal_utilities'
    4 eps (1 + e) rounding for big the largest e."""
    return ROUNDING * (1.0 + big) * sum(
        abs(m.mean) if utility.eta != 1.0 else 1.0 for m in moments)


def _floor_mass(c: float, j, lo: float, sd: float) -> float:
    """sum_i P(V_T < WEALTH_FLOOR) = Phi((LOG_FLOOR - c - j_i) / sd), an
    indicator at sd = 0, for log V_T ~ Normal(c + j_i, sd^2), j_i >= lo.
    Each term underflows to 0, and no erfc is taken, where c + lo is 40 sd
    or more above LOG_FLOOR."""
    if sd == 0.0:
        return float(np.count_nonzero(c + np.atleast_1d(j) < LOG_FLOOR))
    if c + lo - LOG_FLOOR > 40.0 * sd:
        return 0.0
    scale = sd * math.sqrt(2.0)
    return math.fsum(0.5 * math.erfc((c + ji - LOG_FLOOR) / scale)
                     for ji in np.atleast_1d(j).tolist())


def _dump_rows(fh, b: int, ranks: np.ndarray, j: np.ndarray, x: np.ndarray,
               x0: float, m0: int, c: float, sd: float, seed: int,
               divisor: float) -> None:
    """Write block b's rows (path_id, N_T, G, V_T, utility): N_T =
    #{k: rem_k > i}, descending along the block; G = sd Z, its normals Z
    drawn for the dump alone from child 0 of the block's SeedSequence;
    V_T = exp((c + G) + J), J its jump-log sum j (0 if jumpless), not
    floored; and its conditional utility x, or x0, over divisor, the sample
    the estimate averages."""
    m = j.size + m0
    counts = ranks.size - np.searchsorted(ranks[::-1], np.arange(m), "right")
    z = _generator(np.random.SeedSequence(seed, spawn_key=(b, 0)))
    g = sd * z.standard_normal(m)
    w = g + c
    w[:j.size] += j
    with np.errstate(over="ignore"):
        v = np.exp(w)
    u = np.concatenate([x, np.full(m0, x0)]) / divisor
    for i, row in enumerate(zip(counts.tolist(), g.tolist(), v.tolist(),
                                u.tolist())):
        fh.write("{},{},{:.12g},{:.12g},{:.12g}\n".format(b * BLOCK + i,
                                                          *row))


def simulate_terminal_utility(policy: Policy, model: MarketModel,
                              jumps: JumpLaw, friction: FrictionSpec,
                              utility: Utility, config: SimConfig,
                              dump_csv=None) -> SimEstimate:
    """Conditional Monte Carlo mean and standard error of U_eta(V_T).

    Given its jumps, a path's log V_T is Normal(c + J, sd^2), J its sum of
    log(1 - kappa Y), so E[V_T^(1 - eta) | jumps] =
    exp((1 - eta)(c + J) + (1 - eta)^2 sd^2 / 2), and E[log V_T | jumps] =
    c + J. Each path adds that over 1 - eta (see _terminal_utilities), on
    the jumps of _common_draws, kept for the next call on the same config
    and law (about 8 n lam T bytes). The mean and standard error are
    divided by 1 - eta once; a mean out of double range, before or after,
    is a DomainError. The mean equals compare_policies' mean_a bit for bit.

    The standard error is at least the rounding of its own mean, _rounding:
    4 eps (1 + E) |mean| / sqrt(3), E the largest scale e of the values'
    rounding (no |mean| at eta = 1), so where the paths share one value, as
    at kappa = 0, a gap of the closed form's own rounding is not many SEs.
    floor_fraction is the mean of P(V_T < WEALTH_FLOOR | jumps), the share
    of the law below 1e-300, which is not floored. dump_csv optionally
    writes per-path rows (path_id, N_T, G, V_T, utility; see _dump_rows).
    """
    blocks = _common_draws(jumps, config)
    c, sd, _, _ = _log_coefficients(policy, model, jumps, friction,
                                     utility, config)
    moments, floored, big, sums = _Moments(_divisor(utility)), 0.0, 0.0, []

    def inspect(j, m0, lo):
        nonlocal floored
        floored += _floor_mass(c, j, lo, sd) + m0 * _floor_mass(c, 0, 0, sd)
        sums[:] = [j.copy()] if dump_csv is not None else []

    with (open(dump_csv, "w", encoding="utf-8") if dump_csv is not None
          else contextlib.nullcontext()) as fh:
        if fh is not None:
            fh.write("path_id,N_T,G,V_T,utility\n")
        for b, (x, x0, m0, e) in enumerate(_terminal_utilities(
                policy, blocks, model, jumps, friction, utility, config,
                inspect)):
            if fh is not None:
                _dump_rows(fh, b, blocks[b][1], sums[0], x, x0, m0, c, sd,
                           config.seed, moments.divisor)
            big = max(big, e)
            moments.add(x)
            moments.merge(m0, x0)
    se = max(moments.std_error, _rounding(big, [moments], utility))
    return SimEstimate(moments.mean, se, floored / config.n_paths)


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
    numbers, judged at three standard errors: each path adds the difference
    of its two conditional values over the jumps simulate_terminal_utility
    draws on the same config and law, a block at a time, as there. The
    standard error is at least _rounding of the two means, or 0 where every
    difference is exactly 0, as for a policy against itself. All are
    divided by 1 - eta once, and the verdict is judged on the quotients,
    so its sign holds at eta > 1."""
    blocks = _common_draws(jumps, config)
    a, b, diff = (_Moments(_divisor(utility)) for _ in range(3))
    runs = [_terminal_utilities(p, blocks, model, jumps, friction, utility,
                                config) for p in (policy_a, policy_b)]
    big = 0.0
    for (xa, a0, m0, ea), (xb, b0, _, eb) in zip(*runs):
        big = max(big, ea, eb)
        # refuse a non-finite mean before the difference, which could be
        # inf - inf
        a.add(xa, spread=False)
        a.merge(m0, a0)
        b.add(xb, spread=False)
        b.merge(m0, b0)
        xa -= xb
        diff.add(xa)
        diff.merge(m0, a0 - b0)
    exact = diff.rms == 0.0 and diff.raw_mean == 0.0
    dm, dse = diff.mean, max(diff.std_error, 0.0 if exact else _rounding(
        big, (a, b), utility))
    if dm > 3.0 * dse:
        verdict = "A-better"
    elif dm < -3.0 * dse:
        verdict = "B-better"
    else:
        verdict = "indistinguishable"
    return ComparisonVerdict(verdict=verdict, diff_mean=dm, diff_se=dse,
                             mean_a=a.mean, mean_b=b.mean)
