"""Exact Monte Carlo for the terminal wealth under a constant policy.

No time discretization: for a constant (pi, kappa) the continuous part of
the wealth is lognormal and the jump product is an independent compound
Poisson factor, so terminal wealth is sampled from its exact law and the
closed-form-vs-MC comparison is a sharp test.
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


# The last draw, (key, jumps, draw), kept so that calls on the same config
# and law share one set of random numbers; () before the first. Not None:
# perfbench's Tracer.unwrapped() takes every module-level None for an
# unwrapped layer function.
_last_draw = ()


def _common_draws(jumps: JumpLaw, config: SimConfig):
    """The draw (z, blocks) of config's paths: n = n_paths paths, or in
    antithetic mode n = n_paths / 2, whose normals z run as z and -z over
    the same jumps. Block b holds the m_b paths from b BLOCK to
    min((b + 1) BLOCK, n); blocks[b] is its (y, ranks): the sizes of its
    jumps, and rem_1, rem_2, ..., the number of its paths with at least
    1, 2, ... jumps, ending at the first rem_k = 0. Paths [0, rem_k) of
    the block take the next rem_k sizes of y as their k-th jumps, rank
    after rank, so path i has N_T = #{k: rem_k > i} jumps, N_T descending
    along the block.

    Block b draws from its own substream: child b of
    np.random.SeedSequence(config.seed), through jumps._generator (numpy's
    Generator on SFC64). It holds, in order: the ranks, by sequential
    conditional binomials rem_k ~ Binomial(rem_{k - 1}, q_k) from
    rem_0 = m_b (q_k of _rank_probabilities, one table a draw; L. Devroye,
    Non-Uniform Random Variate Generation, 1986, ch. XI); the block's m_b
    normals; the sizes of its rem_1 + rem_2 + ... jumps. The ranks are
    those of m_b independent Poisson(lam T) counts sorted in descending
    order, and the normals and sizes are i.i.d. and independent of them, so
    a block is a permutation of m_b independent compound Poisson paths;
    every estimate is a symmetric function of its paths, so its law is
    exact. BLOCK is part of the stream's definition: another block size
    gives other bits from the same seed.

    Each block draws all three itself, on the threads of _fill_blocks. Its
    bits depend only on its substream and its place, not on the number of
    threads or the order in which the blocks are filled.

    The last draw is kept (read-only) and returned again while the seed, n,
    the horizon and the JumpLaw object are the same: the entry holds the law,
    so its id is not reused, and laws are immutable. The global is read once
    and replaced in one assignment, after every block is filled, so
    concurrent callers stay correct.
    """
    global _last_draw
    n = config.n_paths // 2 if config.antithetic else config.n_paths
    key = (config.seed, n, config.horizon)
    last = _last_draw
    if last and last[0] == key and last[1] is jumps:
        return last[2]
    _last_draw = ()
    z = np.empty(n)         # first: a path count beyond memory fails here
    lam_t = jumps.lam * config.horizon
    # and so do about n lam T jump sizes, before the rank table, which
    # grows with lam T
    np.empty(int(min(n * lam_t, 2.0 ** 62)))
    seeds = np.random.SeedSequence(config.seed).spawn(-(-n // BLOCK))
    q = _rank_probabilities(lam_t)

    def fill(b):
        rng, s = _generator(seeds[b]), b * BLOCK
        m = min(BLOCK, n - s)
        rem, ranks = m, []
        for qk in q:                    # q ends at 0.0, and so does rem
            rem = rng.binomial(rem, qk)
            ranks.append(rem)
            if not rem:
                break
        rng.standard_normal(out=z[s:s + m])
        y = _draw_y(rng, jumps.law, np.empty(sum(ranks)))
        ranks = np.array(ranks, dtype=np.int64)
        for a in (y, ranks):
            a.setflags(write=False)
        return y, ranks

    blocks = tuple(_fill_blocks(fill, len(seeds)))
    z.setflags(write=False)
    draw = (z, blocks)
    _last_draw = (key, jumps, draw)
    return draw


def _terminal_utilities(policy: Policy, draw: tuple, model: MarketModel,
                        jumps: JumpLaw, friction: FrictionSpec,
                        utility: Utility, config: SimConfig,
                        wealth: bool = False):
    """U_eta(V_T) times _divisor(utility) on the paths of the draw
    (z, blocks) of _common_draws, a block at a time: yields each block's
    values, the number of its floored paths, and its floored V_T when
    wealth is set (else None). Both arrays are (rows, m) views of buffers
    that the next block overwrites; rows is 2 in antithetic mode (the paths
    z, then -z) and 1 else. A sampled jump that would take all the wealth
    is refused. The values are exp((1 - eta) w), w the floored log wealth,
    and w itself at eta = 1: the estimators divide their means and standard
    errors by _divisor(utility) once, not every path.

    The work stays in log space: log wealth w = ((log x0 + drift T) +
    sd z) + each jump log of the path, added into w rank by rank: the k-th
    jump logs of paths [0, rem_k) are the next rem_k of the block's jump
    logs, added as one slice, row[:rem_k] += ky[o:o + rem_k]. The refusal
    test is one reduction, min(-kappa y) <= -1. w is floored at LOG_FLOOR,
    then mapped in place to exp((1 - eta) w). That is one exp a path;
    divided by 1 - eta it is within 4 eps (1 + |(1 - eta) w|) relative of
    max(exp(w), WEALTH_FLOOR) ** (1 - eta) / (1 - eta). Each path gets the
    same operations in the same order as in one pass over all n, so the
    blocks do not move a bit. V_T = exp(w) is formed only when wealth asks
    for it. Memory is O(BLOCK): the block buffers and one buffer for the
    jump logs of the block with the most jumps, each allocated once a call,
    not once a block.
    """
    z, blocks = draw
    drift, var_rate = _policy_coefficients(policy, model, jumps, friction)
    sd = np.sqrt(var_rate * config.horizon)
    c = np.log(config.x0) + drift * config.horizon
    kappa, eta = policy.kappa, utility.eta
    n = z.size
    u = np.empty((2 if config.antithetic else 1, min(n, BLOCK)))
    v = np.empty_like(u) if wealth else None
    jl = np.empty(max(y.size for y, _ in blocks))     # a block's jump logs
    for s, (y, ranks) in zip(range(0, n, BLOCK), blocks):
        m = min(BLOCK, n - s)
        w = u[:, :m]
        np.multiply(z[s:s + m], sd, out=w[0])
        if config.antithetic:
            np.negative(w[0], out=w[1])
        w += c
        ky = np.multiply(y, -kappa, out=jl[:y.size])
        if y.size and ky.min() <= -1.0:
            raise DomainError("sampled 1 - kappa Y <= 0; "
                              "jump law violates Y < 1")
        np.log1p(ky, out=ky)
        ranks = ranks.tolist()
        for row in w:
            o = 0
            for r in ranks:
                row[:r] += ky[o:o + r]
                o += r
        floored = 0
        if w.min() < LOG_FLOOR:
            floored = int(np.count_nonzero(w < LOG_FLOOR))
            np.maximum(w, LOG_FLOOR, out=w)
        if wealth:
            np.exp(w, out=v[:, :m])
        if eta != 1.0:
            w *= 1.0 - eta
            # a floored path at eta above about 2.03 overflows to inf, whose
            # mean _block_mean refuses
            with np.errstate(over="ignore"):
                np.exp(w, out=w)
        yield w, floored, v[:, :m] if wealth else None


def _divisor(utility: Utility) -> float:
    """What _terminal_utilities' values are divided by to give U_eta(V_T):
    1 - eta, or 1 at eta = 1, where they are log V_T."""
    return 1.0 - utility.eta if utility.eta != 1.0 else 1.0


def _pair_means(u: np.ndarray) -> np.ndarray:
    """The independent samples of a block of _terminal_utilities: its one
    row, or in antithetic mode the pair means 0.5 u[0] + 0.5 u[1], formed
    in u[0]. Halving is exact, so these are the bits of 0.5 (u[0] + u[1]),
    and a pair of finite values never overflows to inf."""
    if u.shape[0] == 2:
        u *= 0.5
        np.add(u[0], u[1], out=u[0])
    return u[0]


def _block_mean(x: np.ndarray, divisor: float) -> float:
    """The mean of x. Where the plain sum overflows though every value is
    finite, it is (x / s).mean() s, s the largest magnitude. A mean that
    is not finite once divided by divisor is a DomainError naming that
    quotient, the mean of U_eta(V_T) when x holds _terminal_utilities'
    values."""
    with np.errstate(over="ignore"):
        mean = float(np.add.reduce(x)) / x.size
    if not math.isfinite(mean):
        scale = max(float(x.max()), -float(x.min()))
        if math.isfinite(scale):
            mean = float((x / scale).mean()) * scale
    if not math.isfinite(mean / divisor):
        raise DomainError(f"the Monte Carlo mean of U_eta(V_T) is "
                          f"{mean / divisor}: the utilities leave double "
                          f"range")
    return mean


class _Moments:
    """The count, mean and root mean square deviation of a sample fed a
    block at a time, merged by the pairwise update of Chan, Golub and
    LeVeque (Amer. Statist. 37(3), 1983). Each block holds the sample's
    values times divisor, which mean and std_error divide out once. No term
    exceeds the sample's largest magnitude, so a finite sample keeps a
    finite standard error."""

    def __init__(self, divisor: float):
        self.divisor = divisor
        self.n, self.raw_mean, self.rms = 0, 0.0, 0.0

    def add(self, x: np.ndarray, spread: bool = True) -> None:
        """Fold in the block x; with spread, also its deviations, for which
        x is centred in place. The mean does not depend on spread."""
        m, mean = x.size, _block_mean(x, self.divisor)
        n = self.n + m
        delta = mean - self.raw_mean
        if spread:
            x -= mean
            scale = 1.0
            with np.errstate(over="ignore"):     # rescaled below
                ss = float(np.dot(x, x))
            if not math.isfinite(ss):   # every x finite, their squares not
                scale = max(float(x.max()), -float(x.min()))
                x /= scale
                ss = float(np.dot(x, x))
            self.rms = math.hypot(self.rms * math.sqrt(self.n / n),
                                  scale * math.sqrt(ss / n),
                                  delta * (math.sqrt(self.n * m) / n))
        self.raw_mean += delta * (m / n)
        self.n = n

    @property
    def mean(self) -> float:
        return self.raw_mean / self.divisor

    @property
    def std_error(self) -> float:
        return self.rms / math.sqrt(self.n - 1) / abs(self.divisor)


def _dump_rows(fh, b: int, u: np.ndarray, v: np.ndarray, draw: tuple,
               sd: float, divisor: float) -> None:
    """Write block b's rows (path_id, N_T, G, V_T, utility) of the draw
    (z, blocks), the utility being u / divisor; the mirror of path i in
    antithetic mode is path n + i. N_T = #{k: rem_k > i} for the block's
    ranks rem_k, so it descends along the block."""
    z, blocks = draw
    s, m = b * BLOCK, u.shape[1]
    counts = np.zeros(m, dtype=np.int64)
    for r in blocks[b][1].tolist():
        counts[:r] += 1
    counts = counts.tolist()
    g = sd * z[s:s + m]
    for r, gr in enumerate((g, -g)[:u.shape[0]]):
        for i, row in enumerate(zip(counts, gr.tolist(), v[r].tolist(),
                                    (u[r] / divisor).tolist())):
            fh.write("{},{},{:.12g},{:.12g},{:.12g}\n".format(
                r * z.size + s + i, *row))


def simulate_terminal_utility(policy: Policy, model: MarketModel,
                              jumps: JumpLaw, friction: FrictionSpec,
                              utility: Utility, config: SimConfig,
                              dump_csv=None) -> SimEstimate:
    """Sample mean and standard error of U_eta(V_T) under the policy.

    Deterministic given the seed (numpy's Generator on the SFC64 bit
    generator, fixed reduction order). Each BLOCK of paths draws itself
    from its own substream of the seed, in order: how many of its paths
    have at least k jumps, for k = 1, 2, ..., by sequential conditional
    binomials, its normals, and the jump sizes; the block's paths are then
    a permutation of independent compound Poisson paths, which leaves the
    law of every estimate exact (see _common_draws). The blocks are filled
    on every usable CPU, on the standard library's thread pool, and no bit
    depends on how many there are. One config and law are drawn once and
    shared: the normals and the per-block jumps (z, blocks) of the last
    draw stay in memory until the next draw, about 8 n (1 + lam T) bytes
    for n paths (12 MB at 1e6 paths and lam T = 0.5). Beyond the
    draw, the estimate takes O(BLOCK) memory: each block of the kernel's
    values exp((1 - eta) log V_T) (see _terminal_utilities) is folded into
    a running mean and deviation and then overwritten (see _Moments), and
    the mean and standard error are divided by 1 - eta once, at the end,
    not every path. One sampler serves this and compare_policies, so on the
    same config, plain or antithetic, the mean here equals
    compare_policies' mean_a bit for bit. A mean out of double range,
    before or after that division, is a DomainError.
    Antithetic mode draws n_paths / 2 normals z and runs the paths [z, -z]
    over the same jump draws; the standard error then comes from the pair
    means. dump_csv optionally writes per-path debug rows
    (path_id, N_T, G, V_T, utility) a block at a time, each block's
    antithetic mirror paths after it; within a block, N_T descends. It
    divides its utility column path by path.
    """
    draw = _common_draws(jumps, config)
    blocks = _terminal_utilities(policy, draw, model, jumps, friction,
                                 utility, config, wealth=dump_csv is not None)
    moments, floored = _Moments(_divisor(utility)), 0
    with (open(dump_csv, "w", encoding="utf-8") if dump_csv is not None
          else contextlib.nullcontext()) as fh:
        if fh is not None:
            fh.write("path_id,N_T,G,V_T,utility\n")
            sd = math.sqrt(_policy_coefficients(policy, model, jumps,
                                                friction)[1] * config.horizon)
        for b, (u, block_floored, v) in enumerate(blocks):
            if fh is not None:
                _dump_rows(fh, b, u, v, draw, sd, moments.divisor)
            floored += block_floored
            moments.add(_pair_means(u))
    return SimEstimate(moments.mean, moments.std_error,
                       floored / config.n_paths)


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
    shared with it. Both policies run over it a block at a time, and each
    block folds into the running means of A and B and the running mean and
    deviation of A - B, so the memory beyond the draw is O(BLOCK); in
    antithetic mode the standard error comes from the pair means, as
    there. The means, the difference and its standard error are divided by
    1 - eta once, as there, and the verdict is judged on the quotients, so
    its sign holds at eta > 1."""
    draw = _common_draws(jumps, config)
    a, b, diff = (_Moments(_divisor(utility)) for _ in range(3))
    runs = [_terminal_utilities(p, draw, model, jumps, friction, utility,
                                config) for p in (policy_a, policy_b)]
    for (ua, _, _), (ub, _, _) in zip(*runs):
        xa, xb = _pair_means(ua), _pair_means(ub)
        # refuse a non-finite mean before the difference, which could be
        # inf - inf
        a.add(xa, spread=False)
        b.add(xb, spread=False)
        xa -= xb
        diff.add(xa)
    dm, dse = diff.mean, diff.std_error
    if dm > 3.0 * dse:
        verdict = "A-better"
    elif dm < -3.0 * dse:
        verdict = "B-better"
    else:
        verdict = "indistinguishable"
    return ComparisonVerdict(verdict=verdict, diff_mean=dm, diff_se=dse,
                             mean_a=a.mean, mean_b=b.mean)
