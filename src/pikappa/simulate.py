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
import threading
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


def _fill_blocks(fill, count: int) -> None:
    """fill(0), ..., fill(count - 1) on min(_workers(), count) threads, the
    caller one of them; thread t takes the indices t, t + k, t + 2k, ...
    The first exception a thread raises stops the others at their next
    index and is raised in the caller once every helper has joined. One
    index starts no thread."""
    k = min(_workers(), count)
    errors = []

    def run(t):
        try:
            for b in range(t, count, k):
                if errors:
                    return
                fill(b)
        except BaseException as exc:    # raised again in the caller
            errors.append(exc)

    helpers = []
    try:
        for t in range(1, k):
            helper = threading.Thread(target=run, args=(t,))
            helper.start()
            helpers.append(helper)
        run(0)
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]


# The last draw, (key, jumps, draw), kept so that calls on the same config
# and law share one set of random numbers; () before the first. Not None:
# perfbench's Tracer.unwrapped() takes every module-level None for an
# unwrapped layer function.
_last_draw = ()


def _common_draws(jumps: JumpLaw, config: SimConfig):
    """The draw (z, y, owner, cuts) of config's paths: n = n_paths paths, or
    in antithetic mode n = n_paths / 2, whose normals z run as z and -z over
    the same jumps. Block b holds the m_b paths from b BLOCK to
    min((b + 1) BLOCK, n); its jump sizes are y[cuts[b]:cuts[b + 1]], and
    owner[cuts[b]:cuts[b + 1]] gives the path of each as an offset in the
    block, in no order.

    Block b draws from its own substream: child b of
    np.random.SeedSequence(config.seed), through jumps._generator (numpy's
    Generator on SFC64). It holds, in order: one Poisson(lam T m_b) count;
    the block's m_b normals; the count's owners, uniform on [0, m_b); their
    jump sizes. This is exact: a block's m_b independent Poisson(lam T)
    counts have the law of one Poisson(lam T m_b) total whose points fall
    on its paths uniformly and independently (superposition and conditional
    uniformity of a Poisson process). BLOCK is part of the stream's
    definition: another block size gives other bits from the same seed.

    The counts are drawn first, block after block; the blocks are then
    filled in place on the threads of _fill_blocks. A block's bits depend
    only on its substream and its place, so they do not depend on the
    number of threads or the order in which the blocks are filled.

    The last draw is kept (read-only) and returned again while the seed, n,
    the horizon and the JumpLaw object are the same: the entry holds the law,
    so its id is not reused, and laws are immutable. The global is read once
    and replaced in one assignment, after every thread has joined, so
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
    starts = range(0, n, BLOCK)
    rngs = [_generator(s) for s in
            np.random.SeedSequence(config.seed).spawn(len(starts))]
    lam_t = jumps.lam * config.horizon
    cuts = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum([rng.poisson(lam_t * min(BLOCK, n - s))
               for rng, s in zip(rngs, starts)], out=cuts[1:])
    y = np.empty(cuts[-1])
    owner = np.empty(cuts[-1], dtype=np.int32)
    bounds = cuts.tolist()

    def fill(b):
        rng, s, lo, hi = rngs[b], starts[b], bounds[b], bounds[b + 1]
        m = min(BLOCK, n - s)
        rng.standard_normal(out=z[s:s + m])
        owner[lo:hi] = rng.integers(0, m, size=hi - lo, dtype=np.int32)
        _draw_y(rng, jumps.law, y[lo:hi])

    _fill_blocks(fill, len(starts))
    draw = (z, y, owner, cuts)
    for a in draw:
        a.setflags(write=False)
    _last_draw = (key, jumps, draw)
    return draw


def _terminal_utilities(policy: Policy, draw: tuple, model: MarketModel,
                        jumps: JumpLaw, friction: FrictionSpec,
                        utility: Utility, config: SimConfig,
                        wealth: bool = False):
    """U_eta(V_T) times _divisor(utility) on the paths of draw
    (_common_draws), a block at a time: yields each block's values, the
    number of its floored paths, and its floored V_T when wealth is set
    (else None). Both arrays are (rows, m) views of buffers that the next
    block overwrites; rows is 2 in antithetic mode (the paths z, then -z)
    and 1 else. A sampled jump that would take all the wealth is refused.
    The values are exp((1 - eta) w), w the floored log wealth, and w itself
    at eta = 1: the estimators divide their means and standard errors by
    _divisor(utility) once, not every path.

    The work stays in log space: log wealth w = ((log x0 + drift T) +
    sd z) + each jump log of the path, added into w in the order of the
    draw (np.add.at over the block's owners); the refusal test is one
    reduction, min(-kappa y) <= -1. w is floored at LOG_FLOOR, then mapped
    in place to exp((1 - eta) w). That is one exp a path; divided by
    1 - eta it is within 4 eps (1 + |(1 - eta) w|) relative of
    max(exp(w), WEALTH_FLOOR) ** (1 - eta) / (1 - eta). Each path gets the
    same operations in the same order as in one pass over all n, so the
    blocks do not move a bit. V_T = exp(w) is formed only when wealth asks
    for it. Memory is O(BLOCK): the block buffers and one buffer for the
    jump logs of the block with the most jumps, each allocated once a call,
    not once a block.
    """
    z, y, owner, cuts = draw
    drift, var_rate = _policy_coefficients(policy, model, jumps, friction)
    sd = np.sqrt(var_rate * config.horizon)
    c = np.log(config.x0) + drift * config.horizon
    kappa, eta = policy.kappa, utility.eta
    n = z.size
    u = np.empty((2 if config.antithetic else 1, min(n, BLOCK)))
    v = np.empty_like(u) if wealth else None
    jl = np.empty(int(np.diff(cuts).max()))     # a block's jump logs
    cuts = cuts.tolist()
    for s, lo, hi in zip(range(0, n, BLOCK), cuts, cuts[1:]):
        m = min(BLOCK, n - s)
        w = u[:, :m]
        np.multiply(z[s:s + m], sd, out=w[0])
        if config.antithetic:
            np.negative(w[0], out=w[1])
        w += c
        ky = np.multiply(y[lo:hi], -kappa, out=jl[:hi - lo])
        if hi > lo and ky.min() <= -1.0:
            raise DomainError("sampled 1 - kappa Y <= 0; "
                              "jump law violates Y < 1")
        np.log1p(ky, out=ky)
        for row in w:
            np.add.at(row, owner[lo:hi], ky)
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
    """Write block b's rows (path_id, N_T, G, V_T, utility), the utility
    being u / divisor; the mirror of path i in antithetic mode is path
    n + i."""
    z, _, owner, cuts = draw
    s, m = b * BLOCK, u.shape[1]
    counts = np.bincount(owner[cuts[b]:cuts[b + 1]], minlength=m).tolist()
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
    generator, fixed reduction order). Each BLOCK of paths draws from its
    own substream of the seed, in order: its Poisson count, its normals,
    its jump owners drawn uniformly on its paths, and their jump sizes; by
    Poisson superposition this is the exact law of n independent compound
    Poisson paths (see _common_draws). The blocks are filled on every
    usable CPU, and no bit depends on how many there are. One config and
    law are drawn once and shared: the
    normals and jumps of the last draw stay in memory until the next draw,
    about 8 n (1 + 1.5 lam T) bytes for n paths (14 MB at 1e6 paths and
    lam T = 0.5). Beyond the draw, the estimate takes O(BLOCK) memory: each
    block of the kernel's values exp((1 - eta) log V_T) (see
    _terminal_utilities) is folded into a running mean and deviation and
    then overwritten (see _Moments), and the mean and standard error are
    divided by 1 - eta once, at the end, not every path. One sampler
    serves this and compare_policies, so on the same config, plain or
    antithetic, the mean here equals compare_policies' mean_a bit for bit.
    A mean out of double range, before or after that division, is a
    DomainError.
    Antithetic mode draws n_paths / 2 normals z and runs the paths [z, -z]
    over the same jump draws; the standard error then comes from the pair
    means. dump_csv optionally writes per-path debug rows
    (path_id, N_T, G, V_T, utility) a block at a time, each block's
    antithetic mirror paths after it; it divides its utility column path
    by path.
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
