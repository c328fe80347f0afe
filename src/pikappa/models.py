"""Domain types shared by solvers, oracle and simulator, plus validation
and the JSON model-file schema.

All types are immutable after construction and safe to share across threads.
Rates are decimals per year (0.06, not 6%).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelValidationError

SIGMA_COND_BOUND = 1e12


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# Market, jumps, utility, policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarketModel:
    """Risky-asset dynamics and the diffusive part of the background risk.

    mu, sigma are per-year drift and volatility loadings; r/R are the
    lending/borrowing rates; rho holds the correlations between each asset's
    Brownian driver and the background diffusion driver; b scales the
    background diffusion.
    """

    mu: np.ndarray
    sigma: np.ndarray
    r: float
    R: float
    rho: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "mu", _freeze(np.atleast_1d(self.mu)))
        object.__setattr__(self, "rho", _freeze(np.atleast_1d(self.rho)))
        sig = np.asarray(self.sigma, dtype=float)
        if sig.ndim == 0:
            sig = sig.reshape(1, 1)
        object.__setattr__(self, "sigma", _freeze(sig))

    @property
    def d(self) -> int:
        return self.mu.shape[0]

    def d1(self) -> tuple[float, float, float]:
        """Scalar (mu, sigma, rho) view; only valid when d == 1."""
        if self.d != 1:
            raise ValueError("single-asset view requested for d > 1 model")
        return float(self.mu[0]), float(self.sigma[0, 0]), float(self.rho[0])


@dataclass(frozen=True)
class BetaJumps:
    """Relative jump loss Y ~ Beta(alpha, beta) on [0, 1)."""
    alpha: float
    beta: float


@dataclass(frozen=True)
class DiscreteJumps:
    """Relative jump loss with atoms y_i in (0, 1) and weights w_i."""
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _freeze(np.atleast_1d(self.points)))
        object.__setattr__(self, "weights", _freeze(np.atleast_1d(self.weights)))


@dataclass(frozen=True)
class JumpLaw:
    """Poisson arrival intensity lam (per year) and the law of the loss Y."""
    lam: float
    law: BetaJumps | DiscreteJumps


def law_mean(law: BetaJumps | DiscreteJumps) -> float:
    if isinstance(law, BetaJumps):
        return law.alpha / (law.alpha + law.beta)
    return float(np.sum(law.points * law.weights))


def law_second_moment(law: BetaJumps | DiscreteJumps) -> float:
    if isinstance(law, BetaJumps):
        a, b = law.alpha, law.beta
        return a * (a + 1.0) / ((a + b) * (a + b + 1.0))
    return float(np.sum(law.points ** 2 * law.weights))


# ---------------------------------------------------------------------------
# Premium schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerPremium:
    """p(kappa) = q (1 - kappa)^delta with q >= 0 and delta >= 1: convex,
    nonnegative and zero at kappa = 1, all decided by q and delta."""
    q: float
    delta: float

    def value(self, kappa: float) -> float:
        return self.q * (1.0 - kappa) ** self.delta

    def derivative(self, kappa: float) -> float:
        return -self.q * self.delta * (1.0 - kappa) ** (self.delta - 1.0)


def LinearPremium(q: float) -> PowerPremium:
    """The paper's linear schedule p(kappa) = q (1 - kappa): the power
    schedule at delta = 1 (x ** 1.0 == x, so the same bits)."""
    return PowerPremium(q=q, delta=1.0)


# ---------------------------------------------------------------------------
# Friction regimes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Frictionless:
    """f(pi, kappa) = -p(kappa): no portfolio friction, premium only."""
    premium: PowerPremium


@dataclass(frozen=True)
class SmoothG:
    """f = g(pi) - p(kappa) with the concave g(pi) = -c pi^2, c > 0; d = 1
    only."""
    premium: PowerPremium
    c: float


@dataclass(frozen=True)
class DifferentialRates:
    """f = -(R - r)(pi.1 - 1)^+ - p(kappa): borrowing costs R > r."""
    premium: PowerPremium


@dataclass(frozen=True)
class LargeInvestor:
    """f = pi(m+ 1{pi>=0} + m- 1{pi<0}) - p(kappa); d = 1, m+ < m-."""
    premium: PowerPremium
    m_plus: float
    m_minus: float


@dataclass(frozen=True)
class PortfolioPremium:
    """f = -(1 - kappa) q(pi): the premium rate depends on the allocation,
    q(pi) = lambda E[Y] + C (sqrt(pi^2 + A^2) - A) with C >= 0 and A > 0;
    d = 1. The fair part lambda E[Y] is read from the jump law where the
    rate is used, so a change of lambda reaches it."""
    C: float
    A: float

    def rate(self, pi, jumps: JumpLaw):
        """q(pi) for a float or an array of allocations."""
        base = jumps.lam * law_mean(jumps.law)
        return base + self.C * (np.sqrt(pi * pi + self.A * self.A) - self.A)

    def slope(self, pi):
        """q'(pi) = C pi / sqrt(pi^2 + A^2)."""
        return self.C * pi / np.sqrt(pi * pi + self.A * self.A)


FrictionSpec = Frictionless | SmoothG | DifferentialRates | LargeInvestor | PortfolioPremium


@dataclass(frozen=True)
class Utility:
    """CRRA with relative risk aversion eta; eta = 1 is log utility."""
    eta: float


@dataclass(frozen=True)
class Policy:
    """Portfolio weights pi and retained background-risk fraction kappa."""
    pi: np.ndarray
    kappa: float

    def __post_init__(self):
        pi = _freeze(np.atleast_1d(self.pi))
        if not np.all(np.isfinite(pi)):
            raise ValueError(f"portfolio weights must be finite, got {pi}")
        if not (0.0 <= self.kappa <= 1.0):
            raise ValueError(f"kappa={self.kappa} outside [0, 1]")
        object.__setattr__(self, "pi", pi)

    @property
    def pi_sum(self) -> float:
        return float(self.pi.sum())


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationCheck:
    name: str
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """The failed checks in check order; none when the inputs are valid."""
    failed: tuple[ValidationCheck, ...]

    @property
    def ok(self) -> bool:
        return not self.failed

    def failures(self) -> list[ValidationCheck]:
        return list(self.failed)


def _premium_checks(premium: PowerPremium) -> list[ValidationCheck]:
    failed = []
    if not (premium.q >= 0.0):
        failed.append(ValidationCheck("premium.q >= 0", f"q={premium.q}"))
    if not (premium.delta >= 1.0):
        failed.append(ValidationCheck("premium.delta >= 1",
                                      f"delta={premium.delta}"))
    return failed


def validate_model(model: MarketModel, jumps: JumpLaw, friction: FrictionSpec,
                   utility: Utility) -> ValidationReport:
    """Deterministic, side-effect-free invariant checks.

    Returns the failed invariants, each detail formatted only on failure;
    solvers refuse inputs whose report is not ok. A check reads
    `if not (holds)`, so that a NaN fails it.
    """
    failed: list[ValidationCheck] = []

    def fail(name: str, detail: str = "") -> None:
        failed.append(ValidationCheck(name, detail))

    d = model.d
    law = jumps.law
    premium = getattr(friction, "premium", None)
    numbers = [model.mu, model.sigma, model.r, model.R, model.rho, model.b,
               jumps.lam, utility.eta]
    numbers += [law.alpha, law.beta] if isinstance(law, BetaJumps) \
        else [law.points, law.weights]
    numbers += [getattr(premium, k) for k in ("q", "delta")
                if hasattr(premium, k)]
    numbers += [getattr(friction, k) for k in ("m_plus", "m_minus", "c", "C",
                                               "A") if hasattr(friction, k)]
    # one reduction per array field; math.isfinite refuses arrays, even of
    # one entry, so dispatch on the type
    if not all(bool(np.isfinite(v).all()) if isinstance(v, np.ndarray)
               else math.isfinite(v) for v in numbers):
        fail("numeric fields finite")

    cond = np.inf
    if model.sigma.shape != (d, d):
        fail("sigma.shape", f"expected {(d, d)}, got {model.sigma.shape}")
    else:
        try:
            cond = float(np.linalg.cond(model.sigma))
        except np.linalg.LinAlgError:
            pass
    if not (cond <= SIGMA_COND_BOUND):
        fail("sigma invertible",
             f"cond={cond:.3g} bound={SIGMA_COND_BOUND:.3g}")
    if not (model.R >= model.r):
        fail("R >= r", f"r={model.r} R={model.R}")
    if not np.all(np.abs(model.rho) <= 1.0 + 1e-15):
        fail("rho components in [-1,1]", f"rho={model.rho.tolist()}")
    rho_norm = float(np.linalg.norm(model.rho))
    if not (rho_norm <= 1.0 + 1e-12):
        fail("|rho|_2 <= 1", f"|rho|={rho_norm:.6g}")
    if model.rho.shape != (d,):
        fail("rho length", f"got {model.rho.shape}")
    if not (model.b >= 0.0):
        fail("b >= 0", f"b={model.b}")

    if not (jumps.lam >= 0.0):
        fail("lambda >= 0", f"lambda={jumps.lam}")
    if isinstance(law, BetaJumps):
        if not (law.alpha > 0 and law.beta > 0):
            fail("Beta(alpha,beta) parameters positive",
                 f"alpha={law.alpha} beta={law.beta}")
    else:
        pts, w = law.points, law.weights
        if not np.all((pts > 0) & (pts < 1)):
            fail("discrete support inside (0,1)", f"points={pts.tolist()}")
        if not np.all(w >= 0):
            fail("discrete weights >= 0", f"weights={w.tolist()}")
        total = float(w.sum())
        if not (abs(total - 1.0) <= 1e-12):
            fail("discrete weights sum to 1", f"sum={total!r}")

    if not (utility.eta > 0.0):
        fail("eta > 0", f"eta={utility.eta}")

    if isinstance(friction, (Frictionless, SmoothG, DifferentialRates, LargeInvestor)):
        if friction.premium is None:
            fail("premium schedule given",
                 f"{type(friction).__name__} needs one")
        else:
            failed += _premium_checks(friction.premium)
    if isinstance(friction, SmoothG):
        if d != 1:
            fail("smooth-g requires d=1")
        if not (friction.c > 0.0):
            fail("smooth-g c > 0", f"c={friction.c}")
    if isinstance(friction, LargeInvestor):
        if d != 1:
            fail("large-investor requires d=1")
        if not (friction.m_plus <= friction.m_minus):
            fail("m_plus <= m_minus",
                 f"m+={friction.m_plus} m-={friction.m_minus}")
    if isinstance(friction, PortfolioPremium):
        if d != 1:
            fail("portfolio-premium requires d=1")
        if not (friction.C >= 0.0):
            fail("portfolio-premium C >= 0", f"C={friction.C}")
        if not (friction.A > 0.0):
            fail("portfolio-premium A > 0", f"A={friction.A}")
        # with C >= 0 and A > 0, q(pi) >= q(0) = lambda E[Y]: q > 0 on every
        # pi exactly when the fair part is
        fair = jumps.lam * law_mean(law)
        if not (fair > 0.0):
            fail("portfolio-premium lambda E[Y] > 0", f"lambda E[Y]={fair!r}")

    return ValidationReport(tuple(failed))


def require_valid(model: MarketModel, jumps: JumpLaw, friction: FrictionSpec,
                  utility: Utility) -> None:
    report = validate_model(model, jumps, friction, utility)
    if not report.ok:
        raise ModelValidationError(report)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------
#
# JSON schema (field names fixed): d, mu, sigma, r, R, rho, b, lambda,
# jump_law, friction, premium, eta.
#
#   sigma: matrix [[...]], scalar (d=1), or the two-asset lower-triangular
#          form {"sigma1": s1, "sigma2": s2, "s": s} meaning
#          [[s1, 0], [s2*s, s2*sqrt(1-s^2)]].
#   jump_law: {"type": "beta", "alpha": a, "beta": b}
#             or {"type": "discrete", "points": [...], "weights": [...]}
#   premium:  {"type": "linear", "q": q} or {"type": "power", "q": q,
#             "delta": d}
#   friction: {"type": "frictionless" | "differential_rates"}
#             | {"type": "large_investor", "m_plus": ..., "m_minus": ...}
#             | {"type": "smooth_g", "form": "quadratic", "c": c}
#                 (g = -c pi^2, c > 0)
#             | {"type": "portfolio_premium", "form": "fair_plus_sqrt",
#                "C": ..., "A": ...}
#                 (q(pi) = lambda E[Y] + C(sqrt(pi^2+A^2)-A), C >= 0, A > 0)

def _sigma_from_config(spec, d: int) -> np.ndarray:
    if isinstance(spec, (int, float)):
        return np.array([[float(spec)]])
    if isinstance(spec, dict):
        s1, s2, s = float(spec["sigma1"]), float(spec["sigma2"]), float(spec["s"])
        return np.array([[s1, 0.0], [s2 * s, s2 * np.sqrt(1.0 - s * s)]])
    m = np.asarray(spec, dtype=float)
    if m.shape != (d, d):
        raise ValueError(f"sigma has shape {m.shape}, expected {(d, d)}")
    return m


def _premium_from_config(spec) -> PowerPremium:
    kind = spec.get("type", "linear")
    if kind == "linear":
        return LinearPremium(q=float(spec["q"]))
    if kind == "power":
        return PowerPremium(q=float(spec["q"]), delta=float(spec["delta"]))
    raise ValueError(f"unknown premium type {kind!r}")


def _jump_law_from_config(spec, lam: float) -> JumpLaw:
    kind = spec.get("type", "beta")
    if kind == "beta":
        return JumpLaw(lam=lam, law=BetaJumps(alpha=float(spec["alpha"]),
                                              beta=float(spec["beta"])))
    if kind == "discrete":
        return JumpLaw(lam=lam, law=DiscreteJumps(
            points=np.asarray(spec["points"], dtype=float),
            weights=np.asarray(spec["weights"], dtype=float)))
    raise ValueError(f"unknown jump law type {kind!r}")


def _friction_from_config(spec, premium: PowerPremium) -> FrictionSpec:
    kind = spec.get("type", "differential_rates")
    if kind == "frictionless":
        return Frictionless(premium=premium)
    if kind == "differential_rates":
        return DifferentialRates(premium=premium)
    if kind == "large_investor":
        return LargeInvestor(premium=premium, m_plus=float(spec["m_plus"]),
                             m_minus=float(spec["m_minus"]))
    if kind == "smooth_g":
        if spec.get("form") != "quadratic":
            raise ValueError("smooth_g config supports form='quadratic' only")
        return SmoothG(premium=premium, c=float(spec["c"]))
    if kind == "portfolio_premium":
        if spec.get("form") != "fair_plus_sqrt":
            raise ValueError("portfolio_premium config supports form='fair_plus_sqrt' only")
        return PortfolioPremium(C=float(spec["C"]), A=float(spec["A"]))
    raise ValueError(f"unknown friction type {kind!r}")


@dataclass(frozen=True)
class ModelInputs:
    """A fully parsed model file."""
    model: MarketModel
    jumps: JumpLaw
    friction: FrictionSpec
    utility: Utility


def _reject_non_finite(node, where: str) -> None:
    if isinstance(node, np.ndarray):
        node = node.tolist()
    if isinstance(node, dict):
        for key, value in node.items():
            _reject_non_finite(value, f"{where}.{key}")
    elif isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            _reject_non_finite(value, f"{where}[{i}]")
    elif isinstance(node, float) and not np.isfinite(node):
        raise ValueError(f"{where} must be finite, got {node}")


def parse_model_dict(doc: dict) -> ModelInputs:
    """Build the model inputs from a model-file document; a missing field,
    a malformed entry or a NaN / infinite number raises ValueError."""
    _reject_non_finite(doc, "model")
    try:
        d = int(doc["d"])
        mu = np.atleast_1d(np.asarray(doc["mu"], dtype=float))
        sigma = _sigma_from_config(doc["sigma"], d)
        model = MarketModel(mu=mu, sigma=sigma, r=float(doc["r"]),
                            R=float(doc["R"]),
                            rho=np.atleast_1d(np.asarray(doc["rho"], dtype=float)),
                            b=float(doc["b"]))
        jumps = _jump_law_from_config(doc["jump_law"], float(doc["lambda"]))
        premium = _premium_from_config(doc.get("premium", {"type": "linear", "q": 0.0}))
        friction = _friction_from_config(doc.get("friction",
                                                 {"type": "differential_rates"}),
                                         premium)
        utility = Utility(eta=float(doc["eta"]))
    except KeyError as exc:
        raise ValueError(f"model file missing field {exc.args[0]!r}") from exc
    if mu.shape[0] != d:
        raise ValueError(f"mu has length {mu.shape[0]}, expected d={d}")
    if isinstance(friction, PortfolioPremium):
        # the friction has no use for the file's premium, which must still
        # lie in the documented domain
        failed = _premium_checks(premium)
        if failed:
            raise ModelValidationError(ValidationReport(tuple(failed)))
    return ModelInputs(model=model, jumps=jumps, friction=friction,
                       utility=utility)


def load_model_file(path) -> ModelInputs:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, "
                             f"column {exc.colno}: {exc.msg}") from exc
    return parse_model_dict(doc)
