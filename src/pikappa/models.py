"""Domain types shared by solvers, oracle and simulator, plus validation
and the JSON model-file schema.

All types are immutable after construction and safe to share across threads.
Rates are decimals per year (0.06, not 6%).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ModelValidationError

SIGMA_COND_BOUND = 1e12
_PREMIUM_GRID = np.linspace(0.0, 1.0, 101)


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

    def replace(self, **kw) -> "MarketModel":
        base = dict(mu=self.mu, sigma=self.sigma, r=self.r, R=self.R,
                    rho=self.rho, b=self.b)
        base.update(kw)
        return MarketModel(**base)


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


# ---------------------------------------------------------------------------
# Premium schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearPremium:
    """p(kappa) = q (1 - kappa)."""
    q: float

    def value(self, kappa: float) -> float:
        return self.q * (1.0 - kappa)

    def derivative(self, kappa: float) -> float:
        return -self.q


@dataclass(frozen=True)
class PowerPremium:
    """p(kappa) = q (1 - kappa)^delta with delta >= 1."""
    q: float
    delta: float

    def value(self, kappa: float) -> float:
        return self.q * (1.0 - kappa) ** self.delta

    def derivative(self, kappa: float) -> float:
        return -self.q * self.delta * (1.0 - kappa) ** (self.delta - 1.0)


@dataclass(frozen=True)
class TabulatedPremium:
    """Black-box convex differentiable premium with p(1) = 0."""
    p: Callable[[float], float]
    p_prime: Callable[[float], float]

    def value(self, kappa: float) -> float:
        return float(self.p(kappa))

    def derivative(self, kappa: float) -> float:
        return float(self.p_prime(kappa))


PremiumSchedule = LinearPremium | PowerPremium | TabulatedPremium


# ---------------------------------------------------------------------------
# Friction regimes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Frictionless:
    """f(pi, kappa) = -p(kappa): no portfolio friction, premium only."""
    premium: PremiumSchedule


@dataclass(frozen=True)
class SmoothG:
    """f = g(pi) - p(kappa) with g smooth and strictly concave; d = 1 only."""
    premium: PremiumSchedule
    g: Callable[[float], float]
    g_prime: Callable[[float], float]
    g_second: Callable[[float], float]


@dataclass(frozen=True)
class DifferentialRates:
    """f = -(R - r)(pi.1 - 1)^+ - p(kappa): borrowing costs R > r."""
    premium: PremiumSchedule


@dataclass(frozen=True)
class LargeInvestor:
    """f = pi(m+ 1{pi>=0} + m- 1{pi<0}) - p(kappa); d = 1, m+ < m-."""
    premium: PremiumSchedule
    m_plus: float
    m_minus: float


@dataclass(frozen=True)
class PortfolioPremium:
    """f = -(1 - kappa) q(pi): premium rate depends on the allocation; d = 1."""
    q: Callable[[float], float]
    q_prime: Callable[[float], float]


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
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[ValidationCheck]:
        return [c for c in self.checks if not c.passed]


def _premium_checks(premium: PremiumSchedule, out: list[ValidationCheck]) -> None:
    p1 = premium.value(1.0)
    out.append(ValidationCheck("premium.p(1)=0", abs(p1) <= 1e-12,
                               f"p(1)={p1!r}"))
    dp = np.array([premium.derivative(k) for k in _PREMIUM_GRID])
    nondec = bool(np.all(np.diff(dp) >= -1e-10))
    out.append(ValidationCheck("premium.p' nondecreasing (101-point grid)", nondec))
    vals = np.array([premium.value(k) for k in _PREMIUM_GRID])
    out.append(ValidationCheck("premium.p >= 0 on [0,1]",
                               bool(np.all(vals >= -1e-12))))
    if isinstance(premium, (LinearPremium, PowerPremium)):
        out.append(ValidationCheck("premium.q >= 0", premium.q >= 0.0,
                                   f"q={premium.q}"))
    if isinstance(premium, PowerPremium):
        out.append(ValidationCheck("premium.delta >= 1", premium.delta >= 1.0,
                                   f"delta={premium.delta}"))


def validate_model(model: MarketModel, jumps: JumpLaw, friction: FrictionSpec,
                   utility: Utility) -> ValidationReport:
    """Deterministic, side-effect-free invariant checks.

    Returns a pass/fail report per invariant; solvers refuse inputs whose
    report is not ok.
    """
    checks: list[ValidationCheck] = []
    d = model.d

    law = jumps.law
    premium = getattr(friction, "premium", None)
    numbers = [model.mu, model.sigma, model.r, model.R, model.rho, model.b,
               jumps.lam, utility.eta]
    numbers += [law.alpha, law.beta] if isinstance(law, BetaJumps) \
        else [law.points, law.weights]
    numbers += [getattr(premium, k) for k in ("q", "delta")
                if hasattr(premium, k)]
    if isinstance(friction, LargeInvestor):
        numbers += [friction.m_plus, friction.m_minus]
    checks.append(ValidationCheck(
        "numeric fields finite",
        all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in numbers)))

    checks.append(ValidationCheck("sigma.shape", model.sigma.shape == (d, d),
                                  f"expected {(d, d)}, got {model.sigma.shape}"))
    cond = np.inf
    if model.sigma.shape == (d, d):
        try:
            cond = float(np.linalg.cond(model.sigma))
        except np.linalg.LinAlgError:
            cond = np.inf
    checks.append(ValidationCheck(
        "sigma invertible", np.isfinite(cond) and cond <= SIGMA_COND_BOUND,
        f"cond={cond:.3g} bound={SIGMA_COND_BOUND:.3g}"))
    checks.append(ValidationCheck("R >= r", model.R >= model.r,
                                  f"r={model.r} R={model.R}"))
    checks.append(ValidationCheck("rho components in [-1,1]",
                                  bool(np.all(np.abs(model.rho) <= 1.0 + 1e-15)),
                                  f"rho={model.rho.tolist()}"))
    rho_norm = float(np.linalg.norm(model.rho))
    checks.append(ValidationCheck("|rho|_2 <= 1", rho_norm <= 1.0 + 1e-12,
                                  f"|rho|={rho_norm:.6g}"))
    checks.append(ValidationCheck("rho length", model.rho.shape == (d,),
                                  f"got {model.rho.shape}"))
    checks.append(ValidationCheck("b >= 0", model.b >= 0.0, f"b={model.b}"))

    checks.append(ValidationCheck("lambda >= 0", jumps.lam >= 0.0,
                                  f"lambda={jumps.lam}"))
    if isinstance(law, BetaJumps):
        checks.append(ValidationCheck("Beta(alpha,beta) parameters positive",
                                      law.alpha > 0 and law.beta > 0,
                                      f"alpha={law.alpha} beta={law.beta}"))
    else:
        pts, w = law.points, law.weights
        checks.append(ValidationCheck("discrete support inside (0,1)",
                                      bool(np.all((pts > 0) & (pts < 1))),
                                      f"points={pts.tolist()}"))
        checks.append(ValidationCheck("discrete weights >= 0",
                                      bool(np.all(w >= 0)), f"weights={w.tolist()}"))
        checks.append(ValidationCheck("discrete weights sum to 1",
                                      abs(float(w.sum()) - 1.0) <= 1e-12,
                                      f"sum={float(w.sum())!r}"))

    checks.append(ValidationCheck("eta > 0", utility.eta > 0.0,
                                  f"eta={utility.eta}"))

    if isinstance(friction, (Frictionless, SmoothG, DifferentialRates, LargeInvestor)):
        if friction.premium is None:
            checks.append(ValidationCheck(
                "premium schedule given", False,
                f"{type(friction).__name__} needs one"))
        else:
            _premium_checks(friction.premium, checks)
    if isinstance(friction, SmoothG):
        checks.append(ValidationCheck("smooth-g requires d=1", d == 1))
        grid = np.linspace(-10.0, 10.0, 41)
        gpp = np.array([friction.g_second(x) for x in grid])
        checks.append(ValidationCheck("g'' < 0 on sampled grid",
                                      bool(np.all(gpp < 0.0))))
    if isinstance(friction, LargeInvestor):
        checks.append(ValidationCheck("large-investor requires d=1", d == 1))
        checks.append(ValidationCheck("m_plus <= m_minus",
                                      friction.m_plus <= friction.m_minus,
                                      f"m+={friction.m_plus} m-={friction.m_minus}"))
    if isinstance(friction, PortfolioPremium):
        checks.append(ValidationCheck("portfolio-premium requires d=1", d == 1))
        grid = np.linspace(-10.0, 10.0, 41)
        qv = np.array([friction.q(x) for x in grid])
        checks.append(ValidationCheck("q > 0 on sampled grid",
                                      bool(np.all(qv > 0.0))))

    return ValidationReport(tuple(checks))


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
#             | {"type": "smooth_g", "form": "quadratic", "c": c}   (g = -c pi^2)
#             | {"type": "portfolio_premium", "form": "fair_plus_sqrt",
#                "C": ..., "A": ...}   (q(pi) = lambda E[Y] + C(sqrt(pi^2+A^2)-A))

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


def _premium_from_config(spec) -> PremiumSchedule:
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


def make_sqrt_premium_rate(jumps: "JumpLaw", C: float, A: float):
    """q(pi) = lambda E[Y] + C (sqrt(pi^2 + A^2) - A), with its derivative."""
    from .jumps import JumpFunctionals
    base = jumps.lam * JumpFunctionals(jumps).mean
    def q(pi: float) -> float:
        return base + C * (np.sqrt(pi * pi + A * A) - A)
    def q_prime(pi: float) -> float:
        return C * pi / np.sqrt(pi * pi + A * A)
    return q, q_prime


def _friction_from_config(spec, premium: PremiumSchedule,
                          jumps: JumpLaw) -> FrictionSpec:
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
        c = float(spec["c"])
        if c <= 0:
            raise ValueError("quadratic smooth_g needs c > 0")
        return SmoothG(premium=premium,
                       g=lambda x: -c * x * x,
                       g_prime=lambda x: -2.0 * c * x,
                       g_second=lambda x: -2.0 * c)
    if kind == "portfolio_premium":
        if spec.get("form") != "fair_plus_sqrt":
            raise ValueError("portfolio_premium config supports form='fair_plus_sqrt' only")
        q, qp = make_sqrt_premium_rate(jumps, float(spec["C"]), float(spec["A"]))
        return PortfolioPremium(q=q, q_prime=qp)
    raise ValueError(f"unknown friction type {kind!r}")


@dataclass(frozen=True)
class ModelInputs:
    """A fully parsed model file."""
    model: MarketModel
    jumps: JumpLaw
    friction: FrictionSpec
    utility: Utility
    raw: dict = field(repr=False, default_factory=dict)


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
                                         premium, jumps)
        utility = Utility(eta=float(doc["eta"]))
    except KeyError as exc:
        raise ValueError(f"model file missing field {exc.args[0]!r}") from exc
    if mu.shape[0] != d:
        raise ValueError(f"mu has length {mu.shape[0]}, expected d={d}")
    return ModelInputs(model=model, jumps=jumps, friction=friction,
                       utility=utility, raw=doc)


def load_model_file(path) -> ModelInputs:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, "
                             f"column {exc.colno}: {exc.msg}") from exc
    return parse_model_dict(doc)
