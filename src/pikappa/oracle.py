"""Grid maximizer of f + H (the solver-independent oracle) and the
parameter-sweep engine behind the reproduction tables and figures.

The oracle never calls a solver and makes no case analysis. On every grid
f + H separates as P(pi) + K(kappa) + u(pi) kappa, so the best kappa of a
portfolio row is a query on the upper concave hull of the points
(kappa_j, K_j): a discrete Legendre transform (Y. Lucet, Numer. Algorithms
16 (1997) 171-185). Each round builds that hull once and searches it once
per row, which finds the exact maximizer of the grid, the first in C order
on a tie, without the (pi, kappa) tensor. Rounds zoom in around the
incumbent, and the result carries a resolution bound (numerical Lipschitz
estimate times the final cell diagonal) for comparison slack.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .errors import PikappaError
from .hamiltonian import (_each, _pi_friction, _premium_value,
                          friction_term)
from .jumps import _overflow_as_domain_error, utility_jump_curve
from .models import (FrictionSpec, JumpLaw, MarketModel, Policy,
                     PortfolioPremium, PowerPremium, Utility)
from . import solvers


ZOOM = 10.0


@dataclass(frozen=True)
class GridSpec:
    """Grid geometry for the grid maximizer.

    Each pi axis spans the Merton point +- (5 |Merton| + 2), kappa [0, 1].
    Each of `rounds` refinements zooms the window ZOOM times around the
    incumbent. 3-D grids (two assets) are capped at cap_3d points per axis.
    """
    resolution: int = 401
    refine_resolution: int = 2001
    rounds: int = 2
    cap_3d: int = 201

    def __post_init__(self):
        if self.resolution < 3 or self.refine_resolution < 3:
            raise ValueError("grid resolution must be at least 3")
        if self.rounds < 0:
            raise ValueError("grid rounds must be at least 0")


def _auto_pi_bounds(model: MarketModel, eta: float) -> list[tuple[float, float]]:
    merton = np.linalg.solve(model.sigma @ model.sigma.T,
                             model.mu - model.r * np.ones(model.d)) / eta
    out = []
    for m in merton:
        half = 5.0 * abs(float(m)) + 2.0
        out.append((float(m) - half, float(m) + half))
    return out


def _portfolio_parts(model: MarketModel, pi_axes: list[np.ndarray]):
    """The portfolio grid as rows in C order, its shape, and the parts of H
    that depend on pi alone: pi.(mu - r), |sigma^T pi|^2 and pi.sigma rho."""
    mesh = np.meshgrid(*pi_axes, indexing="ij") if len(pi_axes) > 1 \
        else [pi_axes[0]]
    pis = np.stack([m.ravel() for m in mesh], axis=-1)   # (npts, d)
    excess = pis @ (model.mu - model.r)
    st = pis @ model.sigma                                # row i: pi_i^T sigma
    quad_pi = (st * st).sum(axis=-1)
    pi_srho = pis @ (model.sigma @ model.rho)
    return pis, mesh[0].shape, excess, quad_pi, pi_srho


def _jump_curve(jumps: JumpLaw, kappas: np.ndarray, eta: float) -> np.ndarray:
    return jumps.lam * utility_jump_curve(jumps, kappas, eta) \
        if jumps.lam > 0 else np.zeros_like(kappas)


def _eval_grid(model: MarketModel, jumps: JumpLaw, friction: FrictionSpec,
               eta: float, axes: list[np.ndarray]) -> np.ndarray:
    """f + H on the tensor grid; last axis is kappa."""
    kappas = axes[-1]
    pis, shape, excess, quad_pi, pi_srho = _portfolio_parts(model, axes[:-1])
    b = model.b
    kshape = (1,) * len(shape) + (-1,)
    k = kappas.reshape(kshape)
    H = excess.reshape(shape)[..., None] \
        - 0.5 * eta * (quad_pi.reshape(shape)[..., None] + (b * k) ** 2
                       - 2.0 * b * k * pi_srho.reshape(shape)[..., None]) \
        + _jump_curve(jumps, kappas, eta).reshape(kshape)
    return H + friction_term(friction, model,
                             pis.reshape(shape + (1, pis.shape[-1])), kappas)


def _upper_hull(x: list, y: list) -> list:
    """Indices of the vertices of the upper concave hull of the points
    (x_j, y_j), x increasing, left to right (Andrew's monotone chain). A
    point on a hull edge is not a vertex."""
    hull: list[int] = []
    for j in range(len(x)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            if (x[i1] - x[i0]) * (y[j] - y[i0]) \
                    < (y[i1] - y[i0]) * (x[j] - x[i0]):
                break              # i1 lies strictly above the chord i0 -> j
            hull.pop()
        hull.append(j)
    return hull


def _row_argmax(kappas: np.ndarray, K: np.ndarray,
                u: np.ndarray) -> np.ndarray:
    """For each slope u_i, the smallest j maximizing K_j + u_i kappa_j.

    The maximizers are the vertices of the upper hull of (kappa_j, K_j):
    vertex v is optimal while the hull's edge slopes before it exceed -u_i
    and the ones after it do not (a discrete Legendre transform), so one
    search on the decreasing edge slopes answers a row. -inf entries are
    never a maximum and are left out."""
    live = np.flatnonzero(np.isfinite(K))
    hull = live[_upper_hull(kappas[live].tolist(), K[live].tolist())]
    slopes = np.diff(K[hull]) / np.diff(kappas[hull])
    return hull[np.searchsorted(-slopes, u, side="left")]


def _grid_argmax(model: MarketModel, jumps: JumpLaw, friction: FrictionSpec,
                 eta: float, axes: list[np.ndarray]) -> tuple:
    """The index np.argmax(_eval_grid(...)) picks, without the tensor.

    f + H on the grid is P(pi) + K(kappa) + u(pi) kappa, so each portfolio
    row needs only its best kappa from _row_argmax; the best row wins, the
    first on a tie, as in the C-order argmax."""
    kappas = axes[-1]
    pis, shape, excess, quad_pi, pi_srho = _portfolio_parts(model, axes[:-1])
    P = excess - 0.5 * eta * quad_pi
    K = -0.5 * eta * (model.b * kappas) ** 2 + _jump_curve(jumps, kappas, eta)
    u = eta * model.b * pi_srho
    if isinstance(friction, PortfolioPremium):
        q = _each(friction.q, pis[:, 0])   # f = -q(pi) + kappa q(pi)
        P, u = P - q, u + q
    else:
        P = P + _pi_friction(friction, model, pis)
        K = K - _premium_value(friction.premium, kappas)
    best = _row_argmax(kappas, K, u)
    row = int(np.argmax(P + K[best] + u * kappas[best]))
    return np.unravel_index(row, shape) + (int(best[row]),)


@_overflow_as_domain_error
def grid_maximize(model: MarketModel, jumps: JumpLaw, friction: FrictionSpec,
                  utility: Utility,
                  grid: GridSpec | None = None) -> tuple[Policy, float, float]:
    """Maximization of f + H over a grid with zoom refinement.

    Each round finds the exact maximizer on its grid by a concave-hull
    query per portfolio row (see _grid_argmax); of tied grid points it
    takes the first in C order (portfolio axes, then kappa), so the
    smallest kappa in the best row. The value is f + H at that point.
    Returns (best policy, best value, resolution bound). Refinement never
    decreases the best value.
    """
    grid = grid or GridSpec()
    eta = utility.eta
    d = model.d
    bounds = _auto_pi_bounds(model, eta) + [(0.0, 1.0)]
    res_coarse = grid.resolution
    res_fine = grid.refine_resolution
    if d >= 2:
        res_coarse = min(res_coarse, grid.cap_3d)
        res_fine = min(res_fine, grid.cap_3d)

    best_val = -np.inf
    best_pt = None
    axes = None
    cur_bounds = bounds
    for rnd in range(grid.rounds + 1):
        res = res_coarse if rnd == 0 else res_fine
        axes = [np.linspace(lo, hi, res) for lo, hi in cur_bounds]
        idx = _grid_argmax(model, jumps, friction, eta, axes)
        pt = [float(ax[i]) for ax, i in zip(axes, idx)]
        val = _point_value(model, jumps, friction, eta, pt)
        if val > best_val:
            best_val, best_pt = val, pt
        # zoom around the incumbent, clipped to the original bounds
        new_bounds = []
        for (lo0, hi0), (lo, hi), c in zip(bounds, cur_bounds, best_pt):
            half = (hi - lo) / ZOOM / 2.0
            new_bounds.append((max(lo0, c - half), min(hi0, c + half)))
        cur_bounds = new_bounds

    # local Lipschitz estimate at the incumbent on the final grid
    steps = [float(ax[1] - ax[0]) if len(ax) > 1 else 0.0 for ax in axes]
    lip_sq = 0.0
    for axis, h in enumerate(steps):
        if h <= 0.0:
            continue
        lo_pt = list(best_pt)
        hi_pt = list(best_pt)
        lo_pt[axis] -= h
        hi_pt[axis] += h
        v0 = _point_value(model, jumps, friction, eta, lo_pt)
        v1 = _point_value(model, jumps, friction, eta, hi_pt)
        lip_sq += max(abs(best_val - v0), abs(v1 - best_val)) ** 2 / h ** 2
    diag = float(np.sqrt(sum(h * h for h in steps)))
    bound = float(np.sqrt(lip_sq)) * diag

    policy = Policy(pi=np.array(best_pt[:-1]), kappa=float(np.clip(best_pt[-1], 0.0, 1.0)))
    return policy, best_val, bound


def _point_value(model, jumps, friction, eta, pt) -> float:
    kappa = float(np.clip(pt[-1], 0.0, 1.0))
    axes = [np.array([p]) for p in pt[:-1]] + [np.array([kappa])]
    return float(_eval_grid(model, jumps, friction, eta, axes).ravel()[0])


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_PARAMS = ("eta", "rho", "R", "r", "lambda", "q", "b", "mu", "mu1",
                "mu2")


@dataclass(frozen=True)
class SweepPoint:
    param_value: float
    pi: np.ndarray | None
    pi_sum: float | None
    kappa: float | None
    case_label: str
    xi_star: float | None
    objective: float | None
    cert_residual: float | None
    error: str = ""


@dataclass(frozen=True)
class SweepResult:
    parameter: str
    grid: np.ndarray
    points: tuple[SweepPoint, ...]


def _apply_param(parameter: str, v: float, model: MarketModel, jumps: JumpLaw,
                 friction: FrictionSpec, utility: Utility):
    """The inputs with one parameter of SWEEP_PARAMS set to v."""
    if parameter == "eta":
        return model, jumps, friction, Utility(eta=float(v))
    if parameter == "rho":
        if model.d == 1:
            rho = np.array([float(v)])
        else:
            base = np.asarray(model.rho)
            norm = float(np.linalg.norm(base))
            if norm == 0.0:
                raise ValueError("cannot scale a zero rho vector")
            rho = base * (float(v) / norm)
        return model.replace(rho=rho), jumps, friction, utility
    if parameter in ("R", "r", "b"):
        return model.replace(**{parameter: float(v)}), jumps, friction, utility
    if parameter == "lambda":
        if isinstance(friction, PortfolioPremium):
            # a parsed premium rate q(pi) holds the fair part lambda E[Y]
            raise ValueError("lambda cannot change on a portfolio-premium "
                             "model: its premium rate holds lambda")
        return model, JumpLaw(lam=float(v), law=jumps.law), friction, utility
    if parameter == "q":
        prem = getattr(friction, "premium", None)
        if not isinstance(prem, PowerPremium):
            raise ValueError("q needs a linear or power premium schedule")
        return (model, jumps, dc_replace(friction, premium=dc_replace(
            prem, q=float(v))), utility)
    if parameter in ("mu", "mu1", "mu2"):
        idx = 0 if parameter in ("mu", "mu1") else 1
        if parameter == "mu" and model.d != 1:
            raise ValueError("mu needs a single-asset model; use mu1 or mu2")
        mu = np.array(model.mu, copy=True)
        mu[idx] = float(v)
        return model.replace(mu=mu), jumps, friction, utility
    raise ValueError(f"unknown parameter {parameter!r}")


def sweep(parameter: str, grid, base_model: MarketModel, jumps: JumpLaw,
          friction: FrictionSpec, utility: Utility) -> SweepResult:
    """Solve once per grid point of the swept parameter.

    An unknown parameter or a malformed grid raises ValueError; per-point
    failures are recorded as error strings without aborting the sweep.
    Output is a pure function of the inputs.
    """
    if parameter not in SWEEP_PARAMS:
        raise ValueError(f"unknown parameter {parameter!r}; one of "
                         f"{', '.join(SWEEP_PARAMS)}")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("sweep grid must be a nonempty strictly increasing vector")
    points = []
    for v in grid:
        try:
            m, j, f, u = _apply_param(parameter, float(v), base_model, jumps,
                                      friction, utility)
            rep = solvers.solve(m, j, f, u)
            points.append(SweepPoint(
                param_value=float(v), pi=rep.policy.pi,
                pi_sum=rep.policy.pi_sum, kappa=rep.policy.kappa,
                case_label=rep.case_label, xi_star=rep.xi_star,
                objective=rep.objective.value,
                cert_residual=rep.certificate.residual))
        except (PikappaError, ValueError) as exc:
            points.append(SweepPoint(param_value=float(v), pi=None,
                                     pi_sum=None, kappa=None,
                                     case_label=f"error({exc})",
                                     xi_star=None, objective=None,
                                     cert_residual=None, error=str(exc)))
    return SweepResult(parameter=parameter, grid=grid, points=tuple(points))


def _fmt(v) -> str:
    if v is None:
        return ""
    return f"{v:.12g}"


def sweep_csv(result: SweepResult, d: int) -> str:
    """Render a sweep as CSV text (12 significant digits, '.' decimals)."""
    buf = io.StringIO()
    cols = ["param_value"] + [f"pi_{i+1}" for i in range(d)] \
        + ["pi_sum", "kappa", "case_label", "xi_star", "objective",
           "cert_residual"]
    buf.write(",".join(cols) + "\n")
    for p in result.points:
        pis = [_fmt(float(x)) for x in p.pi] if p.pi is not None else [""] * d
        row = [_fmt(p.param_value)] + pis + [
            _fmt(p.pi_sum), _fmt(p.kappa), p.case_label.replace(",", ";"),
            _fmt(p.xi_star), _fmt(p.objective), _fmt(p.cert_residual)]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()
