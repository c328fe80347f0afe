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

A sweep returns one SweepPoint(param_value, report, error) per grid point:
its SolveReport, or None and the error that stopped the solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import ClassVar

import numpy as np

from .errors import PikappaError
from .hamiltonian import _pi_friction, friction_term
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
    cap_3d: ClassVar[int] = 201

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
    return H + friction_term(friction, model, jumps,
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
    never a maximum and are left out.

    K is concave in exact arithmetic, so the chain's own test usually keeps
    every point: it is run first on all consecutive triples at once, and
    _upper_hull's loop only where one fails, with the same bits either
    way."""
    live = np.flatnonzero(np.isfinite(K))
    x, y = kappas[live], K[live]
    if np.all((x[1:-1] - x[:-2]) * (y[2:] - y[:-2])
              < (y[1:-1] - y[:-2]) * (x[2:] - x[:-2])):
        hull = live        # no triple pops a point, so all are vertices
    else:
        hull = live[_upper_hull(x.tolist(), y.tolist())]
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
        q = friction.rate(pis[:, 0], jumps)   # f = -q(pi) + kappa q(pi)
        P, u = P - q, u + q
    else:
        P = P + _pi_friction(friction, model, pis)
        K = K - friction.premium.value(kappas)
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
    """One grid point of a sweep: its solve report, or None and the error
    that stopped the solve."""
    param_value: float
    report: solvers.SolveReport | None
    error: str = ""


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
        return dc_replace(model, rho=rho), jumps, friction, utility
    if parameter in ("R", "r", "b"):
        return dc_replace(model, **{parameter: float(v)}), jumps, friction, utility
    if parameter == "lambda":
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
        if idx >= model.d:
            raise ValueError("mu2 needs a two-asset model; use mu or mu1")
        mu = np.array(model.mu, copy=True)
        mu[idx] = float(v)
        return dc_replace(model, mu=mu), jumps, friction, utility
    raise ValueError(f"unknown parameter {parameter!r}")


def sweep(parameter: str, grid, base_model: MarketModel, jumps: JumpLaw,
          friction: FrictionSpec, utility: Utility) -> tuple[SweepPoint, ...]:
    """Solve once per grid point of the swept parameter.

    An unknown parameter, one that cannot apply to the model (mu at d = 2,
    mu2 at d = 1, rho on a zero rho vector, q on a premium without q) or a
    grid that is not a nonempty, finite, strictly increasing vector raises
    ValueError before any solve; per-point failures are recorded as error
    strings without aborting the sweep. Output is a pure function of the
    inputs.
    """
    if parameter not in SWEEP_PARAMS:
        raise ValueError(f"unknown parameter {parameter!r}; one of "
                         f"{', '.join(SWEEP_PARAMS)}")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)) \
            or not np.all(np.diff(grid) > 0.0):
        raise ValueError("sweep grid must be a nonempty, finite, strictly "
                         "increasing vector")
    # whether the parameter applies does not hang on its value
    _apply_param(parameter, float(grid[0]), base_model, jumps, friction,
                 utility)
    points = []
    for v in map(float, grid):
        try:
            points.append(SweepPoint(v, solvers.solve(*_apply_param(
                parameter, v, base_model, jumps, friction, utility))))
        except (PikappaError, ValueError) as exc:
            points.append(SweepPoint(v, None, str(exc)))
    return tuple(points)


def sweep_header(d: int) -> list[str]:
    """The sweep CSV's columns for d assets; all but param_value and
    case_label hold numbers."""
    return ["param_value"] + [f"pi_{i+1}" for i in range(d)] \
        + ["pi_sum", "kappa", "case_label", "xi_star", "objective",
           "cert_residual"]


def sweep_row(point: SweepPoint, d: int) -> list:
    """The point's cells in sweep_header(d) order: numbers, None for an
    empty cell, and the case label, error(<msg>) on a failed point."""
    rep = point.report
    if rep is None:
        return [point.param_value] + [None] * (d + 2) \
            + [f"error({point.error})"] + [None] * 3
    return [point.param_value, *map(float, rep.policy.pi), rep.policy.pi_sum,
            rep.policy.kappa, rep.case_label, rep.xi_star,
            rep.objective.value, rep.certificate.residual]


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v.replace(",", ";")
    return f"{v:.12g}"


def sweep_csv(points: tuple[SweepPoint, ...], d: int) -> str:
    """Render a sweep as CSV text (12 significant digits, '.' decimals)."""
    rows = [sweep_header(d)] + [map(_cell, sweep_row(p, d)) for p in points]
    return "".join(",".join(row) + "\n" for row in rows)
