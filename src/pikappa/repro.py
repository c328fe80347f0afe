"""Canonical reproduction recipes for the bundled configs.

Each bundled model file has one deterministic CSV artifact; regenerating it
must be bit-identical run to run (the reproduction test compares against the
checked-in reference copies). Regenerate all of them with

    python -m pikappa.repro OUTDIR
"""

from __future__ import annotations

import io
import os
import sys
from dataclasses import replace

import numpy as np

from . import oracle, solvers
from .models import load_model_file, resolve_model_path


def _sweep_csv(config: str, param: str, lo: float, hi: float,
               steps: int) -> str:
    inputs = load_model_file(resolve_model_path(config))
    grid = np.linspace(lo, hi, steps + 1)
    points = oracle.sweep(param, grid, inputs.model, inputs.jumps,
                          inputs.friction, inputs.utility)
    return oracle.sweep_csv(points, inputs.model.d)


def _eta_threshold_table(config: str) -> str:
    inputs = load_model_file(resolve_model_path(config))
    prem = inputs.friction.premium
    buf = io.StringIO()
    buf.write("R,eta_R\n")
    for R in (0.10, 0.09, 0.08, 0.07, 0.06, 0.05, 0.04, 0.035, 0.031):
        eta_R, _ = solvers.threshold_etas(replace(inputs.model, R=R),
                                          inputs.jumps, prem)
        buf.write(f"{R:.12g},{eta_R:.12g}\n")
    return buf.getvalue()


RECIPES = {
    "a1_eta_sweep.csv": lambda: _sweep_csv("a1", "eta", 0.1, 7.9, 390),
    "a2_eta_sweep.csv": lambda: _sweep_csv("a2", "eta", 0.1, 7.9, 390),
    "b1_rho_sweep.csv": lambda: _sweep_csv("b1", "rho", -1.0, 1.0, 100),
    "b2_rho_sweep.csv": lambda: _sweep_csv("b2", "rho", -1.0, 1.0, 100),
    "c1_rho_sweep.csv": lambda: _sweep_csv("c1", "rho", -1.0, 1.0, 100),
    "c2_rho_sweep.csv": lambda: _sweep_csv("c2", "rho", -1.0, 1.0, 100),
    "table-etaR.csv": lambda: _eta_threshold_table("table-etaR"),
    "section5_rho_sweep.csv":
        lambda: _sweep_csv("section5-example", "rho", 0.0, 0.5, 8),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    outdir = argv[0] if argv else "."
    os.makedirs(outdir, exist_ok=True)
    for name, recipe in RECIPES.items():
        path = os.path.join(outdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(recipe())
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
