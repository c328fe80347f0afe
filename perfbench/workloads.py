"""Inputs of the three workloads, made from the seed alone.

Every input is a JSON model document in the schema of pikappa's model files,
so the program parses it through its public loader and the reference
evaluator reads the same document without going through the program.
"""

from __future__ import annotations

import json
import os

import numpy as np

CONFIG_DIR = os.path.join("src", "pikappa", "configs")

# The eight pikappa.repro recipes: (config, swept field, from, to, intervals).
REPRO_SWEEPS = (
    ("a1", "eta", 0.1, 7.9, 390),
    ("a2", "eta", 0.1, 7.9, 390),
    ("b1", "rho", -1.0, 1.0, 100),
    ("b2", "rho", -1.0, 1.0, 100),
    ("c1", "rho", -1.0, 1.0, 100),
    ("c2", "rho", -1.0, 1.0, 100),
    ("section5-example", "rho", 0.0, 0.5, 8),
)
THRESHOLD_CONFIG = "table-etaR"
THRESHOLD_R = (0.10, 0.09, 0.08, 0.07, 0.06, 0.05, 0.04, 0.035, 0.031)

MC_PATHS = 1_000_000
PERTURBATION = 0.1

BUNDLED = ("a1", "a2", "b1", "b2", "c1", "c2", "table-etaR",
           "section5-example")


def load_config(root: str, name: str) -> dict:
    with open(os.path.join(root, CONFIG_DIR, name + ".json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def with_rho(doc: dict, rho: float) -> dict:
    """The CLI's --rho override: set the scalar, or rescale the vector."""
    out = dict(doc)
    if int(doc["d"]) == 1:
        out["rho"] = [float(rho)]
    else:
        base = np.asarray(doc["rho"], dtype=float)
        out["rho"] = (base * (float(rho) / float(np.linalg.norm(base)))).tolist()
    return out


# ---------------------------------------------------------------------------
# repro
# ---------------------------------------------------------------------------

def repro_inputs(root: str, seed: int):
    """The solves and threshold rows of the repro recipes, in recipe order,
    and the order one pass runs them in, a permutation drawn from the seed.

    Each solve is (tag, doc); each threshold row is (tag, doc, R).
    """
    solves = []
    for config, field, lo, hi, steps in REPRO_SWEEPS:
        base = load_config(root, config)
        for i, v in enumerate(np.linspace(lo, hi, steps + 1)):
            if field == "eta":
                doc = dict(base, eta=float(v))
            else:
                doc = with_rho(base, float(v))
            solves.append((f"{config}[{i}]", doc))
    table = load_config(root, THRESHOLD_CONFIG)
    rows = [(f"{THRESHOLD_CONFIG}[R={R}]", dict(table, R=R), R)
            for R in THRESHOLD_R]
    order = np.random.default_rng(seed).permutation(len(solves) + len(rows))
    return solves, rows, [int(i) for i in order]


# ---------------------------------------------------------------------------
# crosscheck
# ---------------------------------------------------------------------------

# One round: (friction, d, jump law, eta = 1 exactly). Fixed make-up, so the
# regime mix, the d = 2 share and the discrete and log shares are the same
# on every seed; the seed draws the parameters.
CROSSCHECK_SLOTS = (
    ("differential_rates", 1, "beta", False),
    ("differential_rates", 2, "beta", False),
    ("differential_rates", 1, "discrete", False),
    ("differential_rates", 1, "beta", True),
    ("frictionless", 1, "beta", False),
    ("frictionless", 2, "discrete", True),
    ("smooth_g", 1, "beta", False),
    ("smooth_g", 1, "discrete", False),
    ("large_investor", 1, "beta", False),
    ("large_investor", 1, "beta", True),
    ("portfolio_premium", 1, "beta", False),
    ("portfolio_premium", 1, "discrete", False),
)


def _jump_law(rng, kind: str):
    if kind == "beta":
        law = {"type": "beta", "alpha": rng.uniform(0.8, 14.0),
               "beta": rng.uniform(2.5, 12.0)}
        mean = law["alpha"] / (law["alpha"] + law["beta"])
        m2 = mean * (law["alpha"] + 1.0) / (law["alpha"] + law["beta"] + 1.0)
        # keeps E[U^4] finite for the Monte Carlo standard error
        eta_hi = min(1.0 + law["beta"] / 4.0, 6.0)
        return law, mean, m2, eta_hi
    n = int(rng.integers(2, 6))
    points = np.sort(rng.uniform(0.05, 0.95, size=n))
    weights = rng.dirichlet(np.ones(n))
    law = {"type": "discrete", "points": points.tolist(),
           "weights": weights.tolist()}
    return law, float(points @ weights), float(points ** 2 @ weights), 6.0


def _market(rng, d: int) -> dict:
    r = rng.uniform(0.0, 0.05)
    if d == 1:
        return {"d": 1, "mu": [r + rng.uniform(-0.02, 0.18)],
                "sigma": rng.uniform(0.15, 0.45), "r": r,
                "R": r + rng.uniform(0.0, 0.08),
                "rho": [rng.uniform(-0.9, 0.9)], "b": rng.uniform(0.05, 0.8)}
    s1, s2 = rng.uniform(0.15, 0.45, size=2)
    rho = rng.uniform(-1.0, 1.0, size=2)
    rho = rho / np.linalg.norm(rho) * rng.uniform(0.1, 0.9)
    return {"d": 2, "mu": (r + rng.uniform(-0.02, 0.15, size=2)).tolist(),
            "sigma": {"sigma1": s1, "sigma2": s2, "s": rng.uniform(-0.7, 0.7)},
            "r": r, "R": r + rng.uniform(0.0, 0.08), "rho": rho.tolist(),
            "b": rng.uniform(0.05, 0.7)}


def _crosscheck_doc(rng, friction: str, d: int, law_kind: str,
                    log_utility: bool) -> dict:
    law, mean_y, m2_y, eta_hi = _jump_law(rng, law_kind)
    lam = rng.uniform(0.05, 0.5)
    eta = 1.0 if log_utility else rng.uniform(0.4, eta_hi)
    if friction == "portfolio_premium":
        # rho >= 0, a modest Merton fraction and b of at least 0.4 put the
        # first-order condition's sign change inside (0, 1); C below the
        # second-order bound keeps the problem concave
        doc = _market(rng, 1)
        doc["mu"] = [doc["r"] + rng.uniform(0.03, 0.10)]
        doc["sigma"] = rng.uniform(0.25, 0.45)
        doc["rho"] = [rng.uniform(0.0, 0.6)]
        doc["b"] = rng.uniform(0.4, 0.8)
        eta = 1.0 if log_utility else rng.uniform(1.5, max(1.6, eta_hi))
        sig, rho, b = doc["sigma"], doc["rho"][0], doc["b"]
        c_max = np.sqrt(sig * sig * eta * eta * (b * b + lam * m2_y)) \
            - eta * abs(rho) * b * sig
        fr = {"type": "portfolio_premium", "form": "fair_plus_sqrt",
              "C": float(rng.uniform(0.3, 0.9) * c_max),
              "A": rng.uniform(0.2, 1.0)}
    else:
        doc = _market(rng, d)
        fr = {"type": friction}
        if friction == "smooth_g":
            fr.update(form="quadratic", c=rng.uniform(0.01, 0.4))
        elif friction == "large_investor":
            fr.update(m_plus=-rng.uniform(0.0, 0.04),
                      m_minus=rng.uniform(0.0, 0.04))
    doc.update({"lambda": lam, "jump_law": law,
                "premium": {"type": "linear", "q": rng.uniform(0.0, 0.5)},
                "friction": fr, "eta": eta})
    return {k: (float(v) if isinstance(v, np.floating) else v)
            for k, v in doc.items()}


MODELS_PER_SLOT = 2


def crosscheck_inputs(seed: int):
    """One round of models, (tag, doc, Monte Carlo seed) each, in slot
    order: MODELS_PER_SLOT draws of every slot, so that the round's median
    does not hang on one draw."""
    rng = np.random.default_rng(seed)
    out = []
    for slot in CROSSCHECK_SLOTS * MODELS_PER_SLOT:
        doc = _crosscheck_doc(rng, *slot)
        out.append((f"{slot[0]}-d{slot[1]}-{slot[2]}"
                    f"{'-log' if slot[3] else ''}", doc,
                    int(rng.integers(0, 2 ** 31))))
    return out


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# Single-field corruptions of b1.json and what the input contract asks of
# each: exit 1 with an "input error:" line, or any of exit 0 / 1 without a
# traceback.
MALFORMED = (
    ("b1-mu-nan", {"mu": [float("nan")]}, "input-error"),
    ("b1-b-inf", {"b": float("inf")}, "input-error"),
    ("b1-eta-1e6", {"eta": 1e6}, "no-traceback"),
)


def cli_inputs(root: str, seed: int, workdir: str):
    """The invocations of one round, (tag, model argument, extra flags,
    expectation, document), in an order drawn from the seed. Writes the
    malformed model files into workdir."""
    calls = [(name, name, [], "ok", load_config(root, name))
             for name in BUNDLED]
    calls.append(("b1-rho-0.3", "b1", ["--rho", "0.3"], "ok",
                  with_rho(load_config(root, "b1"), 0.3)))
    calls.append(("a1-thresholds", "a1", ["--thresholds"], "thresholds",
                  load_config(root, "a1")))
    os.makedirs(workdir, exist_ok=True)
    b1 = load_config(root, "b1")
    for tag, change, expect in MALFORMED:
        path = os.path.join(workdir, tag + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(b1, **change), fh)
        calls.append((tag, path, [], expect, None))
    order = np.random.default_rng(seed).permutation(len(calls))
    return [calls[i] for i in order]
