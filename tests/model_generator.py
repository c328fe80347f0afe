"""Random model-file documents over a wide input box: every friction, d = 1
and 2, Beta and discrete jump laws, eta log-uniform on [1e-6, 1e6] (or
exactly 1, log utility), lambda on [0, 3] and b on [0, 1.5]. The crosscheck
benchmark draws from a narrower box of its own; the tests keep this one so
that they do not import the benchmark."""

import numpy as np

FRICTIONS = ("frictionless", "differential_rates", "smooth_g",
             "large_investor", "portfolio_premium")


def _jump_law(rng, kind: str) -> dict:
    if kind == "beta":
        return {"type": "beta", "alpha": rng.uniform(0.8, 14.0),
                "beta": rng.uniform(1.0, 12.0)}
    n = int(rng.integers(2, 6))
    return {"type": "discrete",
            "points": np.sort(rng.uniform(0.05, 0.95, size=n)).tolist(),
            "weights": rng.dirichlet(np.ones(n)).tolist()}


def _market(rng, d: int) -> dict:
    r = rng.uniform(0.0, 0.05)
    doc = {"d": d, "r": r, "R": r + rng.uniform(0.0, 0.08),
           "b": rng.uniform(0.0, 1.5)}
    if d == 1:
        doc.update(mu=[r + rng.uniform(-0.02, 0.18)],
                   sigma=rng.uniform(0.15, 0.45),
                   rho=[rng.uniform(-0.9, 0.9)])
        return doc
    rho = rng.uniform(-1.0, 1.0, size=2)
    doc.update(mu=(r + rng.uniform(-0.02, 0.15, size=2)).tolist(),
               sigma={"sigma1": rng.uniform(0.15, 0.45),
                      "sigma2": rng.uniform(0.15, 0.45),
                      "s": rng.uniform(-0.7, 0.7)},
               rho=(rho / np.linalg.norm(rho)
                    * rng.uniform(0.1, 0.9)).tolist())
    return doc


def model_doc(rng, friction: str, d: int, law: str,
              log_utility: bool = False) -> dict:
    """One model-file document for parse_model_dict, drawn from rng."""
    doc = _market(rng, d)
    fr = {"type": friction}
    if friction == "smooth_g":
        fr.update(form="quadratic", c=rng.uniform(0.01, 0.4))
    elif friction == "large_investor":
        fr.update(m_plus=-rng.uniform(0.0, 0.04),
                  m_minus=rng.uniform(0.0, 0.04))
    elif friction == "portfolio_premium":
        fr.update(form="fair_plus_sqrt", C=rng.uniform(0.0, 0.5),
                  A=rng.uniform(0.2, 1.0))
    doc.update({"lambda": rng.uniform(0.0, 3.0),
                "jump_law": _jump_law(rng, law),
                "premium": {"type": "linear", "q": rng.uniform(0.0, 0.5)},
                "friction": fr,
                "eta": 1.0 if log_utility
                else float(np.exp(rng.uniform(np.log(1e-6), np.log(1e6))))})
    return {k: float(v) if isinstance(v, np.floating) else v
            for k, v in doc.items()}
