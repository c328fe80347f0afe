"""Reference evaluator of the reduced objective f + H, written apart from
pikappa.

It reads the same JSON model documents the program parses, builds sigma
itself, and takes the jump expectation E[U_eta(1 - kappa Y)] from mpmath:
the Gauss hypergeometric closed form 2F1(eta - 1, alpha; alpha + beta; kappa)
for a Beta law, tanh-sinh quadrature over the Beta density for the log
branch (eta = 1), and an exact weighted sum for a discrete law. All
arithmetic runs at 30 significant digits, so the near-log points of an eta
sweep (where U carries a 1/(1 - eta) offset) still resolve steps of 1e-4.
"""

from __future__ import annotations

import math

import mpmath

mpmath.mp.dps = 30

OBJECTIVE_RTOL = 1e-9     # |program objective - reference| <= this * (1 + |ref|)
STEP = 1e-4               # +- step in each pi coordinate and in kappa
STEP_SLACK = 1e-9         # a step may raise the reference objective by this much
CASE_III_TOL = 1e-8       # |pi.1 - 1| in case iii


def sigma_matrix(doc: dict) -> list[list[float]]:
    spec = doc["sigma"]
    if isinstance(spec, (int, float)):
        return [[float(spec)]]
    if isinstance(spec, dict):
        s1, s2, s = float(spec["sigma1"]), float(spec["sigma2"]), float(spec["s"])
        return [[s1, 0.0], [s2 * s, s2 * math.sqrt(1.0 - s * s)]]
    return [[float(x) for x in row] for row in spec]


class Reference:
    """f + H for one model document, with the jump term memoised per kappa."""

    def __init__(self, doc: dict):
        self.d = int(doc["d"])
        self.mu = [mpmath.mpf(x) for x in doc["mu"]]
        self.sigma = [[mpmath.mpf(x) for x in row] for row in sigma_matrix(doc)]
        self.r = mpmath.mpf(doc["r"])
        self.R = mpmath.mpf(doc["R"])
        self.rho = [mpmath.mpf(x) for x in doc["rho"]]
        self.b = mpmath.mpf(doc["b"])
        self.lam = mpmath.mpf(doc["lambda"])
        self.eta = mpmath.mpf(doc["eta"])
        self.law = doc["jump_law"]
        self.premium = doc.get("premium", {"type": "linear", "q": 0.0})
        self.friction = doc.get("friction", {"type": "differential_rates"})
        self._jump: dict = {}

    # -- jump law --------------------------------------------------------

    def mean_y(self):
        law = self.law
        if law["type"] == "beta":
            a, b = mpmath.mpf(law["alpha"]), mpmath.mpf(law["beta"])
            return a / (a + b)
        return mpmath.fsum(mpmath.mpf(w) * mpmath.mpf(y)
                           for y, w in zip(law["points"], law["weights"]))

    def utility(self, z):
        if self.eta == 1:
            return mpmath.log(z)
        return z ** (1 - self.eta) / (1 - self.eta)

    def jump_term(self, kappa):
        """E[U_eta(1 - kappa Y)]."""
        hit = self._jump.get(kappa)
        if hit is not None:
            return hit
        k = mpmath.mpf(kappa)
        law = self.law
        if law["type"] == "discrete":
            val = mpmath.fsum(mpmath.mpf(w) * self.utility(1 - k * mpmath.mpf(y))
                              for y, w in zip(law["points"], law["weights"]))
        else:
            a, b = mpmath.mpf(law["alpha"]), mpmath.mpf(law["beta"])
            if self.eta == 1:
                val = mpmath.quad(
                    lambda y: mpmath.log(1 - k * y) * y ** (a - 1)
                    * (1 - y) ** (b - 1), [0, 1]) / mpmath.beta(a, b)
            else:
                val = mpmath.hyp2f1(self.eta - 1, a, a + b, k) / (1 - self.eta)
        self._jump[kappa] = val
        return val

    # -- objective -------------------------------------------------------

    def premium_value(self, k):
        p = self.premium
        q = mpmath.mpf(p["q"])
        if p["type"] == "power":
            return q * (1 - k) ** mpmath.mpf(p["delta"])
        return q * (1 - k)

    def friction_value(self, pi, k):
        fr = self.friction
        kind = fr["type"]
        if kind == "frictionless":
            return -self.premium_value(k)
        if kind == "differential_rates":
            return -(self.R - self.r) * max(mpmath.fsum(pi) - 1, 0) \
                - self.premium_value(k)
        if kind == "smooth_g":
            return -mpmath.mpf(fr["c"]) * pi[0] ** 2 - self.premium_value(k)
        if kind == "large_investor":
            m = mpmath.mpf(fr["m_plus"] if pi[0] >= 0 else fr["m_minus"])
            return pi[0] * m - self.premium_value(k)
        if kind == "portfolio_premium":
            C, A = mpmath.mpf(fr["C"]), mpmath.mpf(fr["A"])
            q = self.lam * self.mean_y() + C * (mpmath.sqrt(pi[0] ** 2 + A * A) - A)
            return -(1 - k) * q
        raise ValueError(f"unknown friction {kind!r}")

    def objective(self, pi, kappa) -> mpmath.mpf:
        """f + H at (pi, kappa)."""
        pi = [mpmath.mpf(x) for x in pi]
        k = mpmath.mpf(kappa)
        d = self.d
        st_pi = [mpmath.fsum(self.sigma[i][j] * pi[i] for i in range(d))
                 for j in range(d)]
        srho = [mpmath.fsum(self.sigma[i][j] * self.rho[j] for j in range(d))
                for i in range(d)]
        pi_srho = mpmath.fsum(pi[i] * srho[i] for i in range(d))
        quad = mpmath.fsum(x * x for x in st_pi) + (self.b * k) ** 2 \
            - 2 * self.b * k * pi_srho
        excess = mpmath.fsum(pi[i] * (self.mu[i] - self.r) for i in range(d))
        H = excess - self.eta / 2 * quad
        if self.lam > 0:
            H += self.lam * self.jump_term(float(kappa))
        return H + self.friction_value(pi, k)

    def value_function(self, objective) -> mpmath.mpf:
        """Expected utility of terminal wealth at T = 1 from x = 1."""
        fh = mpmath.mpf(objective)
        if self.eta == 1:
            return self.r + fh
        theta = mpmath.exp((1 - self.eta) * (self.r + fh) - self.lam)
        return theta / (1 - self.eta)


def check_optimum(ref: Reference, pi, kappa: float, objective: float,
                  tag: str) -> list[str]:
    """The reported objective matches the reference, and no +- STEP in any
    pi coordinate or in kappa (clipped to [0, 1]) raises it by more than
    STEP_SLACK. Returns the failures found."""
    errors = []
    base = ref.objective(pi, kappa)
    if abs(mpmath.mpf(objective) - base) > OBJECTIVE_RTOL * (1 + abs(base)):
        errors.append(f"{tag}: objective {objective!r} vs reference "
                      f"{mpmath.nstr(base, 17)}")
    probes = []
    for i in range(len(pi)):
        for s in (-STEP, STEP):
            moved = list(pi)
            moved[i] += s
            probes.append((f"pi_{i + 1}{s:+g}", moved, kappa))
    for s in (-STEP, STEP):
        k = min(max(kappa + s, 0.0), 1.0)
        if k != kappa:
            probes.append((f"kappa{s:+g}", list(pi), k))
    for name, p, k in probes:
        gain = ref.objective(p, k) - base
        if gain > STEP_SLACK:
            errors.append(f"{tag}: step {name} raises the objective by "
                          f"{mpmath.nstr(gain, 3)}")
    return errors


_FAMILY_OF_ROMAN = {"i": "i", "ii": "ii", "iii": "iii",
                    "iv": "i", "v": "ii", "vi": "i", "vii": "ii"}


def case_family(label: str) -> str | None:
    """i, ii or iii for a roman case label, None for the other regimes."""
    return _FAMILY_OF_ROMAN.get(label.rpartition("-")[2])


def check_case_label(label: str, pi, kappa: float, tag: str) -> list[str]:
    """The case label agrees with pi.1 and kappa: i means pi.1 < 1, ii
    pi.1 > 1, iii |pi.1 - 1| <= CASE_III_TOL, iv and v kappa = 0, vi and
    vii kappa = 1. The large investor's hyperplane is pi = 0 in place of
    pi.1 = 1, with i on the long side."""
    prefix, _, roman = label.rpartition("-")
    family = case_family(label)
    if family is None:
        return []          # SmoothG-n and PortfolioPremium-interior
    if prefix == "Large":
        s = pi[0]
        side = {"i": s > 0.0, "ii": s < 0.0, "iii": s == 0.0}[family]
    else:
        s = math.fsum(pi)
        side = {"i": s < 1.0, "ii": s > 1.0,
                "iii": abs(s - 1.0) <= CASE_III_TOL}[family]
    corner = {"iv": kappa == 0.0, "v": kappa == 0.0,
              "vi": kappa == 1.0, "vii": kappa == 1.0}.get(roman, True)
    if side and corner:
        return []
    return [f"{tag}: label {label} disagrees with pi={list(pi)!r} "
            f"kappa={kappa!r}"]
