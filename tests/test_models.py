"""Validation and model-file tests."""

import json

import numpy as np
import pytest

import pikappa as pk


def base_inputs(**overrides):
    doc = {
        "d": 2,
        "mu": [0.08, 0.10],
        "sigma": {"sigma1": 0.25, "sigma2": 0.32, "s": 0.25},
        "r": 0.02, "R": 0.06,
        "rho": [0.2, -0.3], "b": 0.4,
        "lambda": 0.25,
        "jump_law": {"type": "beta", "alpha": 2.0, "beta": 8.0},
        "premium": {"type": "linear", "q": 0.3},
        "friction": {"type": "differential_rates"},
        "eta": 3.0,
    }
    doc.update(overrides)
    return pk.parse_model_dict(doc)


class TestValidation:
    def test_paper_sigma_passes(self):
        # sigma built from s = 0.25: second row (0.08, 0.32 sqrt(1 - 0.0625))
        inp = base_inputs()
        assert inp.model.sigma[1, 0] == pytest.approx(0.08)
        assert inp.model.sigma[1, 1] == pytest.approx(0.3098386676965934)
        rep = pk.validate_model(inp.model, inp.jumps, inp.friction, inp.utility)
        assert rep.ok

    def test_singular_sigma_fails(self):
        m = pk.MarketModel(mu=[0.08, 0.10], sigma=np.zeros((2, 2)),
                           r=0.02, R=0.06, rho=[0.2, -0.3], b=0.4)
        inp = base_inputs()
        rep = pk.validate_model(m, inp.jumps, inp.friction, inp.utility)
        assert not rep.ok
        assert any("sigma invertible" in c.name for c in rep.failures())

    def test_discrete_support_at_one_fails(self):
        jumps = pk.JumpLaw(lam=0.2, law=pk.DiscreteJumps(points=[1.0],
                                                         weights=[1.0]))
        inp = base_inputs()
        rep = pk.validate_model(inp.model, jumps, inp.friction, inp.utility)
        assert not rep.ok

    def test_rate_ordering(self):
        inp = base_inputs(R=0.01)
        rep = pk.validate_model(inp.model, inp.jumps, inp.friction, inp.utility)
        assert not rep.ok
        assert any(c.name == "R >= r" for c in rep.failures())

    def test_rho_norm_bound(self):
        inp = base_inputs(rho=[0.9, 0.9])
        rep = pk.validate_model(inp.model, inp.jumps, inp.friction, inp.utility)
        assert not rep.ok

    def test_validation_deterministic(self):
        inp = base_inputs()
        r1 = pk.validate_model(inp.model, inp.jumps, inp.friction, inp.utility)
        r2 = pk.validate_model(inp.model, inp.jumps, inp.friction, inp.utility)
        assert str(r1) == str(r2) and r1.ok == r2.ok

    def test_premium_p1_zero_enforced(self):
        prem = pk.TabulatedPremium(p=lambda k: 0.1 * (1 - k) + 0.05,
                                   p_prime=lambda k: -0.1)
        inp = base_inputs()
        rep = pk.validate_model(inp.model, inp.jumps,
                                pk.DifferentialRates(premium=prem),
                                inp.utility)
        assert not rep.ok


    def test_non_finite_fields_fail(self):
        inp = base_inputs()
        m = inp.model.replace(b=float("inf"))
        rep = pk.validate_model(m, inp.jumps, inp.friction, inp.utility)
        assert [c.name for c in rep.failures()] == ["numeric fields finite"]
        nan_eta = pk.Utility(eta=float("nan"))
        rep = pk.validate_model(inp.model, inp.jumps, inp.friction, nan_eta)
        assert any(c.name == "numeric fields finite" for c in rep.failures())

    def test_error_lists_only_failures_on_one_line(self):
        inp = base_inputs(R=0.01)
        jumps = pk.JumpLaw(lam=0.2, law=pk.DiscreteJumps(
            points=np.full(40, 1.0), weights=np.full(40, 1.0 / 40)))
        rep = pk.validate_model(inp.model, jumps, inp.friction, inp.utility)
        msg = str(pk.ModelValidationError(rep))
        assert msg == ("model validation failed: R >= r: r=0.02 R=0.01; "
                       f"discrete support inside (0,1): points={[1.0] * 40}")

    def test_missing_premium_schedule_fails(self):
        # a premium-free friction handed to a premium-schedule check, as
        # threshold_etas does with a portfolio-premium model
        inp = base_inputs()
        rep = pk.validate_model(inp.model, inp.jumps,
                                pk.DifferentialRates(premium=None),
                                inp.utility)
        assert [c.name for c in rep.failures()] == ["premium schedule given"]

    def test_parse_rejects_non_finite(self):
        with pytest.raises(ValueError, match=r"model\.jump_law\.beta"):
            base_inputs(jump_law={"type": "beta", "alpha": 2.0,
                                  "beta": float("nan")})
        with pytest.raises(ValueError, match=r"model\.mu\[1\]"):
            base_inputs(mu=np.array([0.08, np.inf]))


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        doc = base_inputs().raw
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        inp = pk.load_model_file(path)
        assert inp.model.d == 2
        assert inp.jumps.lam == 0.25
        assert isinstance(inp.friction, pk.DifferentialRates)
        assert inp.utility.eta == 3.0

    def test_malformed_json_diagnostics(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d": 2,\n "mu": [0.08 0.10]}')
        with pytest.raises(ValueError, match="line"):
            pk.load_model_file(path)

    def test_missing_field(self):
        with pytest.raises(ValueError, match="eta"):
            pk.parse_model_dict({"d": 1, "mu": [0.1], "sigma": 0.3,
                                 "r": 0.02, "R": 0.06, "rho": [0.0],
                                 "b": 0.4, "lambda": 0.1,
                                 "jump_law": {"type": "beta", "alpha": 2,
                                              "beta": 8}})

    def test_types_immutable(self):
        inp = base_inputs()
        with pytest.raises((ValueError, AttributeError)):
            inp.model.mu[0] = 99.0
        with pytest.raises(AttributeError):
            inp.model.r = 0.5


class TestPolicyInvariants:
    def test_finite_weights_required(self):
        with pytest.raises(ValueError):
            pk.Policy(pi=[np.nan], kappa=0.5)

    def test_kappa_range_required(self):
        with pytest.raises(ValueError):
            pk.Policy(pi=[0.5], kappa=1.2)
