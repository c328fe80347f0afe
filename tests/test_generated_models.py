"""The library and CLI contracts on generated models, not only on the
bundled configs: each model runs the whole chain (solve, value_function,
grid_maximize, simulate, compare_policies) and passes, or raises ValueError
or a PikappaError, with every RuntimeWarning an error (the suite's
filterwarnings). A sample also runs as model files through cli.main: exit 0
with an empty stderr, or exit 1 or 2 with one stderr line. The seeds are
fixed, so the property is derandomized."""

import json
import math

import numpy as np
import pytest

import pikappa as pk
from model_generator import model_doc
from pikappa import cli
from pikappa.errors import PikappaError
from pikappa.simulate import BLOCK

# (friction, d, law): d = 2 for the frictions that take it
SLOTS = [(friction, d, law)
         for friction, dims in (("frictionless", (1, 2)),
                                ("differential_rates", (1, 2)),
                                ("smooth_g", (1,)), ("large_investor", (1,)),
                                ("portfolio_premium", (1,)))
         for d in dims for law in ("beta", "discrete")]
MODELS_PER_SLOT = 4
GRID = pk.GridSpec(resolution=41, refine_resolution=41, rounds=1)


def _chain(inp, n_paths: int, seed: int) -> None:
    args = (inp.model, inp.jumps, inp.friction, inp.utility)
    rep = pk.solve(*args)
    assert np.isfinite(rep.policy.pi).all()
    assert 0.0 <= rep.policy.kappa <= 1.0
    pk.value_function(0.0, 1.0, 1.0, rep.objective, inp.model, inp.jumps,
                      inp.utility)
    pk.grid_maximize(*args, GRID)
    cfg = pk.SimConfig(n_paths=n_paths, seed=seed)
    est = pk.simulate_terminal_utility(rep.policy, *args, cfg)
    assert math.isfinite(est.mean) and 0.0 <= est.std_error < math.inf
    other = pk.Policy(pi=1.1 * rep.policy.pi,
                      kappa=min(1.0, rep.policy.kappa + 0.05))
    cmp = pk.compare_policies(rep.policy, other, *args, cfg)
    assert cmp.mean_a == est.mean
    assert cmp.verdict in ("A-better", "B-better", "indistinguishable")


@pytest.mark.parametrize("slot", SLOTS,
                         ids=[f"{f}-d{d}-{law}" for f, d, law in SLOTS])
def test_generated_models_keep_the_contract(slot, tmp_path, capsys):
    friction, d, law = slot
    for k in range(MODELS_PER_SLOT):
        rng = np.random.default_rng([SLOTS.index(slot), k])
        # the last model of a slot has log utility, eta = 1 exactly
        doc = model_doc(rng, friction, d, law,
                        log_utility=k == MODELS_PER_SLOT - 1)
        # the first runs over three blocks, the last one ragged
        n_paths = 2 * BLOCK + 1_000 if k == 0 else 2_000
        try:
            _chain(pk.parse_model_dict(doc), n_paths, seed=k)
        except (ValueError, PikappaError):
            pass
        if k != 1:
            continue
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        for argv in (["solve"], ["simulate", "--paths", "2000"]):
            code = cli.main(argv + ["--model", str(path)])
            _, err = capsys.readouterr()
            if code == 0:
                assert err == "", (argv, doc)
            else:
                assert code in (1, 2) and len(err.splitlines()) == 1, \
                    (argv, doc, err)
