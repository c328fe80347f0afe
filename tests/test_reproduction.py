"""Bundled reproduction configs regenerate their reference CSVs
bit-identically, and the regenerated artifacts show the documented
qualitative features."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pikappa
from pikappa.repro import RECIPES

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture(scope="module")
def artifacts():
    return {name: recipe() for name, recipe in RECIPES.items()}


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _column_diff(new, old):
    """Per column of two CSV texts: the rows that changed and, for a numeric
    column, the largest |change|; for a label column the changed labels."""
    new_rows, old_rows = _rows(new), _rows(old)
    if len(new_rows) != len(old_rows) or (
            new_rows and new_rows[0].keys() != old_rows[0].keys()):
        return (f"shape changed: {len(old_rows)} -> {len(new_rows)} rows, "
                f"columns {list(old_rows[0]) if old_rows else []} -> "
                f"{list(new_rows[0]) if new_rows else []}")
    lines = []
    for col in new_rows[0] if new_rows else ():
        pairs = [(r[col], o[col]) for r, o in zip(new_rows, old_rows)
                 if r[col] != o[col]]
        if not pairs:
            continue
        try:
            largest = max(abs(float(a) - float(b)) for a, b in pairs)
        except ValueError:
            lines.append(f"{col}: {len(pairs)} labels changed")
        else:
            lines.append(f"{col}: {len(pairs)} rows changed, "
                         f"largest |change| {largest:.3g}")
    return "; ".join(lines) or "only the text outside the cells changed"


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_bit_identical_to_reference(name, artifacts):
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
        golden = fh.read()
    # a bool, so that a failure reports the column diff alone, not pytest's
    # diff of the two texts
    same = artifacts[name] == golden
    assert same, _column_diff(artifacts[name], golden)


def test_a2_case_transition_matches_eta_r(artifacts):
    # pi_sum leaves the all-risky band between eta = 2.34 and 2.36
    rows = _rows(artifacts["a2_eta_sweep.csv"])
    last_iii = max(float(r["param_value"]) for r in rows
                   if r["case_label"] == "DiffRates-iii")
    assert 2.33 < last_iii < 2.36
    after = [r for r in rows if float(r["param_value"]) > last_iii + 1e-9]
    assert all(r["case_label"] == "DiffRates-i" for r in after)


def test_case_iii_rows_sit_on_the_hyperplane(artifacts):
    # case iii puts the whole wealth at risk: pi.1 = 1 to the printed digits
    rows = [r for name in sorted(artifacts) if name.endswith(".csv")
            for r in _rows(artifacts[name])
            if r.get("case_label", "").endswith("-iii")]
    assert len(rows) == 147
    assert all(r["pi_sum"] == "1" for r in rows)


def test_a1_case_band(artifacts):
    rows = _rows(artifacts["a1_eta_sweep.csv"])
    iii = [float(r["param_value"]) for r in rows
           if r["case_label"] == "DiffRates-iii"]
    assert min(iii) == pytest.approx(0.60, abs=0.03)
    assert max(iii) == pytest.approx(1.47, abs=0.03)


def test_b1_full_retention_at_rho_endpoints(artifacts):
    rows = _rows(artifacts["b1_rho_sweep.csv"])
    assert float(rows[0]["kappa"]) == 1.0
    assert float(rows[-1]["kappa"]) == 1.0


def test_c1_c2_full_insurance_plateaus(artifacts):
    c1 = _rows(artifacts["c1_rho_sweep.csv"])
    zero = [float(r["param_value"]) for r in c1 if r["kappa"] == "0"]
    assert min(zero) == pytest.approx(0.5156, abs=0.021)
    assert max(zero) == 1.0
    c2 = _rows(artifacts["c2_rho_sweep.csv"])
    zero = [float(r["param_value"]) for r in c2 if r["kappa"] == "0"]
    assert max(zero) == pytest.approx(-0.6346, abs=0.021)
    assert min(zero) == -1.0


def test_eta_r_table_values(artifacts):
    rows = _rows(artifacts["table-etaR.csv"])
    targets = [0.71, 0.95, 1.18, 1.42, 1.65, 1.89, 2.12, 2.24, 2.33]
    for row, t in zip(rows, targets):
        assert float(row["eta_R"]) == pytest.approx(t, abs=0.01)


def test_section5_sweep_interior(artifacts):
    rows = _rows(artifacts["section5_rho_sweep.csv"])
    assert all(r["case_label"] == "PortfolioPremium-interior" for r in rows)
    kappas = [float(r["kappa"]) for r in rows]
    assert all(0.0 < k < 1.0 for k in kappas)


def test_a_recipe_runs_without_the_cli():
    # the recipes find the bundled configs through models, so a library
    # module never imports the command-line front end
    src = str(Path(pikappa.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import sys\n"
              "from pikappa.repro import RECIPES\n"
              "RECIPES['table-etaR.csv']()\n"
              "assert 'pikappa.cli' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
