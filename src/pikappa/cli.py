"""Command-line front end.

Commands: solve, sweep, simulate, verify, mutual-fund, oracle. The commands
do not catch: main() alone maps what they raise to an exit code and one
stderr line,

    exit 1  "input error: <msg>"
            OSError, ValueError, ModelValidationError
    exit 2  "certification failed: <msg>"
            NoSolution
    exit 2  "<command> failed: <Type>: <msg>"
            any other PikappaError

and exits 0 otherwise. verify and mutual-fund print their checks (or write
them to --out), then raise CrossCheckFailed when one fails. A usage error
exits 1 with argparse's message. A stdout closed by its reader (as by
`| head -1`) exits 1 with nothing on stderr. Output files are written
atomically (temp file + rename) with a JSON run manifest alongside; outputs
are a pure function of (input file, flags, seed). They do not depend on the
core count: Monte Carlo draws its blocks on every usable core, each block
from its own substream of the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

import numpy as np

from . import __version__, oracle, simulate, solvers
from .errors import (CrossCheckFailed, ModelValidationError, NoSolution,
                     PikappaError)
from .hamiltonian import eval_objective, value_function
from .models import (DifferentialRates, Policy, Utility, load_model_file,
                     require_valid, resolve_model_path)
from .svgplot import line_chart

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
MUTUAL_FUND_TOL = 1e-5
# override flags: each sets the parsed model through oracle._apply_param,
# as a sweep of the same --param does
OVERRIDES = ("eta", "rho", "r", "R", "q", "lambda", "b", "mu")


def _load_inputs(args) -> tuple:
    """(model, jumps, friction, utility) of --model with its overrides."""
    inputs = load_model_file(resolve_model_path(args.model))
    parts = (inputs.model, inputs.jumps, inputs.friction, inputs.utility)
    for name in OVERRIDES:
        v = getattr(args, name, None)
        if v is not None:
            parts = oracle._apply_param(name, v, *parts)
    return parts


def _file_sha256(path: str) -> str:
    import hashlib                 # only --out manifests hash files
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _atomic_write(path: str, text: str) -> None:
    import tempfile                # only --out writes files
    if os.path.isdir(path):        # else os.replace names the temp file
        raise IsADirectoryError(f"{path!r} is a directory")
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(args, outputs: list[str], t0: float) -> None:
    if not outputs:
        return
    manifest = {
        "command": " ".join(args.argv),
        "input_sha256": _file_sha256(resolve_model_path(args.model)),
        "tool_version": __version__,
        "seed": getattr(args, "seed", None),
        "wall_time_s": round(time.time() - t0, 3),
        "outputs": [os.path.basename(p) for p in outputs],
    }
    _atomic_write(outputs[0] + ".manifest.json",
                  json.dumps(manifest, indent=2) + "\n")


def _report_lines(rep: solvers.SolveReport) -> list[str]:
    lines = []
    for i, p in enumerate(rep.policy.pi):
        lines.append(f"pi_{i + 1} = {p:.10g}")
    lines.append(f"pi_sum = {rep.policy.pi_sum:.10g}")
    lines.append(f"kappa = {rep.policy.kappa:.10g}")
    lines.append(f"case = {rep.case_label}")
    xs = "" if rep.xi_star is None else f"{rep.xi_star:.10g}"
    lines.append(f"xi_star = {xs}")
    lines.append(f"objective = {rep.objective.value:.10g}")
    lines.append(f"cert_residual = {rep.certificate.residual:.6g}")
    return lines


def _report_json(rep: solvers.SolveReport) -> dict:
    return {
        "pi": [float(p) for p in rep.policy.pi],
        "pi_sum": rep.policy.pi_sum,
        "kappa": rep.policy.kappa,
        "case": rep.case_label,
        "xi_star": rep.xi_star,
        "objective": rep.objective.value,
        "cert_residual": rep.certificate.residual,
        "cert_in_domain": rep.certificate.in_domain,
    }


def _emit(args, text: str, t0: float) -> None:
    out = getattr(args, "out", None)
    if out:
        _atomic_write(out, text if text.endswith("\n") else text + "\n")
        _write_manifest(args, [out], t0)
    else:
        print(text)


def cmd_solve(args) -> None:
    t0 = time.time()
    inputs = _load_inputs(args)
    if args.thresholds:
        model, jumps, friction, _ = inputs
        prem = getattr(friction, "premium", None)
        eta_R, eta_r = solvers.threshold_etas(model, jumps, prem)
        if args.format == "json":
            _emit(args, json.dumps({"eta_R": eta_R, "eta_r": eta_r}), t0)
        else:
            _emit(args, f"eta_R = {eta_R:.8f}\neta_r = {eta_r:.8f}", t0)
        return
    rep = solvers.solve(*inputs)
    if args.format == "json":
        _emit(args, json.dumps(_report_json(rep), indent=2), t0)
    else:
        _emit(args, "\n".join(_report_lines(rep)), t0)


def cmd_sweep(args) -> None:
    t0 = time.time()
    inputs = _load_inputs(args)
    flag = {"mu1": "mu"}.get(args.param, args.param)   # both set mu[0]
    if getattr(args, flag, None) is not None:
        raise ValueError(f"--{flag} does not apply to a sweep of "
                         f"{args.param}: the sweep sets that field")
    if args.steps < 1:
        raise ValueError("--steps must be a positive interval count")
    d = inputs[0].d
    header = oracle.sweep_header(d)
    numeric = [c for c in header[1:] if c != "case_label"]
    ycols = [c.strip() for c in args.y.split(",") if c.strip()]
    if args.plot and (not ycols or not set(ycols) <= set(numeric)):
        raise ValueError(f"--y {args.y!r}: the plot columns are the CSV's "
                         f"numeric columns, {', '.join(numeric)}")
    with np.errstate(invalid="ignore"):     # an infinite end: sweep refuses
        grid = np.linspace(args.frm, args.to, args.steps + 1)
    points = oracle.sweep(args.param, grid, *inputs)
    out = args.out or "sweep.csv"
    _atomic_write(out, oracle.sweep_csv(points, d))
    outputs = [out]
    n_err = sum(1 for p in points if p.error)
    if n_err:
        print(f"{n_err}/{len(points)} points failed; see case_label "
              f"column", file=sys.stderr)
    if args.plot:
        rows = [oracle.sweep_row(p, d) for p in points]
        series = {c: [row[header.index(c)] for row in rows] for c in ycols}
        svg = line_chart([p.param_value for p in points], series,
                         x_label=args.param)
        _atomic_write(args.plot, svg)
        outputs.append(args.plot)
    _write_manifest(args, outputs, t0)


def _mc_vs_closed_form(policy: Policy, objective, inputs: tuple,
                       config: simulate.SimConfig, dump_csv=None):
    """Monte Carlo estimate, closed form and z: 0 where they agree to 1e-12
    relative, as at a riskless policy, else infinite at SE = 0."""
    model, jumps, _, utility = inputs
    closed = value_function(0.0, config.x0, config.horizon, objective, model,
                            jumps, utility)
    est = simulate.simulate_terminal_utility(policy, *inputs, config,
                                             dump_csv=dump_csv)
    diff = est.mean - closed
    if abs(diff) <= 1e-12 * max(abs(closed), abs(est.mean)):
        return est, closed, 0.0
    if est.std_error > 0.0:
        return est, closed, diff / est.std_error
    return est, closed, float(np.copysign(np.inf, diff))


def _pi_entry(position: int, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"--pi entry {position} is not a number: "
                         f"{text!r}") from None


def cmd_simulate(args) -> None:
    t0 = time.time()
    inputs = _load_inputs(args)
    cfg = simulate.SimConfig(horizon=args.horizon, x0=args.x0,
                             n_paths=args.paths, seed=args.seed,
                             antithetic=args.antithetic)
    if args.pi is not None:
        # the one path that never solves, so it validates here
        require_valid(*inputs)
        pi = np.array([_pi_entry(i, v)
                       for i, v in enumerate(args.pi.split(","), 1)])
        d = inputs[0].d
        if len(pi) != d:
            raise ValueError(f"--pi gives {len(pi)} weights; the model has "
                             f"d = {d}")
        policy = Policy(pi=pi, kappa=args.kappa if args.kappa is not None else 0.0)
        label = "user-supplied policy"
        obj = eval_objective(policy, *inputs)
    elif args.kappa is not None:
        raise ValueError("--kappa needs --pi: it sets the retention of a "
                         "user-supplied policy")
    else:
        rep = solvers.solve(*inputs)
        policy, label, obj = rep.policy, rep.case_label, rep.objective
    est, closed, z = _mc_vs_closed_form(policy, obj, inputs, cfg, args.dump)
    lines = [f"policy = {label}",
             f"pi = {', '.join(f'{p:.8g}' for p in policy.pi)}",
             f"kappa = {policy.kappa:.8g}",
             f"mc_mean = {est.mean:.10g}",
             f"mc_se = {est.std_error:.4g}",
             f"closed_form = {closed:.10g}",
             f"z = {z:#.4g}",
             f"floor_fraction = {est.floor_fraction:.3g}"]
    _emit(args, "\n".join(lines), t0)


def cmd_verify(args) -> None:
    t0 = time.time()
    inputs = _load_inputs(args)
    cfg = simulate.SimConfig(n_paths=args.mc_paths, seed=args.seed)
    rep = solvers.solve(*inputs)
    checks: list[tuple[str, str, str]] = [
        ("validation", "pass", ""),
        ("certificate", "pass", f"residual={rep.certificate.residual:.3e}")]

    _, val, bound = oracle.grid_maximize(*inputs)
    gap = val - rep.objective.value
    ok = gap <= bound + 1e-12
    checks.append(("oracle-gap", "pass" if ok else "fail",
                   f"gap={gap:.3e} bound={bound:.3e}"))

    est, closed, z = _mc_vs_closed_form(rep.policy, rep.objective, inputs, cfg)
    if est.std_error > 0.01 * abs(closed):
        checks.append(("mc-vs-closed-form", "inconclusive",
                       f"SE={est.std_error:.3g} too wide at "
                       f"{args.mc_paths} paths"))
    else:
        checks.append(("mc-vs-closed-form", "pass" if abs(z) <= 3.0 else "fail",
                       f"z={z:.2f}"))

    _emit(args, "\n".join(f"[{status}] {name} {detail}".rstrip()
                           for name, status, detail in checks), t0)
    failed = [name for name, status, _ in checks if status == "fail"]
    if failed:
        raise CrossCheckFailed(", ".join(failed))


def cmd_mutual_fund(args) -> None:
    t0 = time.time()
    if args.eta is not None:
        raise ValueError("--eta does not apply to mutual-fund: its risk "
                         "aversions are --eta1, --eta2 and --eta-bar")
    model, jumps, friction, _ = _load_inputs(args)
    prem = getattr(friction, "premium", None)
    res = solvers.mutual_fund_combine(model, jumps, prem, args.eta1,
                                      args.eta2, args.eta_bar)
    direct = solvers.solve(model, jumps, DifferentialRates(prem),
                           Utility(args.eta_bar))
    disc = max(float(np.max(np.abs(res.policy.pi - direct.policy.pi))),
               abs(res.policy.kappa - direct.policy.kappa))
    lines = [f"delta = {res.delta:.10g}",
             f"combined_pi = {', '.join(f'{p:.10g}' for p in res.policy.pi)}",
             f"combined_kappa = {res.policy.kappa:.10g}",
             f"direct_pi = {', '.join(f'{p:.10g}' for p in direct.policy.pi)}",
             f"direct_kappa = {direct.policy.kappa:.10g}",
             f"cases = {res.endpoint_low.case_label}, "
             f"{direct.case_label}, {res.endpoint_high.case_label}",
             f"max_discrepancy = {disc:.6g}"]
    _emit(args, "\n".join(lines), t0)
    if disc > MUTUAL_FUND_TOL:
        raise CrossCheckFailed(f"max_discrepancy={disc:.6g} above "
                               f"{MUTUAL_FUND_TOL:g}")


def cmd_oracle(args) -> None:
    t0 = time.time()
    inputs = _load_inputs(args)
    rep = solvers.solve(*inputs)
    grid = oracle.GridSpec(resolution=args.resolution,
                           refine_resolution=args.refine_resolution,
                           rounds=args.rounds)
    pol, val, bound = oracle.grid_maximize(*inputs, grid)
    gap = val - rep.objective.value
    lines = [f"oracle_pi = {', '.join(f'{p:.8g}' for p in pol.pi)}",
             f"oracle_kappa = {pol.kappa:.8g}",
             f"oracle_value = {val:.10g}",
             f"resolution_bound = {bound:.4g}",
             f"solver_value = {rep.objective.value:.10g}",
             f"gap = {gap:.4g}",
             f"within_bound = {gap <= bound + 1e-12}"]
    _emit(args, "\n".join(lines), t0)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="model file or bundled "
                   "config name (a1, a2, b1, b2, c1, c2, table-etaR, "
                   "section5-example)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write output to this file")
    for name in OVERRIDES:
        p.add_argument("--" + name, type=float, default=None)


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: exit 1, where argparse exits 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # an argument that starts -<digit> or -.<digit> is a value, as no
        # flag does; argparse alone reads -0.5,0.3 and -1e-1 as flags
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="pikappa",
        description="Optimal risky allocation and background-risk retention "
                    "under nonlinear portfolio frictions")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one model and print the policy")
    _add_common(p)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--thresholds", action="store_true",
                   help="print the risk-aversion thresholds eta_R, eta_r")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("sweep", help="solve along a parameter grid, write CSV")
    _add_common(p)
    p.add_argument("--param", required=True)
    p.add_argument("--from", dest="frm", type=float, required=True)
    p.add_argument("--to", dest="to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True,
                   help="number of grid intervals")
    p.add_argument("--plot", default=None, help="also write an SVG line plot")
    p.add_argument("--y", default="pi_sum,kappa",
                   help="comma-separated plot columns")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo check of the policy")
    _add_common(p)
    p.add_argument("--paths", type=int, default=1_000_000)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--x0", type=float, default=1.0)
    p.add_argument("--antithetic", action="store_true")
    p.add_argument("--pi", default=None,
                   help="comma-separated weights; skip the solver")
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--dump", default=None,
                   help="write per-path debug CSV (path_id, N_T, G, V_T, "
                        "utility)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="certificate + oracle + MC cross-checks")
    _add_common(p)
    p.add_argument("--mc-paths", dest="mc_paths", type=int, default=1_000_000)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("mutual-fund", help="two-fund combination vs direct solve")
    _add_common(p)
    p.add_argument("--eta1", type=float, required=True)
    p.add_argument("--eta2", type=float, required=True)
    p.add_argument("--eta-bar", dest="eta_bar", type=float, required=True)
    p.set_defaults(fn=cmd_mutual_fund)

    p = sub.add_parser("oracle", help="grid maximization, exact on its grid")
    _add_common(p)
    p.add_argument("--resolution", type=int, default=401)
    p.add_argument("--refine-resolution", dest="refine_resolution", type=int,
                   default=2001)
    p.add_argument("--rounds", type=int, default=2)
    p.set_defaults(fn=cmd_oracle)
    return ap


def main(argv=None) -> int:
    """Run one command; the one place where an exception becomes an exit
    code and a single stderr line."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv              # the manifest's command
    try:
        args.fn(args)
        sys.stdout.flush()        # a closed stdout fails here, not at exit
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the flush
        # at interpreter shutdown does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    except (OSError, ValueError, ModelValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        # a path count too large for memory fails its first allocation
        paths = getattr(args, "paths", None) or getattr(args, "mc_paths", None)
        what = f"{paths} Monte Carlo paths" if paths else args.command
        detail = f": {exc}" if str(exc) else ""
        print(f"input error: not enough memory for {what}{detail}",
              file=sys.stderr)
        return EXIT_INPUT
    except NoSolution as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except PikappaError as exc:
        print(f"{args.command} failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
