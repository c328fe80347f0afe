"""One workload run in a fresh single-threaded process.

    python perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --t-spawn T [--setup-only]

Started by run.py from the root of a checkout with PYTHONPATH=src and one
BLAS thread. Set-up (imports, config load, input generation) ends when the
first timed operation could start; its duration is measured from T, the
CLOCK_MONOTONIC reading the parent took just before starting this process.
The timed loop then runs whole passes over the workload's operations until
S seconds have passed, with the speed calibration of speed.py between
operations. With --trace 1 it alternates untraced and traced passes and
reports the per-layer metrics of the traced ones. Outputs are
checked after the loop, outside the timed region. The last line printed is
a JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import pikappa as pk
import pikappa.cli  # noqa: F401  (part of the program's import cost)

import speed
import tracer
import workloads

# The reference evaluator (and mpmath) is imported after the timed loop, so
# set-up time is the program's own.
reference = None


def load_reference():
    global reference
    import reference as ref
    reference = ref


HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
MC_Z_LIMIT = 5.0           # Monte Carlo mean vs value_function, in SEs
THRESHOLD_STEP = 1e-6      # eta step either side of a threshold


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Repro:
    """One operation is one pikappa.solve of a repro sweep point or one
    threshold_etas of a table row; one pass runs all of them once, in the
    seed's order."""

    def __init__(self, root: str, seed: int):
        self.solves, self.rows, order = workloads.repro_inputs(root, seed)
        n = len(self.solves)
        self.ops = []
        for i in order:
            if i < n:
                tag, doc = self.solves[i]
                self.ops.append(("solve", tag, doc, pk.parse_model_dict(doc)))
            else:
                tag, doc, _ = self.rows[i - n]
                self.ops.append(("thresholds", tag, doc,
                                 pk.parse_model_dict(doc)))
        # the latency metrics are those of one solve
        self.latency_ops = [i for i, op in enumerate(self.ops)
                            if op[0] == "solve"]

    def run_op(self, i: int, traced: bool):
        kind, _, _, inp = self.ops[i]
        if kind == "solve":
            rep = pk.solve(inp.model, inp.jumps, inp.friction, inp.utility)
            return (rep.policy.pi.tolist(), rep.policy.kappa, rep.case_label,
                    rep.xi_star, rep.objective.value,
                    rep.certificate.residual)
        return pk.threshold_etas(inp.model, inp.jumps, inp.friction.premium)

    def check(self, outputs) -> list[str]:
        """Case labels on every solve; the reference optimum check on every
        10th solve in recipe order plus the first solve of each label; the
        threshold properties on every row."""
        errors = []
        by_tag = {op[1]: (op, out) for op, out in zip(self.ops, outputs)}
        seen = set()
        for j, (tag, doc) in enumerate(self.solves):
            _, (pi, kappa, label, _, objective, _) = by_tag[tag]
            errors += reference.check_case_label(label, pi, kappa, tag)
            if j % 10 == 0 or label not in seen:
                seen.add(label)
                errors += reference.check_optimum(
                    reference.Reference(doc), pi, kappa, objective, tag)
        prev = None
        for tag, doc, R in self.rows:
            (_, _, _, inp), (eta_R, _) = by_tag[tag]
            if prev is not None and not eta_R > prev:
                errors.append(f"{tag}: eta_R={eta_R!r} does not rise as R "
                              f"falls (previous {prev!r})")
            prev = eta_R
            errors += threshold_crossing(inp, eta_R, "ii", "iii", tag)
        return errors


def threshold_crossing(inp, eta: float, below: str, above: str,
                       tag: str) -> list[str]:
    """The solve's case family (i, ii or iii) is `below` just under eta and
    `above` just over it."""
    errors = []
    for e, want in ((eta * (1 - THRESHOLD_STEP), below),
                    (eta * (1 + THRESHOLD_STEP), above)):
        rep = pk.solve(inp.model, inp.jumps, inp.friction, pk.Utility(e))
        if reference.case_family(rep.case_label) != want:
            errors.append(f"{tag}: solve at eta={e!r} is {rep.case_label}, "
                          f"expected family {want}")
    return errors


class Crosscheck:
    """One operation cross-checks one seeded random model: solve, the
    default grid oracle, Monte Carlo at 1e6 paths and a paired comparison
    against the policy perturbed by 10%. One pass is one round of models."""

    def __init__(self, root: str, seed: int):
        self.ops = [(tag, doc, mc_seed, pk.parse_model_dict(doc))
                    for tag, doc, mc_seed in workloads.crosscheck_inputs(seed)]
        self.latency_ops = range(len(self.ops))

    def run_op(self, i: int, traced: bool):
        _, _, mc_seed, inp = self.ops[i]
        args = (inp.model, inp.jumps, inp.friction, inp.utility)
        rep = pk.solve(*args)
        _, oracle_value, bound = pk.grid_maximize(*args)
        vf = pk.value_function(0.0, 1.0, 1.0, rep.objective, inp.model,
                               inp.jumps, inp.utility)
        cfg = pk.SimConfig(n_paths=workloads.MC_PATHS, seed=mc_seed)
        est = pk.simulate_terminal_utility(rep.policy, *args, cfg)
        k = rep.policy.kappa
        k = k + workloads.PERTURBATION if k < 0.5 else k - workloads.PERTURBATION
        perturbed = pk.Policy(pi=rep.policy.pi * (1 + workloads.PERTURBATION),
                              kappa=k)
        verdict = pk.compare_policies(rep.policy, perturbed, *args, cfg)
        return (rep.policy.pi.tolist(), rep.policy.kappa, rep.case_label,
                rep.objective.value, oracle_value, bound, vf, est.mean,
                est.std_error, verdict.verdict, verdict.diff_mean)

    def check(self, outputs) -> list[str]:
        errors = []
        for (tag, doc, _, _), out in zip(self.ops, outputs):
            pi, kappa, label, obj, oracle_value, bound, vf, mean, se, \
                verdict, _ = out
            ref = reference.Reference(doc)
            errors += reference.check_case_label(label, pi, kappa, tag)
            errors += reference.check_optimum(ref, pi, kappa, obj, tag)
            if obj < oracle_value - bound:
                errors.append(f"{tag}: solver {obj!r} below oracle "
                              f"{oracle_value!r} - bound {bound!r}")
            vf_ref = ref.value_function(ref.objective(pi, kappa))
            if abs(reference.mpmath.mpf(vf) - vf_ref) > \
                    reference.OBJECTIVE_RTOL * (1 + abs(vf_ref)):
                errors.append(f"{tag}: value_function {vf!r} vs reference "
                              f"{reference.mpmath.nstr(vf_ref, 17)}")
            # a riskless policy (pi = 0, kappa = 0) has se = 0 up to rounding
            if not abs(mean - vf) <= MC_Z_LIMIT * se + 1e-12 * (1 + abs(vf)):
                errors.append(f"{tag}: Monte Carlo mean {mean!r} +- {se!r} "
                              f"vs value_function {vf!r}")
            if verdict == "B-better":
                errors.append(f"{tag}: the perturbed policy won")
        return errors


# `python -m pikappa.cli`, which then reports the peak resident memory of
# its own address space. The rusage of a child also counts the pages of the
# parent it was forked from, so it cannot give a child's peak.
HWM_TAG = "perfbench-vmhwm-kb:"
CLI_BOOT = f"""import runpy, sys
try:
    runpy.run_module("pikappa.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        hwm = next(ln.split()[1] for ln in fh if ln.startswith("VmHWM"))
    print("{HWM_TAG}" + hwm, file=sys.stderr)
"""


class Cli:
    """One operation is one cold-start `python -m pikappa.cli solve ...
    --format json` in a subprocess; one pass is one round of invocations,
    run one after another."""

    def __init__(self, root: str, seed: int):
        self.root = root
        self.ops = workloads.cli_inputs(root, seed,
                                        os.path.join(OUT_DIR, "cli-inputs"))
        self.latency_ops = range(len(self.ops))
        self.span_dir = os.path.join(OUT_DIR, "cli-spans")
        self.span_files: list[str] = []
        self.peak_kb = 0

    def run_op(self, i: int, traced: bool):
        _, model_arg, extra, _, _ = self.ops[i]
        args = ["solve", "--model", model_arg, *extra, "--format", "json"]
        if traced:
            os.makedirs(self.span_dir, exist_ok=True)
            span_file = os.path.join(self.span_dir, f"{i}.json")
            self.span_files.append(span_file)
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), span_file,
                   *args]
        else:
            cmd = [sys.executable, "-c", CLI_BOOT, *args]
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True,
                              text=True, timeout=120)
        stderr = []
        for line in proc.stderr.splitlines(keepends=True):
            if line.startswith(HWM_TAG):
                self.peak_kb = max(self.peak_kb, int(line[len(HWM_TAG):]))
            else:
                stderr.append(line)
        return (proc.returncode, proc.stdout, "".join(stderr))

    def failed(self, i: int, out) -> bool:
        """Whether an invocation broke its contract (the three malformed
        model files do today)."""
        expect = self.ops[i][3]
        rc, _, stderr = out
        if expect == "input-error":
            return not (rc == 1 and any(line.startswith("input error:")
                                        for line in stderr.splitlines()))
        if expect == "no-traceback":
            return not (rc in (0, 1) and "Traceback" not in stderr)
        return rc != 0

    def check(self, outputs) -> list[str]:
        errors = []
        for i, ((tag, model_arg, _, expect, doc), out) in \
                enumerate(zip(self.ops, outputs)):
            rc, stdout, stderr = out
            if expect in ("input-error", "no-traceback"):
                continue            # counted in `failed`
            if rc != 0:
                errors.append(f"{tag}: exit {rc}: {stderr.strip()[-300:]}")
                continue
            res = json.loads(stdout)
            if expect == "thresholds":
                inp = pk.parse_model_dict(doc)
                if not res["eta_R"] < res["eta_r"]:
                    errors.append(f"{tag}: eta_R {res['eta_R']!r} >= "
                                  f"eta_r {res['eta_r']!r}")
                errors += threshold_crossing(inp, res["eta_R"], "ii", "iii", tag)
                errors += threshold_crossing(inp, res["eta_r"], "iii", "i", tag)
                continue
            errors += reference.check_case_label(res["case"], res["pi"],
                                                 res["kappa"], tag)
            errors += reference.check_optimum(reference.Reference(doc),
                                              res["pi"], res["kappa"],
                                              res["objective"], tag)
        return errors

    def comparable(self, out):
        # a traced child's traceback names the wrapper frames, so stderr
        # is left out of the bit-identity check
        return out[:2]

    def take_child_spans(self):
        """Merge the span files of the last traced pass, one op per child."""
        spans, counts, solve_times, missing = [], {}, [], []
        for op, path in enumerate(self.span_files):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            base = len(spans)
            for name, start, end, parent, _ in doc["spans"]:
                spans.append([name, start, end,
                              parent + base if parent >= 0 else -1, op])
            for k, v in doc["counts"].items():
                counts[k] = counts.get(k, 0) + v
            solve_times += [tuple(x) for x in doc["solve_times"]]
            missing += doc["unwrapped"]
            os.unlink(path)
        self.span_files = []
        return spans, counts, solve_times, missing


WORKLOADS = {"repro": Repro, "crosscheck": Crosscheck, "cli": Cli}


# ---------------------------------------------------------------------------
# Timed loop
# ---------------------------------------------------------------------------

class OpFailure(str):
    """The output of an operation that raised: the exception, as text."""

    def __repr__(self):
        return f"OpFailure({str.__repr__(self)})"


class Pass:
    """One pass: outputs, raw operation times and calibration samples."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.op_times: list[float] = []
        self.cals: list[float] = []
        self.outputs: list = []
        self.layer: dict | None = None

    @property
    def wall(self) -> float:
        return math.fsum(self.op_times)


def run_pass(wl, traced: bool, tr: tracer.Tracer | None) -> Pass:
    """Run every operation once, calibrating the machine's speed before the
    first and after every speed.CAL_EVERY_S of work."""
    p = Pass(traced)
    in_process = traced and not isinstance(wl, Cli)
    p.cals.append(speed.calibrate())
    t_cal = time.perf_counter()
    for i in range(len(wl.ops)):
        if in_process:
            tr.op = i
        t0 = time.perf_counter()
        try:
            out = wl.run_op(i, traced)
        except Exception as exc:    # the operation failed; the run goes on
            out = OpFailure(f"{type(exc).__name__}: {exc}")
        p.op_times.append(time.perf_counter() - t0)
        p.outputs.append(out)
        if time.perf_counter() - t_cal >= speed.CAL_EVERY_S:
            p.cals.append(speed.calibrate())
            t_cal = time.perf_counter()
    return p


TAIL_SHARE = 0.01
TAIL_MIN = 10


def end_to_end(wl, passes, scaled: bool = True) -> dict:
    """Median pass time; the median operation and the mean of the slowest
    1% of operations (never fewer than ten), pooled over every pass. Each
    pass's times are divided by its speed factor unless scaled is off."""
    def f(p):
        return speed.factor(p.cals) if scaled else 1.0
    ms = sorted(1e3 * p.op_times[i] / f(p)
                for p in passes for i in wl.latency_ops)
    tail = ms[-max(TAIL_MIN, round(TAIL_SHARE * len(ms))):]
    return {"pass_s": statistics.median(p.wall / f(p) for p in passes),
            "op_p50_ms": statistics.median(ms),
            "op_tail_ms": statistics.fmean(tail)}


def import_probes(n: int = 3) -> tuple[float, float]:
    """Median time of `import pikappa.cli` in a fresh process, and the
    median share of it spent in scipy modules, read from -X importtime."""
    code = ("import time; t = time.perf_counter(); import pikappa.cli; "
            "print(time.perf_counter() - t)")
    totals, scipy_s = [], []
    for _ in range(n):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=60)
        totals.append(float(out.stdout.strip().splitlines()[-1]))
        out = subprocess.run([sys.executable, "-X", "importtime", "-c",
                              "import pikappa.cli"], capture_output=True,
                             text=True, check=True, timeout=60)
        self_us = 0
        for line in out.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
            if m and (m.group(2) == "scipy" or m.group(2).startswith("scipy.")):
                self_us += int(m.group(1))
        scipy_s.append(self_us * 1e-6)
    return statistics.median(totals), statistics.median(scipy_s)


def oracle_peak_alloc_mb(wl) -> float:
    """Peak traced allocation of one grid_maximize per model dimension in
    the round, from tracemalloc (numpy reports its buffers to it)."""
    import tracemalloc
    if not isinstance(wl, Crosscheck):
        return 0.0
    peak = 0.0
    for d in sorted({inp.model.d for _, _, _, inp in wl.ops}):
        inp = next(op[3] for op in wl.ops if op[3].model.d == d)
        tracemalloc.start()
        pk.grid_maximize(inp.model, inp.jumps, inp.friction, inp.utility)
        peak = max(peak, tracemalloc.get_traced_memory()[1] / 2 ** 20)
        tracemalloc.stop()
    return peak


def environment() -> dict:
    import mpmath
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "blas": blas,
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                              "MKL_NUM_THREADS")}}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](os.getcwd(), args.seed)
    setup_s = monotonic() - args.t_spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tr = tracer.Tracer() if args.trace else None
    errors: list[str] = []
    passes: list[Pass] = []
    spans_out: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        passes.append(run_pass(wl, False, None))
        if tr is not None:
            if not isinstance(wl, Cli):
                tr.install()
                errors += [f"unwrapped layer function {n}"
                           for n in tr.unwrapped()]
            p = run_pass(wl, True, tr)
            if isinstance(wl, Cli):
                spans, counts, solve_times, missing = wl.take_child_spans()
                errors += [f"unwrapped layer function {n} in a CLI child"
                           for n in missing]
            else:
                tr.uninstall()
                spans, counts, solve_times = tr.take()
            p.layer = tracer.layer_metrics(spans, counts, solve_times)
            spans_out += tracer.spans_json(spans, len(passes))
            passes.append(p)
        if time.perf_counter() >= deadline:
            break

    compare = getattr(wl, "comparable", lambda out: out)
    first = [repr(compare(o)) for o in passes[0].outputs]
    for k, p in enumerate(passes[1:], start=1):
        diff = [wl.ops[i][1] for i, o in enumerate(p.outputs)
                if repr(compare(o)) != first[i]]
        if diff:
            kind = "traced" if p.traced else "untraced"
            errors.append(f"pass {k} ({kind}) output differs from pass 0 "
                          f"on {diff[:5]}")
    raised = [f"{wl.ops[i][1]}: raised {out}"
              for i, out in enumerate(passes[0].outputs)
              if isinstance(out, OpFailure)]
    errors += raised
    if not raised:
        load_reference()
        errors += wl.check(passes[0].outputs)
    broke_contract = getattr(wl, "failed", lambda i, out: False)
    failed = sum(isinstance(out, OpFailure) or broke_contract(i, out)
                 for p in passes for i, out in enumerate(p.outputs))
    attempted = sum(len(p.outputs) for p in passes)

    untraced = [p for p in passes if not p.traced]
    result = {"correct": not errors, "attempted": attempted,
              "failed": failed, "setup_s": setup_s, "errors": errors[:50],
              "passes": len(passes), "env": environment()}
    if tr is None:
        peak_kb = wl.peak_kb if isinstance(wl, Cli) \
            else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end(wl, untraced)
        metrics["peak_rss_mb"] = peak_kb / 1024
        result["speed_factor"] = speed.factor(
            [c for p in untraced for c in p.cals])
        result["raw_metrics"] = end_to_end(wl, untraced, scaled=False)
    else:
        traced = [p for p in passes if p.traced]
        metrics = {k: statistics.median(p.layer[k] for p in traced)
                   for k in traced[0].layer}
        metrics["oracle.grid_maximize.peak_alloc_mb"] = oracle_peak_alloc_mb(wl)
        metrics["cli.import_s"], metrics["cli.import_scipy_s"] = import_probes()
        t_off = statistics.median(p.wall / speed.factor(p.cals) for p in untraced)
        t_on = statistics.median(p.wall / speed.factor(p.cals) for p in traced)
        result["tracing_overhead"] = t_on / t_off - 1.0
        os.makedirs(OUT_DIR, exist_ok=True)
        span_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(span_path, "w", encoding="utf-8") as fh:
            for s in spans_out:
                fh.write(json.dumps(s) + "\n")
        result["span_file"] = os.path.relpath(span_path)
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
