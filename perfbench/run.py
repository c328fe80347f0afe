"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload repro|crosscheck|cli --seed N
        --seconds S --trace 0|1

Run from the root of a checkout. The program is the checked-out src/,
imported through PYTHONPATH (pikappa need not be installed). Every process
gets one BLAS/OpenMP thread and they run one at a time, so the load is one
thread on one core.

Set-up is measured SETUP_PROBES times in fresh processes that stop once the
inputs are made, and once more in the measuring process; setup_s is their
median. The measuring process (worker.py) then runs the workload for S
seconds with tracing off (--trace 0, end-to-end metrics) or alternating
untraced and traced passes (--trace 1, per-layer metrics). All times,
setup_s included, are scaled to reference speed by the measuring process's
speed calibration (speed.py).

The last line of standard output is the JSON result; the line before it
records the environment. The full result, with the environment, every
set-up sample, the check failures and the tracing overhead, is also written
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 8
TIME_LIMIT_S = 170          # for the whole run, set-up probes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, env, extra: list[str], deadline: float) -> dict:
    """Run worker.py to completion in its own process group, which is
    killed whole if it outlives the deadline (a perf_counter reading)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd + ["--t-spawn", repr(t_spawn)] + extra,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.perf_counter(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("worker ran past the time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def source_ids(root: str) -> dict:
    """The git SHA when the checkout is a git work tree (None otherwise),
    and a SHA-256 over the files under src/, which identifies the program
    either way."""
    sha = None
    if os.path.exists(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            sha = out.stdout.strip() if out.returncode == 0 else None
        except OSError:
            pass
    src = os.path.join(root, "src")
    paths = []
    for base, dirs, files in os.walk(src):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        paths += [os.path.join(base, name) for name in files]
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pikappa", "__init__.py")):
        print("run.py: no src/pikappa here; run from the root of a pikappa "
              "checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # the bytecode cache is part of the build, so no timed run pays for it
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    env = child_env(root)
    deadline = time.perf_counter() + TIME_LIMIT_S
    try:
        probes = [run_worker(args, env, ["--setup-only"], deadline)
                  for _ in range(SETUP_PROBES)]
        res = run_worker(args, env, [], deadline)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    setup = [p["setup_s"] for p in probes] + [res["setup_s"]]
    values = dict(res["metrics"], setup_s=statistics.median(setup)
                  / res.get("speed_factor", 1.0))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"run.py: the worker did not report {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    env_record = dict(res["env"], **source_ids(root), workload=args.workload,
                      seed=args.seed, seconds=args.seconds, trace=args.trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    record = dict(env=env_record, setup_samples_raw_s=setup, metrics=metrics,
                  **{k: res[k] for k in ("correct", "attempted", "failed",
                                         "passes", "errors")})
    for k in ("speed_factor", "raw_metrics", "tracing_overhead", "span_file"):
        if k in res:
            record[k] = res[k]
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    if "tracing_overhead" in res:
        print(f"tracing overhead: {100 * res['tracing_overhead']:.1f}% "
              f"(traced vs untraced pass, medians); spans in {res['span_file']}")
    print("env " + json.dumps(env_record))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
