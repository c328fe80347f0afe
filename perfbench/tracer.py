"""Spans at the public functions of each pikappa layer, recorded from
outside the package.

install() replaces every public function of the layer modules, wherever a
pikappa module holds it (including names other modules imported directly,
such as solvers.bisect or oracle.utility_jump_curve), with a wrapper that
records a span: name, start, end, parent span and operation id. Spans stay
in memory until the run ends. uninstall() puts the originals back.

Run as a script, it is the bootstrap of a traced CLI child:

    python perfbench/tracer.py SPAN_FILE solve --model a1 --format json

runs pikappa.cli.main with the wrappers installed and writes the spans to
SPAN_FILE as JSON.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

LAYERS = ("jumps", "rootfind", "solvers", "hamiltonian", "models", "oracle",
          "simulate")

# Functions whose calls and self time are per-layer metrics (BENCHMARK.json).
TIMED_FUNCTIONS = (
    "jumps.psi", "jumps.psi_dkappa", "jumps.utility_jump_term",
    "jumps.utility_jump_curve", "rootfind.bisect", "rootfind.expand_bracket",
    "solvers.solve", "solvers.threshold_etas", "hamiltonian.eval_objective",
    "hamiltonian.certify", "models.validate_model", "oracle.grid_maximize",
    "simulate.simulate_terminal_utility", "simulate.compare_policies",
)
SOLVE_FAMILIES = ("i", "ii", "iii", "corner", "smoothg", "pp")

_FAMILY = {"i": "i", "ii": "ii", "iii": "iii", "iv": "corner", "v": "corner",
           "vi": "corner", "vii": "corner"}


def solve_family(label: str) -> str:
    """Group of a case label for solvers.solve_p50_ms: i, ii, iii, corner
    (iv to vii), smoothg or pp."""
    if label.startswith("SmoothG"):
        return "smoothg"
    if label.startswith("PortfolioPremium"):
        return "pp"
    return _FAMILY[label.rsplit("-", 1)[-1]]


def grid_cells(d: int, grid) -> int:
    """Objective evaluations of one grid_maximize call, computed from the
    GridSpec: a coarse round and `rounds` refined ones over (d + 1) axes,
    each axis capped at cap_3d points when d >= 2."""
    coarse, fine = grid.resolution, grid.refine_resolution
    if d >= 2:
        coarse, fine = min(coarse, grid.cap_3d), min(fine, grid.cap_3d)
    return coarse ** (d + 1) + grid.rounds * fine ** (d + 1)


class Tracer:
    """In-memory span recorder and the wrappers that feed it."""

    def __init__(self):
        self.spans: list = []          # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.op = 0
        self.counts: dict[str, float] = {}
        self.solve_times: list[tuple[str, float]] = []
        self._originals: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name: str, fn):
        if name == "rootfind.bisect":
            return self._wrap_bisect(name, fn)
        before = {"oracle.grid_maximize": self._count_cells,
                  "simulate.simulate_terminal_utility": self._count_paths,
                  "simulate.compare_policies": self._count_paths}.get(name)
        sig = inspect.signature(fn) if before else None
        after = self._time_solve if name == "solvers.solve" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(sig.bind(*args, **kwargs).arguments)
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if after is not None:
                after(result, idx)
            return result
        return traced

    def _wrap_bisect(self, name, fn):
        """Counts evaluations of the function passed in, and iterations
        from the returned RootResult."""
        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            def counted(x):
                self._count("rootfind.bisect.fevals")
                return f(x)
            idx = self._enter(name)
            try:
                res = fn(counted, *args, **kwargs)
            finally:
                self._exit(idx)
            self._count("rootfind.bisect.iterations", res.iterations)
            return res
        return traced

    def _count_cells(self, arguments) -> None:
        from pikappa.oracle import GridSpec
        grid = arguments.get("grid") or GridSpec()
        self._count("oracle.grid_cells", grid_cells(arguments["model"].d, grid))

    def _count_paths(self, arguments) -> None:
        self._count("simulate.paths", arguments["config"].n_paths)

    def _time_solve(self, rep, idx: int) -> None:
        _, start, end, _, _ = self.spans[idx]
        self.solve_times.append((solve_family(rep.case_label), end - start))

    def _wrap_memo(self, method):
        """JumpFunctionals._cached: a call is a miss when it runs fn."""
        @functools.wraps(method)
        def traced(memo, tag, fn, kappa, eta):
            self._count("jumps.memo.calls")

            def miss(*args):
                self._count("jumps.memo.misses")
                return fn(*args)
            return method(memo, tag, miss, kappa, eta)
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layer modules in every pikappa
        module namespace that holds it."""
        import pikappa
        import pikappa.cli  # noqa: F401  (its imported names get wrapped too)
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"pikappa.{layer}")
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    self._originals[id(val)] = val
                    wrappers[id(val)] = self._wrap(f"{layer}.{attr}", val)
        for mod in pikappa_modules():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and val is self._originals[id(val)]:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
        memo_cls = pikappa.jumps.JumpFunctionals
        self._restore.append((memo_cls, "_cached", memo_cls._cached))
        memo_cls._cached = self._wrap_memo(memo_cls._cached)

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    def unwrapped(self) -> list[str]:
        """Names in any pikappa module that still hold an original layer
        function; empty when the installation is complete."""
        return [f"{mod.__name__}.{attr}" for mod in pikappa_modules()
                for attr, val in vars(mod).items()
                if self._originals.get(id(val)) is val]

    # -- metrics -----------------------------------------------------------

    def take(self):
        """Spans, counters and solve times recorded since the last take."""
        out = (self.spans, self.counts, self.solve_times)
        self.spans, self.counts, self.solve_times = [], {}, []
        return out


def pikappa_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pikappa"
                                  or name.startswith("pikappa."))]


def self_times(spans) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, total time, self time), where a span's self
    time is its duration minus the durations of its child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        acc = out.setdefault(name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += end - start
        acc[2] += end - start - child[i]
    return {k: tuple(v) for k, v in out.items()}


def layer_metrics(spans, counts, solve_times) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    st = self_times(spans)
    m: dict[str, float] = {}
    for fn in TIMED_FUNCTIONS:
        calls, _, self_s = st.get(fn, (0, 0.0, 0.0))
        m[f"{fn}.calls"] = calls
        m[f"{fn}.self_s"] = self_s
    memo_calls = counts.get("jumps.memo.calls", 0)
    m["jumps.memo_hit_ratio"] = \
        1.0 - counts.get("jumps.memo.misses", 0) / memo_calls if memo_calls else 0.0
    m["rootfind.bisect.fevals"] = counts.get("rootfind.bisect.fevals", 0)
    m["rootfind.bisect.iterations"] = counts.get("rootfind.bisect.iterations", 0)
    for fam in SOLVE_FAMILIES:
        times = [t for f, t in solve_times if f == fam]
        m[f"solvers.solve_p50_ms.{fam}"] = \
            1e3 * statistics.median(times) if times else 0.0
    m["oracle.grid_cells"] = counts.get("oracle.grid_cells", 0)
    grid_total = st.get("oracle.grid_maximize", (0, 0.0, 0.0))[1]
    m["oracle.cells_per_s"] = m["oracle.grid_cells"] / grid_total \
        if grid_total else 0.0
    sim_total = sum(st.get(f, (0, 0.0, 0.0))[1]
                    for f in ("simulate.simulate_terminal_utility",
                              "simulate.compare_policies"))
    m["simulate.paths_per_s"] = counts.get("simulate.paths", 0) / sim_total \
        if sim_total else 0.0
    return m


def spans_json(spans, pass_index: int) -> list[dict]:
    return [{"name": n, "start": s, "end": e, "parent": p, "op": op,
             "pass": pass_index} for n, s, e, p, op in spans]


def _child_main(argv: list[str]) -> int:
    span_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import pikappa.cli
    missing = tracer.unwrapped()
    try:
        return pikappa.cli.main(cli_args)
    finally:
        spans, counts, solve_times = tracer.take()
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": counts,
                       "solve_times": solve_times, "unwrapped": missing}, fh)


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
