"""Benchmark of the coldstart-dynaq experiment harness.

Runs one workload (a `table1` or `scenario2` replication driven through
`bench.run_table1` / `bench.run_scenario2` with workers=1) in a closed
loop: the next replication starts when the previous one has finished,
until --seconds have been measured. Every replication's
`*_records.jsonl` is checked; the last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

    python3 benchmarks/run.py --workload table1-tabular --seed 0 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 wraps the TRACED
functions of every module, runs traced and untraced replications in
turn, and reports per-function counts, self time and time per call.
See benchmarks/README.md for the workloads and metrics.
"""

import os

# One BLAS thread, fixed before numpy loads: the nets are tiny, so more
# threads add scheduling noise, not speed. The output records the count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from speed_probe import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "digests.json"
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str  # "table1" or "scenario2"
    spec: dict  # ExperimentSpec overrides; repetitions is always 1


WORKLOADS = {w.name: w for w in (
    # all three algorithms on the tabular model; env/envmodel/qcore bound
    Workload("table1-tabular", "table1", {"model_variant": "tabular", "train_episodes": 5}),
    # the same replication on the det-net model, shortened: nn reads and writes
    Workload("table1-det-net", "table1", {"model_variant": "det-net", "train_episodes": 2}),
    # cold-start transfer path: forecaster, warm start, MC-dropout planning
    Workload("scenario2-mc-dropout", "scenario2", {"model_variant": "mc-dropout"}),
)}

# (module, function) pairs wrapped in a traced run, on every name that
# refers to them inside the package (agents.step, envmodel.step, ...).
TRACED = (
    ("env", "step"),
    ("demand", "sample"),
    ("schedule", "stc_value"),
    ("schedule", "stc_steps"),
    ("qcore", "select_action"),
    ("qcore", "q_update"),
    ("qcore", "greedy_policy"),
    ("envmodel", "model_update"),
    ("envmodel", "recover_demand"),
    ("envmodel", "sample_visited"),
    ("envmodel", "simulate"),
    ("envmodel", "transition_pmf"),
    ("envmodel", "estimate_cost"),
    ("envmodel", "demand_to_next_state"),
    ("nn", "forward"),
    ("nn", "train_step"),
    ("nn", "mc_predict"),
    ("forecast", "train_forecaster"),
    ("forecast", "generate_offline"),
    ("forecast", "build_warm_start"),
    ("agents", "train"),
    ("agents", "evaluate"),
    ("bench", "fit_forecaster"),
    ("bench", "make_warm_start"),
    ("bench", "run_table1"),
    ("bench", "run_scenario2"),
)

SETUP_CODE = """\
from speed_probe import SpeedProbe
with SpeedProbe() as probe:
    start = probe.clock()
    from coldstart_dynaq import bench
    bench.ExperimentSpec().true_demand()
    elapsed = probe.clock() - start
print(elapsed, probe.scale())
"""


class Package:
    """The coldstart_dynaq modules, imported from this checkout's src/."""

    def __init__(self):
        if not (SRC / "coldstart_dynaq" / "__init__.py").is_file():
            raise FileNotFoundError(f"no coldstart_dynaq package under {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in ("env", "demand", "schedule", "qcore", "envmodel", "nn",
                     "forecast", "agents", "bench"):
            module = importlib.import_module(f"coldstart_dynaq.{name}")
            if SRC not in Path(module.__file__).resolve().parents:
                raise ImportError(f"{module.__name__} loaded from {module.__file__}, not {SRC}")
            setattr(self, name, module)

    def modules(self):
        return [m for n, m in sys.modules.items()
                if n == "coldstart_dynaq" or n.startswith("coldstart_dynaq.")]


def patch(pkg: Package, replacements: dict) -> list:
    """Point every package-level name bound to an original at its wrapper."""
    undo = []
    for module in pkg.modules():
        for attr, value in list(vars(module).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None and wrapper[0] is value:
                undo.append((module, attr, value))
                setattr(module, attr, wrapper[1])
    return undo


def restore(undo: list) -> None:
    for module, attr, value in reversed(undo):
        setattr(module, attr, value)


# ------------------------------------------------------------------ tracing


class _Node:
    """Spans aggregated per name-and-parent path: calls and total seconds."""

    __slots__ = ("calls", "total", "children")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.children = {}


class Tracer:
    """Wraps the TRACED functions; spans nest through a current-node pointer.

    Also watches envmodel arguments for the working-set ratios: which
    (state, action) pairs each model simulates between two of its updates.
    """

    def __init__(self, pkg: Package):
        self.pkg = pkg
        self.root = _Node()
        self.node = self.root
        self.simulated = {}  # id(model) -> pairs simulated since its last update
        self.repeats = 0
        hooks = {"envmodel.model_update": self._on_update, "envmodel.simulate": self._on_simulate}
        self.replacements = {}
        for module, fn_name in TRACED:
            fn = getattr(getattr(pkg, module), fn_name)
            name = f"{module}.{fn_name}"
            self.replacements[id(fn)] = (fn, self._wrap(name, fn, hooks.get(name)))

    def _wrap(self, name, fn, hook):
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            parent = self.node
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = _Node()
            if hook is not None:
                hook(*args)
            self.node = node
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                node.total += perf_counter() - start
                node.calls += 1
                self.node = parent

        return traced

    def _on_update(self, model, *_):
        self.simulated[id(model)] = set()

    def _on_simulate(self, model, s, a, *_):
        seen = self.simulated.setdefault(id(model), set())
        if (s, a) in seen:
            self.repeats += 1
        else:
            seen.add((s, a))

    def __enter__(self):
        self.undo = patch(self.pkg, self.replacements)
        return self

    def __exit__(self, *exc):
        restore(self.undo)
        self.simulated.clear()

    def totals(self) -> dict:
        """name -> [calls, total seconds, self seconds], summed over paths."""
        out = {}

        def walk(node):
            for name, child in node.children.items():
                row = out.setdefault(name, [0, 0.0, 0.0])
                row[0] += child.calls
                row[1] += child.total
                row[2] += child.total - sum(c.total for c in child.children.values())
                walk(child)

        walk(self.root)
        return out

    def calls_under(self, parent: str, name: str) -> int:
        """Calls of `name` made directly from a `parent` span."""
        total = 0

        def walk(node, node_name):
            nonlocal total
            for child_name, child in node.children.items():
                if child_name == name and node_name == parent:
                    total += child.calls
                walk(child, child_name)

        walk(self.root, None)
        return total


class TrainTimer:
    """Times the few top-level agents.train calls the harness makes.

    Installed on the name bench calls; looks agents.train up per call, so
    a traced run times the traced function.
    """

    def __init__(self, pkg: Package, probe: "SpeedProbe"):
        self.pkg = pkg
        self.probe = probe
        self.calls = []  # (seconds, real + planning steps, visited pairs)

    def __enter__(self):
        def timed(config, *args, **kwargs):
            start = self.probe.clock()
            agent = self.pkg.agents.train(config, *args, **kwargs)
            seconds = self.probe.clock() - start
            steps = config.episodes * config.horizon + agent.planning_steps
            self.calls.append((seconds, steps, len(agent.model.visited)))
            return agent

        self.undo = [(self.pkg.bench, "train", self.pkg.bench.train)]
        self.pkg.bench.train = timed
        return self

    def __exit__(self, *exc):
        restore(self.undo)

    def take(self) -> list:
        calls, self.calls = self.calls, []
        return calls


# ------------------------------------------------------------------ checks


class RecordCheck:
    """Checks each replication's records file and counts failed records.

    A replication's records all fail when its sha256 differs from the
    pinned digest for this workload and seed (or, with no pin, from the
    first replication's). Each record must also carry the analytic
    planning-step count, finite non-negative costs and shortage
    fractions in [0, 1], whatever code path produced it.
    """

    def __init__(self, pkg: Package, workload: Workload, spec, pinned: str | None):
        bench = pkg.bench
        if workload.experiment == "table1":
            params, steps = bench.TABLE1_PARAMS, spec.train_episodes * spec.horizon
            self.count = len(spec.algorithms)
        else:
            # run_scenario2 trains each configuration for one 30-day month
            params, steps = bench.SCENARIO2_PARAMS, 30
            self.count = len(bench.SCENARIO_CONFIGS)
        plan = pkg.schedule.StcSchedule(params.n0, params.n_min, params.n_smoothing)
        self.planning = {
            "adjusted-dyna-q": bench.total_planning_steps(plan, steps),
            "dyna-q": round(params.n0) * steps,
            "q-learning": 0,
        }
        self.pinned = pinned is not None
        self.digest = pinned
        self.digests = []
        self.attempted = 0
        self.failed = 0

    def __call__(self, data: bytes) -> None:
        digest = hashlib.sha256(data).hexdigest()
        self.digests.append(digest)
        if self.digest is None:
            self.digest = digest
        lines = data.decode().splitlines()
        self.attempted += max(len(lines), self.count)
        if digest != self.digest or len(lines) != self.count:
            self.failed += max(len(lines), self.count)
            return
        self.failed += sum(not self._record_ok(line) for line in lines)

    def fail_all(self) -> None:
        self.attempted += self.count
        self.failed += self.count

    def _record_ok(self, line: str) -> bool:
        try:
            record = json.loads(line)
            return (record["train"]["planning_steps"] == self.planning[record["algorithm"]]
                    and _values_ok(record))
        except (ValueError, KeyError, TypeError):
            return False


def _values_ok(value, key: str = "") -> bool:
    if isinstance(value, dict):
        return all(_values_ok(v, k) for k, v in value.items())
    if isinstance(value, list):
        return all(_values_ok(v, key) for v in value)
    if "cost" in key:
        return math.isfinite(value) and value >= 0.0
    if "shortage" in key:
        return 0.0 <= value <= 1.0
    return True


# ------------------------------------------------------------------ runs


def measure_setup() -> list[tuple[float, float]]:
    """(seconds, speed scale) to import the package and build the spec and
    true-demand pmf, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, scale = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(seconds), float(scale)))
    return samples


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


class Runner:
    """One workload at one seed: replications, checks and timings."""

    def __init__(self, pkg: Package, workload: Workload, seed: int, out_dir: Path,
                 pinned: str | None):
        self.pkg = pkg
        self.workload = workload
        self.out_dir = out_dir
        self.spec = pkg.bench.ExperimentSpec(
            name=workload.name, out_dir=str(out_dir), master_seed=seed,
            workers=1, repetitions=1, **workload.spec,
        )
        self.check = RecordCheck(pkg, workload, self.spec, pinned)
        self.probe = SpeedProbe()
        self.timer = TrainTimer(pkg, self.probe)

    def replicate(self, tracer: Tracer | None = None) -> float | None:
        """One checked replication; its wall seconds, or None if it raised."""
        records = self.out_dir / f"{self.workload.experiment}_records.jsonl"
        records.unlink(missing_ok=True)
        start = self.probe.clock()
        try:
            with self.timer, tracer or contextlib.nullcontext():
                getattr(self.pkg.bench, f"run_{self.workload.experiment}")(self.spec)
        except Exception as exc:  # a failed replication is a failed check
            print(f"replication failed: {exc!r}", file=sys.stderr)
            self.check.fail_all()
            return None
        seconds = self.probe.clock() - start
        self.check(records.read_bytes())
        return seconds

    def untraced(self, seconds: float):
        """Samples and end-to-end metrics over the replications that fit
        in `seconds`; None if one raised."""
        self.replicate()  # warm-up: lazy set-up and caches; checked, not timed
        self.timer.take()
        walls, scales, scaled, rates = [], [], [], []
        started = time.perf_counter()
        while True:
            with self.probe:
                wall = self.replicate()
            if wall is None:
                return None
            scale = self.probe.scale()
            walls.append(wall)
            scales.append(scale)
            scaled.append(wall * scale)
            calls = self.timer.take()
            rates.append(sum(c[1] for c in calls) / (sum(c[0] for c in calls) * scale))
            if time.perf_counter() - started + statistics.median(walls) > seconds:
                break
        return {"measured wall s": walls, "speed scale": scales}, {
            "wall_s": (statistics.median(scaled), "s"),
            "q_updates_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def traced(self, seconds: float):
        """Samples and per-layer metrics, alternating untraced and traced
        replications; None if one raised."""
        self.replicate()  # warm-up, and the untraced digest to compare against
        tracer = Tracer(self.pkg)
        plain, traced, visited = [], [], []
        started = time.perf_counter()
        while True:
            wall = self.replicate()
            if wall is None:
                return None
            traced_wall = self.replicate(tracer)
            if traced_wall is None:
                return None
            plain.append(wall)
            traced.append(traced_wall)
            visited += [c[2] for c in self.timer.take()]
            pair = statistics.median(plain) + statistics.median(traced)
            if time.perf_counter() - started + pair > seconds:
                break
        samples = {"untraced wall s": plain, "traced wall s": traced}
        return samples, layer_metrics(tracer, len(traced), visited,
                             statistics.median(traced) / statistics.median(plain))


def layer_metrics(tracer: Tracer, reps: int, visited: list, overhead: float) -> dict:
    """Per-replication counts and times of every traced function, and ratios."""
    totals = tracer.totals()
    metrics = {}
    for module, fn_name in TRACED:
        name = f"{module}.{fn_name}"
        calls, total, self_s = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / reps, "count")
        metrics[f"{name}.self_s"] = (self_s / reps, "s")
        metrics[f"{name}.us_per_call"] = (total / calls * 1e6 if calls else 0.0, "us")

    def ratio(num, den):
        return num / den if den else 0.0

    calls = {name: row[0] for name, row in totals.items()}
    metrics["envmodel.recover_demand.steps_per_call"] = (ratio(
        tracer.calls_under("envmodel.recover_demand", "env.step"),
        calls.get("envmodel.recover_demand", 0)), "ratio")
    metrics["nn.mc_predict.passes_per_call"] = (ratio(
        tracer.calls_under("nn.mc_predict", "nn.forward"), calls.get("nn.mc_predict", 0)), "ratio")
    metrics["envmodel.reads_per_write"] = (ratio(
        calls.get("envmodel.simulate", 0), calls.get("envmodel.model_update", 0)), "ratio")
    metrics["envmodel.simulate.repeat_share"] = (ratio(
        tracer.repeats, calls.get("envmodel.simulate", 0)), "share")
    metrics["envmodel.visited_pairs"] = (statistics.mean(visited) if visited else 0.0, "count")
    metrics["trace_overhead"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    try:
        pkg = Package()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print("machine " + json.dumps(machine_facts(), sort_keys=True))

    metrics = {}
    if not args.trace:
        setup = measure_setup()
        metrics["setup_s"] = (statistics.median(t * scale for t, scale in setup), "s")
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=out_root))
    try:
        pinned = load_pins().get(workload.name, {}).get(str(args.seed))
        runner = Runner(pkg, workload, args.seed, out_dir, pinned)
        measured = (runner.traced if args.trace else runner.untraced)(args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if measured is None:
        print("error: a replication raised; no metrics", file=sys.stderr)
        return 1
    samples, measured_metrics = measured
    metrics.update(measured_metrics)

    check = runner.check
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for label, values in samples.items():
        print(f"{label}: n {len(values)} min {min(values):.4f} "
              f"median {statistics.median(values):.4f} max {max(values):.4f}")
    if not args.trace:
        print("setup_s samples (measured s x speed scale) "
              + " ".join(f"{t:.4f}x{scale:.3f}" for t, scale in setup))
    print(f"records digest {check.digests[0]} "
          f"({'pinned' if check.pinned else 'not pinned'}, "
          f"{len(set(check.digests))} distinct over {len(check.digests)} replications)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_share {check.failed / check.attempted:.6g} "
          f"({check.failed} of {check.attempted} records)")
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
