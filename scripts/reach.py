"""Check that every function in src/ is entered by some command.

The script runs, in one process under sys.settrace, every command of the
console script on tiny configs: table1, scenario1, scenario2 and fig3 on
each model variant, a two-worker table1, a scenario2 on a transactions
file, train, evaluate and forecast, and table1 on demand moments that
drive each branch of the Gamma CDF. It lists each function defined in
src/ that none of them entered, and exits non-zero if one is not on
ALLOWED, if a name on ALLOWED is entered or gone, or if benchmarks/run.py
does not use it. For information only, it also prints, per entered
function, the first line of each statement no command ran whose enclosing
block ran; most are input checks.

    python scripts/reach.py
"""

import ast
import contextlib
import inspect
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from coldstart_dynaq import cli  # noqa: E402

# Functions only tests and the benchmark call. They wait to move to
# tests/helpers.py until benchmarks/run.py's TRACED list stops wrapping
# them; total_planning_steps stays while the benchmark's record check
# calls it. A name run.py does not use has no place here.
ALLOWED = {
    "env.py": {"step"},
    "envmodel.py": {
        "recover_demand", "demand_to_next_state", "estimate_cost", "simulate", "sample_visited",
    },
    "bench.py": {"total_planning_steps"},
}
RUN_PY = ROOT / "benchmarks" / "run.py"

TINY = {
    "repetitions": 1, "train_episodes": 1, "horizon": 5, "test_days": 5,
    "test_repetitions": 2, "source_days": 30, "forecaster_epochs": 1, "warm_epochs": 1,
    "offline_horizon": 10,
}
# moments whose Gamma shape and edges reach the branches the defaults do not:
# shape 50 puts the edges 4.5 and 5.5 in Temme's expansion, and shape 0.8
# puts the edge 0.5 at x = 1.056, in the series for the upper function near 0
MOMENTS = ({"mu": 5.0, "sigma2": 0.5}, {"mu": 0.38, "sigma2": 0.18})


def functions(path: Path) -> dict:
    """Each function defined in path, by (first line, name), to its code object."""
    found = {}
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                todo.append(const)
                # a class body runs at import; a lambda or comprehension is part of a function
                if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                    found[const.co_firstlineno, const.co_name] = const
    return found


def unrun(body: list, code_lines: set, ran: set) -> list:
    """The first lines of the statements in body that did not run, and of
    those in the blocks of each that did. A statement ran if a line of it
    did; one with no instruction, such as a docstring, is passed over."""
    out = []
    for stmt in body:
        span = set(range(stmt.lineno, stmt.end_lineno + 1))
        if not span & code_lines:
            continue
        if not span & ran:
            out.append(stmt.lineno)
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # a nested function is a function of its own
        blocks = [
            value for _, value in ast.iter_fields(stmt)
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt)
        ]
        # an except clause or a match case holds a block of its own
        clauses = (*getattr(stmt, "handlers", ()), *getattr(stmt, "cases", ()))
        blocks += [clause.body for clause in clauses]
        for block in blocks:
            out += unrun(block, code_lines, ran)
    return out


def unrun_statements(path: Path, found: dict, entered: set, ran: set) -> dict:
    """Each function of path that a command entered, by qualified name, to the
    first lines of its statements that no command ran (see unrun)."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
        code = found.get((first, node.name))
        if code is None or (str(path), first, node.name) not in entered:
            continue
        lines = unrun(node.body, {line for *_, line in code.co_lines()}, ran)
        if lines:
            out[code.co_qualname] = sorted(lines)
    return out


def benchmark_names(path: Path) -> set:
    """The (module, function) pairs of run.py's TRACED tuple, and ("bench", name)
    for each bench.<name> or <...>.bench.<name> it reads. The file is parsed,
    not imported: importing it sets the BLAS thread variables."""
    tree = ast.parse(path.read_text())
    names = {
        ("bench", node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (isinstance(node.value, ast.Name) and node.value.id == "bench"
             or isinstance(node.value, ast.Attribute) and node.value.attr == "bench")
    }
    for node in tree.body:
        if [getattr(t, "id", None) for t in getattr(node, "targets", ())] == ["TRACED"]:
            names.update(ast.literal_eval(node.value))
    return names


def run_commands(tmp: Path) -> None:
    def config(name, **fields):
        path = tmp / f"{name}.json"
        path.write_text(json.dumps({**TINY, **fields}))
        return str(path)

    tiny = config("tiny")
    runs = [
        [command, "--config", tiny, "--model", variant, "--out", str(tmp / command)]
        for command in ("table1", "scenario1", "scenario2", "fig3")
        for variant in ("tabular", "det-net", "mc-dropout")
    ]
    runs += [
        ["table1", "--config", config("two", repetitions=2), "--workers", "2"],
        ["train", "--config", tiny, "--out", str(tmp / "train"), "--transfer", "on"],
        ["evaluate", "--config", tiny, "--qtable", str(tmp / "train" / "qtable.json")],
        ["forecast", "--config", tiny, "--out", str(tmp / "forecast")],
        ["scenario2", "--config", config(
            "data", dataset_path=str(tmp / "forecast" / "offline_demand.csv"),
            product_name="forecasted")],
    ]
    runs += [["table1", "--config", config(f"moments{i}", **m)] for i, m in enumerate(MOMENTS)]
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"error: coldstart-dynaq {' '.join(argv)} exited {code}")


def main() -> int:
    package = SRC / "coldstart_dynaq"
    entered, ran = set(), set()

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(str(package)):
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))
            return on_line

    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(tracer)
        try:
            run_commands(Path(tmp))
        finally:
            sys.settrace(None)
    used = benchmark_names(RUN_PY)
    bad = [
        f"{file}: {name} is allowed but {RUN_PY.name} does not use it; take it off ALLOWED"
        for file, names in sorted(ALLOWED.items()) for name in sorted(names)
        if (file.removesuffix(".py"), name) not in used
    ]
    for path in sorted(package.glob("*.py")):
        allowed = ALLOWED.get(path.name, set())
        found = functions(path)
        missed = {
            code.co_qualname for (line, name), code in found.items()
            if (str(path), line, name) not in entered
        }
        for qualname in sorted(missed - allowed):
            bad.append(f"{path.name}: {qualname} is entered by no command")
        for qualname in sorted(allowed - missed):
            state = "entered" if qualname in {c.co_qualname for c in found.values()} else "gone"
            bad.append(f"{path.name}: {qualname} is allowed but {state}; take it off ALLOWED")
        if missed & allowed:
            print(f"{path.name}: allowed unreached: {', '.join(sorted(missed & allowed))}")
        ran_here = {line for file, line in ran if file == str(path)}
        for qualname, lines in unrun_statements(path, found, entered, ran_here).items():
            listed = ", ".join(map(str, lines))
            print(f"{path.name}: {qualname}: statements no command ran: {listed}")
    for line in bad:
        print(f"error: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
