"""Every module-level function and class in `src/sttrack`, and every method
and property of its classes, has a caller in `src/sttrack`: code that only
tests call belongs in the tests. Statically, each name has a reference in
`src/`; transitively, every function runs when the commands run."""

import ast
import collections
import json
import sys
from pathlib import Path

import sttrack
from sttrack import cli

SRC = Path(sttrack.__file__).parent

# Names kept without a caller in `src/`, and why.
NO_SRC_CALLER = {
    # The project's named check of "same behaviour": tracks files of two
    # runs must have the same digest, header timestamp and version aside.
    # The tests call it.
    ("formats", "normalized_digest"),
    # The benchmark's tracer wraps it by name, so it stays until the
    # benchmark drops that wrap.
    ("kalman", "kf_association_cost"),
}

# Methods kept without a caller in `src/`, and why.
NO_SRC_METHOD_CALLER = {
    # argparse calls it on a bad command line.
    ("cli", "_Parser", "error"),
    # argparse's `parse_args` calls it, for the parser and each subparser.
    ("cli", "_Parser", "parse_known_args"),
}


def definitions_and_references() -> tuple[list[tuple[str, str]], set[tuple[str, str]]]:
    """The (module, name) of each module-level function and class, and of
    each name used: a bare name in its own module (outside that name's own
    definition), `module.name` or `alias.name` of a module imported with
    `from . import module [as alias]`, and `from .module import name`."""
    definitions, references = [], set()
    for path in sorted(SRC.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        references.add((node.module, alias.name))
        for statement in tree.body:
            own = getattr(statement, "name", None)
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((module, own))
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and node.id != own:
                    references.add((module, node.id))
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases
                ):
                    references.add((aliases[node.value.id], node.attr))
    return definitions, references


def test_every_src_function_and_class_has_a_src_caller():
    definitions, references = definitions_and_references()
    assert len(definitions) > 50  # the scan found the package
    uncalled = [f"{m}.{name}" for m, name in definitions if (m, name) not in references]
    assert sorted(uncalled) == sorted(f"{m}.{name}" for m, name in NO_SRC_CALLER)


def methods_without_references() -> list[tuple[str, str, str]]:
    """The (module, class, name) of each method and property, dunders aside,
    of a module-level class whose name no attribute access (`x.name`)
    outside its own definition uses. The scan does not know `x`'s type, so
    any attribute of that name counts."""
    parsed = [(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]

    def attributes(tree) -> collections.Counter:
        return collections.Counter(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))

    used = sum((attributes(tree) for _, tree in parsed), collections.Counter())
    unused = []
    for module, tree in parsed:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                name = getattr(node, "name", "")
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (name.startswith("__") and name.endswith("__"))
                    and used[name] == attributes(node)[name]
                ):
                    unused.append((module, cls.name, name))
    return unused


def test_every_src_method_and_property_has_a_src_caller():
    unused = methods_without_references()
    assert sorted(f"{m}.{c}.{name}" for m, c, name in unused) == sorted(
        f"{m}.{c}.{name}" for m, c, name in NO_SRC_METHOD_CALLER
    )


# Functions that the commands of `test_the_commands_run_every_src_function`
# never enter, and why; the test named with each reaches it.
NOT_RUN_BY_THE_COMMANDS = {
    # `benches/checks.py::metrics_oracle` iterates a ground-truth table into
    # per-frame rows and rebuilds their states
    # (test_bench_hooks.py::test_metrics_oracle_passes_on_a_simulated_scene).
    "core.StateVector.__post_init__",
    "core.StateVector.from_rows",
    "metrics.EvalTable.__getitem__",
    # The benchmark's tracer wraps it by name, and it is the per-pair
    # reference of `KalmanBackend.frame_costs` (test_kalman.py,
    # test_runtime.py).
    "kalman.kf_association_cost",
    # Gradient rules of ops the model calls, but not with a gradient through
    # that operand: the model's right `mul` operands are constants and
    # `sigmoid` runs under `no_grad` (test_autodiff.py's gradient checks).
    "autodiff._mul_grad_b",
    "autodiff._sigmoid_grad",
    # How a tensor shows in a debugger or a failed assertion
    # (test_autodiff.py::test_tensor_repr_names_its_shape_and_grad).
    "autodiff.Tensor.__repr__",
    # Error paths: a bad command line (test_cli.py::
    # test_bad_command_line_prints_the_json_error_line), a number past the
    # float range (test_formats.py, HUGE) and a non-finite value
    # (test_formats.py, test_cli.py).
    "cli._Parser.error",
    "formats._overflows",
    "formats._finite.first",
    # The project's named check of "same behaviour" between two runs
    # (test_formats.py::test_normalized_digest_ignores_timestamp).
    "formats.normalized_digest",
}


def src_functions() -> dict[tuple[str, int, str], str]:
    """Each function and method in `src/sttrack`, nested ones too, keyed as
    its code object is by (file, first line, name) and named with its
    enclosing classes and functions. A decorated function's code starts at
    its first decorator."""
    functions = {}

    def walk(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                functions[(file, line, child.name)] = f"{prefix}{child.name}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, file, f"{prefix}{child.name}.")
            else:
                walk(child, file, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), str(path.resolve()), f"{path.stem}.")
    return functions


def test_the_commands_run_every_src_function(tmp_path, capsys):
    """Every command, each backend and the `eval` options, on two 20-frame
    scenes of six vehicles and 5 training steps, under `sys.setprofile`:
    each `src/` function runs, but those of `NOT_RUN_BY_THE_COMMANDS`."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "sim": {"frames": 20, "population": {"static": 2, "slow": 2, "fast": 2}},
        "train": {"steps": 5},
    }))
    data, kf, stt = (str(tmp_path / name) for name in ("data", "kf", "stt"))
    checkpoint = str(tmp_path / "model" / "model.ckpt")
    config = ["--config", str(path)]
    commands = [
        ["simulate", *config, "--out", data, "--count", "2"],
        ["train", *config, "--data", data, "--out", str(tmp_path / "model")],
        ["track", *config, "--data", data, "--out", kf, "--backend", "kalman"],
        ["track", *config, "--data", data, "--out", stt, "--backend", "stt",
         "--checkpoint", checkpoint],
        ["eval", *config, "--gt", data, "--results", kf, "--out", f"{kf}.json", "--emit-csv"],
        ["eval", *config, "--gt", data, "--results", stt, "--out", f"{stt}.json",
         "--policy", "mota-only"],
        ["report", "--inputs", f"{kf}.json", f"{stt}.json"],
        *(
            ["ablate", *config, "--out", str(tmp_path / axis), "--axis", axis,
             "--train-scenarios", "1", "--eval-scenarios", "1"]
            for axis in ("joint-opt", "noise")
        ),
    ]
    # A cached function's code runs only on a miss: start from empty caches.
    for module in [m for name, m in sys.modules.items() if name.startswith("sttrack.")]:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        sys.setprofile(previous)
    assert codes == [cli.EXIT_OK] * len(commands), capsys.readouterr().err
    files = {name: str(Path(name).resolve()) for name in {c.co_filename for c in entered}}
    run = {(files[c.co_filename], c.co_firstlineno, c.co_name) for c in entered}
    functions = src_functions()
    assert len(functions) > 200  # the scan found the package
    never = [name for key, name in functions.items() if key not in run]
    assert sorted(never) == sorted(NOT_RUN_BY_THE_COMMANDS)
