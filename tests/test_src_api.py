"""Every module-level function and class in `src/sttrack`, and every method
and property of its classes, has a caller in `src/sttrack`: code that only
tests call belongs in the tests."""

import ast
import collections
from pathlib import Path

import sttrack

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
