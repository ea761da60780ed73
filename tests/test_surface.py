"""The package has no public surface that only the tests call.

Every public top-level function and class in src/tabsynth, and every public
method of a public class, must be used in src/tabsynth or bench/ outside its
own definition: as a name, as an attribute, or as a string naming it (bench/
wraps functions by name).  No module reads another module's private
attribute, the modules import one another without a cycle, and the settable
options are counted.
"""

import argparse
import ast
import dataclasses
import graphlib
import pathlib
from collections import Counter

from tabsynth import cli, engine

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tabsynth"

# names with no caller yet, on purpose; an entry that gains a caller or
# disappears fails the test, so the list stays current
ALLOWED = {
    "program.eval_formula": "the formula form of the compiled executor, kept on purpose",
    "logic.Signature.add_predicate": "the acceptance criteria's ground model declares its predicates",
}


def _uses(tree: ast.AST) -> Counter:
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def test_every_public_name_has_a_caller():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    total = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node, prefix in _public(trees[path].body, path.stem):
            if total[node.name] == _uses(node)[node.name]:
                unused.add(f"{prefix}.{node.name}")
    assert unused == set(ALLOWED)


def _public(body, prefix):
    """The public functions and classes of body, each with its dotted prefix,
    and the public methods of each public class."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node, prefix
            if isinstance(node, ast.ClassDef):
                methods = (n for n in node.body if isinstance(n, ast.FunctionDef))
                yield from _public(methods, f"{prefix}.{node.name}")


def _defined(tree: ast.AST) -> set[str]:
    """The names a module defines: by def or class, by assignment (a class
    field included), or as self._name = ..."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            names.add(node.attr)
    return names


def test_no_module_reads_another_modules_private_attribute():
    # x._name outside self and cls must name what this module defines, so a
    # private attribute's layout is known to one module only
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = _defined(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
                and node.attr not in defined
            ):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_the_settable_options_are_counted():
    # the -- flags of every subcommand, --help aside, and the fields of
    # SearchConfig: 22, as ROADMAP.md counts them; a new option is logged there
    parser = cli._build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = [
        option
        for sub in subcommands.choices.values()
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    ]
    fields = dataclasses.fields(engine.SearchConfig)
    assert (len(flags), len(fields)) == (20, 2), "log a new option in ROADMAP.md's count"


def _package_imports(nodes) -> set[str]:
    """The package modules that the relative imports among nodes name."""
    found = set()
    for n in nodes:
        if isinstance(n, ast.ImportFrom) and n.level == 1:
            found.update([n.module] if n.module else [a.name for a in n.names])
    return found


def test_the_package_imports_one_way():
    # a module imports the package's modules at its top, and the graph they
    # form has no cycle: program below tableau, tableau below engine.  The
    # one import inside a function is unify's of the program that
    # interprets the bundled golden text: program imports logic, which
    # imports unify, so unify cannot import program at its top
    graph, lazy = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[path.stem] = _package_imports(tree.body)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                lazy |= {(path.stem, fn.name, m) for m in _package_imports(ast.walk(fn))}
    assert lazy == {("unify", "_golden", "program")}
    assert "program" in graph["tableau"] and "tableau" in graph["engine"]
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
