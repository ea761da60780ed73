"""The package has no public surface that only the tests call.

Every public top-level function and class in src/tabsynth, and every public
method of a public class, must be used in src/tabsynth or bench/ outside its
own definition: as a name, as an attribute, or as a string naming it (bench/
wraps functions by name).
"""

import ast
import pathlib
from collections import Counter

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
