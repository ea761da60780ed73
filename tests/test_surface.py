"""The package has no public surface that only the tests call.

Every public top-level function and class in src/tabsynth must be used in
src/tabsynth or bench/ outside its own definition: as a name, as an
attribute, or as a string naming it (bench/ wraps functions by name).
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
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            if total[node.name] == _uses(node)[node.name]:
                unused.add(f"{path.stem}.{node.name}")
    assert unused == set(ALLOWED)
