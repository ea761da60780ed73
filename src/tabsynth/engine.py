"""Derivation driver: theory files, scripted replay, bounded search.

A theory file registers lemmas, well-founded relations, and program
specifications.  A derivation script applies tableau rules one command
per line; replay executes it, failing fast, and returns the extracted,
simplified program.  Search explores rule applications best-first under
symbol weights.  A rule application is one step, (command, *arguments),
whether it is a script line, the step a row records as the one that made
it, or a search move; apply_step applies all three.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field
from itertools import islice

from . import logic as L
from .program import ProgramDef
from .tableau import (
    ASSERTION,
    GOAL,
    ProgramSpec,
    Row,
    Tableau,
    TableauError,
    equal_up_to_renaming,
)
from .term import ExprError, ExprSyntaxError, brief, read_sexp
from .wf import RelSpec, parse_relspec


class EngineError(Exception):
    pass


class StepFailedError(EngineError):
    def __init__(self, index: int, line_no: int, command: str, cause: Exception):
        super().__init__(f"step {index} (line {line_no}) failed: {command!r}: {cause}")
        self.index = index
        self.command = command
        self.cause = cause


class NoFinalRowError(EngineError):
    pass


@dataclass
class Theory:
    lemmas: dict[str, L.Formula] = field(default_factory=dict)
    relations: dict[str, RelSpec] = field(default_factory=dict)
    specs: dict[str, ProgramSpec] = field(default_factory=dict)
    signature: L.Signature = field(default_factory=L.default_signature)
    _prepared: tuple | None = field(default=None, init=False, repr=False, compare=False)


def load_theory(text: str) -> Theory:
    """Parse a theory file, read as data: an entry is its keyword and a fixed
    number of data, wherever its lines break: lemma NAME FORMULA, wfrel NAME
    RELATION, or spec NAME (PARAM:SORT ...) output OUT CONDITION."""
    lines = [_COMMENT.sub(lambda m: " " * len(m[0]), line) for line in text.splitlines()]
    try:  # comments are blanked, so a position is one in text
        data = iter(read_sexp("\n".join(lines), many=True))
    except ExprSyntaxError as exc:
        raise EngineError(f"theory text: {exc}") from exc
    theory = Theory()
    for kind in data:
        if not isinstance(kind, str) or kind not in _ENTRY_DATA:
            raise EngineError(f"unknown theory entry {brief(kind)!r}")
        fields = list(islice(data, _ENTRY_DATA[kind]))
        if len(fields) < _ENTRY_DATA[kind] or not isinstance(fields[0], str) or (
            kind == "spec" and (not isinstance(fields[1], list) or fields[2] != "output")
        ):
            raise EngineError(f"malformed theory entry {' '.join(map(brief, [kind, *fields]))!r}")
        name, body = fields[0], fields[-1]
        if kind == "lemma":
            table, value = theory.lemmas, L.parse_formula(body, theory.signature)
        elif kind == "wfrel":
            table, value = theory.relations, parse_relspec(body)
            theory.signature.add_constant(name, "rel")
        else:
            table, value = theory.specs, _parse_spec(*fields, theory.signature)
        if name in table:
            raise EngineError(f"{kind} {name!r} is declared twice")
        table[name] = value
    return theory


_ENTRY_DATA = {"lemma": 2, "wfrel": 2, "spec": 5}  # keyword -> the data after it

# a comment starts at a '#' that begins the line or follows whitespace, so
# fresh metavariable names such as X#3 are kept
_COMMENT = re.compile(r"(?:^|\s)#.*")


def _parse_spec(name: str, params: list, _keyword, out, condition, sig) -> ProgramSpec:
    """A spec from the data after its keyword; OUT is NAME:SORT or none."""
    params = L.read_params(params, sig)
    output = None
    if out != "none":
        output = L.MetaVar(*L.sorted_name(out, "output"))
        sig.add_function(name, tuple(s for _, s in params), output.sort)
    condition = L.parse_formula(condition, sig)
    if output is not None:  # the condition may not read the output at another sort
        for mv in L.nodes(condition):
            if type(mv) is L.MetaVar and mv.name == output.name and mv != output:
                raise EngineError(f"output {out} is read as {mv.sort} in the condition")
    return ProgramSpec(name, params, output, condition)


# ---------------------------------------------------------------------------
# scripted replay

@dataclass(frozen=True)
class Command:
    line_no: int
    text: str


def parse_script(text: str) -> list[Command]:
    commands = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw).strip()
        if line:
            commands.append(Command(i, line))
    return commands


def make_tableau(theory: Theory, spec_name: str) -> Tableau:
    if spec_name not in theory.specs:
        raise EngineError(f"unknown spec {spec_name!r}")
    return Tableau(
        theory.specs[spec_name],
        theory.signature,
        lemmas=theory.lemmas,
        relations=theory.relations,
    )


def replay(
    theory: Theory, spec_name: str, script_text: str, trace=None
) -> tuple[Tableau, ProgramDef]:
    """Execute a derivation script; return the tableau and final program."""
    tableau = make_tableau(theory, spec_name)
    if trace:  # trace gets each row as it is made
        trace(tableau.rows[0])
    commands = parse_script(script_text)
    if not commands or commands[-1].text.split()[0] != "extract":
        raise EngineError("script must end with extract")
    for idx, cmd in enumerate(commands, start=1):
        made = []
        try:
            if cmd.text.split()[0] != "extract":
                made = apply_step(tableau, _parse_step(cmd.text, tableau.sig))
            elif (program := tableau.extract_program()) is None:
                raise NoFinalRowError("no final row")
        except (TableauError, L.LogicError, ExprError, EngineError, ValueError) as exc:
            raise StepFailedError(idx, cmd.line_no, cmd.text, exc) from exc
        if trace:
            for row in made:
                trace(row)
    return tableau, program


# ---------------------------------------------------------------------------
# steps: one rule application, as a script line, a row's record or a move

# command -> (the Tableau rule it applies, the kinds of its arguments in a
# script line: int for a row id, str for a path, a direction or a name).
# An assume line is parsed apart; its arguments are a formula and an output.
STEPS = {
    "assert": ("add_assertion", (str,)),
    "assume": ("assume", None),
    "induct": ("insert_induction_hypothesis", (str,)),
    "split": ("split_row", (int,)),
    "dualize": ("dualize", (int,)),
    "orphan": ("drop_orphan_output", (int,)),
    "resolve": ("resolve", (int, str, int, str)),
    "eqrepl": ("equality_replace", (int, str, int, str, str)),
    "iffrepl": ("equivalence_replace", (int, str, int, str, str)),
}


def apply_step(tableau: Tableau, step: tuple) -> list[Row]:
    """Apply a step, (command, *arguments), to tableau; return the rows it made.

    A step is a script line with its row ids as ints (_parse_step), the
    step a row records (Row.step), or a search move.  The
    rule is looked up on the tableau at each call, so a rule rebound on
    Tableau is the one applied.
    """
    if step[0] not in STEPS:
        raise EngineError(f"unknown command {step[0]!r}")
    made = getattr(tableau, STEPS[step[0]][0])(*step[1:])
    return made if isinstance(made, list) else [made]


def _parse_step(text: str, sig: L.Signature) -> tuple:
    """A script line other than extract as a step; formulas are read in sig."""
    command = text.split()[0]
    rest = text[len(command) :]
    if command == "assume":  # the rest as data, FORMULA [output TERM]; a path is no datum
        data = read_sexp(rest, many=True)
        if len(data) == 1 or len(data) == 3 and data[1] == "output":
            output = L.parse_term(data[2], sig) if len(data) == 3 else None
            return ("assume", L.parse_formula(data[0], sig), output)
    elif command not in STEPS:
        raise EngineError(f"unknown command {command!r}")
    elif len(args := rest.split()) == len(kinds := STEPS[command][1]):
        try:
            return (command, *[kind(arg) for kind, arg in zip(kinds, args)])
        except ValueError:
            pass
    raise EngineError(f"malformed command {text!r}")


def verify_replay(theory: Theory, spec_name: str, tableau: Tableau) -> bool:
    """Re-derive every row from the step it records, and compare.

    This is the kernel-checkable-log property: the recorded steps alone
    reproduce the tableau.  A row's formula and output are compared under
    one renaming of metavariables.
    """
    check = make_tableau(theory, spec_name)
    for i, want in enumerate(tableau.rows):
        if i == len(check.rows):
            apply_step(check, want.step)
        got = check.rows[i]
        if got.kind != want.kind or not equal_up_to_renaming(
            (got.formula, got.output), (want.formula, want.output)
        ):
            return False
    return len(check.rows) == len(tableau.rows)


# ---------------------------------------------------------------------------
# bounded best-first search

# literal-selection precedence, lowest first; selection boxes only atoms
# whose predicate is maximal within their row.  The order is a tuned
# strategy, not a semantic commitment.
PRECEDENCE = (
    "idem",
    "is-proper",
    "is-atom",
    "is-const",
    "is-var",
    "misses",
    "occurs-proper",
    "occurs-refl",
    "wf-ordered",
    "subset",
    "proper-subset",
    "size-lt",
    "more-genid",
    "reduce",
    "mgi",
    "=",
    "mgiu",
)
_RANK = {name: i for i, name in enumerate(PRECEDENCE)}


@dataclass
class SearchConfig:
    max_rows: int = 200
    weights: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.max_rows < 0:
            raise EngineError(f"max_rows must be at least 0, not {self.max_rows}")
        for symbol, w in self.weights.items():
            if type(w) is not int:  # a bool is an int, but no weight
                raise EngineError(f"weight for {symbol} must be an integer")
            if w <= 0:
                raise EngineError(f"weight for {symbol} must be positive")


def _key_and_weight(row: Row, config: SearchConfig) -> tuple[tuple, int]:
    """The row's duplicate key, (kind, has no output, L.canonical of its formula), so a
    formula restated with another program fragment is a duplicate; and its weight."""
    form = L.canonical(row.formula)
    symbols, weight = form[1::3], len(form) // 3  # each node weighs its symbol's weight, or 1
    for symbol, w in config.weights.items():
        weight += (w - 1) * symbols.count(symbol)
    return (row.kind, row.output is None, form), weight


def _shape(atom: L.Node) -> tuple:
    """The (head, arity) of each of atom's arguments; None for a metavar,
    which may become any term under a meta-substitution."""
    return tuple(
        None if type(t) is L.MetaVar else (L.head(t), len(L.children(t)))
        for t in L.children(atom)
    )


def _meets(shape1: tuple, shape2: tuple) -> bool:
    """Whether two atoms of one head, of these shapes, may unify."""
    return len(shape1) == len(shape2) and all(
        s is None or t is None or s == t for s, t in zip(shape1, shape2)
    )


def _vacuous(kind: str, f: L.Formula) -> bool:
    """Whether f is false in a goal row or true in an assertion row."""
    return isinstance(f, L.FalseF if kind == GOAL else L.TrueF)


def _live(row: Row, path: str, constant: L.Formula) -> bool:
    """Whether row, with constant put at path, can be a side of a useful move:
    not if its part (Row.part) is false, that is its residue false in a goal
    or true in an assertion, as a meta-substitution only adds equal sides
    and never removes a constant.  The part is built once per row."""
    return type(row.part(path, constant)) is not L.FalseF


def _rewriting_sides(row: Row) -> tuple:
    """Each (direction, side) an iff assertion rewrites with; none for a goal,
    which put false at its root is vacuous."""
    f = row.formula
    if isinstance(f, L.Iff) and row.kind == ASSERTION:
        return (("ltr", f.lhs), ("rtl", f.rhs))
    return ()


def _occurrences(row: Row) -> tuple[list, list]:
    """The row's atom occurrences as (position, path text, atom, shape):
    selected, that is of a precedence-maximal predicate, and all."""
    occs = [
        (j, ".".join(map(str, p)) or "-", a, _shape(a))
        for j, (p, a) in enumerate(L.atom_paths(row.formula))
    ]
    ranks = [_RANK.get(getattr(occ[2], "pred", "="), -1) for occ in occs]
    best = max(ranks, default=None)
    return [occ for occ, rank in zip(occs, ranks) if rank == best], occs


class _Index:
    """The active rows' atom occurrences and rewriting sides, by head and
    shape.  A search starts from a copy of its theory's lemma index
    (_lemma_rows)."""

    def __init__(self):
        # head -> shape -> (active position, occurrence position, path text)
        # or (active position, direction)
        self.atoms: dict[tuple, dict[tuple, list]] = {}
        self.sides: dict[tuple, dict[tuple, list]] = {}

    def copy(self) -> _Index:
        """An _Index with this one's entries, in lists of its own."""
        new = _Index()
        for old, index in ((self.atoms, new.atoms), (self.sides, new.sides)):
            index.update((h, {s: list(e) for s, e in by.items()}) for h, by in old.items())
        return new

    def activate(self, row: Row, occurrences: list, k: int) -> None:
        """Index row's occurrences (_occurrences: all) and rewriting sides as
        active row k; rows enter in active order, so each list is in active order."""
        for j, path, atom, shape in occurrences:
            self.atoms.setdefault(L.head(atom), {}).setdefault(shape, []).append((k, j, path))
        for direction, side in _rewriting_sides(row):
            shapes = self.sides.setdefault(L.head(side), {})
            shapes.setdefault(_shape(side), []).append((k, direction))


def _meeting(index: dict, atom: L.Node, shape: tuple):
    """The entries of index under atom's head whose shape meets shape: a
    one-level discrimination tree, compared once per distinct shape."""
    for other, entries in index.get(L.head(atom), {}).items():
        if _meets(shape, other):
            yield from entries


def moves_for(row: Row, own: list, active: list[Row], index: _Index):
    """The moves search applies when it activates row, in the order it applies them.

    The unary moves come first, then the pair moves with each active row
    in turn: resolve by (own, partner) occurrence, then iffrepl with the
    active row as the iff, then with row as the iff.  Literal selection
    restricts the activated row to own (_occurrences), not its partner.  The
    index meets only pairs whose heads and shapes meet; see search for what
    is not yielded."""
    yield ("split", row.rid)
    if row.kind == ASSERTION:
        yield ("orphan", row.rid)
    atoms, sides = index.atoms, index.sides
    rid, live, moves = row.rid, _live, []  # moves: (sort key, move); "ltr" < "rtl"
    for i, path1, atom, shape1 in own:
        true1, false1 = live(row, path1, L.TRUE), live(row, path1, L.FALSE)
        for k, j, path2 in _meeting(atoms, atom, shape1):
            other = active[k]
            if true1 and live(other, path2, L.FALSE):
                moves.append(((k, 0, i, j, 0), ("resolve", rid, path1, other.rid, path2)))
            if false1 and live(other, path2, L.TRUE):
                moves.append(((k, 0, i, j, 1), ("resolve", other.rid, path2, rid, path1)))
        for k, way in _meeting(sides, atom, shape1):
            moves.append(((k, 1, i, way), ("iffrepl", active[k].rid, "-", rid, path1, way)))
    for way, side in _rewriting_sides(row):
        for k, j, path2 in _meeting(atoms, side, _shape(side)):
            moves.append(((k, 2, j, way), ("iffrepl", rid, "-", active[k].rid, path2, way)))
    yield from (move for _, move in sorted(moves))


def _lemma_rows(theory: Theory, tableau: Tableau, config: SearchConfig) -> tuple:
    """The theory's lemma rows, by name, put after tableau's goal, with their keys
    and an _Index of them, as the first search over the theory built them and
    kept them on it while the lemmas stay the same.  The rows are shared, as a
    row's memo holds only what depends on the row; the keys and the index are
    the search's own copies.  A lemma row never waits in the passive queue, so
    its key needs no weights."""
    lemmas = tuple(sorted(theory.lemmas.items()))
    if theory._prepared is None or theory._prepared[0] != lemmas:
        rows, index = tuple(tableau.add_assertion(name=name) for name, _ in lemmas), _Index()
        for k, row in enumerate(rows):
            index.activate(row, _occurrences(row)[1], k)
        keys = frozenset(_key_and_weight(row, config)[0] for row in rows)
        theory._prepared = (lemmas, rows, keys, index)
    _, rows, keys, index = theory._prepared
    tableau.rows[1:] = rows
    return list(rows), set(keys), index.copy()


def search(
    theory: Theory, spec_name: str, config: SearchConfig
) -> tuple[Tableau, ProgramDef] | None:
    """Best-first proof search; returns the simplified program if found.

    Given-clause style: rows wait in a passive queue keyed by weighted
    symbol count (ties by row id); activating a row finds its occurrences
    once, applies every move moves_for yields, pairing it with the active
    rows, and indexes it.  Vacuous and duplicate results are discarded.
    Set of support is structural, not checked: the lemmas are active from
    the start and never activated, so every activated row, and one side of
    every pair move, descends from the initial goal.

    A resolve or iffrepl move whose outcome is known beforehand is never
    yielded, so nothing is renamed apart or unified for it: its two atoms,
    or the iff side and the target atom, differ in head or argument shape;
    or one side is not live (_live: its unbound part, which the
    row keeps per occurrence and constant, is false), which makes every
    result vacuous.  Only the counter of fresh names differs from trying them.
    """
    symbols = {"=", *theory.signature.predicates, *theory.signature.functions}
    if unknown := [s for s in config.weights if s not in symbols]:
        raise EngineError(f"weights name no symbol of the theory: {', '.join(map(str, unknown))}")
    tableau = make_tableau(theory, spec_name)
    goal = tableau.rows[0]
    # the theory's lemmas are usable from the start; only derived rows and
    # the initial goal wait in the passive queue, where no two share a rid
    active, seen, index = _lemma_rows(theory, tableau, config)
    key, weight = _key_and_weight(goal, config)
    seen.add(key)
    passive = [(weight, goal.rid, goal)]

    while passive and len(tableau.rows) < config.max_rows:
        row = heapq.heappop(passive)[-1]
        own, occurrences = _occurrences(row)
        for move in moves_for(row, own, active, index):
            if len(tableau.rows) >= config.max_rows:
                break
            before = len(tableau.rows)
            try:
                batch = apply_step(tableau, move)
            except (TableauError, L.LogicError):
                continue
            if any(r.is_final() for r in batch):
                program = tableau.extract_program()
                if program is not None:
                    return tableau, program
            keep_any = False
            for r in batch:
                key, weight = _key_and_weight(r, config)
                if not (_vacuous(r.kind, r.formula) or key in seen):
                    seen.add(key)
                    keep_any = True
                    heapq.heappush(passive, (weight, r.rid, r))
            if not keep_any:
                tableau.truncate(before)
        index.activate(row, occurrences, len(active))
        active.append(row)
    return None
