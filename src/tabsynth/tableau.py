"""Deductive-tableau rows and rules with answer extraction.

A tableau holds assertion and goal rows, each with an optional output
entry.  Rules add rows while preserving the allowable outputs; a final
row (goal true, or assertion false, with an output) yields the
synthesized program, a program.ProgramDef.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

from . import logic as L
from . import program as P
from .logic import (
    And,
    Apply,
    Atom,
    BadPathError,
    Cond,
    Eq,
    FalseF,
    Formula,
    Iff,
    Implies,
    LTerm,
    MetaVar,
    Not,
    Or,
    Signature,
    TrueF,
    default_signature,
)
from .wf import RelSpec


class TableauError(Exception):
    pass


class IllFormedSpecError(TableauError):
    pass


class UnknownLemmaError(TableauError):
    pass


class UnknownRelationError(TableauError):
    pass


class NotInitialError(TableauError):
    pass


class NotUnifiableError(TableauError):
    pass


class NotSplittableError(TableauError):
    pass


class NotOrphanError(TableauError):
    pass


class StandardizeApartError(RuntimeError):
    """Two rows share a metavariable after renaming one apart.

    This is a defect, not a failed rule: it is no TableauError, so a search
    does not take it for a move that did not apply.
    """


ASSERTION = "assertion"
GOAL = "goal"
_ATOMIC = (Atom, Eq, TrueF, FalseF)  # what resolution may select

@dataclass(frozen=True)
class Row:
    rid: int
    kind: str
    formula: Formula
    output: LTerm | None
    step: tuple  # the step that made the row, as engine.apply_step takes it
    theta: tuple | None = None  # the unifier the step applied, as sorted pairs
    # path text -> (path, node); (path text, constant type) -> unbound part
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def unifier(self) -> str:
        """The text of the unifier the step applied, or "" if it applied none."""
        pairs = ", ".join(f"{n} -> {L.print_formula(t)}" for n, t in self.theta or ())
        return "" if self.theta is None else "{" + pairs + "}"

    @cached_property
    def metavar_names(self) -> frozenset[str]:
        """The names of the metavars in the formula and the output."""
        names = {mv.name for mv in L.metavars_of(self.formula)}
        if self.output is not None:
            names |= {mv.name for mv in L.metavars_of(self.output)}
        return frozenset(names)

    @cached_property
    def metavar_bases(self) -> tuple[tuple[str, str], ...]:
        """Each metavar name, in sorted order, with its base: the name up to any #."""
        return tuple((name, name.split("#", 1)[0]) for name in sorted(self.metavar_names))

    def at(self, path: str) -> tuple[tuple[int, ...], L.Node]:
        """The path text parsed, with the formula's node at that path, found once."""
        if path not in self._memo:
            self._memo[path] = (p := L.parse_path(path), L.get_at(self.formula, p))
        return self._memo[path]

    def part(self, path: str, constant: Formula, theta: L.MetaSubst | None = None) -> Formula:
        """The formula f with constant (true or false) at path, normalized and in
        goal sense: normalize(f) in a goal, normalize(Not(f)) in an assertion,
        built once per row.  If theta binds a metavar of the row, the part is
        that unbound part normalized again under the theta-leaf, built anew: it
        is logically equivalent to normalize(theta(f)), but its form can differ,
        because logic.negate is not an involution on a normal implies."""
        key = (path, type(constant))  # TRUE and FALSE hash alike
        part = self._memo.get(key)
        if part is None:
            f = L.replace_at(self.formula, self.at(path)[0], constant)
            part = self._memo[key] = L.normalize(f if self.kind == GOAL else Not(f))
        if theta and not self.metavar_names.isdisjoint(theta):
            return L.normalize(part, partial(L.substitute, theta, {}))
        return part

    def justification(self) -> str:
        """The step as text: command, (rows@paths), unifier, then other strings."""
        links, notes = [], []
        for prev, arg in zip(self.step, self.step[1:]):
            if type(arg) is int:  # a row
                links.append(str(arg))
            elif isinstance(arg, str) and type(prev) is int:  # that row's path
                links[-1] += f"@{arg}"
            elif isinstance(arg, str):  # a lemma, a relation or a direction
                notes.append(arg)
        parts = [self.step[0], f"({', '.join(links)})" if links else "", self.unifier]
        return " ".join(p for p in parts + notes if p)

    def is_final(self) -> bool:
        if self.output is None:
            return False
        if self.kind == GOAL:
            return isinstance(self.formula, TrueF)
        return isinstance(self.formula, FalseF)


@dataclass(frozen=True)
class ProgramSpec:
    """find <output> such that <condition>, for program name(params)."""

    name: str
    params: tuple[tuple[str, str], ...]
    output: MetaVar | None
    condition: Formula


class Tableau:
    """Single-owner mutable tableau; rows are immutable once created."""

    def __init__(
        self,
        spec: ProgramSpec,
        sig: Signature | None = None,
        lemmas: dict[str, Formula] | None = None,
        relations: dict[str, RelSpec] | None = None,
        strict: bool = True,
        primitive_fns: frozenset[str] = P.PRIMITIVE_FUNCTIONS,
        primitive_preds: frozenset[str] = P.PRIMITIVE_PREDICATES,
    ):
        self.spec = spec
        self.sig = sig or default_signature()
        self.lemmas = dict(lemmas or {})
        self.relations = dict(relations or {})
        self.strict = strict
        self.primitive_fns = primitive_fns
        self.primitive_preds = primitive_preds
        self.rows: list[Row] = []
        self.decrease: RelSpec | None = None
        self._fresh = 0
        self._init()

    # -- construction -------------------------------------------------

    def _init(self) -> None:
        cond = L.normalize(self.spec.condition)
        mvs = {mv.name for mv in L.metavars_of(cond)}
        allowed = {self.spec.output.name} if self.spec.output else set()
        if mvs - allowed:
            raise IllFormedSpecError(
                f"condition mentions free metavars {sorted(mvs - allowed)}"
            )
        self._append(GOAL, cond, self.spec.output, ("init",))

    def _append(
        self, kind: str, formula: Formula, output: LTerm | None, step: tuple, theta=None
    ) -> Row:
        row = Row(len(self.rows) + 1, kind, formula, output, step, theta)
        self.rows.append(row)
        return row

    def row(self, rid: int) -> Row:
        if not (1 <= rid <= len(self.rows)):
            raise TableauError(f"no row {rid}")
        return self.rows[rid - 1]

    def truncate(self, length: int) -> None:
        """Drop rows from the end (used by search to discard dead ends).

        Row ids are positions, so the next row added takes the rid of the
        first row dropped: anything keyed by the rid of a dropped row then
        describes a different row.
        """
        if length < 1 or length > len(self.rows):
            raise TableauError("bad truncation length")
        del self.rows[length:]

    @staticmethod
    def render_row(row: Row) -> str:
        tag = "A" if row.kind == ASSERTION else "G"
        out = L.print_formula(row.output) if row.output is not None else ""
        return f"#{row.rid} [{tag}] {L.print_formula(row.formula)} | {out} | {row.justification()}"

    # -- fresh renaming (standardize apart) ---------------------------

    def _rename_apart(self, row1: Row, row2: Row) -> dict[str, str]:
        """A fresh name for each metavar of row 2, formula and output, skipping
        the names row 1 uses; StandardizeApartError guards that they share none."""
        mapping, taken = {}, row1.metavar_names
        for name, base in row2.metavar_bases:
            self._fresh += 1
            while f"{base}#{self._fresh}" in taken:
                self._fresh += 1
            mapping[name] = f"{base}#{self._fresh}"
        shared = taken.intersection(mapping.values())
        if shared:
            raise StandardizeApartError(
                f"rows {row1.rid} and {row2.rid} share {sorted(shared)} "
                "after standardizing apart"
            )
        return mapping

    # -- row-entry operations ------------------------------------------

    def add_assertion(
        self,
        name: str | None = None,
        formula: Formula | None = None,
        output: LTerm | None = None,
        assumption: bool = False,
    ) -> Row:
        """Enter a registered lemma (by name) or a scripted case assumption."""
        if name is not None:
            if name not in self.lemmas:
                raise UnknownLemmaError(f"lemma {name!r} is not registered")
            formula = self.lemmas[name]
        elif self.strict and not assumption:
            raise UnknownLemmaError("strict mode requires a registered lemma name")
        if formula is None:
            raise TableauError("no formula to assert")
        L.check_formula(formula, self.sig)
        if assumption:
            step = ("assume", formula, output)
        else:  # a lemma by name, or a non-strict tableau's own formula
            step = ("assert", name) if name else ("assert", None, formula, output)
        return self._append(ASSERTION, L.normalize(formula), output, step)

    def assume(self, formula: Formula, output: LTerm | None = None) -> Row:
        """Enter a case assumption, as a script's assume line does."""
        return self.add_assertion(formula=formula, output=output, assumption=True)

    def dualize(self, rid: int) -> Row:
        row = self.row(rid)
        kind = GOAL if row.kind == ASSERTION else ASSERTION
        return self._append(kind, L.negate(row.formula), row.output, ("dualize", rid))

    def drop_orphan_output(self, rid: int) -> Row:
        row = self.row(rid)
        if row.output is None or not isinstance(row.output, MetaVar):
            raise NotOrphanError("output entry is not a lone metavar")
        if row.output in L.metavars_of(row.formula):
            raise NotOrphanError("output metavar occurs in the row formula")
        return self._append(row.kind, row.formula, None, ("orphan", rid))

    # -- structural rules ----------------------------------------------

    def split_row(self, rid: int) -> list[Row]:
        row = self.row(rid)
        step = ("split", rid)
        if row.kind == GOAL:
            if isinstance(row.formula, Implies):
                a = self._append(ASSERTION, row.formula.antecedent, row.output, step)
                g = self._append(GOAL, row.formula.consequent, row.output, step)
                return [a, g]
            dist = _distribute(row.formula, And, Or)
            if isinstance(dist, Or):
                return [self._append(GOAL, p, row.output, step) for p in dist.parts]
            raise NotSplittableError("goal is neither an implication nor a disjunction")
        dist = _distribute(row.formula, Or, And)
        if isinstance(dist, And):
            return [
                self._append(ASSERTION, p, row.output, step) for p in dist.parts
            ]
        raise NotSplittableError("assertion has no conjunctive structure")

    # -- the resolution rule -------------------------------------------

    def resolve(self, rid1: int, path1: str, rid2: int, path2: str) -> Row:
        """Nonclausal resolution on a shared subformula occurrence.

        The occurrence in row1 is taken true, the one in row2 false; the
        conditional output (when both parents carry outputs) follows the
        same orientation.
        """
        row1, row2 = self.row(rid1), self.row(rid2)
        fresh = self._rename_apart(row1, row2)
        occ1, occ2 = row1.at(path1)[1], row2.at(path2)[1]
        if not (isinstance(occ1, _ATOMIC) and isinstance(occ2, _ATOMIC)):
            raise BadPathError("resolution selects atomic subformulas")
        occ2 = L.rename_metavars(occ2, fresh)
        theta = L.term_unify(occ2, occ1, self.sig)
        if theta is None:
            raise NotUnifiableError(
                f"{L.print_formula(occ1)} does not unify with {L.print_formula(occ2)}"
            )
        sub2 = partial(L.substitute, theta, fresh)
        part1 = row1.part(path1, L.TRUE, theta)
        part2 = L.normalize(row2.part(path2, L.FALSE), sub2)
        step = ("resolve", rid1, path1, rid2, path2)
        return self._emit(step, theta, sub2, row1, part1, row2, part2, occ1)

    # -- replacement rules ----------------------------------------------

    def equality_replace(
        self, eq_rid: int, eq_path: str, target_rid: int, target_path: str, direction: str
    ) -> Row:
        return self._replace(eq_rid, eq_path, target_rid, target_path, direction, Eq)

    def equivalence_replace(
        self, iff_rid: int, iff_path: str, target_rid: int, target_path: str, direction: str
    ) -> Row:
        return self._replace(iff_rid, iff_path, target_rid, target_path, direction, Iff)

    def _replace(self, rid1, path1, rid2, path2, direction, node_type) -> Row:
        if direction not in ("ltr", "rtl"):
            raise TableauError(f"direction must be ltr or rtl, not {direction!r}")
        row1, row2 = self.row(rid1), self.row(rid2)
        eqnode = row1.at(path1)[1]
        if not isinstance(eqnode, node_type):
            raise BadPathError(f"row {rid1} at {path1} is not {node_type.__name__}")
        fresh = self._rename_apart(row1, row2)
        p2, target = row2.at(path2)
        if node_type is Eq and not isinstance(target, (MetaVar, Apply, Cond)):
            raise BadPathError("equality replacement needs a term occurrence")
        if node_type is Iff and isinstance(target, (MetaVar, Apply, Cond)):
            raise BadPathError("equivalence replacement needs a formula occurrence")
        sides = (eqnode.lhs, eqnode.rhs)
        src, dst = sides if direction == "ltr" else sides[::-1]
        theta = L.term_unify(L.rename_metavars(target, fresh), src, self.sig)
        if theta is None:
            raise NotUnifiableError("selected occurrence does not unify with the side")
        sub2 = partial(L.substitute, theta, fresh)
        part1 = row1.part(path1, L.FALSE, theta)
        # substituting commutes with replacing: dst, from row 1, takes only theta
        f2 = L.replace_at(sub2(row2.formula), p2, L.apply_subst(dst, theta))
        part2 = L.normalize(f2 if row2.kind == GOAL else Not(f2))
        rule = "eqrepl" if node_type is Eq else "iffrepl"
        step = (rule, rid1, path1, rid2, path2, direction)
        return self._emit(step, theta, sub2, row1, part1, row2, part2, eqnode)

    # -- induction -------------------------------------------------------

    def insert_induction_hypothesis(self, relname: str) -> Row:
        if relname not in self.relations:
            raise UnknownRelationError(f"relation {relname!r} is not registered")
        if any(r.step[0] != "init" for r in self.rows):
            raise NotInitialError("induction applies only to the initial tableau")
        if self.spec.output is None:
            raise IllFormedSpecError("induction needs an output to recurse on")
        primed = [
            MetaVar(name.upper().replace("_", "") + "'", sort)
            for name, sort in self.spec.params
        ]
        actual = [Apply(name) for name, _ in self.spec.params]
        call = Apply(self.spec.name, tuple(primed))
        sub = {name: mv for (name, _), mv in zip(self.spec.params, primed)}
        cond = _instantiate_params(self.spec.condition, sub)
        cond = L.apply_subst(cond, {self.spec.output.name: call})
        wf = Atom(
            "wf-ordered",
            (Apply(relname), self._measure_tuple(primed), self._measure_tuple(actual)),
        )
        if len(primed) == 1:
            # single-input programs compare the argument itself; relax the
            # ordering predicate to that sort in a signature this tableau owns
            sort = primed[0].sort
            self.sig = self.sig.copy()
            self.sig.predicates["wf-ordered"] = ("rel", sort, sort)
        self.decrease = self.relations[relname]
        return self._append(
            ASSERTION, L.normalize(Implies(wf, cond)), None, ("induct", relname)
        )

    def _measure_tuple(self, items: list) -> LTerm:
        sorts = tuple(sort for _, sort in self.spec.params)
        if sorts == ("subst", "expr", "expr"):
            return Apply("tuple3", tuple(items))
        if len(items) == 1:
            return items[0]
        raise IllFormedSpecError(f"no tuple encoding for parameter sorts {sorts}")

    # -- extraction ------------------------------------------------------

    def extract_program(self) -> P.ProgramDef | None:
        """The program of the first final row with a primitive output, each
        metavariable in it grounded (_ground), its body simplified
        (program.simplify), its result sort the spec output's."""
        params = {name for name, _ in self.spec.params}
        for row in self.rows:
            if row.is_final() and P.nonprimitive_symbol(
                row.output, self.spec.name, params, self.primitive_fns, self.primitive_preds
            ) is None:
                body = P.simplify(L.map_node(row.output, self._ground))
                return P.ProgramDef(
                    self.spec.name, self.spec.params, body, self.decrease, self.spec.output.sort
                )
        return None

    def _ground(self, node: L.Node) -> LTerm | None:
        """A ground term for a metavariable, which the proof holds for every
        value of: the first parameter of its sort, else the first nullary
        primitive of that sort; None for any other node, or if neither exists."""
        if type(node) is not MetaVar:
            return None
        names = [name for name, sort in self.spec.params if sort == node.sort]
        names += [n for n, p in L.PRIMITIVES.items()
                  if n in self.primitive_fns and p.result == node.sort and not p.args]
        return Apply(names[0]) if names else None

    # -- helpers ---------------------------------------------------------

    def _emit(self, step, theta, sub2, row1, part1, row2, part2, occ1) -> Row:
        """The row a pair rule makes of its parents' parts, each normal and in
        goal sense: row 1's part1 under theta, from Row.part, and row 2's part2
        under sub2.  The parents' outputs, under theta (sub2 for row 2), join in
        a simplified conditional on theta(occ1): row 1's first for resolve, row
        2's for a replacement."""
        combined = L.junction(And, (part1, part2))
        out1 = row1.output and L.apply_subst(row1.output, theta)
        outs = (out1, row2.output and sub2(row2.output))
        then, els = outs if step[0] == "resolve" else outs[::-1]
        output = els if then is None else then  # a missing output leaves the other
        if then is not None and els is not None and then != els:
            test = L.apply_subst(occ1, theta)
            if not isinstance(test, TrueF):
                output = els if isinstance(test, FalseF) else Cond(test, then, els)
        theta = tuple(sorted(theta.items()))
        if row1.kind == ASSERTION and row2.kind == ASSERTION:
            return self._append(ASSERTION, L.negate(combined), output, step, theta)
        return self._append(GOAL, combined, output, step, theta)


def _distribute(f: Formula, outer: type, inner: type) -> Formula:
    """Distribute an outer junction over one inner part, repeatedly.

    (Or, And) gives the conjunctive form an assertion splits into, (And,
    Or) the disjunctive form of a goal.
    """
    while isinstance(f, outer):
        target = next((p for p in f.parts if isinstance(p, inner)), None)
        if target is None:
            break
        rest = tuple(p for p in f.parts if p is not target)
        f = L.junction(inner, [L.junction(outer, rest + (c,)) for c in target.parts])
    return f


def _instantiate_params(f: Formula, sub: dict[str, MetaVar]) -> Formula:
    """Replace parameter constants with the given metavars."""
    return L.map_node(
        f, lambda n: sub.get(n.fn) if isinstance(n, Apply) and not n.args else None
    )


def equal_up_to_renaming(a: L.Node | tuple, b: L.Node | tuple) -> bool:
    """Structural equality modulo a bijective renaming of MetaVars.

    Tuples of nodes or None are compared item by item under one renaming.
    """
    return L.canonical(a) == L.canonical(b)
