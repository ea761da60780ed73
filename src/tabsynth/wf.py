"""Well-founded relation combinators and the unification measure.

Relations are combinator trees.  `order` turns one into a measure of a
value and a strict order on measures, so a caller that compares one
value many times measures it once; `rel_less` is the two together.  The
relation of the derived algorithm, U_REL, compares input triples
(environment, e1, e2) lexicographically: strict shrink of
range(env) | vars(e1, e2), else non-growth of that set plus strict
shrink of size(e1).  Its order is also stated by hand (u_measure,
u_less), and the decrease check of the derived program runs that form.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Union

from .term import Expr, size_of, vars_of
from .subst import Subst, range_of


class SortMismatchError(Exception):
    pass


@dataclass(frozen=True)
class Base:
    """A primitive relation, named by kind."""

    kind: str

    def __post_init__(self):
        if self.kind not in _MEASURES:
            raise ValueError(f"unknown base relation {self.kind!r}")


@dataclass(frozen=True)
class InducedBy:
    """Compare through a projection: a < b iff g(a) < g(b) in the inner relation."""

    projection: str
    inner: "RelSpec"

    def __post_init__(self):
        if self.projection not in _PROJECTIONS:
            raise ValueError(f"unknown projection {self.projection!r}")


@dataclass(frozen=True)
class Lex:
    """Lexicographic combination, in the reflexive-property form."""

    parts: tuple["RelSpec", ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("Lex needs at least two components")


@dataclass(frozen=True)
class ReflexiveClosure:
    inner: "RelSpec"


RelSpec = Union[Base, InducedBy, Lex, ReflexiveClosure]


def _expr_pair(value) -> tuple:
    if not (isinstance(value, tuple) and len(value) == 2):
        raise SortMismatchError(f"expected a (set, int) pair, got {value!r}")
    return value


# each base relation is `<` on its measure: on ints, frozensets (subset) and
# (frozenset, int) pairs (lexicographic)
_MEASURES = {
    "size-lt": size_of,
    "vars-strict-subset": vars_of,
    "subset-int-lex": _expr_pair,
    "range-vars": lambda t: range_of(t[0]) | vars_of(t[1]) | vars_of(t[2]),
    "size-first": lambda t: size_of(t[1]),
}

_PROJECTIONS = {
    "first": lambda v: _expr_pair(v)[0],
    "second": lambda v: _expr_pair(v)[1],
    "vars": lambda e: vars_of(e),
    "size": lambda e: size_of(e),
    "range": lambda s: range_of(s),
    "vars-size": lambda e: (vars_of(e), size_of(e)),
}


def rel_less(spec: RelSpec, a, b) -> bool:
    """Strict comparison under the combinator tree."""
    measure, less = order(spec)
    try:
        return less(measure(a), measure(b))
    except (AttributeError, IndexError, TypeError) as exc:
        raise SortMismatchError(str(exc)) from exc


def order(spec: RelSpec) -> tuple[Callable, Callable]:
    """(measure, less) with rel_less(spec, a, b) == less(measure(a), measure(b)).

    U_REL's is stated by hand; every other relation's is built from its parts.
    """
    if spec == U_REL:
        return u_measure, u_less
    return _order(spec)


@functools.cache
def _order(spec: RelSpec) -> tuple[Callable, Callable]:
    # a reflexive closure keeps the value for its value equality; a Lex
    # measures each part only once the comparison reaches it
    if isinstance(spec, Base):
        return _MEASURES[spec.kind], operator.lt
    if isinstance(spec, InducedBy):
        measure, strict = _order(spec.inner)
        project = _PROJECTIONS[spec.projection]
        return (lambda v: measure(project(v))), strict
    if isinstance(spec, ReflexiveClosure):
        measure, strict = _order(spec.inner)
        return (lambda v: (measure(v), v)), (
            lambda a, b: strict(a[0], b[0]) or a[1] == b[1]
        )
    parts = [_order(part) for part in spec.parts]

    def lex(a, b) -> bool:
        # the first part whose measures differ decides
        for measure, strict in parts:
            x, y = measure(a), measure(b)
            if strict(x, y):
                return True
            if x != y:
                return False
        return False

    return (lambda v: v), lex


U_REL = Lex((Base("range-vars"), Base("size-first")))


def u_measure(t: tuple[Subst, Expr, Expr]) -> tuple[frozenset[str], int]:
    """U_REL's measure of (env, e1, e2): range(env) | vars(e1, e2), size(e1)."""
    env, e1, e2 = t
    return range_of(env) | e1.vars | e2.vars, e1.size


def u_less(m1: tuple[frozenset[str], int], m2: tuple[frozenset[str], int]) -> bool:
    """U_REL on u_measure values: the set shrinks, or stays and size(e1) shrinks."""
    return m1[0] < m2[0] or (m1[0] == m2[0] and m1[1] < m2[1])


def parse_relspec(datum) -> RelSpec:
    """Build a RelSpec from its s-expression (see term.read_sexp).

    Grammar: a base name, `(base)`, `(lex r r ...)`,
    `(induced <projection> r)` or `(reflexive r)`.
    """
    if isinstance(datum, str):
        if datum in _MEASURES:
            return Base(datum)
        raise ValueError(f"unknown relation {datum!r}")
    if not datum or not isinstance(datum[0], str):
        raise ValueError("expected a relation constructor after '('")
    head, args = datum[0], datum[1:]
    if head == "lex":
        return Lex(tuple(parse_relspec(a) for a in args))
    if head == "induced" and len(args) == 2 and isinstance(args[0], str):
        return InducedBy(args[0], parse_relspec(args[1]))
    if head == "reflexive" and len(args) == 1:
        return ReflexiveClosure(parse_relspec(args[0]))
    if head in _MEASURES and not args:
        return Base(head)
    raise ValueError(f"malformed relation ({head} ...)")
