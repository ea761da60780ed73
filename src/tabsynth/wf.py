"""Well-founded relation combinators and the unification measure.

Relations are combinator trees evaluated by rel_less.  The measure used
by the derived algorithm compares input triples (environment, e1, e2)
lexicographically: strict shrink of range(env) | vars(e1, e2), else
non-growth of that set plus strict shrink of size(e1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .term import Expr, encode_tuple, size_of, vars_of
from .subst import Subst, range_of


class SortMismatchError(Exception):
    pass


@dataclass(frozen=True)
class InputTriple:
    env: Subst
    e1: Expr
    e2: Expr


def _triple_measure(t: InputTriple) -> frozenset[str]:
    return range_of(t.env) | vars_of(encode_tuple([t.e1, t.e2]))


@dataclass(frozen=True)
class Base:
    """A primitive relation, named by kind."""

    kind: str

    def __post_init__(self):
        if self.kind not in _BASE_STRICT:
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


_BASE_STRICT = {
    "size-lt": lambda a, b: size_of(a) < size_of(b),
    "vars-strict-subset": lambda a, b: vars_of(a) < vars_of(b),
    "subset-int-lex": lambda a, b: _expr_pair(a)[0] < _expr_pair(b)[0]
    or (_expr_pair(a)[0] == _expr_pair(b)[0] and _expr_pair(a)[1] < _expr_pair(b)[1]),
    "range-vars": lambda a, b: _triple_measure(a) < _triple_measure(b),
    "size-first": lambda a, b: size_of(a.e1) < size_of(b.e1),
}

# reflexive (weak) companions, taken on the measure each base compares
_BASE_WEAK = {
    "size-lt": lambda a, b: size_of(a) <= size_of(b),
    "vars-strict-subset": lambda a, b: vars_of(a) <= vars_of(b),
    "subset-int-lex": lambda a, b: _BASE_STRICT["subset-int-lex"](a, b) or a == b,
    "range-vars": lambda a, b: _triple_measure(a) <= _triple_measure(b),
    "size-first": lambda a, b: size_of(a.e1) <= size_of(b.e1),
}

_PROJECTIONS = {
    "first": lambda v: v[0],
    "second": lambda v: v[1],
    "vars": lambda e: vars_of(e),
    "size": lambda e: size_of(e),
    "range": lambda s: range_of(s),
    "vars-size": lambda e: (vars_of(e), size_of(e)),
}


def rel_less(spec: RelSpec, a, b) -> bool:
    """Strict comparison under the combinator tree."""
    try:
        return _strict(spec, a, b)
    except (AttributeError, TypeError) as exc:
        raise SortMismatchError(str(exc)) from exc


def rel_leq(spec: RelSpec, a, b) -> bool:
    """Reflexive companion of rel_less (measure-level for base relations)."""
    try:
        return _weak(spec, a, b)
    except (AttributeError, TypeError) as exc:
        raise SortMismatchError(str(exc)) from exc


def _strict(spec: RelSpec, a, b) -> bool:
    if isinstance(spec, Base):
        return _BASE_STRICT[spec.kind](a, b)
    if isinstance(spec, InducedBy):
        g = _PROJECTIONS[spec.projection]
        return _strict(spec.inner, g(a), g(b))
    if isinstance(spec, ReflexiveClosure):
        return _strict(spec.inner, a, b) or a == b
    first, rest = spec.parts[0], spec.parts[1:]
    tail: RelSpec = rest[0] if len(rest) == 1 else Lex(rest)
    return _strict(first, a, b) or (_weak(first, a, b) and _strict(tail, a, b))


def _weak(spec: RelSpec, a, b) -> bool:
    if isinstance(spec, Base):
        return _BASE_WEAK[spec.kind](a, b)
    if isinstance(spec, InducedBy):
        g = _PROJECTIONS[spec.projection]
        return _weak(spec.inner, g(a), g(b))
    if isinstance(spec, ReflexiveClosure):
        return _strict(spec, a, b) or a == b
    return _strict(spec, a, b) or a == b


U_REL = Lex((Base("range-vars"), Base("size-first")))


def u_less(t1: InputTriple, t2: InputTriple) -> bool:
    """The unification measure on input triples."""
    m1, m2 = _triple_measure(t1), _triple_measure(t2)
    if m1 < m2:
        return True
    return m1 <= m2 and size_of(t1.e1) < size_of(t2.e1)


def parse_relspec(datum) -> RelSpec:
    """Build a RelSpec from its s-expression (see logic.read_sexp).

    Grammar: a base name, `(base)`, `(lex r r ...)`,
    `(induced <projection> r)` or `(reflexive r)`.
    """
    if isinstance(datum, str):
        if datum in _BASE_STRICT:
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
    if head in _BASE_STRICT and not args:
        return Base(head)
    raise ValueError(f"malformed relation ({head} ...)")
