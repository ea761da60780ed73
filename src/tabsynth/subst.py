"""Substitutions over symbolic expressions.

A substitution is either a proper finite binding map (variable name to
expression, identities removed) or the failure substitution ``bot``,
which maps every expression to the black hole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .term import (
    BLACK_HOLE,
    Cons,
    Expr,
    Var,
    build_expr,
    print_expr,
    read_sexp,
    shared_varset,
)


_NO_NAMES: frozenset[str] = frozenset()


class SubstError(Exception):
    pass


class DuplicateVariableError(SubstError):
    pass


@dataclass(frozen=True)
class Failure:
    """The failure substitution; maps every expression to the black hole."""

    def __repr__(self) -> str:
        return "bot"


BOT = Failure()


class Proper:
    """A proper substitution: its identity-free binding map, with the map's
    domain and range (the variables of its images) set at construction.
    Equality compares maps; the bindings are sorted only when read."""

    __slots__ = ("map", "domain", "range")

    def __init__(self, image: dict[str, Expr]):
        self.map = image
        self.domain = shared_varset(frozenset(image)) if image else _NO_NAMES
        self.range = _union(e.vars for e in image.values())

    @property
    def bindings(self) -> tuple[tuple[str, Expr], ...]:
        return tuple(sorted(self.map.items()))  # names differ: no image compared

    def __eq__(self, other):
        return type(other) is Proper and self.map == other.map

    def __hash__(self) -> int:
        return hash(self.bindings)

    def __repr__(self) -> str:
        return print_subst(self)


Subst = Union[Proper, Failure]


def _union(sets: Iterable[frozenset[str]]) -> frozenset[str]:
    # reuses an operand that already holds the others, as a Cons does
    out = _NO_NAMES
    for names in sets:
        if not names <= out:
            out = names if out <= names else shared_varset(out | names)
    return out


def make_subst(pairs: Iterable[tuple[str, Expr]]) -> Proper:
    """Build a proper substitution; identity pairs are dropped."""
    seen: dict[str, Expr] = {}
    for name, image in pairs:
        if name in seen:
            raise DuplicateVariableError(f"variable {name} bound twice")
        seen[name] = image
    return Proper({n: e for n, e in seen.items() if not (isinstance(e, Var) and e.name == n)})


EMPTY = make_subst([])


def is_proper(s: Subst) -> bool:
    return isinstance(s, Proper)


def apply(e: Expr, s: Subst) -> Expr:
    """Apply s to e: simultaneous replacement; bot yields the black hole.

    A subexpression with no variable in dom(s) comes back as the same
    object, not a copy.
    """
    if isinstance(s, Failure):
        return BLACK_HOLE
    if e.vars.isdisjoint(s.domain):
        return e
    return _replace_vars(e, s.map, s.domain)


def _replace_vars(e: Expr, image: dict[str, Expr], dom: frozenset[str]) -> Expr:
    # e holds a variable of dom, so it is that variable or a cons
    if isinstance(e, Var):
        return image[e.name]
    left, right = e.left, e.right
    if not left.vars.isdisjoint(dom):
        left = _replace_vars(left, image, dom)
    if not right.vars.isdisjoint(dom):
        right = _replace_vars(right, image, dom)
    return Cons(left, right)


def compose(s1: Subst, s2: Subst) -> Subst:
    """Sequential composition: apply(e, compose(s1, s2)) = apply(apply(e, s1), s2)."""
    if isinstance(s1, Failure) or isinstance(s2, Failure):
        return BOT
    if not (s1.map and s2.map):
        return s1 if s1.map else s2
    image, dom = s2.map, s2.domain
    out = dict(image)  # the bindings of s1 replace or drop those they share
    for x, e in s1.map.items():
        if not e.vars.isdisjoint(dom):
            e = _replace_vars(e, image, dom)
            if type(e) is Var and e.name == x:
                out.pop(x, None)
                continue
        out[x] = e
    return Proper(out)


def replacement(x: str, e: Expr) -> Proper:
    """The single-variable substitution {x -> e}; {x -> x} is empty."""
    return EMPTY if type(e) is Var and e.name == x else Proper({x: e})


def dom_of(s: Subst) -> frozenset[str]:
    if isinstance(s, Failure):
        return _NO_NAMES
    return s.domain


def range_of(s: Subst) -> frozenset[str]:
    if isinstance(s, Failure):
        return _NO_NAMES
    return s.range


def misses(s: Subst, e: Expr) -> bool:
    """True iff applying s leaves e unchanged.

    For a proper s that is no variable of e in dom(s), since s binds no
    variable to itself; bot changes every expression but the black hole.
    """
    if isinstance(s, Failure):
        return e == BLACK_HOLE
    return e.vars.isdisjoint(s.domain)


def is_idempotent(s: Subst) -> bool:
    """True iff s composed with itself equals s."""
    if isinstance(s, Failure):
        return True
    return s.domain.isdisjoint(s.range)


def more_general(s1: Subst, s2: Subst) -> bool:
    """Strong generality, compose(s1, s2) = s2, decided binding by binding."""
    if isinstance(s1, Failure) or isinstance(s2, Failure):
        return isinstance(s2, Failure)
    image, dom = s2.map, s2.domain
    for x, e in s1.map.items():
        if not e.vars.isdisjoint(dom):
            e = _replace_vars(e, image, dom)
        want = image.get(x)
        if not (e == want if want is not None else type(e) is Var and e.name == x):
            return False
    return True


def print_subst(s: Subst) -> str:
    if isinstance(s, Failure):
        return "bot"
    inner = ", ".join(f"{x} -> {print_expr(e)}" for x, e in s.bindings)
    return "{" + inner + "}"


def parse_subst(text: str) -> Subst:
    """Parse '{}', 'bot' or '{X -> a, Y -> (b . Z)}'.

    The braces' content is read as one list and split at ',' tokens.
    """
    stripped = text.strip()
    if stripped == "bot":
        return BOT
    if len(stripped) < 2 or stripped[0] != "{" or stripped[-1] != "}":
        raise SubstError(f"not a substitution: {text!r}")
    body = read_sexp(f"({stripped[1:-1]})")  # positions as in stripped
    if not body:
        return EMPTY
    bindings: list[list] = [[]]
    for item in body:
        if item == ",":
            bindings.append([])
        else:
            bindings[-1].append(item)
    pairs = []
    for i, binding in enumerate(bindings, start=1):
        if len(binding) != 3 or binding[1] != "->":
            raise SubstError(f"binding {i} is not 'variable -> expression'")
        name = build_expr(binding[0])
        if not isinstance(name, Var):
            raise SubstError(f"bound name {print_expr(name)} is not a variable")
        pairs.append((name.name, build_expr(binding[2])))
    return make_subst(pairs)
