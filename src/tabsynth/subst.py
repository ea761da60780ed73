"""Substitutions over symbolic expressions.

A substitution is either a proper finite binding map (variable name to
expression, identities removed) or the failure substitution ``bot``,
which maps every expression to the black hole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True, slots=True)
class Proper:
    """A proper substitution: sorted, identity-free binding pairs.

    The binding map, its domain and its range (the variables of its
    images) are kept from construction; they take no part in equality,
    hashing or printing.
    """

    bindings: tuple[tuple[str, Expr], ...] = field(default=())
    map: dict[str, Expr] = field(init=False, compare=False, repr=False)
    domain: frozenset[str] = field(init=False, compare=False, repr=False)
    range: frozenset[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        image = dict(self.bindings)
        object.__setattr__(self, "map", image)
        object.__setattr__(
            self, "domain", shared_varset(frozenset(image)) if image else _NO_NAMES
        )
        object.__setattr__(self, "range", _union(e.vars for e in image.values()))

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
    kept = {n: e for n, e in seen.items() if not (isinstance(e, Var) and e.name == n)}
    return Proper(tuple(sorted(kept.items(), key=lambda kv: kv[0])))


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
    pairs = {x: apply(img, s2) for x, img in s1.bindings}
    for y, img in s2.bindings:
        if y not in pairs:
            pairs[y] = img
    return make_subst(pairs.items())


def replacement(x: str, e: Expr) -> Proper:
    """The single-variable substitution {x -> e}; {x -> x} is empty."""
    return make_subst([(x, e)])


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
    return not (dom_of(s) & range_of(s))


def more_general(s1: Subst, s2: Subst) -> bool:
    """Strong generality: compose(s1, s2) = s2 (s2 extends s1)."""
    return compose(s1, s2) == s2


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
