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
    Const,
    Expr,
    Var,
    parse_expr,
    print_expr,
    vars_of,
)


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


@dataclass(frozen=True)
class Proper:
    """A proper substitution: sorted, identity-free binding pairs."""

    bindings: tuple[tuple[str, Expr], ...] = field(default=())

    def mapping(self) -> dict[str, Expr]:
        return dict(self.bindings)

    def __repr__(self) -> str:
        return print_subst(self)


Subst = Union[Proper, Failure]


def make_subst(pairs: Iterable[tuple[str, Expr]]) -> Proper:
    """Build a proper substitution; identity pairs are dropped."""
    seen: dict[str, Expr] = {}
    for name, image in pairs:
        if name in seen:
            raise DuplicateVariableError(f"variable {name} bound twice")
        seen[name] = image
    kept = {n: e for n, e in seen.items() if e != Var(n)}
    return Proper(tuple(sorted(kept.items(), key=lambda kv: kv[0])))


EMPTY = make_subst([])


def is_proper(s: Subst) -> bool:
    return isinstance(s, Proper)


def apply(e: Expr, s: Subst) -> Expr:
    """Apply s to e: simultaneous replacement; bot yields the black hole."""
    if isinstance(s, Failure):
        return BLACK_HOLE
    if isinstance(e, Var):
        return s.mapping().get(e.name, e)
    if isinstance(e, Const):
        return e
    return Cons(apply(e.left, s), apply(e.right, s))


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
        return frozenset()
    return frozenset(n for n, _ in s.bindings)


def range_of(s: Subst) -> frozenset[str]:
    if isinstance(s, Failure):
        return frozenset()
    out: frozenset[str] = frozenset()
    for _, img in s.bindings:
        out |= vars_of(img)
    return out


def misses(s: Subst, e: Expr) -> bool:
    """True iff applying s leaves e unchanged."""
    return apply(e, s) == e


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
    """Parse '{}', 'bot' or '{X -> a, Y -> (b . Z)}'."""
    stripped = text.strip()
    if stripped == "bot":
        return BOT
    if not (stripped.startswith("{") and stripped.endswith("}")):
        raise SubstError(f"not a substitution: {text!r}")
    body = stripped[1:-1].strip()
    if not body:
        return EMPTY
    pairs = []
    for part in _split_bindings(body):
        if "->" not in part:
            raise SubstError(f"missing '->' in binding {part!r}")
        name, image = part.split("->", 1)
        name = name.strip()
        if not name or not name[0].isupper():
            raise SubstError(f"bound name {name!r} is not a variable")
        pairs.append((name, parse_expr(image.strip())))
    return make_subst(pairs)


def _split_bindings(body: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return parts
