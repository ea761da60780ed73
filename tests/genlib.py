"""Seeded random generators shared by the test modules.

Expressions are drawn over a small alphabet of variables and constants;
environments are filtered to proper idempotent substitutions, matching
the reference algorithm's precondition.  Texts are written with random
spacing, to be read back.
"""

from __future__ import annotations

import random

from tabsynth.subst import EMPTY, Proper, Subst, is_idempotent, make_subst, print_subst
from tabsynth.term import NIL, Cons, Const, Expr, Var

VAR_NAMES = ["X", "Y", "Z", "W"]
CONST_NAMES = ["a", "b", "c"]


def rand_expr(rng: random.Random, depth: int = 4, atom_bias: float = 0.4) -> Expr:
    if depth <= 0 or rng.random() < atom_bias:
        if rng.random() < 0.5:
            return Var(rng.choice(VAR_NAMES))
        return Const(rng.choice(CONST_NAMES))
    return Cons(
        rand_expr(rng, depth - 1, atom_bias), rand_expr(rng, depth - 1, atom_bias)
    )


def rand_subst(rng: random.Random, depth: int = 2) -> Proper:
    names = rng.sample(VAR_NAMES, rng.randint(0, len(VAR_NAMES)))
    return make_subst((n, rand_expr(rng, depth)) for n in names)


def rand_idempotent_env(rng: random.Random, depth: int = 2) -> Proper:
    for _ in range(50):
        s = rand_subst(rng, depth)
        if is_idempotent(s):
            return s
    return EMPTY


def spaced_text(e: Expr, rng: random.Random) -> str:
    """e's text with spacing drawn at every gap, none included.

    A nil-terminated spine is written in list form when rng says so.
    """
    if not isinstance(e, Cons):
        return e.name
    items, tail = [], e
    while isinstance(tail, Cons):
        items.append(tail.left)
        tail = tail.right
    if tail == NIL and rng.random() < 0.5:
        sep = rng.choice([" ", "  ", "\n "])
        return f"({_gap(rng)}{sep.join(spaced_text(i, rng) for i in items)}{_gap(rng)})"
    left, right = spaced_text(e.left, rng), spaced_text(e.right, rng)
    return f"({_gap(rng)}{left}{_gap(rng)}.{_gap(rng)}{right}{_gap(rng)})"


def spaced_subst_text(s: Subst, rng: random.Random) -> str:
    """s's text as spaced_text writes its images, spacing drawn likewise."""
    if not isinstance(s, Proper):
        return print_subst(s)
    bindings = [
        f"{_gap(rng)}{x}{_gap(rng)}->{_gap(rng)}{spaced_text(e, rng)}{_gap(rng)}"
        for x, e in s.bindings
    ]
    return "{" + ",".join(bindings) + "}"


def _gap(rng: random.Random) -> str:
    return rng.choice(["", " ", "  ", "\n"])
