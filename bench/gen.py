"""Seeded input generator for the benchmark workloads.

The small triples follow the distribution of the test suite's generator:
expressions over the variables X Y Z W and the constants a b c, built
with an atom bias of 0.4, and environments filtered to proper idempotent
substitutions (the precondition of the unifiers).  Everything is drawn
from one `random.Random(seed)`, so a seed fixes the inputs exactly.

Only the data constructors of `tabsynth.term` and `tabsynth.subst` are
used here, plus `subst.is_idempotent` as the environment filter, as in
the test generator.
"""

from __future__ import annotations

import random

from tabsynth.subst import EMPTY, Proper, is_idempotent, make_subst
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


def rand_idempotent_env(rng: random.Random, depth: int = 2) -> Proper:
    for _ in range(50):
        names = rng.sample(VAR_NAMES, rng.randint(0, len(VAR_NAMES)))
        s = make_subst((n, rand_expr(rng, depth)) for n in names)
        if is_idempotent(s):
            return s
    return EMPTY


def small_triples(seed: int, count: int) -> list[tuple[Proper, Expr, Expr]]:
    """(env, e1, e2) with environment depth 2 and expression depth 4."""
    rng = random.Random(seed)
    return [
        (rand_idempotent_env(rng, 2), rand_expr(rng, 4), rand_expr(rng, 4))
        for _ in range(count)
    ]


def _generalize(rng: random.Random, e: Expr, p: float) -> Expr:
    """A copy of e with random subtrees replaced by variables."""
    if rng.random() < p:
        return Var(rng.choice(VAR_NAMES))
    if isinstance(e, Cons):
        return Cons(_generalize(rng, e.left, p), _generalize(rng, e.right, p))
    return e


def large_pairs(seed: int, count: int) -> list[tuple[Proper, Expr, Expr]]:
    """(env, e1, e2) of depth about 10.

    e2 is e1 with random subtrees replaced by variables, so that a useful
    share of the pairs unify and the unifier has real work to do; the
    rest clash or fail the occurs check part way down.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        env = rand_idempotent_env(rng, 2)
        e1 = rand_expr(rng, 10, atom_bias=0.15)
        out.append((env, e1, _generalize(rng, e1, 0.1)))
    return out


def shuffled_offsets(seed: int, count: int) -> list[int]:
    """-count/2 .. count/2-1 in a seeded order."""
    offsets = list(range(-(count // 2), count - count // 2))
    random.Random(seed).shuffle(offsets)
    return offsets


def var_list(n: int) -> Expr:
    """The nil-terminated list (X0 ... Xn-1)."""
    out: Expr = NIL
    for i in reversed(range(n)):
        out = Cons(Var(f"X{i}"), out)
    return out


def const_list(n: int) -> Expr:
    """The nil-terminated list (a ... a) of length n."""
    out: Expr = NIL
    for _ in range(n):
        out = Cons(Const("a"), out)
    return out
