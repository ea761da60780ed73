"""Environment-carrying unification and its specification predicates.

``reference_unify`` runs the bundled program derived by the tableau
(``data/unify_program.golden``).  ``oracle_unify`` is an independent
textbook algorithm used to cross-check it and to decide the
most-general idempotence relation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources

from .term import Cons, Expr, Var, vars_of
from .subst import (
    BOT,
    Subst,
    apply,
    compose,
    is_idempotent,
    is_proper,
    make_subst,
    more_general,
    range_of,
)


def reference_unify(env: Subst, e1: Expr, e2: Expr, fuel: int = 10000) -> Subst:
    """Unify e1 and e2 as an extension of env, or return bot.

    Runs the derived program unchecked.  fuel bounds its self-calls;
    only a non-idempotent environment can exhaust it (FuelExhaustedError).
    """
    program, golden = _golden()
    return program.run(golden, (env, e1, e2), fuel)


@functools.cache
def _golden():
    # loaded on first use: program imports logic, which imports this module
    from . import program

    text = resources.files("tabsynth.data").joinpath("unify_program.golden").read_text()
    return program, program.parse_program(text)


def _dapply(e: Expr, sol: dict[str, Expr]) -> Expr:
    # local substitution application so the oracle shares no logic with
    # the derived program beyond the data types; a subtree whose variables
    # sol does not bind is kept as it is
    if e.vars.isdisjoint(sol):
        return e
    if isinstance(e, Var):
        return sol[e.name]
    return Cons(_dapply(e.left, sol), _dapply(e.right, sol))


def _dbind(sol: dict[str, Expr], name: str, image: Expr) -> None:
    one = {name: image}
    for k in list(sol):
        sol[k] = _dapply(sol[k], one)
    sol[name] = image


def _mm_solve(env: Subst, a: Expr, b: Expr) -> Subst:
    """Unify env's instances a and b, and compose the unifier with env.

    Worklist unification with occurs check; bot when there is none.
    """
    sol: dict[str, Expr] = {}
    work = [(a, b)]
    while work:
        s, t = work.pop()
        s, t = _dapply(s, sol), _dapply(t, sol)
        if s == t:
            continue
        if isinstance(s, Var):
            if s.name in vars_of(t):
                return BOT
            _dbind(sol, s.name, t)
        elif isinstance(t, Var):
            if t.name in vars_of(s):
                return BOT
            _dbind(sol, t.name, s)
        elif isinstance(s, Cons) and isinstance(t, Cons):
            work.append((s.right, t.right))
            work.append((s.left, t.left))
        else:
            return BOT
    out = compose(env, make_subst(sol.items()))
    assert is_idempotent(out), "oracle produced a non-idempotent unifier"
    return out


def oracle_unify(env: Subst, e1: Expr, e2: Expr) -> Subst:
    """Textbook cross-check: unify the env-instances, then compose with env.

    Requires a proper, idempotent environment.  Returns an idempotent
    extension of env unifying e1 and e2, or bot when none exists.
    """
    if not (is_proper(env) and is_idempotent(env)):
        raise ValueError("oracle_unify requires a proper idempotent environment")
    return _mm_solve(env, apply(e1, env), apply(e2, env))


def is_unifier(s: Subst, e1: Expr, e2: Expr) -> bool:
    """True iff applying s makes e1 and e2 identical."""
    return apply(e1, s) == apply(e2, s)


def reduce_holds(env: Subst, v: frozenset[str], s: Subst) -> bool:
    """The reduction relation: range(s) within range(env) union v."""
    return range_of(s) <= range_of(env) | v


def mgi_decide(env: Subst, e1: Expr, e2: Expr, s: Subst) -> bool:
    """Decide the most-general idempotence relation through the oracle.

    If the expressions are ununifiable over env the relation holds
    vacuously; otherwise s must be strongly more general than the
    oracle's unifier (itself most-general idempotent, so the comparison
    is sound and complete by mutual generality).
    """
    best = oracle_unify(env, e1, e2)
    return best == BOT or more_general(s, best)


@dataclass(frozen=True)
class MgiuReport:
    """The four conjuncts of the unification output contract."""

    unifier_ok: bool
    extension_ok: bool
    most_general_ok: bool
    reduce_ok: bool
    oracle_used: Subst

    @property
    def ok(self) -> bool:
        return (
            self.unifier_ok
            and self.extension_ok
            and self.most_general_ok
            and self.reduce_ok
        )


def mgiu_check(env: Subst, e1: Expr, e2: Expr, s: Subst) -> MgiuReport:
    """Check that s is a most-general idempotent reducing unifier for env."""
    if not (is_proper(env) and is_idempotent(env)):
        raise ValueError("mgiu_check requires a proper idempotent environment")
    # env is applied once: the instances give both v and the oracle's input
    a1, a2 = apply(e1, env), apply(e2, env)
    best = _mm_solve(env, a1, a2)
    return MgiuReport(
        unifier_ok=is_unifier(s, e1, e2),
        extension_ok=more_general(env, s),
        most_general_ok=best == BOT or more_general(s, best),
        reduce_ok=reduce_holds(env, a1.vars | a2.vars, s),
        oracle_used=best,
    )
