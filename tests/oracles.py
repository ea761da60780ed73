"""Independent oracles the tests use to check product behaviour.

Each one decides a property by a different route than the code under
test: the derived unification algorithm transcribed by hand, refuting
most-general idempotence with sampled unifiers, probing a relation for
strictness on sampled pairs, weak generality by matching, an
expression's variables, size and subexpressions by recursion instead of
the attributes each node keeps, composition by rebuilding the whole
binding map, the normal form of a formula and the simplified form of
a program body by the earlier algorithms that re-walk what they build,
a search row's duplicate key and weight through logic.children, and
syntactic unification that keeps its bindings resolved after each one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from tabsynth import logic as L
from tabsynth.subst import (
    BOT,
    Proper,
    Subst,
    apply,
    compose,
    dom_of,
    is_proper,
    make_subst,
    misses,
    more_general,
    replacement,
)
from tabsynth.term import Cons, Const, Expr, Var, is_atom, is_const, is_var, occurs_in
from tabsynth.unify import is_unifier
from tabsynth.wf import RelSpec, rel_less


def transcribed_unify(env: Subst, e1: Expr, e2: Expr) -> Subst:
    """The derived program's decision tree, transcribed by hand.

    The test order is fixed: properness of the environment, occurs
    check, equality, the constant cases, the variable cases (replacement
    or recursion on environment instances), then the nested recursion on
    components.  Terminates for an idempotent environment.
    """
    if not is_proper(env):
        return BOT
    if occurs_in(e1, e2, "proper"):
        return BOT
    if e1 == e2:
        return env
    if is_const(e1):
        if is_const(e2):
            return BOT
        if is_var(e2):
            return transcribed_unify(env, e2, e1)
        return BOT
    if is_var(e1):
        if misses(env, e2) and misses(env, e1):
            return compose(env, replacement(e1.name, e2))
        return transcribed_unify(env, apply(e1, env), apply(e2, env))
    if is_const(e2):
        return BOT
    if is_var(e2):
        return transcribed_unify(env, e2, e1)
    return transcribed_unify(
        transcribed_unify(env, e1.left, e2.left), e1.right, e2.right
    )


def mgi_refute_witness(
    env: Subst, e1: Expr, e2: Expr, s: Subst, witnesses: list[Subst]
) -> Optional[Subst]:
    """First witness refuting mgi(env, e1, e2, s) among the candidates.

    A refutation is a unifier of e1 and e2 extending env that s is not
    strongly more general than.
    """
    for w in witnesses:
        if is_unifier(w, e1, e2) and more_general(env, w) and not more_general(s, w):
            return w
    return None


@dataclass(frozen=True)
class StrictnessReport:
    checked: int
    irreflexivity_violations: tuple
    antisymmetry_violations: tuple

    @property
    def ok(self) -> bool:
        return not self.irreflexivity_violations and not self.antisymmetry_violations


def strictness_probe(spec: RelSpec, samples: Sequence[tuple]) -> StrictnessReport:
    """Check irreflexivity and antisymmetry over the sampled pairs."""
    irref, antisym = [], []
    for a, b in samples:
        if rel_less(spec, a, a):
            irref.append(a)
        if rel_less(spec, b, b):
            irref.append(b)
        if rel_less(spec, a, b) and rel_less(spec, b, a):
            antisym.append((a, b))
    return StrictnessReport(len(samples), tuple(irref), tuple(antisym))


def _match(pattern: Expr, target: Expr, out: dict[str, Expr]) -> bool:
    if isinstance(pattern, Var):
        if pattern.name in out:
            return out[pattern.name] == target
        out[pattern.name] = target
        return True
    if isinstance(pattern, Const):
        return pattern == target
    if is_atom(target):
        return False
    assert isinstance(pattern, Cons) and isinstance(target, Cons)
    return _match(pattern.left, target.left, out) and _match(
        pattern.right, target.right, out
    )


def reference_compose(s1: Subst, s2: Subst) -> Subst:
    """Composition as first written: s2 applied to every binding of s1, the
    bindings of s2 added, and the result rebuilt through make_subst."""
    if not (is_proper(s1) and is_proper(s2)):
        return BOT
    pairs = {x: apply(img, s2) for x, img in s1.bindings}
    for y, img in s2.bindings:
        if y not in pairs:
            pairs[y] = img
    return make_subst(pairs.items())


def weakly_more_general(s1: Proper, s2: Proper) -> Optional[Proper]:
    """Find a witness d with compose(s1, d) = s2, if one exists.

    Solved as a simultaneous matching problem over dom(s1) | dom(s2).
    """
    bindings: dict[str, Expr] = {}
    for x in sorted(dom_of(s1) | dom_of(s2)):
        if not _match(apply(Var(x), s1), apply(Var(x), s2), bindings):
            return None
    for y in sorted(dom_of(s2) - dom_of(s1)):
        bindings.setdefault(y, apply(Var(y), s2))
    witness = make_subst(bindings.items())
    if compose(s1, witness) == s2:
        return witness
    return None


def recursive_vars(e: Expr) -> frozenset[str]:
    """The variable names of e, collected by walking it."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Const):
        return frozenset()
    return recursive_vars(e.left) | recursive_vars(e.right)


def recursive_size(e: Expr) -> int:
    """The constants and conses of e, counted by walking it."""
    if isinstance(e, Var):
        return 0
    if isinstance(e, Const):
        return 1
    return 1 + recursive_size(e.left) + recursive_size(e.right)


def recursive_occurs(d: Expr, e: Expr, mode: str = "proper") -> bool:
    """The occurrence relation by its definition: d is e (reflexive mode
    only), or d occurs reflexively in a component of e."""
    if mode == "reflexive" and d == e:
        return True
    if is_atom(e):
        return False
    assert isinstance(e, Cons)
    return recursive_occurs(d, e.left, "reflexive") or recursive_occurs(
        d, e.right, "reflexive"
    )


def reference_normalize(f: L.Formula) -> L.Formula:
    """logic.normalize as it was before negate and junction: a negated
    junction is rebuilt from negations and normalized again."""
    if isinstance(f, (L.TrueF, L.FalseF, L.Atom, L.Eq)):
        return f
    if isinstance(f, L.Not):
        body = reference_normalize(f.body)
        if isinstance(body, L.TrueF):
            return L.FALSE
        if isinstance(body, L.FalseF):
            return L.TRUE
        if isinstance(body, L.Not):
            return body.body
        if isinstance(body, L.And):
            return reference_normalize(L.Or(tuple(L.Not(p) for p in body.parts)))
        if isinstance(body, L.Or):
            return reference_normalize(L.And(tuple(L.Not(p) for p in body.parts)))
        if isinstance(body, L.Implies):
            return reference_normalize(L.And((body.antecedent, L.Not(body.consequent))))
        return L.Not(body)
    if isinstance(f, L.And):
        return _reference_junction(f.parts, L.And, L.TrueF, L.FalseF)
    if isinstance(f, L.Or):
        return _reference_junction(f.parts, L.Or, L.FalseF, L.TrueF)
    if isinstance(f, L.Implies):
        p = reference_normalize(f.antecedent)
        q = reference_normalize(f.consequent)
        if isinstance(p, L.TrueF):
            return q
        if isinstance(p, L.FalseF) or isinstance(q, L.TrueF):
            return L.TRUE
        if isinstance(q, L.FalseF):
            return reference_normalize(L.Not(p))
        return L.Implies(p, q)
    if isinstance(f, L.Iff):
        lhs = reference_normalize(f.lhs)
        rhs = reference_normalize(f.rhs)
        if lhs == rhs:
            return L.TRUE
        if isinstance(lhs, L.TrueF):
            return rhs
        if isinstance(rhs, L.TrueF):
            return lhs
        if isinstance(lhs, L.FalseF):
            return reference_normalize(L.Not(rhs))
        if isinstance(rhs, L.FalseF):
            return reference_normalize(L.Not(lhs))
        return L.Iff(lhs, rhs)
    return f


def _reference_junction(parts, ctor, unit, absorber) -> L.Formula:
    flat: list[L.Formula] = []
    for p in parts:
        p = reference_normalize(p)
        if isinstance(p, unit):
            continue
        if isinstance(p, absorber):
            return absorber()
        if isinstance(p, ctor):
            flat.extend(q for q in p.parts if q not in flat)
        elif p not in flat:
            flat.append(p)
    if not flat:
        return unit()
    if len(flat) == 1:
        return flat[0]
    return ctor(tuple(flat))


def reference_simplify(body: L.LTerm) -> L.LTerm:
    """program.simplify as a fixpoint of two rewriting passes: one takes
    the branch of each test an enclosing test on its path decided, the
    other collapses constant tests and equal branches before it removes a
    repeated test."""
    while True:
        new = _reference_simplify_once(_decide(body, {}))
        if new == body:
            return new
        body = new


def _decide(t: L.LTerm, decided: dict) -> L.LTerm:
    # decided: the tests of the conditionals above t, each with its branch's value
    if isinstance(t, L.Apply):
        return L.Apply(t.fn, tuple(_decide(a, decided) for a in t.args))
    if not isinstance(t, L.Cond):
        return t
    if t.test in decided:
        return _decide(t.then if decided[t.test] else t.els, decided)
    then = _decide(t.then, {**decided, t.test: True})
    return L.Cond(t.test, then, _decide(t.els, {**decided, t.test: False}))


def _reference_simplify_once(t: L.LTerm) -> L.LTerm:
    if isinstance(t, L.Apply):
        return L.Apply(t.fn, tuple(_reference_simplify_once(a) for a in t.args))
    if not isinstance(t, L.Cond):
        return t
    test = t.test
    then = _reference_simplify_once(t.then)
    els = _reference_simplify_once(t.els)
    if isinstance(test, L.TrueF):
        return then
    if isinstance(test, L.FalseF):
        return els
    if then == els:
        return then
    if isinstance(then, L.Cond) and then.test == test:
        then = then.then
    if isinstance(els, L.Cond) and els.test == test:
        els = els.els
    return L.Cond(test, then, els)


def reference_key_and_weight(row, config) -> tuple[tuple, int]:
    """engine._key_and_weight as it was before it read arguments itself: every
    node's children through logic.children, pushed reversed."""
    weights, numbers, total = config.weights, {}, 0
    key: list = [row.kind, row.output is None]
    stack = [row.formula]
    while stack:
        n = stack.pop()
        typ = type(n)
        if typ is L.MetaVar:
            key += (typ, numbers.setdefault(n.name, len(numbers)), n.sort)
            total += 1
            continue
        kids = L.children(n)
        stack.extend(reversed(kids))
        symbol = n.pred if typ is L.Atom else n.fn if typ is L.Apply else None
        if symbol is None:
            key += (typ, len(kids))
            total += weights.get("=", 1) if typ is L.Eq else 1
        else:
            key += (typ, symbol, len(kids))
            total += weights.get(symbol, 1)
    return tuple(key), total


def reference_canonical(item) -> tuple:
    """logic.canonical as it was before it read arguments itself: the
    pre-order heads and arities of item, through logic.nodes, logic.head and
    logic.children, a metavar as (MetaVar, n, sort) numbered by first
    occurrence; a tuple of nodes or None read entry by entry."""
    numbers: dict[str, int] = {}
    out: list = []
    for part in item if isinstance(item, tuple) else (item,):
        if part is None:
            out.append(None)
            continue
        for n in L.nodes(part):
            if type(n) is L.MetaVar:
                out += (L.MetaVar, numbers.setdefault(n.name, len(numbers)), n.sort)
            else:
                out += L.head(n)
                out.append(len(L.children(n)))
    return tuple(out)


def reference_term_unify(a, b, sig=None) -> Optional[L.MetaSubst]:
    """logic.term_unify as it was before its bindings were triangular: each
    binding's term is substituted by the bindings made so far, tested for
    occurs through logic.metavars_of, and substituted into every earlier
    binding, so the bindings are idempotent after each one."""
    sig = sig or L.default_signature()
    sub: L.MetaSubst = {}
    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        x = sub.get(x.name, x) if type(x) is L.MetaVar else x
        y = sub.get(y.name, y) if type(y) is L.MetaVar else y
        if x is y or (type(x) is L.MetaVar and x == y):
            continue
        if type(x) is not L.MetaVar and type(y) is not L.MetaVar:
            xk, yk = L.children(x), L.children(y)
            if L.head(x) != L.head(y) or len(xk) != len(yk):
                return None
            pairs.extend(zip(reversed(xk), reversed(yk)))
            continue
        v, t = (x, y) if type(x) is L.MetaVar else (y, x)
        if not isinstance(t, (L.MetaVar, L.Apply, L.Cond)):
            return None
        t = L.apply_subst(t, sub)
        if v.sort != "?" and L.sort_of(t, sig) != v.sort or v in L.metavars_of(t):
            return None
        one = {v.name: t}
        sub = {name: L.apply_subst(s, one) for name, s in sub.items()} | one
    return sub
