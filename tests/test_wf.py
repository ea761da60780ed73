import random

import pytest
from hypothesis import given, strategies as st

from tabsynth.subst import parse_subst
from tabsynth.term import Const, Var, parse_expr, read_sexp, size_of, vars_of
from tabsynth.wf import (
    Base,
    InducedBy,
    Lex,
    ReflexiveClosure,
    SortMismatchError,
    U_REL,
    parse_relspec,
    _order,
    rel_less,
    u_less,
    u_measure,
)

from genlib import rand_expr, rand_subst
from oracles import strictness_probe

rngs = st.integers(0, 10**9).map(random.Random)


def triple(env, e1, e2):
    return parse_subst(env), parse_expr(e1), parse_expr(e2)


def rand_triple(rng):
    return rand_subst(rng), rand_expr(rng, 3), rand_expr(rng, 3)


def test_base_relations():
    assert rel_less(Base("size-lt"), Var("X"), Const("a"))
    assert not rel_less(Base("size-lt"), Const("a"), Var("X"))
    assert rel_less(Base("vars-strict-subset"), Const("a"), Var("X"))
    lex = Lex((Base("vars-strict-subset"), Base("size-lt")))
    # first component decides regardless of the size ordering
    assert rel_less(lex, Const("a"), Var("X"))
    assert size_of(Const("a")) > size_of(Var("X"))


def test_sort_mismatch():
    with pytest.raises(SortMismatchError):
        rel_less(Base("range-vars"), Const("a"), Const("b"))
    # a tuple too short for a triple measure is a sort mismatch, not an IndexError
    with pytest.raises(SortMismatchError):
        rel_less(Base("size-first"), (Const("a"),), (Const("b"),))


def u_lt(t1, t2):
    """U_REL's hand-stated order on input triples."""
    return u_less(u_measure(t1), u_measure(t2))


def test_u_less_examples():
    assert u_lt(triple("{}", "X", "a"), triple("{}", "(X . b)", "(a . Y)"))
    assert u_lt(triple("{}", "X", "(a . X)"), triple("{}", "(a . X)", "X"))
    t = triple("{X -> a}", "(X . Y)", "b")
    assert not u_lt(t, t)


def test_u_rel_relspec_agrees_with_u_less():
    # the combinator form of U_REL against its hand statement, which
    # rel_less(U_REL, ...) runs
    measure, less = _order(U_REL)
    rng = random.Random(7)
    for _ in range(500):
        t1, t2 = rand_triple(rng), rand_triple(rng)
        assert less(measure(t1), measure(t2)) == u_lt(t1, t2) == rel_less(U_REL, t1, t2)


def test_strictness_probes():
    rng = random.Random(11)
    triples = [(rand_triple(rng), rand_triple(rng)) for _ in range(1000)]
    assert strictness_probe(U_REL, triples).ok
    exprs = [(rand_expr(rng), rand_expr(rng)) for _ in range(500)]
    assert strictness_probe(Base("size-lt"), exprs).ok
    # swapping the component order keeps strictness (it is order-independent)
    swapped = Lex((Base("size-first"), Base("range-vars")))
    assert strictness_probe(swapped, triples).ok


@given(rngs)
def test_lex_definitional_equivalence(rng):
    lex = Lex((Base("vars-strict-subset"), Base("size-lt")))
    a, b = rand_expr(rng, 3), rand_expr(rng, 3)
    plain = rel_less(Base("vars-strict-subset"), a, b) or (
        a == b and rel_less(Base("size-lt"), a, b)
    )
    reflexive_form = rel_less(Base("vars-strict-subset"), a, b) or (
        (rel_less(Base("vars-strict-subset"), a, b) or a == b)
        and rel_less(Base("size-lt"), a, b)
    )
    assert plain == reflexive_form
    assert rel_less(lex, a, b) or not plain  # the measure form subsumes the plain one


@given(rngs)
def test_induced_by_law(rng):
    spec = InducedBy("size", Base("subset-int-lex"))
    a, b = rand_expr(rng, 3), rand_expr(rng, 3)
    # induced comparison equals comparing the projections directly
    inner = InducedBy("vars-size", Base("subset-int-lex"))
    assert rel_less(inner, a, b) == rel_less(
        Base("subset-int-lex"), (vars_of(a), size_of(a)), (vars_of(b), size_of(b))
    )


@given(rngs)
def test_lex_vars_size_equals_induced_vars_size(rng):
    a, b = rand_expr(rng, 3), rand_expr(rng, 3)
    lex = Lex((Base("vars-strict-subset"), Base("size-lt")))
    induced = InducedBy("vars-size", Base("subset-int-lex"))
    assert rel_less(lex, a, b) == rel_less(induced, a, b)


@given(rngs)
def test_u_less_irreflexive_antisymmetric(rng):
    t1, t2 = rand_triple(rng), rand_triple(rng)
    assert not u_lt(t1, t1)
    assert not (u_lt(t1, t2) and u_lt(t2, t1))


@given(rngs)
def test_weakly_decreasing_chains(rng):
    # build a weakly decreasing chain under the reflexive closure
    chain = [rand_triple(rng)]
    for _ in range(6):
        prev = chain[-1]
        if rng.random() < 0.5:
            chain.append(prev)
        else:
            smaller = (prev[0], rand_expr(rng, 1), prev[2])
            if u_lt(smaller, prev):
                chain.append(smaller)
            else:
                chain.append(prev)
    closure = ReflexiveClosure(U_REL)
    assert all(rel_less(closure, b, a) for a, b in zip(chain, chain[1:]))
    if not any(u_lt(b, a) for a, b in zip(chain, chain[1:])):
        assert all(t == chain[0] for t in chain)


def test_parse_relspec():
    assert parse_relspec(read_sexp("(lex (range-vars) (size-first))")) == U_REL
    assert parse_relspec(read_sexp("size-lt")) == Base("size-lt")
    assert parse_relspec(read_sexp("(reflexive (size-lt))")) == ReflexiveClosure(
        Base("size-lt")
    )
    assert parse_relspec(read_sexp("(induced vars-size (subset-int-lex))")) == InducedBy(
        "vars-size", Base("subset-int-lex")
    )
    with pytest.raises(ValueError):
        parse_relspec(read_sexp("(lex (size-lt))"))


def test_ill_sorted_lex_part_is_measured_only_when_reached():
    lex = Lex((Base("size-lt"), Base("range-vars")))
    # size-lt decides, so the ill-sorted range-vars part is never measured
    assert rel_less(lex, Var("X"), parse_expr("(a . b)"))
    assert not rel_less(lex, parse_expr("(a . b)"), Var("X"))
    # equal sizes reach it
    with pytest.raises(SortMismatchError):
        rel_less(lex, Var("X"), Var("Y"))
