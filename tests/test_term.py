import random

import pytest
from hypothesis import given, strategies as st

from tabsynth.term import (
    BLACK_HOLE,
    NIL,
    AtomicExpressionError,
    Cons,
    Const,
    ExprSyntaxError,
    Var,
    encode_tuple,
    is_atom,
    left_of,
    occurs_in,
    parse_expr,
    print_expr,
    right_of,
    size_of,
    vars_of,
)

from genlib import rand_expr

exprs = st.recursive(
    st.one_of(
        st.sampled_from([Const("a"), Const("b"), NIL, BLACK_HOLE]),
        st.sampled_from([Var("X"), Var("Y"), Var("Z")]),
    ),
    lambda inner: st.builds(Cons, inner, inner),
    max_leaves=12,
)


def test_parse_dotted_pair():
    assert parse_expr("(a . X)") == Cons(Const("a"), Var("X"))


def test_parse_list_sugar():
    assert parse_expr("(a b)") == Cons(Const("a"), Cons(Const("b"), NIL))
    assert parse_expr("(a (X b) nil)") == encode_tuple(
        [Const("a"), encode_tuple([Var("X"), Const("b")]), NIL]
    )


def test_parse_black_hole():
    assert parse_expr("*") == BLACK_HOLE


def test_parse_reports_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("(a . ))")
    assert err.value.pos == 5


def test_print_canonical():
    assert print_expr(Cons(Const("a"), Var("X"))) == "(a . X)"
    assert print_expr(NIL) == "nil"
    assert print_expr(parse_expr("(a b)")) == "(a . (b . nil))"


def test_destructure():
    e = parse_expr("(a . (b . nil))")
    assert (left_of(e), right_of(e)) == (Const("a"), parse_expr("(b . nil)"))
    for part in (left_of, right_of):
        with pytest.raises(AtomicExpressionError):
            part(Const("a"))


def test_size():
    assert size_of(Var("X")) == 0
    assert size_of(Const("a")) == 1
    # unfolding the recursion: 1 + size(a) + (1 + size(a) + size(X))
    assert size_of(parse_expr("(a . (a . X))")) == 4


def test_vars():
    assert vars_of(parse_expr("(X . X)")) == {"X"}
    assert vars_of(Const("a")) == frozenset()
    assert vars_of(parse_expr("(X . (a . Y))")) == {"X", "Y"}


def test_occurrence():
    a, x = Const("a"), Var("X")
    assert occurs_in(a, parse_expr("(a . X)"), "proper")
    assert not occurs_in(x, x, "proper")
    assert occurs_in(x, x, "reflexive")
    assert occurs_in(x, parse_expr("(X . X)"), "proper")


def test_tuple_codec():
    assert encode_tuple([Const("a"), Var("X")]) == parse_expr("(a . (X . nil))")


@given(exprs)
def test_nonatomic_reconstruction(e):
    if not is_atom(e):
        assert Cons(left_of(e), right_of(e)) == e


@given(exprs, exprs)
def test_occurrence_implies_smaller(d, e):
    if occurs_in(d, e, "proper"):
        assert size_of(d) < size_of(e)
    if not is_atom(e):
        assert size_of(e.left) < size_of(e)
        assert size_of(e.right) < size_of(e)


@given(exprs, exprs)
def test_occurrence_implies_vars_subset(d, e):
    if occurs_in(d, e, "reflexive"):
        assert vars_of(d) <= vars_of(e)


@given(st.lists(exprs, max_size=5))
def test_tuple_vars_union(items):
    union = frozenset().union(*[vars_of(i) for i in items]) if items else frozenset()
    assert vars_of(encode_tuple(items)) == union
    if items:  # the list form reads back as the tuple encoding
        assert parse_expr("(" + " ".join(map(print_expr, items)) + ")") == encode_tuple(items)


def test_round_trip_bulk():
    rng = random.Random(20260810)
    for _ in range(10000):
        e = rand_expr(rng, depth=8, atom_bias=0.55)
        assert parse_expr(print_expr(e)) == e
