import gc
import random

import pytest
from hypothesis import given, strategies as st

from tabsynth import term
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
    read_sexp,
    right_of,
    size_of,
    vars_of,
)

from genlib import rand_expr, spaced_text
from oracles import recursive_occurs, recursive_size, recursive_vars

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


rngs = st.integers(0, 10**9).map(random.Random)


@given(rngs)
def test_cached_vars_and_size_match_a_walk(rng):
    e = rand_expr(rng, depth=6)
    assert e.vars == recursive_vars(e) == vars_of(e)
    assert e.size == recursive_size(e) == size_of(e)


@given(exprs, exprs)
def test_occurrence_matches_its_definition(d, e):
    for mode in ("proper", "reflexive"):
        assert occurs_in(d, e, mode) == recursive_occurs(d, e, mode)


@given(rngs)
def test_occurrence_of_a_subtree_matches_its_definition(rng):
    # d drawn from inside e, so that occurrences are common
    e = rand_expr(rng, depth=6, atom_bias=0.2)
    d = e
    while not is_atom(d) and rng.random() < 0.7:
        d = d.left if rng.random() < 0.5 else d.right
    for x, y in ((d, e), (e, d)):
        for mode in ("proper", "reflexive"):
            assert occurs_in(x, y, mode) == recursive_occurs(x, y, mode)


@given(exprs)
def test_cached_fields_do_not_change_equality_hash_or_repr(e):
    # a parsed Cons and one built by hand from fresh atoms
    def rebuild(x):
        if isinstance(x, Cons):
            return Cons(rebuild(x.left), rebuild(x.right))
        return type(x)(x.name)

    parsed, built = parse_expr(print_expr(e)), rebuild(e)
    assert parsed == built == e
    assert hash(parsed) == hash(built)
    assert repr(parsed) == repr(built)
    assert "vars" not in repr(built) and "size" not in repr(built)


@given(exprs, exprs)
def test_equality_is_equality_of_printed_forms(d, e):
    # printing is canonical, so equal expressions print the same
    same = print_expr(d) == print_expr(e)
    assert (d == e) == (e == d) == same != (d != e)
    assert parse_expr(print_expr(e)) == e


def test_deep_equality_does_not_recurse():
    text = "(" * 10_000 + "Z" + " . c)" * 10_000
    e = parse_expr(text)
    assert e == parse_expr(text)
    assert e != parse_expr(text.replace("Z", "Y"))
    assert e != parse_expr(text.replace("Z", "z"))
    assert e != parse_expr(text[:-4] + "d)")
    assert e != Var("Z") and Const("c") != e


def test_occurrence_rejects_an_unknown_mode():
    with pytest.raises(ValueError):
        occurs_in(Var("X"), Var("X"), "sideways")


def test_deep_expression_attributes_do_not_recurse():
    e = Var("Z")
    for _ in range(10_000):
        e = Cons(e, Const("c"))
    assert vars_of(e) == {"Z"}
    assert size_of(e) == 20_000
    assert occurs_in(Var("Z"), e)
    assert not occurs_in(Var("Y"), e, "reflexive")
    assert occurs_in(Const("c"), e)
    assert not occurs_in(Const("d"), e, "reflexive")


def test_variable_sets_are_shared_but_not_kept_alive():
    x, y = Var("Xgone"), Var("Ygone")
    assert term._VAR_SETS["Xgone"] is x.vars
    assert Var("Xgone").vars is x.vars  # one set per name while it is used
    pair = Cons(x, Cons(Const("a"), y))
    assert Cons(y, x).vars is pair.vars == {"Xgone", "Ygone"}
    del x, y, pair
    gc.collect()
    assert "Xgone" not in term._VAR_SETS
    assert frozenset({"Xgone", "Ygone"}) not in term._VAR_SETS


def test_read_sexp():
    assert read_sexp(" (a (b c) () d) ") == ["a", ["b", "c"], [], "d"]
    assert read_sexp("X:expr") == "X:expr"
    for text in ("(", "(a (b)", ")", "(a))", "", "  ", "a b", "(a) (b)"):
        with pytest.raises(ExprSyntaxError):
            read_sexp(text)
    deep = read_sexp("(" * 100_000 + ")" * 100_000)  # no recursion while reading
    for _ in range(99_999):
        deep = deep[0]
    assert deep == []


def test_read_sexp_splits_the_delimiters():
    assert read_sexp("(a.b)") == ["a", ".", "b"]
    assert read_sexp("(X->(a*),Y->b)") == ["X", "->", ["a", "*"], ",", "Y", "->", "b"]
    assert read_sexp("(is-var u-rel a-)") == ["is-var", "u-rel", "a-"]
    for text in ("(a . ))", "( . . X)", "(. a)", "(a .)", "(a . b c)", "(a . b . c)"):
        with pytest.raises(ExprSyntaxError):
            read_sexp(text)


def test_parse_keeps_the_old_readings():
    assert parse_expr("(a.b)") == parse_expr("(a . b)") == Cons(Const("a"), Const("b"))
    assert parse_expr("(a*)") == encode_tuple([Const("a"), BLACK_HOLE])
    assert parse_expr("(X#3 . a)") == Cons(Var("X#3"), Const("a"))
    for text in ("()", ".", "a b", "(a , b)", "->", "is-var", "(a", "a)"):
        with pytest.raises(ExprSyntaxError):
            parse_expr(text)


@given(exprs, st.randoms(use_true_random=False))
def test_spaced_text_reads_back(e, rng):
    text = spaced_text(e, rng)
    assert parse_expr(text) == e, text


def test_deep_texts_read_and_print_without_recursing():
    n = 10_000
    left_text = "(" * n + "Z" + " . c)" * n
    right_text = "(c . " * n + "Z" + ")" * n
    list_text = "(" + " c" * n + ")"
    for text, printed in (
        (left_text, left_text),
        (right_text, right_text),
        (list_text, "(c . " * n + "nil" + ")" * n),
    ):
        e = parse_expr(text)
        assert size_of(e) == 2 * n + (text is list_text)
        assert print_expr(e) == printed
    left = Var("Z")
    for _ in range(n):
        left = Cons(left, Const("c"))
    assert print_expr(left) == left_text
