import random

import pytest
from hypothesis import given, strategies as st

from tabsynth.subst import (
    BOT,
    EMPTY,
    DuplicateVariableError,
    apply,
    compose,
    dom_of,
    is_idempotent,
    SubstError,
    make_subst,
    misses,
    more_general,
    parse_subst,
    print_subst,
    range_of,
    replacement,
)
from tabsynth.term import (
    BLACK_HOLE,
    Cons,
    Const,
    ExprError,
    Var,
    occurs_in,
    parse_expr,
    print_expr,
    vars_of,
)

from genlib import rand_expr, rand_subst, spaced_subst_text
from oracles import reference_compose, weakly_more_general

rngs = st.integers(0, 10**9).map(random.Random)


def test_make_subst():
    s = make_subst([("X", Const("a")), ("Y", Const("b"))])
    assert dict(s.bindings) == {"X": Const("a"), "Y": Const("b")}
    assert make_subst([("X", Var("X"))]) == EMPTY
    with pytest.raises(DuplicateVariableError):
        make_subst([("X", Const("a")), ("X", Const("b"))])


def test_apply():
    s = parse_subst("{X -> Y, Y -> c}")
    assert apply(parse_expr("(X . (a . X))"), s) == parse_expr("(Y . (a . Y))")
    assert apply(parse_expr("(a . X)"), EMPTY) == parse_expr("(a . X)")
    assert apply(parse_expr("(a . X)"), BOT) == BLACK_HOLE


def test_compose_worked_example():
    got = compose(parse_subst("{X -> (Y . a)}"), parse_subst("{X -> b, Y -> c}"))
    assert got == parse_subst("{X -> (c . a), Y -> c}")
    # a binding that becomes the identity is dropped
    swapped = compose(parse_subst("{X -> Y}"), parse_subst("{Y -> X}"))
    assert swapped == parse_subst("{Y -> X}") and dom_of(swapped) == {"Y"}


def test_compose_identity_and_annihilator():
    theta = parse_subst("{X -> (a . Y)}")
    assert compose(theta, EMPTY) == theta
    assert compose(EMPTY, theta) == theta
    assert compose(theta, BOT) == BOT
    assert compose(BOT, theta) == BOT


def test_compose_can_break_idempotence():
    got = compose(parse_subst("{X -> Y}"), parse_subst("{Y -> (X . X)}"))
    assert got == parse_subst("{X -> (X . X), Y -> (X . X)}")
    assert not is_idempotent(got)


def test_replacement():
    assert replacement("X", Const("a")) == parse_subst("{X -> a}")
    assert replacement("X", Var("X")) == EMPTY
    # no effect when the variable does not occur
    assert apply(parse_expr("(b . Y)"), replacement("X", Const("a"))) == parse_expr(
        "(b . Y)"
    )


def test_support():
    s = parse_subst("{X -> (W . a), Y -> (X . b)}")
    assert dom_of(s) == {"X", "Y"}
    assert range_of(s) == {"X", "W"}
    for empty in (EMPTY, BOT):
        assert dom_of(empty) == range_of(empty) == frozenset()


def test_misses():
    assert misses(parse_subst("{X -> a}"), parse_expr("(b . Y)"))
    assert not misses(parse_subst("{X -> a}"), Var("X"))
    assert misses(BOT, BLACK_HOLE)


def test_idempotence():
    assert is_idempotent(parse_subst("{X -> Y}"))
    assert not is_idempotent(parse_subst("{X -> (X . X)}"))
    assert is_idempotent(EMPTY)
    assert is_idempotent(BOT)


def test_more_general():
    assert more_general(parse_subst("{X -> Y}"), parse_subst("{X -> a, Y -> a}"))
    assert more_general(EMPTY, parse_subst("{X -> b}"))
    assert not more_general(BOT, parse_subst("{X -> a}"))
    assert more_general(parse_subst("{X -> a}"), BOT)


def test_weakly_more_general():
    swap = parse_subst("{X -> Y, Y -> X}")
    assert weakly_more_general(swap, EMPTY) == swap
    assert weakly_more_general(
        parse_subst("{X -> Y}"), parse_subst("{X -> a, Y -> a}")
    ) == parse_subst("{Y -> a}")
    assert weakly_more_general(parse_subst("{X -> a}"), parse_subst("{X -> b}")) is None


def test_subst_equal():
    # substitutions are canonical: equal effect on every variable is ==
    assert parse_subst("{X -> a, Y -> b}") == parse_subst("{Y -> b, X -> a}")
    a, b = Const("a"), Const("b")
    yx, xy = make_subst([("Y", b), ("X", a)]), make_subst([("X", a), ("Y", b)])
    assert yx == xy and hash(yx) == hash(xy)
    assert print_subst(yx) == "{X -> a, Y -> b}" and yx.bindings == xy.bindings
    assert make_subst([("X", Var("X"))]) == EMPTY
    assert parse_subst("{X -> a}") != BOT


def test_parse_print_round_trip():
    for text in ("{}", "bot", "{X -> a, Y -> (b . Z)}"):
        assert print_subst(parse_subst(text)) == text


@given(rngs)
def test_print_then_parse_is_identity(rng):
    s = BOT if rng.random() < 0.1 else rand_subst(rng, depth=3)
    assert parse_subst(print_subst(s)) == s
    assert parse_subst(spaced_subst_text(s, rng)) == s


def test_parse_keeps_the_old_readings():
    assert parse_subst("{X->a,Y->(b.Z)}") == parse_subst("{X -> a, Y -> (b . Z)}")
    assert parse_subst(" {  } ") == EMPTY
    assert parse_subst("{X -> (a*), Y -> X#3}") == make_subst(
        [("X", parse_expr("(a *)")), ("Y", Var("X#3"))]
    )


def test_bound_names_must_be_variables():
    bad = ["{X Y -> a}", "{X-1 -> a}", "{X( -> a}", "{a -> b}", "{(X) -> a}"]
    bad += ["{X -> a,}", "{X -> a b}", "{X a}", "{X -> (a , b)}", "{", "X -> a"]
    for text in bad:
        with pytest.raises((SubstError, ExprError)):
            parse_subst(text)


def test_deep_image_reads_and_prints_without_recursing():
    image = "(c . " * 10_000 + "Z" + ")" * 10_000
    s = parse_subst("{X -> " + image + "}")
    assert s.range == {"Z"} and s.map["X"].size == 20_000
    assert print_subst(s) == "{X -> " + image + "}"
    assert print_expr(parse_subst(print_subst(s)).map["X"]) == image


@given(rngs)
def test_composition_law(rng):
    e = rand_expr(rng)
    s1 = BOT if rng.random() < 0.15 else rand_subst(rng)
    s2 = BOT if rng.random() < 0.15 else rand_subst(rng)
    assert apply(e, compose(s1, s2)) == apply(apply(e, s1), s2)


def _any_subst(rng):
    # depth 0 binds atoms only, often variables, so that compositions drop identities
    r = rng.random()
    return BOT if r < 0.1 else EMPTY if r < 0.2 else rand_subst(rng, rng.choice((0, 2)))


@given(rngs)
def test_compose_agrees_with_the_reference(rng):
    s1, s2 = _any_subst(rng), _any_subst(rng)
    got, want = compose(s1, s2), reference_compose(s1, s2)
    assert got == want and print_subst(got) == print_subst(want)


@given(rngs)
def test_more_general_agrees_with_the_reference(rng):
    # half the pairs extend s1, so that a true answer is common
    s1 = _any_subst(rng)
    s2 = reference_compose(s1, _any_subst(rng)) if rng.random() < 0.5 else _any_subst(rng)
    assert more_general(s1, s2) == (reference_compose(s1, s2) == s2)


@given(rngs)
def test_associativity(rng):
    subs = [BOT if rng.random() < 0.2 else rand_subst(rng) for _ in range(3)]
    a, b, c = subs
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(rngs)
def test_distributivity_over_cons(rng):
    s = rand_subst(rng)
    l, r = rand_expr(rng), rand_expr(rng)
    assert apply(Cons(l, r), s) == Cons(apply(l, s), apply(r, s))


@given(rngs)
def test_subexpression_preservation(rng):
    d, e = rand_expr(rng, 2), rand_expr(rng, 3)
    s = BOT if rng.random() < 0.2 else rand_subst(rng)
    if occurs_in(d, e, "reflexive"):
        assert occurs_in(apply(d, s), apply(e, s), "reflexive")
    if occurs_in(d, e, "proper") and s != BOT:
        assert occurs_in(apply(d, s), apply(e, s), "proper")


@given(rngs)
def test_idempotence_characterizations(rng):
    s = rand_subst(rng)
    expected = not (dom_of(s) & range_of(s))
    assert is_idempotent(s) == expected
    assert more_general(s, s) == expected


@given(rngs)
def test_generality_laws(rng):
    s0, s1, s2 = rand_subst(rng), rand_subst(rng), rand_subst(rng)
    if more_general(s0, s1) and more_general(s1, s2):
        assert more_general(s0, s2)
    if more_general(s0, s1):
        assert more_general(s0, compose(s1, s2))
        witness = weakly_more_general(s0, s1)
        assert witness is not None and compose(s0, witness) == s1
    if is_idempotent(s0):
        witness = weakly_more_general(s0, s1)
        if witness is not None:
            assert more_general(s0, s1)


@given(rngs)
def test_vars_range_subset(rng):
    s = rand_subst(rng)
    e = rand_expr(rng)
    lhs = vars_of(apply(e, s))
    assert lhs <= vars_of(e) | range_of(s)
    if is_idempotent(s) and not misses(s, e):
        assert lhs | range_of(s) < vars_of(e) | range_of(s)


@given(rngs)
def test_agreement_on_variables(rng):
    e = rand_expr(rng)
    s1, s2 = rand_subst(rng), rand_subst(rng)
    agree = all(
        apply(Var(v), s1) == apply(Var(v), s2) for v in vars_of(e)
    )
    assert (apply(e, s1) == apply(e, s2)) == agree


@given(rngs)
def test_distributivity_over_tuples(rng):
    from tabsynth.term import encode_tuple

    items = [rand_expr(rng, 2) for _ in range(rng.randint(0, 4))]
    s = rand_subst(rng)
    assert apply(encode_tuple(items), s) == encode_tuple([apply(i, s) for i in items])


@given(rngs)
def test_misses_is_leaving_unchanged(rng):
    e = rand_expr(rng)
    for s in (rand_subst(rng), EMPTY, BOT):
        assert misses(s, e) == (apply(e, s) == e)
    assert misses(BOT, BLACK_HOLE)


@given(rngs)
def test_apply_shares_what_it_does_not_change(rng):
    e, s = rand_expr(rng), rand_subst(rng)
    if vars_of(e).isdisjoint(dom_of(s)):
        assert apply(e, s) is e
    if isinstance(e, Cons):
        out = apply(e, s)
        for old, new in ((e.left, out.left), (e.right, out.right)):
            if vars_of(old).isdisjoint(dom_of(s)):
                assert new is old


def test_cached_support_matches_the_bindings():
    s = parse_subst("{X -> (W . a), Y -> (X . b), Z -> W}")
    assert s.map == dict(s.bindings)
    assert s.domain == dom_of(s) == {"X", "Y", "Z"}
    assert s.range == range_of(s) == {"X", "W"}
    assert s == make_subst(s.bindings) and hash(s) == hash(make_subst(s.bindings))
    assert repr(s) == "{X -> (W . a), Y -> (X . b), Z -> W}"


def test_misses_on_a_deep_expression():
    e = Var("Z")
    for _ in range(10_000):
        e = Cons(e, Const("c"))
    assert misses(parse_subst("{X -> a}"), e)
    assert not misses(parse_subst("{Z -> a}"), e)
    assert not misses(BOT, e)
    assert apply(e, parse_subst("{X -> a}")) is e
