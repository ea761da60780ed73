import random

import pytest
from hypothesis import given, strategies as st

from tabsynth.subst import (
    BOT,
    EMPTY,
    apply,
    compose,
    is_idempotent,
    is_proper,
    parse_subst,
)
from tabsynth.program import FuelExhaustedError
from tabsynth.term import parse_expr
from tabsynth.unify import (
    MgiuReport,
    is_unifier,
    mgi_decide,
    mgiu_check,
    oracle_unify,
    reduce_holds,
    reference_unify,
)

from genlib import rand_expr, rand_idempotent_env
from oracles import mgi_refute_witness

rngs = st.integers(0, 10**9).map(random.Random)


def U(env, e1, e2):
    return reference_unify(parse_subst(env), parse_expr(e1), parse_expr(e2))


def test_reference_examples():
    assert U("{}", "(X . b)", "(a . Y)") == parse_subst("{X -> a, Y -> b}")
    assert U("{X -> Y}", "Y", "Z") == parse_subst("{X -> Z, Y -> Z}")
    assert U("{}", "X", "(X . a)") == BOT
    assert reference_unify(BOT, parse_expr("a"), parse_expr("a")) == BOT
    assert U("{}", "a", "a") == EMPTY


def test_reference_swap_and_constants():
    assert U("{}", "a", "X") == parse_subst("{X -> a}")
    assert U("{}", "a", "b") == BOT
    assert U("{}", "a", "(a . b)") == BOT
    assert U("{}", "(a . b)", "X") == parse_subst("{X -> (a . b)}")


def test_fuel_exhaustion_on_bad_environment():
    # a permuting (non-idempotent) environment can cycle forever
    env = parse_subst("{X -> Y, Y -> X}")
    with pytest.raises(FuelExhaustedError):
        reference_unify(env, parse_expr("X"), parse_expr("a"), fuel=50)


def test_oracle_examples():
    assert oracle_unify(EMPTY, parse_expr("(X . b)"), parse_expr("(a . Y)")) == parse_subst(
        "{X -> a, Y -> b}"
    )
    out = oracle_unify(parse_subst("{X -> Y}"), parse_expr("Y"), parse_expr("Z"))
    ref = parse_subst("{X -> Z, Y -> Z}")
    assert compose(out, ref) == ref and compose(ref, out) == out
    assert oracle_unify(EMPTY, parse_expr("a"), parse_expr("b")) == BOT


def test_oracle_requires_idempotent_env():
    with pytest.raises(ValueError):
        oracle_unify(parse_subst("{X -> (X . X)}"), parse_expr("a"), parse_expr("a"))


def test_is_unifier():
    assert is_unifier(parse_subst("{X -> a, Y -> b}"), parse_expr("(X . b)"), parse_expr("(a . Y)"))
    assert is_unifier(BOT, parse_expr("(a . b)"), parse_expr("c"))
    assert not is_unifier(EMPTY, parse_expr("a"), parse_expr("b"))


def test_reduce_holds():
    env = parse_subst("{X -> Y}")
    assert reduce_holds(env, frozenset({"Y"}), parse_subst("{X -> Y}"))
    assert not reduce_holds(env, frozenset({"Y"}), parse_subst("{Y -> X}"))
    assert reduce_holds(env, frozenset({"Y"}), BOT)


def test_mgi_decide():
    env = parse_subst("{X -> Y}")
    assert mgi_decide(env, parse_expr("Y"), parse_expr("Z"), parse_subst("{X -> Z, Y -> Z}"))
    assert mgi_decide(EMPTY, parse_expr("a"), parse_expr("b"), parse_subst("{W -> c}"))
    assert not mgi_decide(EMPTY, parse_expr("X"), parse_expr("Y"), BOT)


def test_mgiu_check_examples():
    env = parse_subst("{X -> Y}")
    y, z = parse_expr("Y"), parse_expr("Z")
    assert mgiu_check(env, y, z, parse_subst("{X -> Z, Y -> Z}")).ok
    report = mgiu_check(env, y, z, parse_subst("{Y -> Z}"))
    assert not report.extension_ok and not report.ok
    assert mgiu_check(env, y, z, parse_subst("{X -> Y, Z -> Y}")).ok
    bot_report = mgiu_check(EMPTY, parse_expr("a"), parse_expr("b"), BOT)
    assert bot_report.ok


def test_mgi_refute_witness():
    w = parse_subst("{X -> Y}")
    assert (
        mgi_refute_witness(EMPTY, parse_expr("X"), parse_expr("Y"), BOT, [w]) == w
    )
    assert (
        mgi_refute_witness(
            parse_subst("{X -> Y}"),
            parse_expr("Y"),
            parse_expr("Z"),
            parse_subst("{X -> Z, Y -> Z}"),
            [parse_subst("{X -> a, Y -> a, Z -> a}")],
        )
        is None
    )
    assert mgi_refute_witness(EMPTY, parse_expr("X"), parse_expr("Y"), BOT, []) is None


@given(rngs)
def test_reference_is_mgiu(rng):
    env = rand_idempotent_env(rng)
    e1, e2 = rand_expr(rng), rand_expr(rng)
    out = reference_unify(env, e1, e2)
    report = mgiu_check(env, e1, e2, out)
    assert report.ok
    assert is_idempotent(out)


@given(rngs)
def test_symmetry(rng):
    env = rand_idempotent_env(rng)
    e1, e2 = rand_expr(rng), rand_expr(rng)
    s = reference_unify(env, e1, e2)
    s_rev = reference_unify(env, e2, e1)
    assert is_proper(s) == is_proper(s_rev)
    if is_proper(s):
        assert compose(s, s_rev) == s_rev and compose(s_rev, s) == s


@given(rngs)
def test_instance_property(rng):
    env = rand_idempotent_env(rng)
    e1, e2 = rand_expr(rng), rand_expr(rng)
    s = reference_unify(env, e1, e2)
    direct = mgiu_check(env, e1, e2, s)
    instanced = mgiu_check(env, apply(e1, env), apply(e2, env), s)
    assert direct.ok == instanced.ok


@given(rngs)
def test_mgi_decide_never_refuted_by_sampling(rng):
    env = rand_idempotent_env(rng)
    e1, e2 = rand_expr(rng, 2), rand_expr(rng, 2)
    s = reference_unify(env, e1, e2)
    witnesses = []
    for _ in range(5):
        delta = rand_idempotent_env(rng)
        witnesses.append(compose(reference_unify(env, e1, e2), delta))
    if mgi_decide(env, e1, e2, s):
        assert mgi_refute_witness(env, e1, e2, s, witnesses) is None


@given(rngs)
def test_mgi_transitivity_on_components(rng):
    env = rand_idempotent_env(rng)
    d1, d2 = rand_expr(rng, 2), rand_expr(rng, 2)
    e1, e2 = rand_expr(rng, 2), rand_expr(rng, 2)
    th1 = reference_unify(env, d1, e1)
    if not (is_proper(th1) and is_idempotent(th1)):
        return
    th2 = reference_unify(th1, d2, e2)
    from tabsynth.term import Cons

    assert mgi_decide(env, Cons(d1, d2), Cons(e1, e2), th2)


@given(rngs)
def test_mgi_replacement_property(rng):
    from tabsynth.subst import misses, replacement
    from tabsynth.term import Var, occurs_in

    env = rand_idempotent_env(rng)
    e = rand_expr(rng, 2)
    x = Var(rng.choice(["X", "Y", "Z", "W"]))
    if occurs_in(x, e, "reflexive") or not misses(env, x) or not misses(env, e):
        return
    assert mgi_decide(env, x, e, compose(env, replacement(x.name, e)))
