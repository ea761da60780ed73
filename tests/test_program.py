import dataclasses
import random
import sys

import pytest

from tabsynth import logic as L
from tabsynth import unify, wf
from tabsynth.logic import Apply, Atom, Cond
from tabsynth.program import (
    DecreaseViolationError,
    FuelExhaustedError,
    PrimitiveError,
    ProgramDef,
    ProgramError,
    emit,
    eval_formula,
    interpret,
    parse_program,
    run,
    simplify,
)
from tabsynth.subst import BOT, EMPTY, parse_subst
from tabsynth.term import parse_expr, size_of
from tabsynth.wf import U_REL, Base, u_measure

from genlib import rand_expr, rand_idempotent_env
from oracles import reference_simplify, transcribed_unify

import pathlib

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "src/tabsynth/data/unify_program.golden"


@pytest.fixture(scope="module")
def prog():
    return parse_program(GOLDEN.read_text())


def test_interpret_examples(prog):
    out = interpret(
        prog,
        [EMPTY, parse_expr("(X . b)"), parse_expr("(a . Y)")],
        check_decrease=True,
    )
    assert out == parse_subst("{X -> a, Y -> b}")
    out = interpret(prog, [parse_subst("{X -> Y}"), parse_expr("Y"), parse_expr("Z")])
    assert out == parse_subst("{X -> Z, Y -> Z}")
    assert interpret(prog, [EMPTY, parse_expr("X"), parse_expr("(X . a)")]) == BOT


def test_interpret_fuel(prog):
    with pytest.raises(FuelExhaustedError):
        interpret(
            prog,
            [EMPTY, parse_expr("((a . b) . c)"), parse_expr("((a . b) . X)")],
            fuel=1,
        )


def test_interpret_argument_count(prog):
    from tabsynth.program import ProgramError

    with pytest.raises(ProgramError):
        interpret(prog, [EMPTY])


def test_fuel_accounting(prog):
    # interleaved runs share one compiled function: fuel and calls must not leak
    rng = random.Random(5)
    triples = [
        [rand_idempotent_env(rng), rand_expr(rng, 3), rand_expr(rng, 3)]
        for _ in range(100)
    ]
    counts = []
    for args in triples:
        calls = []
        interpret(prog, args, calls=calls)
        counts.append(len(calls))
    assert max(counts) > 2
    for args, n in zip(triples, counts):
        calls = []
        assert interpret(prog, args, fuel=n, calls=calls) == transcribed_unify(*args)
        assert len(calls) == n
        if n:
            with pytest.raises(FuelExhaustedError):
                interpret(prog, args, fuel=n - 1)


def _triples(seed, count):
    rng = random.Random(seed)
    return [
        [rand_idempotent_env(rng), rand_expr(rng, 3), rand_expr(rng, 3)]
        for _ in range(count)
    ]


def test_both_forms_agree_with_the_transcription(prog):
    # the one compiled function run unchecked, with the decrease check and
    # listing its calls, and the hand transcription
    for args in _triples(17, 500):
        want = transcribed_unify(*args)
        assert run(prog, args) == want
        assert interpret(prog, args, check_decrease=True) == want
        calls = []
        assert interpret(prog, args, calls=calls) == want
        assert all(len(parent) == len(child) == 3 for parent, child in calls)


def test_fuel_boundary_on_both_forms(prog):
    recursive = 0
    for args in _triples(6, 100):
        calls = []
        interpret(prog, args, calls=calls)
        n = len(calls)
        unchecked = [lambda f: run(prog, args, f), lambda f: interpret(prog, args, fuel=f)]
        for go in unchecked + [lambda f: interpret(prog, args, fuel=f, check_decrease=True)]:
            assert go(n) == transcribed_unify(*args)
            if n:
                with pytest.raises(FuelExhaustedError, match="fuel exhausted"):
                    go(n - 1)
        recursive += n > 1
    assert recursive > 10


def test_looping_environment_reaches_the_recursion_limit_in_both_forms(prog):
    # {X -> Y, Y -> X} is not idempotent: unifying X with a recurses forever
    args = [parse_subst("{X -> Y, Y -> X}"), parse_expr("X"), parse_expr("a")]
    message = f"unify: Python recursion limit ({sys.getrecursionlimit()}) reached"
    for go in (lambda: run(prog, args), lambda: interpret(prog, args, calls=[])):
        with pytest.raises(FuelExhaustedError) as err:
            go()
        assert str(err.value) == message
    # with the decrease check, it stops at the first self-call that does not decrease
    with pytest.raises(DecreaseViolationError):
        interpret(prog, args, check_decrease=True)


def test_reference_unify_makes_a_fixed_number_of_calls():
    # Python-level calls of the package (its modules and generated code)
    # over fixed triples: a per-self-call hook or closure would raise it
    triples = _triples(23, 200)
    unify.reference_unify(*triples[0])  # load and compile the golden program
    package = str(pathlib.Path(unify.__file__).parent)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            path = frame.f_code.co_filename
            count += path == "<string>" or path.startswith(package)

    sys.setprofile(profile)
    try:
        for args in triples:
            unify.reference_unify(*args)
    finally:
        sys.setprofile(None)
    assert count == 5751


def test_checked_run_makes_a_fixed_number_of_calls(prog):
    # the same count for the checked form with its decrease check: it packs
    # each call's arguments as one plain tuple (7,695 when three arguments
    # were packed as a NamedTuple); a per-call hook would raise it
    triples = _triples(23, 200)
    interpret(prog, triples[0], check_decrease=True)
    package = str(pathlib.Path(unify.__file__).parent)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            path = frame.f_code.co_filename
            count += path == "<string>" or path.startswith(package)

    sys.setprofile(profile)
    try:
        for args in triples:
            interpret(prog, args, check_decrease=True)
    finally:
        sys.setprofile(None)
    assert count == 7209


def test_parse_and_extract_agree_on_primitiveness():
    from tabsynth import engine

    theory = engine.load_theory(GOLDEN.with_name("unify.thy").read_text())
    bodies = {
        "(if (is-var e1) (compose th0 (replace e1 e2)) (unify th0 e2 e1))": True,
        "(if (mgi th0 e1 e2 th0) th0 bot)": False,
        "(if (= (vars e1) (vars e2)) th0 bot)": False,
        "(if (size-lt e1 e2) th0 bot)": False,
    }
    for body, primitive in bodies.items():
        # a final row with body as its output: extraction takes it only if primitive
        tableau = engine.make_tableau(theory, "unify")
        output = L.parse_term(body, theory.signature)
        tableau.add_assertion(formula=L.FALSE, output=output, assumption=True)
        extracted = tableau.extract_program()
        assert (extracted is not None) == primitive
        text = f"(define (unify th0 e1 e2) {body})"
        if primitive:
            assert parse_program(text).body == extracted.body
        else:
            with pytest.raises(ProgramError, match="nonprimitive"):
                parse_program(text)


def test_primitive_error():
    bad = ProgramDef(
        "f", (("e1", "expr"),), Apply("left", (Apply("e1"),)), None
    )
    with pytest.raises(PrimitiveError):
        interpret(bad, [parse_expr("a")])


def test_decrease_checks_on_interpreter(prog):
    rng = random.Random(3)
    for _ in range(300):
        env = rand_idempotent_env(rng)
        e1, e2 = rand_expr(rng, 3), rand_expr(rng, 3)
        interpret(prog, [env, e1, e2], check_decrease=True)


def test_decrease_violation_surfaces():
    # a deliberately mis-derived program: recurse without shrinking
    sig = L.default_signature()
    for name, sort in (("th0", "subst"), ("e1", "expr"), ("e2", "expr")):
        sig.add_constant(name, sort)
    sig.add_function("loop", ("subst", "expr", "expr"), "subst")
    body = Cond(
        Atom("is-var", (Apply("e1"),)),
        Apply("loop", (Apply("th0"), Apply("e1"), Apply("e2"))),
        Apply("th0"),
    )
    bad = ProgramDef(
        "loop",
        (("th0", "subst"), ("e1", "expr"), ("e2", "expr")),
        body,
        U_REL,
    )
    with pytest.raises(DecreaseViolationError):
        interpret(bad, [EMPTY, parse_expr("X"), parse_expr("a")], check_decrease=True)


def test_decrease_check_reads_the_recorded_relation(prog):
    args = [EMPTY, parse_expr("a"), parse_expr("X")]
    assert prog.decrease == U_REL
    assert interpret(prog, args, check_decrease=True) == parse_subst("{X -> a}")
    # the swap keeps range(env) | vars(e1, e2); only size(e1) falls
    weaker = dataclasses.replace(prog, decrease=Base("range-vars"))
    with pytest.raises(DecreaseViolationError) as err:
        interpret(weaker, args, check_decrease=True)
    assert err.value.child == (EMPTY, parse_expr("X"), parse_expr("a"))


def test_checked_run_measures_each_call_once(prog, monkeypatch):
    measured = []

    def counting(triple):
        measured.append(triple)
        return u_measure(triple)

    monkeypatch.setattr(wf, "u_measure", counting)
    rng = random.Random(4)
    for _ in range(50):
        args = [rand_idempotent_env(rng), rand_expr(rng, 3), rand_expr(rng, 3)]
        calls = []
        measured.clear()
        interpret(prog, args, check_decrease=True, calls=calls)
        assert len(measured) == len(calls) + 1


def test_extensional_equality_sampled(prog):
    rng = random.Random(8)
    for _ in range(500):
        env = rand_idempotent_env(rng)
        e1, e2 = rand_expr(rng, 3), rand_expr(rng, 3)
        assert interpret(prog, [env, e1, e2]) == transcribed_unify(env, e1, e2)


def test_swap_calls_shrink_first_argument(prog):
    rng = random.Random(13)
    for _ in range(300):
        env = rand_idempotent_env(rng)
        e1, e2 = rand_expr(rng, 3), rand_expr(rng, 3)
        calls = []
        interpret(prog, [env, e1, e2], calls=calls)
        for parent, child in calls:
            if child == [parent[0], parent[2], parent[1]]:
                assert size_of(child[1]) < size_of(parent[1])


def test_simplify_rules():
    sig = L.default_signature()
    sig.add_constant("th0", "subst")
    p = L.parse_formula("(is-proper th0)", sig)
    a, b, c = Apply("th0"), Apply("bot"), Apply("empty-subst")
    assert simplify(Cond(p, a, a)) == a
    assert simplify(Cond(L.TRUE, a, b)) == a
    assert simplify(Cond(L.FALSE, a, b)) == b
    assert simplify(Cond(p, Cond(p, a, b), c)) == Cond(p, a, c)
    assert simplify(Cond(p, a, Cond(p, b, c))) == Cond(p, a, c)
    # equal branches whose tests repeat the parent's: either rule may go first
    assert simplify(Cond(p, Cond(p, a, b), Cond(p, a, b))) == Cond(p, a, b)


def test_simplify_takes_the_branch_a_test_higher_on_the_path_decided():
    # a search's k = 2 program: the inner (is-var e1) lies in the outer
    # test's else branch, under another test, so it is false there
    sig = L.default_signature()
    for name, sort in (("th0", "subst"), ("e1", "expr"), ("e2", "expr")):
        sig.add_constant(name, sort)
    body = L.parse_term(
        "(if (is-var e1) th0 (if (is-const e2) (if (is-var e1) th0 bot) empty-subst))", sig
    )
    want = L.parse_term("(if (is-var e1) th0 (if (is-const e2) bot empty-subst))", sig)
    assert simplify(body) == want
    # and inside an application on that path
    nested = L.parse_term("(if (is-var e1) (compose th0 (if (is-var e1) bot th0)) th0)", sig)
    assert simplify(nested) == L.parse_term("(if (is-var e1) (compose th0 bot) th0)", sig)


def random_conditional(rng, tests, depth=4):
    if depth == 0 or rng.random() < 0.3:
        return Apply(rng.choice(["th0", "bot", "empty-subst"]))
    if rng.random() < 0.3:
        args = (random_conditional(rng, tests, depth - 1) for _ in range(2))
        return Apply("compose", tuple(args))
    then, els = (random_conditional(rng, tests, depth - 1) for _ in range(2))
    return Cond(rng.choice(tests), then, els)


def test_simplify_is_the_fixpoint_of_its_rules():
    """One pass of simplify builds what rewriting to a fixpoint builds.
    Tests come from {p, q, true, false}, so repeated tests and equal
    branches are common."""
    sig = L.default_signature()
    sig.add_constant("th0", "subst")
    tests = [L.parse_formula(t, sig) for t in ("(is-proper th0)", "(idem th0)")]
    tests += [L.TRUE, L.FALSE]
    rng = random.Random(17)
    for _ in range(3000):
        t = random_conditional(rng, tests, rng.randint(1, 6))
        slim = simplify(t)
        assert slim == reference_simplify(t)
        assert simplify(slim) == slim


def test_simplify_preserves_meaning(prog):
    rng = random.Random(21)
    slim = simplify(prog.body)
    slim_prog = ProgramDef(prog.name, prog.params, slim, prog.decrease)
    for _ in range(200):
        env = rand_idempotent_env(rng)
        e1, e2 = rand_expr(rng, 2), rand_expr(rng, 2)
        assert interpret(prog, [env, e1, e2]) == interpret(slim_prog, [env, e1, e2])


def test_emit_round_trip(prog):
    text = emit(prog)
    assert text == GOLDEN.read_text()
    assert parse_program(text) == prog
    # emission is stable across repeated runs
    assert emit(parse_program(text)) == text
    # a free output holds for every value of its sort: extraction puts a
    # parameter of that sort in its place
    from tabsynth import engine

    theory = engine.load_theory(
        "lemma refl (= X:expr X)\nspec f (a:expr) output Z:expr (= a a)\n"
    )
    _, extracted = engine.search(theory, "f", engine.SearchConfig())
    text = emit(extracted)
    assert text == "(define (f a)\n  a)\n"
    assert run(parse_program(text), [parse_expr("b")]) == parse_expr("b")
    # with no ground term of its sort, the body stays a free metavariable,
    # which nothing else in the text gives a sort: emission writes it
    theory = engine.load_theory(
        "lemma refl (= X:expr X)\nspec f (a:subst) output Z:expr (= Z:expr Z)\n"
    )
    _, extracted = engine.search(theory, "f", engine.SearchConfig())
    text = emit(extracted)
    assert text == "(define (f:expr a:subst)\n  Z:expr)\n"
    assert parse_program(text).body == extracted.body == L.MetaVar("Z", "expr")
    with pytest.raises(ProgramError, match="unbound metavar Z"):
        run(parse_program(text), [EMPTY])


def test_a_free_output_with_no_parameter_of_its_sort_takes_a_nullary_primitive():
    # the result sort is the spec output's, subst, which the first
    # parameter's would not give, so the text writes it with the name
    from tabsynth import engine

    theory = engine.load_theory(
        "lemma refl (= X:subst X)\nspec f (a:expr) output Z:subst (= Z:subst Z)\n"
    )
    _, extracted = engine.search(theory, "f", engine.SearchConfig())
    assert extracted.result == "subst"
    text = emit(extracted)
    assert text == "(define (f:subst a)\n  empty-subst)\n"
    assert parse_program(text).result == "subst"
    assert run(parse_program(text), [parse_expr("b")]) == EMPTY


@pytest.mark.parametrize(
    "sorts, header",
    [
        (("subst", "expr", "expr"), "(f p0 p1 p2)"),
        (("expr", "expr"), "(f p0 p1)"),
        (("subst", "expr"), "(f p0:subst p1)"),
        (("subst",), "(f p0:subst)"),
        (("expr", "subst", "subst"), "(f p0:expr p1:subst p2:subst)"),
        (("subst", "expr", "expr", "varset"), "(f p0:subst p1 p2 p3:varset)"),
    ],
)
def test_emit_writes_each_sort_the_parameter_count_does_not_give(sorts, header):
    # parse_program once gave every parameter its default sort, so an
    # emitted (subst, expr) program took its substitution for an expression
    params = tuple((f"p{i}", sort) for i, sort in enumerate(sorts))
    p = ProgramDef("f", params, Apply("p0"), U_REL)
    text = emit(p)
    assert text == f"(define {header}\n  p0)\n"
    assert parse_program(text) == p


@pytest.mark.parametrize("chunk", ["a:foo", "a:", ":expr", "a:expr:expr"])
def test_a_parameter_of_no_known_sort_is_refused(chunk):
    with pytest.raises(ProgramError, match="is not name:sort of a known sort"):
        parse_program(f"(define (f {chunk}) a)")


def test_truncated_program_text():
    for text in ("(define", "(define (f a b", "(define (f a b) (cons a", "(define (f) a)"):
        with pytest.raises(ProgramError):
            parse_program(text)


def test_every_prefix_parses_or_fails_cleanly():
    """Every prefix of the golden program and of each lemma body either
    parses or raises a parse error, never anything else."""
    from tabsynth import engine

    def sweep(parse, text):
        for end in range(len(text)):
            try:
                parse(text[:end])
            except (L.FormulaSyntaxError, L.SortError, ProgramError):
                pass
        parse(text)

    sweep(parse_program, GOLDEN.read_text())
    theory_text = GOLDEN.with_name("unify.thy").read_text()
    theory = engine.load_theory(theory_text)
    sig = theory.signature
    bodies = [L.print_formula(f, True) for f in theory.lemmas.values()]
    assert len(bodies) > 40
    for body in bodies:
        sweep(lambda text: L.parse_formula(text, sig), body)


def test_eval_formula_ground():
    env = {}
    sig = L.default_signature()
    f = L.parse_formula("(size-lt E1:expr E2:expr)", sig)
    assert eval_formula(f, {"E1": parse_expr("X"), "E2": parse_expr("a")})
    assert not eval_formula(f, {"E1": parse_expr("a"), "E2": parse_expr("X")})


def test_emit_changes_only_where_simplify_fires(prog):
    # the bundled tree has no redundant tests: simplification is identity
    assert simplify(prog.body) == prog.body
    # a synthetic redundant conditional does change the emission
    sig = L.default_signature()
    sig.add_constant("th0", "subst")
    test = L.parse_formula("(is-proper th0)", sig)
    redundant = ProgramDef(
        "pick",
        (("th0", "subst"),),
        Cond(test, Apply("th0"), Apply("th0")),
        None,
    )
    slim = ProgramDef("pick", redundant.params, simplify(redundant.body), None)
    assert emit(slim) != emit(redundant)
    assert emit(slim) == "(define (pick th0:subst)\n  th0)\n"
