import itertools
import pathlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from tabsynth import engine
from tabsynth import logic as L
from tabsynth.logic import (
    And,
    Apply,
    Atom,
    Cond,
    Eq,
    FALSE,
    FormulaSyntaxError,
    Iff,
    Implies,
    MetaVar,
    Not,
    Or,
    SortError,
    TRUE,
    TrueF,
    apply_subst,
    default_signature,
    get_at,
    metavars_of,
    normalize,
    parse_formula,
    parse_path,
    parse_term,
    print_formula,
    replace_at,
    rename_metavars,
    term_unify,
)

from ground import ground_signature
from oracles import reference_canonical, reference_normalize, reference_term_unify


def sig_with_params():
    sig = default_signature()
    for name, sort in (("th0", "subst"), ("e1", "expr"), ("e2", "expr")):
        sig.add_constant(name, sort)
    sig.add_function("unify", ("subst", "expr", "expr"), "subst")
    return sig


def test_parse_atom_sorts_inferred():
    f = parse_formula("(mgiu TH0 E1 E2 TH)")
    assert f == Atom(
        "mgiu",
        (
            MetaVar("TH0", "subst"),
            MetaVar("E1", "expr"),
            MetaVar("E2", "expr"),
            MetaVar("TH", "subst"),
        ),
    )


def test_parse_spec_condition():
    f = parse_formula("(implies (idem th0) (mgiu th0 e1 e2 TH))", sig_with_params())
    assert isinstance(f, Implies)
    assert f.consequent == Atom(
        "mgiu",
        (Apply("th0"), Apply("e1"), Apply("e2"), MetaVar("TH", "subst")),
    )


def test_parse_equality():
    f = parse_formula("(= (apply E TH) E)")
    assert isinstance(f, Eq)
    assert f.rhs == MetaVar("E", "expr")


def test_parse_errors():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(frobnicate X)")
    with pytest.raises(SortError):
        parse_formula("(= X Y)")  # no way to infer the shared sort
    with pytest.raises(SortError):
        parse_formula("(idem E1:expr)")


def test_print_parse_round_trip():
    texts = [
        "(implies (idem TH:subst) (mgiu TH E1 E2 TH))",
        "(and (is-var E:expr) (not (occurs-refl E D:expr)))",
        "(iff (misses TH:subst E:expr) (= (apply E TH) E))",
    ]
    for text in texts:
        f = parse_formula(text)
        assert parse_formula(print_formula(f)) == f
    sig = ground_signature()
    ground = [
        "(or (p) (not (q)))",
        "(and true (or false (h c0)))",
        "(implies (h (if (p) c0 c1)) (= X:expr (if (= c0 c1) (cons c1 X) c2)))",
        "(iff (not (p)) (= (if (or (q) (h c2)) c0 c1) c0))",
    ]
    for text in ground:
        f = parse_formula(text, sig)
        assert print_formula(f) == text.replace(":expr", "")
        assert parse_formula(print_formula(f), sig) == f
    for text in ("(if (p) c0 (cons c1 c2))", "(if (not (h X:expr)) X c1)", "c2"):
        t = parse_term(text, sig)
        assert parse_term(print_formula(t), sig) == t


def test_sort_inference_is_order_independent():
    forward = parse_formula("(and (= A B) (= B C) (is-var C))")
    backward = parse_formula("(and (is-var C) (= B C) (= A B))")
    assert metavars_of(forward) == metavars_of(backward) == {
        MetaVar(name, "expr") for name in "ABC"
    }


def test_truncated_input_is_a_syntax_error():
    for text in ("(", "(cons", "(cons X:expr", "(if (is-var X:expr) X"):
        with pytest.raises(FormulaSyntaxError):
            parse_term(text)
    for text in ("(= (", "(and (idem TH:subst)", "(not"):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(text)


def test_apply_subst_formula():
    sig = sig_with_params()
    f = parse_formula("(and (is-var X:expr) (misses TH:subst X))", sig)
    out = apply_subst(f, {"X": Apply("e1")})
    assert out == parse_formula("(and (is-var e1) (misses TH:subst e1))", sig)
    assert apply_subst(f, {}) == f


def test_nodes_and_map_node():
    sig = sig_with_params()
    f = parse_formula("(and (idem TH:subst) (= (apply e1 TH) E:expr))", sig)
    kinds = [type(n).__name__ for n in L.nodes(f)]
    assert kinds == ["And", "Atom", "MetaVar", "Eq", "Apply", "Apply", "MetaVar", "MetaVar"]
    assert L.map_node(f, lambda n: None) is f
    target = parse_term("(apply e1 TH:subst)", sig)
    # a replaced node is not entered, and unchanged sub-trees are shared
    out = L.map_node(f, lambda n: Apply("e2") if n == target else None)
    assert out == parse_formula("(and (idem TH:subst) (= e2 E:expr))", sig)
    assert out.parts[0] is f.parts[0]


def test_term_unify_examples():
    sig = sig_with_params()
    a = parse_formula("(mgiu TH0 E1 E2 TH)", sig)
    b = parse_formula("(mgiu th0 e1 e2 TH1:subst)", sig)
    theta = term_unify(a, b, sig)
    assert theta == {
        "TH0": Apply("th0"),
        "E1": Apply("e1"),
        "E2": Apply("e2"),
        "TH": MetaVar("TH1", "subst"),
    }
    assert apply_subst(a, theta) == apply_subst(b, theta)


def test_term_unify_occurs_check():
    sig = sig_with_params()
    a = parse_term("X:expr", sig)
    b = parse_term("(cons X:expr e1)", sig)
    assert term_unify(a, b, sig) is None


def test_term_unify_binds_a_metavar_only_to_a_term_of_its_sort():
    sig = sig_with_params()
    subst_mv, expr_term = parse_term("TH:subst", sig), parse_term("(cons X:expr e1)", sig)
    assert term_unify(subst_mv, expr_term, sig) is None
    assert term_unify(expr_term, subst_mv, sig) is None
    assert term_unify(subst_mv, parse_term("th0", sig), sig) == {"TH": Apply("th0")}


def test_term_unify_self():
    f = parse_formula("(idem TH:subst)")
    assert term_unify(f, f) == {}


def test_term_unify_idempotent():
    sig = sig_with_params()
    rngnames = ["A", "B", "C"]
    a = parse_term("(cons A:expr (cons B:expr C:expr))", sig)
    b = parse_term("(cons (cons B:expr B:expr) D:expr)", sig)
    theta = term_unify(a, b, sig)
    assert theta is not None
    for image in theta.values():
        assert not ({mv.name for mv in metavars_of(image)} & set(theta))


def test_term_unify_binds_left_to_right():
    # pairs are unified left to right, and of two metavars the one from `a`
    # is bound: right to left would give {X -> Y, Z -> Y}
    x, y, z = (MetaVar(n, "expr") for n in "XYZ")
    theta = term_unify(Apply("cons", (x, x)), Apply("cons", (y, z)))
    assert list(theta.items()) == [("X", z), ("Y", z)]


def cons_chain(depth: int, bottom) -> Apply:
    t = bottom
    for _ in range(depth):
        t = Apply("cons", (t, Apply("e1")))
    return t


def test_term_unify_on_a_deep_term():
    sig = sig_with_params()
    x = MetaVar("X", "expr")
    t = cons_chain(10_000, Apply("e1"))
    # the sides part only at the chain's bottom, one level apart
    deeper = Apply("cons", (t, x))
    assert term_unify(Atom("is-var", (t,)), Atom("is-var", (deeper,)), sig) is None
    theta = term_unify(Atom("is-var", (x,)), Atom("is-var", (t,)), sig)
    assert list(theta) == ["X"] and theta["X"] is t
    assert term_unify(cons_chain(10_000, x), t, sig) == {"X": Apply("e1")}


def test_normalize_examples():
    p = Atom("is-proper", (MetaVar("TH", "subst"),))
    q = Atom("idem", (MetaVar("TH", "subst"),))
    assert normalize(Not(Not(p))) == p
    assert normalize(Implies(p, q)) == Implies(p, q)
    assert normalize(And((p, TrueF()))) == p
    assert normalize(And((p, p))) == p
    assert normalize(Not(And((p, q)))) == Or((Not(p), Not(q)))
    assert normalize(Iff(p, p)) == TrueF()


PROPS = [Atom(f"p{i}") for i in range(4)]


def random_prop(rng, depth=3, atoms=PROPS):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    kind = rng.randrange(6)
    sub = lambda: random_prop(rng, depth - 1, atoms)  # noqa: E731
    if kind == 0:
        return Not(sub())
    if kind == 1:
        return And(tuple(sub() for _ in range(rng.randint(2, 3))))
    if kind == 2:
        return Or(tuple(sub() for _ in range(rng.randint(2, 3))))
    if kind == 3:
        return Implies(sub(), sub())
    if kind == 4:
        return Iff(sub(), sub())
    return rng.choice([TrueF(), L.FalseF()])


def prop_truth(f, assignment):
    if isinstance(f, TrueF):
        return True
    if isinstance(f, L.FalseF):
        return False
    if isinstance(f, Atom):
        return assignment[f.pred]
    if isinstance(f, Not):
        return not prop_truth(f.body, assignment)
    if isinstance(f, And):
        return all(prop_truth(p, assignment) for p in f.parts)
    if isinstance(f, Or):
        return any(prop_truth(p, assignment) for p in f.parts)
    if isinstance(f, Implies):
        return not prop_truth(f.antecedent, assignment) or prop_truth(
            f.consequent, assignment
        )
    return prop_truth(f.lhs, assignment) == prop_truth(f.rhs, assignment)


def test_normalize_preserves_truth():
    """normalize keeps a formula's truth, builds the normal form the
    re-walking reference builds, and leaves a normal formula as it is;
    negate and junction on normal formulas build what normalize would."""
    rng = random.Random(99)
    names = [p.pred for p in PROPS]
    for _ in range(2000):
        f = random_prop(rng, rng.randint(1, 5))
        g = normalize(f)
        assert g == reference_normalize(f)
        assert normalize(g) == g
        assert L.negate(g) == reference_normalize(Not(g))
        parts = (g, *(normalize(random_prop(rng)) for _ in range(rng.randint(0, 3))))
        for ctor in (And, Or):
            assert L.junction(ctor, parts) == reference_normalize(ctor(parts))
        for bits in itertools.product([False, True], repeat=4):
            assignment = dict(zip(names, bits))
            assert prop_truth(f, assignment) == prop_truth(g, assignment)


_A, _B = MetaVar("A", "expr"), MetaVar("B", "expr")
_E1 = Apply("e1")
# atoms and an equation over metavars, which a meta-substitution may make equal
META_ATOMS = [Atom("is-var", (t,)) for t in (_A, _B, _E1)] + [Eq(_A, _B)]
IMAGES = [_A, _B, _E1, Apply("cons", (_A, _E1))]


def _merges(g) -> set:
    """Which merges g shows: a junction with equal parts, an iff with equal sides."""
    found = set()
    for n in L.nodes(g):
        if type(n) in (And, Or) and len(set(n.parts)) < len(n.parts):
            found.add("junction")
        elif type(n) is Iff and n.lhs == n.rhs:
            found.add("iff")
    return found


def test_normalize_with_a_leaf_is_normalize_after_substituting():
    """normalize(f, θ-leaf) is normalize(θ(f)), whether or not f is normal
    first; a fixed share of draws has θ merge atoms, so equal parts and
    equal iff sides are met."""
    rng = random.Random(19)
    draws, merged = 2000, {"junction": 0, "iff": 0}
    for _ in range(draws):
        f = random_prop(rng, rng.randint(1, 5), META_ATOMS)
        theta = {name: rng.choice(IMAGES) for name in "AB" if rng.random() < 0.8}
        leaf = lambda a: apply_subst(a, theta)  # noqa: E731
        want = reference_normalize(apply_subst(f, theta))
        assert normalize(f, leaf) == want
        assert normalize(normalize(f), leaf) == want
        assert normalize(apply_subst(f, theta)) == want
        for kind in _merges(apply_subst(normalize(f), theta)):
            merged[kind] += 1
    # 80 and 26 of the 2000 draws of this seed
    assert merged["junction"] >= draws // 40 and merged["iff"] >= draws // 200, merged


def test_paths():
    sig = sig_with_params()
    f = parse_formula("(and (idem th0) (= (apply e1 TH:subst) e2))", sig)
    assert get_at(f, parse_path("1")) == parse_formula("(idem th0)", sig)
    assert get_at(f, parse_path("2.1")) == parse_term("(apply e1 TH:subst)", sig)
    replaced = replace_at(f, parse_path("2.1"), Apply("e1"))
    assert replaced == parse_formula("(and (idem th0) (= e1 e2))", sig)
    assert parse_path("-") == ()


def test_bad_path_message_names_the_path_and_the_children():
    f = parse_formula("(and (idem th0) (= (apply e1 TH:subst) e2))", sig_with_params())
    message = r"^bad path 2\.1\.3: the node at 2\.1 has 2 children$"
    with pytest.raises(L.BadPathError, match=message):
        get_at(f, (2, 1, 3))
    with pytest.raises(L.BadPathError, match=message):
        replace_at(f, (2, 1, 3), Apply("e1"))


def test_check_formula_on_a_deep_term():
    sig = sig_with_params()
    t = Apply("e1")
    for _ in range(10_000):
        t = Apply("cons", (t, Apply("e1")))
    L.check_formula(Atom("is-var", (t,)), sig)
    with pytest.raises(SortError, match="expected sort expr, got subst in th0"):
        L.check_formula(Atom("is-var", (Apply("cons", (t, Apply("th0"))),)), sig)


def test_check_formula_names_a_deep_ill_sorted_term_by_its_head():
    t = Apply("e1")
    for _ in range(10_000):
        t = Apply("cons", (t, Apply("e1")))
    # the message quotes the term by its head and arity, not its full text
    with pytest.raises(SortError, match=r"^expected sort subst, got expr in \(cons _ _\)$"):
        L.check_formula(Atom("is-proper", (t,)), sig_with_params())


def test_rename_metavars_round_trip():
    f = parse_formula("(mgiu TH0 E1 E2 TH)")
    renamed = rename_metavars(f, {"TH0": "A", "TH": "B"})
    assert rename_metavars(renamed, {"A": "TH0", "B": "TH"}) == f


def random_lterm(rng, sig, depth=3):
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.5:
            return MetaVar(rng.choice(["A", "B", "C"]), "expr")
        return Apply(rng.choice(["e1", "e2"]))
    fn = rng.choice(["cons", "left", "right"])
    arity = 2 if fn == "cons" else 1
    return Apply(fn, tuple(random_lterm(rng, sig, depth - 1) for _ in range(arity)))


def test_term_unify_random_pairs():
    rng = random.Random(2024)
    sig = sig_with_params()
    unified = 0
    for _ in range(500):
        a = random_lterm(rng, sig)
        b = random_lterm(rng, sig)
        theta = term_unify(a, b, sig)
        if theta is None:
            continue
        unified += 1
        assert apply_subst(a, theta) == apply_subst(b, theta)
        for image in theta.values():
            assert not ({mv.name for mv in metavars_of(image)} & set(theta))
    assert unified > 50


# one sort per name, so that a name is one metavar; W is unsorted
X, Y, Z, S, W = (MetaVar(n, s) for n, s in zip("XYZSW", ["expr"] * 3 + ["subst", "?"]))
E1, TH0 = Apply("e1"), Apply("th0")
_unify_terms = st.recursive(
    st.sampled_from([X, Y, Z, S, W, E1, Apply("e2"), TH0]),
    lambda terms: st.one_of(
        st.builds(Apply, st.sampled_from(["cons", "apply", "compose"]), st.tuples(terms, terms)),
        st.builds(Cond, st.builds(Atom, st.just("is-var"), st.tuples(terms)), terms, terms),
    ),
    max_leaves=8,
)
_unify_formulas = st.one_of(
    st.builds(Eq, _unify_terms, _unify_terms),
    st.builds(
        Atom, st.sampled_from(["occurs-proper", "misses"]), st.tuples(_unify_terms, _unify_terms)
    ),
    st.builds(Not, st.builds(Atom, st.just("is-var"), st.tuples(_unify_terms))),
    st.just(TRUE),
)


@settings(deadline=None, max_examples=400)
@given(
    st.one_of(st.tuples(_unify_terms, _unify_terms), st.tuples(_unify_formulas, _unify_formulas))
)
@example((X, Apply("cons", (X, E1))))  # occurs
@example((Apply("cons", (X, Y)), Apply("cons", (Y, Apply("cons", (X, E1))))))  # occurs, through Y
@example((X, TH0))  # sort clash
@example((Apply("cons", (X, Y)), Apply("cons", (Y, E1))))  # shared metavars
# W, unsorted, is bound first; X's sort is then read through W's binding
@example((Apply("cons", (W, X)), Apply("cons", (TH0, Cond(Atom("is-var", (E1,)), W, E1)))))
@example((Apply("cons", (W, X)), Apply("cons", (E1, Cond(Atom("is-var", (E1,)), W, TH0)))))
def test_term_unify_is_the_eager_reference(pair):
    # the triangular bindings resolve to the same dict, in the same order,
    # as binding each term resolved and resolving every earlier binding
    a, b = pair
    sig = sig_with_params()
    got, want = term_unify(a, b, sig), reference_term_unify(a, b, sig)
    assert got == want
    assert got is None or list(got.items()) == list(want.items())


# -- identity up to renaming --------------------------------------------------
# logic.canonical reads arguments itself and emits three entries per node;
# two items get equal canonical forms exactly when the old walk through
# nodes, head and children gave them equal forms


def _same_partition(items) -> None:
    """items group under canonical exactly as under reference_canonical."""
    def groups(key):
        by: dict = {}
        for i, item in enumerate(items):
            by.setdefault(key(item), set()).add(i)
        return {frozenset(g) for g in by.values()}

    assert groups(L.canonical) == groups(reference_canonical)


def test_canonical_groups_the_bundled_replay_rows_as_the_reference_walk():
    data = pathlib.Path(L.__file__).parent / "data"
    theory = engine.load_theory((data / "unify.thy").read_text())
    tableau, _ = engine.replay(theory, "unify", (data / "unify.derivation").read_text())
    rows = tableau.rows
    items = [r.formula for r in rows] + [(r.formula, r.output) for r in rows]
    items += [r.output for r in rows if r.output is not None]
    _same_partition(items)
    # the replay restates rows up to renaming, and with and without an output
    assert len(set(map(L.canonical, items))) < len(items)


_NAMES = st.sampled_from("XYZ")
_metavars = st.builds(MetaVar, _NAMES, st.sampled_from(["expr", "subst"]))


def _atoms(terms):
    # an Atom named "=" and an Apply named "and" share a symbol with an Eq
    # and a connective's keyword
    args = st.lists(terms, max_size=2).map(tuple)
    return st.one_of(
        st.just(TRUE), st.just(FALSE), st.builds(Eq, terms, terms),
        st.builds(Atom, st.sampled_from(["is-var", "idem", "="]), args),
    )


_terms = st.recursive(
    st.one_of(_metavars, st.builds(Apply, st.sampled_from(["e1", "th0"]))),
    lambda terms: st.one_of(
        st.builds(
            Apply, st.sampled_from(["cons", "and"]), st.lists(terms, min_size=1, max_size=2).map(tuple)
        ),
        st.builds(Cond, _atoms(terms), terms, terms),
    ),
    max_leaves=5,
)
_formulas = st.recursive(
    _atoms(_terms),
    lambda fs: st.one_of(
        st.builds(Not, fs),
        st.builds(And, st.lists(fs, min_size=2, max_size=3).map(tuple)),
        st.builds(Or, st.lists(fs, min_size=2, max_size=3).map(tuple)),
        st.builds(Implies, fs, fs),
        st.builds(Iff, fs, fs),
    ),
    max_leaves=5,
)
_nodes = st.one_of(_formulas, _terms)


@settings(deadline=None)
@given(st.data())
def test_canonical_equality_is_the_reference_walks(data):
    a = data.draw(_nodes)
    # b is another node, or a under a renaming that need not be one to one
    renamings = st.dictionaries(_NAMES, st.sampled_from("XYZW"))
    b = data.draw(st.one_of(_nodes, renamings.map(lambda m: rename_metavars(a, m))))
    out = data.draw(st.one_of(st.none(), _terms))
    _same_partition([a, b, (a, None), (b, None), (a, out), (b, out), (out, a)])
