import itertools
import random

import pytest

from tabsynth import logic as L
from tabsynth.logic import Apply, Atom, Cond, MetaVar, Not, parse_formula, parse_term
from tabsynth.tableau import (
    ASSERTION,
    GOAL,
    IllFormedSpecError,
    NotOrphanError,
    NotSplittableError,
    NotUnifiableError,
    ProgramSpec,
    Row,
    Tableau,
    UnknownLemmaError,
    UnknownRelationError,
    equal_up_to_renaming,
)
from tabsynth.wf import U_REL

import ground
from ground import MODELS, allowed_outputs, ground_signature, output_set_leq
from oracles import reference_normalize
from test_logic import prop_truth


def unify_sig():
    sig = L.default_signature()
    for name, sort in (("th0", "subst"), ("e1", "expr"), ("e2", "expr")):
        sig.add_constant(name, sort)
    sig.add_function("unify", ("subst", "expr", "expr"), "subst")
    return sig


def unify_spec(sig):
    cond = parse_formula("(implies (idem th0) (mgiu th0 e1 e2 TH:subst))", sig)
    return ProgramSpec(
        "unify",
        (("th0", "subst"), ("e1", "expr"), ("e2", "expr")),
        MetaVar("TH", "subst"),
        cond,
    )


def fresh_tableau(**kwargs):
    sig = unify_sig()
    return Tableau(unify_spec(sig), sig, relations={"u-rel": U_REL}, **kwargs)


def prop_tableau():
    sig = ground_signature()
    spec = ProgramSpec("f", (("c0", "expr"),), MetaVar("Z", "expr"), Atom("p"))
    return Tableau(
        spec,
        sig,
        strict=False,
        primitive_preds=frozenset({"p", "q", "h"}),
        primitive_fns=frozenset({"c0", "c1", "c2"}),
    )


def goal_row(tab, formula, output=None):
    """Enter an arbitrary goal row by dualizing its negation."""
    inter = tab.add_assertion(formula=Not(formula), output=output, assumption=True)
    return tab.dualize(inter.rid)


# -- construction ------------------------------------------------------------

def test_init_tableau():
    tab = fresh_tableau()
    row = tab.rows[0]
    assert row.kind == GOAL and row.output == MetaVar("TH", "subst")
    assert L.print_formula(row.formula) == "(implies (idem th0) (mgiu th0 e1 e2 TH))"


def test_init_no_output_spec():
    sig = unify_sig()
    spec = ProgramSpec("check", (("e1", "expr"),), None, parse_formula("(is-atom e1)", sig))
    tab = Tableau(spec, sig)
    assert tab.rows[0].output is None


def test_init_rejects_stray_metavars():
    sig = unify_sig()
    cond = parse_formula("(mgiu th0 e1 E2:expr TH:subst)", sig)
    spec = ProgramSpec("bad", (("th0", "subst"),), MetaVar("TH", "subst"), cond)
    with pytest.raises(IllFormedSpecError):
        Tableau(spec, sig)


def test_add_assertion_registration():
    sig = unify_sig()
    lemma = parse_formula("(iff (idem TH:subst) (more-genid TH TH))", sig)
    tab = Tableau(unify_spec(sig), sig, lemmas={"idem-iff": lemma})
    row = tab.add_assertion(name="idem-iff")
    assert row.kind == ASSERTION and row.formula == lemma
    with pytest.raises(UnknownLemmaError):
        tab.add_assertion(name="nope")
    with pytest.raises(UnknownLemmaError):
        tab.add_assertion(formula=lemma)  # strict mode requires a name
    assumed = tab.add_assertion(formula=lemma, assumption=True)
    assert assumed.step[0] == "assume"


# -- resolution --------------------------------------------------------------

def deep_cons(depth: int) -> Apply:
    t = Apply("e1")
    for _ in range(depth):
        t = Apply("cons", (t, Apply("e1")))
    return t


def test_assume_a_deep_atom():
    t = deep_cons(10_000)
    row = fresh_tableau().assume(Atom("is-var", (t,)))
    assert row.kind == ASSERTION and row.formula.args[0] is t


def test_equal_up_to_renaming_on_a_deep_term():
    t = deep_cons(10_000)
    assert equal_up_to_renaming(t, t)
    assert not equal_up_to_renaming(t, Apply("cons", (t.args[0], Apply("e2"))))


def test_equal_up_to_renaming_is_a_bijection_of_sorted_names():
    x, y = MetaVar("X", "expr"), MetaVar("Y", "expr")
    xy, yx, xx = (Atom("occurs-proper", args) for args in ((x, y), (y, x), (x, x)))
    assert equal_up_to_renaming(xy, yx)
    assert not equal_up_to_renaming(xy, xx) and not equal_up_to_renaming(xx, xy)
    assert not equal_up_to_renaming(x, MetaVar("X", "subst"))
    assert equal_up_to_renaming((xy, None), (yx, None))
    assert not equal_up_to_renaming((x, x), (x, y))
    assert not equal_up_to_renaming((xy, None), (xy, x))


def test_resolution_goal_goal_conditional():
    tab = prop_tableau()
    p, q, r = Atom("p"), Atom("q"), Atom("h", (Apply("c0"),))
    g1 = goal_row(tab, L.And((p, q)), Apply("c0"))
    g2 = goal_row(tab, L.And((Not(p), r)), Apply("c1"))
    out = tab.resolve(g1.rid, "1", g2.rid, "1.1")
    assert out.kind == GOAL
    assert out.formula == L.And((q, r))
    assert out.output == Cond(p, Apply("c0"), Apply("c1"))


def test_resolution_missing_output_suppresses_conditional():
    tab = prop_tableau()
    p, q, r = Atom("p"), Atom("q"), Atom("h", (Apply("c0"),))
    g1 = goal_row(tab, L.And((p, q)), Apply("c0"))
    g2 = goal_row(tab, L.And((Not(p), r)), None)
    out = tab.resolve(g1.rid, "1", g2.rid, "1.1")
    assert out.output == Apply("c0")
    g3 = goal_row(tab, L.And((p, q)), None)
    g4 = goal_row(tab, L.And((Not(p), r)), None)
    assert tab.resolve(g3.rid, "1", g4.rid, "1.1").output is None


def test_resolution_closing_step():
    # the derivation's final conditional: proper environment or failure
    tab = fresh_tableau(strict=False)
    prop = parse_formula("(is-proper th0)", tab.sig)
    t_then = parse_term("(compose th0 (replace e1 e2))", tab.sig)
    inter1 = tab.add_assertion(formula=Not(prop), output=t_then, assumption=True)
    g1 = tab.dualize(inter1.rid)
    inter2 = tab.add_assertion(formula=prop, output=Apply("bot"), assumption=True)
    g2 = tab.dualize(inter2.rid)
    out = tab.resolve(g1.rid, "-", g2.rid, "1")
    assert isinstance(out.formula, L.TrueF)
    assert out.output == Cond(prop, t_then, Apply("bot"))


def test_resolution_not_unifiable():
    tab = prop_tableau()
    g1 = goal_row(tab, Atom("h", (Apply("c0"),)))
    g2 = goal_row(tab, Not(Atom("h", (Apply("c1"),))))
    with pytest.raises(NotUnifiableError):
        tab.resolve(g1.rid, "-", g2.rid, "1")


def test_resolution_standardizes_apart():
    sig = unify_sig()
    tab = Tableau(unify_spec(sig), sig, strict=False)
    # both rows use the metavar name TH; renaming must keep them distinct
    a1 = tab.add_assertion(
        formula=parse_formula("(implies (idem TH:subst) (more-genid TH TH))", sig),
        assumption=True,
    )
    a2 = tab.add_assertion(
        formula=parse_formula("(implies (more-genid TH:subst TH) (idem TH))", sig),
        assumption=True,
    )
    out = tab.resolve(a1.rid, "2", a2.rid, "1")
    assert out.kind == ASSERTION


def test_renaming_apart_skips_the_names_of_the_other_row():
    sig = unify_sig()
    for iff in (False, True):
        tab = Tableau(unify_spec(sig), sig, strict=False)
        # TH#1 is the name the counter offers the goal's TH first
        atom = "(mgiu th0 e1 e2 TH#1:subst)"
        text = f"(iff {atom} (idem TH#1))" if iff else atom
        row = tab.add_assertion(formula=parse_formula(text, sig), assumption=True)
        if iff:
            new = tab.equivalence_replace(row.rid, "-", 1, "2", "ltr")
        else:
            new = tab.resolve(row.rid, "-", 1, "2")
        assert "TH#2" in new.unifier
        assert not new.metavar_names & tab.rows[0].metavar_names


# -- the one-walk construction against renaming row 2 whole -----------------


def _renamed_whole(tab, row1, row2):
    """Row 2's formula and output with every metavar fresh-renamed, as the
    pair rules once renamed them before unifying, and the counter after."""
    fresh, mapping = tab._fresh, {}
    for name in sorted(row2.metavar_names):
        base = name.split("#", 1)[0]
        fresh += 1
        while f"{base}#{fresh}" in row1.metavar_names:
            fresh += 1
        mapping[name] = f"{base}#{fresh}"
    out = row2.output
    renamed = (L.rename_metavars(row2.formula, mapping), out and L.rename_metavars(out, mapping))
    return renamed, fresh


def _old_construction(tab, rule, rid1, path1, rid2, path2, direction=None):
    """(kind, formula, output, unifier text, counter) of the row rule makes,
    built as it once was: row 2 renamed whole, then each part substituted;
    None if the occurrences do not unify."""
    row1, row2 = tab.row(rid1), tab.row(rid2)
    (f2, out2), fresh = _renamed_whole(tab, row1, row2)
    p1, p2 = L.parse_path(path1), L.parse_path(path2)
    node1 = L.get_at(row1.formula, p1)
    if rule == "resolve":
        theta = L.term_unify(L.get_at(f2, p2), node1, tab.sig)
        part1, part2 = L.replace_at(row1.formula, p1, L.TRUE), L.replace_at(f2, p2, L.FALSE)
        then, els = row1.output, out2
    else:
        src, dst = (node1.lhs, node1.rhs) if direction == "ltr" else (node1.rhs, node1.lhs)
        theta = L.term_unify(L.get_at(f2, p2), src, tab.sig)
        part1, part2 = L.replace_at(row1.formula, p1, L.FALSE), L.replace_at(f2, p2, dst)
        then, els = out2, row1.output
    if theta is None:
        return None
    sub = lambda n: None if n is None else L.apply_subst(n, theta)  # noqa: E731
    g1, g2 = sub(part1), sub(part2)
    g1, g2 = (g if r.kind == GOAL else Not(g) for g, r in ((g1, row1), (g2, row2)))
    formula = L.normalize(L.And((g1, g2)))
    kind = ASSERTION if row1.kind == row2.kind == ASSERTION else GOAL
    if kind == ASSERTION:
        formula = L.normalize(Not(formula))
    then, els, test = sub(then), sub(els), sub(node1)
    if then is None or els is None:
        output = then or els
    elif then == els or isinstance(test, L.TrueF):
        output = then
    else:
        output = els if isinstance(test, L.FalseF) else Cond(test, then, els)
    unifier = ", ".join(f"{n} -> {L.print_formula(t)}" for n, t in sorted(theta.items()))
    return kind, formula, output, "{" + unifier + "}", fresh


def _collision_tableau():
    """Rows whose names collide, each with an output metavar its formula lacks."""
    tab = fresh_tableau(strict=False)
    sig = tab.sig

    def assume(formula, output):
        return tab.assume(parse_formula(formula, sig), parse_term(output, sig)).rid

    # S#1 in row 1 is the name the counter offers row 2's S first
    r1 = assume("(idem TH:subst)", "(compose TH:subst S#1:subst)")
    r2 = assume("(implies (idem TH:subst) (more-genid TH S:subst))", "(compose S V:subst)")
    r3 = assume("(iff (idem TH:subst) (more-genid TH TH))", "(compose TH W:subst)")
    r4 = assume("(= (compose TH:subst empty-subst) TH)", "(compose TH S#1:subst)")
    r5 = assume(
        "(implies (idem (compose TH:subst S:subst)) (more-genid (compose TH S) TH))",
        "(compose S V:subst)",
    )
    r6 = assume("(more-genid W:subst TH:subst)", "(compose TH W)")
    # true atoms, which put under theta are a test of true; only r8 has an output
    r7 = tab.assume(L.TRUE).rid
    r8 = assume("true", "(compose TH:subst W:subst)")
    rids = {"r1": r1, "r2": r2, "r3": r3, "r4": r4, "r5": r5, "r6": r6}
    return tab, {**rids, "r7": r7, "r8": r8}


@pytest.mark.parametrize(
    "rule, args",
    [
        ("resolve", ("r1", "-", "r2", "1")),
        ("resolve", ("r2", "1", "r1", "-")),
        ("resolve", ("r2", "1", "r2", "1")),
        # a unifier of two bindings, made in the reverse of their sorted order
        ("resolve", ("r6", "-", "r2", "2")),
        ("equivalence_replace", ("r3", "-", "r2", "1", "ltr")),
        ("equivalence_replace", ("r3", "-", "r1", "-", "ltr")),
        # the unifier binds row 1's TH, which the side put in occurs in
        ("equivalence_replace", ("r3", "-", "r5", "1", "ltr")),
        ("equality_replace", ("r4", "-", "r5", "2.1", "rtl")),
        ("equality_replace", ("r4", "-", "r2", "2.1", "rtl")),
        ("equality_replace", ("r4", "-", "r1", "1", "rtl")),
        # a missing output leaves the other, whatever the test
        ("resolve", ("r7", "-", "r8", "-")),
        ("resolve", ("r8", "-", "r7", "-")),
    ],
)
def test_one_walk_resolvent_equals_renaming_row_2_whole(rule, args):
    # row 2 is renamed apart only at the selected occurrence, and then
    # substituted in one walk; names, outputs and the unifier text match
    tab, rids = _collision_tableau()
    rid1, path1, rid2, path2, *direction = (rids.get(a, a) for a in args)
    kind = "resolve" if rule == "resolve" else "replace"
    want = _old_construction(tab, kind, rid1, path1, rid2, path2, *direction)
    row = getattr(tab, rule)(rid1, path1, rid2, path2, *direction)
    assert (row.kind, row.formula, row.output, row.unifier, tab._fresh) == want
    assert row.output is not None


# -- replacements -------------------------------------------------------------

def test_equality_replace_rewrites_term():
    tab = fresh_tableau(strict=False)
    eq = tab.add_assertion(
        formula=parse_formula("(= (apply e1 th0) e1)", tab.sig), assumption=True
    )
    goal = goal_row(
        tab,
        parse_formula(
            "(= (apply (apply e1 TH1:subst) TH2:subst) (apply e2 TH2:subst))", tab.sig
        ),
        MetaVar("TH2", "subst"),
    )
    out = tab.equality_replace(eq.rid, "-", goal.rid, "1.1", "ltr")
    want = parse_formula("(= (apply e1 TH2:subst) (apply e2 TH2:subst))", tab.sig)
    assert equal_up_to_renaming(out.formula, want)


def test_equality_replace_direction():
    tab = fresh_tableau(strict=False)
    eq = tab.add_assertion(
        formula=parse_formula(
            "(= (vars2 E1:expr E2:expr) (vars2 E2 E1))", tab.sig
        ),
        assumption=True,
    )
    goal = goal_row(
        tab, parse_formula("(subset (vars2 e2 e1) (vars2 e1 e2))", tab.sig)
    )
    out = tab.equality_replace(eq.rid, "-", goal.rid, "1", "ltr")
    assert out.formula == parse_formula("(subset (vars2 e1 e2) (vars2 e1 e2))", tab.sig)
    out2 = tab.equality_replace(eq.rid, "-", goal.rid, "2", "rtl")
    assert out2.formula == parse_formula("(subset (vars2 e2 e1) (vars2 e2 e1))", tab.sig)


def test_equality_replace_not_unifiable():
    tab = fresh_tableau(strict=False)
    eq = tab.add_assertion(
        formula=parse_formula("(= (left e1) e2)", tab.sig), assumption=True
    )
    goal = goal_row(tab, parse_formula("(is-atom (right e1))", tab.sig))
    with pytest.raises(NotUnifiableError):
        tab.equality_replace(eq.rid, "-", goal.rid, "1", "ltr")


def test_equivalence_replace_expands_definition():
    tab = fresh_tableau(strict=False)
    iff = tab.add_assertion(
        formula=parse_formula(
            "(iff (misses TH:subst E:expr) (= (apply E TH) E))", tab.sig
        ),
        assumption=True,
    )
    goal = goal_row(tab, parse_formula("(misses th0 e1)", tab.sig), Apply("bot"))
    out = tab.equivalence_replace(iff.rid, "-", goal.rid, "-", "ltr")
    assert out.formula == parse_formula("(= (apply e1 th0) e1)", tab.sig)
    back = goal_row(tab, parse_formula("(= (apply e1 th0) e1)", tab.sig))
    out2 = tab.equivalence_replace(iff.rid, "-", back.rid, "-", "rtl")
    assert out2.formula == parse_formula("(misses th0 e1)", tab.sig)


def test_a_replacement_needs_an_occurrence_of_its_kind():
    # an equation rewrites a term, an equivalence a formula
    tab = fresh_tableau(strict=False)
    eq = tab.assume(parse_formula("(= (apply e1 th0) e1)", tab.sig))
    iff = tab.assume(parse_formula("(iff (misses TH:subst E:expr) (= (apply E TH) E))", tab.sig))
    goal = goal_row(tab, parse_formula("(misses th0 e1)", tab.sig))
    before = len(tab.rows)
    with pytest.raises(L.BadPathError, match="^equality replacement needs a term occurrence$"):
        tab.equality_replace(eq.rid, "-", goal.rid, "-", "ltr")
    with pytest.raises(L.BadPathError, match="^equivalence replacement needs a formula occurrence$"):
        tab.equivalence_replace(iff.rid, "-", goal.rid, "1", "ltr")
    assert len(tab.rows) == before


# -- splitting, duality, orphans ----------------------------------------------

def test_split_initial_goal():
    tab = fresh_tableau()
    a, g = tab.split_row(1)
    assert a.kind == ASSERTION and a.formula == parse_formula("(idem th0)", tab.sig)
    assert g.kind == GOAL and equal_up_to_renaming(
        g.formula, parse_formula("(mgiu th0 e1 e2 TH:subst)", tab.sig)
    )
    assert a.output == g.output == MetaVar("TH", "subst")


def test_split_assertion_conjunction():
    tab = prop_tableau()
    row = tab.add_assertion(
        formula=L.And((Atom("p"), Atom("q"))), assumption=True
    )
    parts = tab.split_row(row.rid)
    assert [r.formula for r in parts] == [Atom("p"), Atom("q")]
    assert all(r.kind == ASSERTION for r in parts)


def test_split_goal_disjunction():
    tab = prop_tableau()
    row = goal_row(tab, L.Or((Atom("p"), Atom("q"))), Apply("c0"))
    parts = tab.split_row(row.rid)
    assert [r.formula for r in parts] == [Atom("p"), Atom("q")]
    assert all(r.kind == GOAL and r.output == Apply("c0") for r in parts)


def test_split_not_splittable():
    tab = prop_tableau()
    row = goal_row(tab, Atom("p"))
    with pytest.raises(NotSplittableError):
        tab.split_row(row.rid)


def test_dualize():
    tab = fresh_tableau(strict=False)
    goal = goal_row(
        tab, parse_formula("(= e1 e2)", tab.sig), Apply("th0")
    )
    dual = tab.dualize(goal.rid)
    assert dual.kind == ASSERTION
    assert dual.formula == parse_formula("(not (= e1 e2))", tab.sig)
    assert dual.output == Apply("th0")
    double = tab.dualize(dual.rid)
    assert double.kind == GOAL and double.formula == goal.formula

    neg = goal_row(tab, parse_formula("(not (is-proper th0))", tab.sig), Apply("bot"))
    flipped = tab.dualize(neg.rid)
    assert flipped.kind == ASSERTION
    assert flipped.formula == parse_formula("(is-proper th0)", tab.sig)


def test_orphan():
    tab = fresh_tableau()
    a, _ = tab.split_row(1)
    dropped = tab.drop_orphan_output(a.rid)
    assert dropped.output is None and dropped.formula == a.formula
    goal = tab.rows[0]
    with pytest.raises(NotOrphanError):
        tab.drop_orphan_output(goal.rid)  # TH occurs in the condition
    with pytest.raises(NotOrphanError):
        tab.drop_orphan_output(dropped.rid)  # no output at all


# -- induction -----------------------------------------------------------------

def test_induction_hypothesis_shape():
    tab = fresh_tableau()
    row = tab.insert_induction_hypothesis("u-rel")
    want = parse_formula(
        "(implies (wf-ordered u-rel (tuple3 TH0':subst E1':expr E2':expr)"
        " (tuple3 th0 e1 e2))"
        " (implies (idem TH0') (mgiu TH0' E1' E2' (unify TH0' E1' E2'))))",
        tab.sig,
    )
    assert equal_up_to_renaming(row.formula, want)
    assert tab.decrease == tab.relations["u-rel"]


def test_induction_single_input():
    sig = L.default_signature()
    sig.add_constant("a1", "expr")
    sig.add_function("f", ("expr",), "expr")
    cond = L.Eq(MetaVar("Z", "expr"), Apply("a1"))
    spec = ProgramSpec("f", (("a1", "expr"),), MetaVar("Z", "expr"), cond)
    tab = Tableau(spec, sig, relations={"size": U_REL})
    row = tab.insert_induction_hypothesis("size")
    # the condition is instantiated at the primed input and its own call
    want = L.Implies(
        Atom("wf-ordered", (Apply("size"), MetaVar("A1'", "expr"), Apply("a1"))),
        L.Eq(Apply("f", (MetaVar("A1'", "expr"),)), MetaVar("A1'", "expr")),
    )
    assert equal_up_to_renaming(row.formula, want)


def test_induction_errors():
    tab = fresh_tableau()
    with pytest.raises(UnknownRelationError):
        tab.insert_induction_hypothesis("nope")
    tab.split_row(1)
    with pytest.raises(Exception):
        tab.insert_induction_hypothesis("u-rel")


# -- extraction ------------------------------------------------------------------

def test_extract_program():
    tab = prop_tableau()
    assert tab.extract_program() is None
    g1 = goal_row(tab, Atom("p"), Apply("c0"))
    g2 = goal_row(tab, Not(Atom("p")), Apply("c1"))
    tab.resolve(g1.rid, "-", g2.rid, "1")
    prog = tab.extract_program()
    assert prog is not None
    assert prog.body == Cond(Atom("p"), Apply("c0"), Apply("c1"))


def test_extract_from_false_assertion():
    tab = prop_tableau()
    a1 = tab.add_assertion(formula=Atom("p"), output=Apply("c0"), assumption=True)
    a2 = tab.add_assertion(formula=Not(Atom("p")), output=Apply("c1"), assumption=True)
    row = tab.resolve(a2.rid, "1", a1.rid, "-")
    assert row.kind == ASSERTION and isinstance(row.formula, L.FalseF)
    prog = tab.extract_program()
    assert prog is not None and isinstance(prog.body, Cond)


def test_extraction_yields_the_simplified_program():
    tab = prop_tableau()
    both = Cond(Atom("p"), Apply("c0"), Apply("c0"))
    tab.add_assertion(formula=L.FALSE, output=both, assumption=True)
    assert tab.extract_program().body == Apply("c0")


# -- output discipline and permutations -------------------------------------------

def test_output_discipline():
    rng = random.Random(5)
    tab = prop_tableau()
    pool = []
    atoms = [Atom("p"), Atom("q"), Atom("h", (Apply("c0"),))]
    for i in range(10):
        f = rng.choice(atoms)
        if rng.random() < 0.5:
            f = L.And((f, rng.choice(atoms)))
        out = Apply(f"c{rng.randrange(3)}") if rng.random() < 0.6 else None
        row = goal_row(tab, f, out) if rng.random() < 0.5 else tab.add_assertion(
            formula=f, output=out, assumption=True
        )
        pool.append(row)
    applications = 0
    for r1 in pool:
        for r2 in pool:
            occs1 = list(L.atom_paths(r1.formula))
            occs2 = list(L.atom_paths(r2.formula))
            for p1, a1 in occs1:
                for p2, a2 in occs2:
                    try:
                        out = tab.resolve(
                            r1.rid,
                            ".".join(map(str, p1)) or "-",
                            r2.rid,
                            ".".join(map(str, p2)) or "-",
                        )
                    except Exception:
                        continue
                    applications += 1
                    if out.output is not None:
                        assert r1.output is not None or r2.output is not None
                    if isinstance(out.output, Cond):
                        assert r1.output is not None and r2.output is not None
    assert applications > 10


def test_permutation_instance_interchange():
    f = parse_formula("(mgiu TH0 E1 E2 TH)")
    perm = {"TH0": "A", "E1": "B"}
    inverse = {"A": "TH0", "B": "E1"}
    assert L.rename_metavars(L.rename_metavars(f, perm), inverse) == f


# -- ground soundness ---------------------------------------------------------------

def random_ground_formula(rng, depth=2):
    if depth == 0 or rng.random() < 0.4:
        kind = rng.randrange(3)
        if kind == 0:
            return Atom(rng.choice(("p", "q")))
        if kind == 1:
            return Atom("h", (Apply(rng.choice(ground.CONSTS)),))
        return L.Eq(Apply(rng.choice(ground.CONSTS)), Apply(rng.choice(ground.CONSTS)))
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_ground_formula(rng, depth - 1))
    if kind == 1:
        return L.And(tuple(random_ground_formula(rng, depth - 1) for _ in range(2)))
    if kind == 2:
        return L.Or(tuple(random_ground_formula(rng, depth - 1) for _ in range(2)))
    return L.Iff(random_ground_formula(rng, depth - 1), random_ground_formula(rng, depth - 1))


def build_pool(tab, rng, n=8):
    pool = []
    for _ in range(n):
        f = random_ground_formula(rng)
        out = Apply(f"c{rng.randrange(3)}") if rng.random() < 0.7 else None
        if rng.random() < 0.5:
            pool.append(tab.add_assertion(formula=f, output=out, assumption=True))
        else:
            pool.append(goal_row(tab, f, out))
    return pool


def check_sound_addition(tab, before_rows, new_row):
    for model in MODELS:
        old = allowed_outputs(before_rows, model)
        new = allowed_outputs([new_row], model)
        assert output_set_leq(new, old), (
            f"unsound row {tab.render_row(new_row)} under {model}"
        )


def test_ground_soundness_resolution():
    rng = random.Random(17)
    tab = prop_tableau()
    pool = build_pool(tab, rng, n=12)
    checked = 0
    for r1 in pool:
        for r2 in pool:
            if r1.rid == r2.rid:
                continue
            for p1, a1 in list(L.atom_paths(r1.formula)):
                for p2, a2 in list(L.atom_paths(r2.formula)):
                    before = list(tab.rows)
                    try:
                        out = tab.resolve(
                            r1.rid,
                            ".".join(map(str, p1)) or "-",
                            r2.rid,
                            ".".join(map(str, p2)) or "-",
                        )
                    except Exception:
                        continue
                    check_sound_addition(tab, before, out)
                    checked += 1
    assert checked > 30


def test_ground_soundness_replacements():
    rng = random.Random(23)
    tab = prop_tableau()
    pool = build_pool(tab, rng, n=10)
    checked = 0
    for r1 in pool:
        eq_paths = [
            p for p, a in L.atom_paths(r1.formula) if isinstance(a, L.Eq)
        ]
        iff_paths = [
            p
            for p, a in _iff_paths(r1.formula)
        ]
        for r2 in pool:
            if r1.rid == r2.rid:
                continue
            term_paths = _term_paths(r2.formula)
            for p1 in eq_paths:
                for p2 in term_paths:
                    for direction in ("ltr", "rtl"):
                        before = list(tab.rows)
                        try:
                            out = tab.equality_replace(
                                r1.rid,
                                ".".join(map(str, p1)) or "-",
                                r2.rid,
                                ".".join(map(str, p2)),
                                direction,
                            )
                        except Exception:
                            continue
                        check_sound_addition(tab, before, out)
                        checked += 1
            for p1 in iff_paths:
                for p2, _ in list(L.atom_paths(r2.formula)):
                    before = list(tab.rows)
                    try:
                        out = tab.equivalence_replace(
                            r1.rid,
                            ".".join(map(str, p1)) or "-",
                            r2.rid,
                            ".".join(map(str, p2)) or "-",
                            "ltr",
                        )
                    except Exception:
                        continue
                    check_sound_addition(tab, before, out)
                    checked += 1
    assert checked > 20


def _term_paths(f):
    out = []

    def walk(node, path):
        if isinstance(node, (Atom, L.Eq)):
            for i, kid in enumerate(L.children(node), start=1):
                out.append(path + (i,))
            return
        if isinstance(node, (L.MetaVar, Apply, Cond)):
            return
        for i, kid in enumerate(L.children(node), start=1):
            walk(kid, path + (i,))

    walk(f, ())
    return out


def _iff_paths(f):
    def walk(node, path):
        if isinstance(node, L.Iff):
            yield path, node
        if isinstance(node, (Atom, L.Eq, L.MetaVar, Apply, Cond)):
            return
        for i, kid in enumerate(L.children(node), start=1):
            yield from walk(kid, path + (i,))

    yield from walk(f, ())


def test_ground_preservation_structural_rules():
    rng = random.Random(31)
    tab = prop_tableau()
    pool = build_pool(tab, rng, n=10)
    for row in pool:
        for apply_rule in ("split", "dualize", "orphan"):
            before = list(tab.rows)
            try:
                if apply_rule == "split":
                    new_rows = tab.split_row(row.rid)
                elif apply_rule == "dualize":
                    new_rows = [tab.dualize(row.rid)]
                else:
                    new_rows = [tab.drop_orphan_output(row.rid)]
            except Exception:
                continue
            for model in MODELS:
                assert allowed_outputs(before, model) == allowed_outputs(
                    before + new_rows, model
                )


def test_orphan_preserves_allowed_outputs():
    tab = prop_tableau()
    row = tab.add_assertion(
        formula=Atom("p"), output=MetaVar("V", "expr"), assumption=True
    )
    before = list(tab.rows)
    dropped = tab.drop_orphan_output(row.rid)
    for model in MODELS:
        assert allowed_outputs(before, model) == allowed_outputs(
            before + [dropped], model
        )


def test_a_bound_part_is_the_unbound_part_normalized_under_the_binding():
    # Row.part under theta is normalize(unbound part, theta-leaf), not
    # normalize(theta(f)): the two are equivalent, but their forms differ
    # here, as negating a normal implies twice gives an or
    sig = unify_sig()
    inner = (
        "(implies (implies (is-proper th0) (idem (compose th0 th0)))"
        " (not (iff (idem X:subst) (idem Y:subst))))"
    )
    goal = Row(1, GOAL, parse_formula(f"(implies {inner} (idem th0))", sig), None, ("init",))
    assertion = Row(2, ASSERTION, parse_formula(f"(or (idem th0) {inner})", sig), None, ("init",))
    theta = {"Y": MetaVar("X", "subst")}
    part = parse_formula("(implies (is-proper th0) (idem (compose th0 th0)))", sig)
    want = parse_formula("(or (not (is-proper th0)) (idem (compose th0 th0)))", sig)
    for row, path in ((goal, "2"), (assertion, "1")):
        got = row.part(path, L.FALSE, theta)
        f = L.apply_subst(L.replace_at(row.formula, L.parse_path(path), L.FALSE), theta)
        assert got == part, row.kind
        assert reference_normalize(f if row.kind == GOAL else Not(f)) == want
    preds = ["is-proper", "idem"]  # one atom each, in part and in want
    assert sorted(a.pred for a in L.nodes(want) if type(a) is Atom) == sorted(preds)
    for bits in itertools.product([False, True], repeat=len(preds)):
        assignment = dict(zip(preds, bits))
        assert prop_truth(part, assignment) == prop_truth(want, assignment)
