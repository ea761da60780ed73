import dataclasses
import hashlib
import itertools
import pathlib
import random
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

from tabsynth import engine
from tabsynth import logic as L
from tabsynth import program as P
from tabsynth.logic import MetaVar
from tabsynth.tableau import ASSERTION, GOAL, NotUnifiableError, Row, Tableau
from tabsynth.wf import Base

from oracles import reference_key_and_weight, reference_normalize
from test_tableau import _old_construction

DATA = pathlib.Path(__file__).resolve().parents[1] / "src/tabsynth/data"


@pytest.fixture(scope="module")
def unify_theory():
    return engine.load_theory((DATA / "unify.thy").read_text())


@pytest.fixture(scope="module")
def derivation():
    return (DATA / "unify.derivation").read_text()


def test_load_theory(unify_theory):
    assert "mgiu-def" in unify_theory.lemmas
    assert "u-rel" in unify_theory.relations
    spec = unify_theory.specs["unify"]
    assert spec.params == (("th0", "subst"), ("e1", "expr"), ("e2", "expr"))
    assert spec.output == MetaVar("TH", "subst")


def test_theory_syntax_errors():
    with pytest.raises(engine.EngineError):
        engine.load_theory("frobnicate x (y)")
    with pytest.raises(engine.EngineError):
        engine.load_theory("lemma unmatched (and (idem TH:subst)")


def test_replay_bundled(unify_theory, derivation):
    tableau, prog = engine.replay(unify_theory, "unify", derivation)
    assert P.emit(prog) == (DATA / "unify_program.golden").read_text()
    assert len(tableau.rows) == 136


def test_replay_determinism(unify_theory, derivation):
    t1, p1 = engine.replay(unify_theory, "unify", derivation)
    t2, p2 = engine.replay(unify_theory, "unify", derivation)
    assert P.emit(p1) == P.emit(p2)
    assert [t1.render_row(r) for r in t1.rows] == [t2.render_row(r) for r in t2.rows]


def test_replay_is_kernel_checkable(unify_theory, derivation):
    tableau, _ = engine.replay(unify_theory, "unify", derivation)
    assert engine.verify_replay(unify_theory, "unify", tableau)


def test_verify_replay_compares_formula_and_output_under_one_renaming(
    unify_theory, derivation
):
    tableau, _ = engine.replay(unify_theory, "unify", derivation)
    # FRESH alone is a renaming of TH, but not where the formula keeps TH
    first = tableau.rows[0]
    tableau.rows[0] = dataclasses.replace(first, output=MetaVar("FRESH", "subst"))
    assert not engine.verify_replay(unify_theory, "unify", tableau)


def test_verify_replay_on_dualize_and_assume_rows(unify_theory, derivation):
    lines = derivation.rstrip().splitlines()
    assert lines[-1] == "extract"
    extra = ["dualize 3", "assume (idem th0)", "assume (is-var e1) output th0"]
    script = "\n".join(lines[:-1] + extra + lines[-1:]) + "\n"
    tableau, _ = engine.replay(unify_theory, "unify", script)
    rules = [r.step[0] for r in tableau.rows[-3:]]
    assert rules == ["dualize", "assume", "assume"]
    assert tableau.rows[-1].output == L.Apply("th0")
    assert engine.verify_replay(unify_theory, "unify", tableau)


def test_replay_step_failure(unify_theory):
    script = "induct u-rel\nresolve 1 1 2 99\nextract\n"
    with pytest.raises(engine.StepFailedError) as err:
        engine.replay(unify_theory, "unify", script)
    assert err.value.index == 2


def test_step_failure_names_the_script_line(unify_theory):
    script = "induct u-rel\n\n# a comment\nresolve 1 1 2 99\nextract\n"
    with pytest.raises(engine.StepFailedError, match=r"^step 2 \(line 4\) failed: ") as err:
        engine.replay(unify_theory, "unify", script)
    assert err.value.index == 2


def test_bad_path_names_the_path_not_the_formula(unify_theory):
    script = "induct u-rel\nresolve 1 1 2 99\nextract\n"
    with pytest.raises(engine.StepFailedError) as err:
        engine.replay(unify_theory, "unify", script)
    assert isinstance(err.value.cause, L.BadPathError)
    assert str(err.value.cause) == "bad path 99: the node at - has 2 children"


def test_replay_names_a_replacement_direction_that_is_neither(unify_theory):
    with pytest.raises(engine.StepFailedError) as err:
        engine.replay(unify_theory, "unify", "eqrepl 1 - 1 - sideways\nextract\n")
    assert err.value.index == 1
    assert str(err.value.cause) == "direction must be ltr or rtl, not 'sideways'"


def test_apply_step_names_an_unknown_command(unify_theory):
    tableau = engine.make_tableau(unify_theory, "unify")
    with pytest.raises(engine.EngineError, match="^unknown command 'frobnicate'$"):
        engine.apply_step(tableau, ("frobnicate",))
    assert len(tableau.rows) == 1


def test_replay_truncated_assume(unify_theory):
    with pytest.raises(engine.StepFailedError) as err:
        engine.replay(unify_theory, "unify", "assume (= (\nextract\n")
    assert err.value.index == 1
    assert isinstance(err.value.cause, L.FormulaSyntaxError)


def test_replay_requires_extract(unify_theory):
    with pytest.raises(engine.EngineError):
        engine.replay(unify_theory, "unify", "induct u-rel\n")


def test_one_step_reflexivity_script():
    theory = engine.load_theory(
        """
        spec pick (a1:expr) output TH:expr (= a1 a1)
        lemma eq-refl-expr (= X:expr X)
        """
    )
    tableau, prog = engine.replay(
        theory, "pick", "assert eq-refl-expr\nresolve 1 - 2 -\nextract\n"
    )
    # the output variable is untouched: any primitive term satisfies (= a1 a1),
    # and extraction puts the parameter of its sort in its place
    assert isinstance(tableau.rows[-1].output, MetaVar)
    assert prog.body == L.Apply("a1")


def test_search_smoke():
    theory = engine.load_theory((DATA / "unify_same.thy").read_text())
    result = engine.search(theory, "unify-same", engine.SearchConfig(max_rows=200))
    assert result is not None
    tableau, prog = result
    assert len(tableau.rows) <= 200
    assert P.emit(prog).endswith("th0)\n")


def test_search_determinism():
    theory = engine.load_theory((DATA / "unify_same.thy").read_text())
    config = engine.SearchConfig(max_rows=200)
    r1 = engine.search(theory, "unify-same", config)
    r2 = engine.search(theory, "unify-same", config)
    assert P.emit(r1[1]) == P.emit(r2[1])


def test_search_row_budget():
    theory = engine.load_theory((DATA / "unify_same.thy").read_text())
    assert engine.search(theory, "unify-same", engine.SearchConfig(max_rows=0)) is None


def test_parse_script_comments():
    commands = engine.parse_script("# setup\ninduct u-rel  # hypothesis\n\nextract\n")
    assert [c.text for c in commands] == ["induct u-rel", "extract"]


def test_hash_inside_a_metavar_name_is_not_a_comment():
    theory = engine.load_theory("lemma foo (= X#1:expr X#1)  # fresh name\n")
    x = MetaVar("X#1", "expr")
    assert theory.lemmas["foo"] == L.Eq(x, x)
    commands = engine.parse_script("assume (is-var X#2:expr)  # a case\nextract\n")
    assert [c.text for c in commands] == ["assume (is-var X#2:expr)", "extract"]


def test_single_input_induction_leaves_theory_signature_alone():
    theory = engine.load_theory(
        "wfrel sz (size-lt)\nspec id1 (e:expr) output Z:expr (= Z e)\n"
    )
    tableau = engine.make_tableau(theory, "id1")
    tableau.insert_induction_hypothesis("sz")
    assert tableau.sig.predicates["wf-ordered"] == ("rel", "expr", "expr")
    assert theory.signature.predicates["wf-ordered"] == ("rel", "triple", "triple")


def test_deep_term_walks_do_not_recurse():
    chain = MetaVar("X", "expr")
    for _ in range(5000):
        chain = L.Apply("cons", (chain, L.Apply("e1")))
    f = L.Eq(chain, MetaVar("Y", "expr"))
    assert L.metavars_of(f) == {MetaVar("X", "expr"), MetaVar("Y", "expr")}
    # 5000 conses, 5000 e1 leaves, X, Y and the equality, at weight 1 each
    row = Row(1, GOAL, f, None, ("init",))
    assert engine._key_and_weight(row, engine.SearchConfig())[1] == 10003


def test_search_full_theory_exhausts_gracefully(unify_theory):
    # the full derivation is beyond a small bounded search; it must stop
    # cleanly at the row budget rather than crash
    result = engine.search(unify_theory, "unify", engine.SearchConfig(max_rows=60))
    assert result is None


def test_search_weight_configs_both_satisfy_contract():
    import random
    from tabsynth.subst import EMPTY
    from tabsynth.unify import mgiu_check
    from genlib import rand_expr, rand_idempotent_env

    theory = engine.load_theory((DATA / "unify_same.thy").read_text())
    rng = random.Random(12)
    for weights in ({}, {"mgiu": 3, "=": 2}):
        result = engine.search(
            theory, "unify-same", engine.SearchConfig(max_rows=200, weights=weights)
        )
        assert result is not None
        _, prog = result
        for _ in range(50):
            env = rand_idempotent_env(rng)
            e = rand_expr(rng, 2)
            out = P.interpret(prog, [env, e])
            assert mgiu_check(env, e, e, out).ok


def test_assume_command_in_script():
    theory = engine.load_theory(
        """
        spec pick (a1:expr) output TH:expr (is-atom a1)
        """
    )
    # the case assumption contributes the output for the non-atom case
    script = "assume (is-atom a1) output a1\nresolve 1 - 2 -\nextract\n"
    tableau, prog = engine.replay(theory, "pick", script)
    assert tableau.rows[1].step[0] == "assume"
    output = tableau.rows[-1].output
    assert isinstance(output, L.Cond)
    assert output.test == L.Atom("is-atom", (L.Apply("a1"),))
    assert output.els == L.Apply("a1")
    # the atom case's output is free: extraction grounds it to a1, and the
    # two equal branches collapse
    assert isinstance(output.then, MetaVar) and prog.body == L.Apply("a1")


def test_replay_trace_lists_every_row(unify_theory, derivation):
    rows = []
    tableau, _ = engine.replay(unify_theory, "unify", derivation, trace=rows.append)
    assert len(rows) == len(tableau.rows)
    assert all(got is want for got, want in zip(rows, tableau.rows))


def test_rows_record_the_script_steps_verbatim(unify_theory, derivation):
    tableau, _ = engine.replay(unify_theory, "unify", derivation)
    assert tableau.rows[0].step == ("init",)
    recorded = [step for step, _ in itertools.groupby(r.step for r in tableau.rows[1:])]
    commands = engine.parse_script(derivation)[:-1]  # all but extract
    assert recorded == [engine._parse_step(c.text, tableau.sig) for c in commands]


def test_malformed_theory_entry_is_named():
    # `lemma` alone on a line joins the next line's body as its name
    for text in ("lemma\n(x)\n", "wfrel\n(size-lt)\n"):
        with pytest.raises(engine.EngineError, match="malformed theory entry"):
            engine.load_theory(text)
    with pytest.raises(engine.EngineError, match="unknown theory entry '\\(x\\)'"):
        engine.load_theory("(x)\n")


def test_a_bare_wfrel_base_ends_at_its_line():
    spec = "spec f (a:expr) output Z:expr (= Z a)\n"
    for text in (
        "wfrel r size-lt\nlemma a (= X:expr X)\n" + spec,  # not joined to the lemma
        spec + "wfrel r size-lt\n",  # the last line
        "wfrel r size-lt lemma a (= X:expr X)\n" + spec,  # one line
        "wfrel r\n  size-lt\n" + spec,
    ):
        assert engine.load_theory(text).relations["r"] == Base("size-lt")


def _loaded(theory: engine.Theory) -> tuple:
    """What a theory file declares: lemmas, relations, specs and the signature tables."""
    sig = theory.signature
    return theory.lemmas, theory.relations, theory.specs, sig.functions, sig.predicates


_ONE_PER_LINE = (
    "wfrel r (size-lt)\n"
    "spec f (a:expr) output Z:expr (= Z a)\n"
    "lemma l1 (= X:expr X)\n"
    "lemma l2 (= X:subst X)\n"
)


@pytest.mark.parametrize(
    "old, new",
    [
        # each failed to load: a spec cut by its parens or its regex, or one
        # line holding more than one datum
        ("(a:expr) output", "(a:expr)\n  output"),
        ("Z:expr (= Z a)", "Z:expr\n  (= Z a)"),
        ("X)\nlemma", "X) lemma"),
        ("\n", " "),
    ],
    ids=["spec-before-output", "spec-before-condition", "two-lemmas", "one-line"],
)
def test_an_entry_is_its_data_wherever_its_lines_break(old, new):
    text = _ONE_PER_LINE.replace(old, new)
    assert text != _ONE_PER_LINE
    assert _loaded(engine.load_theory(text)) == _loaded(engine.load_theory(_ONE_PER_LINE))


def _without_comments(text: str) -> str:
    return "\n".join(engine._COMMENT.sub("", line) for line in text.splitlines())


_BUNDLED = {name: (DATA / name).read_text() for name in ("unify.thy", "unify_same.thy")}


@settings(derandomize=True, max_examples=12, deadline=None)
@given(name=st.sampled_from(sorted(_BUNDLED)), rng=st.randoms(use_true_random=False))
def test_a_theory_file_rebroken_at_random_whitespace_loads_the_same(name, rng):
    # a break may join two entries on one line, or part an entry anywhere
    words = _without_comments(_BUNDLED[name]).split()
    text = words[0] + "".join(rng.choice([" ", "\n", "\n    ", "\n\n"]) + w for w in words[1:])
    assert _loaded(engine.load_theory(text)) == _loaded(engine.load_theory(_BUNDLED[name]))


def test_a_theory_read_error_names_its_position_in_the_file():
    text = "# a comment\nlemma l (and (idem TH:subst)\n"
    with pytest.raises(engine.EngineError, match=r"theory text: unclosed '\(' \(at position 20\)"):
        engine.load_theory(text)
    assert text[20] == "("


def test_an_assume_line_is_read_as_data():
    # the formula was cut at the first word output, here inside output-x
    theory = engine.load_theory("spec output-x (a:expr) output Z:expr (= Z a)\n")
    sig = engine.make_tableau(theory, "output-x").sig
    formula = L.parse_formula("(= (output-x a) a)", sig)
    assert engine._parse_step("assume (= (output-x a) a)", sig) == ("assume", formula, None)
    step = engine._parse_step("assume (= (output-x a) a) output (output-x a)", sig)
    assert step == ("assume", formula, L.parse_term("(output-x a)", sig))


def test_malformed_script_command_is_named(unify_theory):
    commands = (
        "resolve 1 a 2",
        "resolve x a 2 b",
        "eqrepl 1 a 2 b",
        "iffrepl 1 a 2 b c d",
        "split x",
        "dualize",
        "orphan 1 2",
        "assert",
        "induct",
        "assume",  # no formula
        "assume (is-atom e1) e1",  # no output keyword
        "assume (is-atom e1) output",  # no output
        "assume (is-atom e1) output e1 e2",
    )
    for command in commands:
        with pytest.raises(engine.StepFailedError, match="malformed command") as err:
            engine.replay(unify_theory, "unify", f"{command}\nextract\n")
        assert err.value.index == 1


# -- moves the search never tries ---------------------------------------------

# (_row_key, rule, parents, paths) of every row of the 300-row
# full-theory search, as the search made them before it skipped any move
FULL_300_DIGEST = "a901b1a4afeeb05e35c38aff19ce0c8629f97f2611706e75edde78debde9dbe9"
# the printed rows (names and unifier text included) and the fresh-name
# counter of the same search, byte for byte
FULL_300_TEXT_DIGEST = "41171e222fb4e4c4870077c0929102022d18d36be02a931c96b38d339cddb20f"
# the pair moves of the unify-same and the 300-row full-theory search that make a row
COMPARED_SAME, COMPARED_300 = 36, 710


# the search's predicate, shape and live tests before it indexed occurrences,
# kept as the reference its moves are checked against


def _pred(atom) -> str:
    return atom.pred if isinstance(atom, L.Atom) else "="


def _clash(a, b) -> bool:
    """Whether a and b cannot unify, judged by their own and their children's tops."""
    ka, kb = L.children(a), L.children(b)
    if L.head(a) != L.head(b) or len(ka) != len(kb):
        return True
    return any(
        L.head(s) != L.head(t) or len(L.children(s)) != len(L.children(t))
        for s, t in zip(ka, kb)
        if type(s) is not MetaVar and type(t) is not MetaVar
    )


def _occurrences(row):
    """The row's (path text, atom) occurrences: selected, and all."""
    occs = [(".".join(map(str, p)) or "-", a) for p, a in L.atom_paths(row.formula)]
    ranks = [engine._RANK.get(_pred(a), -1) for _, a in occs]
    best = max(ranks, default=None)
    return [occ for occ, rank in zip(occs, ranks) if rank == best], occs


def _reference_moves(row, active):
    """Every move search once built on activating row, doomed or not, in its order:
    each same-predicate resolve pair both ways, each iffrepl against an iff row."""
    yield ("split", row.rid)
    if row.kind == ASSERTION:
        yield ("orphan", row.rid)
    own, _ = _occurrences(row)
    for other in active:
        _, partner = _occurrences(other)
        for (path1, a1), (path2, a2) in itertools.product(own, partner):
            if _pred(a1) == _pred(a2):
                yield ("resolve", row.rid, path1, other.rid, path2)
                yield ("resolve", other.rid, path2, row.rid, path1)
        for iff, target, paths in ((other, row, own), (row, other, partner)):
            if isinstance(iff.formula, L.Iff):
                for path, _ in paths:
                    yield ("iffrepl", iff.rid, "-", target.rid, path, "ltr")
                    yield ("iffrepl", iff.rid, "-", target.rid, path, "rtl")


def _may_try(move, rows, live) -> bool:
    """Whether the old shape and live tests let the search try a reference move.

    rows maps a rid to its row; live(rid, path, constant) is whether that
    row, with constant put at path, does not normalize to a vacuous row.
    """
    if move[0] == "resolve":
        _, rid1, path1, rid2, path2 = move
        a1 = L.get_at(rows[rid1].formula, L.parse_path(path1))
        a2 = L.get_at(rows[rid2].formula, L.parse_path(path2))
        return not _clash(a1, a2) and live(rid1, path1, L.TRUE) and live(rid2, path2, L.FALSE)
    if move[0] == "iffrepl":
        _, iff, _, target, path, direction = move
        side = getattr(rows[iff].formula, "lhs" if direction == "ltr" else "rhs")
        atom = L.get_at(rows[target].formula, L.parse_path(path))
        return live(iff, "-", L.FALSE) and not _clash(side, atom)
    return True


def _watch(monkeypatch, thy, spec, rows, compare=False) -> types.SimpleNamespace:
    """Run a search over thy, a bundled theory's file name or a path; return
    its result, its tableau, the steps it applied, the rows it activated and
    the moves each yielded, the moves it skipped, the number of calls of
    each pair rule, the occurrence pairs the index meets and the shape
    comparisons it makes.  Check that each activation yields exactly the
    reference moves the old shape and live tests let it try, in their order.
    Given compare, check each pair move against _old_construction and
    count the rows compared."""
    theory = engine.load_theory((DATA / thy).read_text())  # an absolute thy stays as it is
    watched = types.SimpleNamespace(steps=[], activated=[], yielded=[], skipped=[], compared=0)
    watched.calls = {"resolve": 0, "equivalence_replace": 0}
    watched.pairs = watched.comparisons = 0
    make, apply, moves_for = engine.make_tableau, engine.apply_step, engine.moves_for
    meeting, meets = engine._meeting, engine._meets
    known = {}  # (rid, path, constant) -> live; rids of kept rows are never reused

    def make_and_keep(*args):
        watched.tableau = make(*args)
        return watched.tableau

    def apply_and_note(tableau, step):
        watched.steps.append(step)
        if not compare or step[0] not in ("resolve", "iffrepl"):
            return apply(tableau, step)
        want = _old_construction(tableau, *step)
        try:
            made = apply(tableau, step)
        except NotUnifiableError:
            assert want is None, step
            raise
        (row,) = made
        assert (row.kind, row.formula, row.output, row.unifier, tableau._fresh) == want, step
        watched.compared += 1
        return made

    def moves_and_skipped(row, own, active, index):
        watched.activated.append(row)
        rows = {r.rid: r for r in [*active, row]}

        def live(rid, path, constant):
            if (rid, path, constant) not in known:
                r = rows[rid]
                f = L.normalize(L.replace_at(r.formula, L.parse_path(path), constant))
                vacuous = L.FalseF if r.kind == GOAL else L.TrueF
                known[rid, path, constant] = not isinstance(f, vacuous)
            return known[rid, path, constant]

        reference = list(_reference_moves(row, active))
        yielded = list(moves_for(row, own, active, index))
        assert yielded == [m for m in reference if _may_try(m, rows, live)], row.rid
        watched.yielded.append(yielded)
        tried = set(yielded)
        watched.skipped.extend(m for m in reference if m not in tried)
        yield from yielded

    def meeting_counted(*args):
        for entry in meeting(*args):
            watched.pairs += 1
            yield entry

    def meets_counted(*args):
        watched.comparisons += 1
        return meets(*args)

    monkeypatch.setattr(engine, "make_tableau", make_and_keep)
    monkeypatch.setattr(engine, "apply_step", apply_and_note)
    monkeypatch.setattr(engine, "moves_for", moves_and_skipped)
    monkeypatch.setattr(engine, "_meeting", meeting_counted)
    monkeypatch.setattr(engine, "_meets", meets_counted)
    for name in watched.calls:
        rule = getattr(Tableau, name)

        def counted(self, *args, _rule=rule, _name=name):
            watched.calls[_name] += 1
            return _rule(self, *args)

        monkeypatch.setattr(Tableau, name, counted)
    watched.result = engine.search(theory, spec, engine.SearchConfig(max_rows=rows))
    monkeypatch.undo()
    return watched


def _derivation_key(row) -> tuple:
    """The row up to metavar renaming, its output included."""
    return (row.kind, L.canonical((row.formula, row.output)))


def _hint(monkeypatch, hints) -> None:
    """Make every row whose _derivation_key is in hints weigh less than every
    other row, so that the search picks it first: R. Veroff's hints strategy
    (JAR 16(3), 1996), used as a meter.  Only the pick order changes."""
    key_and_weight = engine._key_and_weight

    def hinted(row, config):
        key, weight = key_and_weight(row, config)
        return key, (_derivation_key(row) not in hints, weight)

    monkeypatch.setattr(engine, "_key_and_weight", hinted)


def _in_move_space(tableau, step) -> bool:
    """Whether moves_for can yield a step of a derivation over tableau.

    A lemma row is never activated: split and orphan need a non-lemma row;
    resolve needs a non-lemma parent whose atom is selected; iffrepl needs
    an iff at the root of an assertion, and either that row not a lemma or
    a non-lemma target whose atom is selected."""
    def selected(rid, path):
        row = tableau.row(rid)
        own, _ = engine._occurrences(row)
        return row.step[0] != "assert" and any(occ[1] == path for occ in own)

    def lemma(rid):
        return tableau.row(rid).step[0] == "assert"

    rule = step[0]
    if rule == "split":
        return not lemma(step[1])
    if rule == "orphan":
        return not lemma(step[1]) and tableau.row(step[1]).kind == ASSERTION
    if rule == "resolve":
        return selected(step[1], step[2]) or selected(step[3], step[4])
    if rule == "iffrepl":
        _, iff, at, target, path, _ = step
        rewrites = at == "-" and tableau.row(iff).kind == ASSERTION
        return rewrites and (not lemma(iff) or selected(target, path))
    return False


def _closure(tableau) -> tuple[list, list]:
    """The rows of a derivation that no step outside the move space leads to,
    init and assert rows aside, and the steps outside it, by the rid each made."""
    outside, free = [], []
    for row in tableau.rows:
        if row.step[0] in ("init", "assert"):
            continue
        if not _in_move_space(tableau, row.step):
            outside.append(row.rid)
        ancestors, stack = set(), [row.rid]
        while stack:
            ancestors.add(rid := stack.pop())
            stack.extend(a for a in tableau.row(rid).step if type(a) is int)
        if not ancestors & set(outside):
            free.append(row.rid)
    return free, outside


def _search_watched(monkeypatch, thy, spec, rows):
    """Run a search; return its result, its tableau, the moves it skipped,
    and the number of calls of each pair rule."""
    watched = _watch(monkeypatch, thy, spec, rows)
    return watched.result, watched.tableau, watched.skipped, watched.calls


def _row_key(row) -> tuple:
    """The row up to metavar renaming, as search's duplicate key once printed it."""
    mapping: dict[str, str] = {}
    for node in L.nodes(row.formula):
        if isinstance(node, MetaVar):
            mapping.setdefault(node.name, f"V{len(mapping)}")
    formula = L.print_formula(L.rename_metavars(row.formula, mapping))
    return (row.kind, formula, row.output is None)


def _digest(tableau) -> str:
    h = hashlib.sha256()
    for r in tableau.rows:
        # the key as rows once recorded it: rule, parent rows, and the strings
        # of a step on rows (paths and a direction, not a lemma's name)
        parents = tuple(a for a in r.step if type(a) is int)
        paths = tuple(a for a in r.step[1:] if type(a) is str) if parents else ()
        key = (_row_key(r), r.step[0], parents, paths)
        h.update(repr(key).encode() + b"\n")
    return h.hexdigest()


def _text_digest(tableau) -> str:
    h = hashlib.sha256()
    for r in tableau.rows:
        h.update(Tableau.render_row(r).encode() + b"\n")
    h.update(str(tableau._fresh).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "thy, spec, rows", [("unify_same.thy", "unify-same", 200), ("unify.thy", "unify", 300)]
)
def test_skipped_moves_fail_to_unify_or_are_vacuous(monkeypatch, thy, spec, rows):
    _, tableau, skipped, _ = _search_watched(monkeypatch, thy, spec, rows)
    assert {m[0] for m in skipped} == {"resolve", "iffrepl"}
    for move in skipped:
        rule = tableau.resolve if move[0] == "resolve" else tableau.equivalence_replace
        before = len(tableau.rows)
        try:
            row = rule(*move[1:])
        except NotUnifiableError:
            continue
        assert tableau.rows[before:] == [row]
        dead = L.TrueF if row.kind == ASSERTION else L.FalseF
        assert isinstance(row.formula, dead), move
        tableau.truncate(before)


def test_search_meets_at_most_two_pairs_per_move_tried(monkeypatch):
    # each occurrence pair the index meets, and each shape comparison, is
    # work done per move tried; the pairwise loop made 2,125 shape tests here
    watched = _watch(monkeypatch, "unify.thy", "unify", 300)
    tried = len(watched.steps)
    assert (tried, watched.pairs, watched.comparisons) == (815, 1285, 381)
    assert watched.pairs <= 2 * tried and watched.comparisons <= 2 * tried


def test_full_theory_search_keeps_the_same_rows(monkeypatch):
    result, tableau, _, _ = _search_watched(monkeypatch, "unify.thy", "unify", 300)
    assert result is None and len(tableau.rows) == 300
    assert _digest(tableau) == FULL_300_DIGEST
    assert _text_digest(tableau) == FULL_300_TEXT_DIGEST


def test_search_pair_rule_calls(monkeypatch):
    # 1871 resolve and 490 iffrepl calls before doomed moves were skipped
    result, _, _, calls = _search_watched(monkeypatch, "unify.thy", "unify", 250)
    assert result is None
    assert calls["resolve"] <= 500
    assert calls["equivalence_replace"] <= 100
    result, tableau, _, _ = _search_watched(monkeypatch, "unify_same.thy", "unify-same", 200)
    assert result is not None and len(tableau.rows) == 31


@pytest.mark.parametrize(
    "thy, spec, rows, compared",
    [
        ("unify_same.thy", "unify-same", 200, COMPARED_SAME),
        ("unify.thy", "unify", 300, COMPARED_300),
    ],
)
def test_every_pair_move_builds_the_row_the_old_construction_builds(
    monkeypatch, thy, spec, rows, compared
):
    # each resolvent is now built from its parents' normalized residues;
    # kind, formula, output, unifier text and counter match renaming row 2
    # whole and normalizing the conjunction of the substituted parts
    assert _watch(monkeypatch, thy, spec, rows, compare=True).compared == compared


# the goal splits off the assertion (iff (is-var a) (is-const a)): an iff at
# the root of an activated row, which no search over the bundled theories
# activates; it rewrites the lemma's atoms and the goal's
_IFF_THEORY = """
lemma var-or-const (or (is-var E:expr) (is-const E:expr) (not (is-atom E:expr)))
spec f (a:expr) output Z:expr (implies (iff (is-var a) (is-const a)) (= Z a))
"""


def test_an_activated_iff_row_rewrites_the_active_rows(monkeypatch, tmp_path):
    thy = tmp_path / "iff.thy"
    thy.write_text(_IFF_THEORY)
    # _watch checks these moves, and their order, against the reference
    watched = _watch(monkeypatch, thy, "f", 60, compare=True)
    rewrites = [
        move
        for row, moves in zip(watched.activated, watched.yielded)
        for move in moves
        if move[0] == "iffrepl" and move[1] == row.rid
    ]
    assert watched.result is None and len(watched.tableau.rows) == 60
    assert [(m[1], m[3], m[5]) for m in rewrites] == [
        (3, 2, "ltr"), (3, 2, "rtl"), (3, 1, "ltr"), (3, 1, "rtl"),
        (6, 2, "ltr"), (6, 2, "rtl"), (6, 1, "ltr"), (6, 1, "rtl"), (6, 3, "ltr"), (6, 3, "rtl"),
    ]


def test_a_reused_rid_gets_its_own_live_and_residue_answers(unify_theory):
    # truncate gives a dropped row's rid to the next row made; what the
    # search reads about a row is kept on the row, not under its rid
    tableau = engine.make_tableau(unify_theory, "unify")
    sig = tableau.sig
    dropped = tableau.assume(L.parse_formula("(or (idem th0) (is-proper th0))", sig))
    assert dropped.part("1", L.TRUE) == L.FALSE  # its residue, true, in goal sense
    assert not engine._live(dropped, "1", L.TRUE)
    tableau.truncate(dropped.rid - 1)
    row = tableau.assume(L.parse_formula("(and (idem th0) (is-proper th0))", sig))
    assert row.rid == dropped.rid
    assert row.part("1", L.TRUE) == L.parse_formula("(not (is-proper th0))", sig)
    assert engine._live(row, "1", L.TRUE)


def test_full_theory_search_makes_a_fixed_number_of_calls():
    # Python-level calls of the package, counted as
    # test_reference_unify_makes_a_fixed_number_of_calls counts them, during
    # a 250-row search on a freshly loaded theory (cold), which prepares its
    # lemma rows, and during a second one (warm), which reuses them;
    # 137,078 to 137,116, by the string hash seed, when each resolvent was
    # substituted whole and its conjunction normalized, 106,661 when every
    # search built its own lemma rows and every move parsed its paths,
    # 76,825 and 71,581 when every move normalized row 1's residue anew,
    # substitution went through map_node and unification resolved every
    # binding as it made it, 45,242 and 40,213 when a row kept its
    # residues and live flags apart from its parts and moves_for read the
    # activated row's answers once per partner, 43,499 and 38,346 when a
    # row also kept its parts per binding of its metavars within a search,
    # and 45,914 and 40,406 when the index memoized each row's occurrences
    # by rid and an activation looked them up twice
    theory = engine.load_theory((DATA / "unify.thy").read_text())
    package = str(pathlib.Path(engine.__file__).parent)
    counts = []

    def profile(frame, event, arg):
        if event == "call":
            path = frame.f_code.co_filename
            counts[-1] += path == "<string>" or path.startswith(package)

    for _ in ("cold", "warm"):
        counts.append(0)
        sys.setprofile(profile)
        try:
            result = engine.search(theory, "unify", engine.SearchConfig(max_rows=250))
        finally:
            sys.setprofile(None)
        assert result is None
    assert counts == [45_875, 40_367]


@pytest.mark.parametrize(
    "thy, spec, rows, weights, keyed",
    [
        ("unify_same.thy", "unify-same", 200, {}, 46),
        ("unify_same.thy", "unify-same", 200, {"mgiu": 3, "=": 2, "idem": 2}, 46),
        ("unify.thy", "unify", 300, {}, 773),
    ],
)
def test_duplicate_keys_and_weights_match_the_walk_through_children(
    monkeypatch, thy, spec, rows, weights, keyed
):
    # _key_and_weight reads its key and weight off logic.canonical; every
    # row the search keys, the lemma rows included, gets the weight the old
    # walk gave it, and two keyed rows share a key exactly when the old
    # walk gave them equal keys
    key_and_weight, checked, pairs = engine._key_and_weight, [], set()

    def compared(row, config):
        got = key_and_weight(row, config)
        want = reference_key_and_weight(row, config)
        assert got[1] == want[1], row.rid
        checked.append(row)
        pairs.add((got[0], want[0]))
        return got

    monkeypatch.setattr(engine, "_key_and_weight", compared)
    theory = engine.load_theory((DATA / thy).read_text())
    engine.search(theory, spec, engine.SearchConfig(max_rows=rows, weights=weights))
    assert len(checked) == keyed
    assert len({k for k, _ in pairs}) == len({k for _, k in pairs}) == len(pairs) < keyed


@pytest.mark.parametrize(
    "weights, unknown", [({"and": 5}, "and"), ({"mgui": 3, "mgiu": 2, "X": 1}, "mgui, X")]
)
def test_weights_name_symbols_of_the_theory(unify_theory, weights, unknown):
    # a connective's keyword, a misspelled predicate and a metavar name no
    # symbol, and would weigh nothing
    config = engine.SearchConfig(max_rows=50, weights=weights)
    message = f"^weights name no symbol of the theory: {unknown}$"
    with pytest.raises(engine.EngineError, match=message):
        engine.search(unify_theory, "unify", config)


# -- the lemma rows a theory keeps ---------------------------------------------


def _search_tableau(monkeypatch, theory, spec, rows):
    """Run a search over theory; return its result and the tableau it made."""
    made, make = [], engine.make_tableau
    monkeypatch.setattr(engine, "make_tableau", lambda *args: made.append(make(*args)) or made[-1])
    result = engine.search(theory, spec, engine.SearchConfig(max_rows=rows))
    monkeypatch.undo()
    return result, made[-1]


def test_a_warm_search_reuses_the_lemma_rows_and_keeps_the_same_rows(monkeypatch):
    theory = engine.load_theory((DATA / "unify.thy").read_text())
    _, cold = _search_tableau(monkeypatch, theory, "unify", 300)
    _, warm = _search_tableau(monkeypatch, theory, "unify", 300)
    assert _digest(cold) == _digest(warm) == FULL_300_DIGEST
    assert cold._fresh == warm._fresh
    lemmas = slice(1, len(theory.lemmas) + 1)
    assert [r.step for r in warm.rows[lemmas]] == [("assert", n) for n in sorted(theory.lemmas)]
    assert all(a is b for a, b in zip(cold.rows[lemmas], warm.rows[lemmas], strict=True))
    assert warm.rows[0] is not cold.rows[0]


def test_search_tableaux_are_kernel_checkable(monkeypatch):
    # rows built from shared lemma rows re-derive on a fresh tableau: a search
    # that finds a program, and two 300-row searches over one theory, the
    # second on the lemma rows the first prepared
    same = engine.load_theory((DATA / "unify_same.thy").read_text())
    result, tableau = _search_tableau(monkeypatch, same, "unify-same", 200)
    assert result is not None and len(tableau.rows) == 31
    assert engine.verify_replay(same, "unify-same", tableau)
    theory = engine.load_theory((DATA / "unify.thy").read_text())
    for _ in ("cold", "warm"):
        result, tableau = _search_tableau(monkeypatch, theory, "unify", 300)
        assert result is None and len(tableau.rows) == 300
        assert engine.verify_replay(theory, "unify", tableau)


def test_changed_lemmas_get_new_lemma_rows(monkeypatch):
    def change(theory):
        # one lemma gone, and another name bound to a third lemma's formula
        names = sorted(theory.lemmas)
        del theory.lemmas[names[0]]
        theory.lemmas[names[1]] = theory.lemmas[names[2]]
        return theory

    text = (DATA / "unify.thy").read_text()
    theory = engine.load_theory(text)
    _, before = _search_tableau(monkeypatch, theory, "unify", 200)
    _, after = _search_tableau(monkeypatch, change(theory), "unify", 200)
    _, want = _search_tableau(monkeypatch, change(engine.load_theory(text)), "unify", 200)
    assert not {id(r) for r in before.rows} & {id(r) for r in after.rows}
    assert [r.step for r in after.rows[1:43]] == [("assert", n) for n in sorted(theory.lemmas)]
    assert _digest(after) == _digest(want) != _digest(before)
    assert after._fresh == want._fresh


def _random_theta(rng, row, sig) -> dict:
    """A meta-substitution binding some of row's metavars, and a name row lacks,
    each to a metavar or a constant of its sort."""
    sorts = {mv.name: mv.sort for mv in L.nodes(row.formula) if type(mv) is MetaVar}
    constants = {}
    for name, (args, result) in sig.functions.items():
        if not args:
            constants.setdefault(result, []).append(L.Apply(name))
    theta = {}
    for name, sort in [*sorted(sorts.items()), ("NOT-IN-ROW#0", "expr")]:
        pick = rng.random()
        if pick < 0.3 and constants.get(sort):
            theta[name] = rng.choice(constants[sort])
        elif pick < 0.6:
            others = [n for n, s in sorted(sorts.items()) if s == sort and n != name]
            theta[name] = MetaVar(rng.choice(others) if others else f"Q#{len(theta)}", sort)
    return theta


def test_a_row_part_is_its_residue_under_the_binding_in_goal_sense(monkeypatch, derivation):
    # every row of the bundled replay and of a 300-row search, at each atom
    # occurrence with either constant, under random bindings of its metavars;
    # unbound, the part is the row's one memo and says whether the side is live
    theory = engine.load_theory((DATA / "unify.thy").read_text())
    replayed, _ = engine.replay(theory, "unify", derivation)
    _, searched = _search_tableau(monkeypatch, theory, "unify", 300)
    rng, parts = random.Random(23), 0
    for tableau in (replayed, searched):
        for row in tableau.rows:
            for path, _ in L.atom_paths(row.formula):
                text = ".".join(map(str, path)) or "-"
                for constant in (L.TRUE, L.FALSE):
                    assert row.part(text, constant) is row.part(text, constant, {})
                    residue = reference_normalize(L.replace_at(row.formula, path, constant))
                    live = not engine._vacuous(row.kind, residue)
                    assert engine._live(row, text, constant) == live, (row.rid, text)
                    theta = _random_theta(rng, row, tableau.sig)
                    f = L.apply_subst(L.replace_at(row.formula, path, constant), theta)
                    want = reference_normalize(f if row.kind == GOAL else L.Not(f))
                    got = row.part(text, constant, theta)
                    assert got == want, (row.rid, text)
                    parts += 1
    assert parts > 2000


def test_a_lemma_row_keeps_nothing_of_the_searches_that_share_it():
    # a prepared lemma row's memo holds path texts and (path text, constant
    # type) pairs only, which no binding of a search enters, so two searches
    # can share the row
    theory = engine.load_theory((DATA / "unify.thy").read_text())
    for _ in range(2):
        assert engine.search(theory, "unify", engine.SearchConfig(max_rows=200)) is None
    keys = [key for row in theory._prepared[1] for key in row._memo]
    assert any(type(key) is tuple for key in keys)
    for key in keys:
        assert type(key) is str or (
            type(key) is tuple
            and len(key) == 2
            and type(key[0]) is str
            and key[1] in (L.TrueF, L.FalseF)
        ), key


def test_bad_paths_report_the_same_errors_when_rows_cache_their_paths(unify_theory):
    tableau = engine.make_tableau(unify_theory, "unify")
    goal = tableau.rows[0]
    tableau.insert_induction_hypothesis("u-rel")
    for _ in range(2):  # the second time, the good paths come from the rows' caches
        with pytest.raises(L.BadPathError, match=r"^bad path 99: the node at - has 2 children$"):
            tableau.resolve(1, "1", 2, "99")
        with pytest.raises(L.BadPathError, match=r"^bad path 'x'$"):
            tableau.resolve(1, "x", 2, "1")
        with pytest.raises(L.BadPathError, match=r"^resolution selects atomic subformulas$"):
            tableau.resolve(1, "1", 2, "2")
        with pytest.raises(L.BadPathError, match=r"^row 1 at 1 is not Iff$"):
            tableau.equivalence_replace(1, "1", 2, "1", "ltr")
    assert len(tableau.rows) == 2
    assert goal.at("1") == ((1,), L.get_at(goal.formula, (1,)))
    assert goal.at("1") is goal.at("1")


# -- what the search does -----------------------------------------------------


@pytest.mark.parametrize(
    "thy, spec, rows, steps",
    [("unify_same.thy", "unify-same", 200, 55), ("unify.thy", "unify", 300, 815)],
)
def test_search_applies_a_pinned_number_of_steps(monkeypatch, thy, spec, rows, steps):
    assert len(_watch(monkeypatch, thy, spec, rows).steps) == steps


@pytest.mark.parametrize(
    "thy, spec, rows", [("unify_same.thy", "unify-same", 200), ("unify.thy", "unify", 300)]
)
def test_activated_rows_descend_from_the_goal(monkeypatch, thy, spec, rows):
    # why search needs no set-of-support check: no lemma is ever activated,
    # and every activated row has the initial goal as an ancestor
    watched = _watch(monkeypatch, thy, spec, rows)
    tableau, goal = watched.tableau, watched.tableau.rows[0]
    assert watched.activated[0] is goal
    for row in watched.activated:
        assert tableau.row(row.rid) is row and row.step[0] != "assert"
        ancestors, stack = set(), [row.rid]
        while stack:
            ancestors.add(rid := stack.pop())
            stack.extend(a for a in tableau.row(rid).step if type(a) is int)
        assert goal.rid in ancestors, row.rid


@pytest.mark.parametrize(
    "hinted, pinned",
    [
        (False, [3, 4, 5, 7, 9, 37, 51]),
        (True, [3, 4, 5, 7, 9, 11, 21, 37, 51, 67, 70, 72, 74, 76, 101]),
    ],
    ids=["unhinted", "hinted"],
)
def test_full_theory_search_recreates_the_pinned_derivation_rows(
    monkeypatch, unify_theory, derivation, hinted, pinned
):
    # rediscovery: which derivation rows other than init and assert the
    # search makes again, up to metavar renaming; hinted, it picks those
    # rows first, so the hinted list is what the move space lets the search
    # reach within the budget and the unhinted one what its strategy finds
    replayed, _ = engine.replay(unify_theory, "unify", derivation)
    derived = {}
    for row in replayed.rows:
        if row.step[0] not in ("init", "assert"):
            derived.setdefault(_derivation_key(row), row.rid)
    assert len(derived) == 94
    if hinted:
        _hint(monkeypatch, derived)
    tableau = _watch(monkeypatch, "unify.thy", "unify", 500).tableau
    made = {_derivation_key(row) for row in tableau.rows}
    recreated = sorted(rid for k, rid in derived.items() if k in made)
    assert recreated == pinned


def test_the_derivation_rows_the_move_space_reaches(unify_theory, derivation):
    # induct, eqrepl, resolve on an atom selected in no non-lemma parent, and
    # iffrepl with a lemma's iff below its root (rows 51 and 63) are outside;
    # a free row has no such step among its ancestors, so the search can make
    # it: a lower bound, as the unhinted search re-creates row 51 by another route
    replayed, _ = engine.replay(unify_theory, "unify", derivation)
    free, outside = _closure(replayed)
    assert free == [3, 4, 5, 7, 9, 11, 21, 37, 67, 101]
    assert outside == [
        2, 13, 15, 22, 27, 39, 43, 45, 51, 54, 58, 63, 69, 78, 80, 90, 94, 108, 119, 127, 133
    ]


def test_clash_agrees_with_term_unify():
    # the index meets two atoms exactly when the old clash test kept them,
    # and never keeps apart two that unify
    x = MetaVar("X", "expr")
    terms = [
        x,
        L.Apply("e1"),
        L.Apply("cons", (x, L.Apply("e1"))),
        L.Apply("left", (L.Apply("e1"),)),
    ]
    sig = L.default_signature()
    sig.add_constant("e1", "expr")
    for s, t in itertools.product(terms, repeat=2):
        a, b = L.Atom("is-var", (s,)), L.Atom("is-var", (t,))
        unifies = L.term_unify(a, b, sig) is not None
        meets = engine._meets(engine._shape(a), engine._shape(b))
        assert meets == (not _clash(a, b)), (s, t)
        assert meets or not unifies, (s, t)
