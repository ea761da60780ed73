import contextlib
import hashlib
import io
import json
import random
import re
import sys
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from tabsynth import cli
from tabsynth import logic as L
from tabsynth import program as P
from tabsynth.cli import main
from tabsynth.subst import parse_subst, print_subst
from tabsynth.term import print_expr
from tabsynth.unify import reference_unify

from genlib import rand_expr, rand_idempotent_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_unify_positive(capsys):
    code, out = run_cli(capsys, "unify", "--env", "{}", "(X . b)", "(a . Y)")
    assert code == 0
    assert out.strip() == "{X -> a, Y -> b}"


def test_unify_occurs_check(capsys):
    code, out = run_cli(capsys, "unify", "--env", "{}", "X", "(X . a)")
    assert code == 1
    assert out.strip() == "bot"


def test_unify_parse_error(capsys):
    code, _ = run_cli(capsys, "unify", "--env", "{}", "(X .", "a")
    assert code == 2


def test_unify_json_round_trip(capsys):
    code, out = run_cli(capsys, "unify", "--json", "--env", "{X -> Y}", "Y", "Z")
    assert code == 0
    payload = json.loads(out)
    assert parse_subst(payload["result"]) == parse_subst("{X -> Z, Y -> Z}")


def test_check_mgiu_negative(capsys):
    code, out = run_cli(
        capsys, "check-mgiu", "--env", "{X -> Y}", "Y", "Z", "{Y -> Z}"
    )
    assert code == 1
    assert "extension_ok: False" in out


def test_check_mgiu_positive(capsys):
    code, _ = run_cli(
        capsys, "check-mgiu", "--env", "{X -> Y}", "Y", "Z", "{X -> Z, Y -> Z}"
    )
    assert code == 0


def test_replay_and_run_agree(capsys, tmp_path):
    prog_file = tmp_path / "prog.sexp"
    code, _ = run_cli(capsys, "replay", "--emit", str(prog_file))
    assert code == 0 and prog_file.exists()
    rng = random.Random(77)
    for _ in range(25):
        env = rand_idempotent_env(rng)
        e1, e2 = rand_expr(rng, 3), rand_expr(rng, 3)
        code_r, out_r = run_cli(
            capsys,
            "run",
            str(prog_file),
            print_subst(env),
            print_expr(e1),
            print_expr(e2),
            "--check-decrease",
        )
        code_u, out_u = run_cli(
            capsys, "unify", "--env", print_subst(env), print_expr(e1), print_expr(e2)
        )
        assert out_r == out_u
        assert code_r == code_u
        assert out_u.strip() == print_subst(reference_unify(env, e1, e2))


def test_replay_step_failure_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.derivation"
    bad.write_text("induct u-rel\nresolve 1 1 2 99\nextract\n")
    code, _ = run_cli(capsys, "replay", str(bad))
    assert code == 3


@pytest.mark.parametrize(
    "script, theory, message",
    [
        ("frobnicate 1\nextract\n", None, "unknown command 'frobnicate'"),
        ("extract\n", None, "no final row"),
        # unify-same's parameters (subst, expr) have no tuple for u-rel to order
        ("induct u-rel\nextract\n", "builtin:unify_same.thy",
         "no tuple encoding for parameter sorts ('subst', 'expr')"),
        ("induct r\nextract\n", "spec f (a:expr) output none (= a a)\nwfrel r (size-lt)\n",
         "induction needs an output to recurse on"),
    ],
    ids=["unknown-command", "no-final-row", "no-tuple-encoding", "no-output"],
)
def test_a_failed_script_step_exits_3_with_one_error_line(
    capsys, tmp_path, script, theory, message
):
    # theory is the bundled default (None), a bundled file, or a theory's text
    path = tmp_path / "bad.derivation"
    path.write_text(script)
    if theory is not None and not theory.startswith("builtin:"):
        (tmp_path / "t.thy").write_text(theory)
        theory = str(tmp_path / "t.thy")
    assert main(["replay", str(path), *(["--theory", theory] if theory else [])]) == 3
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].endswith(message), err


@pytest.mark.parametrize(
    "text, args, message",
    [
        (None, ["a", "b", "c"], "argument th0 is not of sort subst"),
        ("(define (f a) (left a))", ["(a . b)", "--check-decrease"],
         "decrease checking expects (env, e1, e2) arguments"),
        # three arguments of other sorts than (subst, expr, expr) were measured
        # as such, and the measure raised an AttributeError: exit 3
        ("(define (f p0:expr p1:expr p2) p2)", ["(a . X)", "a", "a", "--check-decrease"],
         "decrease checking expects (env, e1, e2) arguments"),
        ("(define (f p0 p1:subst p2:subst) p1)", ["{}", "{}", "bot", "--check-decrease"],
         "decrease checking expects (env, e1, e2) arguments"),
        # a parameter of a sort other than subst was taken as an expr: exit 0
        ("(define (f a:varset) a)", ["X"], "parameter a is of sort varset, which takes no value"),
    ],
    ids=["sort", "check-decrease", "check-decrease-exprs", "check-decrease-substs", "varset"],
)
def test_run_refuses_arguments_it_cannot_take(capsys, tmp_path, text, args, message):
    prog_file = "builtin:unify_program.golden"
    if text is not None:
        prog_file = tmp_path / "prog.sexp"
        prog_file.write_text(text + "\n")
    assert main(["run", str(prog_file), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [f"error: {message}"]


def test_run_truncated_program_exit_code(capsys, tmp_path):
    prog_file = tmp_path / "prog.sexp"
    prog_file.write_text("(define (f a b")
    assert main(["run", str(prog_file), "a", "b"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_search_smoke(capsys):
    code, out = run_cli(capsys, "search", "--max-rows", "200")
    assert code == 0
    assert "unify-same" in out


def test_search_exhaustion(capsys):
    code, out = run_cli(capsys, "search", "--max-rows", "0")
    assert code == 1


def test_selftest(capsys):
    code, out = run_cli(capsys, "selftest", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["disagreements"] == 0


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["unify"])
    assert err.value.code == 2


def test_run_rejects_wrong_arity(capsys, tmp_path):
    prog_file = tmp_path / "prog.sexp"
    run_cli(capsys, "replay", "--emit", str(prog_file))
    code, _ = run_cli(capsys, "run", str(prog_file), "{}")
    assert code == 2


@pytest.mark.parametrize(
    "text, args, twice",
    [("(define (f a a) a)", ["a", "a"], "a"), ("(define (f th e1 e1) th)", ["{}", "a", "a"], "e1")],
)
def test_run_names_a_repeated_parameter(capsys, tmp_path, text, args, twice):
    # the compiler gives each parameter name one slot, so a repeated name once
    # made a function of fewer arguments than the program takes: exit 3
    prog_file = tmp_path / "prog.sexp"
    prog_file.write_text(text + "\n")
    assert main(["run", str(prog_file), *args]) == 2
    assert capsys.readouterr().err == f"error: parameter '{twice}' is declared twice\n"


def test_run_reports_fuel_exhaustion(capsys, tmp_path):
    prog_file = tmp_path / "prog.sexp"
    run_cli(capsys, "replay", "--emit", str(prog_file))
    code, _ = run_cli(
        capsys, "run", str(prog_file), "{}", "((a . b) . c)", "((a . b) . X)",
        "--fuel", "1",
    )
    assert code == 3


def test_unify_fuel_exhaustion_exit_code(capsys):
    code, _ = run_cli(capsys, "unify", "--fuel", "1", "(a . X)", "(a . b)")
    assert code == 3


def test_unexpected_exception_exit_code(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "reference_unify", broken)
    assert main(["unify", "X", "a"]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["internal error: RuntimeError: boom"]


def test_fuel_counts_self_calls_on_unify_and_run(capsys):
    # unifying (a . X) with (a . b) makes two self-calls
    triple = ["{}", "(a . X)", "(a . b)"]
    for fuel, code in (("2", 0), ("1", 3)):
        assert main(["unify", "--env", *triple, "--fuel", fuel]) == code
        golden = "builtin:unify_program.golden"
        assert main(["run", golden, *triple, "--fuel", fuel]) == code
    capsys.readouterr()


def test_unify_left_nested_depth_300(capsys):
    deep = "Z"
    for _ in range(300):
        deep = f"({deep} . c)"
    assert main(["unify", "X", deep]) == 0


def test_malformed_inputs_name_the_entry(capsys, tmp_path):
    theory = tmp_path / "bad.thy"
    theory.write_text("lemma\n(x)\n")
    assert main(["search", "--theory", str(theory)]) == 2
    assert capsys.readouterr().err == "error: malformed theory entry 'lemma (x)'\n"
    script = tmp_path / "bad.derivation"
    script.write_text("resolve 1 a 2\nextract\n")
    assert main(["replay", str(script)]) == 3
    assert "malformed command 'resolve 1 a 2'" in capsys.readouterr().err


_SPEC_F = "spec f (a:expr) output Z:expr (= Z a)\n"


@pytest.mark.parametrize(
    "theory, extra, message",
    [
        ("spec f (a:expr) (= a a)\n", [], "malformed theory entry"),
        ("spec f (a) output Z:expr (= Z a)\n", [],
         "parameter 'a' is not name:sort of a known sort"),
        ("spec f (a:expr) output Z (= Z a)\n", [], "output 'Z' is not name:sort of a known sort"),
        (_SPEC_F, ["--spec", "g"], "unknown spec 'g'"),
        ("spec f (a:expr a:expr) output Z:expr (= Z a)\n", [], "parameter 'a' is declared twice"),
        (_SPEC_F + _SPEC_F.replace("f", "g"), [], "--spec needed: theory declares"),
        ("lemma refl (= X:expr X)\n", [], "theory declares no spec"),
        (_SPEC_F + "lemma l ()\n", [], "expected a symbol after '('"),
        (_SPEC_F + "lemma l (and)\n", [], "empty (and)"),
        (_SPEC_F + "lemma l (not (idem TH:subst) (idem TH))\n", [], "not expects 1 arguments"),
        (_SPEC_F + "lemma l (idem TH:subst TH)\n", [], "idem expects 1 arguments"),
        (_SPEC_F + "lemma l (is-var (and (idem X:subst)))\n", [],
         "(and ...) where a term is expected"),
        (_SPEC_F + "lemma l (if (idem X:subst) X X)\n", [],
         "(if ...) where a formula is expected"),
        (_SPEC_F + "lemma l foo\n", [], "unexpected token 'foo' in formula"),
        (_SPEC_F + "lemma l (is-var x)\n", [], "unknown symbol 'x'"),
        (_SPEC_F + "lemma l (frob X:expr)\n", [], "unknown formula symbol 'frob'"),
        (_SPEC_F + "lemma l (is-var X:foo)\n", [],
         "metavar 'X:foo' is not name:sort of a known sort"),
        (_SPEC_F + "lemma l (and (idem X:subst) (is-var X))\n", [],
         "metavar X used at sorts subst and expr"),
        (_SPEC_F + "lemma l (is-var (vars X:expr))\n", [], "expected sort expr, got varset"),
        (_SPEC_F + "wfrel r foo\n", [], "unknown relation 'foo'"),
        (_SPEC_F + "wfrel r ()\n", [], "expected a relation constructor after '('"),
        (_SPEC_F + "wfrel r (induced nope (size-lt))\n", [], "unknown projection 'nope'"),
        (_SPEC_F + "wfrel r (reflexive)\n", [], "malformed relation (reflexive ...)"),
        # a name a primitive already has
        (_SPEC_F.replace("f", "apply"), [], "conflicting declarations for function apply"),
        ("spec f (bot:expr) output Z:expr (= Z bot)\n", [],
         "conflicting declarations for function bot"),
        (_SPEC_F + "wfrel left (size-lt)\n", [], "conflicting declarations for function left"),
        # the condition once read Z as an expr, and search found a program
        # declared to return a subst that returns an expr
        ("lemma refl (= X:expr X)\nspec f (a:expr) output Z:subst (= Z a)\n", [],
         "output Z:subst is read as expr in the condition"),
    ],
)
def test_bad_theory_or_spec_exits_with_one_error_line(
    capsys, tmp_path, theory, extra, message
):
    path = tmp_path / "bad.thy"
    path.write_text(theory)
    assert main(["search", "--theory", str(path), *extra]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1, err
    assert err[0].startswith("error:") and message in err[0], err
    assert "Traceback" not in captured.err


def test_search_rejects_a_weight_that_is_not_positive(capsys, tmp_path):
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"mgiu": 0}))
    assert main(["search", "--weights", str(weights)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert err == ["error: weight for mgiu must be positive"]


def test_renaming_apart_skips_names_already_in_use(capsys, tmp_path):
    theory = tmp_path / "clash.thy"
    theory.write_text(
        "spec pick (a1:expr) output TH:expr (= a1 TH)\nlemma fixed (= a1 TH#1:expr)\n"
    )
    # renaming the goal's TH apart from the lemma skips TH#1; the second
    # resolve makes the final row
    script = tmp_path / "clash.derivation"
    script.write_text("assert fixed\nresolve 2 - 1 -\nresolve 1 - 2 -\nextract\n")
    assert main(["replay", str(script), "--theory", str(theory), "--trace"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[2] == "#3 [G] false | TH#1 | resolve (2@-, 1@-) {TH#2 -> TH#1}"


def test_replay_trace_is_unchanged(capsys):
    assert main(["replay", "--trace"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 160
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "8d4ae69715caee32a754732d9d8407eb7e0e19a2cf703adf4d10a32c95e454ae"


def test_replay_trace_shows_the_replacement_direction(capsys):
    assert main(["replay", "--trace"]) == 0
    row7 = capsys.readouterr().out.splitlines()[6]
    assert row7 == "#7 [A] (more-genid th0 th0) |  | iffrepl (6@-, 5@-) {TH -> th0} ltr"


def test_replay_trace_json_prints_one_object_per_line(capsys):
    assert main(["replay", "--trace", "--json"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(lines) == 137
    rows, payload = lines[:-1], lines[-1]
    assert [row["rid"] for row in rows] == list(range(1, 137))
    assert rows[0] == {
        "rid": 1,
        "kind": "goal",
        "formula": "(implies (idem th0) (mgiu th0 e1 e2 TH))",
        "output": "TH",
        "justification": "init",
    }
    assert rows[6]["output"] is None
    assert rows[6]["justification"] == "iffrepl (6@-, 5@-) {TH -> th0} ltr"
    assert set(payload) == {"rows", "program"} and payload["rows"] == 136


def test_run_names_a_call_that_does_not_decrease_in_value_syntax(capsys, tmp_path):
    prog = tmp_path / "f.prog"
    prog.write_text("(define (f th e1 e2) (f th e1 e2))\n")
    assert main(["run", str(prog), "{}", "a", "b", "--check-decrease"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: self-call does not decrease: ({}, a, b) under parent ({}, a, b)\n"
    )


def test_bound_names_must_be_variables(capsys):
    for env in ("{X Y -> a}", "{X-1 -> a}", "{X( -> a}"):
        assert main(["unify", "--env", env, "X", "b"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), (env, err)


def test_looping_environment_names_the_recursion_limit(capsys):
    assert main(["unify", "X", "Y", "--env", "{X -> Y, Y -> X}"]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: unify: Python recursion limit")
    deep = "(c . " * 2000 + "Z" + ")" * 2000
    assert main(["unify", deep, deep.replace("Z", "W")]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "recursion limit" in err[0]


def test_unify_deep_left_nested_expression(capsys):
    deep = "(" * 10_000 + "Z" + " . c)" * 10_000
    code, out = run_cli(capsys, "unify", "X", deep)
    assert code == 0
    assert print_expr(parse_subst(out).map["X"]) == deep


def test_check_mgiu_on_a_deep_left_nested_expression(capsys):
    # the unifier's image and e2 are equal but separately read, so every
    # comparison walks all 10^4 levels
    deep = "(" * 10_000 + "Z" + " . c)" * 10_000
    code, out = run_cli(capsys, "check-mgiu", "X", deep, f"{{X -> {deep}}}")
    assert code == 0
    assert "ok: True" in out.splitlines()


# what a mutation puts in; '->' is one piece, as it is one token
_PIECES = [".", "(", ")", ",", "->", "{", "}", "*", "X", "a", "#"]
# the seeds' names are one letter, so each non-space character is a token
_SEEDS = {
    "e1": "(X . (a b))",
    "e2": "(a . Y)",
    "env": "{Z -> (b . W)}",
    "candidate": "{X -> a, Y -> (a b), Z -> (b . W)}",
}


@st.composite
def _mutated(draw):
    """The seed texts, one or two of them mutated a few times, token by token."""
    texts = dict(_SEEDS)
    for key in draw(st.lists(st.sampled_from(sorted(_SEEDS)), min_size=1, max_size=2)):
        units = re.findall(r"->|\S", texts[key])
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(units)))
            op = draw(st.sampled_from(["insert", "replace", "delete", "duplicate"]))
            if op == "insert":
                units.insert(i, draw(st.sampled_from(_PIECES)))
            elif i < len(units) and op == "replace":
                units[i] = draw(st.sampled_from(_PIECES))
            elif i < len(units) and op == "delete":
                del units[i]
            elif i < len(units):
                units.insert(i, units[i])
        texts[key] = draw(st.sampled_from([" ", ""])).join(units)
    return texts


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(_mutated())
def test_mutated_texts_exit_cleanly(texts):
    env, e1, e2 = f"--env={texts['env']}", texts["e1"], texts["e2"]
    runs = [
        ["unify", env, "--", e1, e2],
        ["check-mgiu", env, "--", e1, e2, texts["candidate"]],
    ]
    for argv in runs:
        code, err = _run_quietly(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert "internal error" not in err and "Traceback" not in err, (argv, err)
        if code == 2:
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)


_BUNDLE = {
    name: resources.files("tabsynth.data").joinpath(name).read_text()
    for name in ("unify.thy", "unify.derivation", "unify_program.golden")
}
# what a mutation puts in: parentheses, names, paths, rule and declaration words
_BUNDLE_PIECES = [
    "(", ")", "X", "X#3", "TH:subst", "E:expr", "-", "1", "2.1", "0", "99", "ltr",
    "resolve", "iffrepl", "assert", "extract", "lemma", "spec", "wfrel", "output",
    "and", "not", "iff", "=", "if", "true", "#", "e1", "th0", "unify", "bot", "define",
]


@st.composite
def _mutated_bundle(draw):
    """The bundled theory, derivation and golden program, one of them mutated
    one to three times: a line deleted, duplicated or swapped, or a token
    put in, replaced or deleted."""
    texts = dict(_BUNDLE)
    name = draw(st.sampled_from(sorted(texts)))
    lines = texts[name].splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "token"]))
        if op == "delete" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "token":
            tokens = re.findall(r"[()]|[^\s()]+", lines[i])
            k = draw(st.integers(0, len(tokens)))
            piece = draw(st.sampled_from(_BUNDLE_PIECES))
            how = draw(st.sampled_from(["insert", "replace", "delete"]))
            if how == "insert" or k == len(tokens):
                tokens.insert(k, piece)
            elif how == "replace":
                tokens[k] = piece
            else:
                del tokens[k]
            lines[i] = " ".join(tokens)
    texts[name] = "\n".join(lines) + "\n"
    return texts


@settings(max_examples=25, deadline=None)
@given(texts=_mutated_bundle())
def test_mutated_bundle_exits_cleanly(tmp_path_factory, texts):
    # replay, a short search and the golden program's run, each on the bundle
    # with one file mutated; the search pairs the mutated theory's rows
    where = tmp_path_factory.mktemp("bundle")
    for name, text in texts.items():
        (where / name).write_text(text)
    thy, script, golden = (
        str(where / name) for name in ("unify.thy", "unify.derivation", "unify_program.golden")
    )
    runs = [
        ["replay", script, "--theory", thy, "--spec", "unify"],
        ["search", "--theory", thy, "--spec", "unify", "--max-rows", "60"],
        ["run", golden, "{Z -> a}", "(X . b)", "(a . Y)", "--check-decrease"],
    ]
    for argv in runs:
        code, err = _run_quietly(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert "internal error" not in err and "Traceback" not in err, (argv, err)
        if code == 2:
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)


# argument texts of each sort the CLI builds
_ARGUMENTS = {
    "subst": ["{}", "bot", "{X -> a}", "{Y -> (a . X)}"],
    "expr": ["a", "X", "(a . X)", "((X . b) . Y)"],
}


def _applications(rng, result):
    """The primitives of this result sort (None: a predicate), mostly those
    a program body may use."""
    allowed = rng.random() < 0.8
    return [
        (name, prim.args) for name, prim in L.PRIMITIVES.items()
        if prim.result == result and (prim.in_program or not allowed)
    ]


def _random_term(rng, sort, params, result, depth):
    """A term of sort over params: a parameter or a nullary primitive, an
    application, an if, or a call of f, whose result sort is result; a sort
    with no leaf gets a parameter of another sort."""
    prims = _applications(rng, sort)
    leaves = [n for n, s in params if s == sort] + [n for n, args in prims if not args]
    apps = [(n, args) for n, args in prims if args]
    kinds = ["leaf", "if", *["call"] * (sort == result), *["apply"] * bool(apps)]
    kind = "leaf" if depth == 0 else rng.choice(kinds)
    if kind == "leaf":
        return rng.choice(leaves or [n for n, _ in params])
    if kind == "if":
        then, els = (_random_term(rng, sort, params, result, depth - 1) for _ in "te")
        return f"(if {_random_formula(rng, params, result, depth - 1)} {then} {els})"
    fn, sorts = ("f", [s for _, s in params]) if kind == "call" else rng.choice(apps)
    args = (_random_term(rng, s, params, result, depth - 1) for s in sorts)
    return f"({fn} {' '.join(args)})"


def _random_formula(rng, params, result, depth):
    if rng.random() < 0.25:
        sort = rng.choice(sorted(_ARGUMENTS))
        sides = (_random_term(rng, sort, params, result, depth) for _ in "lr")
        return f"(= {' '.join(sides)})"
    pred, sorts = rng.choice(_applications(rng, None))
    args = (_random_term(rng, s, params, result, depth) for s in sorts)
    return f"({pred} {' '.join(args)})"


@st.composite
def _random_programs(draw):
    """A program file of one to three parameters, some annotated, and a name
    sometimes annotated with its result sort, with a body of primitives, if,
    = and self-calls, and argument texts for it."""
    rng = draw(st.randoms(use_true_random=False))
    n = rng.choice([1, 2, 3, 3])  # three take the decrease check
    params, chunks = [], []
    for i, default in enumerate(["subst", "expr", "expr"] if n == 3 else ["expr"] * n):
        sort = rng.choice(L.SORTS + ("subst", "expr") * 3) if rng.random() < 0.4 else None
        params.append((f"p{i}", sort or default))
        chunks.append(f"p{i}:{sort}" if sort else f"p{i}")
    result = rng.choice(L.SORTS + ("subst", "expr") * 3) if rng.random() < 0.3 else None
    name = f"f:{result}" if result else "f"
    result = result or params[0][1]
    body = _random_term(rng, result, params, result, 3)
    every = sum(_ARGUMENTS.values(), [])  # a parameter of another sort takes any
    args = [rng.choice(every if rng.random() < 0.1 else _ARGUMENTS.get(s, every)) for _, s in params]
    return f"(define ({name} {' '.join(chunks)})\n  {body})\n", args


@settings(derandomize=True, max_examples=80, deadline=None)
@given(program=_random_programs())
def test_a_random_program_file_runs_or_exits_with_one_error_line(tmp_path_factory, program):
    text, args = program
    try:
        parsed = P.parse_program(text)
    except (P.ProgramError, L.LogicError):
        pass
    else:  # every text that parses emits one that parses back to it
        assert P.parse_program(P.emit(parsed)) == parsed, text
    path = tmp_path_factory.mktemp("program") / "f.prog"
    path.write_text(text)
    for flags in ((), ("--check-decrease",)):
        argv = ["run", str(path), *args, "--fuel", "50", *flags]
        code, err = _run_quietly(argv)
        assert "internal error:" not in err and len(err.splitlines()) <= 1, (text, argv, err)
        failed = re.search("fuel exhausted|recursion limit|does not decrease", err)
        assert code in (0, 1, 2) or code == 3 and failed, (text, argv, code, err)


_DEEP_Z = "(" * 10_000 + "Z" + " . c)" * 10_000


def test_check_mgiu_on_two_readings_of_one_deep_text(capsys):
    # the oracle compares the two separately read instances
    code, out = run_cli(capsys, "check-mgiu", _DEEP_Z, _DEEP_Z, "{}")
    assert code == 0
    assert "ok: True" in out.splitlines()


def _nested(head: str, leaf: str, depth: int = 3000) -> str:
    return f"({head} " * depth + leaf + ")" * depth


_DEEP_NOT = _nested("not", "true")
_DEEP_INPUTS = {
    "lemma": (
        {"t.thy": _SPEC_F + f"lemma deep {_DEEP_NOT}\n"},
        ["search", "--theory", "t.thy"],
    ),
    "wfrel": (
        {"t.thy": f"wfrel deep {_nested('reflexive', 'size-lt')}\n" + _SPEC_F},
        ["search", "--theory", "t.thy"],
    ),
    "assume": (
        {"t.thy": _SPEC_F, "s.derivation": f"assume {_DEEP_NOT}\nextract\n"},
        ["replay", "s.derivation", "--theory", "t.thy"],
    ),
    "program": (
        {"p.sexp": f"(define (f a) {_nested('left', 'a')})\n"},
        ["run", "p.sexp", "(a . b)"],
    ),
    "check-mgiu-env": ({}, ["check-mgiu", "--env", "{Z -> a}", _DEEP_Z, "X", "{}"]),
    # the oracle applies its solution {Z -> a} to Y's deep image
    "check-mgiu-oracle": ({}, ["check-mgiu", f"(Z . {_DEEP_Z})", "(a . Y)", "{}"]),
}


@pytest.mark.parametrize("case", sorted(_DEEP_INPUTS))
def test_deep_input_names_the_recursion_limit(capsys, tmp_path, monkeypatch, case):
    files, argv = _DEEP_INPUTS[case]
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == 3
    captured = capsys.readouterr()
    limit = f"error: Python recursion limit ({sys.getrecursionlimit()}) reached"
    assert captured.out == "" and captured.err.splitlines() == [limit]


@pytest.mark.parametrize(
    "weights, message",
    [
        ("[1]", "--weights must hold a JSON object"),
        ('{"mgiu": 0.5}', "weight for mgiu must be an integer"),
        ('{"mgiu": "3"}', "weight for mgiu must be an integer"),
        ('{"mgiu": true}', "weight for mgiu must be an integer"),
        # a misspelled symbol would weigh nothing
        ('{"mgui": 3}', "weights name no symbol of the theory: mgui"),
    ],
)
def test_search_takes_only_positive_integer_weights(capsys, tmp_path, weights, message):
    path = tmp_path / "weights.json"
    path.write_text(weights)
    assert main(["search", "--weights", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [f"error: {message}"]


_TRIPLE = ("{}", "(X . b)", "(a . Y)")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["search", "--max-rows", "-5"], "max_rows must be at least 0, not -5"),
        (["unify", "--fuel", "-3", "X", "a"], "fuel must be at least 0, not -3"),
        (["run", "builtin:unify_program.golden", *_TRIPLE, "--fuel", "-1"],
         "fuel must be at least 0, not -1"),
        (["run", "builtin:unify_program.golden", *_TRIPLE, "--fuel", "-1",
          "--check-decrease"], "fuel must be at least 0, not -1"),
        # so is an environment that mgiu_check cannot take
        (["check-mgiu", "X", "Y", "{X -> Y}", "--env", "{X -> Y, Y -> X}"],
         "mgiu_check requires a proper idempotent environment"),
        (["check-mgiu", "X", "Y", "{X -> Y}", "--env", "bot"],
         "mgiu_check requires a proper idempotent environment"),
    ],
    ids=["search", "unify", "run", "run-checked", "check-mgiu-looping-env", "check-mgiu-bot-env"],
)
def test_a_negative_budget_is_a_usage_error(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [f"error: {message}"]


def test_a_zero_budget_runs(capsys):
    # no rows: no derivation; no fuel: the top call only, which needs no self-call
    assert run_cli(capsys, "search", "--max-rows", "0") == (
        1, "no derivation found within the row limit\n"
    )
    # and a fuel past sys.maxsize, which once overflowed the fuel iterator: exit 3
    golden = "builtin:unify_program.golden"
    for fuel in ("0", str(sys.maxsize * 10**3)):
        assert run_cli(capsys, "unify", "--fuel", fuel, "X", "a") == (0, "{X -> a}\n")
        for flags in ((), ("--check-decrease",)):
            assert run_cli(capsys, "run", golden, "{}", "X", "a", "--fuel", fuel, *flags) == (
                0, "{X -> a}\n"
            )


def test_a_searched_program_runs(capsys, tmp_path):
    # the emitted unify-same takes (subst, expr), which two parameters do not
    # get by default, so the file says so; run once read th0 as an expr: exit 2
    emitted = tmp_path / "same.prog"
    assert run_cli(capsys, "search", "--emit", str(emitted))[0] == 0
    assert run_cli(capsys, "run", str(emitted), "{}", "X") == (0, "{}\n")


@pytest.mark.parametrize(
    "head, body, code, out, err",
    [
        ("f:subst", "(if (is-proper b) b (f a b))", 0, "{}\n", []),
        # without a sort, f returns its first parameter's, expr
        ("f", "(if (is-proper b) b (f a b))", 2, "",
         ["error: expected sort subst, got expr in (f _ _)"]),
        ("f:subst", "a", 2, "", ["error: program body is of sort expr, not its result sort subst"]),
    ],
    ids=["result-sort", "first-parameter-sort", "body-of-another-sort"],
)
def test_a_program_file_says_what_it_returns(capsys, tmp_path, head, body, code, out, err):
    path = tmp_path / "f.prog"
    path.write_text(f"(define ({head} a b:subst) {body})\n")
    assert main(["run", str(path), "a", "{}"]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err.splitlines()) == (out, err)


@pytest.mark.parametrize(
    "twice, message",
    [
        ("lemma a (= X:expr X)\nlemma a (= X:subst X)\n", "lemma 'a' is declared twice"),
        ("wfrel r (size-lt)\nwfrel r (size-lt)\n", "wfrel 'r' is declared twice"),
        (_SPEC_F, "spec 'f' is declared twice"),
    ],
    ids=["lemma", "wfrel", "spec"],
)
def test_a_name_declared_twice_is_a_usage_error(capsys, tmp_path, twice, message):
    path = tmp_path / "twice.thy"
    path.write_text(_SPEC_F + twice)
    assert main(["search", "--theory", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [f"error: {message}"]
