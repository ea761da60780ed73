import hashlib
import json
import random

import pytest

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


def test_unexpected_exception_exit_code(capsys):
    deep = "Z"
    for _ in range(600):
        deep = f"({deep} . c)"
    assert main(["unify", "X", deep]) == 3
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


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
    assert digest == "61ce8462e5ab497ad0a4d5a7356ac9da7adb1c1b8aabf0f6aa89e2d4cc03f097"
