"""The exact stdout and exit status of each subcommand, in text and --json mode."""

import json
from importlib import resources

import pytest

from tabsynth.cli import main

GOLDEN = resources.files("tabsynth.data").joinpath("unify_program.golden").read_text()
SAME = "(define (unify-same th0:subst e1)\n  th0)\n"

_PASSES = ["check-mgiu", "--env", "{X -> Y}", "Y", "Z", "{X -> Z, Y -> Z}"]
_FAILS = ["check-mgiu", "--env", "{X -> Y}", "Y", "Z", "{Y -> Z}"]
_RUN = ["run", "builtin:unify_program.golden", "{}", "(X . b)", "(a . Y)"]


def _report(**values) -> dict:
    return {
        "unifier_ok": True,
        "extension_ok": True,
        "most_general_ok": True,
        "reduce_ok": True,
        "ok": True,
        "oracle": "{X -> Z, Y -> Z}",
        **values,
    }


def _lines(report: dict) -> str:
    return "".join(f"{key}: {value}\n" for key, value in report.items())


# (argv, exit status, text-mode stdout, --json payload)
CASES = {
    "unify": (
        ["unify", "(X . b)", "(a . Y)"],
        0,
        "{X -> a, Y -> b}\n",
        {"result": "{X -> a, Y -> b}", "proper": True},
    ),
    "unify-bot": (
        ["unify", "X", "(X . a)"],
        1,
        "bot\n",
        {"result": "bot", "proper": False},
    ),
    "check-mgiu-passes": (_PASSES, 0, _lines(_report()), _report()),
    "check-mgiu-fails": (
        _FAILS,
        1,
        _lines(_report(extension_ok=False, ok=False)),
        _report(extension_ok=False, ok=False),
    ),
    "search-finds": (
        ["search"],
        0,
        SAME,
        {"found": True, "rows": 31, "program": SAME},
    ),
    "search-exhausts": (
        ["search", "--max-rows", "0"],
        1,
        "no derivation found within the row limit\n",
        {"found": False},
    ),
    "run": (_RUN, 0, "{X -> a, Y -> b}\n", {"result": "{X -> a, Y -> b}"}),
    "selftest": (
        ["selftest"],
        0,
        "checked 1200 pairs, 0 disagreements\n",
        {"pairs": 1200, "disagreements": 0},
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_text_output_is_pinned(capsys, case):
    argv, code, text, _ = CASES[case]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (text, "")


@pytest.mark.parametrize("case", sorted(CASES))
def test_json_output_is_pinned(capsys, case):
    argv, code, _, payload = CASES[case]
    assert main([*argv, "--json"]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (json.dumps(payload) + "\n", "")


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_replay_emits_the_golden_program(capsys, tmp_path, mode):
    emitted = tmp_path / "prog.sexp"
    assert main(["replay", "--emit", str(emitted), *mode]) == 0
    captured = capsys.readouterr()
    assert emitted.read_text() == GOLDEN
    out = json.dumps({"rows": 136, "program": GOLDEN}) + "\n" if mode else GOLDEN
    assert (captured.out, captured.err) == (out, "")


def test_search_emits_what_it_prints(capsys, tmp_path):
    emitted = tmp_path / "prog.sexp"
    assert main(["search", "--emit", str(emitted)]) == 0
    assert emitted.read_text() == capsys.readouterr().out == SAME
