"""Command-line interface.

Subcommands: unify (run the derived program), check-mgiu (verify a
candidate unifier), replay (execute a derivation script), search
(bounded best-first derivation), run (run a program file), and
selftest (exhaustive small-universe comparison against the oracle).

Exit status: 0 success, 1 negative verdict (ununifiable input or failed
check), 2 usage or parse error, 3 rule or step failure, fuel exhaustion,
Python's recursion limit, or any other internal failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from importlib import resources

from . import engine, program as P
from .logic import LogicError, print_formula
from .subst import BOT, EMPTY, SubstError, compose, is_proper, parse_subst, print_subst
from .term import Cons, Const, ExprError, Var, parse_expr
from .unify import mgiu_check, oracle_unify, reference_unify
from .tableau import Row, Tableau, TableauError

OK, NEGATIVE, USAGE, INTERNAL = 0, 1, 2, 3


def _read(path: str) -> str:
    if path.startswith("builtin:"):
        return resources.files("tabsynth.data").joinpath(path[8:]).read_text()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


# what a subcommand returns: exit status, text for stdout, --json payload
Result = tuple[int, str, object]
# a step, a decrease check or the fuel that failed: exit 3
_FAILED = (engine.StepFailedError, P.DecreaseViolationError, P.FuelExhaustedError)
_BAD_INPUT = (  # a usage or parse error: exit 2
    ExprError, SubstError, engine.EngineError, TableauError, P.ProgramError,
    LogicError, OSError, ValueError,
)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, text, payload = args.func(args)
    except _FAILED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INTERNAL
    except RecursionError:  # a walk deeper than the stack allows, outside the program
        limit = sys.getrecursionlimit()
        print(f"error: Python recursion limit ({limit}) reached", file=sys.stderr)
        return INTERNAL
    except _BAD_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:  # any other failure is internal; 1 means ununifiable
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL
    sys.stdout.write(json.dumps(payload) + "\n" if args.json else text)
    return code


def _command(sub, name: str, handler, help: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=handler)
    return p


@functools.cache  # built once: main may be called many times in one process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabsynth", description="deductive-tableau synthesis toolkit"
    )
    sub = parser.add_subparsers(required=True)

    p = _command(sub, "unify", cmd_unify, "unify two expressions in an environment")
    p.add_argument("e1")
    p.add_argument("e2")
    p.add_argument("--env", default="{}")
    p.add_argument("--fuel", type=int, default=10000)

    p = _command(sub, "check-mgiu", cmd_check_mgiu, "check a candidate unifier's contract")
    p.add_argument("e1")
    p.add_argument("e2")
    p.add_argument("candidate")
    p.add_argument("--env", default="{}")

    p = _command(sub, "replay", cmd_replay, "replay a derivation script")
    p.add_argument("script", nargs="?", default="builtin:unify.derivation")
    p.add_argument("--theory", default="builtin:unify.thy")
    p.add_argument("--spec", default=None)
    p.add_argument("--emit", default=None)
    p.add_argument("--trace", action="store_true")

    p = _command(sub, "search", cmd_search, "bounded best-first derivation search")
    p.add_argument("--theory", default="builtin:unify_same.thy")
    p.add_argument("--spec", default=None)
    p.add_argument("--max-rows", type=int, default=200)
    p.add_argument("--weights", default=None, help="JSON file of symbol weights")
    p.add_argument("--emit", default=None)

    p = _command(sub, "run", cmd_run, "run a program file")
    p.add_argument("program")
    p.add_argument("args", nargs="+", help="argument values (substitution first)")
    p.add_argument("--fuel", type=int, default=10000)
    p.add_argument("--check-decrease", action="store_true")

    _command(sub, "selftest", cmd_selftest, "exhaustive small-universe oracle check")
    for p in sub.choices.values():  # last, as the help lists options in order
        p.add_argument("--json", action="store_true")
    return parser


def cmd_unify(args) -> Result:
    env = parse_subst(args.env)
    result = reference_unify(env, parse_expr(args.e1), parse_expr(args.e2), args.fuel)
    text, proper = print_subst(result), is_proper(result)
    return OK if proper else NEGATIVE, text + "\n", {"result": text, "proper": proper}


def cmd_check_mgiu(args) -> Result:
    env = parse_subst(args.env)
    report = mgiu_check(
        env, parse_expr(args.e1), parse_expr(args.e2), parse_subst(args.candidate)
    )
    payload = {
        "unifier_ok": report.unifier_ok,
        "extension_ok": report.extension_ok,
        "most_general_ok": report.most_general_ok,
        "reduce_ok": report.reduce_ok,
        "ok": report.ok,
        "oracle": print_subst(report.oracle_used),
    }
    text = "".join(f"{key}: {value}\n" for key, value in payload.items())
    return OK if report.ok else NEGATIVE, text, payload


def _load_theory_and_spec(args) -> tuple[engine.Theory, str]:
    theory = engine.load_theory(_read(args.theory))
    spec = args.spec
    if spec is None:
        if not theory.specs:
            raise engine.EngineError("theory declares no spec")
        if len(theory.specs) > 1:
            raise engine.EngineError("--spec needed: theory declares several specs")
        spec = next(iter(theory.specs))
    return theory, spec


def _program_result(args, tableau, prog, **found) -> Result:
    """Write the derived program to --emit, and report it and the row count."""
    text = P.emit(prog)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as handle:
            handle.write(text)
    return OK, text, {**found, "rows": len(tableau.rows), "program": text}


def _row_text(row: Row, as_json: bool) -> str:
    """A row as --trace prints it: its text line, or one JSON object."""
    if not as_json:
        return Tableau.render_row(row)
    output = None if row.output is None else print_formula(row.output)
    return json.dumps({
        "rid": row.rid, "kind": row.kind, "formula": print_formula(row.formula),
        "output": output, "justification": row.justification(),
    })


def cmd_replay(args) -> Result:
    theory, spec = _load_theory_and_spec(args)
    # rows are printed as they are made, before the result
    trace = (lambda row: print(_row_text(row, args.json))) if args.trace else None
    result = engine.replay(theory, spec, _read(args.script), trace=trace)
    return _program_result(args, *result)


def cmd_search(args) -> Result:
    theory, spec = _load_theory_and_spec(args)
    weights = json.loads(_read(args.weights)) if args.weights else {}
    if not isinstance(weights, dict):
        raise engine.EngineError("--weights must hold a JSON object")
    config = engine.SearchConfig(max_rows=args.max_rows, weights=weights)
    result = engine.search(theory, spec, config)
    if result is None:
        return NEGATIVE, "no derivation found within the row limit\n", {"found": False}
    return _program_result(args, *result, found=True)


def _parse_value(text: str):
    text = text.strip()
    if text == "bot" or text.startswith("{"):
        return parse_subst(text)
    return parse_expr(text)


def cmd_run(args) -> Result:
    prog = P.parse_program(_read(args.program))
    values = [_parse_value(a) for a in args.args]
    result = P.interpret(
        prog, values, fuel=args.fuel, check_decrease=args.check_decrease
    )
    text = P.show_value(result)
    return NEGATIVE if result == BOT else OK, text + "\n", {"result": text}


def small_universe():
    """All expressions over {a, b, X, Y} of size at most 3."""
    atoms = [Const("a"), Const("b"), Var("X"), Var("Y")]
    exprs = list(atoms)
    for l, r in itertools.product(atoms, atoms):
        exprs.append(Cons(l, r))
    return exprs


def selftest_environments():
    return [EMPTY, parse_subst("{X -> a}"), parse_subst("{X -> Y}")]


def cmd_selftest(args) -> Result:
    universe = small_universe()
    disagreements = 0
    pairs = 0
    for env in selftest_environments():
        for e1, e2 in itertools.product(universe, universe):
            pairs += 1
            ref = reference_unify(env, e1, e2)
            ora = oracle_unify(env, e1, e2)
            if is_proper(ref) != is_proper(ora):
                disagreements += 1
                continue
            if is_proper(ref) and (compose(ref, ora) != ora or compose(ora, ref) != ref):
                disagreements += 1
    text = f"checked {pairs} pairs, {disagreements} disagreements\n"
    payload = {"pairs": pairs, "disagreements": disagreements}
    return OK if disagreements == 0 else NEGATIVE, text, payload


if __name__ == "__main__":
    sys.exit(main())
