"""Per-layer probes for the traced run.

`timed_probes` times calls into each module's public functions from
outside, untraced: theory loading, replay, verification, search at fixed
row budgets, the unifiers on random triples and on n-lists, the CLI
commands, and the depth limits.  `sweep_ops` is a small fixed mix of
every workload's ops that the traced run runs under the tracer, so that
every layer has spans on every workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time

from tabsynth import cli, engine, logic, program, subst, tableau, term, unify, wf
from tabsynth.subst import EMPTY

import gen
import tracer as tr
from metrics import RULES
from workloads import SEARCH_PROBLEMS, WORKLOADS, read_data

TRIPLES = 2000  # the ROADMAP baseline rows use 2000 random triples
LIST_CURVE = (50, 100, 200)
LIST_BASELINE = 400
SEARCH_BASELINE_ROWS = 500  # the larger ROADMAP budgets take 6 s and 30 s
DEPTH_CAP = 400
SWEEP_SMALL = 20


def trace_targets():
    """(span name, owner, attribute, adapter) for every traced function."""
    return [
        ("engine.load_theory", engine, "load_theory", None),
        ("engine.replay", engine, "replay", None),
        ("engine.verify_replay", engine, "verify_replay", None),
        ("engine.search", engine, "search", None),
        ("engine.make_tableau", engine, "make_tableau", tr.keep_tableaux),
        *[(f"tableau.{r}", tableau.Tableau, r, None) for r in RULES],
        ("tableau.truncate", tableau.Tableau, "truncate", None),
        ("tableau.extract_program", tableau.Tableau, "extract_program", None),
        ("logic.term_unify", logic, "term_unify", None),
        ("logic.metavars_of", logic, "metavars_of", None),
        ("logic.print_formula", logic, "print_formula", None),
        ("logic.parse_formula", logic, "parse_formula", None),
        ("program.interpret", program, "interpret", tr.count_self_calls),
        ("program.eval_apply", program, "eval_apply", None),
        ("wf.u_less", wf, "u_less", None),
        ("unify.reference_unify", unify, "reference_unify", None),
        ("unify.oracle_unify", unify, "oracle_unify", None),
        ("unify.mgiu_check", unify, "mgiu_check", None),
        ("subst.apply", subst, "apply", None),
        ("subst.compose", subst, "compose", None),
        ("subst.is_idempotent", subst, "is_idempotent", None),
        ("term.vars_of", term, "vars_of", None),
        ("term.occurs_in", term, "occurs_in", None),
    ]


def _ms(fn, repeats: int = 1) -> float:
    """Median wall time of fn() in milliseconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def max_list_len(fn, cap: int = DEPTH_CAP) -> int:
    """Largest n <= cap with fn(n-list of variables, n-list of a) free of RecursionError."""

    def passes(n: int) -> bool:
        try:
            fn(gen.var_list(n), gen.const_list(n))
        except RecursionError:
            return False
        return True

    if passes(cap):
        return cap
    lo, hi = 0, cap  # the empty lists always unify
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _cli_json(argv: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--json"])
    return code, json.loads(out.getvalue())


def _fresh_process_ms(src: str, code: str) -> float:
    """Run code in a fresh interpreter; it prints its own elapsed seconds."""
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1]) * 1e3


def _cli_wall_ms(src: str, args: list[str]) -> float:
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "tabsynth.cli", *args], env=env,
        capture_output=True, check=True, timeout=120,
    )
    return (time.perf_counter() - start) * 1e3


def timed_probes(seed: int, src: str) -> tuple[dict, bool]:
    m: dict[str, float] = {}
    ok = True
    thy_text = read_data("unify.thy")
    script = read_data("unify.derivation")

    m["engine.load_theory.ms"] = _ms(lambda: engine.load_theory(thy_text), 7)
    theory = engine.load_theory(thy_text)
    m["engine.replay.ms"] = _ms(lambda: engine.replay(theory, "unify", script), 3)
    tab, prog = engine.replay(theory, "unify", script)
    m["engine.verify_replay.ms"] = _ms(lambda: engine.verify_replay(theory, "unify", tab), 3)
    m["tableau.extract_program.ms"] = _ms(tab.extract_program, 9)

    for name, thy, spec, rows, _ in SEARCH_PROBLEMS:
        th = engine.load_theory(read_data(thy))
        config = engine.SearchConfig(max_rows=rows)
        repeats = 3 if name == "unify-same" else 1
        m[f"engine.search.{name}.ms"] = _ms(lambda: engine.search(th, spec, config), repeats)
    th = engine.load_theory(thy_text)
    config = engine.SearchConfig(max_rows=SEARCH_BASELINE_ROWS)
    m[f"baseline.search.unify-{SEARCH_BASELINE_ROWS}.ms"] = _ms(
        lambda: engine.search(th, "unify", config))

    triples = gen.small_triples(seed, TRIPLES)
    results = []

    def each(fn):
        return lambda: [fn(t) for t in triples]

    m["baseline.reference_unify.2000.ms"] = _ms(
        lambda: results.extend(unify.reference_unify(*t) for t in triples))
    m["baseline.oracle_unify.2000.ms"] = _ms(each(lambda t: unify.oracle_unify(*t)))
    m["baseline.interpret.2000.ms"] = _ms(each(lambda t: program.interpret(prog, list(t))))
    m["baseline.interpret_checked.2000.ms"] = _ms(
        each(lambda t: program.interpret(prog, list(t), check_decrease=True)))
    m["baseline.mgiu_check.2000.ms"] = _ms(
        lambda: [unify.mgiu_check(*t, s) for t, s in zip(triples, results)])
    for fn in ("reference_unify", "oracle_unify", "mgiu_check"):
        m[f"unify.{fn}.us"] = m[f"baseline.{fn}.2000.ms"] * 1e3 / TRIPLES
    m["program.interpret.us"] = m["baseline.interpret_checked.2000.ms"] * 1e3 / TRIPLES

    for n in (*LIST_CURVE, LIST_BASELINE):
        a, b = gen.var_list(n), gen.const_list(n)
        prefix = "baseline." if n == LIST_BASELINE else "unify."
        for fn in ("reference_unify", "oracle_unify"):
            call = getattr(unify, fn)
            m[f"{prefix}{fn}.list-{n}.ms"] = _ms(lambda: call(EMPTY, a, b), 3 if n <= 100 else 1)

    m["program.interpret.max_list_len"] = max_list_len(
        lambda a, b: program.interpret(prog, [EMPTY, a, b]))
    m["unify.reference_unify.max_list_len"] = max_list_len(
        lambda a, b: unify.reference_unify(EMPTY, a, b))
    m["unify.oracle_unify.max_list_len"] = max_list_len(
        lambda a, b: unify.oracle_unify(EMPTY, a, b))

    import_code = ("import time; t = time.perf_counter(); import tabsynth.cli; "
                   "print(time.perf_counter() - t)")
    _fresh_process_ms(src, import_code)  # warm the bytecode cache
    m["cli.import.ms"] = statistics.median(_fresh_process_ms(src, import_code) for _ in range(3))
    for command, want in (("replay", lambda d: d["rows"] == 136),
                          ("search", lambda d: d["found"]),
                          ("selftest", lambda d: d["disagreements"] == 0)):
        start = time.perf_counter()
        code, payload = _cli_json([command])
        m[f"cli.{command}.ms"] = (time.perf_counter() - start) * 1e3
        ok = ok and code == 0 and want(payload)
        m[f"baseline.cli.{command}.wall_ms"] = _cli_wall_ms(src, [command, "--json"])
    return m, ok


def sweep_ops():
    """The common traced mix: (workload, ctx, inputs) covering every layer."""
    out = []
    for name, count in (("replay", 1), ("search", None), ("unify-small", SWEEP_SMALL),
                        ("unify-large", None)):
        wl = WORKLOADS[name]
        ctx = wl.setup()
        inputs = wl.inputs(ctx, 0)
        out.append((wl, ctx, inputs[: count or wl.shapes]))
    return out


def search_counters(spans: list, tableaux: list) -> dict:
    """Rows, rule attempts and kept rows of the searches among the spans."""
    rules = {f"tableau.{r}" for r in RULES}
    in_search = set()
    attempts = 0
    for idx, (name, _, _, parent, _, _) in enumerate(spans):
        if name == "engine.search" or parent in in_search:
            in_search.add(idx)
            attempts += name in rules
    rows = kept = 0
    for t in tableaux:
        rows += len(t.rows)
        kept += len(t.rows) - 1 - len(t.lemmas)  # the goal and the lemmas start a search
    return {
        "engine.search.rows": rows,
        "engine.search.rule_attempts": attempts,
        "engine.search.kept_per_attempt": kept / attempts if attempts else 0.0,
    }
