"""The benchmark's metric and workload definitions, and BENCHMARK.json.

This table is the single source of `BENCHMARK.json`: run
`python3 bench/metrics.py --write` from the repository root after
changing it.  Each per-layer metric carries the end-to-end metric and
workload it should move; `python3 bench/metrics.py` prints that map.

Per-layer metric families:

- `<fn>.calls`, `<fn>.failed`, `<fn>.self_ms`, ratios: from the traced
  spans of one fixed batch, namely the common layer sweep (one replay op,
  one search of each problem, 20 small triples and one unify-large
  cycle, the same on every workload) plus the first traced pass of the
  workload's own ops.  Counts repeat exactly for a seed.  `self_ms` is
  the sweep's self time plus the median self time of a traced pass.
- `<fn>.ms`, `<fn>.us`, `*.list-<n>.ms`, `baseline.*`, `cli.*`: untraced
  wall times of calls into the public functions, measured from outside.
- `*.max_list_len`: depth probes, the largest n <= 400 for which the
  n-list case returns without RecursionError.
- `trace.*`: untraced against traced ops per second on the workload's
  own ops, alternating passes in one process.
"""

from __future__ import annotations

import json
import pathlib
import sys

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 55

# Two workloads are listed, so that each run can last RUN_SECONDS: the
# host's speed drifts over minutes, and only long runs keep the ten-seed
# spreads of search under the bounds.  The replay workload
# (workloads.Replay) is not listed because its single fixed op has a
# latency median that jumps between the two speeds of a noisy host; the
# unify-large workload is not listed to leave time for the other two.
# Both run on request, and the layer sweep of every traced run measures
# their layers.
WORKLOADS = [
    ("search", "unguided tableau/logic use, about 80% Tableau.resolve and "
     "n^2.3 in the row budget; the target of term indexing"),
    ("unify-small", "acceptance criteria 3 and 4 as a request stream: tiny inputs, "
     "per-call overhead in program/wf/unify/subst dominates; hash-consing bypass"),
]

# (name, unit, better, bound).  On a shared 2-vCPU VM the ten-seed spreads
# (quartile distance over median) of the timings reach 0.22, because the
# host's speed drifts by up to 1.7x over seconds to minutes; the timing
# bounds are therefore the largest allowed.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

SEARCH_P50 = "op_ms_p50 on search"
SEARCH_ALL = "ops_per_s, op_ms_p50, op_ms_p90 on search"
REPLAY_ALL = "setup_s on unify-small (and the unlisted replay workload)"
SMALL = "ops_per_s on unify-small; no change on the unlisted unify-large"
LARGE = "op_ms_p50 on the unlisted unify-large most, unify-small less"
BOTH_UNIFY = "ops_per_s, op_ms_p50 on unify-small and the unlisted unify-large"
TABLEAU = "ops_per_s on search; no change on unify-small, unify-large"

RULES = ("resolve", "equivalence_replace", "equality_replace", "split_row",
         "drop_orphan_output")

# (name, unit, better, moves)
PER_LAYER = [
    ("engine.load_theory.ms", "ms", "lower", "setup_s on search and unify-small"),
    ("engine.replay.ms", "ms", "lower", REPLAY_ALL),
    ("engine.verify_replay.ms", "ms", "lower", "the unlisted replay workload only"),
    ("engine.search.unify-same.ms", "ms", "lower", "ops_per_s on search"),
    ("engine.search.unify-200.ms", "ms", "lower", SEARCH_P50),
    ("engine.search.unify-250.ms", "ms", "lower", "op_ms_p90 on search"),
    ("engine.search.rows", "count", "lower", SEARCH_ALL),
    ("engine.search.rule_attempts", "count", "lower", SEARCH_ALL),
    ("engine.search.kept_per_attempt", "ratio", "higher", SEARCH_ALL),
    *[(f"tableau.{r}.{k}", u, "lower", TABLEAU)
      for r in RULES for k, u in (("calls", "count"), ("self_ms", "ms"), ("failed", "count"))],
    ("tableau.truncate.calls", "count", "lower", TABLEAU),
    ("tableau.extract_program.ms", "ms", "lower", REPLAY_ALL + "; ops_per_s on search"),
    ("logic.term_unify.calls", "count", "lower", SEARCH_ALL),
    ("logic.term_unify.self_ms", "ms", "lower", SEARCH_ALL),
    ("logic.term_unify.fail_ratio", "ratio", "lower", SEARCH_ALL),
    ("logic.metavars_of.calls", "count", "lower", SEARCH_ALL),
    ("logic.metavars_of.self_ms", "ms", "lower", SEARCH_ALL),
    ("logic.print_formula.self_ms", "ms", "lower", SEARCH_ALL),
    ("logic.parse_formula.self_ms", "ms", "lower", "setup_s on search and unify-small"),
    ("program.interpret.us", "us", "lower", SMALL),
    ("program.interpret.self_calls", "count", "lower", SMALL),
    ("program.eval_apply.calls", "count", "lower", SMALL),
    ("program.eval_apply.self_ms", "ms", "lower", SMALL),
    ("wf.u_less.calls", "count", "lower", "ops_per_s on unify-small"),
    ("wf.u_less.self_ms", "ms", "lower", "ops_per_s on unify-small"),
    ("unify.reference_unify.us", "us", "lower", BOTH_UNIFY),
    ("unify.oracle_unify.us", "us", "lower", BOTH_UNIFY),
    ("unify.mgiu_check.us", "us", "lower", BOTH_UNIFY),
    ("unify.oracle_calls_per_check", "ratio", "lower", BOTH_UNIFY),
    *[(f"unify.{f}_unify.list-{n}.ms", "ms", "lower", "op_ms_p50, op_ms_p90 on the unlisted unify-large")
      for f in ("reference", "oracle") for n in (50, 100, 200)],
    ("subst.apply.calls", "count", "lower", LARGE),
    ("subst.apply.self_ms", "ms", "lower", LARGE),
    ("subst.compose.calls", "count", "lower", LARGE),
    ("subst.compose.self_ms", "ms", "lower", LARGE),
    ("subst.is_idempotent.self_ms", "ms", "lower", LARGE),
    ("term.vars_of.calls", "count", "lower", LARGE),
    ("term.vars_of.self_ms", "ms", "lower", LARGE),
    ("term.occurs_in.calls", "count", "lower", LARGE),
    ("term.occurs_in.self_ms", "ms", "lower", LARGE),
    ("cli.import.ms", "ms", "lower", "setup_s on every workload"),
    ("cli.replay.ms", "ms", "lower", "setup_s; the CLI replay command end to end"),
    ("cli.search.ms", "ms", "lower", "setup_s; the CLI search command end to end"),
    ("cli.selftest.ms", "ms", "lower", "setup_s; the CLI selftest command end to end"),
    ("program.interpret.max_list_len", "count", "higher", "none (depth limit, no gate)"),
    ("unify.reference_unify.max_list_len", "count", "higher", "none (depth limit, no gate)"),
    ("unify.oracle_unify.max_list_len", "count", "higher", "none (depth limit, no gate)"),
    ("trace.ops_per_s.untraced", "1/s", "higher", "ops_per_s on this workload"),
    ("trace.ops_per_s.traced", "1/s", "higher", "none (tracing cost)"),
    ("trace.overhead", "ratio", "lower", "none (tracing cost)"),
    *[(f"baseline.{f}.2000.ms", "ms", "lower", m) for f, m in (
        ("reference_unify", BOTH_UNIFY), ("oracle_unify", BOTH_UNIFY),
        ("interpret", SMALL), ("interpret_checked", SMALL), ("mgiu_check", BOTH_UNIFY))],
    ("baseline.search.unify-500.ms", "ms", "lower", "op_ms_p90 on search"),
    ("baseline.reference_unify.list-400.ms", "ms", "lower", "op_ms_p90 on unify-large"),
    ("baseline.oracle_unify.list-400.ms", "ms", "lower", "op_ms_p90 on unify-large"),
    *[(f"baseline.cli.{c}.wall_ms", "ms", "lower", f"the CLI {c} command end to end")
      for c in ("replay", "search", "selftest")],
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def render_manifest() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        root = pathlib.Path(__file__).resolve().parents[1]
        (root / "BENCHMARK.json").write_text(render_manifest())
        return 0
    if argv:
        print("usage: python3 bench/metrics.py [--write]", file=sys.stderr)
        return 2
    width = max(len(n) for n, *_ in PER_LAYER)
    for name, unit, _, moves in PER_LAYER:
        print(f"{name:<{width}}  {unit:<6} {moves}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
