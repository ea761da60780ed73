"""The benchmark's workloads still run on the package: a change under src/
that breaks what bench/ imports or calls fails here, not first in a
benchmark run.

For each workload BENCHMARK.json lists, the first three ops of seed 0 are
run; `check` must accept each real output and reject its `corrupt` form.
Every function the traced run (`bench/run.py --trace 1`) wraps must exist,
and its common layer sweep must give each of them a span: a wrapped function
that is no longer called would stop the traced run with "per-layer metrics
not measured".
"""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import probes  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

LISTED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", LISTED)
def test_listed_workload_runs_and_checks(name):
    wl = workloads.WORKLOADS[name]
    ctx = wl.setup()
    for inp in wl.inputs(ctx, 0)[:3]:
        out = wl.run(ctx, inp)
        assert wl.check(ctx, inp, out)
        assert not wl.check(ctx, inp, wl.corrupt(ctx, inp, out))


def test_every_traced_function_exists():
    targets = probes.trace_targets()
    missing = [f"{span}: {attr}" for span, owner, attr, _ in targets if not hasattr(owner, attr)]
    assert targets and not missing


def test_the_traced_sweep_gives_every_wrapped_function_a_span():
    # as run.traced_run runs it; no metric reads unify.oracle_unify's span
    targets = probes.trace_targets()
    tracer, tally = tr.Tracer(), run.Tally()
    tracer.install(targets)
    try:
        for wl, ctx, inputs in probes.sweep_ops():
            run.run_ops(wl, ctx, inputs, tally, tracer=tracer)
    finally:
        tracer.uninstall()
    spanned = {span[0] for span in tracer.take()}
    assert {name for name, *_ in targets} - spanned <= {"unify.oracle_unify"}
    assert tracer.counters["program.interpret.self_calls"] > 0
    assert tally.attempted > 0 and tally.failed == 0
