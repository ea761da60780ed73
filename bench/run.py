"""tabsynth benchmark: one workload per fresh process, every output checked.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: search and unify-small, listed in BENCHMARK.json, and replay
and unify-large, which run but are not listed (see metrics.py);
workloads.py defines them.  Each is one client in a closed loop,
single-threaded; inputs come from the seed and are generated before
timing starts.

With --trace 0 the run prints the end-to-end metrics: setup_s (median
of fresh-process set-ups), ops_per_s, op_ms_p50, op_ms_p90 and
peak_rss_mb.  With --trace 1 it prints the per-layer metrics listed in
metrics.py and writes the spans of the common layer sweep and of its
first traced pass to `.bench_out/spans-<workload>.jsonl`.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  failed/attempted is the failed
share: an op fails if it raises or its output fails the check, and
failed ops are never dropped.

Exit status 0 on a completed run, 2 when the tabsynth sources are not
found next to the benchmark or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import array
import json
import math
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9


class Tally:
    """Latency samples and failures of the ops attempted."""

    def __init__(self):
        # Unboxed, so that the samples of a long run barely move peak_rss_mb.
        self.latencies = array.array("d")
        self.failed = 0
        self._reported = False

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def record(self, seconds: float, ok: bool) -> None:
        self.latencies.append(seconds)
        self.failed += not ok

    def report_exception(self) -> None:
        if not self._reported:
            self._reported = True
            traceback.print_exc(file=sys.stderr)


def _checked(wl, ctx, inp, out, tally) -> bool:
    try:
        return bool(wl.check(ctx, inp, out))
    except Exception:  # a check that raises rejects the output
        tally.report_exception()
        return False


def run_ops(wl, ctx, inputs, tally, deadline=None, tracer=None) -> float:
    """Run the inputs once, or in cycles until the deadline; return wall seconds.

    A timed run stops only at a multiple of the workload's shape count,
    so every shape is run equally often.  Checks outside the op run with
    the tracer suspended.
    """
    clock = time.perf_counter
    n = len(inputs)
    i = 0
    begin = clock()
    while True:
        inp = inputs[i % n]
        if tracer is not None:
            tracer.op += 1
        start = clock()
        try:
            out = wl.run(ctx, inp)
            ok = wl.check(ctx, inp, out) if wl.check_in_op else None
        except Exception:  # counted as a failed op, never dropped
            tally.report_exception()
            out, ok = None, False
        end = clock()
        if ok is None:
            if tracer is None:
                ok = _checked(wl, ctx, inp, out, tally)
            else:
                with tracer.suspended():
                    ok = _checked(wl, ctx, inp, out, tally)
        tally.record(end - start, ok)
        i += 1
        if deadline is None:
            if i == n:
                return clock() - begin
        elif i % wl.shapes == 0 and end >= deadline:
            return clock() - begin


def corruption_selftest(wl, ctx, inputs) -> tuple[int, int, bool]:
    """Run one op of each shape; corrupt each output and count it.

    Returns (corrupted, counted failed, every true output passed).
    """
    good, bad = Tally(), Tally()
    for inp in inputs[: wl.shapes]:
        out = wl.run(ctx, inp)
        good.record(0.0, _checked(wl, ctx, inp, out, good))
        bad.record(0.0, _checked(wl, ctx, inp, wl.corrupt(ctx, inp, out), bad))
    return bad.attempted, bad.failed, good.failed == 0


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure_setup(workload: str) -> float:
    """Median set-up seconds over fresh processes, after one warm-up."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times[1:])


def untraced_run(wl, seed: int, seconds: float) -> dict:
    setup_s = measure_setup(wl.name)
    ctx = wl.setup()
    inputs = wl.inputs(ctx, seed)
    corrupted, caught, true_ok = corruption_selftest(wl, ctx, inputs)
    tally = Tally()
    elapsed = run_ops(wl, ctx, inputs, tally, deadline=time.perf_counter() + seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = sorted(tally.latencies)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": (tally.attempted - tally.failed) / elapsed,
        "op_ms_p50": percentile(lat, 0.5) * 1e3,
        "op_ms_p90": percentile(lat, 0.9) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"# {wl.name} seed={seed}: {tally.attempted} ops in {elapsed:.2f} s, "
          f"{tally.failed} failed (failed_share {tally.failed / tally.attempted:.4f})")
    print(f"# op_ms_p50 and op_ms_p90 from {tally.attempted} samples, "
          f"{tally.attempted - math.ceil(0.9 * tally.attempted)} beyond p90")
    print(f"# self-test: {caught} of {corrupted} corrupted outputs counted failed")
    correct = tally.failed == 0 and caught == corrupted and true_ok
    return _result(correct, tally.attempted, tally.failed, metrics)


def traced_run(wl, seed: int, seconds: float) -> dict:
    import probes
    import tracer as tr
    from metrics import PER_LAYER

    deadline = time.perf_counter() + seconds
    ctx = wl.setup()
    inputs = wl.inputs(ctx, seed)
    sweep = probes.sweep_ops()
    metrics, probes_ok = probes.timed_probes(seed, str(SRC))

    tracer = tr.Tracer()
    tracer.install(probes.trace_targets())
    tally = Tally()
    for sw, sw_ctx, sw_inputs in sweep:
        before = len(tracer.tableaux)
        run_ops(sw, sw_ctx, sw_inputs, tally, tracer=tracer)
        if sw.name == "search":
            search_tableaux = tracer.tableaux[before:]
    sweep_spans = tracer.take()
    metrics.update(probes.search_counters(sweep_spans, search_tableaux))

    batch = [inputs[i % len(inputs)] for i in range(wl.trace_ops)]
    traced_s, untraced_s, pass_self = [], [], []
    first_spans = first_counters = None
    while not traced_s or time.perf_counter() < deadline:
        traced_s.append(run_ops(wl, ctx, batch, tally, tracer=tracer))
        spans = tracer.take()
        stats, _ = tr.summarize(spans)
        pass_self.append({name: st.self_time for name, st in stats.items()})
        if first_spans is None:
            first_spans, first_counters = spans, dict(tracer.counters)
        with tracer.suspended():
            untraced_s.append(run_ops(wl, ctx, batch, tally))
    tracer.uninstall()

    offset = len(sweep_spans)
    spans = sweep_spans + [
        (n, s, e, p + offset if p >= 0 else p, op, o) for n, s, e, p, op, o in first_spans
    ]
    stats, pairs = tr.summarize(spans)
    sweep_stats, _ = tr.summarize(sweep_spans)
    for name, st in stats.items():
        metrics[f"{name}.calls"] = st.calls
        metrics[f"{name}.failed"] = st.raised
        median_pass = statistics.median(p.get(name, 0.0) for p in pass_self)
        metrics[f"{name}.self_ms"] = (sweep_stats[name].self_time + median_pass) * 1e3
    term_unify = stats["logic.term_unify"]
    metrics["logic.term_unify.fail_ratio"] = term_unify.none / term_unify.calls
    metrics["unify.oracle_calls_per_check"] = (
        pairs[("unify.mgiu_check", "unify.oracle_unify")] / stats["unify.mgiu_check"].calls
    )
    metrics["program.interpret.self_calls"] = first_counters["program.interpret.self_calls"]
    untraced_rate = len(batch) / statistics.median(untraced_s)
    traced_rate = len(batch) / statistics.median(traced_s)
    metrics["trace.ops_per_s.untraced"] = untraced_rate
    metrics["trace.ops_per_s.traced"] = traced_rate
    metrics["trace.overhead"] = untraced_rate / traced_rate

    OUT_DIR.mkdir(exist_ok=True)
    tr.write_spans(OUT_DIR / f"spans-{wl.name}.jsonl", spans)
    print(f"# {wl.name} seed={seed}: {len(traced_s)} traced and {len(untraced_s)} untraced "
          f"passes of {len(batch)} ops; {len(spans)} spans written")
    wanted = [name for name, *_ in PER_LAYER]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    correct = probes_ok and tally.failed == 0
    return _result(correct, tally.attempted, tally.failed, {k: metrics[k] for k in wanted})


def _result(correct: bool, attempted: int, failed: int, values: dict) -> dict:
    from metrics import UNITS

    for name, value in values.items():
        print(f"{name} {value} {UNITS[name]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tabsynth" / "__init__.py").is_file():
        print(f"error: tabsynth sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tabsynth
    from workloads import WORKLOADS

    if pathlib.Path(tabsynth.__file__).resolve().parent != SRC / "tabsynth":
        print(f"error: imported tabsynth from {tabsynth.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run = traced_run if args.trace else untraced_run
    result = run(WORKLOADS[args.workload], args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
