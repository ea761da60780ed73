"""Self-test of the benchmark itself.

Usage (from the repository root): python3 bench/selftest.py

1. For every workload, a deliberately corrupted output of each shape is
   counted as failed, and the true outputs pass.
2. Two traced runs with the same seed report identical work counters
   (every per-layer metric in counts or ratios of counts).
3. BENCHMARK.json is what metrics.py generates.
4. In a directory holding only BENCHMARK.json and bench/, the benchmark
   exits non-zero without printing a result.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
from run import OUT_DIR, corruption_selftest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTERS = [
    name for name, unit, *_ in metrics.PER_LAYER
    if unit in ("count", "ratio") and not name.startswith("trace.")
]


def check_corruption() -> bool:
    ok = True
    for wl in WORKLOADS.values():
        ctx = wl.setup()
        corrupted, caught, true_ok = corruption_selftest(wl, ctx, wl.inputs(ctx, 7))
        good = caught == corrupted and true_ok
        print(f"{wl.name}: {caught}/{corrupted} corrupted outputs counted failed, "
              f"true outputs {'pass' if true_ok else 'FAIL'}")
        ok = ok and good
    return ok


def _traced_counts(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=300, cwd=ROOT,
    )
    values = json.loads(done.stdout.splitlines()[-1])["metrics"]
    return {name: values[name]["value"] for name in COUNTERS}


def check_counters(seed: int = 3) -> bool:
    ok = True
    for workload in WORKLOADS:
        first, second = _traced_counts(workload, seed), _traced_counts(workload, seed)
        differ = sorted(n for n in COUNTERS if first[n] != second[n])
        print(f"{workload}: {len(COUNTERS) - len(differ)}/{len(COUNTERS)} counters repeat"
              + (f"; differ: {differ}" if differ else ""))
        ok = ok and not differ
    return ok


def check_manifest() -> bool:
    same = (ROOT / "BENCHMARK.json").read_text() == metrics.render_manifest()
    print(f"BENCHMARK.json {'matches' if same else 'DIFFERS FROM'} metrics.py")
    return same


def check_bare_directory() -> bool:
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "replay", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=bare,
        )
    finally:
        shutil.rmtree(bare)
    ok = done.returncode != 0 and not done.stdout.strip()
    print(f"without sources: exit {done.returncode}, "
          f"{'no result printed' if not done.stdout.strip() else 'PRINTED OUTPUT'}")
    return ok


def main() -> int:
    results = [check_corruption(), check_manifest(), check_bare_directory(), check_counters()]
    print("self-test", "passed" if all(results) else "FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
