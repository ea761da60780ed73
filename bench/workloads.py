"""The benchmark workloads: search and unify-small, which BENCHMARK.json
lists, and replay and unify-large, which the layer sweep of the traced
run uses and which run on request but are not listed (see metrics.py).

Each workload is one client in a closed loop: the next op starts when
the previous one ends, in a single thread.  A workload supplies

- `setup()`: reads the bundled data and does its own set-up (this is
  what `setup_s` times in a fresh process);
- `inputs(ctx, seed)`: one cycle of op inputs, generated before timing;
  workloads that mix shapes list an odd number of shapes in equal counts
  and in a fixed rotation, so a run that stops at a cycle boundary holds
  every shape equally often;
- `run(ctx, inp)`: one op, the user request;
- `check(ctx, inp, out)`: verification against a reference independent
  of the code under test; for the `unify-*` workloads it is part of the
  op and timed with it;
- `corrupt(ctx, inp, out)`: a deliberately wrong output, used by the
  benchmark's self-test to show that `check` rejects it.

`trace_ops` is the size of one traced pass, a multiple of `shapes`.
"""

from __future__ import annotations

import dataclasses
from importlib import resources

# Calls into the layers go through module attributes, so that the
# tracer's rebinding of those attributes sees them.
from tabsynth import cli, engine, program, unify
from tabsynth.logic import Apply
from tabsynth.subst import BOT, EMPTY, compose, is_proper

import gen

SMALL_POOL = 2000  # unify-small triples per cycle
LARGE_RANDOM = 40  # unify-large random pairs per cycle
LIST_SIZES = (100, 200)  # centres; each cycle runs lengths centre-20 .. centre+19
SEARCH_PROBLEMS = (
    # (name, theory file, spec, row budget, finds a program)
    ("unify-same", "unify_same.thy", "unify-same", 200, True),
    ("unify-200", "unify.thy", "unify", 200, False),
    ("unify-250", "unify.thy", "unify", 250, False),
)
SEARCH_BUDGETS = 10  # full-theory budgets per cycle: centre-20 .. centre+16 in steps of 4
REPLAY_ROWS = 136


def read_data(name: str) -> str:
    return resources.files("tabsynth.data").joinpath(name).read_text()


def _rotate(items: list, seed: int) -> list:
    k = seed % len(items)
    return items[k:] + items[:k]


def _flip_subst(s):
    """A wrong answer of the other kind: bot for a unifier, {} for bot."""
    return BOT if is_proper(s) else EMPTY


class Replay:
    """load_theory -> replay -> verify_replay -> emit of the bundled derivation."""

    name = "replay"
    shapes = 1
    check_in_op = False
    trace_ops = 3

    def setup(self):
        return {
            "theory": read_data("unify.thy"),
            "script": read_data("unify.derivation"),
            "golden": read_data("unify_program.golden"),
        }

    def inputs(self, ctx, seed):
        return [None]  # the bundled derivation is the whole input

    def run(self, ctx, inp):
        theory = engine.load_theory(ctx["theory"])
        tableau, prog = engine.replay(theory, "unify", ctx["script"])
        verified = engine.verify_replay(theory, "unify", tableau)
        return len(tableau.rows), verified, program.emit(prog)

    def check(self, ctx, inp, out):
        rows, verified, text = out
        return rows == REPLAY_ROWS and verified is True and text == ctx["golden"]

    def corrupt(self, ctx, inp, out):
        rows, verified, text = out
        return rows, verified, text.replace("bot", "th0", 1)


class Search:
    """engine.search over three problems in equal counts."""

    name = "search"
    shapes = len(SEARCH_PROBLEMS)
    check_in_op = False
    trace_ops = 3

    def setup(self):
        theories = {
            f: engine.load_theory(read_data(f)) for f in {p[1] for p in SEARCH_PROBLEMS}
        }
        pairs = [
            (env, e) for env in cli.selftest_environments() for e in cli.small_universe()
        ]
        return {"theories": theories, "pairs": pairs, "verdicts": {}}

    def inputs(self, ctx, seed):
        # Budgets spread around each centre, for the reason given in
        # UnifyLarge.inputs; the unify-same search ends at 31 rows whatever
        # its budget, and every budget here exhausts without a program.
        out = []
        for d in gen.shuffled_offsets(seed, SEARCH_BUDGETS):
            for name, thy, spec, rows, finds in _rotate(list(SEARCH_PROBLEMS), seed):
                out.append((name, thy, spec, rows if finds else rows + 4 * d, finds))
        return out

    def run(self, ctx, inp):
        _, thy, spec, rows, _ = inp
        return engine.search(ctx["theories"][thy], spec, engine.SearchConfig(max_rows=rows))

    def check(self, ctx, inp, out):
        finds = inp[4]
        if not finds:
            return out is None
        if out is None:
            return False
        text = program.emit(out[1])
        if text not in ctx["verdicts"]:
            ctx["verdicts"][text] = self._agrees_with_oracle(ctx, out[1])
        return ctx["verdicts"][text]

    def _agrees_with_oracle(self, ctx, prog) -> bool:
        """The program equals oracle_unify(env, e, e) up to renaming."""
        for env, e in ctx["pairs"]:
            got = program.interpret(prog, [env, e])
            want = unify.oracle_unify(env, e, e)
            if is_proper(got) != is_proper(want):
                return False
            if is_proper(want) and (compose(got, want) != want or compose(want, got) != got):
                return False
        return True

    def corrupt(self, ctx, inp, out):
        if out is None:
            return ("tableau", None)
        tableau, prog = out
        return tableau, dataclasses.replace(prog, body=Apply("bot"))


class UnifySmall:
    """reference_unify, the extracted program, and mgiu_check on small triples."""

    name = "unify-small"
    shapes = 1
    check_in_op = True
    trace_ops = 300

    def setup(self):
        theory = engine.load_theory(read_data("unify.thy"))
        _, prog = engine.replay(theory, "unify", read_data("unify.derivation"))
        return {"program": prog}

    def inputs(self, ctx, seed):
        return gen.small_triples(seed, SMALL_POOL)

    def run(self, ctx, inp):
        env, e1, e2 = inp
        ref = unify.reference_unify(env, e1, e2)
        got = program.interpret(ctx["program"], [env, e1, e2], check_decrease=True)
        return ref, got

    def check(self, ctx, inp, out):
        ref, got = out
        env, e1, e2 = inp
        return unify.mgiu_check(env, e1, e2, got).ok and got == ref

    def corrupt(self, ctx, inp, out):
        ref, got = out
        return ref, _flip_subst(got)


class UnifyLarge:
    """reference_unify and mgiu_check on depth-10 pairs and long lists."""

    name = "unify-large"
    shapes = 1 + len(LIST_SIZES)
    check_in_op = True
    trace_ops = 9

    def setup(self):
        return {}  # importing tabsynth is the whole set-up

    def inputs(self, ctx, seed):
        # Lengths spread around each centre, so that op_ms_p50 and op_ms_p90
        # move smoothly with the speed of a noisy host instead of jumping
        # between its fast and slow phases; every seed runs the same lengths.
        offsets = gen.shuffled_offsets(seed, LARGE_RANDOM)
        out = []
        for pair, d in zip(gen.large_pairs(seed, LARGE_RANDOM), offsets):
            out.append(pair)
            out.extend((EMPTY, gen.var_list(c + d), gen.const_list(c + d)) for c in LIST_SIZES)
        return out

    def run(self, ctx, inp):
        env, e1, e2 = inp
        return unify.reference_unify(env, e1, e2)

    def check(self, ctx, inp, out):
        env, e1, e2 = inp
        return unify.mgiu_check(env, e1, e2, out).ok

    def corrupt(self, ctx, inp, out):
        return _flip_subst(out)


WORKLOADS = {w.name: w for w in (Replay(), Search(), UnifySmall(), UnifyLarge())}
