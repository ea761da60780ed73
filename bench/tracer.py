"""Span tracer for the traced run, installed from outside the package.

`Tracer.install` wraps public functions of the tabsynth modules.  Module
functions are often imported by name (`unify.py` does
`from .subst import apply`), so the wrapper replaces every binding of the
original function in every tabsynth module, including dispatch tables
such as `program._FUNCTIONS`.  `Tableau` rules are wrapped on the class.

While a wrapped module function runs, its name in the defining module is
pointed back at the original, so the function's own recursion neither
records a span per level nor deepens the Python stack; the span covers
the whole outermost call.

A span is `(name, start, end, parent, op, outcome)`: `parent` is the
index of the enclosing span or -1, `op` the id of the benchmark op that
caused it, and `outcome` is OK, RAISED or NONE (returned None).  Spans
are kept in memory; `write_spans` writes them out at the end of a run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

OK, RAISED, NONE = 0, 1, 2


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counters: Counter = Counter()
        self.tableaux: list = []  # every Tableau made by engine.make_tableau
        self._bindings: list = []  # (container, key, original, wrapper, is_class)
        self._suspended = 0

    # -- installation --------------------------------------------------

    def install(self, targets) -> None:
        """targets: (span name, owner module or class, attribute, adapter)."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tabsynth" or name.startswith("tabsynth."))
        ]
        for name, owner, attr, adapter in targets:
            original = getattr(owner, attr)
            call = adapter(original, self) if adapter else original
            if isinstance(owner, type):
                wrapper = self._wrap(name, call, None, attr)
                self._bindings.append((owner, attr, original, wrapper, True))
                continue
            wrapper = self._wrap(name, call, vars(owner), attr)
            for module in modules:
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._bindings.append((namespace, key, original, wrapper, False))
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for k, v in value.items():
                            if v is original:
                                self._bindings.append((value, k, original, wrapper, False))
        self._bind(use_wrapper=True)

    def uninstall(self) -> None:
        self._bind(use_wrapper=False)
        self._bindings = []

    @contextmanager
    def suspended(self):
        """Run benchmark-side work without recording spans; nests."""
        self._suspended += 1
        if self._suspended == 1:
            self._bind(use_wrapper=False)
        try:
            yield
        finally:
            self._suspended -= 1
            if self._suspended == 0:
                self._bind(use_wrapper=True)

    def _bind(self, use_wrapper: bool) -> None:
        for container, key, original, wrapper, is_class in self._bindings:
            value = wrapper if use_wrapper else original
            if is_class:
                setattr(container, key, value)
            else:
                container[key] = value

    def _wrap(self, name, call, home, attr):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        original = home[attr] if home is not None else None

        def wrapper(*args, **kwargs):
            if home is not None:
                previous = home[attr]
                home[attr] = original
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outcome = RAISED
            start = clock()
            try:
                result = call(*args, **kwargs)
                outcome = NONE if result is None else OK
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, outcome)
                if home is not None:
                    home[attr] = previous

        wrapper.__wrapped__ = call
        return wrapper

    def take(self) -> list:
        """Hand over the spans recorded so far and start a new list."""
        out = self.spans[:]
        del self.spans[:]
        return out


# -- adapters: extra counts gathered through public arguments ----------------

def count_self_calls(interpret, tracer):
    """Pass `calls=` to program.interpret and count the self-calls it lists."""

    def adapter(p, args, *rest, **kwargs):
        if rest or "calls" in kwargs:
            return interpret(p, args, *rest, **kwargs)
        calls: list = []
        try:
            return interpret(p, args, calls=calls, **kwargs)
        finally:
            tracer.counters["program.interpret.self_calls"] += len(calls)

    return adapter


def keep_tableaux(make_tableau, tracer):
    """Remember each tableau engine.make_tableau builds, to count its rows."""

    def adapter(*args, **kwargs):
        tableau = make_tableau(*args, **kwargs)
        tracer.tableaux.append(tableau)
        return tableau

    return adapter


# -- aggregation -------------------------------------------------------------

class Stat:
    __slots__ = ("calls", "self_time", "raised", "none")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0
        self.raised = 0
        self.none = 0


def summarize(spans: list) -> tuple[dict[str, Stat], Counter]:
    """Per-name call counts and self times, and (parent name, name) call counts.

    Self time is a span's duration minus the time its child spans cover;
    children never overlap in a single thread.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict[str, Stat] = defaultdict(Stat)
    pairs: Counter = Counter()
    for idx, (name, start, end, parent, _, outcome) in enumerate(spans):
        st = stats[name]
        st.calls += 1
        st.self_time += end - start - covered[idx]
        st.raised += outcome == RAISED
        st.none += outcome == NONE
        if parent >= 0:
            pairs[(spans[parent][0], name)] += 1
    return stats, pairs


def write_spans(path, spans: list) -> None:
    """One JSON array per line: name, start_us, end_us, parent, op, outcome."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as handle:
        for name, start, end, parent, op, outcome in spans:
            row = [name, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1),
                   parent, op, outcome]
            handle.write(json.dumps(row) + "\n")
