"""Extracted programs: definition, compilation, simplification, and emission.

A `ProgramDef` is what a tableau's final row yields once
`nonprimitive_symbol` finds only primitives in its body.  `compile` turns
a program into one Python function: the lazy conditional becomes a
conditional expression, primitives are called strictly from
`logic.PRIMITIVES`, and a self-call is a plain recursive call.  `run`
calls it unchecked; `interpret` first checks the sorts of runtime values,
and can list the self-calls or check that each strictly decreases under
the relation the program records.  Self-calls consume fuel either way.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from . import logic as L
from . import subst as S
from . import term as T
from . import wf
from .logic import Apply, Atom, Cond, Eq, Formula, LTerm, MetaVar


@dataclass(frozen=True)
class ProgramDef:
    name: str
    params: tuple[tuple[str, str], ...]
    body: LTerm
    decrease: wf.RelSpec | None = None  # the relation self-calls decrease under
    result: str = ""  # the result sort; by default the first parameter's

    def __post_init__(self):
        if not self.result and self.params:
            object.__setattr__(self, "result", self.params[0][1])

    @functools.cached_property
    def compiled(self) -> Callable:
        """This program's Python function; see compile."""
        return compile(self)


# symbols allowed in program bodies (beyond parameters and the program's own name)
PRIMITIVE_FUNCTIONS = frozenset(
    n for n, p in L.PRIMITIVES.items() if p.in_program and p.result is not None
)
PRIMITIVE_PREDICATES = frozenset(
    n for n, p in L.PRIMITIVES.items() if p.in_program and p.result is None
)


def nonprimitive_symbol(
    body: LTerm,
    name: str,
    params: set[str],
    functions: frozenset[str] = PRIMITIVE_FUNCTIONS,
    predicates: frozenset[str] = PRIMITIVE_PREDICATES,
) -> str | None:
    """The first symbol a program `name(params)` may not use in body, or None.

    A body may use the given primitives, its parameters as constants,
    calls to itself, and metavariables.
    """
    for node in L.nodes(body):
        if isinstance(node, Apply) and not (
            node.fn in functions
            or node.fn == name
            or (node.fn in params and not node.args)
        ):
            return node.fn
        if isinstance(node, Atom) and node.pred not in predicates:
            return node.pred
    return None


class ProgramError(Exception):
    pass


class DecreaseViolationError(ProgramError):
    def __init__(self, parent, child):
        shown = [", ".join(map(show_value, args)) for args in (child, parent)]
        super().__init__(
            "self-call does not decrease: ({}) under parent ({})".format(*shown)
        )
        self.parent = parent
        self.child = child


def show_value(value) -> str:
    """A runtime value, an expression or a substitution, as the CLI writes it."""
    if isinstance(value, (T.Const, T.Var, T.Cons)):
        return T.print_expr(value)
    return str(value)  # a substitution's str is that text


class PrimitiveError(ProgramError):
    pass


class FuelExhaustedError(RecursionError):
    """Recursion budget ran out: the fuel, or Python's recursion limit."""


Value = object  # Expr | Subst | frozenset[str] | int | bool | tuple
# sort -> the types of its argument values; a parameter of another sort takes
# none, as the CLI builds only substitutions and expressions
_VALUES = {"subst": (S.Proper, S.Failure), "expr": (T.Const, T.Var, T.Cons)}
_SORT = operator.itemgetter(1)


def interpret(
    p: ProgramDef,
    args: list[Value],
    fuel: int = 10000,
    check_decrease: bool = False,
    calls: list | None = None,
) -> Value:
    """Run p on the given argument values, after checking their sorts.

    fuel bounds the number of self-calls, and Python's recursion limit
    their depth; FuelExhaustedError says which ran out.  With
    check_decrease set (and a decrease relation recorded on p), every
    self-call must be strictly smaller than its parent under that
    relation; each call's arguments are measured once.  `calls` collects
    (parent_args, child_args) pairs when provided.
    """
    if len(args) != len(p.params):
        raise ProgramError(f"{p.name} expects {len(p.params)} arguments")
    for value, (name, sort) in zip(args, p.params):
        if sort not in _VALUES:
            raise ProgramError(f"parameter {name} is of sort {sort}, which takes no value")
        if not isinstance(value, _VALUES[sort]):
            raise ProgramError(f"argument {name} is not of sort {sort}")
    measure = less = None
    if check_decrease and p.decrease is not None:
        if tuple(map(_SORT, p.params)) != ("subst", "expr", "expr"):
            raise ProgramError("decrease checking expects (env, e1, e2) arguments")
        measure, less = wf.order(p.decrease)
    if fuel < 0:
        raise ProgramError(f"fuel must be at least 0, not {fuel}")
    fuel_left = itertools.repeat(None, min(fuel, _FUEL_CAP) + 1)
    return _run(p.name, p.compiled, fuel_left, measure, less, calls, None, None, *args)


def run(p: ProgramDef, args: Sequence[Value], fuel: int = 10000) -> Value:
    """Run p on arguments of its sorts, unchecked, unmeasured and unlisted;
    fails as `interpret` does."""
    if fuel < 0:
        raise ProgramError(f"fuel must be at least 0, not {fuel}")
    # one fuel item per call, the top call's included: it is not a self-call
    fuel_left = itertools.repeat(None, min(fuel, _FUEL_CAP) + 1)
    return _run(p.name, p.compiled, fuel_left, None, None, None, None, None, *args)


# the largest fuel an iterator can count; Python's recursion limit stops any
# run long before it is used up, so a larger budget is cut to it
_FUEL_CAP = sys.maxsize - 1


def _run(name: str, fn: Callable, *args) -> Value:
    try:
        return fn(*args)
    except (T.ExprError, S.SubstError) as exc:
        raise PrimitiveError(str(exc)) from exc
    except StopIteration:  # a call found no fuel left on entry
        raise FuelExhaustedError(f"{name}: fuel exhausted") from None
    except RecursionError:
        limit = f"Python recursion limit ({sys.getrecursionlimit()})"
        raise FuelExhaustedError(f"{name}: {limit} reached") from None


def eval_apply(fn: str, vals: list[Value]) -> Value:
    """Apply the primitive function fn to runtime values."""
    prim = L.PRIMITIVES.get(fn)
    if prim is None or prim.result is None:
        raise PrimitiveError(f"unknown function {fn}")
    return _run(fn, prim.meaning, *vals)


def eval_formula(
    f: Formula, env: dict[str, Value], relations: dict | None = None
) -> bool:
    """Ground truth of a formula under runtime values.

    Relation constants mean the RelSpecs in `relations`; u-rel defaults
    to the unification measure.
    """
    fn = _compile_formula(f, tuple(env))
    return _run("formula", fn, {**_RELATIONS, **(relations or {})}, *env.values())


# ---------------------------------------------------------------------------
# compilation


def compile(p: ProgramDef) -> Callable:
    """Compile p to one Python function,
    `_program(fuel, measure, less, calls, measured, parent, *args)`.

    Each call gets its parent's measure and argument tuple (None at the
    top).  On entry it packs its arguments as one tuple, whatever their
    number; given a measure, it measures that tuple once and raises
    DecreaseViolationError unless it is below its parent; given a calls
    list, it lists itself there; then it takes one item of the iterator
    fuel.  `run` passes None for measure, less and calls.
    """
    gen = _Source([name for name, _ in p.params], p.name)
    entry = _ENTRY.format("".join(f"{v}, " for v in gen.variables.values()))
    return gen.function("_program", "_fuel, _measure, _less, _calls, _measured, _parent",
                        entry, gen.term(p.body))


_ENTRY = """_args = ({})
    _m = None if _measure is None else _measure(_args)
    if _parent is not None:  # a self-call, not the top call
        if _calls is not None:
            _calls.append((list(_parent), list(_args)))
        if _measure is not None and not _less(_m, _measured):
            raise _violation(_parent, _args)
    _next(_fuel)"""


@functools.lru_cache(maxsize=256)
def _compile_formula(f: Formula, names: tuple[str, ...]) -> Callable:
    """Compile f to `f(_rels, *values)` over the named values."""
    gen = _Source(names, None)
    return gen.function("_formula", "_rels", "", gen.formula(f))


_RELATIONS = {"u-rel": wf.U_REL}  # known to every formula unless a theory redefines it


def _relation(rels: dict, name: str):
    if name not in rels:
        raise ProgramError(f"unknown relation {name}")
    return rels[name]


class _Source:
    """Python source for one body over named runtime values.

    Values the source refers to (primitive meanings, constants) are bound
    in `namespace` under names starting with an underscore.
    """

    def __init__(self, variables: Sequence[str], self_name: str | None):
        self.self_name = self_name
        self.variables = {name: f"_v{i}" for i, name in enumerate(variables)}
        self.namespace: dict[str, object] = {
            "_rel": _relation, "_rels": _RELATIONS, "_next": next,
            "_violation": DecreaseViolationError,
        }

    def function(self, name: str, first: str, prologue: str, body: str) -> Callable:
        params = ", ".join([first, *self.variables.values()])
        exec(f"def {name}({params}):\n    {prologue}\n    return {body}\n", self.namespace)
        return self.namespace[name]  # kept: a self-call names it

    def _bind(self, value: object) -> str:
        ident = f"_k{len(self.namespace)}"
        self.namespace[ident] = value
        return ident

    def term(self, t: LTerm) -> str:
        if isinstance(t, Cond):
            then, els = self.term(t.then), self.term(t.els)
            return f"({then} if {self.formula(t.test)} else {els})"
        if isinstance(t, MetaVar):
            if t.name not in self.variables:
                raise ProgramError(f"unbound metavar {t.name}")
            return self.variables[t.name]
        args = [self.term(a) for a in t.args]
        if t.fn == self.self_name:  # its measure and arguments are the child's parent
            return f"_program({', '.join(['_fuel, _measure, _less, _calls, _m, _args', *args])})"
        if not args and t.fn in self.variables:
            return self.variables[t.fn]
        prim = L.PRIMITIVES.get(t.fn)
        if prim is not None and prim.result is not None:
            if not args:  # a nullary primitive is a constant: evaluate it once
                return self._bind(eval_apply(t.fn, []))
            return f"{self._bind(prim.meaning)}({', '.join(args)})"
        if not args:
            return f"_rel(_rels, {t.fn!r})"
        raise PrimitiveError(f"unknown function {t.fn}")

    def formula(self, f: Formula) -> str:
        if isinstance(f, L.TrueF):
            return "True"
        if isinstance(f, L.FalseF):
            return "False"
        if isinstance(f, Eq):
            return f"({self.term(f.lhs)} == {self.term(f.rhs)})"
        if isinstance(f, Atom):
            prim = L.PRIMITIVES.get(f.pred)
            if prim is None or prim.result is not None:
                raise ProgramError(f"unknown predicate {f.pred}")
            args = ", ".join(self.term(a) for a in f.args)
            return f"{self._bind(prim.meaning)}({args})"
        if isinstance(f, L.Not):
            return f"(not {self.formula(f.body)})"
        if isinstance(f, (L.And, L.Or)):
            joint = " and " if isinstance(f, L.And) else " or "
            return "(" + joint.join(self.formula(p) for p in f.parts) + ")"
        if isinstance(f, L.Implies):
            return f"(not {self.formula(f.antecedent)} or {self.formula(f.consequent)})"
        if isinstance(f, L.Iff):
            return f"({self.formula(f.lhs)} == {self.formula(f.rhs)})"
        raise ProgramError(f"cannot evaluate formula {f!r}")


# ---------------------------------------------------------------------------
# simplification

def simplify(body: LTerm, known: dict[Formula, bool] | None = None) -> LTerm:
    """Rewrite conditionals in one bottom-up pass, preserving meaning.

    A test that an enclosing conditional on the same path has decided
    (`known`: each such test and its value there) takes its branch; then
    equal branches and constant tests collapse: a fixpoint.
    """
    known = known or {}
    if isinstance(body, Apply):
        return Apply(body.fn, tuple(simplify(a, known) for a in body.args))
    if not isinstance(body, Cond):
        return body
    if body.test in known:
        return simplify(body.then if known[body.test] else body.els, known)
    then = simplify(body.then, {**known, body.test: True})
    els = simplify(body.els, {**known, body.test: False})
    if isinstance(body.test, L.TrueF) or then == els:
        return then
    return els if isinstance(body.test, L.FalseF) else Cond(body.test, then, els)


# ---------------------------------------------------------------------------
# text form

def emit(p: ProgramDef) -> str:
    """Canonical program text, each metavar with its sort, each parameter
    whose sort _default_sorts does not give, and the result sort unless it is
    the first parameter's; parse_program inverts it."""
    defaults = _default_sorts(len(p.params))
    params = " ".join(n if s == d else f"{n}:{s}" for (n, s), d in zip(p.params, defaults))
    default = p.params[0][1] if p.params else ""  # ProgramDef's default result sort
    name = p.name if p.result == default else f"{p.name}:{p.result}"
    body = _pp_term(p.body, indent=2)
    return f"(define ({name} {params})\n{body})\n"


def _pp_term(t: LTerm, indent: int) -> str:
    pad = " " * indent
    if isinstance(t, Cond):
        return (
            f"{pad}(if {L.print_formula(t.test, True)}\n"
            f"{_pp_term(t.then, indent + 4)}\n"
            f"{_pp_term(t.els, indent + 4)})"
        )
    return pad + L.print_formula(t, True)


def _default_sorts(n: int) -> list[str]:
    """The sorts of n parameters written without one: an environment-carrying
    program takes a substitution first, expressions after."""
    return ["subst", "expr", "expr"] if n == 3 else ["expr"] * n


def parse_program(text: str) -> ProgramDef:
    """Parse `(define (name params...) body)`.  A param is `name` or
    `name:sort`, and one without a sort gets its _default_sorts sort; the
    program's name may be written `name:sort` too, and its result sort is by
    default the first parameter's."""
    try:
        datum = T.read_sexp(text)
    except T.ExprSyntaxError as exc:
        raise ProgramError(f"program text: {exc}") from exc
    head = datum[1] if type(datum) is list and len(datum) == 3 and datum[0] == "define" else None
    if not (isinstance(head, list) and len(head) > 1 and isinstance(head[0], str)):
        raise ProgramError("expected (define (name params...) body)")
    sig = L.default_signature()
    try:
        params = L.read_params(head[1:], sig, _default_sorts(len(head) - 1))
        name, result = L.sorted_name(head[0], "program", params[0][1])
    except L.SortError as exc:
        raise ProgramError(str(exc)) from exc
    sig.add_function(name, tuple(map(_SORT, params)), result)
    body = L.parse_term(datum[2], sig)
    if (got := L.sort_of(body, sig)) != result:
        raise ProgramError(f"program body is of sort {got}, not its result sort {result}")
    bad = nonprimitive_symbol(body, name, {pname for pname, _ in params})
    if bad is not None:
        raise ProgramError(f"nonprimitive symbol {bad} in program body")
    return ProgramDef(name, tuple(params), body, wf.U_REL, result)
