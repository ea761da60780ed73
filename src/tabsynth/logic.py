"""Sorted first-order formulas and terms used by the tableau rules.

The signature is fixed: sorts expr/subst/varset/nat/triple/rel, the
function and predicate symbols of the expression-and-substitution
vocabulary, plus named program calls registered per specification.
MetaVars are uppercase identifiers and stand for unknowns that rules may
instantiate; lowercase identifiers are signature symbols.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterator, Optional, Sequence, Union

from . import subst as _subst
from . import term as _term
from . import unify as _unify
from . import wf as _wf


class LogicError(Exception):
    pass


# the reader's error: one class for every text that does not read
FormulaSyntaxError = _term.ExprSyntaxError


class SortError(LogicError):
    pass


class BadPathError(LogicError):
    pass


SORTS = ("expr", "subst", "varset", "nat", "triple", "rel")


def read_params(tokens: list, sig: Signature, defaults: Sequence[str] = ()) -> tuple:
    """Each parameter's (name, sort), declared in sig; a bare name takes its default."""
    params: list[tuple[str, str]] = []
    for tok, default in zip(tokens, defaults or repeat(None)):
        name, sort = sorted_name(tok, "parameter", default)
        if any(name == known for known, _ in params):
            raise SortError(f"parameter {name!r} is declared twice")
        params.append((name, sort))
        sig.add_constant(name, sort)
    return tuple(params)


def sorted_name(tok: _term.Sexp, what: str, default: str | None = None) -> tuple[str, str]:
    """A `name:sort` token as (name, sort), or a bare name as (name, default)."""
    name, colon, sort = tok.partition(":") if isinstance(tok, str) else ("", ":", "")
    if name and (sort in SORTS or not colon and default):
        return name, sort or default
    raise SortError(f"{what} {_term.brief(tok)!r} is not name:sort of a known sort")


@dataclass(frozen=True)
class Primitive:
    """A symbol of the fixed signature: its sorts and its Python meaning.

    `result` is None for a predicate.  `in_program` marks the symbols an
    extracted program body may use.
    """

    args: tuple[str, ...]
    result: Optional[str]
    meaning: Callable
    in_program: bool = False


def _replace(x: _term.Expr, e: _term.Expr) -> _subst.Proper:
    if not isinstance(x, _term.Var):
        raise _subst.SubstError("replace needs a variable as its first argument")
    return _subst.replacement(x.name, e)


def _vs_apply(v: frozenset[str], s: _subst.Subst) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for name in v:
        out |= _term.vars_of(_subst.apply(_term.Var(name), s))
    return out


PRIMITIVES: dict[str, Primitive] = {
    "cons": Primitive(("expr", "expr"), "expr", _term.Cons, True),
    "left": Primitive(("expr",), "expr", _term.left_of, True),
    "right": Primitive(("expr",), "expr", _term.right_of, True),
    "apply": Primitive(("expr", "subst"), "expr", _subst.apply, True),
    "compose": Primitive(("subst", "subst"), "subst", _subst.compose, True),
    "replace": Primitive(("expr", "expr"), "subst", _replace, True),
    "empty-subst": Primitive((), "subst", lambda: _subst.EMPTY, True),
    "bot": Primitive((), "subst", lambda: _subst.BOT, True),
    "vars": Primitive(("expr",), "varset", _term.vars_of),
    "vars2": Primitive(
        ("expr", "expr"), "varset", lambda a, b: _term.vars_of(a) | _term.vars_of(b)
    ),
    "vs-apply": Primitive(("varset", "subst"), "varset", _vs_apply),
    "dom": Primitive(("subst",), "varset", _subst.dom_of),
    "range": Primitive(("subst",), "varset", _subst.range_of),
    "size": Primitive(("expr",), "nat", _term.size_of),
    "union": Primitive(("varset", "varset"), "varset", operator.or_),
    "tuple2": Primitive(
        ("expr", "expr"), "expr", lambda a, b: _term.encode_tuple([a, b])
    ),
    "tuple3": Primitive(("subst", "expr", "expr"), "triple", lambda *t: t),
    "is-atom": Primitive(("expr",), None, _term.is_atom, True),
    "is-const": Primitive(("expr",), None, _term.is_const, True),
    "is-var": Primitive(("expr",), None, _term.is_var, True),
    "is-proper": Primitive(("subst",), None, _subst.is_proper, True),
    "occurs-proper": Primitive(("expr", "expr"), None, _term.occurs_in, True),
    "occurs-refl": Primitive(
        ("expr", "expr"), None, lambda a, b: _term.occurs_in(a, b, "reflexive")
    ),
    "misses": Primitive(("subst", "expr"), None, _subst.misses, True),
    "idem": Primitive(("subst",), None, _subst.is_idempotent),
    "more-genid": Primitive(("subst", "subst"), None, _subst.more_general),
    "mgi": Primitive(("subst", "expr", "expr", "subst"), None, _unify.mgi_decide),
    "mgiu": Primitive(
        ("subst", "expr", "expr", "subst"), None,
        lambda env, a, b, s: _unify.mgiu_check(env, a, b, s).ok,
    ),
    "reduce": Primitive(("subst", "varset", "subst"), None, _unify.reduce_holds),
    "subset": Primitive(("varset", "varset"), None, operator.le),
    "proper-subset": Primitive(("varset", "varset"), None, operator.lt),
    "size-lt": Primitive(
        ("expr", "expr"), None, lambda a, b: _term.size_of(a) < _term.size_of(b)
    ),
    # the relation argument evaluates to its RelSpec
    "wf-ordered": Primitive(("rel", "triple", "triple"), None, _wf.rel_less),
}


class Signature:
    """Symbol sorts: the primitives, extended by program parameters and calls."""

    def __init__(self):
        self.functions = {
            n: (p.args, p.result) for n, p in PRIMITIVES.items() if p.result is not None
        }
        self.predicates = {n: p.args for n, p in PRIMITIVES.items() if p.result is None}

    def copy(self) -> Signature:
        out = Signature()
        out.functions.update(self.functions)
        out.predicates.update(self.predicates)
        return out

    def add_constant(self, name: str, sort: str) -> None:
        self.add_function(name, (), sort)

    def add_function(self, name: str, args: tuple[str, ...], result: str) -> None:
        known = self.functions.get(name)
        if known is not None and known != (args, result):
            raise SortError(f"conflicting declarations for function {name}")
        self.functions[name] = (args, result)

    def add_predicate(self, name: str, args: tuple[str, ...]) -> None:
        known = self.predicates.get(name)
        if known is not None and known != args:
            raise SortError(f"conflicting declarations for predicate {name}")
        self.predicates[name] = args


def default_signature() -> Signature:
    sig = Signature()
    sig.add_constant("u-rel", "rel")
    return sig


# ---------------------------------------------------------------------------
# terms and formulas: immutable by convention, slotted rather than frozen to build fast


@dataclass(slots=True, unsafe_hash=True)
class MetaVar:
    name: str
    sort: str


@dataclass(slots=True, unsafe_hash=True)
class Apply:
    fn: str
    args: tuple["LTerm", ...] = ()


@dataclass(slots=True, unsafe_hash=True)
class Cond:
    test: "Formula"
    then: "LTerm"
    els: "LTerm"


LTerm = Union[MetaVar, Apply, Cond]


@dataclass(slots=True, unsafe_hash=True)
class TrueF:
    pass


@dataclass(slots=True, unsafe_hash=True)
class FalseF:
    pass


@dataclass(slots=True, unsafe_hash=True)
class Atom:
    pred: str
    args: tuple[LTerm, ...] = ()


@dataclass(slots=True, unsafe_hash=True)
class Not:
    body: "Formula"


@dataclass(slots=True, unsafe_hash=True)
class And:
    parts: tuple["Formula", ...]


@dataclass(slots=True, unsafe_hash=True)
class Or:
    parts: tuple["Formula", ...]


@dataclass(slots=True, unsafe_hash=True)
class Implies:
    antecedent: "Formula"
    consequent: "Formula"


@dataclass(slots=True, unsafe_hash=True)
class Iff:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(slots=True, unsafe_hash=True)
class Eq:
    lhs: LTerm
    rhs: LTerm


Formula = Union[TrueF, FalseF, Atom, Not, And, Or, Implies, Iff, Eq]
Node = Union[Formula, LTerm]
_TERM_TYPES = (MetaVar, Apply, Cond)

TRUE = TrueF()
FALSE = FalseF()


# ---------------------------------------------------------------------------
# node shapes and the generic traversal

_LEAF = (lambda n: (), None)

# node type -> (its children, read by an attrgetter where one can, a rebuild)
_SHAPES: dict[type, tuple[Callable, Optional[Callable]]] = {
    TrueF: _LEAF,
    FalseF: _LEAF,
    MetaVar: _LEAF,
    Apply: (operator.attrgetter("args"), lambda n, k: Apply(n.fn, k)),
    Cond: (operator.attrgetter("test", "then", "els"), lambda n, k: Cond(*k)),
    Atom: (operator.attrgetter("args"), lambda n, k: Atom(n.pred, k)),
    Eq: (operator.attrgetter("lhs", "rhs"), lambda n, k: Eq(*k)),
    Not: (lambda n: (n.body,), lambda n, k: Not(*k)),
    And: (operator.attrgetter("parts"), lambda n, k: And(k)),
    Or: (operator.attrgetter("parts"), lambda n, k: Or(k)),
    Implies: (operator.attrgetter("antecedent", "consequent"), lambda n, k: Implies(*k)),
    Iff: (operator.attrgetter("lhs", "rhs"), lambda n, k: Iff(*k)),
}
# node type -> its children, for walks that read them without calling children
CHILDREN = {typ: kids for typ, (kids, _) in _SHAPES.items()}


def children(node: Node) -> tuple[Node, ...]:
    return CHILDREN[type(node)](node)


def nodes(node: Node) -> Iterator[Node]:
    """Every sub-node of node, node first, in left-to-right pre-order."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(_SHAPES[type(n)][0](n)))


def map_node(node: Node, leaf: Callable[[Node], Optional[Node]]) -> Node:
    """Rebuild node bottom-up, replacing each sub-node n where leaf(n) is not None.

    A replaced sub-node is not entered; unchanged sub-trees are shared.
    """
    new = leaf(node)
    if new is not None:
        return new
    kids, rebuild = _SHAPES[type(node)]
    old = kids(node)
    if not old:
        return node
    mapped = tuple([map_node(k, leaf) for k in old])
    if all(map(operator.is_, mapped, old)):
        return node
    return rebuild(node, mapped)


# node type -> the field that tells nodes of that type apart beyond arity
_LABELS = {Atom: "pred", Apply: "fn"}


def head(node: Node) -> tuple:
    """The node's type with its predicate or function symbol."""
    typ = type(node)
    return (typ, getattr(node, _LABELS[typ])) if typ in _LABELS else (typ,)


def canonical(item: Node | tuple) -> tuple:
    """Each node of item as (type, symbol, arity), in pre-order, in one flat tuple: the
    symbol of an Atom or an Apply, "=" for an Eq, else None; a metavar is (MetaVar, n,
    sort), n numbering the names by first occurrence.  So two items are equal up to a
    bijective renaming of metavars exactly when their canonical forms are equal.  A
    tuple of nodes or None is read entry by entry under one numbering."""
    numbers, out = {}, []
    stack = list(item[::-1]) if isinstance(item, tuple) else [item]
    while stack:
        n = stack.pop()
        typ = type(n)
        if typ is Apply:
            out += (typ, n.fn, len(n.args))
            if n.args:
                stack += n.args[::-1]
        elif typ is MetaVar:
            out += (typ, numbers.setdefault(n.name, len(numbers)), n.sort)
        elif n is None:
            out.append(None)
        else:
            kids = n.args if typ is Atom else CHILDREN[typ](n)
            out += (typ, n.pred if typ is Atom else "=" if typ is Eq else None, len(kids))
            stack += kids[::-1]
    return tuple(out)


# ---------------------------------------------------------------------------
# sorts


def sort_of(t: LTerm, sig: Signature, env: dict[str, str] | None = None) -> str | None:
    """The sort t's head declares; a Cond's is that of its first branch with one.

    Given env, an unsorted metavar has the sort env notes for it, or None.
    """
    stack = [t]
    while stack:
        t = stack.pop()
        typ = type(t)
        if typ is Cond:
            stack += (t.els, t.then)
        elif typ is Apply:
            if t.fn not in sig.functions:
                raise SortError(f"unknown function {t.fn}")
            return sig.functions[t.fn][1]
        elif env is None or t.sort != "?":
            return t.sort
        elif t.name in env:
            return env[t.name]
    return None


def _sort_walk(node: Node, sig: Signature, env: dict[str, str] | None = None):
    """Every sub-node of node in pre-order, with the sort it must have or None.

    The signature gives the sorts of an atom's or an application's
    arguments; the two sides of an Eq, and the branches of a Cond, share
    one sort.  env is read as sort_of reads it, when a node's children are
    reached, so a metavar noted in it earlier in the walk counts.
    """
    stack: list[tuple[Node, Optional[str]]] = [(node, None)]
    while stack:
        n, want = stack.pop()
        yield n, want
        typ = type(n)
        if typ is MetaVar:
            continue
        kids = _SHAPES[typ][0](n)
        if typ is Atom or typ is Apply:
            name = n.pred if typ is Atom else n.fn
            table = sig.predicates if typ is Atom else sig.functions
            if name not in table:
                kind = "predicate" if typ is Atom else "function"
                raise SortError(f"unknown {kind} {name}")
            wants = table[name] if typ is Atom else table[name][0]
            if len(wants) != len(kids):
                raise SortError(f"{name} expects {len(wants)} arguments")
        elif typ is Eq:
            wants = (sort_of(n.lhs, sig, env) or sort_of(n.rhs, sig, env),) * 2
        elif typ is Cond:
            branch = sort_of(n.then, sig, env) or sort_of(n.els, sig, env) or want
            wants = (None, branch, branch)
        else:
            wants = (None,) * len(kids)
        stack.extend(zip(reversed(kids), reversed(wants)))


def check_formula(node: Node, sig: Signature) -> None:
    """Check that node, a formula or a term, is well-sorted in sig."""
    for n, want in _sort_walk(node, sig):
        if want is not None and (got := sort_of(n, sig)) != want:
            raise SortError(f"expected sort {want}, got {got} in {_brief(n)}")


def _brief(node: Node) -> str:
    """node's text if it is a leaf, else its head with one _ per child.

    Bounded however deep node is, so a message can quote any node.
    """
    kids = children(node)
    if not kids:
        return print_formula(node)
    return "(" + " ".join([_label(node), *["_"] * len(kids)]) + ")"


# ---------------------------------------------------------------------------
# reading, building and printing

_METAVAR = re.compile(r"[A-Z][A-Za-z0-9_#']*")

# connective -> (node type, kinds of its children: "f" formula, "t" term;
# None for one or more formulas)
_KEYWORDS: dict[str, tuple[type, Optional[str]]] = {
    "and": (And, None),
    "or": (Or, None),
    "not": (Not, "f"),
    "implies": (Implies, "ff"),
    "iff": (Iff, "ff"),
    "=": (Eq, "tt"),
    "if": (Cond, "ftt"),
}
_CONSTANTS = {"true": TRUE, "false": FALSE}
_HEADS = {typ: kw for kw, (typ, _) in _KEYWORDS.items()}
_HEADS.update({type(c): name for name, c in _CONSTANTS.items()})
_KINDS = {"f": "formula", "t": "term"}


def parse_formula(text: _term.Sexp, sig: Signature | None = None) -> Formula:
    """The formula a text, or a datum of read_sexp, denotes; a token reads the same."""
    return _parse(text, "f", sig or default_signature())


def parse_term(text: _term.Sexp, sig: Signature | None = None) -> LTerm:
    return _parse(text, "t", sig or default_signature())


def _parse(text: _term.Sexp, kind: str, sig: Signature) -> Node:
    datum = _term.read_sexp(text) if isinstance(text, str) else text
    return _resolve_sorts(_build(datum, kind, sig), sig)


def _build(datum: _term.Sexp, kind: str, sig: Signature) -> Node:
    """The node a datum denotes as a formula (kind "f") or a term ("t")."""
    if isinstance(datum, str):
        return _build_token(datum, kind, sig)
    if not datum or not isinstance(datum[0], str):
        raise FormulaSyntaxError("expected a symbol after '('")
    head, args = datum[0], datum[1:]
    if head in _KEYWORDS:
        typ, kinds = _KEYWORDS[head]
        if (typ in _TERM_TYPES) != (kind == "t"):
            raise FormulaSyntaxError(f"({head} ...) where a {_KINDS[kind]} is expected")
        if kinds is None:
            if not args:
                raise FormulaSyntaxError(f"empty ({head})")
            kinds = "f" * len(args)
        if len(args) != len(kinds):
            raise FormulaSyntaxError(f"{head} expects {len(kinds)} arguments")
        kids = tuple([_build(a, k, sig) for a, k in zip(args, kinds)])
        return _SHAPES[typ][1](None, kids)
    symbols = sig.predicates if kind == "f" else sig.functions
    if head not in symbols:
        raise FormulaSyntaxError(f"unknown {_KINDS[kind]} symbol {head!r}")
    kids = tuple([_build(a, "t", sig) for a in args])
    return Atom(head, kids) if kind == "f" else Apply(head, kids)


def _build_token(tok: str, kind: str, sig: Signature) -> Node:
    if kind == "f":
        if tok in _CONSTANTS:
            return _CONSTANTS[tok]
        raise FormulaSyntaxError(f"unexpected token {tok!r} in formula")
    if _METAVAR.fullmatch(tok.partition(":")[0]):
        return MetaVar(*sorted_name(tok, "metavar", "?"))
    if tok in sig.functions and not sig.functions[tok][0]:
        return Apply(tok, ())
    raise FormulaSyntaxError(f"unknown symbol {tok!r}")


def _resolve_sorts(node: Node, sig: Signature) -> Node:
    """Give every unsorted metavar the sort its uses imply, then check sorts."""
    env: dict[str, str] = {}
    known = -1
    while len(env) != known:  # each pass may sort metavars an earlier one could not
        known = len(env)
        for n, want in _sort_walk(node, sig, env):
            if type(n) is MetaVar and (sort := want if n.sort == "?" else n.sort):
                if env.setdefault(n.name, sort) != sort:
                    raise SortError(
                        f"metavar {n.name} used at sorts {env[n.name]} and {sort}"
                    )
    out = _assign(node, env)
    check_formula(out, sig)
    return out


def _assign(node: Node, env: dict[str, str]) -> Node:
    """Give every unsorted metavar its sort from env."""

    def sorted_metavar(n: Node) -> Optional[MetaVar]:
        if not isinstance(n, MetaVar) or n.sort != "?":
            return None
        if n.name not in env:
            raise SortError(f"cannot infer sort of metavar {n.name}; annotate it")
        return MetaVar(n.name, env[n.name])

    return map_node(node, sorted_metavar)


def print_formula(node: Node, sorts: bool = False) -> str:
    """The text of a formula or a term; parse_formula and parse_term invert it.

    With sorts set, each metavar is written with its sort (`Z:expr`).
    """
    typ = type(node)
    if typ is MetaVar:
        return f"{node.name}:{node.sort}" if sorts else node.name
    head = _label(node)
    kids = _SHAPES[typ][0](node)
    if not kids and typ is not Atom:
        return head
    return "(" + " ".join([head, *map(print_formula, kids, repeat(sorts))]) + ")"


def _label(node: Node) -> str:
    """The symbol or keyword that heads node's text."""
    typ = type(node)
    if typ is Apply:
        return node.fn
    if typ is Atom:
        return node.pred
    return _HEADS[typ]


# ---------------------------------------------------------------------------
# structural helpers

def get_at(node: Node, path: tuple[int, ...]) -> Node:
    """Fetch the sub-node at a 1-based child path."""
    return _spine(node, path)[-1]


def replace_at(node: Node, path: tuple[int, ...], new: Node) -> Node:
    spine = _spine(node, path)
    for parent, idx in zip(reversed(spine[:-1]), reversed(path)):
        kids = list(children(parent))
        kids[idx - 1] = new
        new = _SHAPES[type(parent)][1](parent, tuple(kids))
    return new


def _spine(node: Node, path: tuple[int, ...]) -> list[Node]:
    """The nodes along a 1-based child path, node first."""
    spine = [node]
    for depth, idx in enumerate(path):
        kids = children(spine[-1])
        if not 1 <= idx <= len(kids):
            at = ".".join(map(str, path[:depth])) or "-"
            raise BadPathError(
                f"bad path {'.'.join(map(str, path))}: "
                f"the node at {at} has {len(kids)} children"
            )
        spine.append(kids[idx - 1])
    return spine


def parse_path(text: str) -> tuple[int, ...]:
    """Dot-separated 1-based indices; '-' denotes the root."""
    text = text.strip()
    if text in ("-", ""):
        return ()
    try:
        return tuple(int(p) for p in text.split("."))
    except ValueError as exc:
        raise BadPathError(f"bad path {text!r}") from exc


def metavars_of(node: Node) -> frozenset[MetaVar]:
    return frozenset(n for n in nodes(node) if isinstance(n, MetaVar))


def atom_paths(f: Formula) -> Iterator[tuple[tuple[int, ...], Formula]]:
    """All Atom/Eq occurrences in f with their paths, in left-to-right pre-order."""
    stack: list[tuple[tuple[int, ...], Node]] = [((), f)]
    while stack:
        path, n = stack.pop()
        if isinstance(n, (Atom, Eq)):
            yield path, n
        elif not isinstance(n, _TERM_TYPES):
            kids = children(n)
            stack.extend((path + (i,), kids[i - 1]) for i in range(len(kids), 0, -1))


# ---------------------------------------------------------------------------
# meta-substitution and unification

MetaSubst = dict[str, LTerm]


def apply_subst(node: Node, sub: MetaSubst) -> Node:
    """Homomorphic application of a meta-substitution."""
    return substitute(sub, {}, node) if sub else node


def rename_metavars(node: Node, mapping: dict[str, str]) -> Node:
    return substitute({}, mapping, node)


def substitute(sub: MetaSubst, rename: dict[str, str], node: Node) -> Node:
    """node with each metavar renamed by rename, then replaced by its image
    under sub, in one walk; unchanged sub-trees are returned as they are."""
    typ = type(node)
    if typ is MetaVar:
        name = rename.get(node.name, node.name)
        new = sub.get(name)
        if new is not None:
            return new
        return node if name is node.name else MetaVar(name, node.sort)
    old = node.args if typ is Apply or typ is Atom else _SHAPES[typ][0](node)
    if not old:
        return node
    new = tuple(map(substitute, repeat(sub), repeat(rename), old))
    if all(map(operator.is_, new, old)):
        return node
    return Apply(node.fn, new) if typ is Apply else _SHAPES[typ][1](node, new)


def term_unify(a: Node, b: Node, sig: Signature | None = None) -> Optional[MetaSubst]:
    """Most general syntactic unifier of two formulas or two terms.

    Occurs check included; the result is idempotent.  When two MetaVars
    meet, the one from `a` is bound; a metavar is known by its name.  The
    pairs left to unify wait on an explicit stack.  Bindings are triangular,
    their terms unresolved, until the end, when only those that mention a
    bound metavar are rebuilt: a deep term costs no recursion unless rebuilt.
    """
    sig = sig or default_signature()
    sub: MetaSubst = {}
    mentions = []  # (a bound name, the names its term's occurs walk met)
    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        while type(x) is MetaVar and x.name in sub:
            x = sub[x.name]
        while type(y) is MetaVar and y.name in sub:
            y = sub[y.name]
        tx, ty = type(x), type(y)
        if x is y or tx is ty is MetaVar and x.name == y.name:
            continue
        if tx is not MetaVar and ty is not MetaVar:
            xk, yk = CHILDREN[tx](x), CHILDREN[ty](y)
            if tx is not ty or len(xk) != len(yk) or (
                x.fn != y.fn if tx is Apply else tx is Atom and x.pred != y.pred
            ):
                return None
            pairs += zip(xk[::-1], yk[::-1])
            continue
        v, t = (x, y) if tx is MetaVar else (y, x)
        if not isinstance(t, _TERM_TYPES):
            return None
        # a sort is read at the head, where a bound metavar of a known sort keeps it
        if v.sort != "?" and (got := sort_of(t, sig)) != v.sort and (
            got != "?" or sort_of(_resolve(t, sub), sig) != v.sort
        ):
            return None
        met, stack = [], [t]
        while stack:  # the occurs test, through the bindings
            n = stack.pop()
            typ = type(n)
            if typ is MetaVar:
                if n.name == v.name:
                    return None
                met.append(n.name)
                if n.name in sub:
                    stack.append(sub[n.name])
            else:
                stack += n.args if typ is Apply else CHILDREN[typ](n)
        sub[v.name] = t
        if met:
            mentions.append((v.name, met))
    for name, met in mentions:
        if not sub.keys().isdisjoint(met):
            sub[name] = _resolve(sub[name], sub)
    return sub


def _resolve(t: LTerm, sub: MetaSubst) -> LTerm:
    """t with each metavar that the triangular sub binds replaced, until none is left."""
    while (new := substitute(sub, {}, t)) is not t:
        t = new
    return t


# ---------------------------------------------------------------------------
# normalization

def normalize(f: Formula, leaf: Callable[[Formula], Formula] | None = None) -> Formula:
    """Propositional simplification with negations pushed inward.

    Flattens and deduplicates and/or, removes true/false units, applies
    double negation, and simplifies implications and equivalences with
    constant sides.  Implies and Iff are not expanded.  Given leaf, each
    atom or equation a is read as leaf(a): normalize(f, θ-leaf) is
    normalize(θ(f)) for a meta-substitution θ, in one walk.
    """
    typ = type(f)
    if typ is Not:
        return negate(normalize(f.body, leaf))
    if typ is And or typ is Or:
        return junction(typ, map(normalize, f.parts, repeat(leaf)))
    if typ is Implies:
        p, q = normalize(f.antecedent, leaf), normalize(f.consequent, leaf)
        if type(p) is TrueF:
            return q
        if type(p) is FalseF or type(q) is TrueF:
            return TRUE
        return negate(p) if type(q) is FalseF else Implies(p, q)
    if typ is Iff:
        lhs, rhs = normalize(f.lhs, leaf), normalize(f.rhs, leaf)
        if lhs == rhs:
            return TRUE
        for side, other in ((lhs, rhs), (rhs, lhs)):
            if type(side) is TrueF:
                return other
            if type(side) is FalseF:
                return negate(other)
        return Iff(lhs, rhs)
    if leaf is not None and (typ is Atom or typ is Eq):
        return leaf(f)
    return f


def negate(g: Formula) -> Formula:
    """normalize(Not(g)) for a normal g, built without walking g again."""
    typ = type(g)
    if typ is TrueF:
        return FALSE
    if typ is FalseF:
        return TRUE
    if typ is Not:
        return g.body
    if typ is And or typ is Or:
        return junction(Or if typ is And else And, map(negate, g.parts))
    if typ is Implies:
        return junction(And, (g.antecedent, negate(g.consequent)))
    return Not(g)


def junction(ctor: type, parts) -> Formula:
    """normalize(ctor(parts)) for normal parts: flattened, without duplicates
    or units, and the absorber as soon as one comes."""
    unit, absorber = (TrueF, FalseF) if ctor is And else (FalseF, TrueF)
    flat: list[Formula] = []
    kept: dict[type, list[Formula]] = {}  # a part equals only parts of its own type
    for p in parts:
        typ = type(p)
        if typ is unit:
            continue
        if typ is absorber:
            return absorber()
        for q in p.parts if typ is ctor else (p,):
            same = kept.setdefault(type(q), [])
            if q not in same:
                same.append(q)
                flat.append(q)
    return ctor(tuple(flat)) if len(flat) > 1 else flat[0] if flat else unit()
