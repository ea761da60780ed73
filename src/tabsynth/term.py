"""Symbolic expressions, and the one reader of every text of the package.

An expression is a constant, a variable, or a cons pair of two
expressions.  Identifiers starting with an uppercase letter are
variables; everything else (including ``nil`` and the black hole ``*``)
is a constant.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, field
from typing import ClassVar, NoReturn, Union


class ExprError(Exception):
    pass


class ExprSyntaxError(ExprError):
    """Text that does not read; pos is where, when the reader knows it."""

    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message if pos is None else f"{message} (at position {pos})")
        self.pos = pos


class AtomicExpressionError(ExprError):
    """left/right applied to an atom; no value is defined for it."""


# Every node carries its variable set and its size (`vars`, `size`),
# constants of the class for an atom where they can be, and computed
# from the children's when a cons is built, so neither is ever
# recomputed by a walk (cached attributes as in hash-consing, without
# interning).  Neither takes part in equality, hashing or printing.
_NO_VARS: frozenset[str] = frozenset()
# One object per distinct variable set, held only while something uses
# it; found by its name for a variable's set, else by an equal set.
_VAR_SETS: weakref.WeakValueDictionary[str | frozenset[str], frozenset[str]] = (
    weakref.WeakValueDictionary()
)
_set = object.__setattr__


def shared_varset(names: frozenset[str]) -> frozenset[str]:
    """The one live set equal to names, which becomes it if there is none."""
    found = _VAR_SETS.get(names)
    if found is None:
        # keyed by a copy: a key that is the value would keep it alive
        found = _VAR_SETS[frozenset(list(names))] = names
    return found


def _cached():
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class Const:
    name: str
    vars: ClassVar[frozenset[str]] = _NO_VARS
    size: ClassVar[int] = 1


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    vars: frozenset[str] = _cached()
    size: ClassVar[int] = 0

    def __post_init__(self):
        name = self.name
        names = _VAR_SETS.get(name)
        if names is None:
            names = _VAR_SETS[name] = frozenset((name,))
        _set(self, "vars", names)


@dataclass(frozen=True, slots=True)
class Cons:
    left: "Expr"
    right: "Expr"
    vars: frozenset[str] = _cached()
    size: int = _cached()

    def __post_init__(self):
        # a child's set is reused when it already holds the other's
        lv, rv = self.left.vars, self.right.vars
        if rv <= lv:
            _set(self, "vars", lv)
        elif lv <= rv:
            _set(self, "vars", rv)
        else:
            _set(self, "vars", shared_varset(lv | rv))
        _set(self, "size", 1 + self.left.size + self.right.size)

    def __eq__(self, other):
        """Structural equality without recursing; shared parts by identity."""
        if self is other:
            return True
        if type(other) is not Cons:
            return NotImplemented
        work = [(self, other)]
        while work:
            x, y = work.pop()
            if x is y:
                continue
            kind = type(x)
            if kind is not type(y):
                return False
            if kind is not Cons:  # atoms of one class: equal names
                if x.name != y.name:
                    return False
            elif x.size != y.size:
                return False
            else:
                work += ((x.right, y.right), (x.left, y.left))
        return True


Expr = Union[Const, Var, Cons]

NIL = Const("nil")
BLACK_HOLE = Const("*")

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_#]*")


def is_const(e: Expr) -> bool:
    return isinstance(e, Const)


def is_var(e: Expr) -> bool:
    return isinstance(e, Var)


def is_atom(e: Expr) -> bool:
    return not isinstance(e, Cons)


def left_of(e: Expr) -> Expr:
    if isinstance(e, Cons):
        return e.left
    raise AtomicExpressionError(f"left of atom {print_expr(e)}")


def right_of(e: Expr) -> Expr:
    if isinstance(e, Cons):
        return e.right
    raise AtomicExpressionError(f"right of atom {print_expr(e)}")


def size_of(e: Expr) -> int:
    """Number of non-variable symbols (constants and conses) in e."""
    return e.size


def vars_of(e: Expr) -> frozenset[str]:
    """Set of variable names occurring in e."""
    return e.vars


def occurs_in(d: Expr, e: Expr, mode: str = "proper") -> bool:
    """Occurrence of d in e: proper subexpression, or reflexive closure.

    mode='proper' is false whenever e is atomic; mode='reflexive' also
    accepts d equal to e.  Subtrees too small for d, or lacking one of
    its variables, are not entered.
    """
    if mode == "proper":
        # a proper subexpression is smaller and has no variable e lacks
        if d.size >= e.size or not d.vars <= e.vars:
            return False
        if not isinstance(d, Var):  # e is then a cons
            return occurs_in(d, e.left, "reflexive") or occurs_in(
                d, e.right, "reflexive"
            )
    elif mode != "reflexive":
        raise ValueError(f"unknown occurrence mode {mode!r}")
    if isinstance(d, Var):
        return d.name in e.vars
    stack = [e]
    while stack:
        t = stack.pop()
        if t.size == d.size:
            if t == d:
                return True
        elif t.size > d.size and d.vars <= t.vars:
            stack += (t.right, t.left)  # bigger than a non-variable: a cons
    return False


def encode_tuple(items: list[Expr]) -> Expr:
    """Right-nested, nil-terminated encoding of a tuple."""
    out: Expr = NIL
    for item in reversed(items):
        out = Cons(item, out)
    return out


# ( ) . , * and -> are tokens of their own; any other run of non-space
# characters is one token, a '-' not followed by '>' included
_TOKEN = re.compile(r"(?:[^\s().,*-]+|-(?!>))+|->|[().,*]")

Sexp = Union[str, list]


def read_sexp(text: str, many: bool = False) -> Sexp:
    """The single datum in text: a token, or a list of data per parenthesis.
    With many set, the list of every datum in text, in order, none or more.

    A list that holds a '.' must be a dotted pair, exactly (x . y).
    Nesting is kept on an explicit stack, so deep input does not recurse.
    """
    tokens = _TOKEN.findall(text)
    stack: list[list] = [[]]
    opened: list[int] = []  # the token index of each '(' still open
    for k, tok in enumerate(tokens):
        if not (opened or many) and stack[0] and tok != ")":
            _fail("more than one datum", text, k)
        if tok == "(":
            stack.append([])
            opened.append(k)
        elif tok != ")":
            stack[-1].append(tok)
        elif not opened:
            _fail("unexpected ')'", text, k)
        else:
            done = stack.pop()
            opened.pop()
            if "." in done and [x == "." for x in done] != [False, True, False]:
                _fail("'.' must stand between two data", text, k)
            stack[-1].append(done)
    if opened:
        _fail("unclosed '('", text, opened[-1])
    if not (stack[0] or many):
        _fail("empty input", text, 0)
    return stack[0] if many else stack[0][0]


def brief(datum: Sexp) -> str:
    """datum's text, each list inside it written (...): bounded however deep datum is."""
    if isinstance(datum, str):
        return datum
    return "(" + " ".join(x if isinstance(x, str) else "(...)" for x in datum) + ")"


def _fail(message: str, text: str, k: int) -> NoReturn:
    """Raise ExprSyntaxError at the k-th token of text, or at its end."""
    starts = [m.start() for m in _TOKEN.finditer(text)] + [len(text)]
    raise ExprSyntaxError(message, starts[k])


def parse_expr(text: str) -> Expr:
    """Parse the expression grammar.

    expr := atom | "(" expr "." expr ")" | "(" expr+ ")"
    where the list form (e1 ... en) abbreviates (e1 . ( ... (en . nil))).
    """
    return build_expr(read_sexp(text))


def build_expr(datum: Sexp) -> Expr:
    """The expression a datum of read_sexp denotes.

    A dotted pair is a cons and a list its tuple encoding; * is the black
    hole, and a name is a variable if it starts with an uppercase letter,
    else a constant.  Built on an explicit stack, so deep data do not
    recurse.
    """
    built: list[Expr] = []
    stack: list[tuple[Sexp, bool]] = [(datum, False)]
    while stack:
        d, ready = stack.pop()
        if d == "*":
            built.append(BLACK_HOLE)
        elif isinstance(d, str):
            if not _IDENT.fullmatch(d):
                raise ExprSyntaxError(f"unexpected token {d!r}")
            built.append(Var(d) if d[0].isupper() else Const(d))
        elif not ready:
            if not d:
                raise ExprSyntaxError("'()' is not an expression")
            stack.append((d, True))
            stack.extend((x, False) for x in reversed(d) if x != ".")
        elif len(d) == 3 and d[1] == ".":
            right = built.pop()
            built[-1] = Cons(built[-1], right)
        else:
            items = built[-len(d) :]
            del built[-len(d) :]
            built.append(encode_tuple(items))
    return built[0]


def print_expr(e: Expr) -> str:
    """Render e in the canonical dotted-pair form, without recursing."""
    out: list[str] = []
    stack: list[Expr | str] = [e]
    while stack:
        x = stack.pop()
        if type(x) is str:
            out.append(x)
        elif type(x) is Cons:
            out.append("(")
            stack += (")", x.right, " . ", x.left)
        else:
            out.append(x.name)
    return "".join(out)
