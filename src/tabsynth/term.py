"""Symbolic expressions: binary trees of constants and variables.

An expression is a constant, a variable, or a cons pair of two
expressions.  Identifiers starting with an uppercase letter are
variables; everything else (including ``nil`` and the black hole ``*``)
is a constant.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, field
from typing import ClassVar, Union


class ExprError(Exception):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
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
    if is_atom(e):
        raise AtomicExpressionError(f"left of atom {print_expr(e)}")
    assert isinstance(e, Cons)
    return e.left


def right_of(e: Expr) -> Expr:
    if is_atom(e):
        raise AtomicExpressionError(f"right of atom {print_expr(e)}")
    assert isinstance(e, Cons)
    return e.right


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


def parse_expr(text: str) -> Expr:
    """Parse the expression grammar.

    expr := atom | "(" expr "." expr ")" | "(" expr+ ")"
    where the list form (e1 ... en) abbreviates (e1 . ( ... (en . nil))).
    """
    expr, pos = _parse(text, _skip_ws(text, 0))
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ExprSyntaxError("trailing input", pos)
    return expr


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse(text: str, pos: int) -> tuple[Expr, int]:
    if pos >= len(text):
        raise ExprSyntaxError("unexpected end of input", pos)
    ch = text[pos]
    if ch == "(":
        return _parse_pair_or_list(text, pos)
    if ch == "*":
        return BLACK_HOLE, pos + 1
    m = _IDENT.match(text, pos)
    if not m:
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
    name = m.group(0)
    if name[0].isupper():
        return Var(name), m.end()
    return Const(name), m.end()


def _parse_pair_or_list(text: str, pos: int) -> tuple[Expr, int]:
    open_pos = pos
    pos = _skip_ws(text, pos + 1)
    first, pos = _parse(text, pos)
    pos = _skip_ws(text, pos)
    if pos < len(text) and text[pos] == ".":
        pos = _skip_ws(text, pos + 1)
        second, pos = _parse(text, pos)
        pos = _skip_ws(text, pos)
        if pos >= len(text) or text[pos] != ")":
            raise ExprSyntaxError("expected ')'", pos)
        return Cons(first, second), pos + 1
    items = [first]
    while True:
        if pos >= len(text):
            raise ExprSyntaxError("unclosed '('", open_pos)
        if text[pos] == ")":
            return encode_tuple(items), pos + 1
        item, pos = _parse(text, pos)
        items.append(item)
        pos = _skip_ws(text, pos)


def print_expr(e: Expr) -> str:
    """Render e in the canonical dotted-pair form."""
    if isinstance(e, (Const, Var)):
        return e.name
    return f"({print_expr(e.left)} . {print_expr(e.right)})"
