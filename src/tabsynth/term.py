"""Symbolic expressions: binary trees of constants and variables.

An expression is a constant, a variable, or a cons pair of two
expressions.  Identifiers starting with an uppercase letter are
variables; everything else (including ``nil`` and the black hole ``*``)
is a constant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union


class ExprError(Exception):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class AtomicExpressionError(ExprError):
    """left/right applied to an atom; no value is defined for it."""


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Cons:
    left: "Expr"
    right: "Expr"


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
    if isinstance(e, Var):
        return 0
    if isinstance(e, Const):
        return 1
    return 1 + size_of(e.left) + size_of(e.right)


def vars_of(e: Expr) -> frozenset[str]:
    """Set of variable names occurring in e."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Const):
        return frozenset()
    return vars_of(e.left) | vars_of(e.right)


def occurs_in(d: Expr, e: Expr, mode: str = "proper") -> bool:
    """Occurrence of d in e: proper subexpression, or reflexive closure.

    mode='proper' is false whenever e is atomic; mode='reflexive' also
    accepts d equal to e.
    """
    if mode == "reflexive":
        return d == e or occurs_in(d, e, "proper")
    if mode != "proper":
        raise ValueError(f"unknown occurrence mode {mode!r}")
    if is_atom(e):
        return False
    assert isinstance(e, Cons)
    return occurs_in(d, e.left, "reflexive") or occurs_in(d, e.right, "reflexive")


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
