"""Small arithmetic expression language for scenario configs.

Metrics, coefficients and initial data are closed-form expressions over
x1, x2, xi, t and the constant pi, evaluated on whole numpy arrays at once.
The language: decimal literals, names, + - * /, ^ for power, unary -,
parentheses, and calls of FUNCTIONS with positional arguments; precedence
^ (right-assoc) > unary - > * / > + -.  Python's `ast.parse` reads the text
with ^ as **, `_check` rejects every other Python form, and `_eval` walks
the checked tree: nothing in the text is executed.  Error offsets count
characters of the text as written.
"""

from __future__ import annotations

import ast
import operator
import re

import numpy as np

FUNCTIONS = {
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "exp": (1, np.exp),
    "sqrt": (1, None),  # guarded in eval
    "abs": (1, np.abs),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}


class ExprError(Exception):
    """Base class for parse- and eval-time failures; carries a character offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ParseError(ExprError):
    pass


class EvalError(ExprError):
    pass


# Rejected before parsing, at the last character of the match: a character
# outside the language, the second * of **, or a letter run into a number
# (0x10, 1_000, 2j, 1if), which Python reads as another literal or warns about.
_REJECT = re.compile(
    r"[^A-Za-z0-9_ \t.+\-*/^(),]|\*\*"
    r"|(?<![\w.])(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+|(?![eE][+-]?\d))[A-Za-z_]", re.ASCII)
_ARITH = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
          ast.Div: operator.truediv, ast.Pow: operator.pow}


def _offset(source, col):
    """Offset in `source` as written of column `col` of the text that ast parsed."""
    text = source.lstrip(" \t")
    return len(source) - len(text) + col - text.replace("^", "^^")[:col + 1].count("^^")


def parse(source):
    """Parse text into a checked `ast.Expression`; its `source` is the text."""
    bad = _REJECT.search(source)
    if bad:
        raise ParseError(f"unexpected character {source[bad.end() - 1]!r}", bad.end() - 1)
    text = source.lstrip(" \t").replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
        _check(tree.body, text, source)
    except (SyntaxError, ValueError) as exc:
        col = exc.offset - 1 if getattr(exc, "offset", 0) else len(text)
        raise ParseError("invalid syntax, expected an expression", _offset(source, col)) from None
    except (RecursionError, MemoryError):
        raise ExprError("expression nested too deeply", 0) from None
    tree.source = source
    return tree


def _check(node, text, source):
    """Reject any node outside the language; set each literal to float() of its text."""
    kind = type(node)
    if kind is ast.BinOp and type(node.op) in _ARITH:
        _check(node.left, text, source)
        _check(node.right, text, source)
    elif kind is ast.UnaryOp and type(node.op) is ast.USub:
        _check(node.operand, text, source)
    elif kind is ast.Constant:
        try:  # ..., True and None are constants too
            node.value = float(text[node.col_offset:node.end_col_offset])
        except ValueError:
            raise ParseError("unsupported syntax", _offset(source, node.col_offset)) from None
    elif kind is ast.Name:
        if node.id in FUNCTIONS:
            raise ParseError(f"function {node.id!r} requires arguments",
                             _offset(source, node.col_offset))
    elif kind is ast.Call and type(node.func) is ast.Name:
        name, args = node.func.id, node.args
        if name not in FUNCTIONS:
            raise ParseError(f"unknown function {name!r}", _offset(source, node.col_offset))
        if len(args) != FUNCTIONS[name][0]:
            raise ParseError(f"function {name!r} takes {FUNCTIONS[name][0]} argument(s), "
                             f"got {len(args)}", _offset(source, node.col_offset))
        if node.keywords or "," in text[args[-1].end_col_offset:node.end_col_offset]:
            raise ParseError(f"call of {name!r} takes positional arguments and no trailing "
                             "comma", _offset(source, node.col_offset))
        for arg in args:
            _check(arg, text, source)
    else:
        raise ParseError("unsupported syntax", _offset(source, node.col_offset))


def evaluate(tree, bindings):
    """Evaluate a parsed expression under name -> value bindings; pi is always bound.

    Values may be numpy arrays; the arithmetic is deterministic IEEE double.
    Overflow and invalid operations give +-inf and NaN without a warning, as
    numpy does with its warnings off; every caller checks the result.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _eval(tree.body, {"pi": np.pi, **bindings}, tree.source)
    except (RecursionError, MemoryError):
        raise ExprError("expression nested too deeply", 0) from None


def _eval(node, env, source):
    kind = type(node)
    if kind is ast.Constant:
        return node.value
    if kind is ast.Name:
        try:
            return env[node.id]
        except KeyError:
            raise EvalError(f"unbound variable {node.id!r}",
                            _offset(source, node.col_offset)) from None
    if kind is ast.UnaryOp:
        return -_eval(node.operand, env, source)
    if kind is ast.Call:
        args = [_eval(arg, env, source) for arg in node.args]
        if node.func.id == "sqrt":
            if np.any(np.asarray(args[0]) < 0):
                raise EvalError("sqrt of negative value", _offset(source, node.col_offset))
            return np.sqrt(args[0])
        return FUNCTIONS[node.func.id][1](*args)
    a = _eval(node.left, env, source)
    b = _eval(node.right, env, source)
    op = type(node.op)
    if op is ast.Div and np.any(b == 0):
        raise EvalError("division by zero", _operator(source, node, "/"))
    # negative base with non-integer exponent has no real value
    if op is ast.Pow and np.any((np.asarray(a) < 0) & (np.asarray(b) != np.floor(b))):
        raise EvalError("negative base with non-integer exponent", _operator(source, node, "^"))
    try:
        return _ARITH[op](a, b)
    except (OverflowError, ZeroDivisionError):
        # a power of two Python floats raises where numpy's gives +-inf
        return np.power(a, b)


def _operator(source, node, char):
    """Offset in `source` of a binary node's operator: the first `char` after its left operand."""
    return source.index(char, _offset(source, node.left.end_col_offset))


def compile_expr(source):
    """Accept text or a number; return an evaluation function.

    The function takes keyword bindings and returns the evaluated value.
    """
    if isinstance(source, (int, float)):
        value = float(source)
        return lambda **kw: value
    tree = parse(source)
    return lambda **kw: evaluate(tree, kw)
