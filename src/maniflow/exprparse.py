"""Small arithmetic expression language for scenario configs.

Metrics, coefficients and initial data are declared as closed-form
expressions over the variables x1, x2, xi, t (plus the constant pi) and
evaluated once per grid node at setup time.  The evaluator accepts both
scalars and numpy arrays in the bindings, so whole fields are produced in
a single AST walk.

Grammar (highest binding first):
    ^ (right-assoc)  >  unary -  >  * /  >  + -
Functions: sin, cos, exp, sqrt, abs, min, max.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Base class for parse- and eval-time failures; carries a byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ParseError(ExprError):
    pass


class EvalError(ExprError):
    pass


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float
    offset: int = 0


@dataclass(frozen=True)
class Var:
    name: str
    offset: int = 0


@dataclass(frozen=True)
class Neg:
    child: object
    offset: int = 0


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object
    offset: int = 0


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple
    offset: int = 0


# --- Tokenizer -------------------------------------------------------------

_OPS = set("+-*/^(),")


def _tokenize(source):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


# --- Pratt parser -----------------------------------------------------------

_LBP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_BP = 30  # binds tighter than * / but looser than ^


class _Parser:
    def __init__(self, source):
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def expression(self, rbp=0):
        kind, value, offset = self.advance()
        if kind == "num":
            left = Num(value, offset)
        elif kind == "name":
            if self.peek()[0] == "(":
                left = self.call(value, offset)
            elif value in FUNCTIONS:
                raise ParseError(f"function {value!r} requires arguments", offset)
            else:
                left = Var(value, offset)
        elif kind == "-":
            left = Neg(self.expression(_UNARY_BP), offset)
        elif kind == "(":
            left = self.expression(0)
            self.expect(")")
        else:
            raise ParseError(f"expected a value, found {kind!r}", offset)

        while True:
            kind, _, offset = self.peek()
            bp = _LBP.get(kind, 0)
            if bp <= rbp:
                return left
            self.advance()
            # '^' is right-associative: recurse with slightly lower threshold
            right = self.expression(bp - 1 if kind == "^" else bp)
            left = Bin(kind, left, right, offset)

    def call(self, name, offset):
        if name not in FUNCTIONS:
            raise ParseError(f"unknown function {name!r}", offset)
        arity = FUNCTIONS[name][0]
        self.expect("(")
        args = [self.expression(0)]
        while self.peek()[0] == ",":
            self.advance()
            args.append(self.expression(0))
        self.expect(")")
        if len(args) != arity:
            raise ParseError(
                f"function {name!r} takes {arity} argument(s), got {len(args)}", offset)
        return Call(name, tuple(args), offset)


def parse(source):
    """Parse UTF-8 text into an expression AST."""
    parser = _Parser(source)
    ast = parser.expression(0)
    kind, _, offset = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input starting with {kind!r}", offset)
    return ast


# --- Evaluation -------------------------------------------------------------

def evaluate(ast, bindings):
    """Evaluate an AST under name -> value bindings; pi is always bound.

    Values may be numpy arrays; the arithmetic is deterministic IEEE double.
    """
    return _eval(ast, {"pi": np.pi, **bindings})


def _eval(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise EvalError(f"unbound variable {node.name!r}", node.offset) from None
    if isinstance(node, Neg):
        return -_eval(node.child, env)
    if isinstance(node, Bin):
        a = _eval(node.left, env)
        b = _eval(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if np.any(b == 0):
                raise EvalError("division by zero", node.offset)
            return a / b
        if node.op == "^":
            # negative base with non-integer exponent has no real value
            if np.any((np.asarray(a) < 0) & (np.asarray(b) != np.floor(b))):
                raise EvalError("negative base with non-integer exponent", node.offset)
            return a ** b
        raise EvalError(f"unknown operator {node.op!r}", node.offset)
    if isinstance(node, Call):
        args = [_eval(arg, env) for arg in node.args]
        if node.fn == "sqrt":
            if np.any(np.asarray(args[0]) < 0):
                raise EvalError("sqrt of negative value", node.offset)
            return np.sqrt(args[0])
        return FUNCTIONS[node.fn][1](*args)
    raise EvalError(f"unknown node {type(node).__name__}", getattr(node, "offset", 0))


def compile_expr(source):
    """Accept text or a number; return an evaluation function.

    The function takes keyword bindings and returns the evaluated value.
    """
    if isinstance(source, (int, float)):
        value = float(source)
        return lambda **kw: value
    ast = parse(source)
    return lambda **kw: evaluate(ast, kw)
