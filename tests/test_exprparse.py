import ast
import math
import warnings

import numpy as np
import pytest

from maniflow.exprparse import EvalError, ExprError, ParseError, compile_expr, evaluate, parse


def ev(src, **binds):
    return evaluate(parse(src), binds)


class TestParsing:
    def test_precedence_forced(self):
        assert ev("1 + 2*3") == 7

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512

    def test_parenthesized_metric_entry(self):
        assert ev("(1 + 0.5*sin(2*pi*x1))^2", x1=0.25) == pytest.approx(2.25, abs=1e-15)

    def test_unary_minus_binds_below_power(self):
        assert ev("-2^2") == -4
        assert ev("(-2)^2") == 4

    def test_unary_minus_binds_above_mul(self):
        # -x*y parses as (-x)*y; same value either way, structure checked
        tree = parse("-2*3").body
        assert isinstance(tree, ast.BinOp) and isinstance(tree.op, ast.Mult)
        assert isinstance(tree.left, ast.UnaryOp)

    def test_left_associative_subtraction(self):
        assert ev("10 - 4 - 3") == 3

    def test_division_chain(self):
        assert ev("16 / 4 / 2") == 2

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse("1 + * 2")
        assert err.value.offset == 4
        assert "expected" in str(err.value)

    def test_unknown_function_rejected_at_parse(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("tanh(1)")

    def test_unknown_variable_ok_at_parse(self):
        assert isinstance(parse("bogus + 1").body, ast.BinOp)

    def test_function_arity_checked(self):
        with pytest.raises(ParseError, match="argument"):
            parse("min(1)")
        with pytest.raises(ParseError, match="argument"):
            parse("sin(1, 2)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as err:
            parse("1 + 2 )")
        assert err.value.offset == 6


class TestEvaluation:
    def test_identity(self):
        assert ev("xi", xi=0.4) == 0.4

    def test_clamp_forced(self):
        assert ev("min(1, x1)", x1=3) == 1

    def test_exp_zero(self):
        assert ev("exp(0) - 1") == 0

    def test_unbound_variable(self):
        with pytest.raises(EvalError, match="unbound") as err:
            ev("x1 + t", x1=1.0)
        assert err.value.offset == 5

    def test_sqrt_negative_reports_offset(self):
        with pytest.raises(EvalError) as err:
            ev("1 + sqrt(0 - 2)")
        assert err.value.offset == 4

    def test_division_by_zero(self):
        with pytest.raises(EvalError, match="division"):
            ev("1 / (2 - 2)")

    def test_negative_base_fractional_power(self):
        with pytest.raises(EvalError, match="exponent"):
            ev("(0 - 2) ^ 0.5")

    def test_array_bindings(self):
        x = np.linspace(0, 1, 17)
        out = ev("sin(2*pi*x1)", x1=x)
        assert np.allclose(out, np.sin(2 * np.pi * x))

    def test_eval_is_pure(self):
        ast = parse("sin(x1) * exp(xi) - max(t, 0.5)")
        ctx = {"x1": 0.7, "xi": 0.2, "t": 0.9}
        a = evaluate(ast, ctx)
        b = evaluate(ast, ctx)
        assert a == b  # bit-identical


# Python syntax, and text Python would read as another literal, outside the language
OUTSIDE = ["x1**2", "x1 # c", "0x10", "1_000", "2j", "+x1", "x1.real", "x1[0]", "True",
           "x1 if xi else 0", "x1 < 2", "min(x1, xi=1)", "min(1, 2,)", "sin()",
           '__import__("os")', "1if 1 else 2"]


@pytest.mark.parametrize("src", OUTSIDE)
def test_text_outside_the_language_is_an_error(src):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ExprError):
            compile_expr(src)(x1=0.5, xi=0.25, t=0.0)
    assert caught == []


@pytest.mark.parametrize("src, offset", [
    ("2^2 + sqrt(0 - 2)", 6), ("x1^2 / (xi - xi)", 5), ("(0 - x1)^0.5 + 1", 8),
])
def test_offsets_after_a_power_count_the_text_as_written(src, offset):
    with pytest.raises(EvalError) as err:
        compile_expr(src)(x1=0.5, xi=0.25)
    assert err.value.offset == offset


def test_offsets_count_leading_blanks():
    with pytest.raises(EvalError) as err:
        ev(" \t x1 + t", x1=1.0)
    assert err.value.offset == 8


# one text per kind of parse- or eval-time error
FAILING = ["x1 # c", "sin(2*pi*x1", "+".join(["1"] * 5000), "True", "sin", "foo(1)", "min(1)",
           "min(x1, xi=1)", "x1 < 2", " \t x1 + t", "sqrt(xi - 2)", "1/(xi-xi)", "(0 - x1)^0.5"]


@pytest.mark.parametrize("src", FAILING, ids=range(len(FAILING)))
def test_an_error_carries_the_text_that_failed(src):
    with pytest.raises(ExprError) as err:
        compile_expr(src)(x1=0.5, xi=0.25)
    assert err.value.source == src


def test_literal_beyond_float_range_is_inf():
    assert ev("1" * 400) == math.inf


def test_deep_nesting_is_an_expression_error():
    with pytest.raises(ExprError, match="nested too deeply"):
        compile_expr("+".join(["1"] * 5000))


# --- independent shunting-yard oracle ----------------------------------------

def shunting_yard_eval(tokens):
    """Reference evaluator: tokens -> RPN -> value.  Built independently of
    the Pratt parser; only shares the precedence table definition."""
    prec = {"+": 1, "-": 1, "*": 2, "/": 2, "u-": 3, "^": 4}
    right = {"^", "u-"}
    out, ops = [], []
    prev = None
    for tok in tokens:
        if isinstance(tok, float):
            out.append(tok)
        elif tok == "(":
            ops.append(tok)
        elif tok == ")":
            while ops and ops[-1] != "(":
                out.append(ops.pop())
            ops.pop()
        else:
            op = "u-" if tok == "-" and prev in (None, "(", "+", "-", "*", "/", "^", "u-") else tok
            while ops and ops[-1] != "(":
                top = ops[-1]
                if prec[top] > prec[op] or (prec[top] == prec[op] and op not in right):
                    out.append(ops.pop())
                else:
                    break
            ops.append(op)
            tok = op
        prev = tok
    while ops:
        out.append(ops.pop())
    stack = []
    for tok in out:
        if isinstance(tok, float):
            stack.append(tok)
        elif tok == "u-":
            stack.append(-stack.pop())
        else:
            b, a = stack.pop(), stack.pop()
            if tok == "+":
                r = a + b
            elif tok == "-":
                r = a - b
            elif tok == "*":
                r = a * b
            elif tok == "/":
                r = a / b if b != 0 else math.nan
            else:
                try:
                    r = a ** b
                except (ZeroDivisionError, OverflowError):
                    r = math.nan
            stack.append(r)
    return stack[0]


def random_expression(rng, depth):
    """Random token stream (and its text) over small integers."""
    if depth == 0 or rng.random() < 0.25:
        val = float(rng.randint(1, 9))
        return [val], format(val, "g")
    op = rng.choice(["+", "-", "*", "/", "^", "neg"])
    if op == "neg":
        toks, text = random_expression(rng, depth - 1)
        return ["-", "("] + toks + [")"], f"-({text})"
    left_t, left_s = random_expression(rng, depth - 1)
    if op == "^":
        exponent = rng.randint(2, 3)
        right_t, right_s = [float(exponent)], str(exponent)
    else:
        right_t, right_s = random_expression(rng, depth - 1)
    return (["("] + left_t + [")", op, "("] + right_t + [")"],
            f"({left_s}) {op} ({right_s})")


def check_oracle_agreement(n_cases, seed=1234):
    import random

    rng = random.Random(seed)
    checked = 0
    attempts = 0
    while checked < n_cases:
        attempts += 1
        assert attempts < 20 * n_cases, "generator stalled"
        toks, text = random_expression(rng, rng.randint(1, 5))
        try:
            expected = shunting_yard_eval(toks)
        except OverflowError:
            continue
        if not math.isfinite(expected) or abs(expected) > 1e12:
            continue
        try:
            got = evaluate(parse(text), {})
        except EvalError:
            continue  # division by zero path; oracle produced nan/inf already filtered
        assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12), \
            f"{text}: {got} != {expected}"
        checked += 1
    return checked


def test_precedence_oracle_sample():
    assert check_oracle_agreement(800) == 800
