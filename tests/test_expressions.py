"""Tests for the arithmetic expression parser, printer, and evaluator."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipot import ExprError
from ellipot.expressions import (
    Binary,
    Call,
    Num,
    Unary,
    Var,
    compile_point_function,
    evaluate,
    free_variables,
    parse_expr,
    to_text,
    validate_vars,
)


class TestParsing:
    def test_precedence_of_product_over_sum(self):
        assert parse_expr("1+2*3") == Binary(
            "+", Num(1.0), Binary("*", Num(2.0), Num(3.0))
        )
        assert evaluate(parse_expr("2*3+4"), {}) == 10.0
        assert evaluate(parse_expr("2+3*4"), {}) == 14.0

    def test_power_is_right_associative(self):
        assert evaluate(parse_expr("2^3^2"), {}) == 512.0
        assert parse_expr("2^3^2") == Binary(
            "^", Num(2.0), Binary("^", Num(3.0), Num(2.0))
        )

    def test_power_binds_tighter_than_unary_minus(self):
        assert evaluate(parse_expr("-2^2"), {}) == -4.0
        assert evaluate(parse_expr("(-2)^2"), {}) == 4.0

    def test_decay_profile_value(self):
        node = parse_expr("(1+r)^(-3)")
        assert evaluate(node, {"r": 1.0}) == pytest.approx(0.125, rel=1e-15)

    def test_scientific_notation_literals(self):
        assert evaluate(parse_expr("2.5e-3"), {}) == 2.5e-3
        assert evaluate(parse_expr(".5"), {}) == 0.5

    def test_function_calls(self):
        assert evaluate(parse_expr("min(3, 1+1)"), {}) == 2.0
        assert evaluate(parse_expr("pow(2, 10)"), {}) == 1024.0
        assert evaluate(parse_expr("abs(-3)"), {}) == 3.0
        assert evaluate(parse_expr("exp(0)"), {}) == 1.0

    def test_spans_carry_one_based_columns(self):
        node = parse_expr("1 + 22")
        assert node.span == (1, 6)
        assert node.right.span == (5, 6)


class TestParseErrors:
    def test_dangling_operator_reports_column(self):
        with pytest.raises(ExprError) as err:
            parse_expr("2*^3")
        assert err.value.column == 3
        assert "column 3" in str(err.value)

    def test_unexpected_character(self):
        with pytest.raises(ExprError) as err:
            parse_expr("2 $ 3")
        assert err.value.column == 3

    def test_unknown_identifier(self):
        with pytest.raises(ExprError, match="unknown identifier"):
            parse_expr("2*foo")

    def test_unknown_function(self):
        with pytest.raises(ExprError, match="unknown function"):
            parse_expr("foo(2)")

    def test_wrong_arity(self):
        with pytest.raises(ExprError, match="takes 2 argument"):
            parse_expr("min(1)")
        with pytest.raises(ExprError, match="takes 1 argument"):
            parse_expr("sqrt(1, 2)")

    def test_function_without_arguments(self):
        with pytest.raises(ExprError, match="without arguments"):
            parse_expr("sqrt + 1")

    def test_truncated_input(self):
        with pytest.raises(ExprError, match="unexpected end"):
            parse_expr("1 +")
        with pytest.raises(ExprError):
            parse_expr("(1 + 2")

    def test_trailing_garbage(self):
        with pytest.raises(ExprError) as err:
            parse_expr("1 2")
        assert err.value.column == 3


class TestEvaluation:
    def test_vectorized_over_arrays(self):
        node = parse_expr("x1^2 + x2")
        out = evaluate(node, {"x1": np.array([1.0, 2.0]), "x2": np.array([3.0, 4.0])})
        npt.assert_allclose(out, [4.0, 8.0])

    def test_unbound_variable(self):
        with pytest.raises(ExprError, match="unbound variable"):
            evaluate(parse_expr("x1 + t"), {"x1": 1.0})

    def test_log_of_nonpositive_is_a_domain_error(self):
        node = parse_expr("1 + log(x1)")
        with pytest.raises(ExprError, match="domain error") as err:
            evaluate(node, {"x1": -1.0})
        assert err.value.column == 5  # points at the log call, not the sum

    def test_sqrt_of_negative_is_a_domain_error(self):
        with pytest.raises(ExprError, match="domain error"):
            evaluate(parse_expr("sqrt(x1)"), {"x1": np.array([4.0, -1.0])})

    def test_division_by_zero_is_a_domain_error(self):
        with pytest.raises(ExprError, match="domain error"):
            evaluate(parse_expr("1/x1"), {"x1": 0.0})


class TestValidateVars:
    def test_coordinate_beyond_dimension(self):
        with pytest.raises(ExprError, match="exceeds the dimension"):
            validate_vars(parse_expr("x1 + x3"), 2)
        validate_vars(parse_expr("x1 + x3"), 3)

    def test_t_only_where_allowed(self):
        node = parse_expr("t * x1")
        with pytest.raises(ExprError, match="not available"):
            validate_vars(node, 2)
        validate_vars(node, 2, allow_t=True)

    def test_r_always_allowed(self):
        validate_vars(parse_expr("1/(1+r)"), 1)

    def test_free_variables(self):
        assert free_variables(parse_expr("x1*exp(-r^2) + t")) == {"x1", "r", "t"}
        assert free_variables(parse_expr("1 + 2")) == set()


class TestCompile:
    def test_point_function_in_two_dims(self):
        fn = compile_point_function("x1 + 2*x2", 2)
        npt.assert_allclose(fn([[1.0, 2.0], [3.0, 4.0]]), [5.0, 11.0])

    def test_r_is_the_euclidean_norm(self):
        fn = compile_point_function("r", 2)
        npt.assert_allclose(fn([[3.0, 4.0]]), [5.0])

    def test_constants_broadcast_to_all_points(self):
        fn = compile_point_function("2.5", 3)
        npt.assert_allclose(fn(np.zeros((4, 3))), np.full(4, 2.5))

    def test_rejects_t_when_not_requested(self):
        with pytest.raises(ExprError):
            compile_point_function("t + x1", 1)

    def test_expression_attribute_reparses(self):
        fn = compile_point_function("(1+r)^(-3)", 3)
        again = compile_point_function(fn.expression, 3)
        npt.assert_allclose(again([[1.0, 0.0, 0.0]]), fn([[1.0, 0.0, 0.0]]))


# Printing emits no sign on numeric literals, so a literal must be
# nonnegative to survive a print/parse cycle (negation round-trips as a
# unary node instead).
_leaf = st.one_of(
    st.builds(
        lambda v: Num(float(v)),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    ),
    st.builds(Var, st.sampled_from(["x1", "x2", "x3", "r", "t"])),
)


def _extend(children):
    return st.one_of(
        st.builds(lambda c: Unary("-", c), children),
        st.builds(
            lambda op, a, b: Binary(op, a, b),
            st.sampled_from(["+", "-", "*", "/", "^"]),
            children,
            children,
        ),
        st.builds(
            lambda f, a: Call(f, (a,)),
            st.sampled_from(["exp", "log", "sqrt", "abs", "sin", "cos"]),
            children,
        ),
        st.builds(
            lambda f, a, b: Call(f, (a, b)),
            st.sampled_from(["min", "max", "pow"]),
            children,
            children,
        ),
    )


_asts = st.recursive(_leaf, _extend, max_leaves=25)


class TestPrintParseRoundTrip:
    def test_handwritten_cases(self):
        for text in [
            "1+2*3",
            "2^3^2",
            "-2^2",
            "(-2)^2",
            "(1+r)^(-3)",
            "min(x1, max(x2, 0))",
            "-(1+2)",
            "1-(2-3)",
            "2/(3/4)",
        ]:
            node = parse_expr(text)
            assert parse_expr(to_text(node)) == node

    @settings(max_examples=300, deadline=None)
    @given(_asts)
    def test_random_asts(self, node):
        assert parse_expr(to_text(node)) == node
