"""Parser-level tests: AST structure, precedence, and error reporting."""

import pytest
from hypothesis import given, strategies as st

from repro.js import nodes as N
from repro.js.errors import JSSyntaxError
from repro.js.parser import parse


def first_stmt(src):
    return parse(src).body[0]


def expr_of(src):
    stmt = first_stmt(src)
    assert isinstance(stmt, N.ExpressionStatement)
    return stmt.expression


class TestPrecedence:
    def test_multiplication_binds_tighter(self):
        e = expr_of("1 + 2 * 3;")
        assert isinstance(e, N.BinaryOp) and e.op == "+"
        assert isinstance(e.right, N.BinaryOp) and e.right.op == "*"

    def test_comparison_below_additive(self):
        e = expr_of("a + 1 < b - 2;")
        assert e.op == "<"

    def test_logical_or_lowest(self):
        e = expr_of("a && b || c;")
        assert isinstance(e, N.LogicalOp) and e.op == "||"
        assert isinstance(e.left, N.LogicalOp) and e.left.op == "&&"

    def test_assignment_right_associative(self):
        e = expr_of("a = b = 1;")
        assert isinstance(e, N.AssignmentExpression)
        assert isinstance(e.value, N.AssignmentExpression)

    def test_conditional_nests_in_assignment(self):
        e = expr_of("x = a ? 1 : 2;")
        assert isinstance(e.value, N.ConditionalExpression)

    def test_unary_binds_tighter_than_binary(self):
        e = expr_of("-a * b;")
        assert e.op == "*"
        assert isinstance(e.left, N.UnaryOp)

    def test_member_call_chain(self):
        e = expr_of("a.b.c(1).d;")
        assert isinstance(e, N.MemberExpression) and e.prop == "d"
        assert isinstance(e.obj, N.CallExpression)

    def test_computed_member(self):
        e = expr_of("a[i + 1];")
        assert isinstance(e, N.MemberExpression) and e.computed
        assert isinstance(e.prop, N.BinaryOp)


class TestStatements:
    def test_var_declaration_multi(self):
        stmt = first_stmt("var a = 1, b, c = 'x';")
        assert isinstance(stmt, N.VariableDeclaration)
        assert [d.name for d in stmt.declarations] == ["a", "b", "c"]
        assert stmt.declarations[1].init is None

    def test_keyword_as_property_name(self):
        e = expr_of("obj.new;")
        assert e.prop == "new"

    def test_for_parts_optional(self):
        stmt = first_stmt("for (;;) { break; }")
        assert isinstance(stmt, N.ForStatement)
        assert stmt.init is None and stmt.test is None and stmt.update is None

    def test_for_of(self):
        stmt = first_stmt("for (var x of items) {}")
        assert isinstance(stmt, N.ForOfStatement)
        assert stmt.name == "x"

    def test_try_catch_finally(self):
        stmt = first_stmt("try { a(); } catch (e) { b(); } finally { c(); }")
        assert isinstance(stmt, N.TryStatement)
        assert stmt.param == "e"
        assert stmt.finalizer is not None

    def test_catch_without_binding(self):
        stmt = first_stmt("try { a(); } catch { b(); }")
        assert stmt.param is None and stmt.handler is not None

    def test_asi_before_close_brace(self):
        prog = parse("function f() { return 1 }")
        assert isinstance(prog.body[0], N.FunctionDeclaration)

    def test_asi_at_eof(self):
        assert isinstance(first_stmt("var x = 1"), N.VariableDeclaration)

    def test_object_literal_key_kinds(self):
        e = expr_of('x = {plain: 1, "quoted key": 2, 42: 3, for: 4};')
        keys = [k for k, _ in e.value.properties]
        assert keys == ["plain", "quoted key", "42", "for"]

    def test_an_infinite_number_key_is_the_key_infinity(self):
        # _number_key took int() of the value, which overflows on infinity.
        e = expr_of("x = {1e999: 1, 0x" + "F" * 300 + ": 2};")
        assert [k for k, _ in e.value.properties] == ["Infinity", "Infinity"]

    def test_empty_statement(self):
        assert isinstance(first_stmt(";"), N.EmptyStatement)


class TestArrows:
    def test_single_param(self):
        e = expr_of("f = x => x + 1;")
        assert isinstance(e.value, N.FunctionExpression) and e.value.is_arrow
        assert e.value.params == ["x"]

    def test_paren_params(self):
        e = expr_of("f = (a, b) => a * b;")
        assert e.value.params == ["a", "b"]

    def test_zero_params(self):
        e = expr_of("f = () => 42;")
        assert e.value.params == []

    def test_parenthesized_expr_not_arrow(self):
        e = expr_of("(a + b) * 2;")
        assert isinstance(e, N.BinaryOp) and e.op == "*"


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "var = 1;",
            "var a = ;",
            "if (x { }",
            "function () {}",   # declaration requires a name
            "a +;",
            "{ unclosed",
            "try { }",          # try needs catch or finally
            "1 = 2;",           # invalid assignment target
            "do { } until (x);",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(JSSyntaxError):
            parse(bad)

    def test_error_carries_line(self):
        with pytest.raises(JSSyntaxError) as err:
            parse("var a = 1;\nvar b = ;\n")
        assert err.value.line == 2


_number = st.integers(0, 999).map(str)
_ident = st.sampled_from(["a", "b", "foo", "x1"])
_atom = st.one_of(_number, _ident)


@st.composite
def _expressions(draw, depth=3):
    if depth == 0:
        return draw(_atom)
    left = draw(_expressions(depth=depth - 1))
    right = draw(_expressions(depth=depth - 1))
    op = draw(st.sampled_from(["+", "-", "*", "/", "&&", "||", "<", "==="]))
    return f"({left} {op} {right})"


@given(_expressions())
def test_generated_expressions_parse(src):
    prog = parse(f"var r = {src};")
    assert isinstance(prog.body[0], N.VariableDeclaration)
