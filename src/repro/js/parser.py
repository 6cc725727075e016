"""Recursive-descent parser for the ECMAScript subset.

Produces the AST in :mod:`repro.js.nodes`.  Operator precedence follows
JavaScript; semicolons are required except before ``}`` and EOF (a pragmatic
subset of automatic semicolon insertion sufficient for the scripts in the
synthetic web).
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.js import nodes as N
from repro.js.errors import JSSyntaxError
from repro.js.lexer import tokenize
from repro.js.tokens import Token, TokenType

__all__ = ["parse", "Parser"]

# Binary operator precedence (higher binds tighter).  ``||`` and ``&&`` are
# the two lowest levels and build LogicalOp nodes.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "===": 6,
    "!==": 6,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "instanceof": 7,
    "in": 7,
    "<<": 8,
    ">>": 8,
    ">>>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}
_LOGICAL_MAX_PREC = 2

_ASSIGN_OPS = frozenset(("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="))
_UNARY_OPS = frozenset(("!", "-", "+", "~", "typeof", "delete"))

_EOF = TokenType.EOF
_IDENT = TokenType.IDENT
_KEYWORD = TokenType.KEYWORD
_NUMBER = TokenType.NUMBER
_STRING = TokenType.STRING


def parse(source: str, script: str = "<anonymous>") -> N.Program:
    """Parse ``source`` into a :class:`~repro.js.nodes.Program`."""
    return Parser(tokenize(source, script), script).parse_program()


class Parser:
    """Parses one token list (which must end with the EOF token).

    The current token lives in ``_tok`` and every hot-path test compares
    ``Token.key``.
    """

    def __init__(self, tokens: List[Token], script: str = "<anonymous>") -> None:
        self._tokens = tokens
        self._pos = 0
        self._tok = tokens[0]
        self._script = script

    # -- token helpers ------------------------------------------------------------

    def _peek(self, offset: int = 1) -> Token:
        idx = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[idx]

    def _advance(self) -> Token:
        tok = self._tok
        if tok.key is not _EOF:
            self._pos += 1
            self._tok = self._tokens[self._pos]
        return tok

    def _error(self, message: str) -> JSSyntaxError:
        return JSSyntaxError(message, self._tok.line, self._script, col=self._tok.col)

    def _expect_punct(self, value: str) -> Token:
        if self._tok.key != value:
            raise self._error(f"expected {value!r}, found {self._tok.value!r}")
        return self._advance()

    def _expect_ident(self) -> str:
        if self._tok.key is not _IDENT:
            raise self._error(f"expected identifier, found {self._tok.value!r}")
        return self._advance().value  # type: ignore[return-value]

    def _eat_semicolon(self) -> None:
        key = self._tok.key
        if key == ";":
            self._advance()
            return
        # ASI subset: allow before } and at EOF.
        if key == "}" or key is _EOF:
            return
        raise self._error(f"expected ';', found {self._tok.value!r}")

    # -- program / statements ----------------------------------------------------

    def parse_program(self) -> N.Program:
        body: List[N.Node] = []
        while self._tok.key is not _EOF:
            body.append(self.parse_statement())
        return N.Program(line=1, col=1, body=body)

    def parse_statement(self) -> N.Node:
        tok = self._tok
        key = tok.key
        if key == "{":
            return self.parse_block()
        if key == ";":
            self._advance()
            return N.EmptyStatement(line=tok.line, col=tok.col)
        if tok.type is _KEYWORD:
            if key == "var" or key == "let" or key == "const":
                decl = self.parse_variable_declaration()
                self._eat_semicolon()
                return decl
            if key == "function":
                return self.parse_function_declaration()
            if key == "return":
                self._advance()
                arg: Optional[N.Node] = None
                next_key = self._tok.key
                if not (next_key == ";" or next_key == "}" or next_key is _EOF):
                    arg = self.parse_expression()
                self._eat_semicolon()
                return N.ReturnStatement(line=tok.line, col=tok.col, argument=arg)
            if key == "if":
                return self.parse_if()
            if key == "for":
                return self.parse_for()
            if key == "while":
                return self.parse_while()
            if key == "do":
                return self.parse_do_while()
            if key == "break":
                self._advance()
                self._eat_semicolon()
                return N.BreakStatement(line=tok.line, col=tok.col)
            if key == "continue":
                self._advance()
                self._eat_semicolon()
                return N.ContinueStatement(line=tok.line, col=tok.col)
            if key == "throw":
                self._advance()
                arg = self.parse_expression()
                self._eat_semicolon()
                return N.ThrowStatement(line=tok.line, col=tok.col, argument=arg)
            if key == "try":
                return self.parse_try()
            if key == "switch":
                return self.parse_switch()
        expr = self.parse_expression()
        self._eat_semicolon()
        return N.ExpressionStatement(line=tok.line, col=tok.col, expression=expr)

    def parse_block(self) -> N.Block:
        start = self._expect_punct("{")
        body: List[N.Node] = []
        while self._tok.key != "}":
            if self._tok.key is _EOF:
                raise self._error("unterminated block")
            body.append(self.parse_statement())
        self._advance()
        return N.Block(line=start.line, col=start.col, body=body)

    def parse_variable_declaration(self) -> N.VariableDeclaration:
        kind_tok = self._advance()
        declarations: List[N.VariableDeclarator] = []
        while True:
            line = self._tok.line
            col = self._tok.col
            name = self._expect_ident()
            init: Optional[N.Node] = None
            if self._tok.key == "=":
                self._advance()
                init = self.parse_assignment()
            declarations.append(N.VariableDeclarator(line=line, col=col, name=name, init=init))
            if self._tok.key == ",":
                self._advance()
                continue
            break
        return N.VariableDeclaration(line=kind_tok.line, col=kind_tok.col, kind=kind_tok.value, declarations=declarations)

    def parse_function_declaration(self) -> N.FunctionDeclaration:
        start = self._advance()  # 'function'
        name = self._expect_ident()
        params = self._parse_params()
        body = self.parse_block()
        return N.FunctionDeclaration(line=start.line, col=start.col, name=name, params=params, body=body)

    def _parse_params(self) -> List[str]:
        self._expect_punct("(")
        params: List[str] = []
        while self._tok.key != ")":
            params.append(self._expect_ident())
            if self._tok.key == ",":
                self._advance()
        self._advance()
        return params

    def parse_if(self) -> N.IfStatement:
        start = self._advance()
        self._expect_punct("(")
        test = self.parse_expression()
        self._expect_punct(")")
        consequent = self.parse_statement()
        alternate: Optional[N.Node] = None
        if self._tok.key == "else":
            self._advance()
            alternate = self.parse_statement()
        return N.IfStatement(line=start.line, col=start.col, test=test, consequent=consequent, alternate=alternate)

    def parse_for(self) -> N.Node:
        start = self._advance()
        self._expect_punct("(")

        # for (var x of expr) / for (x of expr)
        key = self._tok.key
        declares = key == "var" or key == "let" or key == "const"
        if declares and self._peek().key is _IDENT and self._peek(2).key == "of":
            kind = self._advance().value
            name = self._expect_ident()
            self._advance()  # 'of'
            iterable = self.parse_expression()
            self._expect_punct(")")
            body = self.parse_statement()
            return N.ForOfStatement(line=start.line, col=start.col, kind=kind, name=name, iterable=iterable, body=body)

        init: Optional[N.Node] = None
        if key != ";":
            if declares:
                init = self.parse_variable_declaration()
            else:
                init = N.ExpressionStatement(line=self._tok.line, col=self._tok.col, expression=self.parse_expression())
        self._expect_punct(";")
        test: Optional[N.Node] = None
        if self._tok.key != ";":
            test = self.parse_expression()
        self._expect_punct(";")
        update: Optional[N.Node] = None
        if self._tok.key != ")":
            update = self.parse_expression()
        self._expect_punct(")")
        body = self.parse_statement()
        return N.ForStatement(line=start.line, col=start.col, init=init, test=test, update=update, body=body)

    def parse_while(self) -> N.WhileStatement:
        start = self._advance()
        self._expect_punct("(")
        test = self.parse_expression()
        self._expect_punct(")")
        body = self.parse_statement()
        return N.WhileStatement(line=start.line, col=start.col, test=test, body=body)

    def parse_do_while(self) -> N.DoWhileStatement:
        start = self._advance()
        body = self.parse_statement()
        if self._tok.key != "while":
            raise self._error("expected 'while' after do-block")
        self._advance()
        self._expect_punct("(")
        test = self.parse_expression()
        self._expect_punct(")")
        self._eat_semicolon()
        return N.DoWhileStatement(line=start.line, col=start.col, body=body, test=test)

    def parse_try(self) -> N.TryStatement:
        start = self._advance()
        block = self.parse_block()
        param: Optional[str] = None
        handler: Optional[N.Block] = None
        finalizer: Optional[N.Block] = None
        if self._tok.key == "catch":
            self._advance()
            if self._tok.key == "(":
                self._advance()
                param = self._expect_ident()
                self._expect_punct(")")
            handler = self.parse_block()
        if self._tok.key == "finally":
            self._advance()
            finalizer = self.parse_block()
        if handler is None and finalizer is None:
            raise self._error("try without catch or finally")
        return N.TryStatement(line=start.line, col=start.col, block=block, param=param, handler=handler, finalizer=finalizer)

    def parse_switch(self) -> N.SwitchStatement:
        start = self._advance()  # 'switch'
        self._expect_punct("(")
        discriminant = self.parse_expression()
        self._expect_punct(")")
        self._expect_punct("{")
        cases: List[N.SwitchCase] = []
        seen_default = False
        while self._tok.key != "}":
            tok = self._tok
            if tok.key == "case":
                self._advance()
                test = self.parse_expression()
            elif tok.key == "default":
                if seen_default:
                    raise self._error("multiple default clauses in switch")
                seen_default = True
                self._advance()
                test = None
            else:
                raise self._error(f"expected 'case' or 'default', found {tok.value!r}")
            self._expect_punct(":")
            body: List[N.Node] = []
            while True:
                key = self._tok.key
                if key == "}" or key == "case" or key == "default":
                    break
                if key is _EOF:
                    raise self._error("unterminated switch")
                body.append(self.parse_statement())
            cases.append(N.SwitchCase(line=tok.line, col=tok.col, test=test, body=body))
        self._advance()
        return N.SwitchStatement(line=start.line, col=start.col, discriminant=discriminant, cases=cases)

    # -- expressions -------------------------------------------------------------

    def parse_expression(self) -> N.Node:
        expr = self.parse_assignment()
        if self._tok.key == ",":
            exprs = [expr]
            while self._tok.key == ",":
                self._advance()
                exprs.append(self.parse_assignment())
            return N.SequenceExpression(line=expr.line, col=expr.col, expressions=exprs)
        return expr

    def parse_assignment(self) -> N.Node:
        tok = self._tok
        key = tok.key
        # Arrow functions: ident => ..., (a, b) => ...
        if key is _IDENT:
            if self._tokens[self._pos + 1].key == "=>":
                self._advance()
                self._advance()
                return self._finish_arrow([tok.value], tok.line, tok.col)
        elif key == "(":
            arrow = self._try_paren_arrow(tok)
            if arrow is not None:
                return arrow

        left = self.parse_binary(1)
        q = self._tok
        if q.key == "?":
            self._advance()
            consequent = self.parse_assignment()
            self._expect_punct(":")
            alternate = self.parse_assignment()
            left = N.ConditionalExpression(
                line=q.line, col=q.col, test=left, consequent=consequent, alternate=alternate
            )
        if self._tok.key in _ASSIGN_OPS:
            op_tok = self._advance()
            if not isinstance(left, (N.Identifier, N.MemberExpression)):
                raise self._error("invalid assignment target")
            value = self.parse_assignment()
            return N.AssignmentExpression(line=op_tok.line, col=op_tok.col, op=op_tok.value, target=left, value=value)
        return left

    def _try_paren_arrow(self, tok: Token) -> Optional[N.FunctionExpression]:
        """``( params ) =>`` at ``tok``, or None when the parens are not arrow params.

        Only identifiers and commas may sit between arrow parens, so the
        first other token decides: it must be the closing ``)`` (no paren
        can come before it) and ``=>`` must follow.  The scan stops there,
        after the would-be parameter list, rather than at the matching paren.
        """
        tokens = self._tokens
        end = self._pos + 1
        while tokens[end].key is _IDENT or tokens[end].key == ",":
            end += 1
        if tokens[end].key != ")" or tokens[end + 1].key != "=>":
            return None
        params = [t.value for t in tokens[self._pos + 1 : end] if t.key is _IDENT]
        self._pos = end + 2  # skip past ')' and '=>'
        self._tok = tokens[self._pos]
        return self._finish_arrow(params, tok.line, tok.col)

    def _finish_arrow(self, params: List[str], line: int, col: int = 0) -> N.FunctionExpression:
        if self._tok.key == "{":
            body = self.parse_block()
        else:
            expr = self.parse_assignment()
            body = N.Block(line=line, col=col, body=[N.ReturnStatement(line=line, col=col, argument=expr)])
        return N.FunctionExpression(line=line, col=col, params=params, body=body, is_arrow=True)

    def parse_binary(self, min_prec: int) -> N.Node:
        left = self.parse_unary()
        while True:
            tok = self._tok
            prec = _BINARY_PRECEDENCE.get(tok.key)
            if prec is None or prec < min_prec:
                return left
            self._advance()
            right = self.parse_binary(prec + 1)
            if prec > _LOGICAL_MAX_PREC:
                left = N.BinaryOp(line=tok.line, col=tok.col, op=tok.value, left=left, right=right)
            else:
                left = N.LogicalOp(line=tok.line, col=tok.col, op=tok.value, left=left, right=right)

    def parse_unary(self) -> N.Node:
        """Prefix operators, then a primary with its member/call chain, then postfix."""
        tok = self._tok
        key = tok.key
        if key in _UNARY_OPS:
            self._advance()
            return N.UnaryOp(line=tok.line, col=tok.col, op=tok.value, operand=self.parse_unary())
        if key == "++" or key == "--":
            self._advance()
            target = self.parse_unary()
            return N.UpdateExpression(line=tok.line, col=tok.col, op=tok.value, target=target, prefix=True)
        if key is _IDENT:
            self._pos += 1
            self._tok = self._tokens[self._pos]
            expr: N.Node = N.Identifier(line=tok.line, col=tok.col, name=tok.value)
        elif key == "new":
            self._advance()
            callee = self.parse_call_member_base()
            args: List[N.Node] = []
            if self._tok.key == "(":
                args = self._parse_args()
            expr = N.NewExpression(line=tok.line, col=tok.col, callee=callee, args=args)
        else:
            expr = self.parse_primary()
        while True:
            tok = self._tok
            key = tok.key
            if key == ".":
                self._advance()
                prop_tok = self._tok
                if prop_tok.type is not _IDENT and prop_tok.type is not _KEYWORD:
                    raise self._error("expected property name after '.'")
                self._pos += 1
                self._tok = self._tokens[self._pos]
                expr = N.MemberExpression(line=tok.line, col=tok.col, obj=expr, prop=prop_tok.value, computed=False)
            elif key == "[":
                self._advance()
                prop_expr = self.parse_expression()
                self._expect_punct("]")
                expr = N.MemberExpression(line=tok.line, col=tok.col, obj=expr, prop=prop_expr, computed=True)
            elif key == "(":
                args = self._parse_args()
                expr = N.CallExpression(line=tok.line, col=tok.col, callee=expr, args=args)
            elif key == "++" or key == "--":
                self._advance()
                return N.UpdateExpression(line=tok.line, col=tok.col, op=tok.value, target=expr, prefix=False)
            else:
                return expr

    def parse_call_member_base(self) -> N.Node:
        """Callee of ``new``: primary with member accesses but no calls."""
        expr = self.parse_primary()
        while self._tok.key == ".":
            tok = self._advance()
            prop = self._advance().value
            expr = N.MemberExpression(line=tok.line, col=tok.col, obj=expr, prop=prop, computed=False)
        return expr

    def _parse_args(self) -> List[N.Node]:
        self._expect_punct("(")
        args: List[N.Node] = []
        while self._tok.key != ")":
            args.append(self.parse_assignment())
            if self._tok.key == ",":
                self._advance()
        self._advance()
        return args

    def parse_primary(self) -> N.Node:
        tok = self._tok
        key = tok.key
        if key is _IDENT:
            self._advance()
            return N.Identifier(line=tok.line, col=tok.col, name=tok.value)
        if key is _NUMBER:
            self._advance()
            return N.NumberLiteral(line=tok.line, col=tok.col, value=tok.value)
        if key is _STRING:
            self._advance()
            return N.StringLiteral(line=tok.line, col=tok.col, value=tok.value)
        if key == "(":
            self._advance()
            expr = self.parse_expression()
            self._expect_punct(")")
            return expr
        if key == "[":
            self._advance()
            elements: List[N.Node] = []
            while self._tok.key != "]":
                elements.append(self.parse_assignment())
                if self._tok.key == ",":
                    self._advance()
            self._advance()
            return N.ArrayLiteral(line=tok.line, col=tok.col, elements=elements)
        if key == "{":
            return self.parse_object_literal()
        if key == "function":
            self._advance()
            name: Optional[str] = None
            if self._tok.key is _IDENT:
                name = self._advance().value
            params = self._parse_params()
            body = self.parse_block()
            return N.FunctionExpression(line=tok.line, col=tok.col, params=params, body=body, name=name)
        if key == "true" or key == "false":
            self._advance()
            return N.BooleanLiteral(line=tok.line, col=tok.col, value=key == "true")
        if key == "null":
            self._advance()
            return N.NullLiteral(line=tok.line, col=tok.col)
        if key == "undefined":
            self._advance()
            return N.UndefinedLiteral(line=tok.line, col=tok.col)
        if key == "this":
            self._advance()
            return N.ThisExpression(line=tok.line, col=tok.col)
        raise self._error(f"unexpected token {tok.value!r}")

    def parse_object_literal(self) -> N.ObjectLiteral:
        start = self._expect_punct("{")
        props: List = []
        while self._tok.key != "}":
            key_tok = self._tok
            key_type = key_tok.type
            if key_type is _IDENT or key_type is _KEYWORD:
                key = str(key_tok.value)
                self._advance()
            elif key_type is _STRING:
                key = key_tok.value
                self._advance()
            elif key_type is _NUMBER:
                key = _number_key(key_tok.value)
                self._advance()
            else:
                raise self._error(f"bad object key {key_tok.value!r}")
            self._expect_punct(":")
            value = self.parse_assignment()
            props.append((key, value))
            if self._tok.key == ",":
                self._advance()
        self._advance()
        return N.ObjectLiteral(line=start.line, col=start.col, properties=props)


def _number_key(value: float) -> str:
    if value == math.inf:  # a literal past the largest double
        return "Infinity"
    if value == int(value):
        return str(int(value))
    return repr(value)
