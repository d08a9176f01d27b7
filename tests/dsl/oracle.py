"""The DSL front end's oracles: the code ``repro.dsl`` ran before it parsed,
walked and rendered each distinct text once, kept verbatim.

* :func:`tokenize` / :class:`_Parser` / :func:`parse` -- the character-by-
  character tokenizer and the ``_peek``/``_check`` parser (no memo);
* :func:`clone` -- ``copy.deepcopy``;
* :func:`children` / :func:`walk` -- the reflective traversal (every field,
  ``isinstance`` on every value);
* :func:`free_names` -- ``Program.free_names``, the scoping walk that was the
  only definition of a free name (its one call is the oracle's only edit);
* :func:`analyze` -- ``size()`` + ``free_names()`` + the main walk +
  ``_expression_depth`` re-descending from every node.

``tests/dsl/test_frontend_differential.py`` runs them beside the real ones,
so every difference is a bug in the rewrite.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.dsl.analysis import DivisionSite, ProgramFacts, _brief_repr
from repro.dsl.ast import (
    Assign,
    Attribute,
    AugAssign,
    BinOp,
    BoolOp,
    Call,
    Compare,
    Expr,
    ForRange,
    If,
    Name,
    Node,
    Number,
    Program,
    Return,
    Stmt,
    Ternary,
    UnaryOp,
    While,
)
from repro.dsl.errors import DslSyntaxError
from repro.dsl.parser import KEYWORDS

# --------------------------------------------------------------------------
# Tokenizer and parser
# --------------------------------------------------------------------------

_TWO_CHAR_OPS = ("<=", ">=", "==", "!=", "+=", "-=", "*=", "//", "/=", "%=")
_THREE_CHAR_OPS = ("//=",)
_SINGLE_CHAR_OPS = "+-*/%<>=?:,.(){};"


@dataclass
class Token:
    """A lexical token with its source position (1-based)."""

    kind: str  # "number" | "name" | "keyword" | "op" | "newline" | "eof"
    text: str
    line: int
    column: int


def tokenize(source: str) -> List[Token]:
    """Split ``source`` into tokens, raising :class:`DslSyntaxError` on junk."""
    tokens: List[Token] = []
    line = 1
    column = 1
    i = 0
    length = len(source)

    def add(kind: str, text: str) -> None:
        tokens.append(Token(kind, text, line, column))

    while i < length:
        ch = source[i]
        if ch == "\n":
            add("newline", "\n")
            i += 1
            line += 1
            column = 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if ch == "#":
            while i < length and source[i] != "\n":
                i += 1
                column += 1
            continue
        if ch == "/" and i + 1 < length and source[i + 1] == "/" and (
            i + 2 >= length or not source[i + 2] == "="
        ):
            # Could be a comment ("// text") or integer division ("a // b").
            # Heuristic: it is a comment if the previous meaningful token is
            # not something an expression could continue from.
            prev = tokens[-1] if tokens else None
            expression_tail = prev is not None and (
                prev.kind in ("number", "name")
                or (prev.kind == "op" and prev.text in (")",))
            )
            if not expression_tail:
                while i < length and source[i] != "\n":
                    i += 1
                    column += 1
                continue
        if ch.isdigit() or (ch == "." and i + 1 < length and source[i + 1].isdigit()):
            start = i
            start_col = column
            seen_dot = False
            while i < length and (source[i].isdigit() or (source[i] == "." and not seen_dot)):
                if source[i] == ".":
                    # Do not absorb the dot of an attribute access like "1 .foo"
                    if i + 1 >= length or not source[i + 1].isdigit():
                        break
                    seen_dot = True
                i += 1
            text = source[start:i]
            tokens.append(Token("number", text, line, start_col))
            column = start_col + len(text)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_col = column
            while i < length and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            kind = "keyword" if text in KEYWORDS else "name"
            tokens.append(Token(kind, text, line, start_col))
            column = start_col + len(text)
            continue
        matched = None
        for op in _THREE_CHAR_OPS:
            if source.startswith(op, i):
                matched = op
                break
        if matched is None:
            for op in _TWO_CHAR_OPS:
                if source.startswith(op, i):
                    matched = op
                    break
        if matched is None and ch in _SINGLE_CHAR_OPS:
            matched = ch
        if matched is None:
            raise DslSyntaxError(f"unexpected character {ch!r}", line, column)
        add("op", matched)
        i += len(matched)
        column += len(matched)
    tokens.append(Token("eof", "", line, column))
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _check(self, kind: str, text: Optional[str] = None) -> bool:
        token = self._peek()
        return token.kind == kind and (text is None or token.text == text)

    def _match(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        if self._check(kind, text):
            return self._advance()
        token = self._peek()
        expected = text if text is not None else kind
        raise DslSyntaxError(
            f"expected {expected!r} but found {token.text or token.kind!r}",
            token.line,
            token.column,
        )

    def _skip_separators(self) -> None:
        while self._check("newline") or self._check("op", ";"):
            self._advance()

    # -- entry point --------------------------------------------------------

    def parse_program(self) -> Program:
        self._skip_separators()
        self._expect("keyword", "def")
        name = self._expect("name").text
        self._expect("op", "(")
        params: List[str] = []
        if not self._check("op", ")"):
            params.append(self._expect("name").text)
            while self._match("op", ","):
                self._skip_separators()
                params.append(self._expect("name").text)
        self._expect("op", ")")
        self._skip_separators()
        body = self._parse_block()
        self._skip_separators()
        token = self._peek()
        if token.kind != "eof":
            raise DslSyntaxError(
                f"unexpected trailing input {token.text!r}", token.line, token.column
            )
        return Program(name=name, params=params, body=body)

    # -- statements ---------------------------------------------------------

    def _parse_block(self) -> List[Stmt]:
        self._expect("op", "{")
        statements: List[Stmt] = []
        self._skip_separators()
        while not self._check("op", "}"):
            statements.append(self._parse_statement())
            self._skip_separators()
        self._expect("op", "}")
        return statements

    def _parse_statement(self) -> Stmt:
        if self._check("keyword", "return"):
            self._advance()
            return Return(value=self._parse_expression())
        if self._check("keyword", "if"):
            return self._parse_if()
        if self._check("keyword", "for"):
            return self._parse_for()
        if self._check("keyword", "while"):
            return self._parse_while()
        if self._check("name"):
            nxt = self._peek(1)
            if nxt.kind == "op" and nxt.text in ("=", "+=", "-=", "*=", "/=", "//=", "%="):
                target = Name(id=self._advance().text)
                op_token = self._advance()
                value = self._parse_expression()
                if op_token.text == "=":
                    return Assign(target=target, value=value)
                return AugAssign(target=target, op=op_token.text[:-1], value=value)
        token = self._peek()
        raise DslSyntaxError(
            f"expected a statement but found {token.text or token.kind!r}",
            token.line,
            token.column,
        )

    def _parse_if(self) -> If:
        self._expect("keyword", "if")
        self._expect("op", "(")
        condition = self._parse_expression()
        self._expect("op", ")")
        self._skip_separators()
        body = self._parse_block()
        orelse: List[Stmt] = []
        checkpoint = self._pos
        self._skip_separators()
        if self._check("keyword", "else"):
            self._advance()
            self._skip_separators()
            if self._check("keyword", "if"):
                orelse = [self._parse_if()]
            else:
                orelse = self._parse_block()
        else:
            self._pos = checkpoint
        return If(condition=condition, body=body, orelse=orelse)

    def _parse_for(self) -> ForRange:
        self._expect("keyword", "for")
        self._expect("op", "(")
        var = Name(id=self._expect("name").text)
        self._expect("keyword", "in")
        self._expect("keyword", "range")
        self._expect("op", "(")
        limit = self._parse_expression()
        self._expect("op", ")")
        self._expect("op", ")")
        self._skip_separators()
        body = self._parse_block()
        return ForRange(var=var, limit=limit, body=body)

    def _parse_while(self) -> While:
        self._expect("keyword", "while")
        self._expect("op", "(")
        condition = self._parse_expression()
        self._expect("op", ")")
        self._skip_separators()
        body = self._parse_block()
        return While(condition=condition, body=body)

    # -- expressions --------------------------------------------------------

    def _parse_expression(self) -> Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> Expr:
        condition = self._parse_or()
        if self._match("op", "?"):
            if_true = self._parse_ternary()
            self._expect("op", ":")
            if_false = self._parse_ternary()
            return Ternary(condition=condition, if_true=if_true, if_false=if_false)
        return condition

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        values = [left]
        while self._check("keyword", "or"):
            self._advance()
            values.append(self._parse_and())
        if len(values) == 1:
            return left
        return BoolOp(op="or", values=values)

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        values = [left]
        while self._check("keyword", "and"):
            self._advance()
            values.append(self._parse_not())
        if len(values) == 1:
            return left
        return BoolOp(op="and", values=values)

    def _parse_not(self) -> Expr:
        if self._check("keyword", "not"):
            self._advance()
            return UnaryOp(op="not", operand=self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        if self._peek().kind == "op" and self._peek().text in ("<", "<=", ">", ">=", "==", "!="):
            op = self._advance().text
            right = self._parse_additive()
            return Compare(op=op, left=left, right=right)
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while self._peek().kind == "op" and self._peek().text in ("+", "-"):
            op = self._advance().text
            right = self._parse_multiplicative()
            left = BinOp(op=op, left=left, right=right)
        return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while self._peek().kind == "op" and self._peek().text in ("*", "/", "//", "%"):
            op = self._advance().text
            right = self._parse_unary()
            left = BinOp(op=op, left=left, right=right)
        return left

    def _parse_unary(self) -> Expr:
        if self._check("op", "-"):
            self._advance()
            return UnaryOp(op="-", operand=self._parse_unary())
        if self._check("op", "+"):
            self._advance()
            return self._parse_unary()
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while True:
            if self._match("op", "."):
                attr = self._expect("name").text
                expr = Attribute(value=expr, attr=attr)
            elif self._check("op", "("):
                self._advance()
                args: List[Expr] = []
                self._skip_separators()
                if not self._check("op", ")"):
                    args.append(self._parse_expression())
                    while self._match("op", ","):
                        self._skip_separators()
                        args.append(self._parse_expression())
                self._expect("op", ")")
                expr = Call(func=expr, args=args)
            else:
                return expr

    def _parse_primary(self) -> Expr:
        token = self._peek()
        if token.kind == "number":
            self._advance()
            if "." in token.text:
                return Number(value=float(token.text))
            return Number(value=int(token.text))
        if token.kind == "keyword" and token.text in ("true", "false"):
            self._advance()
            return Number(value=1 if token.text == "true" else 0)
        if token.kind == "name":
            self._advance()
            return Name(id=token.text)
        if token.kind == "op" and token.text == "(":
            self._advance()
            expr = self._parse_expression()
            self._expect("op", ")")
            return expr
        raise DslSyntaxError(
            f"expected an expression but found {token.text or token.kind!r}",
            token.line,
            token.column,
        )


def parse(source: str) -> Program:
    """Tokenise and parse ``source`` afresh: no memo, no ``derived``."""
    return _Parser(tokenize(source)).parse_program()


# --------------------------------------------------------------------------
# Traversal, clone and analysis
# --------------------------------------------------------------------------


def children(node: Node) -> Iterator[Node]:
    """``Node.children`` as it was: every field, tested by ``isinstance``."""
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, Node):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, Node):
                    yield item


def walk(node: Node) -> Iterator[Node]:
    """``Node.walk`` as it was, over :func:`children`."""
    yield node
    for child in children(node):
        yield from walk(child)


def free_names(self: Program) -> List[str]:
    """Names read before ever being assigned at the top level.

    Used by checkers to verify the candidate only references parameters
    and locally-defined variables.
    """
    assigned = set(self.params)
    free: List[str] = []

    def visit_expr(expr: Expr) -> None:
        for node in expr.walk():
            if isinstance(node, Name) and node.id not in assigned:
                if node.id not in free:
                    free.append(node.id)

    def visit_block(stmts: Sequence[Stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, Assign):
                visit_expr(stmt.value)
                assigned.add(stmt.target.id)
            elif isinstance(stmt, AugAssign):
                visit_expr(stmt.value)
                if stmt.target.id not in assigned:
                    if stmt.target.id not in free:
                        free.append(stmt.target.id)
                assigned.add(stmt.target.id)
            elif isinstance(stmt, If):
                visit_expr(stmt.condition)
                visit_block(stmt.body)
                visit_block(stmt.orelse)
            elif isinstance(stmt, ForRange):
                visit_expr(stmt.limit)
                assigned.add(stmt.var.id)
                visit_block(stmt.body)
            elif isinstance(stmt, While):
                visit_expr(stmt.condition)
                visit_block(stmt.body)
            elif isinstance(stmt, Return):
                visit_expr(stmt.value)

    visit_block(self.body)
    return free


def clone(node: Node) -> Node:
    """``Node.clone`` as it was."""
    return copy.deepcopy(node)


def _expression_depth(node) -> int:
    children = list(node.children())
    if not children:
        return 1
    return 1 + max(_expression_depth(child) for child in children)


def analyze(program: Program) -> ProgramFacts:
    """Compute :class:`ProgramFacts` for ``program`` in a single AST walk."""
    facts = ProgramFacts(
        has_return=False,
        return_count=0,
        uses_float_literal=False,
        uses_true_division=False,
    )
    facts.node_count = program.size()
    facts.free_names = list(free_names(program))

    for node in program.walk():
        if isinstance(node, Return):
            facts.has_return = True
            facts.return_count += 1
        elif isinstance(node, Number):
            if node.is_float():
                facts.uses_float_literal = True
        elif isinstance(node, Name):
            facts.names_read.add(node.id)
        elif isinstance(node, While):
            facts.while_loop_count += 1
        elif isinstance(node, ForRange):
            facts.for_loop_count += 1
            if not isinstance(node.limit, Number):
                facts.unbounded_for_count += 1
        elif isinstance(node, Attribute):
            base = node.value
            base_name = base.id if isinstance(base, Name) else "<expr>"
            facts.attributes_read.add((base_name, node.attr))
        elif isinstance(node, Call):
            func = node.func
            if isinstance(func, Attribute):
                base = func.value
                base_name = base.id if isinstance(base, Name) else "<expr>"
                facts.methods_called.add((base_name, func.attr))
                # A method call is not an attribute *read*; remove the entry
                # the Attribute branch will add when it visits func.
            elif isinstance(func, Name):
                facts.methods_called.add(("<builtin>", func.id))
        elif isinstance(node, BinOp):
            if node.op == "/":
                facts.uses_true_division = True
            if node.op in ("/", "//", "%"):
                divisor = node.right
                checked = isinstance(divisor, Number) and divisor.value != 0
                facts.division_sites.append(
                    DivisionSite(
                        op=node.op,
                        checked=checked,
                        divisor_repr=_brief_repr(divisor),
                    )
                )
        depth = _expression_depth(node)
        if depth > facts.max_expression_depth:
            facts.max_expression_depth = depth

    # Method calls also show up as attribute reads because Call.func is an
    # Attribute node; strip them so "attributes_read" means data accesses.
    facts.attributes_read -= facts.methods_called
    return facts
