"""Tokenizer and recursive-descent parser for the heuristic DSL.

Surface syntax (a deliberately small C/Python hybrid, close to the paper's
Listing 1)::

    def priority(now, obj_id, obj_info, counts, ages, sizes, history) {
        score = obj_info.count * 20
        age = now - obj_info.last_accessed
        score -= age / 300
        if (history.contains(obj_id)) {
            score += history.count_of(obj_id) * 15
        } else {
            score -= 40
        }
        score += (obj_info.count > counts.percentile(0.7)) ? 50 : -5
        return score
    }

Statements are separated by newlines or semicolons; blocks use braces.
``parse`` returns a :class:`repro.dsl.ast.Program`.
"""

from __future__ import annotations

import functools
import re
from sys import intern
from dataclasses import dataclass
from typing import List, Tuple, Union

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
    Number,
    Program,
    Return,
    Stmt,
    Ternary,
    UnaryOp,
    While,
)
from repro.dsl.errors import DslSyntaxError

KEYWORDS = {
    "def",
    "if",
    "else",
    "for",
    "while",
    "in",
    "range",
    "return",
    "and",
    "or",
    "not",
    "true",
    "false",
}


@dataclass(slots=True)
class Token:
    """A lexical token with its source position (1-based)."""

    kind: str  # "number" | "name" | "keyword" | "op" | "newline" | "eof"
    text: str
    line: int
    column: int


@functools.lru_cache(maxsize=8)
def _token_pattern(digits: str = "", alphas: str = "", alnums: str = "") -> re.Pattern:
    """The master pattern: blanks, then exactly one token (or the end).

    ``str.isdigit`` / ``isalpha`` / ``isalnum`` decide what a number or a
    name is made of, and no ``re`` character class spells them, so the
    non-ASCII characters of a source that satisfy each are added to the
    ASCII classes by name (none, for nearly every candidate).
    """
    digit = f"[0-9{digits}]"
    return re.compile(
        rf"""[ \t\r]*(?:
            (?P<op>//=|[<>=!+\-*/%]=|[-+*%<>=?:,(){{}};]|/(?!/)|\.(?!{digit}))
          | (?P<name>[A-Za-z_{alphas}][A-Za-z0-9_{alnums}]*)
          | (?P<number>{digit}+(?:\.{digit}+)?|\.{digit}+)
          | (?P<newline>\n)
          | (?P<slashes>//)
          | (?P<comment>\#[^\n]*)
          | (?P<end>\Z)
        )""",
        re.VERBOSE,
    )


def tokenize(source: str) -> List[Token]:
    """Split ``source`` into tokens, raising :class:`DslSyntaxError` on junk."""
    if source.isascii():
        match = _token_pattern().match
    else:
        foreign = sorted({ch for ch in source if not ch.isascii()})
        match = _token_pattern(
            *("".join(filter(test, foreign)) for test in (str.isdigit, str.isalpha, str.isalnum))
        ).match
    tokens: List[Token] = []
    line = 1
    line_start = 0
    pos = 0
    while True:
        found = match(source, pos)
        if found is None:
            while source[pos] in " \t\r":
                pos += 1
            raise DslSyntaxError(
                f"unexpected character {source[pos]!r}", line, pos - line_start + 1
            )
        kind = found.lastgroup
        column = found.start(kind) - line_start + 1
        pos = found.end()
        if kind == "op" or kind == "name":
            # Interned: a search's thousands of ASTs share one small
            # vocabulary, and their nodes keep these strings.
            text = intern(found[kind])
            tokens.append(Token("keyword" if text in KEYWORDS else kind, text, line, column))
        elif kind == "number":
            tokens.append(Token(kind, found[kind], line, column))
        elif kind == "newline":
            tokens.append(Token(kind, "\n", line, column))
            line += 1
            line_start = pos
        elif kind == "slashes":
            # "//" (not "//=") is integer division after something an
            # expression could continue from, and otherwise a comment.
            prev = tokens[-1] if tokens else None
            if prev is not None and (
                prev.kind in ("number", "name") or (prev.kind == "op" and prev.text == ")")
            ):
                tokens.append(Token("op", "//", line, column))
            else:
                end = source.find("\n", pos)
                pos = len(source) if end < 0 else end
        elif kind == "end":
            tokens.append(Token("eof", "", line, column))
            return tokens


class _Parser:
    """Recursive-descent parser over the token stream.

    ``_tags`` holds, per token, what the grammar dispatches on: the text of
    an operator or keyword, the kind of anything else (``"name"``,
    ``"number"``, ``"newline"``, ``"eof"`` -- no operator or keyword is
    spelled like a kind).  The stream ends in ``eof`` and ``_pos`` never
    moves past it, so ``_tags[_pos]`` is always a valid read.
    """

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._tags = [
            t.text if t.kind == "op" or t.kind == "keyword" else t.kind for t in tokens
        ]
        self._pos = 0

    # -- token helpers ------------------------------------------------------

    def _match(self, tag: str) -> bool:
        if self._tags[self._pos] == tag:
            self._pos += 1
            return True
        return False

    def _expect(self, tag: str) -> str:
        """Consume a ``tag`` token and return its text."""
        token = self._tokens[self._pos]
        if self._tags[self._pos] != tag:
            raise DslSyntaxError(
                f"expected {tag!r} but found {token.text or token.kind!r}",
                token.line,
                token.column,
            )
        self._pos += 1
        return token.text

    def _unexpected(self, what: str) -> DslSyntaxError:
        token = self._tokens[self._pos]
        return DslSyntaxError(
            f"{what} {token.text or token.kind!r}", token.line, token.column
        )

    def _skip_separators(self) -> None:
        tags = self._tags
        while tags[self._pos] in ("newline", ";"):
            self._pos += 1

    # -- entry point --------------------------------------------------------

    def parse_program(self) -> Program:
        self._skip_separators()
        self._expect("def")
        name = self._expect("name")
        self._expect("(")
        params: List[str] = []
        if self._tags[self._pos] != ")":
            params.append(self._expect("name"))
            while self._match(","):
                self._skip_separators()
                params.append(self._expect("name"))
        self._expect(")")
        self._skip_separators()
        body = self._parse_block()
        self._skip_separators()
        if self._tags[self._pos] != "eof":
            raise self._unexpected("unexpected trailing input")
        return Program(name=name, params=params, body=body)

    # -- statements ---------------------------------------------------------

    def _parse_block(self) -> List[Stmt]:
        self._expect("{")
        statements: List[Stmt] = []
        self._skip_separators()
        while self._tags[self._pos] != "}":
            statements.append(self._parse_statement())
            self._skip_separators()
        self._pos += 1
        return statements

    def _parse_statement(self) -> Stmt:
        tag = self._tags[self._pos]
        if tag == "name":
            op = self._tags[self._pos + 1]
            if op in ("=", "+=", "-=", "*=", "/=", "//=", "%="):
                target = Name(self._tokens[self._pos].text)
                self._pos += 2
                value = self._parse_ternary()
                if op == "=":
                    return Assign(target, value)
                return AugAssign(target, op[:-1], value)
        elif tag == "return":
            self._pos += 1
            return Return(self._parse_ternary())
        elif tag == "if":
            return self._parse_if()
        elif tag == "for":
            return self._parse_for()
        elif tag == "while":
            return self._parse_while()
        raise self._unexpected("expected a statement but found")

    def _parse_if(self) -> If:
        self._expect("if")
        self._expect("(")
        condition = self._parse_ternary()
        self._expect(")")
        self._skip_separators()
        body = self._parse_block()
        orelse: List[Stmt] = []
        checkpoint = self._pos
        self._skip_separators()
        if self._match("else"):
            self._skip_separators()
            if self._tags[self._pos] == "if":
                orelse = [self._parse_if()]
            else:
                orelse = self._parse_block()
        else:
            self._pos = checkpoint
        return If(condition, body, orelse)

    def _parse_for(self) -> ForRange:
        self._expect("for")
        self._expect("(")
        var = Name(self._expect("name"))
        self._expect("in")
        self._expect("range")
        self._expect("(")
        limit = self._parse_ternary()
        self._expect(")")
        self._expect(")")
        self._skip_separators()
        return ForRange(var, limit, self._parse_block())

    def _parse_while(self) -> While:
        self._expect("while")
        self._expect("(")
        condition = self._parse_ternary()
        self._expect(")")
        self._skip_separators()
        return While(condition, self._parse_block())

    # -- expressions (lowest precedence first) ------------------------------

    def _parse_ternary(self) -> Expr:
        condition = self._parse_or()
        if self._match("?"):
            if_true = self._parse_ternary()
            self._expect(":")
            return Ternary(condition, if_true, self._parse_ternary())
        return condition

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        if self._tags[self._pos] != "or":
            return left
        values = [left]
        while self._match("or"):
            values.append(self._parse_and())
        return BoolOp("or", values)

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        if self._tags[self._pos] != "and":
            return left
        values = [left]
        while self._match("and"):
            values.append(self._parse_not())
        return BoolOp("and", values)

    def _parse_not(self) -> Expr:
        if self._match("not"):
            return UnaryOp("not", self._parse_not())
        left = self._parse_additive()
        op = self._tags[self._pos]
        if op in ("<", "<=", ">", ">=", "==", "!="):
            self._pos += 1
            return Compare(op, left, self._parse_additive())
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        tags = self._tags
        while tags[self._pos] in ("+", "-"):
            op = tags[self._pos]
            self._pos += 1
            left = BinOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        tags = self._tags
        while tags[self._pos] in ("*", "/", "//", "%"):
            op = tags[self._pos]
            self._pos += 1
            left = BinOp(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expr:
        if self._match("-"):
            return UnaryOp("-", self._parse_unary())
        if self._match("+"):
            return self._parse_unary()
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        tags = self._tags
        while True:
            tag = tags[self._pos]
            if tag == ".":
                self._pos += 1
                expr = Attribute(expr, self._expect("name"))
            elif tag == "(":
                self._pos += 1
                args: List[Expr] = []
                self._skip_separators()
                if tags[self._pos] != ")":
                    args.append(self._parse_ternary())
                    while self._match(","):
                        self._skip_separators()
                        args.append(self._parse_ternary())
                self._expect(")")
                expr = Call(expr, args)
            else:
                return expr

    def _parse_primary(self) -> Expr:
        tag = self._tags[self._pos]
        text = self._tokens[self._pos].text
        if tag == "name":
            self._pos += 1
            return Name(text)
        if tag == "number":
            self._pos += 1
            return Number(float(text) if "." in text else int(text))
        if tag in ("true", "false"):
            self._pos += 1
            return Number(1 if tag == "true" else 0)
        if tag == "(":
            self._pos += 1
            expr = self._parse_ternary()
            self._expect(")")
            return expr
        raise self._unexpected("expected an expression but found")


@functools.lru_cache(maxsize=256)
def _parse_memo(source: str) -> Union[Program, Tuple[str, int, int]]:
    """One tokenise + parse per distinct text: the ``Program``, or what its
    ``DslSyntaxError`` said -- as plain values, because a remembered
    exception object would pin the frames of every raise through its
    ``__traceback__``."""
    try:
        program = _Parser(tokenize(source)).parse_program()
    except DslSyntaxError as exc:
        return (exc.message, exc.line, exc.column)
    program.derived = {}
    return program


def parse(source: str) -> Program:
    """Parse DSL source text into a :class:`Program`.

    Raises :class:`DslSyntaxError` with line/column information on failure,
    which the Checker surfaces back to the Generator as feedback.

    Repeated text is served from a small per-process memo (the search loop
    parses a candidate's text in the generator's parent handling, in each
    checker and in repair), so the program returned is shared and
    **read-only**: ``clone()`` it before changing anything.
    """
    parsed = _parse_memo(source)
    if type(parsed) is tuple:
        raise DslSyntaxError(*parsed)
    return parsed
