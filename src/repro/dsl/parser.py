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

``_scan`` reads a text with one ``findall`` and a dict lookup per token;
no :class:`Token` is built and no position counted on the way to a program
(an error finds its position with the same pattern; :func:`tokenize` is
the positioned view tests read).
"""

from __future__ import annotations

import functools
import re
import string
from sys import intern
from dataclasses import dataclass
from typing import Iterator, List, Tuple, Union

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
    """A token's text (name, number, operator, ``#`` comment, newline, junk
    character or the end) as the one group, then blanks: the matches tile
    the source after its leading blanks.  ``str.isdigit`` / ``isalpha`` /
    ``isalnum`` decide what a number or a name is made of, and no ``re``
    class spells them, so a source's non-ASCII characters that satisfy
    each join the ASCII classes by name (none, for nearly every candidate).
    """
    digit = f"[0-9{digits}]"
    return re.compile(
        rf"""(
            [A-Za-z_{alphas}][A-Za-z0-9_{alnums}]*
          | {digit}+(?:\.{digit}+)?|\.{digit}+
          | [<>=!+\-*%]=|//?=?|[-+*%<>=?:,(){{}};.]
          | \#[^\n]* | [^ \t\r] | \Z
        )[ \t\r]*""",
        re.VERBOSE,
    )


def _pattern_for(source: str) -> re.Pattern:
    if source.isascii():
        return _token_pattern()
    foreign = sorted({ch for ch in source if not ch.isascii()})
    return _token_pattern(
        *("".join(filter(test, foreign)) for test in (str.isdigit, str.isalpha, str.isalnum))
    )


#: Tag by text (an operator or keyword is its own), else by a first ASCII character.
_OPS = "//= <= >= == != += -= *= /= %= // / . ( ) { } ; , ? : = < > - + * %".split()
_FIXED = {text: text for text in (*_OPS, *KEYWORDS)} | {"\n": "newline", "": "eof"}
_LEADS = dict.fromkeys("0123456789.", "number") | dict.fromkeys(string.ascii_letters + "_", "name")


def _scan(source: str) -> Tuple[List[str], List[str]]:
    """The tags and texts of ``source``'s tokens, up to ``eof``; a tag is an
    operator's or keyword's text, else the kind (``name``, ``number``,
    ``newline``, ``eof``).  Raises :class:`DslSyntaxError` on junk."""
    texts = _pattern_for(source).findall(source)
    tags = [_FIXED.get(text) or _LEADS.get(text[0]) for text in texts]
    at = 0
    while "//" in tags[at:]:
        # Division after what an expression continues from (untagged here: a
        # non-ASCII name or number, or junk, which raises below), else a comment.
        at = tags.index("//", at)
        if at and tags[at - 1] in ("name", "number", ")", None):
            at += 1
        else:
            end = at
            while tags[end] != "newline" and tags[end] != "eof":
                end += 1
            del tags[at:end], texts[at:end]
    if not all(tags):
        comments = []
        for at, text in enumerate(texts):
            if tags[at] is None:
                if text[0] == "#":
                    comments.append(at)
                elif text[0].isdigit() or text[0].isalpha():
                    tags[at] = "number" if text[0].isdigit() else "name"
                else:
                    error = f"unexpected character {text!r}"
                    raise DslSyntaxError(error, *list(_positions(source, tags[: at + 1]))[-1])
        for at in reversed(comments):
            del tags[at], texts[at]
    return tags, texts


def _positions(source: str, tags: List[str]) -> Iterator[Tuple[int, int]]:
    """Line and column of each token of ``tags`` (a prefix of ``_scan``'s):
    a newline or the end where it is, any other token the next match on its
    line (a line's tokens are its first matches, a comment's after them)."""
    pattern = _pattern_for(source)
    matches = pattern.finditer(source)
    line, start = 1, 0
    for tag in tags:
        if tag == "newline":
            at = source.index("\n", start)
        else:
            at = len(source) if tag == "eof" else next(matches).start(1)
        yield line, at - start + 1
        if tag == "newline":
            line, start = line + 1, at + 1
            matches = pattern.finditer(source, start)


def tokenize(source: str) -> List[Token]:
    """``source``'s tokens with their positions: the scan ``parse`` runs,
    which builds no :class:`Token`, in a positioned view."""
    tags, texts = _scan(source)
    kinds = (("keyword" if t in KEYWORDS else "op") if t in _FIXED else t for t in tags)
    return [Token(*token, *at) for *token, at in zip(kinds, texts, _positions(source, tags))]


class _Parser:
    """Recursive-descent parser over ``_scan``'s parallel tags and texts.

    They end in ``eof`` and ``_pos`` never moves past it, so ``_tags[_pos]``
    is always a valid read.  Positions are worked out only for an error.
    """

    def __init__(self, source: str):
        self._source = source
        self._tags, self._texts = _scan(source)
        self._pos = 0

    # -- token helpers ------------------------------------------------------

    def _match(self, tag: str) -> bool:
        if self._tags[self._pos] == tag:
            self._pos += 1
            return True
        return False

    def _expect(self, tag: str) -> str:
        """Consume a ``tag`` token and return its text."""
        if self._tags[self._pos] != tag:
            raise self._unexpected(f"expected {tag!r} but found")
        self._pos += 1
        # Interned: a search's thousands of trees share one small vocabulary.
        return intern(self._texts[self._pos - 1])

    def _unexpected(self, what: str) -> DslSyntaxError:
        """``what``, the current token and its position, as an error."""
        pos = self._pos
        return DslSyntaxError(
            f"{what} {self._texts[pos] or self._tags[pos]!r}",
            *list(_positions(self._source, self._tags[: pos + 1]))[-1],
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
                target = Name(intern(self._texts[self._pos]))
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
        if self._tags[self._pos] == "?":
            self._pos += 1
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
        if self._tags[self._pos] == "not":
            self._pos += 1
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
        tag = self._tags[self._pos]
        if tag == "-" or tag == "+":
            self._pos += 1
            operand = self._parse_unary()
            return UnaryOp("-", operand) if tag == "-" else operand
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
        text = self._texts[self._pos]
        if tag == "name":
            self._pos += 1
            return Name(intern(text))
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
        program = _Parser(source).parse_program()
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
