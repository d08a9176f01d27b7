"""Code generation: render AST programs back to text.

Two back ends:

* :func:`to_source` -- canonical DSL text; ``parse(to_source(p)) == p`` holds
  for every program the parser can produce (round-trip property, tested with
  hypothesis).  :func:`canonical_key` is its SHA-1, a candidate's identity.
  Both are rendered once per read-only (parsed) program and carried on it.
* :func:`to_c_like` -- C-flavoured rendering close to the paper's Listing 1,
  used when printing discovered heuristics in experiment reports.

Rendering a program as *Python* is not done here: :mod:`repro.dsl.compile` is
the one emitter of executable code (``to_callable_source`` for inspection).
"""

from __future__ import annotations

import hashlib
from typing import List

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

_PRECEDENCE = {
    "ternary": 1,
    "or": 2,
    "and": 3,
    "not": 4,
    "compare": 5,
    "+": 6,
    "-": 6,
    "*": 7,
    "/": 7,
    "//": 7,
    "%": 7,
    "unary": 8,
    "postfix": 9,
    "atom": 10,
}


def _format_number(value) -> str:
    if isinstance(value, float):
        text = repr(value)
        return text
    return str(value)


def expr_to_source(expr: Expr) -> str:
    """Render an expression in canonical DSL syntax."""
    text, _ = _render_expr(expr)
    return text


def _render_expr(expr: Expr) -> tuple[str, int]:
    """Return (text, precedence) so parents can parenthesise as needed."""
    if isinstance(expr, Number):
        if isinstance(expr.value, (int, float)) and expr.value < 0:
            return f"(-{_format_number(abs(expr.value))})", _PRECEDENCE["atom"]
        return _format_number(expr.value), _PRECEDENCE["atom"]
    if isinstance(expr, Name):
        return expr.id, _PRECEDENCE["atom"]
    if isinstance(expr, Attribute):
        base, base_prec = _render_expr(expr.value)
        if base_prec < _PRECEDENCE["postfix"]:
            base = f"({base})"
        return f"{base}.{expr.attr}", _PRECEDENCE["postfix"]
    if isinstance(expr, Call):
        func, func_prec = _render_expr(expr.func)
        if func_prec < _PRECEDENCE["postfix"]:
            func = f"({func})"
        args = ", ".join(expr_to_source(arg) for arg in expr.args)
        return f"{func}({args})", _PRECEDENCE["postfix"]
    if isinstance(expr, UnaryOp):
        operand, operand_prec = _render_expr(expr.operand)
        if expr.op == "not":
            if operand_prec < _PRECEDENCE["compare"]:
                operand = f"({operand})"
            return f"not {operand}", _PRECEDENCE["not"]
        if operand_prec < _PRECEDENCE["unary"]:
            operand = f"({operand})"
        return f"-{operand}", _PRECEDENCE["unary"]
    if isinstance(expr, BinOp):
        prec = _PRECEDENCE[expr.op]
        left, left_prec = _render_expr(expr.left)
        right, right_prec = _render_expr(expr.right)
        if left_prec < prec:
            left = f"({left})"
        # Right child needs parens at equal precedence for left-assoc ops.
        if right_prec <= prec:
            right = f"({right})"
        return f"{left} {expr.op} {right}", prec
    if isinstance(expr, Compare):
        prec = _PRECEDENCE["compare"]
        left, left_prec = _render_expr(expr.left)
        right, right_prec = _render_expr(expr.right)
        if left_prec <= prec:
            left = f"({left})"
        if right_prec <= prec:
            right = f"({right})"
        return f"{left} {expr.op} {right}", prec
    if isinstance(expr, BoolOp):
        prec = _PRECEDENCE[expr.op]
        parts: List[str] = []
        for value in expr.values:
            text, value_prec = _render_expr(value)
            if value_prec <= prec:
                text = f"({text})"
            parts.append(text)
        return f" {expr.op} ".join(parts), prec
    if isinstance(expr, Ternary):
        prec = _PRECEDENCE["ternary"]
        cond, cond_prec = _render_expr(expr.condition)
        if cond_prec <= prec:
            cond = f"({cond})"
        if_true, true_prec = _render_expr(expr.if_true)
        if true_prec <= prec:
            if_true = f"({if_true})"
        if_false, false_prec = _render_expr(expr.if_false)
        # ternary is right-associative: nested ternary on the right is fine
        if false_prec < prec:
            if_false = f"({if_false})"
        return f"{cond} ? {if_true} : {if_false}", prec
    raise TypeError(f"cannot render expression of type {type(expr).__name__}")


def _render_block(stmts: List[Stmt], indent: int) -> List[str]:
    pad = "    " * indent
    lines: List[str] = []
    for stmt in stmts:
        lines.extend(_render_stmt(stmt, indent))
    if not lines:
        lines = [pad + "# empty"]
    return lines


def _render_stmt(stmt: Stmt, indent: int) -> List[str]:
    pad = "    " * indent
    if isinstance(stmt, Assign):
        return [f"{pad}{stmt.target.id} = {expr_to_source(stmt.value)}"]
    if isinstance(stmt, AugAssign):
        return [f"{pad}{stmt.target.id} {stmt.op}= {expr_to_source(stmt.value)}"]
    if isinstance(stmt, Return):
        return [f"{pad}return {expr_to_source(stmt.value)}"]
    if isinstance(stmt, If):
        lines = [f"{pad}if ({expr_to_source(stmt.condition)}) {{"]
        lines.extend(_render_block(stmt.body, indent + 1))
        if stmt.orelse:
            lines.append(f"{pad}}} else {{")
            lines.extend(_render_block(stmt.orelse, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, ForRange):
        lines = [
            f"{pad}for ({stmt.var.id} in range({expr_to_source(stmt.limit)})) {{"
        ]
        lines.extend(_render_block(stmt.body, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, While):
        lines = [f"{pad}while ({expr_to_source(stmt.condition)}) {{"]
        lines.extend(_render_block(stmt.body, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    raise TypeError(f"cannot render statement of type {type(stmt).__name__}")


def to_source(program: Program) -> str:
    """Render ``program`` as canonical DSL text (parseable by ``parse``)."""
    return program.derive("source", _render_program)


def canonical_key(program: Program) -> str:
    """Stable identity of a candidate: SHA-1 of its canonical source."""
    return program.derive("key", _source_sha1)


def _source_sha1(program: Program) -> str:
    return hashlib.sha1(to_source(program).encode("utf-8")).hexdigest()


def _render_program(program: Program) -> str:
    header = f"def {program.name}({', '.join(program.params)}) {{"
    lines = [header]
    lines.extend(_render_block(program.body, 1))
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_c_like(program: Program) -> str:
    """Render ``program`` in a C-flavoured style (as in the paper's Listing 1)."""
    source = to_source(program)
    lines = []
    for line in source.splitlines():
        stripped = line.rstrip()
        if not stripped:
            continue
        body = stripped.strip()
        is_struct = (
            body.endswith("{")
            or body.endswith("}")
            or body.startswith("}")
            or body.startswith("def ")
            or body.startswith("#")
        )
        if is_struct:
            lines.append(stripped)
        else:
            lines.append(stripped + ";")
    return "\n".join(lines) + "\n"
