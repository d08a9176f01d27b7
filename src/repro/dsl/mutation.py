"""Evolutionary operators over candidate programs.

The synthetic LLM "remixes" the parent heuristics it is shown exactly the way
the paper describes LLMs remixing known techniques: by perturbing constants,
swapping operators and comparisons, inserting new score adjustments sampled
from the grammar, deleting statements, and splicing statement blocks from two
parents (crossover).

All operators are pure: they deep-copy their inputs and never modify the
parents, so the search archive can safely keep references to earlier
generations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.dsl.ast import (
    Assign,
    AugAssign,
    BinOp,
    Compare,
    Number,
    Program,
    Return,
    Stmt,
    Ternary,
    iter_blocks,
)
from repro.dsl.grammar import FeatureSpec, GrammarConfig, _score_update


@dataclass
class MutationConfig:
    """Probabilities and magnitudes for the mutation operators."""

    constant_jitter: float = 0.5
    operator_swap: float = 0.25
    comparison_swap: float = 0.25
    insert_statement: float = 0.35
    delete_statement: float = 0.2
    flip_sign: float = 0.15
    max_mutations: int = 3


_ARITH_SWAPS = {
    "+": ["-", "*"],
    "-": ["+"],
    "*": ["+", "//"],
    "/": ["//", "*"],
    "//": ["/", "*"],
    "%": ["//"],
}

_COMPARE_SWAPS = {
    "<": [">", "<=", ">="],
    "<=": [">=", "<"],
    ">": ["<", ">=", "<="],
    ">=": ["<=", ">"],
    "==": ["!=", "<", ">"],
    "!=": ["=="],
}


def _jitter_constant(node: Number, rng: random.Random) -> None:
    """Perturb a numeric literal, preserving int-ness."""
    value = node.value
    if isinstance(value, bool):
        return
    if value == 0:
        node.value = rng.choice([1, 2, 5, -1])
        return
    factor = rng.choice([0.5, 0.75, 0.9, 1.1, 1.25, 1.5, 2.0])
    new_value = value * factor
    if isinstance(value, int):
        new_value = int(round(new_value))
        if new_value == value:
            new_value = value + rng.choice([-1, 1])
    node.value = new_value


def _mutable_statement_blocks(program: Program) -> List[List[Stmt]]:
    return [block for block in iter_blocks(program)]


def _is_protected(stmt: Stmt, block: List[Stmt]) -> bool:
    """Never delete the only return or the initial score assignment."""
    if isinstance(stmt, Return):
        return True
    if isinstance(stmt, Assign) and block and block[0] is stmt:
        return True
    return False


def mutate(
    program: Program,
    spec: FeatureSpec,
    rng: random.Random,
    config: Optional[MutationConfig] = None,
    grammar: Optional[GrammarConfig] = None,
) -> Program:
    """Return a mutated deep copy of ``program``.

    Applies between one and ``config.max_mutations`` randomly chosen
    operators.  The result is guaranteed to still contain a return statement;
    beyond that there is deliberately no validation -- the Checker is the
    arbiter of whether a candidate is acceptable, as in the paper.
    """
    config = config or MutationConfig()
    grammar = grammar or GrammarConfig()
    clone = program.clone()

    mutation_count = rng.randint(1, config.max_mutations)
    applied = 0
    attempts = 0
    while applied < mutation_count and attempts < mutation_count * 6:
        attempts += 1
        if _apply_one(clone, spec, rng, config, grammar):
            applied += 1
    if not clone.returns():
        clone.body.append(Return(value=Number(value=0)))
    return clone


def _apply_one(
    program: Program,
    spec: FeatureSpec,
    rng: random.Random,
    config: MutationConfig,
    grammar: GrammarConfig,
) -> bool:
    """Apply a single randomly selected operator; return True on success."""
    operators = []
    operators.append(("constant", config.constant_jitter))
    operators.append(("arith", config.operator_swap))
    operators.append(("compare", config.comparison_swap))
    operators.append(("insert", config.insert_statement))
    operators.append(("delete", config.delete_statement))
    operators.append(("flip", config.flip_sign))
    total = sum(weight for _name, weight in operators)
    pick = rng.random() * total
    cumulative = 0.0
    choice = operators[-1][0]
    for name, weight in operators:
        cumulative += weight
        if pick <= cumulative:
            choice = name
            break

    if choice == "constant":
        numbers = [n for n in program.walk() if isinstance(n, Number)]
        if not numbers:
            return False
        _jitter_constant(rng.choice(numbers), rng)
        return True

    if choice == "arith":
        binops = [n for n in program.walk() if isinstance(n, BinOp) and n.op in _ARITH_SWAPS]
        if not binops:
            return False
        node = rng.choice(binops)
        node.op = rng.choice(_ARITH_SWAPS[node.op])
        if spec.integer_only and node.op == "/":
            node.op = "//"
        return True

    if choice == "compare":
        compares = [n for n in program.walk() if isinstance(n, Compare)]
        if not compares:
            return False
        node = rng.choice(compares)
        node.op = rng.choice(_COMPARE_SWAPS[node.op])
        return True

    if choice == "insert":
        blocks = _mutable_statement_blocks(program)
        block = rng.choice(blocks)
        new_stmt = _score_update(rng, spec, grammar)
        # Insert before the trailing return when present, otherwise append.
        insert_at = len(block)
        if block and isinstance(block[-1], Return):
            insert_at = len(block) - 1
        else:
            insert_at = rng.randint(0, len(block))
        block.insert(insert_at, new_stmt)
        return True

    if choice == "delete":
        blocks = _mutable_statement_blocks(program)
        rng.shuffle(blocks)
        for block in blocks:
            candidates = [
                (i, stmt)
                for i, stmt in enumerate(block)
                if not _is_protected(stmt, block)
            ]
            if candidates:
                index, _stmt = rng.choice(candidates)
                del block[index]
                return True
        return False

    if choice == "flip":
        targets = [
            n
            for n in program.walk()
            if isinstance(n, AugAssign) and n.op in ("+", "-")
        ]
        if targets:
            node = rng.choice(targets)
            node.op = "-" if node.op == "+" else "+"
            return True
        ternaries = [n for n in program.walk() if isinstance(n, Ternary)]
        if ternaries:
            node = rng.choice(ternaries)
            node.if_true, node.if_false = node.if_false, node.if_true
            return True
        return False

    return False


def crossover(
    first: Program,
    second: Program,
    rng: random.Random,
) -> Program:
    """Splice the top-level statement lists of two parents.

    The child keeps the first parent's signature, takes a prefix of the first
    parent's body and a suffix of the second parent's, and always ends with a
    return statement.  This is the cheapest recombination that still mixes
    behaviours from both parents, which is what matters for the search loop.
    """
    child = first.clone()
    donor = second.clone()

    first_body = [s for s in child.body if not isinstance(s, Return)]
    second_body = [s for s in donor.body if not isinstance(s, Return)]

    if not first_body and not second_body:
        child.body = [Return(value=Number(value=0))]
        return child

    cut_first = rng.randint(0, len(first_body)) if first_body else 0
    cut_second = rng.randint(0, len(second_body)) if second_body else 0

    merged: List[Stmt] = first_body[:cut_first] + second_body[cut_second:]
    if not merged:
        merged = first_body or second_body

    returns = first.returns() or second.returns()
    tail: Return
    if returns:
        tail = returns[-1].clone()  # type: ignore[assignment]
    else:
        tail = Return(value=Number(value=0))
    merged = [s for s in merged if not isinstance(s, Return)]
    merged.append(tail)
    child.body = merged
    return child
