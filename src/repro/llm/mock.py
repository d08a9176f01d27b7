"""Offline synthetic LLM client.

``SyntheticLLMClient`` replaces the paper's GPT-4o-mini Generator so the full
PolicySmith pipeline runs without network access (see README.md, "LLM
providers").  It behaves like an LLM in the ways the framework cares about:

* it reads the same prompts the real client would receive and extracts the
  parent examples embedded in them -- candidate quality therefore improves
  across rounds through exactly the prompt-feedback channel the paper uses;
* it produces candidate programs by remixing parents (mutation, crossover),
  sampling the Template grammar, and instantiating a configurable set of
  archetype heuristics -- which is the paper's characterisation of what LLMs
  do well ("remixing and adapting known techniques");
* it *hallucinates*: with configurable probability it emits syntax errors,
  floating-point arithmetic, unguarded divisions and unbounded loops, which
  is what exercises the Checker/repair loop and reproduces the §5.0.3
  compilation-rate experiment;
* on repair prompts it fixes the reported issues with a configurable success
  probability, mirroring "an additional 19% compiled after the Generator was
  provided with the stderr";
* it meters prompt/completion tokens so §4.2.6 cost accounting works.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.dsl.analysis import analyze
from repro.dsl.ast import BinOp, Call, ForRange, Name, Number, Program, While
from repro.dsl.codegen import to_source
from repro.dsl.errors import DslError, DslSyntaxError
from repro.dsl.grammar import FeatureSpec, GrammarConfig, random_program
from repro.dsl.mutation import MutationConfig, crossover, mutate
from repro.dsl.parser import parse
from repro.llm.client import ChatMessage, CompletionResponse
from repro.llm.prompts import extract_code_blocks
from repro.llm.tokens import UsageTracker, count_tokens


@dataclass
class SyntheticLLMConfig:
    """Failure-mode and remixing knobs for the synthetic client.

    The defaults are tuned so that a caching-style Template sees roughly the
    paper's ~92 % first-pass compile rate; the congestion-control case study
    constructs the client with kernel-style rates (more float arithmetic and
    unguarded division) to land near the reported 63 %.
    """

    # Candidate-source mixture when parents are available.
    mutate_weight: float = 0.45
    crossover_weight: float = 0.20
    fresh_weight: float = 0.20
    archetype_weight: float = 0.15

    # Hallucination rates.
    syntax_error_rate: float = 0.05
    float_injection_rate: float = 0.02
    unguarded_division_rate: float = 0.02
    unbounded_loop_rate: float = 0.01

    # Repair behaviour.
    repair_success_rate: float = 0.80

    #: Archetype heuristics (DSL source) the client may instantiate verbatim
    #: or lightly mutate; supplied by the case study.
    archetypes: List[str] = field(default_factory=list)


class SyntheticLLMClient:
    """Grammar + remixing generator behind the :class:`LLMClient` protocol."""

    model = "synthetic-policysmith-1"

    def __init__(
        self,
        spec: FeatureSpec,
        config: Optional[SyntheticLLMConfig] = None,
        seed: int = 0,
        grammar: Optional[GrammarConfig] = None,
        mutation: Optional[MutationConfig] = None,
    ):
        self.spec = spec
        self.config = config or SyntheticLLMConfig()
        self.grammar = grammar or GrammarConfig()
        self.mutation = mutation or MutationConfig()
        self.usage = UsageTracker()
        self._rng = random.Random(seed)
        self._archetype_programs: List[Program] = []
        for source in self.config.archetypes:
            try:
                self._archetype_programs.append(parse(source))
            except DslSyntaxError as exc:  # pragma: no cover - config error
                raise ValueError(f"invalid archetype source: {exc}") from exc

    # -- checkpointing ---------------------------------------------------------------

    def get_state(self) -> dict:
        """JSON-safe snapshot of the client's RNG and usage counters.

        Restoring this state (``set_state``) makes a resumed search generate
        the exact completions an uninterrupted run would have produced.
        """
        version, internal, gauss = self._rng.getstate()
        return {
            "rng": [version, list(internal), gauss],
            "usage": {
                "prompt_tokens": self.usage.prompt_tokens,
                "completion_tokens": self.usage.completion_tokens,
                "calls": self.usage.calls,
            },
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`get_state`."""
        version, internal, gauss = state["rng"]
        self._rng.setstate((version, tuple(internal), gauss))
        usage = state.get("usage", {})
        self.usage.prompt_tokens = int(usage.get("prompt_tokens", 0))
        self.usage.completion_tokens = int(usage.get("completion_tokens", 0))
        self.usage.calls = int(usage.get("calls", 0))

    # -- LLMClient protocol ----------------------------------------------------------

    def complete(
        self, messages: Sequence[ChatMessage], n: int = 1, temperature: float = 1.0
    ) -> List[CompletionResponse]:
        prompt_text = "\n".join(m.content for m in messages)
        prompt_tokens = count_tokens(prompt_text)
        user_text = "\n".join(m.content for m in messages if m.role == "user")
        is_repair = "rejected by the checker" in user_text

        responses: List[CompletionResponse] = []
        for _ in range(max(1, n)):
            if is_repair:
                text = self._repair_response(user_text)
            else:
                text = self._generation_response(user_text, temperature)
            completion_tokens = count_tokens(text)
            self.usage.record(prompt_tokens, completion_tokens)
            responses.append(
                CompletionResponse(
                    text=text,
                    prompt_tokens=prompt_tokens,
                    completion_tokens=completion_tokens,
                    model=self.model,
                )
            )
        return responses

    # -- generation ---------------------------------------------------------------------

    def _parse_parents(self, user_text: str) -> List[Program]:
        parents: List[Program] = []
        for block in extract_code_blocks(user_text):
            try:
                parents.append(parse(block))
            except DslError:
                continue
        return parents

    def _pick_source_kind(self, have_parents: bool) -> str:
        cfg = self.config
        if not have_parents:
            weights = [("fresh", cfg.fresh_weight + cfg.mutate_weight), ("archetype", cfg.archetype_weight + cfg.crossover_weight)]
        else:
            weights = [
                ("mutate", cfg.mutate_weight),
                ("crossover", cfg.crossover_weight),
                ("fresh", cfg.fresh_weight),
                ("archetype", cfg.archetype_weight),
            ]
        total = sum(w for _k, w in weights)
        pick = self._rng.random() * total
        cumulative = 0.0
        for kind, weight in weights:
            cumulative += weight
            if pick <= cumulative:
                return kind
        return weights[-1][0]

    def _ensure_result_var_defined(self, program: Program) -> Program:
        """Prepend ``result_var = 0`` when remixing orphaned an accumulator.

        Mutation and crossover can produce code that updates the score
        variable without ever initialising it; a competent LLM essentially
        never makes that mistake, so the synthetic client patches it up
        rather than inflating the checker-failure rate with an unrealistic
        error mode (the *realistic* modes are injected separately).
        """
        from repro.dsl.ast import Assign

        if self.spec.result_var in analyze(program).free_names:
            program.body.insert(
                0, Assign(target=Name(id=self.spec.result_var), value=Number(value=0))
            )
        return program

    def _draft_program(self, parents: List[Program]) -> Program:
        program = self._draft_program_inner(parents)
        return self._ensure_result_var_defined(program)

    def _draft_program_inner(self, parents: List[Program]) -> Program:
        kind = self._pick_source_kind(bool(parents))
        if kind == "mutate" and parents:
            parent = self._rng.choice(parents)
            return mutate(parent, self.spec, self._rng, self.mutation, self.grammar)
        if kind == "crossover" and len(parents) >= 2:
            first, second = self._rng.sample(parents, 2)
            child = crossover(first, second, self._rng)
            if self._rng.random() < 0.5:
                child = mutate(child, self.spec, self._rng, self.mutation, self.grammar)
            return child
        if kind == "archetype" and self._archetype_programs:
            base = self._rng.choice(self._archetype_programs).clone()
            if self._rng.random() < 0.7:
                base = mutate(base, self.spec, self._rng, self.mutation, self.grammar)
            return base
        if parents and kind == "mutate":
            return mutate(self._rng.choice(parents), self.spec, self._rng, self.mutation, self.grammar)
        return random_program(self.spec, self._rng, self.grammar)

    def _generation_response(self, user_text: str, temperature: float) -> str:
        parents = self._parse_parents(user_text)
        program = self._draft_program(parents)
        source = to_source(program)
        source = self._maybe_hallucinate(source, program)
        return f"Here is a candidate heuristic:\n```\n{source.strip()}\n```\n"

    # -- hallucination ------------------------------------------------------------------

    def _maybe_hallucinate(self, source: str, program: Program) -> str:
        rng = self._rng
        cfg = self.config
        mutated = False

        if rng.random() < cfg.float_injection_rate:
            program = self._inject_float(program)
            mutated = True
        if rng.random() < cfg.unguarded_division_rate:
            program = self._inject_unguarded_division(program)
            mutated = True
        if rng.random() < cfg.unbounded_loop_rate:
            program = self._inject_unbounded_loop(program)
            mutated = True
        if mutated:
            source = to_source(program)
        if rng.random() < cfg.syntax_error_rate:
            source = self._inject_syntax_error(source)
        return source

    def _inject_float(self, program: Program) -> Program:
        clone = program.clone()
        numbers = [n for n in clone.walk() if isinstance(n, Number) and isinstance(n.value, int)]
        if numbers:
            target = self._rng.choice(numbers)
            target.value = float(target.value) * self._rng.choice([0.5, 1.5, 0.125])
        return clone

    def _inject_unguarded_division(self, program: Program) -> Program:
        clone = program.clone()
        binops = [n for n in clone.walk() if isinstance(n, BinOp) and n.op in ("+", "-", "*")]
        sources = self.spec.numeric_sources()
        if binops and sources:
            target = self._rng.choice(binops)
            param, attr = self._rng.choice(sources)
            divisor: object
            if attr is None:
                divisor = Name(id=param)
            else:
                from repro.dsl.ast import Attribute

                divisor = Attribute(value=Name(id=param), attr=attr)
            target.op = "//" if self.spec.integer_only else "/"
            target.right = divisor  # type: ignore[assignment]
        return clone

    def _inject_unbounded_loop(self, program: Program) -> Program:
        clone = program.clone()
        loop = While(
            condition=Name(id=self.spec.result_var),
            body=[],
        )
        from repro.dsl.ast import AugAssign

        loop.body = [
            AugAssign(target=Name(id=self.spec.result_var), op="-", value=Number(value=1))
        ]
        insert_at = max(0, len(clone.body) - 1)
        clone.body.insert(insert_at, loop)
        return clone

    def _inject_syntax_error(self, source: str) -> str:
        rng = self._rng
        choice = rng.random()
        if choice < 0.4 and "}" in source:
            index = source.rfind("}")
            return source[:index] + source[index + 1 :]
        if choice < 0.7 and "(" in source:
            index = source.find("(")
            return source[:index] + source[index + 1 :]
        lines = source.splitlines()
        if len(lines) > 2:
            position = rng.randrange(1, len(lines) - 1)
            lines[position] = lines[position] + " $$"
            return "\n".join(lines)
        return source + "\nextra junk"

    # -- repair ------------------------------------------------------------------------

    def _repair_response(self, user_text: str) -> str:
        blocks = extract_code_blocks(user_text)
        rejected = blocks[0] if blocks else ""
        feedback = user_text.split("Checker output:", 1)[-1]
        if self._rng.random() > self.config.repair_success_rate:
            # The model fails to fix it: return the same (or near-same) code.
            return f"```\n{rejected.strip()}\n```\n"
        repaired = self._repair_source(rejected, feedback)
        return f"```\n{repaired.strip()}\n```\n"

    def _repair_source(self, source: str, feedback: str) -> str:
        try:
            program = parse(source)
        except DslError:
            # Unfixable text: rewrite from scratch, which is what an LLM
            # typically does when its own output will not parse.
            return to_source(random_program(self.spec, self._rng, self.grammar))
        program = self._fix_floats(program)
        program = self._fix_divisions(program)
        program = self._fix_loops(program)
        return to_source(program)

    def _fix_floats(self, program: Program) -> Program:
        clone = program.clone()
        for node in clone.walk():
            if isinstance(node, Number) and isinstance(node.value, float):
                node.value = max(1, int(round(node.value)))
            if isinstance(node, BinOp) and node.op == "/" and self.spec.integer_only:
                node.op = "//"
        return clone

    def _fix_divisions(self, program: Program) -> Program:
        clone = program.clone()
        for node in clone.walk():
            if isinstance(node, BinOp) and node.op in ("/", "//", "%"):
                divisor = node.right
                if not (isinstance(divisor, Number) and divisor.value != 0):
                    node.right = Call(
                        func=Name(id="max"), args=[Number(value=1), divisor]
                    )
        return clone

    def _fix_loops(self, program: Program) -> Program:
        clone = program.clone()

        def fix_block(stmts: list) -> list:
            fixed = []
            for stmt in stmts:
                if isinstance(stmt, While):
                    fixed.append(
                        ForRange(var=Name(id="i"), limit=Number(value=8), body=stmt.body)
                    )
                elif isinstance(stmt, ForRange) and not isinstance(stmt.limit, Number):
                    stmt.limit = Number(value=8)
                    fixed.append(stmt)
                else:
                    fixed.append(stmt)
            return fixed

        clone.body = fix_block(clone.body)
        for node in clone.walk():
            if hasattr(node, "body") and isinstance(getattr(node, "body"), list):
                node.body = fix_block(node.body)
            if hasattr(node, "orelse") and isinstance(getattr(node, "orelse"), list):
                node.orelse = fix_block(node.orelse)
        return clone
