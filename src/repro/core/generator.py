"""Generators: produce candidate heuristic source code.

The framework only requires two operations -- propose new candidates given
the best parents found so far, and repair a candidate that the Checker
rejected -- so that is the whole protocol.  :class:`LLMGenerator` implements
it on top of any :class:`~repro.llm.client.LLMClient` (the offline synthetic
client by default, a real API client in a deployment).
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, Tuple

from repro.core.template import Template
from repro.llm.client import LLMClient
from repro.llm.prompts import PromptBuilder, extract_code_blocks
from repro.llm.tokens import UsageTracker

#: ``(source, score)`` pairs: the best heuristics so far, shown as examples.
ParentExamples = Sequence[Tuple[str, float]]


class Generator(Protocol):
    """Anything that can propose and repair candidate heuristics."""

    def generate(
        self, parents: ParentExamples, num_candidates: int
    ) -> List[str]:  # pragma: no cover - protocol
        ...

    def repair(
        self, source: str, feedback: str
    ) -> Optional[str]:  # pragma: no cover - protocol
        ...


class LLMGenerator:
    """Drives an LLM client with the Template's prompts.

    Token usage of every call is accumulated in :attr:`usage`, regardless of
    which client implementation is plugged in, so the §4.2.6 cost accounting
    is client-agnostic.
    """

    def __init__(
        self,
        template: Template,
        client: LLMClient,
        context_description: str = "",
        temperature: float = 1.0,
    ):
        self.template = template
        self.client = client
        self.temperature = temperature
        self.prompts = PromptBuilder(template, context_description)
        self.usage = UsageTracker()

    # -- Generator protocol --------------------------------------------------------

    def generate(self, parents: ParentExamples, num_candidates: int) -> List[str]:
        """Ask the client for ``num_candidates`` candidates.

        Each completion is expected to contain at least one fenced code
        block; completions without any block are dropped (they count against
        the round's budget, exactly as a rambling LLM answer would).
        """
        if num_candidates <= 0:
            return []
        messages = self.prompts.generation_prompt(list(parents), num_candidates)
        responses = self.client.complete(
            messages, n=num_candidates, temperature=self.temperature
        )
        sources: List[str] = []
        for response in responses:
            self.usage.record(response.prompt_tokens, response.completion_tokens)
            blocks = extract_code_blocks(response.text)
            if blocks:
                sources.append(blocks[0])
        return sources

    def repair(self, source: str, feedback: str) -> Optional[str]:
        """Ask the client to fix ``source`` given the Checker's ``feedback``."""
        messages = self.prompts.repair_prompt(source, feedback)
        responses = self.client.complete(messages, n=1, temperature=self.temperature)
        if not responses:
            return None
        response = responses[0]
        self.usage.record(response.prompt_tokens, response.completion_tokens)
        blocks = extract_code_blocks(response.text)
        return blocks[0] if blocks else None
