"""LLM client protocol, provider configuration and the resilience wrapper.

The protocol is deliberately minimal -- chat messages in, text completions
out, with token counts attached -- so that the framework does not care
whether the completions come from the offline synthetic generator, the
OpenAI API, or anything else.  Beside the one ``complete()`` method sit a
declarative :class:`ProviderConfig` block carried by
``RunSpec.llm["provider"]``, and :class:`ResilientClient` -- the wrapper a
real network provider is expected to live behind (bounded retries with
exponential backoff, optional per-call timeouts).

The offline synthetic client remains the only provider shipped with the
repository (and the CI path); :func:`wrap_client` is where a deployment
would splice a real API client into the same machinery.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    ThreadPoolExecutor,
    TimeoutError as _FutureTimeoutError,
)
from dataclasses import dataclass, fields
from typing import Any, Callable, List, Optional, Protocol, Sequence

from repro.typecheck import check_field_types


@dataclass(frozen=True)
class ChatMessage:
    """One chat message.  ``role`` is ``"system"``, ``"user"`` or ``"assistant"``."""

    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"unsupported chat role {self.role!r}")


@dataclass
class CompletionResponse:
    """One completion returned by a client."""

    text: str
    prompt_tokens: int
    completion_tokens: int
    model: str

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


class LLMError(Exception):
    """A client call failed for good (retries, if any, are exhausted)."""


class LLMTimeoutError(LLMError):
    """A client call exceeded its configured timeout."""


class LLMClient(Protocol):
    """Anything that can produce completions for a chat prompt."""

    #: Model identifier reported in responses / cost accounting.
    model: str

    def complete(
        self, messages: Sequence[ChatMessage], n: int = 1, temperature: float = 1.0
    ) -> List[CompletionResponse]:
        """Return ``n`` independent completions for the same prompt."""
        ...  # pragma: no cover - protocol


# -- provider configuration ---------------------------------------------------------

#: Providers resolvable offline.  ``"synthetic"`` means "keep the client the
#: domain built" (the seeded offline generator); a deployment registers real
#: providers here.
KNOWN_PROVIDERS = ("synthetic",)


@dataclass
class ProviderConfig:
    """Declarative LLM provider block (``RunSpec.llm["provider"]``).

    ``name`` selects the provider (only ``"synthetic"`` ships offline);
    ``retries`` / ``timeout_s`` configure the :class:`ResilientClient`
    wrapper; ``prompt_cache`` is the on-disk prompt->completion cache
    directory (``None`` disables caching).
    """

    name: str = "synthetic"
    retries: int = 0
    timeout_s: Optional[float] = None
    prompt_cache: Optional[str] = None

    def __post_init__(self) -> None:
        check_field_types(self, "provider")
        if self.name not in KNOWN_PROVIDERS:
            raise ValueError(
                f"unknown LLM provider {self.name!r}; "
                f"available: {sorted(KNOWN_PROVIDERS)}"
            )
        if self.retries < 0:
            raise ValueError("provider retries cannot be negative")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("provider timeout_s must be positive")

    @classmethod
    def from_ref(cls, ref: Any) -> Optional["ProviderConfig"]:
        """Build from a spec reference: ``None``, a bare provider name, or a
        ``{"name": ..., "retries": ..., ...}`` mapping."""
        if ref is None:
            return None
        if isinstance(ref, ProviderConfig):
            return ref
        if isinstance(ref, str):
            return cls(name=ref)
        if isinstance(ref, dict):
            known = {f.name for f in fields(cls)}
            unknown = set(ref) - known
            if unknown:
                raise ValueError(
                    f"unknown provider key(s) {sorted(unknown)}; "
                    f"allowed: {sorted(known)}"
                )
            return cls(**ref)
        raise ValueError(
            f"a provider reference must be a name or a mapping, got {type(ref).__name__}"
        )

    def to_ref(self) -> dict:
        return {
            "name": self.name,
            "retries": self.retries,
            "timeout_s": self.timeout_s,
            "prompt_cache": self.prompt_cache,
        }


# -- resilience wrapper -------------------------------------------------------------


class ResilientClient:
    """Retries, timeouts and exponential backoff around any client.

    ``retries`` is the number of *re*-attempts after the first failure;
    ``timeout_s`` bounds each attempt (enforced on a single-use worker
    thread, which is abandoned on expiry -- threads cannot be killed).
    Failed attempts back off exponentially: ``backoff_s * 2**attempt``
    seconds before attempt 1, 2, ...  ``sleep`` / ``clock`` are injectable
    for tests.

    A timeout abandons the inner call mid-flight, so a *stateful* client
    (the synthetic RNG one) may be left with partially-consumed state; use
    timeouts for network providers, where the abandoned request is
    server-side and the client object itself stays consistent.
    """

    def __init__(
        self,
        inner: LLMClient,
        retries: int = 2,
        timeout_s: Optional[float] = None,
        backoff_s: float = 0.1,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if retries < 0:
            raise ValueError("retries cannot be negative")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if backoff_s < 0:
            raise ValueError("backoff_s cannot be negative")
        self.inner = inner
        self.retries = retries
        self.timeout_s = timeout_s
        self.backoff_s = backoff_s
        self._sleep = sleep
        # Telemetry: attempts made and failures absorbed over the lifetime.
        self.attempts = 0
        self.failures = 0

    @property
    def model(self) -> str:
        return self.inner.model

    def __getattr__(self, name: str) -> Any:
        # State capture (get_state/set_state), usage counters etc. pass
        # through to the wrapped client.
        return getattr(self.inner, name)

    def complete(
        self, messages: Sequence[ChatMessage], n: int = 1, temperature: float = 1.0
    ) -> List[CompletionResponse]:
        last_error: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            if attempt:
                self._sleep(self.backoff_s * (2 ** (attempt - 1)))
            self.attempts += 1
            try:
                return self._attempt(messages, n, temperature)
            except Exception as exc:  # noqa: BLE001 - provider boundary
                self.failures += 1
                last_error = exc
        if isinstance(last_error, LLMError):
            raise last_error
        raise LLMError(
            f"client call failed after {self.retries + 1} attempt(s): "
            f"{type(last_error).__name__}: {last_error}"
        ) from last_error

    def _attempt(
        self, messages: Sequence[ChatMessage], n: int, temperature: float
    ) -> List[CompletionResponse]:
        if self.timeout_s is None:
            return self.inner.complete(messages, n=n, temperature=temperature)
        pool = ThreadPoolExecutor(max_workers=1)
        future = pool.submit(self.inner.complete, messages, n=n, temperature=temperature)
        try:
            result = future.result(timeout=self.timeout_s)
        except _FutureTimeoutError:
            future.cancel()
            pool.shutdown(wait=False, cancel_futures=True)
            raise LLMTimeoutError(
                f"client call timed out after {self.timeout_s}s"
            ) from None
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown(wait=False)
        return result


def wrap_client(client: LLMClient, provider: Optional[ProviderConfig]) -> LLMClient:
    """Layer the provider block's machinery around a base client.

    Resilience wraps the client first, the prompt cache outermost, so a
    cache hit costs neither a network attempt nor a retry loop.  With no
    provider block (or an all-default one) the client passes through
    untouched.
    """
    if provider is None:
        return client
    wrapped = client
    if provider.retries > 0 or provider.timeout_s is not None:
        wrapped = ResilientClient(
            wrapped, retries=provider.retries, timeout_s=provider.timeout_s
        )
    if provider.prompt_cache:
        from repro.llm.cache import CachingClient, PromptCache

        wrapped = CachingClient(wrapped, PromptCache(provider.prompt_cache))
    return wrapped
