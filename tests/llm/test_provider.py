"""Tests for the provider block and the resilience wrapper."""

import time

import pytest

from repro.llm.cache import CachingClient
from repro.llm.client import (
    ChatMessage,
    CompletionResponse,
    LLMError,
    LLMTimeoutError,
    ProviderConfig,
    ResilientClient,
    wrap_client,
)

PROMPT = [ChatMessage(role="user", content="hello")]


def response(text, model="fake"):
    return CompletionResponse(
        text=text, prompt_tokens=1, completion_tokens=1, model=model
    )


class FlakyClient:
    """Fails the first ``failures`` calls, then succeeds forever."""

    model = "flaky"

    def __init__(self, failures=0, delay_s=0.0):
        self.failures = failures
        self.delay_s = delay_s
        self.calls = 0

    def complete(self, messages, n=1, temperature=1.0):
        self.calls += 1
        if self.delay_s:
            time.sleep(self.delay_s)
        if self.calls <= self.failures:
            raise RuntimeError(f"transient #{self.calls}")
        return [response(f"ok-{self.calls}") for _ in range(n)]


# -- ResilientClient ----------------------------------------------------------------


def test_retries_absorb_transient_failures():
    sleeps = []
    client = ResilientClient(FlakyClient(failures=2), retries=2, sleep=sleeps.append)
    [reply] = client.complete(PROMPT)
    assert reply.text == "ok-3"
    assert client.attempts == 3
    assert client.failures == 2
    # Exponential backoff before each re-attempt: backoff_s * 2**(attempt-1).
    assert sleeps == [pytest.approx(0.1), pytest.approx(0.2)]


def test_backoff_sequence_and_terminal_error():
    sleeps = []
    client = ResilientClient(
        FlakyClient(failures=99), retries=3, backoff_s=0.1, sleep=sleeps.append
    )
    with pytest.raises(LLMError, match=r"after 4 attempt\(s\).*transient #4"):
        client.complete(PROMPT)
    assert sleeps == [pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.4)]
    assert client.attempts == 4
    assert client.failures == 4


def test_zero_retries_fails_on_first_error():
    sleeps = []
    client = ResilientClient(FlakyClient(failures=1), retries=0, sleep=sleeps.append)
    with pytest.raises(LLMError, match=r"after 1 attempt\(s\)"):
        client.complete(PROMPT)
    assert sleeps == []


def test_llm_errors_propagate_unwrapped():
    class Refusing:
        model = "refusing"

        def complete(self, messages, n=1, temperature=1.0):
            raise LLMTimeoutError("upstream timeout")

    client = ResilientClient(Refusing(), retries=1, sleep=lambda _s: None)
    # The terminal error keeps its type (and LLMTimeoutError is an LLMError).
    with pytest.raises(LLMTimeoutError, match="upstream timeout"):
        client.complete(PROMPT)


def test_timeout_raises_llm_timeout_error():
    client = ResilientClient(
        FlakyClient(delay_s=0.5), retries=0, timeout_s=0.05, sleep=lambda _s: None
    )
    with pytest.raises(LLMTimeoutError, match="timed out after 0.05s"):
        client.complete(PROMPT)


def test_timeout_then_success_within_retries():
    class SlowOnce:
        model = "slow-once"

        def __init__(self):
            self.calls = 0

        def complete(self, messages, n=1, temperature=1.0):
            self.calls += 1
            if self.calls == 1:
                time.sleep(0.5)
            return [response("fast")]

    client = ResilientClient(SlowOnce(), retries=1, timeout_s=0.1, sleep=lambda _s: None)
    [reply] = client.complete(PROMPT)
    assert reply.text == "fast"
    assert client.failures == 1


def test_state_passthrough():
    class Stateful(FlakyClient):
        def get_state(self):
            return {"calls": self.calls}

    client = ResilientClient(Stateful(), retries=0)
    client.complete(PROMPT)
    assert client.get_state() == {"calls": 1}
    assert client.model == "flaky"


# -- ProviderConfig -----------------------------------------------------------------


def test_provider_config_from_ref_forms():
    assert ProviderConfig.from_ref(None) is None
    assert ProviderConfig.from_ref("synthetic").name == "synthetic"
    config = ProviderConfig.from_ref(
        {"name": "synthetic", "retries": 3, "timeout_s": 4}
    )
    assert (config.retries, config.timeout_s) == (3, 4)
    assert ProviderConfig.from_ref(config) is config
    # Round-trip: the canonical ref rebuilds an equal config.
    assert ProviderConfig.from_ref(config.to_ref()) == config


@pytest.mark.parametrize(
    "ref, match",
    [
        ("openai", "unknown LLM provider"),
        ({"name": "synthetic", "retry": 1}, "unknown provider key"),
        ({"retries": -1}, "retries cannot be negative"),
        ({"timeout_s": 0}, "timeout_s must be positive"),
        ({"batch_size": 4}, "unknown provider key"),
        ({"retries": "2"}, "retries must be an integer"),
        ({"timeout_s": "30"}, "timeout_s must be a number"),
        ({"prompt_cache": 5}, "prompt_cache must be a string"),
        (42, "must be a name or a mapping"),
    ],
)
def test_provider_config_rejects_bad_refs(ref, match):
    with pytest.raises(ValueError, match=match):
        ProviderConfig.from_ref(ref)


# -- wrap_client --------------------------------------------------------------------


def test_wrap_client_layers(tmp_path):
    base = FlakyClient()
    assert wrap_client(base, None) is base
    assert wrap_client(base, ProviderConfig()) is base  # all-default block

    resilient = wrap_client(base, ProviderConfig(retries=2))
    assert isinstance(resilient, ResilientClient)

    layered = wrap_client(
        base,
        ProviderConfig(retries=1, prompt_cache=str(tmp_path / "pc")),
    )
    # Cache outermost: a hit must cost neither an attempt nor a retry loop.
    assert isinstance(layered, CachingClient)
    assert isinstance(layered.inner, ResilientClient)
    assert layered.inner.inner is base
