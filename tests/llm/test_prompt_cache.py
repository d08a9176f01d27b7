"""Tests for the on-disk prompt cache and the caching client wrapper.

The contract under test: a malformed entry is always a *miss*, never a
wrong completion -- and for the stateful synthetic client, cold-cache,
warm-cache and cache-disabled runs produce the identical completion stream.
"""

import json
import os

from repro.cache.search import caching_archetypes, caching_template
from repro.llm.cache import (
    CachingClient,
    PROMPT_CACHE_SCHEMA_VERSION,
    PromptCache,
    prompt_key,
    state_fingerprint,
)
from repro.llm.client import ChatMessage, CompletionResponse
from repro.llm.mock import SyntheticLLMClient, SyntheticLLMConfig

PROMPT = [
    ChatMessage(role="system", content="you are a heuristic generator"),
    ChatMessage(role="user", content="propose 3 candidates"),
]


def make_synthetic(seed=7):
    template = caching_template()
    return SyntheticLLMClient(
        template.spec,
        config=SyntheticLLMConfig(archetypes=caching_archetypes()),
        seed=seed,
    )


def response(text):
    return CompletionResponse(
        text=text, prompt_tokens=3, completion_tokens=5, model="fake"
    )


def one_entry(cache):
    files = [
        p
        for p in cache.schema_root.rglob("*.json")
        if p.is_file()
    ]
    assert len(files) == 1
    return files[0]


# -- keying -------------------------------------------------------------------------


def test_prompt_key_sensitivity():
    base = prompt_key("m", PROMPT, 2, 1.0)
    assert base != prompt_key("other", PROMPT, 2, 1.0)
    assert base != prompt_key("m", PROMPT[:1], 2, 1.0)
    assert base != prompt_key("m", PROMPT, 3, 1.0)
    assert base != prompt_key("m", PROMPT, 2, 0.5)
    assert base != prompt_key("m", PROMPT, 2, 1.0, fingerprint="abc")
    # Stable across calls (content-addressed, no incidental state).
    assert base == prompt_key("m", PROMPT, 2, 1.0)
    assert state_fingerprint({"a": 1}) == state_fingerprint({"a": 1})
    assert state_fingerprint({"a": 1}) != state_fingerprint({"a": 2})


# -- store-level robustness ---------------------------------------------------------


def test_round_trip(tmp_path):
    cache = PromptCache(tmp_path)
    key = prompt_key("m", PROMPT, 1, 1.0)
    assert cache.get(key) is None
    assert cache.put(key, [response("hello")], state_after={"rng": [1, 2]})
    entry = cache.get(key)
    assert entry["responses"][0]["text"] == "hello"
    assert entry["state_after"] == {"rng": [1, 2]}
    assert cache.corrupt_reads == 0


def test_truncated_entry_is_a_miss(tmp_path):
    cache = PromptCache(tmp_path)
    key = prompt_key("m", PROMPT, 1, 1.0)
    cache.put(key, [response("hello")])
    path = one_entry(cache)
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    assert cache.get(key) is None
    assert cache.corrupt_reads == 1


def test_schema_mismatch_is_a_silent_miss(tmp_path):
    cache = PromptCache(tmp_path)
    key = prompt_key("m", PROMPT, 1, 1.0)
    cache.put(key, [response("hello")])
    path = one_entry(cache)
    payload = json.loads(path.read_text())
    payload["schema_version"] = PROMPT_CACHE_SCHEMA_VERSION + 1
    path.write_text(json.dumps(payload))
    # Another schema's entry is not corruption -- just not ours to read.
    assert cache.get(key) is None
    assert cache.corrupt_reads == 0


def test_key_echo_mismatch_is_a_miss(tmp_path):
    cache = PromptCache(tmp_path)
    key = prompt_key("m", PROMPT, 1, 1.0)
    other = prompt_key("m", PROMPT, 2, 1.0)
    cache.put(other, [response("wrong")])
    # Simulate a moved/renamed file: other's payload under key's address.
    path = cache.entry_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(cache.entry_path(other).read_text())
    assert cache.get(key) is None
    assert cache.corrupt_reads == 1


def test_malformed_response_lists_are_misses(tmp_path):
    cache = PromptCache(tmp_path)
    key = prompt_key("m", PROMPT, 1, 1.0)
    for responses in ([], "nope", [{"text": 3}], [{"text": "x"}]):
        payload = {
            "schema_version": PROMPT_CACHE_SCHEMA_VERSION,
            "key": key,
            "responses": responses,
            "state_after": None,
        }
        path = cache.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None
    assert cache.corrupt_reads == 4


def test_stats_gc_and_clear(tmp_path):
    cache = PromptCache(tmp_path)
    keys = [prompt_key("m", PROMPT, n, 1.0) for n in range(1, 5)]
    for key in keys:
        cache.put(key, [response(key[:8])])
    assert cache.stats().entries == 4
    outcome = cache.gc(max_entries=2)
    assert outcome.removed_entries == 2
    assert outcome.remaining_entries == 2
    assert cache.clear() == 2
    assert cache.stats().entries == 0


def test_gc_collects_a_garbled_entry_as_garbage_not_as_an_entry(tmp_path):
    cache = PromptCache(tmp_path)
    keys = [prompt_key("m", PROMPT, n, 1.0) for n in (1, 2)]
    for key in keys:
        cache.put(key, [response(key[:8])])
    os.utime(cache.entry_path(keys[0]), (1_000_000, 1_000_000))  # the older entry
    garbled = cache.entry_path(keys[1])
    garbled.write_text("garbled")
    assert cache.stats().entries == 1
    outcome = cache.gc(max_entries=1)
    assert not garbled.exists()
    assert (outcome.removed_entries, outcome.remaining_entries) == (0, 1)
    assert cache.get(keys[0]) is not None


def test_read_only_root_degrades_to_passthrough(tmp_path, monkeypatch):
    cache = PromptCache(tmp_path)
    monkeypatch.setattr(
        PromptCache,
        "_atomic_write_text",
        staticmethod(lambda path, text: (_ for _ in ()).throw(OSError("read-only"))),
    )
    assert cache.put(prompt_key("m", PROMPT, 1, 1.0), [response("x")]) is False
    assert cache.write_errors == 1


# -- CachingClient ------------------------------------------------------------------


def drive(client, calls=4):
    """A fixed call sequence; returns the flat list of completion texts."""
    texts = []
    for n in (2, 1, 3, 1)[:calls]:
        for reply in client.complete(PROMPT, n=n):
            texts.append(reply.text)
    return texts


def test_cold_warm_disabled_streams_identical(tmp_path):
    # Cache disabled: the reference stream.
    reference = drive(make_synthetic())

    # Cold: every call misses but returns the same stream.
    cache = PromptCache(tmp_path)
    cold = CachingClient(make_synthetic(), cache)
    assert drive(cold) == reference
    assert (cold.hits, cold.misses) == (0, 4)

    # Warm: every call hits -- and state restoration keeps the stream exact.
    warm = CachingClient(make_synthetic(), cache)
    assert drive(warm) == reference
    assert (warm.hits, warm.misses) == (4, 0)
    assert warm.get_state() == cold.get_state()


def test_corruption_mid_run_regenerates_identical_stream(tmp_path):
    reference = drive(make_synthetic())
    cache = PromptCache(tmp_path)
    drive(CachingClient(make_synthetic(), cache))

    # Corrupt every entry: the warm run degrades to cold, not to wrong data.
    for path in cache.schema_root.rglob("*.json"):
        path.write_text("{broken")
    client = CachingClient(make_synthetic(), cache)
    assert drive(client) == reference
    assert (client.hits, client.misses) == (0, 4)
    assert cache.corrupt_reads == 4


def test_stateful_entry_without_state_is_not_trusted(tmp_path):
    cache = PromptCache(tmp_path)
    client = CachingClient(make_synthetic(), cache)
    fingerprint = state_fingerprint(client.inner.get_state())
    key = prompt_key(client.model, PROMPT, 1, 1.0, fingerprint)
    # An entry recorded without a post-call state cannot restore the RNG.
    cache.put(key, [response("stale")], state_after=None)
    [reply] = client.complete(PROMPT, n=1)
    assert reply.text != "stale"
    assert client.misses == 1


def test_stateless_client_hits_across_instances(tmp_path):
    class Stateless:
        model = "api"

        def __init__(self):
            self.calls = 0

        def complete(self, messages, n=1, temperature=1.0):
            self.calls += 1
            return [response(f"call-{self.calls}") for _ in range(n)]

    cache = PromptCache(tmp_path)
    first = CachingClient(Stateless(), cache)
    assert [r.text for r in first.complete(PROMPT)] == ["call-1"]

    second = CachingClient(Stateless(), cache)
    # Same prompt, fresh client: content-addressed hit, no inner call.
    assert [r.text for r in second.complete(PROMPT)] == ["call-1"]
    assert second.inner.calls == 0
    assert (second.hits, second.misses) == (1, 0)
