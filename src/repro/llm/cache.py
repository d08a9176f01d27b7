"""On-disk prompt->completion cache: the LLM-side twin of the eval store.

Real providers charge per token and per second; re-running a sweep (or
resuming a crashed one) should not re-pay for completions the process has
already been given.  This module persists every client call under a
content address, reusing the eval store's defensive disk machinery
(:class:`~repro.core.store.ContentAddressedStore`): atomic temp-file +
rename writes, any-malformed-entry-is-a-miss reads, mtime touch on hit and
LRU garbage collection (``repro store gc --prompt-cache``).

Keying
------
An entry is addressed by the SHA-256 of the canonical JSON of everything
that determines a completion:

* the **model** identifier and the full message list (roles + content);
* the **sampling parameters** (``n``, ``temperature``);
* for *stateful* clients (the synthetic generator, whose completions are a
  seeded RNG stream), a **state fingerprint** -- the SHA-256 of the
  client's ``get_state()`` snapshot.  Each entry also records the state
  *after* the call, which a hit restores via ``set_state()``; replaying a
  run against a warm cache therefore reproduces the exact RNG trajectory,
  byte for byte, that a cold run produces.  Stateless clients (real APIs)
  omit the fingerprint, so identical prompts hit across unrelated runs.

Schema bumps (:data:`PROMPT_CACHE_SCHEMA_VERSION`) orphan old entries
rather than misreading them, exactly like the eval store.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, List, Optional, Sequence

from repro.core.store import ContentAddressedStore
from repro.llm.client import ChatMessage, CompletionResponse

#: Version of the on-disk entry payload; readers ignore entries written by
#: any other schema (bump on breaking changes to the payload layout).
PROMPT_CACHE_SCHEMA_VERSION = 1

#: Default directory name for the prompt cache under an artifact root.
PROMPT_CACHE_DIRNAME = "promptcache"

_ENTRY_SUFFIX = ".json"


def state_fingerprint(state: Any) -> str:
    """Content hash of a client state snapshot (must be JSON-safe)."""
    blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def prompt_key(
    model: str,
    messages: Sequence[ChatMessage],
    n: int,
    temperature: float,
    fingerprint: Optional[str] = None,
) -> str:
    """The content address of one client call.

    ``repr(temperature)`` joins the canonical form (not the float itself)
    so that e.g. ``1`` and ``1.0`` key distinctly from ``0.9999...`` without
    trusting JSON float formatting across platforms.
    """
    canonical = {
        "model": model,
        "messages": [{"role": m.role, "content": m.content} for m in messages],
        "n": n,
        "temperature": repr(float(temperature)),
        "state": fingerprint,
    }
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class PromptCache(ContentAddressedStore):
    """Disk-backed prompt->completions entries under one root directory."""

    schema_version = PROMPT_CACHE_SCHEMA_VERSION

    # -- addressing ---------------------------------------------------------------

    def entry_path(self, key: str) -> "Any":
        if not key:
            raise ValueError("prompt-cache entries need a non-empty key")
        return self.schema_root / key[:2] / f"{key}{_ENTRY_SUFFIX}"

    def _entry_count(self, path: "Any") -> int:
        try:  # an entry that does not parse, or sits under another key, is garbage
            return int(json.loads(path.read_text(encoding="utf-8"))["key"] == path.stem)
        except Exception:  # noqa: BLE001
            return 0

    # -- reads --------------------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """The stored entry, or ``None`` on miss *or any* malformed entry.

        A valid entry is ``{"responses": [CompletionResponse fields, ...],
        "state_after": <snapshot or None>}``.  Truncated JSON, a schema
        mismatch, a key echo mismatch or a malformed response list all
        degrade to a miss -- a wrong completion is impossible, only a
        re-request.
        """
        path = self.entry_path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self.corrupt_reads += 1
            return None
        try:
            if payload["schema_version"] != self.schema_version:
                return None
            if payload["key"] != key:
                # A moved/renamed file must not resurface under the wrong key.
                self.corrupt_reads += 1
                return None
            responses = payload["responses"]
            if not isinstance(responses, list) or not responses:
                raise ValueError("empty or non-list responses")
            for item in responses:
                if not isinstance(item["text"], str):
                    raise ValueError("non-string completion text")
                int(item["prompt_tokens"])
                int(item["completion_tokens"])
                if not isinstance(item["model"], str):
                    raise ValueError("non-string model")
        except Exception:  # noqa: BLE001 - any malformed entry is a miss
            self.corrupt_reads += 1
            return None
        self._touch(path)
        return {"responses": responses, "state_after": payload.get("state_after")}

    # -- writes -------------------------------------------------------------------

    def put(
        self,
        key: str,
        responses: Sequence[CompletionResponse],
        state_after: Optional[dict] = None,
    ) -> bool:
        """Persist one call's completions; returns False when nothing stored.

        Like the eval store, a filesystem-level failure (read-only root,
        disk full) must never abort the search -- the cache degrades to
        pass-through.
        """
        path = self.entry_path(key)
        payload = {
            "schema_version": self.schema_version,
            "key": key,
            "responses": [
                {
                    "text": r.text,
                    "prompt_tokens": r.prompt_tokens,
                    "completion_tokens": r.completion_tokens,
                    "model": r.model,
                }
                for r in responses
            ],
            "state_after": state_after,
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._atomic_write_text(path, json.dumps(payload, sort_keys=True))
        except OSError:
            self.write_errors += 1
            return False
        self._note_put()
        return True


class CachingClient:
    """Memoizes any client's calls through a :class:`PromptCache`.

    For a client exposing ``get_state``/``set_state`` (the synthetic
    generator) the cache key includes the state fingerprint and a hit
    restores the recorded post-call state, so cold-cache, warm-cache and
    cache-disabled runs all produce the identical completion stream.  For a
    stateless client the entry is purely content-addressed, which is what
    makes repeated prompts (or re-runs) free.
    """

    def __init__(self, inner: Any, cache: PromptCache):
        self.inner = inner
        self.cache = cache
        # Telemetry over the client's lifetime.
        self.hits = 0
        self.misses = 0

    @property
    def model(self) -> str:
        return self.inner.model

    def __getattr__(self, name: str) -> Any:
        # get_state/set_state, usage counters etc. pass through.
        return getattr(self.inner, name)

    def _stateful(self) -> bool:
        return callable(getattr(self.inner, "get_state", None)) and callable(
            getattr(self.inner, "set_state", None)
        )

    def complete(
        self, messages: Sequence[ChatMessage], n: int = 1, temperature: float = 1.0
    ) -> List[CompletionResponse]:
        stateful = self._stateful()
        fingerprint = state_fingerprint(self.inner.get_state()) if stateful else None
        key = prompt_key(self.inner.model, messages, n, temperature, fingerprint)
        entry = self.cache.get(key)
        if entry is not None and not (stateful and entry["state_after"] is None):
            self.hits += 1
            if stateful:
                self.inner.set_state(entry["state_after"])
            return [
                CompletionResponse(
                    text=item["text"],
                    prompt_tokens=int(item["prompt_tokens"]),
                    completion_tokens=int(item["completion_tokens"]),
                    model=item["model"],
                )
                for item in entry["responses"]
            ]
        self.misses += 1
        responses = self.inner.complete(messages, n=n, temperature=temperature)
        state_after = self.inner.get_state() if stateful else None
        self.cache.put(key, responses, state_after)
        return responses
