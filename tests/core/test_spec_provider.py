"""RunSpec's ``llm["provider"]`` block: validation, normalisation, wiring."""

import pytest

from repro.core.spec import RunSpec, build_from_spec
from repro.llm.cache import CachingClient
from repro.llm.client import ProviderConfig, ResilientClient


def spec_dict(**llm):
    return dict(
        domain="caching",
        name="provider-spec",
        domain_kwargs={
            "workloads": [
                {"name": "caching/zipf-hot", "num_requests": 200, "num_objects": 80}
            ],
            "reducer": "mean",
        },
        search={"rounds": 1, "candidates_per_round": 2},
        llm=llm,
    )


def test_provider_block_is_validated_and_normalised():
    spec = RunSpec(**spec_dict(provider="synthetic"))
    provider = spec.provider_config()
    assert isinstance(provider, ProviderConfig)
    assert provider.name == "synthetic"
    # Normalised to the canonical dict form, like the fidelity block, so a
    # bare-name spelling and the explicit dict hash identically.
    explicit = RunSpec(**spec_dict(provider={"name": "synthetic"}))
    assert spec.to_dict() == explicit.to_dict()
    assert spec.config_hash() == explicit.config_hash()
    # And the canonical form round-trips through JSON.
    assert RunSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()


def test_provider_block_rejects_bad_values():
    with pytest.raises(ValueError, match="unknown LLM provider"):
        RunSpec(**spec_dict(provider="openai"))
    with pytest.raises(ValueError, match="unknown provider override"):
        RunSpec(**spec_dict(provider={"name": "synthetic", "retry": 3}))
    with pytest.raises(ValueError, match="retries cannot be negative"):
        RunSpec(**spec_dict(provider={"retries": -1}))


def test_llm_overrides_still_validated_alongside_provider():
    with pytest.raises(ValueError, match="unknown llm override"):
        RunSpec(**spec_dict(provider="synthetic", not_a_field=1))


def test_provider_none_is_dropped():
    spec = RunSpec(**spec_dict(provider=None))
    assert spec.provider_config() is None
    assert "provider" not in spec.llm


def test_llm_config_excludes_provider_key():
    spec = RunSpec(
        **spec_dict(provider="synthetic", syntax_error_rate=0.5)
    )
    from repro.core.domain import get_domain

    config = spec.llm_config(get_domain("caching"))
    assert config.syntax_error_rate == 0.5
    # Provider alone must not force a non-default synthetic config.
    assert RunSpec(**spec_dict(provider="synthetic")).llm_config(
        get_domain("caching")
    ) is None


def test_build_from_spec_wires_provider_stack(tmp_path):
    spec = RunSpec(
        **spec_dict(
            provider={
                "name": "synthetic",
                "retries": 2,
                "prompt_cache": str(tmp_path / "pc"),
            }
        )
    )
    setup = build_from_spec(spec)
    client = setup.search.generator.client
    assert isinstance(client, CachingClient)
    assert isinstance(client.inner, ResilientClient)

    # Without a provider block the client passes through unwrapped.
    bare = build_from_spec(RunSpec(**spec_dict()))
    assert not isinstance(bare.search.generator.client, (CachingClient, ResilientClient))
