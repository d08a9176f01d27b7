"""Golden bytes: ``result.json`` of the example specs, pinned by sha256.

``tests/golden/result_sha256.json`` was recorded on the commit it names
(``recorded_on``; a spec added later names its own in ``recorded_on_by_spec``)
with ``repro run examples/specs/<spec>.json [--set engine.dsl_backend=B]
--no-eval-store``, and is asserted here, so a change to any layer a
candidate passes through -- tokenizer, parser, AST, analysis, renderer,
checker, engine, simulators, artifact writer -- is pinned by bytes, under
every DSL backend, rather than by one-knob-at-a-time diffs alone.  The default column must also hold with a
prompt cache attached, cold and then warm.  Regenerate only for an intended
change of what a search finds or of the artifact schema.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.spec import RunSpec, run

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN = json.loads((REPO_ROOT / "tests" / "golden" / "result_sha256.json").read_text())["specs"]


@pytest.mark.parametrize(
    "spec_name,backend",
    [(spec_name, backend) for spec_name in sorted(GOLDEN) for backend in sorted(GOLDEN[spec_name])],
)
def test_result_json_matches_the_recorded_sha256(spec_name, backend, tmp_path):
    data = RunSpec.from_file(REPO_ROOT / "examples" / "specs" / f"{spec_name}.json").to_dict()
    if backend != "default":
        data["engine"] = {**data["engine"], "dsl_backend": backend}
    outcome = run(RunSpec.from_dict(data), store=tmp_path, eval_store=None)
    digest = hashlib.sha256((outcome.artifact_dir / "result.json").read_bytes()).hexdigest()
    assert digest == GOLDEN[spec_name][backend]


@pytest.mark.parametrize("spec_name", sorted(GOLDEN))
def test_result_json_matches_the_recorded_sha256_with_the_prompt_cache_cold_and_warm(
    spec_name, tmp_path
):
    data = RunSpec.from_file(REPO_ROOT / "examples" / "specs" / f"{spec_name}.json").to_dict()
    provider = {"name": "synthetic", "prompt_cache": str(tmp_path / "pc")}
    data["llm"] = {**data["llm"], "provider": provider}
    for state in ("cold", "warm"):
        outcome = run(RunSpec.from_dict(data), store=tmp_path / state, eval_store=None)
        digest = hashlib.sha256((outcome.artifact_dir / "result.json").read_bytes()).hexdigest()
        assert digest == GOLDEN[spec_name]["default"], state
    # The warm run generated nothing: every completion came from the cache.
    assert outcome.setup.search.generator.client.misses == 0
