"""The conformance matrix: one pairwise table of runs, one committed digest each.

A fixed-seed ``result.json`` is a pure function of the spec: the DSL
lowering, the workers, the evaluation store's and the prompt cache's state,
a shadow fidelity ladder and the parse memo only change how fast it is made.
:data:`TABLE` crosses those axes so that every pair of levels of every two
axes meets in some cell, and each cell asserts the sha256 of its
``result.json`` against ``tests/golden/result_sha256.json``.  The digest is
keyed by the spec and by the two levels that change bytes: a screen-mode
ladder (``+ladder``) and, where it screens a candidate, the static screen
(``+screen``).  README's "What is byte-identical" describes every level.

A warm or damaged cell copies the store and prompt cache of one populate
run per digest key.  Besides its digest a cell asserts what its levels
promise: with the store absent, ``metadata.json`` tallies the committed
number of fresh evaluations under the requested backend; a warm store
serves every lookup; a warm prompt cache misses nothing; a damaged tier
reads corrupt entries.  Regenerate a digest only for an intended change of
what a search finds or of the artifact schema.
"""

import hashlib
import itertools
import json
import os
import shutil
from pathlib import Path

import pytest

from repro.core import engine as engine_module
from repro.core.spec import RunSpec, run
from repro.core.store import EvaluationStore
from repro.dsl import parser

REPO_ROOT = Path(__file__).resolve().parents[2]
SPECS = REPO_ROOT / "examples" / "specs"
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "result_sha256.json").read_text())

TABLE = """
variant         lowering     workers  store    prompt   ladder  static  memo
smoke_caching   vectorized   one      warm     damaged  shadow  off     warm
smoke_caching   compiled     process  cold     absent   screen  off     cleared
smoke_caching   compiled     thread   v1       cold     off     on      cleared
smoke_caching   compiled     unset    absent   warm     off     off     warm
smoke_caching   interpreter  thread   damaged  cold     off     off     warm
smoke_cc        vectorized   process  absent   absent   shadow  on      warm
smoke_cc        vectorized   thread   v1       absent   screen  on      warm
smoke_cc        compiled     one      cold     cold     off     off     cleared
smoke_cc        compiled     process  damaged  warm     screen  on      cleared
smoke_cc        interpreter  unset    warm     damaged  screen  on      cleared
smoke_matrix    vectorized   one      absent   absent   screen  off     warm
smoke_matrix    vectorized   process  cold     cold     off     on      warm
smoke_matrix    vectorized   process  damaged  damaged  shadow  off     warm
smoke_matrix    compiled     thread   warm     damaged  off     off     cleared
smoke_matrix    compiled     unset    v1       warm     off     off     cleared
smoke_matrix    interpreter  process  absent   damaged  shadow  off     warm
matrix_cc       vectorized   unset    absent   cold     screen  on      cleared
matrix_cc       compiled     one      warm     warm     shadow  on      warm
matrix_cc       compiled     process  v1       damaged  off     off     cleared
matrix_cc       compiled     process  damaged  cold     off     on      cleared
matrix_cc       compiled     thread   warm     absent   off     off     cleared
matrix_cc       interpreter  process  cold     warm     off     on      cleared
resume_f91d7f8  vectorized   one      damaged  damaged  off     off     cleared
resume_f91d7f8  vectorized   process  warm     cold     off     off     warm
resume_f91d7f8  vectorized   thread   v1       absent   off     off     warm
resume_f91d7f8  compiled     thread   absent   warm     off     off     cleared
resume_f91d7f8  interpreter  unset    cold     warm     shadow  off     warm
resume_0441c95  vectorized   process  absent   warm     shadow  off     warm
resume_0441c95  vectorized   unset    damaged  absent   off     off     warm
resume_0441c95  compiled     thread   cold     damaged  shadow  off     warm
resume_0441c95  interpreter  one      v1       cold     shadow  off     cleared
resume_0441c95  interpreter  thread   warm     absent   off     off     warm
"""

HEADER, *ROWS = [tuple(line.split()) for line in TABLE.strip().splitlines()]
CELLS = [dict(zip(HEADER, row)) for row in ROWS]

#: ``smoke_caching`` resumed from a checkpoint a parent commit wrote.
CHECKPOINTS = {
    "resume_f91d7f8": "checkpoint_f91d7f8.json",
    "resume_0441c95": "checkpoint_pipelined_0441c95.json",
}
AXES = {
    "variant": ("smoke_caching", "smoke_cc", "smoke_matrix", "matrix_cc", *CHECKPOINTS),
    "lowering": ("vectorized", "compiled", "interpreter"),
    "workers": ("one", "process", "thread", "unset"),
    "store": ("absent", "cold", "warm", "v1", "damaged"),
    "prompt": ("absent", "cold", "warm", "damaged"),
    "ladder": ("off", "shadow", "screen"),
    "static": ("off", "on"),
    "memo": ("warm", "cleared"),
}

#: Pairs no cell may hold: the checkpoints were written without either.
EXCLUDED = {
    (("variant", resume), pair)
    for resume in CHECKPOINTS
    for pair in (("ladder", "screen"), ("static", "on"))
}
#: Specs whose search draws one candidate the static screen proves degenerate;
#: on the others "on" screens nothing and must keep the plain bytes.
SCREENS_ONE = {"smoke_caching", "smoke_matrix"}
LADDER = {"rungs": [0.1, 0.3, 1.0], "eta": 3.0, "min_keep": 3}
#: ``process`` sets a timeout it never reaches, so each unit is a task of its
#: own; ``unset`` is the default pool of the usable CPUs (stubbed to 2),
#: which ships units in chunks.
WORKERS = {
    "one": {"max_workers": 1},
    "process": {"max_workers": 2, "executor": "process", "eval_timeout_s": 120.0},
    "thread": {"max_workers": 2, "executor": "thread"},
    "unset": {},
}


def spec_name(variant):
    return "smoke_caching" if variant in CHECKPOINTS else variant


def digest_key(cell):
    key = spec_name(cell["variant"])
    suffix = "+ladder" if cell["ladder"] == "screen" else ""
    if cell["static"] == "on" and key in SCREENS_ONE:
        suffix += "+screen"
    return key + suffix


def build_spec(cell, prompt_cache=None):
    data = RunSpec.from_file(SPECS / f"{spec_name(cell['variant'])}.json").to_dict()
    engine = {k: v for k, v in data["engine"].items() if k not in ("max_workers", "executor")}
    engine.update(WORKERS[cell["workers"]])
    if cell["lowering"] != "vectorized":
        engine["dsl_backend"] = cell["lowering"]
    if cell["static"] == "on":
        engine["static_screen"] = True
    data["engine"] = engine
    if cell["ladder"] != "off":
        data["fidelity"] = {**LADDER, "mode": cell["ladder"]}
    if prompt_cache is not None:
        provider = {"name": "synthetic", "prompt_cache": str(prompt_cache)}
        data["llm"] = {**data["llm"], "provider": provider}
    return RunSpec.from_dict(data)


def sha256_of(outcome):
    return hashlib.sha256((outcome.artifact_dir / "result.json").read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    """The evaluation store and prompt cache of one run per digest key."""
    roots = {}

    def populate(key):
        if key not in roots:
            root = tmp_path_factory.mktemp("populate")
            name, *suffixes = key.split("+")
            ladder = "screen" if "ladder" in suffixes else "off"
            static = "on" if "screen" in suffixes else "off"
            cell = dict(variant=name, lowering="vectorized", workers="process")
            spec = build_spec({**cell, "ladder": ladder, "static": static}, root / "prompts")
            outcome = run(spec, store=root / "runs", eval_store=root / "store")
            assert sha256_of(outcome) == GOLDEN["specs"][key]
            roots[key] = root
        return roots[key]

    return populate


def damage(tree, how):
    """Truncate or garble every other entry file under ``tree``, newest
    first, so a resumed run reads a damaged entry too."""
    files = sorted(tree.rglob("*.json"), key=lambda path: (path.stat().st_mtime_ns, path.name))
    for path in files[::-2]:
        if how == "truncate":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        else:
            path.write_text("garbled")
    return len(files[::-2])


def _stub_two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(engine_module, "_cgroup_cpu_quota", lambda: None)


@pytest.mark.parametrize(
    "cell", CELLS, ids=[f"{n:02d}-{cell['variant']}" for n, cell in enumerate(CELLS, 1)]
)
def test_conformance_cell(cell, populated, tmp_path, monkeypatch):
    key = digest_key(cell)
    store_path, prompts = tmp_path / "store", tmp_path / "prompts"
    if cell["store"] in ("warm", "damaged"):
        shutil.copytree(populated(key) / "store", store_path)
    if cell["store"] == "v1":
        shutil.copytree(GOLDEN_DIR / "evalstore_5e31b47", store_path)
    if cell["store"] == "damaged":
        assert damage(store_path / "v2", "truncate") > 0
    store = None if cell["store"] == "absent" else EvaluationStore(store_path)
    if cell["prompt"] in ("warm", "damaged"):
        shutil.copytree(populated(key) / "prompts", prompts)
    if cell["prompt"] == "damaged":
        assert damage(prompts / "v1", "garble") > 0
    spec = build_spec(cell, None if cell["prompt"] == "absent" else prompts)

    if cell["workers"] == "unset":
        _stub_two_cpus(monkeypatch)
    if cell["memo"] == "cleared":
        parser._parse_memo.cache_clear()
    if cell["variant"] in CHECKPOINTS:
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        shutil.copy(GOLDEN_DIR / CHECKPOINTS[cell["variant"]], run_dir / "checkpoint.json")
        outcome = run(spec, run_dir=run_dir, eval_store=store)
    else:
        outcome = run(spec, store=tmp_path / "runs", eval_store=store)

    assert sha256_of(outcome) == GOLDEN["specs"][key], cell
    engine = outcome.setup.engine
    totals = engine.totals
    metadata = json.loads((outcome.artifact_dir / "metadata.json").read_text())
    if cell["workers"] == "unset":
        assert engine.config.max_workers == 2
    if cell["variant"] == "resume_f91d7f8" and cell["store"] == "absent":
        # The seed batch and round 1 as the checkpoint recorded them.
        assert outcome.result.store_lookups == 2 + 4
    if cell["store"] == "absent":
        # A resume or a shadow ladder changes how many evaluations run, not the bytes.
        record_key = cell["variant"] + key.removeprefix(spec_name(cell["variant"]))
        record_key += "/shadow" if cell["ladder"] == "shadow" else ""
        lowering = cell["lowering"]
        assert metadata["dsl_backend"] == {
            "requested": lowering,
            "resolved": {lowering: GOLDEN["evaluations"][record_key]},
            "fallbacks": 0,
        }
    if cell["store"] == "warm":
        assert totals.store_hits == totals.store_lookups > 0
        if cell["ladder"] == "screen":
            assert totals.rung_evaluations == 0
    if cell["store"] == "damaged":
        assert store.corrupt_reads > 0
    client = outcome.setup.search.generator.client
    if cell["prompt"] == "absent":
        assert "prompt_cache" not in metadata["pipeline"]
    if cell["prompt"] == "cold":
        assert client.hits == 0 < client.misses
    if cell["prompt"] == "warm":
        assert client.misses == 0 < client.hits
    if cell["prompt"] == "damaged":
        assert client.cache.corrupt_reads > 0
    if cell["ladder"] == "shadow" and cell["variant"] not in CHECKPOINTS:
        # (A resumed run's one round has too few fresh programs to screen.)
        assert totals.rung_evaluations > 0 and totals.rung_eliminations > 0
    if cell["static"] == "on":
        assert metadata["static_screen"]["checks"] > 0
        result = json.loads((outcome.artifact_dir / "result.json").read_text())
        errors = [(c["evaluation"] or {}).get("error") or "" for c in result["candidates"]]
        sentinels = sum(error.startswith("static-screen:") for error in errors)
        assert sentinels == metadata["static_screen"]["screened"] == key.endswith("+screen")


#: The plain variants, run from the example spec as written (its own engine
#: settings, no store) under each backend spelling, as ``repro run
#: examples/specs/<spec>.json [--set engine.dsl_backend=B] --no-eval-store`` does.
PLAIN_SPECS = ("matrix_cc", "smoke_caching", "smoke_cc", "smoke_matrix")


@pytest.mark.parametrize(
    "spec_name,backend",
    [(name, backend) for name in PLAIN_SPECS for backend in ("compiled", "default", "interpreter")],
)
def test_result_json_matches_the_recorded_sha256(spec_name, backend, tmp_path):
    data = RunSpec.from_file(SPECS / f"{spec_name}.json").to_dict()
    if backend != "default":
        data["engine"] = {**data["engine"], "dsl_backend": backend}
    outcome = run(RunSpec.from_dict(data), store=tmp_path, eval_store=None)
    assert sha256_of(outcome) == GOLDEN["specs"][spec_name]


def _pairs(cell):
    return {((a, cell[a]), (b, cell[b])) for a, b in itertools.combinations(AXES, 2)}


def test_the_cells_cover_every_pair_of_levels():
    """Every pair of levels of every two axes meets in some cell, bar the
    exclusions; no cell holds an excluded pair; and no cell is redundant."""
    assert HEADER == tuple(AXES)
    for cell in CELLS:
        for axis, level in cell.items():
            assert level in AXES[axis], cell
    axis_pairs = itertools.combinations(AXES, 2)
    required = {((a, x), (b, y)) for a, b in axis_pairs for x in AXES[a] for y in AXES[b]}
    required -= EXCLUDED
    covered = [_pairs(cell) for cell in CELLS]
    assert required - set().union(*covered) == set()
    assert [cell for cell, pairs in zip(CELLS, covered) if pairs & EXCLUDED] == []
    for n, pairs in enumerate(covered):
        others = set().union(*(p for m, p in enumerate(covered) if m != n))
        assert pairs - others, f"cell {n + 1} covers no pair the others miss"
