"""Smoke test for the batch- and sharded-serving benchmark paths.

Runs a tiny ``engine="batch"`` benchmark end to end and checks the
promises CI gates on: the artifact is schema-valid, every technique's
vectorised kernel is at least as fast as the scalar loop
(``speedup >= 1.0``), and the batch answers match the scalar loop
bit for bit (``scalar_matches``).  A second tiny
``engine="sharded"`` run checks the scatter-gather tier: every cell's
router answer matches the single-engine union reference bit for bit
(``sharded_matches``) and the live mutation stream invalidates only
the owning shard (``owner_only_invalidation``).  Also validates the
committed ``BENCH_serving.json`` baseline (now sharded) when present.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.eval import ALL_TECHNIQUES, BUCKET_TECHNIQUES
from repro.obs.bench import BenchConfig, write_bench
from repro.obs.schema import validate_bench

SERVING_SMOKE = BenchConfig(
    name="serving_smoke",
    datasets=(("charminar", 1_500),),
    n_buckets=16,
    n_regions=256,
    n_queries=300,
    engine="batch",
)

SHARDED_SMOKE = BenchConfig(
    name="sharded_smoke",
    datasets=(("charminar", 1_500),),
    n_buckets=16,
    n_regions=256,
    n_queries=300,
    techniques=tuple(BUCKET_TECHNIQUES),
    engine="sharded",
    n_shards=3,
    live_ops=120,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def serving_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bench_serving")
    doc, path = write_bench(SERVING_SMOKE, out_dir)
    return doc, path


@pytest.fixture(scope="module")
def sharded_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bench_sharded")
    doc, path = write_bench(SHARDED_SMOKE, out_dir)
    return doc, path


def test_artifact_schema_valid(serving_run):
    doc, path = serving_run
    assert path.name == "BENCH_serving_smoke.json"
    on_disk = json.loads(path.read_text())
    validate_bench(on_disk)
    assert on_disk["config"]["engine"] == "batch"


def test_every_technique_has_serving_fields(serving_run):
    doc, _ = serving_run
    (dataset,) = doc["datasets"]
    assert [t["technique"] for t in dataset["techniques"]] \
        == list(ALL_TECHNIQUES)
    for entry in dataset["techniques"]:
        assert entry["scalar_seconds"] > 0
        assert entry["speedup"] > 0


def test_batch_kernel_not_slower_than_scalar(serving_run):
    # the CI perf gate: on 300 queries the vectorised kernel must
    # already beat the per-query Python loop for every technique
    doc, _ = serving_run
    for entry in doc["datasets"][0]["techniques"]:
        assert entry["speedup"] >= 1.0, (
            f"{entry['technique']}: batch kernel slower than the "
            f"scalar loop (speedup={entry['speedup']:.2f})"
        )


def test_batch_answers_match_scalar_exactly(serving_run):
    doc, _ = serving_run
    for entry in doc["datasets"][0]["techniques"]:
        assert entry["scalar_matches"] is True, (
            f"{entry['technique']}: batch or engine output diverged "
            f"from the scalar loop"
        )


def test_sharded_artifact_schema_valid(sharded_run):
    doc, path = sharded_run
    assert path.name == "BENCH_sharded_smoke.json"
    on_disk = json.loads(path.read_text())
    validate_bench(on_disk)
    assert on_disk["config"]["engine"] == "sharded"
    assert on_disk["config"]["n_shards"] == 3


def test_sharded_answers_match_union_exactly(sharded_run):
    # the CI differential gate: the router's scatter-gather answer
    # must equal the single-engine union reference bit for bit, both
    # on the initial batch and after replaying the mutation stream
    doc, _ = sharded_run
    for entry in doc["datasets"][0]["techniques"]:
        shard = entry["sharded"]
        assert shard["sharded_matches"] is True, (
            f"{entry['technique']}: sharded answer diverged from the "
            f"single-engine reference"
        )


def test_sharded_fanout_accounting_is_sane(sharded_run):
    doc, _ = sharded_run
    n_queries = SHARDED_SMOKE.n_queries
    for entry in doc["datasets"][0]["techniques"]:
        shard = entry["sharded"]
        assert shard["n_shards"] == 3
        assert len(shard["shard_sizes"]) == 3
        # sizes are sampled after the live replay, so the total is
        # the seed size shifted by the stream's net insert/delete mix
        assert abs(sum(shard["shard_sizes"]) - 1_500) \
            <= shard["mutations"]
        assert len(shard["shard_buckets"]) == 3
        # every query reaches at least one shard, never more than K
        assert n_queries <= shard["subqueries"] <= n_queries * 3
        assert shard["avg_shards_per_query"] == pytest.approx(
            shard["subqueries"] / n_queries
        )
        assert 0.0 < shard["fanout_rate"] <= 1.0


def test_sharded_mutations_stay_owner_only(sharded_run):
    doc, _ = sharded_run
    for entry in doc["datasets"][0]["techniques"]:
        shard = entry["sharded"]
        assert shard["ops"] == SHARDED_SMOKE.live_ops
        assert shard["mutations"] > 0
        assert shard["routed_mutations"] == shard["mutations"]
        assert shard["owner_only_invalidation"] is True, (
            f"{entry['technique']}: a mutation invalidated a shard "
            f"that does not own it"
        )
        assert len(shard["shard_epoch_bumps"]) == 3


def test_sharded_recovery_contract(sharded_run):
    # the fault-tolerance gate: the worker-kill chaos cell must show
    # every request batch surviving SIGKILLed workers and the
    # recovered tier answering bit-identically to the union reference
    doc, _ = sharded_run
    for entry in doc["datasets"][0]["techniques"]:
        recovery = entry["sharded"]["recovery"]
        assert recovery["requests"] > 0
        assert recovery["survived"] == recovery["requests"], (
            f"{entry['technique']}: a request batch was lost to a "
            f"worker kill"
        )
        assert recovery["recovered_matches"] is True, (
            f"{entry['technique']}: post-recovery answers or shard "
            f"state diverged from the reference"
        )
        # the seeded plan actually kills: a chaos cell that never
        # injects proves nothing
        assert recovery["kills"] > 0
        assert recovery["respawns"] >= recovery["kills"]


def test_committed_baseline_is_valid_when_present():
    baseline = REPO_ROOT / "BENCH_serving.json"
    if not baseline.exists():
        pytest.skip("no committed serving baseline")
    doc = json.loads(baseline.read_text())
    validate_bench(doc)
    assert doc["config"]["engine"] == "sharded"
    assert doc["config"]["techniques"] == list(BUCKET_TECHNIQUES)
    for dataset in doc["datasets"]:
        for entry in dataset["techniques"]:
            shard = entry["sharded"]
            assert shard["sharded_matches"] is True
            assert shard["owner_only_invalidation"] is True
            recovery = shard.get("recovery")
            if recovery is not None:
                assert recovery["survived"] == recovery["requests"]
                assert recovery["recovered_matches"] is True


def test_cli_serving_preset(tmp_path, capsys):
    rc = cli_main(
        [
            "bench",
            "--quick",
            "--engine", "batch",
            "--name", "cli_serving",
            "--out", str(tmp_path),
            "--datasets", "charminar:800",
            "--buckets", "12",
            "--regions", "144",
            "--queries", "100",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "speedup=" in out
    doc = json.loads((tmp_path / "BENCH_cli_serving.json").read_text())
    validate_bench(doc)
    assert doc["config"]["engine"] == "batch"


def test_cli_sharded_engine(tmp_path, capsys):
    rc = cli_main(
        [
            "bench",
            "--quick",
            "--engine", "sharded",
            "--name", "cli_sharded",
            "--out", str(tmp_path),
            "--datasets", "charminar:800",
            "--buckets", "12",
            "--regions", "144",
            "--queries", "100",
            "--shards", "2",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "shards=2" in out
    assert "SHARD-MISMATCH" not in out
    doc = json.loads((tmp_path / "BENCH_cli_sharded.json").read_text())
    validate_bench(doc)
    assert doc["config"]["engine"] == "sharded"
    # the CLI drops non-bucket techniques for the sharded engine
    assert doc["config"]["techniques"] == list(BUCKET_TECHNIQUES)


def test_cli_bench_live_sharded(tmp_path, capsys):
    rc = cli_main(
        [
            "bench",
            "--live",
            "--engine", "sharded",
            "--name", "cli_slive",
            "--out", str(tmp_path),
            "--datasets", "charminar:800",
            "--buckets", "12",
            "--regions", "144",
            "--queries", "100",
            "--ops", "60",
            "--shards", "2",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "epoch-bumps=[" in out
    assert "SHARD-MISMATCH" not in out
    assert "CROSS-SHARD-INVALIDATION" not in out
    doc = json.loads((tmp_path / "BENCH_cli_slive.json").read_text())
    validate_bench(doc)
    assert doc["config"]["engine"] == "sharded"


def _nudged(values):
    values = np.array(values, dtype=np.float64)
    values[0] = np.nextafter(values[0], np.inf)
    return values


def test_cli_exits_nonzero_when_a_gate_fails(tmp_path, capsys, monkeypatch):
    """A reference one ulp off fails the run, and stderr names the gate."""
    from repro.serving.shard import ShardUnionEstimator

    reference = ShardUnionEstimator.estimate_batch
    monkeypatch.setattr(
        ShardUnionEstimator, "estimate_batch",
        lambda self, queries: _nudged(reference(self, queries)),
    )
    rc = cli_main(
        [
            "bench",
            "--serving",
            "--name", "cli_nudged",
            "--out", str(tmp_path),
            "--datasets", "charminar:800",
            "--buckets", "12",
            "--regions", "144",
            "--queries", "100",
            "--ops", "60",
        ]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert "sharded_matches" in captured.err
    assert "FAILED" in captured.out
    # the artifact is still written, recording the failed gate
    doc = json.loads((tmp_path / "BENCH_cli_nudged.json").read_text())
    for entry in doc["datasets"][0]["techniques"]:
        assert entry["sharded"]["sharded_matches"] is False
