"""Smoke test for the live-serving benchmark path.

Runs a tiny ``engine="live"`` benchmark end to end and checks the
promises CI gates on: the artifact is schema-valid, the interleaved
stream really exercised maintenance (epoch moved, refreshes happened),
and every technique's long-lived estimator answered the final batch
bit-identically to a freshly built estimator over the same buckets
(``live_matches`` — the epoch-consistency gate).  Also validates the
committed ``BENCH_live.json`` baseline when present.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.obs.bench import BenchConfig, write_bench
from repro.obs.schema import validate_bench

LIVE_SMOKE = BenchConfig(
    name="live_smoke",
    datasets=(("charminar", 1_000),),
    n_buckets=12,
    n_regions=144,
    n_queries=150,
    techniques=("Min-Skew", "Grid"),
    engine="live",
    live_ops=300,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def live_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bench_live")
    doc, path = write_bench(LIVE_SMOKE, out_dir)
    return doc, path


def test_artifact_schema_valid(live_run):
    doc, path = live_run
    assert path.name == "BENCH_live_smoke.json"
    on_disk = json.loads(path.read_text())
    validate_bench(on_disk)
    assert on_disk["config"]["engine"] == "live"
    assert on_disk["config"]["live_ops"] == 300


def test_every_cell_exercised_maintenance(live_run):
    doc, _ = live_run
    (dataset,) = doc["datasets"]
    assert [t["technique"] for t in dataset["techniques"]] \
        == ["Min-Skew", "Grid"]
    for entry in dataset["techniques"]:
        live = entry["live"]
        assert live["ops"] == 300
        assert live["queries"] + live["inserts"] + live["deletes"] \
            == live["ops"]
        assert live["inserts"] > 0 and live["deletes"] > 0
        # every accepted mutation bumped the epoch; refreshes add more
        assert live["final_epoch"] >= \
            live["inserts"] + live["refreshes"]
        assert live["refreshes"] > 0
        assert live["final_n"] > 0
        # the estimator re-synced its kernel snapshot at least once
        assert live["estimator_rebuilds"] > 0


def test_epoch_consistency_gate(live_run):
    doc, _ = live_run
    for entry in doc["datasets"][0]["techniques"]:
        assert entry["live"]["live_matches"] is True, (
            f"{entry['technique']}: long-lived estimator diverged from "
            f"a freshly built estimator over the same buckets"
        )


def test_deterministic_rerun_is_identical(tmp_path):
    doc_a, _ = write_bench(
        LIVE_SMOKE, tmp_path / "a", deterministic=True
    )
    doc_b, _ = write_bench(
        LIVE_SMOKE, tmp_path / "b", deterministic=True
    )
    assert doc_a == doc_b


def test_committed_baseline_is_valid_when_present():
    baseline = REPO_ROOT / "BENCH_live.json"
    if not baseline.exists():
        pytest.skip("no committed live baseline")
    doc = json.loads(baseline.read_text())
    validate_bench(doc)
    assert doc["config"]["engine"] == "live"
    for dataset in doc["datasets"]:
        for entry in dataset["techniques"]:
            assert entry["live"]["live_matches"] is True
            assert entry["live"]["refreshes"] > 0


def test_cli_bench_live(tmp_path, capsys):
    rc = cli_main(
        [
            "bench",
            "--live",
            "--name", "cli_live",
            "--out", str(tmp_path),
            "--datasets", "charminar:800",
            "--buckets", "10",
            "--regions", "100",
            "--queries", "80",
            "--ops", "200",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "refreshes=" in out
    assert "MISMATCH" not in out
    doc = json.loads((tmp_path / "BENCH_cli_live.json").read_text())
    validate_bench(doc)
    assert doc["config"]["engine"] == "live"
