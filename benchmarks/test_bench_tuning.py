"""Smoke test for the query-feedback self-tuning benchmark path.

Runs a tiny ``engine="tuned"`` benchmark end to end and checks the
promises CI gates on: the artifact is schema-valid, the drifting
stream really drove tuning passes, the tuned histogram stayed at the
static control's bucket budget with its counts exactly conserved, and
the long-lived tuned engine answered the evaluation batch
bit-identically to a freshly built engine over the tuned buckets
(``tuned_matches`` — the epoch-consistency gate).  Also validates the
committed ``BENCH_tuning.json`` baseline when present, including the
headline differential: tuned ARE strictly below static ARE at equal
bucket budget.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.obs.bench import BenchConfig, write_bench
from repro.obs.schema import validate_bench

TUNED_SMOKE = BenchConfig(
    name="tuned_smoke",
    datasets=(("charminar", 1_000),),
    n_buckets=12,
    n_regions=144,
    n_queries=150,
    techniques=("Min-Skew",),
    engine="tuned",
    live_ops=1_200,
    live_drift_xy=(0.08, 0.06),
    tune_every=200,
    tune_max_ops=4,
    live_query_frac=0.5,
    live_insert_frac=0.35,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tuned_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bench_tuned")
    doc, path = write_bench(TUNED_SMOKE, out_dir)
    return doc, path


def test_artifact_schema_valid(tuned_run):
    doc, path = tuned_run
    assert path.name == "BENCH_tuned_smoke.json"
    on_disk = json.loads(path.read_text())
    validate_bench(on_disk)
    assert on_disk["config"]["engine"] == "tuned"
    assert on_disk["config"]["tune_every"] == 200


def test_stream_drove_feedback_tuning(tuned_run):
    doc, _ = tuned_run
    (dataset,) = doc["datasets"]
    (entry,) = dataset["techniques"]
    tuned = entry["tuned"]
    assert tuned["ops"] == 1_200
    assert tuned["queries"] + tuned["inserts"] + tuned["deletes"] \
        == tuned["ops"]
    assert tuned["inserts"] > 0 and tuned["deletes"] > 0
    assert tuned["tuning_passes"] > 0
    assert tuned["feedback_observed"] > 0
    assert tuned["feedback_scored"] > 0
    # a pass is one atomic mutation: the epoch covers every insert,
    # delete, and tuning publish
    assert tuned["final_epoch"] >= \
        tuned["inserts"] + tuned["tuning_passes"]
    assert tuned["final_n"] > 0


def test_quota_and_conservation(tuned_run):
    doc, _ = tuned_run
    (entry,) = doc["datasets"][0]["techniques"]
    tuned = entry["tuned"]
    # every split is paid for by a merge: equal budget with the
    # never-restructured control
    assert tuned["n_buckets_tuned"] == tuned["n_buckets_static"]
    assert tuned["count_conserved"] is True


def test_epoch_consistency_gate(tuned_run):
    doc, _ = tuned_run
    (entry,) = doc["datasets"][0]["techniques"]
    assert entry["tuned"]["tuned_matches"] is True, (
        "long-lived tuned engine diverged from a freshly built "
        "engine over the tuned buckets"
    )


def test_deterministic_rerun_is_identical(tmp_path):
    doc_a, _ = write_bench(
        TUNED_SMOKE, tmp_path / "a", deterministic=True
    )
    doc_b, _ = write_bench(
        TUNED_SMOKE, tmp_path / "b", deterministic=True
    )
    assert doc_a == doc_b


def test_committed_baseline_is_valid_when_present():
    baseline = REPO_ROOT / "BENCH_tuning.json"
    if not baseline.exists():
        pytest.skip("no committed tuning baseline")
    doc = json.loads(baseline.read_text())
    validate_bench(doc)
    assert doc["config"]["engine"] == "tuned"
    for dataset in doc["datasets"]:
        for entry in dataset["techniques"]:
            tuned = entry["tuned"]
            assert tuned["tuned_matches"] is True
            assert tuned["count_conserved"] is True
            assert tuned["tuning_passes"] > 0
            assert tuned["n_buckets_tuned"] == \
                tuned["n_buckets_static"]
            # the headline differential CI quotes: feedback tuning
            # must beat the static layout at equal bucket budget
            assert tuned["are_tuned"] < tuned["are_static"]
            assert tuned["improvement"] > 0


def test_cli_bench_tuning(tmp_path, capsys):
    rc = cli_main(
        [
            "bench",
            "--tuning",
            "--name", "cli_tuned",
            "--out", str(tmp_path),
            "--datasets", "charminar:1000",
            "--buckets", "12",
            "--regions", "144",
            "--queries", "150",
            "--ops", "1200",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "passes=" in out
    assert "MISMATCH" not in out
    doc = json.loads((tmp_path / "BENCH_cli_tuned.json").read_text())
    validate_bench(doc)
    assert doc["config"]["engine"] == "tuned"


def test_cli_bench_tuning_deterministic(tmp_path, capsys):
    rc = cli_main(
        [
            "bench",
            "--tuning",
            "--deterministic",
            "--name", "cli_live_tuned",
            "--out", str(tmp_path),
            "--datasets", "charminar:1000",
            "--buckets", "12",
            "--regions", "144",
            "--queries", "150",
            "--ops", "1200",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "passes=" in out
    assert "MISMATCH" not in out
    doc = json.loads(
        (tmp_path / "BENCH_cli_live_tuned.json").read_text()
    )
    validate_bench(doc)
    assert doc["config"]["engine"] == "tuned"
    (entry,) = doc["datasets"][0]["techniques"]
    assert entry["tuned"]["replay_seconds"] == 0.0
    assert entry["metrics"]["timers"] == {}
