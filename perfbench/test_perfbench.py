"""The benchmark's own tests: every workload at tiny scale, the metric
names and units, and each correctness gate tripping against a
deliberately perturbed reference.

Run from the repository root (about a minute)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import loadgen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

#: Tiny scale: 3,000 rectangles, one second of timed traffic.
TINY = ["--seed", "3", "--seconds", "1", "--n", "3000"]


@pytest.fixture
def one_launch(monkeypatch):
    """One server launch per pass keeps the gate tests quick."""
    monkeypatch.setattr(run, "SETUP_LAUNCHES", 1)


def _bench(capsys, workload: str, trace: int = 0):
    code = run.main(["--workload", workload, "--trace", str(trace), *TINY])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _declared(kind: str):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert _declared("end_to_end") == list(run.END_TO_END)
    assert _declared("per_layer") == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_at_tiny_scale(capsys, workload, trace):
    code, lines, result = _bench(capsys, workload, trace)
    assert code == 0, "\n".join(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert [
        (name, m["unit"]) for name, m in result["metrics"].items()
    ] == declared
    for name, unit in declared:
        # every metric is printed by name, with its unit
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit
            for line in lines
        ), name
    if trace:
        assert any("largest share of server time" in line
                   for line in lines)
        assert result["metrics"]["index.probes"]["value"] == 0
        pooled = result["metrics"]["parallel.calls"]["value"]
        assert (pooled > 0) == (workload == "probe-pooled")


def _nudged(values: np.ndarray) -> np.ndarray:
    values = np.array(values, dtype=np.float64)
    values[0] = np.nextafter(values[0], np.inf)
    return values


def test_read_gate_trips_on_a_perturbed_reference(
    capsys, monkeypatch, one_launch
):
    answers = reference.answers

    def perturbed(sharded, coords):
        return _nudged(answers(sharded, coords))

    monkeypatch.setattr(reference, "answers", perturbed)
    code, lines, result = _bench(capsys, "probe")
    assert code == 1 and result["correct"] is False
    assert result["failed"] > 0
    assert any("answers differ from the replayed reference" in line
               for line in lines)


def test_replay_gate_trips_on_a_perturbed_replay(
    capsys, monkeypatch, one_launch
):
    replay = reference.replay

    def perturbed(sharded, ops):
        results = replay(sharded, ops)
        if results:
            results[0] = -1
        return results

    monkeypatch.setattr(reference, "replay", perturbed)
    code, lines, result = _bench(capsys, "probe")
    assert code == 1 and result["correct"] is False
    assert any("replay gives -1" in line for line in lines)


def test_a_late_generator_invalidates_the_run(
    capsys, monkeypatch, one_launch
):
    monkeypatch.setattr(run, "LATE_LIMIT_MS", 0.0)
    code, lines, result = _bench(capsys, "probe")
    assert code == 1 and result["correct"] is False
    assert any("generator ran" in line for line in lines)


def test_speed_figures_are_scaled_by_the_calibration(
    capsys, monkeypatch, one_launch
):
    """On a machine that runs the calibration twice as slowly as the
    reference, times are halved and rates doubled."""
    monkeypatch.setattr(
        loadgen, "calibrate", lambda: 2 * run.CAL_REF_MS / 1e3
    )
    code, lines, result = _bench(capsys, "probe")
    assert code == 0, "\n".join(lines)
    note = next(line for line in lines if "unscaled:" in line)
    words = note.split("unscaled:")[1].split()
    unscaled = dict(zip(words[::2], map(float, words[1::2])))
    assert set(unscaled) == set(run.SCALED_TIMES + run.SCALED_RATES)
    for name, value in unscaled.items():
        scale = 0.5 if name in run.SCALED_TIMES else 2.0
        assert result["metrics"][name]["value"] == pytest.approx(
            value * scale, rel=1e-5
        )


def test_sigterm_leaks_pool_workers_and_the_lifecycle_check_sees_it():
    """SIGINT stops a pooled server with no child left; SIGTERM (a
    known defect of ``repro serve``) leaves its pool workers behind."""
    argv = [sys.executable, "-m", "repro", *run._server_argv(
        "probe-pooled", 3000
    )]
    first = [0.0, 0.0, 1.0, 1.0]
    server = loadgen.Server(argv, str(ROOT), run._env())
    server.start(first)
    assert len(server.pids()) == 3
    assert server.stop() == []

    server = loadgen.Server(argv, str(ROOT), run._env())
    server.start(first)
    server.proc.send_signal(signal.SIGTERM)
    server.proc.wait(timeout=30)
    problems = server.stop()
    assert any("outlived the server" in p for p in problems)
    assert len(server.leaked) == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / HERE.name,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "probe",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
