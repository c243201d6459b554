"""Crash safety: bit-identical resume after a SIGKILL mid-benchmark.

The worker-kill experiment behind ``repro-spatial chaos`` is covered
in ``tests/test_serving_chaos.py``.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


# ----------------------------------------------------------------------
# kill-and-resume: SIGKILL a checkpointed benchmark, resume, compare
# ----------------------------------------------------------------------
BENCH_ARGS = [
    "bench", "--quick", "--deterministic",
    "--datasets", "charminar:800",
    "--buckets", "10", "--regions", "400", "--queries", "60",
    "--name", "resume",
]


def _bench_cmd(out_dir: Path, checkpoint_dir: Path):
    return [
        sys.executable, "-m", "repro", *BENCH_ARGS,
        "--out", str(out_dir), "--checkpoint-dir", str(checkpoint_dir),
    ]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class TestKillAndResume:
    def test_sigkilled_bench_resumes_bit_identical(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        out_killed = tmp_path / "killed"
        out_fresh = tmp_path / "fresh"

        # Start a checkpointed run and SIGKILL it as soon as the first
        # cell lands on disk (if it finishes first, that's fine too —
        # the byte-comparison below is the real assertion).
        proc = subprocess.Popen(
            _bench_cmd(out_killed, ckpt), env=_env(), cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 120
        try:
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break
                if list(ckpt.glob("cell-*.json")):
                    proc.send_signal(signal.SIGKILL)
                    break
                time.sleep(0.05)
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # Resume against the surviving checkpoints; must complete.
        resumed = subprocess.run(
            _bench_cmd(out_killed, ckpt), env=_env(), cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=240,
        )
        assert resumed.returncode == 0, resumed.stderr

        # An uninterrupted deterministic run, fresh checkpoint dir.
        fresh = subprocess.run(
            _bench_cmd(out_fresh, tmp_path / "ckpt-fresh"),
            env=_env(), cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=240,
        )
        assert fresh.returncode == 0, fresh.stderr

        resumed_bytes = (out_killed / "BENCH_resume.json").read_bytes()
        fresh_bytes = (out_fresh / "BENCH_resume.json").read_bytes()
        assert resumed_bytes == fresh_bytes
