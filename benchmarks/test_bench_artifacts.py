"""The committed root ``BENCH_*.json`` artifacts regenerate byte for byte.

Each one is rerun with the ``repro-spatial bench --<preset>
--deterministic`` command that writes it (no wall-clock field
survives) into a temporary directory, and its text is compared with
the committed file's, the ``environment`` block aside.  Float results
depend on the Python and NumPy builds, so a run under other versions
than the artifact records skips, saying which.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("preset", ["quick", "serving", "live", "tuning"])
def test_committed_artifact_regenerates(preset, tmp_path, capsys):
    committed = REPO_ROOT / f"BENCH_{preset}.json"
    text = committed.read_text()
    environment = json.loads(text)["environment"]
    running = {"python": sys.version.split()[0], "numpy": np.__version__}
    if any(environment[key] != value for key, value in running.items()):
        pytest.skip(
            f"{committed.name} was written under Python "
            f"{environment['python']} / NumPy {environment['numpy']}; "
            f"this is Python {running['python']} / NumPy "
            f"{running['numpy']}"
        )
    argv = ["bench", f"--{preset}", "--deterministic", "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    regenerated = json.loads((tmp_path / committed.name).read_text())
    regenerated["environment"] = environment
    assert json.dumps(regenerated, indent=2, sort_keys=True) + "\n" == text
