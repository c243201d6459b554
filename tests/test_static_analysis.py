"""Tests for :mod:`repro.analysis` — the invariant linter.

Three layers:

* the **gate**: the real ``src/`` tree must lint clean (this is the
  static half of the determinism/contract story; the dynamic half
  lives in ``test_minskew_determinism.py`` and the differential
  tests);
* **per-rule fixtures**: for each rule, snippets that must flag and
  snippets that must pass, so rule behaviour is pinned independently
  of the current state of the tree;
* **framework behaviour**: alias resolution, reporters (text +
  schema-checked JSON), CLI wiring, and the optional mypy/ruff gates
  (skipped where the tools are absent).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    DEFAULT_CONFIG,
    PARSE_RULE,
    PROJECT_RULES,
    RULES,
    LintConfig,
    Violation,
    lint_json_dict,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    validate_lint_json,
)
from repro.analysis.engine import ModuleContext, iter_source_files
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

# Fixture paths that place snippets inside/outside rule scopes.
CORE_PATH = "src/repro/core/fixture.py"
GEOMETRY_PATH = "src/repro/geometry/fixture.py"
OBS_PATH = "src/repro/obs/fixture.py"
DATA_PATH = "src/repro/data/fixture.py"


def codes(violations):
    return [v.rule for v in violations]


def lint_only(source, path, *rules):
    """Lint with only the named rules enabled (fixture isolation:
    un-annotated fixture defs must not trip API001 in a DET001 test)."""
    return lint_source(source, path, LintConfig(select=frozenset(rules)))


# ----------------------------------------------------------------------
# the gate: the shipped tree must be clean
# ----------------------------------------------------------------------
class TestRepositoryGate:
    def test_src_tree_lints_clean(self):
        result = lint_paths([SRC], DEFAULT_CONFIG)
        assert result.files_checked > 50
        assert result.ok, "\n" + render_text(result)

    def test_every_registered_rule_ran_over_real_tree(self):
        # A rule that silently never applies is a dead rule; each one
        # must at least be exercised by the fixtures (here and in
        # test_project_analysis.py), and the two registries the one
        # pass runs must carry exactly the documented codes.
        assert set(RULES) == {
            "DET001", "NPY001", "MUT001", "OBS001", "API001",
        }
        assert set(PROJECT_RULES) == {
            "EPOCH001", "SEED001", "ORDER001", "RES002",
        }


# ----------------------------------------------------------------------
# DET001 — determinism
# ----------------------------------------------------------------------
class TestDET001:
    def test_flags_global_numpy_rng(self):
        source = (
            "import numpy as np\n"
            "def f():\n"
            "    np.random.seed(0)\n"
            "    return np.random.rand(3)\n"
        )
        found = lint_only(source, CORE_PATH, 'DET001')
        assert codes(found) == ["DET001", "DET001"]

    def test_flags_stdlib_random(self):
        source = (
            "import random\n"
            "def f():\n"
            "    return random.random()\n"
        )
        assert codes(lint_only(source, CORE_PATH, 'DET001')) == ["DET001"]

    def test_flags_from_import_alias(self):
        source = (
            "from random import shuffle\n"
            "def f(xs):\n"
            "    shuffle(xs)\n"
        )
        assert "DET001" in codes(lint_only(source, CORE_PATH, 'DET001'))

    def test_flags_wall_clock(self):
        source = (
            "import time\n"
            "def f():\n"
            "    return time.time()\n"
        )
        assert codes(lint_only(source, CORE_PATH, 'DET001')) == ["DET001"]

    def test_flags_unseeded_default_rng(self):
        source = (
            "import numpy as np\n"
            "def f():\n"
            "    return np.random.default_rng()\n"
        )
        assert codes(lint_only(source, CORE_PATH, 'DET001')) == ["DET001"]

    def test_passes_seeded_generator(self):
        source = (
            "import numpy as np\n"
            "def f(seed: int) -> object:\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.integers(0, 10)\n"
        )
        assert lint_only(source, CORE_PATH, 'DET001') == []

    def test_passes_threaded_generator_parameter(self):
        source = (
            "import numpy as np\n"
            "def f(rng: np.random.Generator) -> object:\n"
            "    return rng.normal()\n"
        )
        assert lint_only(source, CORE_PATH, 'DET001') == []

    def test_obs_package_is_allowlisted(self):
        source = (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        )
        assert lint_only(source, OBS_PATH, 'DET001') == []

    def test_time_perf_counter_is_fine(self):
        source = (
            "import time\n"
            "def f():\n"
            "    return time.perf_counter()\n"
        )
        assert lint_only(source, CORE_PATH, 'DET001') == []


# ----------------------------------------------------------------------
# NPY001 — dtype hygiene
# ----------------------------------------------------------------------
class TestNPY001:
    def test_flags_builtin_astype(self):
        source = "def f(a):\n    return a.astype(int)\n"
        assert codes(lint_only(source, DATA_PATH, 'NPY001')) == ["NPY001"]

    def test_flags_builtin_dtype_keyword(self):
        source = (
            "import numpy as np\n"
            "def f():\n"
            "    return np.zeros(3, dtype=float)\n"
        )
        assert codes(lint_only(source, DATA_PATH, 'NPY001')) == ["NPY001"]

    def test_flags_numeric_string_dtype(self):
        source = "def f(a):\n    return a.astype('i8')\n"
        assert codes(lint_only(source, DATA_PATH, 'NPY001')) == ["NPY001"]

    def test_flags_astype_without_argument(self):
        source = "def f(a):\n    return a.astype()\n"
        assert codes(lint_only(source, DATA_PATH, 'NPY001')) == ["NPY001"]

    def test_passes_explicit_numpy_dtype(self):
        source = (
            "import numpy as np\n"
            "def f(a):\n"
            "    b = a.astype(np.int64)\n"
            "    return np.zeros(3, dtype=np.float64), b\n"
        )
        assert lint_only(source, DATA_PATH, 'NPY001') == []

    def test_passes_unicode_dtype(self):
        # "<U1" carries its width and is not numeric.
        source = (
            "import numpy as np\n"
            "def f():\n"
            "    return np.full(3, ' ', dtype='<U1')\n"
        )
        assert lint_only(source, DATA_PATH, 'NPY001') == []

    def test_passes_dtype_variable(self):
        source = "def f(a, dt):\n    return a.astype(dt)\n"
        assert lint_only(source, DATA_PATH, 'NPY001') == []


# ----------------------------------------------------------------------
# MUT001 — parameter purity
# ----------------------------------------------------------------------
class TestMUT001:
    def test_flags_item_assignment(self):
        source = "def f(arr):\n    arr[0] = 1.0\n"
        assert codes(lint_only(source, CORE_PATH, 'MUT001')) == ["MUT001"]

    def test_flags_augmented_assignment(self):
        source = "def f(arr):\n    arr += 1\n"
        assert codes(lint_only(source, CORE_PATH, 'MUT001')) == ["MUT001"]

    def test_flags_mutating_method(self):
        source = "def f(xs):\n    xs.sort()\n    return xs\n"
        assert codes(lint_only(source, CORE_PATH, 'MUT001')) == ["MUT001"]

    def test_flags_public_method_parameter(self):
        source = (
            "class Thing:\n"
            "    def run(self, arr):\n"
            "        arr[:] = 0\n"
        )
        assert codes(lint_only(source, CORE_PATH, 'MUT001')) == ["MUT001"]

    def test_passes_private_function(self):
        source = "def _f(arr):\n    arr[0] = 1.0\n"
        assert lint_only(source, CORE_PATH, 'MUT001') == []

    def test_passes_mutating_self(self):
        source = (
            "class Thing:\n"
            "    def run(self, n):\n"
            "        self.items.append(n)\n"
            "        self.count += 1\n"
        )
        assert lint_only(source, CORE_PATH, 'MUT001') == []

    def test_passes_rebound_parameter(self):
        # ``arr = arr.copy()`` makes the object function-owned.
        source = (
            "def f(arr):\n"
            "    arr = arr.copy()\n"
            "    arr[0] = 1.0\n"
            "    return arr\n"
        )
        assert lint_only(source, CORE_PATH, 'MUT001') == []

    def test_passes_local_mutation(self):
        source = (
            "def f(n):\n"
            "    out = []\n"
            "    out.append(n)\n"
            "    return out\n"
        )
        assert lint_only(source, CORE_PATH, 'MUT001') == []

    def test_out_of_scope_package_is_ignored(self):
        source = "def f(arr):\n    arr[0] = 1.0\n"
        assert lint_only(source, DATA_PATH, 'MUT001') == []


# ----------------------------------------------------------------------
# OBS001 — metric-key discipline
# ----------------------------------------------------------------------
class TestOBS001:
    def test_flags_unregistered_namespace(self):
        source = (
            "from repro.obs import OBS\n"
            "def f():\n"
            "    OBS.add('bogus_ns.thing')\n"
        )
        assert codes(lint_only(source, CORE_PATH, 'OBS001')) == ["OBS001"]

    def test_flags_computed_key(self):
        source = (
            "from repro.obs import OBS\n"
            "def f(key):\n"
            "    OBS.add(key)\n"
        )
        assert codes(lint_only(source, CORE_PATH, 'OBS001')) == ["OBS001"]

    def test_flags_fstring_without_literal_prefix(self):
        source = (
            "from repro.obs import OBS\n"
            "def f(ns):\n"
            "    with OBS.timer(f'{ns}.build'):\n"
            "        pass\n"
        )
        assert codes(lint_only(source, CORE_PATH, 'OBS001')) == ["OBS001"]

    def test_flags_malformed_key(self):
        source = (
            "from repro.obs import OBS\n"
            "def f():\n"
            "    OBS.add('NoDotsHere')\n"
        )
        assert codes(lint_only(source, CORE_PATH, 'OBS001')) == ["OBS001"]

    def test_passes_registered_literal(self):
        source = (
            "from repro.obs import OBS\n"
            "def f():\n"
            "    OBS.add('minskew.splits', 3)\n"
            "    OBS.observe('rtree.height', 4.0)\n"
            "    with OBS.timer('oracle.exact_counts'):\n"
            "        pass\n"
        )
        assert lint_only(source, CORE_PATH, 'OBS001') == []

    def test_passes_fstring_with_registered_prefix(self):
        source = (
            "from repro.obs import OBS\n"
            "def f(name):\n"
            "    with OBS.timer(f'estimate.{name}'):\n"
            "        pass\n"
        )
        assert lint_only(source, CORE_PATH, 'OBS001') == []

    def test_other_receivers_are_not_checked(self):
        source = (
            "def f(registry, key):\n"
            "    registry.add(key)\n"
        )
        assert lint_only(source, CORE_PATH, 'OBS001') == []


# ----------------------------------------------------------------------
# API001 — annotation completeness
# ----------------------------------------------------------------------
class TestAPI001:
    def test_flags_missing_parameter_and_return(self):
        source = "def area(w, h: float):\n    return w * h\n"
        found = lint_only(source, GEOMETRY_PATH, 'API001')
        assert codes(found) == ["API001", "API001"]
        messages = " ".join(v.message for v in found)
        assert "'w'" in messages and "return type" in messages

    def test_flags_unannotated_method(self):
        source = (
            "class Shape:\n"
            "    def scale(self, factor) -> 'Shape':\n"
            "        return self\n"
        )
        assert codes(lint_only(source, GEOMETRY_PATH, 'API001')) == ["API001"]

    def test_passes_fully_annotated(self):
        source = (
            "def area(w: float, h: float) -> float:\n"
            "    return w * h\n"
            "class Shape:\n"
            "    def scale(self, factor: float) -> 'Shape':\n"
            "        return self\n"
        )
        assert lint_only(source, GEOMETRY_PATH, 'API001') == []

    def test_passes_private_and_nested(self):
        source = (
            "def _helper(x):\n"
            "    def inner(y):\n"
            "        return y\n"
            "    return inner(x)\n"
        )
        assert lint_only(source, GEOMETRY_PATH, 'API001') == []

    def test_out_of_scope_package_is_ignored(self):
        source = "def f(x):\n    return x\n"
        assert lint_only(source, DATA_PATH, 'API001') == []

    def test_kwonly_vararg_and_kwarg_need_annotations(self):
        source = (
            "def f(*args, scale, **kwargs) -> None:\n"
            "    pass\n"
        )
        assert codes(lint_only(source, GEOMETRY_PATH, 'API001')) == [
            "API001", "API001", "API001",
        ]


# ----------------------------------------------------------------------
# engine behaviour
# ----------------------------------------------------------------------
class TestEngine:
    def test_syntax_error_becomes_parse_violation(self):
        found = lint_source("def broken(:\n", CORE_PATH)
        assert codes(found) == [PARSE_RULE]
        assert found[0].line >= 1

    def test_alias_resolution(self):
        ctx = ModuleContext.from_source(
            "import numpy as np\nx = np.random.seed\n", CORE_PATH
        )
        import ast

        node = ast.parse("np.random.seed").body[0].value
        assert ctx.resolve(node) == "numpy.random.seed"

    def test_module_name_mapping(self):
        ctx = ModuleContext.from_source("", "src/repro/core/minskew.py")
        assert ctx.module == "repro.core.minskew"
        assert ctx.in_packages(("repro.core",))
        assert not ctx.in_packages(("repro.geometry",))

    def test_package_init_maps_to_package(self):
        ctx = ModuleContext.from_source("", "src/repro/obs/__init__.py")
        assert ctx.module == "repro.obs"

    def test_iter_source_files_dedups_and_sorts(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("y = 2\n")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "c.py").write_text("z = 3\n")
        files = iter_source_files([tmp_path, tmp_path / "a.py"])
        names = [f.name for f in files]
        assert names == ["a.py", "b.py"]

    def test_missing_target_raises(self):
        with pytest.raises(FileNotFoundError):
            iter_source_files([Path("/definitely/not/here")])

    def test_rule_selection(self):
        source = (
            "import time\n"
            "def f(a):\n"
            "    a[0] = time.time()\n"
        )
        config = LintConfig(select=frozenset({"MUT001"}))
        assert codes(lint_source(source, CORE_PATH, config)) == ["MUT001"]

    def test_violations_are_ordered(self):
        a = Violation("a.py", 2, 0, "DET001", "x")
        b = Violation("a.py", 1, 0, "NPY001", "y")
        assert sorted([a, b]) == [b, a]
        assert b.format() == "a.py:1:0: NPY001 y"


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------
class TestReporters:
    def _result(self):
        return lint_paths([SRC / "repro" / "geometry"], DEFAULT_CONFIG)

    def test_json_report_matches_schema(self):
        doc = json.loads(render_json(self._result()))
        validate_lint_json(doc)
        assert doc["tool"] == "repro-lint"
        assert doc["files_checked"] >= 3

    def test_json_report_carries_violations(self):
        source = "import time\ndef f():\n    return time.time()\n"
        found = lint_only(source, CORE_PATH, "DET001")
        from repro.analysis.engine import LintResult

        doc = lint_json_dict(
            LintResult(files_checked=1, violations=tuple(found))
        )
        validate_lint_json(doc)
        assert doc["summary"]["total"] == 1
        assert doc["summary"]["by_rule"] == {"DET001": 1}
        entry = doc["violations"][0]
        assert entry["rule"] == "DET001"
        assert entry["path"] == CORE_PATH
        assert entry["line"] == 3

    def test_validate_rejects_mismatched_summary(self):
        doc = lint_json_dict(
            __import__("repro.analysis.engine", fromlist=["LintResult"])
            .LintResult(files_checked=0, violations=()),
        )
        doc["summary"]["total"] = 5
        with pytest.raises(ValueError):
            validate_lint_json(doc)

    def test_text_report_clean_summary(self):
        text = render_text(self._result())
        assert text.endswith("files clean")


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestCli:
    def test_lint_src_exits_zero(self, capsys):
        assert main(["lint", str(SRC)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_violating_file_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\ndef f():\n    return time.time()\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "bad.py:3:" in out

    def test_lint_json_format(self, tmp_path, capsys):
        good = tmp_path / "ok.py"
        good.write_text("x = 1\n")
        assert main(["lint", str(good), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate_lint_json(doc)

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out

    def test_lint_unknown_rule_exits_nonzero(self, capsys):
        assert main(["lint", "--rules", "NOPE999", str(SRC)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "repro-spatial: error: ValidationError: unknown rule(s): "
            "NOPE999"
        )
        assert "known rules:" in err
        assert len(err.strip().splitlines()) == 1

    def test_lint_empty_rule_selection_exits_nonzero(self, capsys):
        assert main(["lint", "--rules", ",", str(SRC)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-spatial: error: ValidationError:")
        assert "selects no rules" in err

    def test_importing_cli_does_not_load_the_linter(self):
        probe = (
            "import sys, repro.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.analysis')))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", probe],
            env={**__import__("os").environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"

    def test_failing_subcommand_prints_one_line_error(self, capsys):
        exit_code = main(["lint", "/no/such/target"])
        assert exit_code == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-spatial: error:")
        assert len(err.strip().splitlines()) == 1


# ----------------------------------------------------------------------
# optional tool gates (exercised fully in CI, skipped where absent)
# ----------------------------------------------------------------------
def _tool_missing(module: str) -> bool:
    try:
        __import__(module)
    except ImportError:
        return shutil.which(module) is None
    return False


@pytest.mark.skipif(_tool_missing("mypy"), reason="mypy not installed")
def test_mypy_strict_gate():
    completed = subprocess.run(
        [
            sys.executable, "-m", "mypy", "--strict",
            "-p", "repro.geometry",
            "-p", "repro.obs",
            "-p", "repro.analysis",
            "-m", "repro.errors",
            "-p", "repro.resilience",
            "-p", "repro.serving",
            "-p", "repro.estimators",
        ],
        cwd=REPO_ROOT,
        env={**__import__("os").environ,
             "MYPYPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr


@pytest.mark.skipif(_tool_missing("ruff"), reason="ruff not installed")
def test_ruff_gate():
    completed = subprocess.run(
        [sys.executable, "-m", "ruff", "check", "src"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
