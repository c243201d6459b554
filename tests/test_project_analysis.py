"""Whole-program analysis tests: loader, call graph, rules, wiring.

Covers, in ISSUE order:

* **substrate**: module loading and symbol tables (aliased and
  relative imports, attribute inventories with pickle-hazard flags),
  call-graph construction over a fixture package (aliased imports,
  method resolution through the MRO, cycles);
* **dominance**: the path-sensitive revalidate-before-read analysis
  on straight-line code, branches, loops and try/except;
* **the five cross-module rules** on small fixture packages, each
  with a firing and a clean variant;
* **reporters**: JSON and SARIF round-trips through their validators;
* **baseline**: write/load/apply round-trip and corruption errors;
* **CLI**: the ``--project``/``--baseline``/``--sarif`` surface;
* **the real tree**: ``src/`` lints clean under the project pass;
* **mutation self-test**: deleting the ``sync()`` call, or giving a
  pickled class a ``__getstate__`` without ``__setstate__``, in a
  copy of the source tree flips the project pass non-zero — proof
  the rules guard what they claim to.
"""

import ast
import json
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    DEFAULT_CONFIG,
    PROJECT_RULES,
    RULES,
    apply_baseline,
    fingerprint,
    lint_json_dict,
    lint_project,
    load_baseline,
    load_project,
    sarif_dict,
    validate_lint_json,
    validate_sarif,
    write_baseline,
)
from repro.analysis.project import CallGraph, undominated_reads
from repro.analysis.project.dominance import EVENT_READ, \
    EVENT_REVALIDATE
from repro.cli import main
from repro.errors import ValidationError

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


# ----------------------------------------------------------------------
# fixture helpers
# ----------------------------------------------------------------------
def write_package(root, modules):
    """Materialise ``{relpath: source}`` under a ``repro`` package.

    The loader anchors module names at the last ``repro`` path
    component, so fixture trees live under ``tmp/repro/…`` and get
    real ``repro.…`` qualified names.
    """
    pkg = root / "repro"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    for rel, source in modules.items():
        target = pkg / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        parent = target.parent
        while parent != pkg:
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("")
            parent = parent.parent
        target.write_text(textwrap.dedent(source))
    return pkg


def project_of(root, modules):
    pkg = write_package(root, modules)
    project, parse_errors = load_project(
        sorted(pkg.rglob("*.py"))
    )
    assert not parse_errors
    return project


def rule_findings(code, project, config=DEFAULT_CONFIG):
    rule = PROJECT_RULES[code](project, config)
    return rule.run()


# ----------------------------------------------------------------------
# loader and symbol tables
# ----------------------------------------------------------------------
class TestLoader:
    def test_classes_functions_and_methods_indexed(self, tmp_path):
        project = project_of(tmp_path, {
            "core.py": """
                class Histogram:
                    def build(self):
                        return 1

                def top():
                    return 2
            """,
        })
        assert "repro.core.Histogram" in project.classes
        assert "repro.core.top" in project.functions
        assert "repro.core.Histogram.build" in project.functions
        info = project.classes["repro.core.Histogram"]
        assert info.defines("build")
        assert not info.defines("missing")

    def test_relative_and_aliased_imports_resolve(self, tmp_path):
        project = project_of(tmp_path, {
            "serving/engine.py": """
                class Engine:
                    pass
            """,
            "serving/router.py": """
                from .engine import Engine as Eng
                import repro.serving.engine as eng_mod

                def make():
                    return Eng()
            """,
        })
        aliases = project.module_aliases["repro.serving.router"]
        assert aliases["Eng"] == "repro.serving.engine.Engine"
        assert aliases["eng_mod"] == "repro.serving.engine"
        resolved = project.resolve_dotted(
            "repro.serving.router", ["Eng"]
        )
        assert resolved == "repro.serving.engine.Engine"

    def test_reexport_canonicalization(self, tmp_path):
        project = project_of(tmp_path, {
            "serving/engine.py": """
                class Engine:
                    pass
            """,
            "serving/__init__.py": """
                from .engine import Engine
            """,
            "app.py": """
                from repro.serving import Engine

                def make():
                    return Engine()
            """,
        })
        resolved = project.resolve_dotted("repro.app", ["Engine"])
        assert resolved == "repro.serving.engine.Engine"

    def test_attribute_inventory_flags_hazards(self, tmp_path):
        project = project_of(tmp_path, {
            "state.py": """
                import threading

                class Held:
                    pass

                class Carrier:
                    def __init__(self, est):
                        self._observed = {id(est): est}
                        self._lock = threading.Lock()
                        self._gen = (x for x in range(3))
                        self.child = Held()
                        self.plain = 4
            """,
        })
        info = project.classes["repro.state.Carrier"]
        attrs = info.attributes
        assert attrs["_observed"].id_keyed
        assert attrs["_lock"].lock
        assert attrs["_gen"].generator
        assert not attrs["plain"].risky
        assert attrs["child"].held_classes == {"repro.state.Held"}

    def test_mro_walks_project_bases(self, tmp_path):
        project = project_of(tmp_path, {
            "base.py": """
                class Base:
                    def sync(self):
                        pass
            """,
            "derived.py": """
                from .base import Base

                class Derived(Base):
                    pass
            """,
        })
        assert project.defines_or_inherits(
            "repro.derived.Derived", ("sync",)
        )
        method = project.find_method("repro.derived.Derived", "sync")
        assert method is not None
        assert method.qualname == "repro.base.Base.sync"


# ----------------------------------------------------------------------
# call graph
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_aliased_cross_module_edge(self, tmp_path):
        project = project_of(tmp_path, {
            "util.py": """
                def helper():
                    return 1
            """,
            "app.py": """
                from .util import helper as h

                def run():
                    return h()
            """,
        })
        graph = CallGraph.build(project)
        callees = [
            s.callee for s in graph.callees_of("repro.app.run")
        ]
        assert callees == ["repro.util.helper"]

    def test_self_method_resolution_through_mro(self, tmp_path):
        project = project_of(tmp_path, {
            "base.py": """
                class Base:
                    def shared(self):
                        return 0
            """,
            "app.py": """
                from .base import Base

                class App(Base):
                    def run(self):
                        return self.shared()
            """,
        })
        graph = CallGraph.build(project)
        callees = [
            s.callee
            for s in graph.callees_of("repro.app.App.run")
        ]
        assert callees == ["repro.base.Base.shared"]

    def test_constructor_edge_and_receiver_inference(self, tmp_path):
        project = project_of(tmp_path, {
            "engine.py": """
                class Engine:
                    def serve(self):
                        return 1
            """,
            "app.py": """
                from .engine import Engine

                def run():
                    engine = Engine()
                    return engine.serve()
            """,
        })
        graph = CallGraph.build(project)
        callees = {
            s.callee for s in graph.callees_of("repro.app.run")
        }
        assert callees == {
            "repro.engine.Engine",
            "repro.engine.Engine.serve",
        }

    def test_cyclic_calls_terminate(self, tmp_path):
        project = project_of(tmp_path, {
            "cyc.py": """
                def ping(n):
                    return pong(n - 1)

                def pong(n):
                    return ping(n - 1)
            """,
        })
        graph = CallGraph.build(project)
        assert [
            s.callee for s in graph.callees_of("repro.cyc.ping")
        ] == ["repro.cyc.pong"]
        assert [
            s.callee for s in graph.callees_of("repro.cyc.pong")
        ] == ["repro.cyc.ping"]


# ----------------------------------------------------------------------
# dominance analysis
# ----------------------------------------------------------------------
def _dominance(body):
    source = "def probe(self):\n" + textwrap.indent(
        textwrap.dedent(body), "    "
    )
    node = ast.parse(source).body[0]

    def classify(call):
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr == "_revalidate":
                return EVENT_REVALIDATE
            if func.attr == "lookup":
                return EVENT_READ
        return None

    return undominated_reads(node, classify)


class TestDominance:
    def test_straight_line_dominated(self):
        assert _dominance("""
            self._revalidate()
            return self.cache.lookup(key)
        """) == []

    def test_read_before_revalidate_fires(self):
        assert len(_dominance("""
            value = self.cache.lookup(key)
            self._revalidate()
            return value
        """)) == 1

    def test_both_branches_must_revalidate(self):
        assert _dominance("""
            if fast:
                self._revalidate()
            else:
                self._revalidate()
            return self.cache.lookup(key)
        """) == []
        assert len(_dominance("""
            if fast:
                self._revalidate()
            return self.cache.lookup(key)
        """)) == 1

    def test_terminated_branch_excluded_from_join(self):
        assert _dominance("""
            if bad:
                raise ValueError("no")
            self._revalidate()
            return self.cache.lookup(key)
        """) == []

    def test_loop_revalidate_does_not_escape(self):
        # The loop body may run zero times.
        assert len(_dominance("""
            for item in items:
                self._revalidate()
            return self.cache.lookup(key)
        """)) == 1

    def test_try_body_must_not_be_assumed(self):
        assert len(_dominance("""
            try:
                self._revalidate()
            except RuntimeError:
                pass
            return self.cache.lookup(key)
        """)) == 1


# ----------------------------------------------------------------------
# EPOCH001
# ----------------------------------------------------------------------
_EPOCH_CLEAN = {
    "estimators/bucket.py": """
        class BucketEstimator:
            def sync(self):
                self.epoch = 1

            def estimate(self, qrow):
                self.sync()
                return self._arrays.estimate_block(qrow)

            def estimate_batch(self, queries):
                self.sync()
                return self._serve(queries)

            def _serve(self, queries):
                return estimate_many_arrays(self._arrays, queries)
    """,
}


#: exactly one finding under every rule: a snapshot read no sync()
#: dominates
_EPOCH_FINDING = {
    "serving/live.py": """
        class LiveEstimator:
            def sync(self):
                self.epoch = 1

            def estimate(self, qrow):
                return self._arrays.estimate_block(qrow)
    """,
}


class TestEpoch001:
    def test_clean_engine_passes(self, tmp_path):
        project = project_of(tmp_path, _EPOCH_CLEAN)
        assert rule_findings("EPOCH001", project) == []

    def test_undominated_public_read_fires(self, tmp_path):
        project = project_of(tmp_path, _EPOCH_FINDING)
        found = rule_findings("EPOCH001", project)
        assert len(found) == 1
        assert found[0].rule == "EPOCH001"
        assert "LiveEstimator.estimate" in found[0].message

    def test_undominated_call_to_needy_private_fires(self, tmp_path):
        project = project_of(tmp_path, {
            "estimators/bucket.py": """
                class BucketEstimator:
                    def sync(self):
                        self.epoch = 1

                    def estimate_batch(self, queries):
                        return self._serve(queries)

                    def _serve(self, queries):
                        return self._arrays.estimate_block(queries)
            """,
        })
        found = rule_findings("EPOCH001", project)
        assert len(found) == 1
        assert "_serve" in found[0].message

    def test_snapshot_passed_as_argument_needs_sync(self, tmp_path):
        """Handing the snapshot to a kernel function reads it as
        surely as calling a method on it."""
        project = project_of(tmp_path, {
            "serving/union.py": """
                class UnionEstimator:
                    def _revalidate(self):
                        self.epoch = 1

                    def estimate_batch(self, queries):
                        return estimate_many_arrays(
                            queries, arrays=self._arrays
                        )
            """,
        })
        found = rule_findings("EPOCH001", project)
        assert len(found) == 1
        assert "kernel-snapshot read" in found[0].message

    def test_out_of_scope_package_ignored(self, tmp_path):
        project = project_of(tmp_path, {
            "viz/plot.py": """
                class Plotter:
                    def sync(self):
                        pass

                    def draw(self, qrow):
                        return self._arrays.estimate_block(qrow)
            """,
        })
        assert rule_findings("EPOCH001", project) == []

    def test_nonself_bucket_store_fires_in_tuning(self, tmp_path):
        """``repro.tuning`` is in EPOCH001 scope: a tuner that swaps
        the summary directly instead of publishing through
        ``replace_buckets`` (the atomic epoch bump) is a finding."""
        project = project_of(tmp_path, {
            "tuning/feedback.py": """
                class Tuner:
                    def tune(self, hist, buckets):
                        hist.buckets = buckets
            """,
        })
        found = rule_findings("EPOCH001", project)
        assert len(found) == 1
        assert "replace_buckets" in found[0].message

    def test_bucket_store_via_attribute_chain_fires(self, tmp_path):
        project = project_of(tmp_path, {
            "serving/shard.py": """
                class Shard:
                    def adopt(self, buckets):
                        self.hist.buckets = buckets
            """,
        })
        found = rule_findings("EPOCH001", project)
        assert len(found) == 1
        assert "epoch bump" in found[0].message

    def test_epoch_publish_path_is_clean(self, tmp_path):
        """Publishing through ``replace_buckets`` — and the owner's
        own ``self.buckets`` store inside it — is the sanctioned
        path."""
        project = project_of(tmp_path, {
            "tuning/feedback.py": """
                class Tuner:
                    def tune(self, hist, buckets):
                        hist.replace_buckets(buckets)
            """,
            "estimators/maintained.py": """
                class MaintainedEstimator:
                    def sync(self):
                        self.buckets = list(self._histogram.buckets)
            """,
        })
        assert rule_findings("EPOCH001", project) == []

    def test_bucket_store_outside_scope_ignored(self, tmp_path):
        project = project_of(tmp_path, {
            "viz/plot.py": """
                def restyle(hist, buckets):
                    hist.buckets = buckets
            """,
        })
        assert rule_findings("EPOCH001", project) == []


# ----------------------------------------------------------------------
# PICKLE001
# ----------------------------------------------------------------------
class TestPickle001:
    def test_one_sided_hook_pair_fires_anywhere(self, tmp_path):
        project = project_of(tmp_path, {
            "anywhere.py": """
                class Half:
                    def __getstate__(self):
                        return {}
            """,
        })
        found = rule_findings("PICKLE001", project)
        assert len(found) == 1
        assert "__setstate__" in found[0].message

    def test_reachable_risky_class_without_hooks_fires(
        self, tmp_path
    ):
        # Engine is never passed to the boundary directly — it is
        # reachable only as a held attribute of the pickled Shard.
        project = project_of(tmp_path, {
            "serving/engine.py": """
                class Engine:
                    def __init__(self, est):
                        self._observed = {id(est): est}
            """,
            "serving/shard.py": """
                from .engine import Engine

                class Shard:
                    def __init__(self):
                        self.engine = Engine(None)
            """,
            "serving/router.py": """
                import pickle
                from .shard import Shard

                def snapshot():
                    shard = Shard()
                    return pickle.dumps(shard)
            """,
        })
        found = rule_findings("PICKLE001", project)
        assert len(found) == 1
        assert "Engine" in found[0].message
        assert "id()-keyed dict" in found[0].message

    def test_hook_pair_silences_reachability(self, tmp_path):
        project = project_of(tmp_path, {
            "serving/engine.py": """
                import pickle

                class Engine:
                    def __init__(self, est):
                        self._observed = {id(est): est}

                    def __getstate__(self):
                        return {}

                    def __setstate__(self, state):
                        self._observed = {}

                def snapshot(engine):
                    engine = Engine(None)
                    return pickle.dumps(engine)
            """,
        })
        assert rule_findings("PICKLE001", project) == []


# ----------------------------------------------------------------------
# SEED001
# ----------------------------------------------------------------------
class TestSeed001:
    def test_module_global_seed_fires(self, tmp_path):
        project = project_of(tmp_path, {
            "gen.py": """
                import numpy as np

                GLOBAL_SEED = 7

                def sample():
                    rng = np.random.default_rng(GLOBAL_SEED)
                    return rng
            """,
        })
        found = rule_findings("SEED001", project)
        assert len(found) == 1
        assert "GLOBAL_SEED" in found[0].message

    def test_explicit_none_seed_fires(self, tmp_path):
        project = project_of(tmp_path, {
            "gen.py": """
                import numpy as np

                def sample():
                    return np.random.default_rng(None)
            """,
        })
        found = rule_findings("SEED001", project)
        assert len(found) == 1
        assert "None" in found[0].message

    def test_parameter_threaded_seed_is_clean(self, tmp_path):
        project = project_of(tmp_path, {
            "gen.py": """
                import numpy as np

                def sample(seed):
                    return np.random.default_rng(seed)

                def caller(seed=0):
                    return sample(seed)
            """,
        })
        assert rule_findings("SEED001", project) == []

    def test_call_omitting_none_default_seed_fires(self, tmp_path):
        project = project_of(tmp_path, {
            "gen.py": """
                import numpy as np

                def sample(n, seed=None):
                    return np.random.default_rng(seed)

                def caller():
                    return sample(10)
            """,
        })
        found = rule_findings("SEED001", project)
        assert len(found) == 1
        assert "leaves seed parameter 'seed'" in found[0].message

    def test_global_passed_up_a_call_edge_fires(self, tmp_path):
        project = project_of(tmp_path, {
            "gen.py": """
                import numpy as np

                ENTROPY = 13

                def sample(seed):
                    return np.random.default_rng(seed)

                def caller():
                    return sample(ENTROPY)
            """,
        })
        found = rule_findings("SEED001", project)
        assert len(found) == 1
        assert "ENTROPY" in found[0].message

    def test_literal_seed_is_clean(self, tmp_path):
        project = project_of(tmp_path, {
            "gen.py": """
                import numpy as np

                def sample():
                    return np.random.default_rng(42)
            """,
        })
        assert rule_findings("SEED001", project) == []


# ----------------------------------------------------------------------
# ORDER001
# ----------------------------------------------------------------------
class TestOrder001:
    def test_sum_over_set_fires(self, tmp_path):
        project = project_of(tmp_path, {
            "core/acc.py": """
                def total(weights):
                    chosen = set(weights)
                    return sum(w for w in chosen)
            """,
        })
        found = rule_findings("ORDER001", project)
        assert len(found) == 1
        assert "sorted" in found[0].message

    def test_loop_accumulation_over_set_fires(self, tmp_path):
        project = project_of(tmp_path, {
            "estimators/acc.py": """
                def total(buckets):
                    acc = 0.0
                    for b in buckets | {1.5}:
                        acc += b
                    return acc
            """,
        })
        assert len(rule_findings("ORDER001", project)) == 1

    def test_sorted_iteration_is_clean(self, tmp_path):
        project = project_of(tmp_path, {
            "core/acc.py": """
                def total(weights):
                    chosen = set(weights)
                    return sum(w for w in sorted(chosen))
            """,
        })
        assert rule_findings("ORDER001", project) == []

    def test_outside_kernel_packages_ignored(self, tmp_path):
        project = project_of(tmp_path, {
            "viz/acc.py": """
                def total(weights):
                    return sum(w for w in set(weights))
            """,
        })
        assert rule_findings("ORDER001", project) == []


# ----------------------------------------------------------------------
# SUP001 and the lint_project driver
# ----------------------------------------------------------------------
class TestSup001AndDriver:
    def test_unused_suppression_is_a_finding(self, tmp_path):
        write_package(tmp_path, {
            "clean.py": """
                x = 1  # repro: noqa[DET001]
            """,
        })
        result = lint_project([tmp_path / "repro"])
        assert [v.rule for v in result.violations] == ["SUP001"]
        assert "DET001" in result.violations[0].message

    def test_used_suppression_is_clean_and_suppresses(self, tmp_path):
        write_package(tmp_path, {
            "timed.py": """
                import time

                def now():
                    return time.time()  # repro: noqa[DET001]
            """,
        })
        result = lint_project([tmp_path / "repro"])
        assert result.ok, [v.format() for v in result.violations]

    def test_noqa_text_in_docstring_is_not_a_suppression(
        self, tmp_path
    ):
        write_package(tmp_path, {
            "doc.py": '''
                def f():
                    """Write ``# repro: noqa[DET001]`` to waive."""
                    return 1
            ''',
        })
        result = lint_project([tmp_path / "repro"])
        assert result.ok, [v.format() for v in result.violations]

    def test_parse_error_is_reported_not_fatal(self, tmp_path):
        write_package(tmp_path, {
            "bad.py": """
                def broken(:
            """,
            "good.py": """
                x = 1
            """,
        })
        result = lint_project([tmp_path / "repro"])
        assert [v.rule for v in result.violations] == ["PARSE"]


# ----------------------------------------------------------------------
# reporters: JSON and SARIF round-trips
# ----------------------------------------------------------------------
class TestReporters:
    def _result_with_findings(self, tmp_path):
        write_package(tmp_path, _EPOCH_FINDING)
        return lint_project([tmp_path / "repro"])

    def test_json_round_trip(self, tmp_path):
        result = self._result_with_findings(tmp_path)
        doc = json.loads(json.dumps(lint_json_dict(result)))
        validate_lint_json(doc)
        assert doc["summary"]["by_rule"] == {"EPOCH001": 1}

    def test_sarif_round_trip(self, tmp_path):
        result = self._result_with_findings(tmp_path)
        doc = json.loads(json.dumps(sarif_dict(result)))
        validate_sarif(doc)
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert [r["ruleId"] for r in run["results"]] == ["EPOCH001"]
        region = run["results"][0]["locations"][0][
            "physicalLocation"]["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1

    def test_sarif_declares_every_fired_rule(self, tmp_path):
        result = self._result_with_findings(tmp_path)
        doc = sarif_dict(result)
        declared = {
            r["id"]
            for r in doc["runs"][0]["tool"]["driver"]["rules"]
        }
        fired = {
            r["ruleId"] for r in doc["runs"][0]["results"]
        }
        assert fired <= declared


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------
class TestBaseline:
    def test_round_trip_hides_baselined_findings(self, tmp_path):
        write_package(tmp_path, _EPOCH_FINDING)
        result = lint_project([tmp_path / "repro"])
        assert not result.ok
        baseline_path = tmp_path / "baseline.json"
        count = write_baseline(result, baseline_path)
        assert count == 1
        prints = load_baseline(baseline_path)
        assert prints == {fingerprint(result.violations[0])}
        filtered = apply_baseline(result, prints)
        assert filtered.ok
        assert filtered.files_checked == result.files_checked

    def test_corrupt_baseline_raises_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValidationError):
            load_baseline(bad)
        bad.write_text('{"version": 99, "fingerprints": []}')
        with pytest.raises(ValidationError):
            load_baseline(bad)
        with pytest.raises(ValidationError):
            load_baseline(tmp_path / "missing.json")


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestCli:
    def test_project_pass_exits_on_findings(self, tmp_path, capsys):
        write_package(tmp_path, _EPOCH_FINDING)
        code = main(["lint", "--project", str(tmp_path / "repro")])
        out = capsys.readouterr().out
        assert code == 1
        assert "EPOCH001" in out

    def test_write_then_apply_baseline(self, tmp_path, capsys):
        write_package(tmp_path, _EPOCH_FINDING)
        baseline = tmp_path / "baseline.json"
        assert main([
            "lint", "--project", str(tmp_path / "repro"),
            "--write-baseline", str(baseline),
        ]) == 0
        capsys.readouterr()
        assert main([
            "lint", "--project", str(tmp_path / "repro"),
            "--baseline", str(baseline),
        ]) == 0
        assert "clean" in capsys.readouterr().out

    def test_sarif_output_and_file(self, tmp_path, capsys):
        write_package(tmp_path, {"ok.py": "x = 1\n"})
        sarif_path = tmp_path / "out.sarif"
        assert main([
            "lint", "--project", str(tmp_path / "repro"),
            "--format", "sarif", "--sarif", str(sarif_path),
        ]) == 0
        stdout_doc = json.loads(capsys.readouterr().out)
        validate_sarif(stdout_doc)
        validate_sarif(json.loads(sarif_path.read_text()))

    def test_list_rules_shows_both_registries(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in list(RULES) + list(PROJECT_RULES):
            assert code in out
        assert "[project]" in out


# ----------------------------------------------------------------------
# the real tree, and the mutation self-test
# ----------------------------------------------------------------------
class TestRealTree:
    def test_src_lints_clean_under_project_pass(self):
        result = lint_project([SRC])
        assert result.ok, "\n".join(
            v.format() for v in result.violations
        )

    def test_committed_baseline_is_empty(self):
        prints = load_baseline(REPO_ROOT / "lint-baseline.json")
        assert prints == frozenset()


#: ``BucketEstimator._estimate_batch``'s revalidation, and the mutant
#: that deletes it (the kernel read then runs unsynced)
_SYNCED_BATCH = (
    "        self.sync()\n"
    "        if OBS.enabled:\n"
    "            OBS.add(\"estimator.buckets_inspected\","
)
_UNSYNCED_BATCH = _SYNCED_BATCH.replace("        self.sync()\n", "")


@pytest.fixture()
def tree_copy(tmp_path):
    target = tmp_path / "repro"
    shutil.copytree(SRC / "repro", target)
    return target


class TestMutationSelfTest:
    """Deleting a protocol obligation must flip the pass non-zero."""

    def test_unmutated_copy_is_clean(self, tree_copy):
        assert lint_project([tree_copy]).ok

    def test_removing_revalidate_call_fires_epoch001(self, tree_copy):
        bucket = tree_copy / "estimators" / "bucket_estimator.py"
        source = bucket.read_text()
        assert _SYNCED_BATCH in source, (
            "_estimate_batch no longer matches the mutation template; "
            "update this test alongside the bucket estimator"
        )
        bucket.write_text(source.replace(_SYNCED_BATCH, _UNSYNCED_BATCH))
        result = lint_project([tree_copy])
        fired = [
            v for v in result.violations if v.rule == "EPOCH001"
        ]
        assert fired, "\n".join(v.format() for v in result.violations)
        assert any(
            "BucketEstimator._estimate_batch" in v.message for v in fired
        )

    def test_removing_router_revalidate_fires_epoch001(self, tree_copy):
        """The inline router reads its tier kernel (``self._arrays``)
        on every batch; serving without the epoch refresh must flip
        the pass."""
        router = tree_copy / "serving" / "router.py"
        source = router.read_text()
        guarded = (
            "            self._revalidate()\n"
            "            return self._scatter_gather(queries)\n"
        )
        assert source.count(guarded) == 1, (
            "ShardRouter.estimate_batch no longer matches the mutation "
            "template; update this test alongside the router"
        )
        router.write_text(source.replace(
            guarded, "            return self._scatter_gather(queries)\n"
        ))
        result = lint_project([tree_copy])
        fired = [
            v for v in result.violations if v.rule == "EPOCH001"
        ]
        assert fired, "\n".join(v.format() for v in result.violations)
        assert any(
            "ShardRouter.estimate_batch" in v.message for v in fired
        )

    def test_removing_setstate_fires_pickle001(self, tree_copy):
        """The hook-pair check applies to every class, pickled or not:
        ``HistogramShard`` defines neither hook, and the mutant gives
        it a ``__getstate__`` whose ``__setstate__`` is missing."""
        shard = tree_copy / "serving" / "shard.py"
        source = shard.read_text()
        tree = ast.parse(source)
        cls = next(
            node for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and node.name == "HistogramShard"
        )
        assert not any(
            isinstance(item, ast.FunctionDef)
            and item.name in ("__getstate__", "__setstate__")
            for item in cls.body
        ), (
            "HistogramShard defines a pickle hook again; update this "
            "test alongside the shard"
        )
        lines = source.splitlines(keepends=True)
        lines.insert(cls.end_lineno, (
            "\n"
            "    def __getstate__(self):\n"
            "        return dict(self.__dict__)\n"
        ))
        shard.write_text("".join(lines))
        result = lint_project([tree_copy])
        pickled = [
            v for v in result.violations if v.rule == "PICKLE001"
        ]
        assert pickled, "\n".join(
            v.format() for v in result.violations
        )
        # the hook-pair check fires on the one-sided shard
        assert any(
            "without __setstate__" in v.message
            and "HistogramShard" in v.message
            for v in pickled
        )

    def test_removing_deadline_check_fires_res002(self, tree_copy):
        parallel = tree_copy / "serving" / "parallel.py"
        source = parallel.read_text()
        guarded = (
            'deadline.check(f"reply from shard {shard_id}")\n'
        )
        assert guarded in source, (
            "_recv_reply no longer matches the mutation template; "
            "update this test alongside the worker pool"
        )
        parallel.write_text(source.replace(guarded, "pass\n"))
        result = lint_project([tree_copy])
        fired = [
            v for v in result.violations if v.rule == "RES002"
        ]
        assert fired, "\n".join(
            v.format() for v in result.violations
        )
        assert any(
            "not dominated by a deadline" in v.message
            for v in fired
        )
        assert main(["lint", "--project", str(tree_copy)]) == 1

    def test_bypassing_replace_buckets_fires_epoch001(
        self, tree_copy
    ):
        """Swapping the tuner's atomic publish for a direct
        ``hist.buckets = ...`` store must flip the pass."""
        feedback = tree_copy / "tuning" / "feedback.py"
        source = feedback.read_text()
        guarded = "hist.replace_buckets(buckets)"
        assert guarded in source, (
            "the tuner no longer matches the mutation template; "
            "update this test alongside the feedback tuner"
        )
        feedback.write_text(source.replace(
            guarded, "hist.buckets = list(buckets)"
        ))
        result = lint_project([tree_copy])
        fired = [
            v for v in result.violations if v.rule == "EPOCH001"
        ]
        assert fired, "\n".join(
            v.format() for v in result.violations
        )
        assert any(
            "replace_buckets" in v.message for v in fired
        )

    def test_cli_exits_nonzero_on_mutated_tree(self, tree_copy):
        bucket = tree_copy / "estimators" / "bucket_estimator.py"
        source = bucket.read_text()
        assert _SYNCED_BATCH in source
        bucket.write_text(source.replace(_SYNCED_BATCH, _UNSYNCED_BATCH))
        assert main(["lint", "--project", str(tree_copy)]) == 1
