"""Whole-program analysis tests: loader, call graph, rules, wiring.

Covers:

* **substrate**: module loading and symbol tables (aliased and
  relative imports, the held-class attribute inventory), call-graph
  construction over a fixture package (aliased imports, method
  resolution through the MRO, cycles);
* **dominance**: the path-sensitive revalidate-before-read analysis
  on straight-line code, branches, loops and try/except;
* **the four whole-program rules** on small fixture packages, each
  with a firing and a clean variant;
* **the lint pass and its CLI** over fixture trees: parse errors,
  the JSON report, exit codes, ``--list-rules``; and the
  whole-program rules, selected alone, over the real ``src/`` tree;
* **mutation self-test**: deleting a protocol obligation (a
  ``sync()``/``_revalidate()`` call, a deadline check, a seed, a
  ``sorted``) in a copy of the source tree flips the pass non-zero —
  proof the rules guard what they claim to.
"""

import ast
import json
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    PROJECT_RULES,
    RULES,
    LintConfig,
    lint_json_dict,
    lint_paths,
    load_project,
    validate_lint_json,
)
from repro.analysis.project import CallGraph, undominated_reads
from repro.analysis.project.dominance import EVENT_READ, \
    EVENT_REVALIDATE
from repro.cli import main

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


def rule_findings(code, project):
    return PROJECT_RULES[code](project).run()


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

    def test_attribute_inventory_records_held_classes(self, tmp_path):
        project = project_of(tmp_path, {
            "state.py": """
                class Held:
                    pass

                class Carrier:
                    def __init__(self, est):
                        self.child = Held()
                        self.plain = 4
            """,
        })
        info = project.classes["repro.state.Carrier"]
        attrs = info.attributes
        assert attrs["child"].held_classes == {"repro.state.Held"}
        assert attrs["plain"].held_classes == set()

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
# the lint pass and its CLI
# ----------------------------------------------------------------------
class TestDriver:
    def test_parse_error_is_reported_not_fatal(self, tmp_path):
        write_package(tmp_path, {
            "bad.py": """
                def broken(:
            """,
            "good.py": """
                x = 1
            """,
        })
        result = lint_paths([tmp_path / "repro"])
        assert [v.rule for v in result.violations] == ["PARSE"]


class TestReporters:
    def test_json_round_trip(self, tmp_path):
        write_package(tmp_path, _EPOCH_FINDING)
        result = lint_paths([tmp_path / "repro"])
        doc = json.loads(json.dumps(lint_json_dict(result)))
        validate_lint_json(doc)
        assert doc["summary"]["by_rule"] == {"EPOCH001": 1}


class TestCli:
    def test_project_pass_exits_on_findings(self, tmp_path, capsys):
        write_package(tmp_path, _EPOCH_FINDING)
        code = main(["lint", str(tmp_path / "repro")])
        out = capsys.readouterr().out
        assert code == 1
        assert "EPOCH001" in out

    def test_list_rules_shows_both_registries(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        listed = [
            line.split()[0]
            for line in capsys.readouterr().out.splitlines()
        ]
        assert listed == sorted(list(RULES) + list(PROJECT_RULES))


class TestRealTree:
    def test_src_lints_clean_under_project_pass(self):
        # the whole-program rules alone, selected through the one pass
        config = LintConfig(select=frozenset(PROJECT_RULES))
        result = lint_paths([SRC], config)
        assert result.files_checked > 50
        assert result.ok, "\n".join(
            v.format() for v in result.violations
        )


# ----------------------------------------------------------------------
# the mutation self-test
# ----------------------------------------------------------------------
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


#: ``ShardRouter.estimate_batch``'s tier-kernel refresh, and the mutant
#: that serves without it
_REVALIDATED_SCATTER = (
    "            self._revalidate()\n"
    "            return self._scatter_gather(queries)\n"
)
_UNREVALIDATED_SCATTER = "            return self._scatter_gather(queries)\n"


def _drop_router_revalidate(tree):
    router = tree / "serving" / "router.py"
    source = router.read_text()
    assert source.count(_REVALIDATED_SCATTER) == 1, (
        "ShardRouter.estimate_batch no longer matches the mutation "
        "template; update this test alongside the router"
    )
    router.write_text(
        source.replace(_REVALIDATED_SCATTER, _UNREVALIDATED_SCATTER)
    )


def _fired(result, rule):
    fired = [v for v in result.violations if v.rule == rule]
    assert fired, "\n".join(v.format() for v in result.violations)
    return fired


class TestMutationSelfTest:
    """Deleting a protocol obligation must flip the pass non-zero."""

    def test_unmutated_copy_is_clean(self, tree_copy):
        assert lint_paths([tree_copy]).ok

    def test_removing_revalidate_call_fires_epoch001(self, tree_copy):
        bucket = tree_copy / "estimators" / "bucket_estimator.py"
        source = bucket.read_text()
        assert _SYNCED_BATCH in source, (
            "_estimate_batch no longer matches the mutation template; "
            "update this test alongside the bucket estimator"
        )
        bucket.write_text(source.replace(_SYNCED_BATCH, _UNSYNCED_BATCH))
        fired = _fired(lint_paths([tree_copy]), "EPOCH001")
        assert any(
            "BucketEstimator._estimate_batch" in v.message for v in fired
        )

    def test_removing_router_revalidate_fires_epoch001(self, tree_copy):
        """The inline router reads its tier kernel (``self._arrays``)
        on every batch; serving without the epoch refresh must flip
        the pass."""
        _drop_router_revalidate(tree_copy)
        fired = _fired(lint_paths([tree_copy]), "EPOCH001")
        assert any(
            "ShardRouter.estimate_batch" in v.message for v in fired
        )

    def test_selected_project_rule_runs_in_the_one_pass(
        self, tree_copy, capsys
    ):
        """``--rules`` selects a whole-program rule like any other."""
        assert main(["lint", "--rules", "EPOCH001", str(SRC)]) == 0
        _drop_router_revalidate(tree_copy)
        assert main(["lint", "--rules", "EPOCH001", str(tree_copy)]) == 1
        assert "ShardRouter.estimate_batch" in capsys.readouterr().out

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
        fired = _fired(lint_paths([tree_copy]), "RES002")
        assert any(
            "not dominated by a deadline" in v.message
            for v in fired
        )
        assert main(["lint", str(tree_copy)]) == 1

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
        fired = _fired(lint_paths([tree_copy]), "EPOCH001")
        assert any(
            "replace_buckets" in v.message for v in fired
        )

    def test_unseeding_range_queries_fires_seed001(self, tree_copy):
        """``range_queries`` threads its ``seed`` into ``_as_rng``;
        passing ``None`` there instead builds an unseeded generator."""
        queries = tree_copy / "workload" / "queries.py"
        source = queries.read_text()
        seeded = (
            '            f"choose from {CENTER_MODES}"\n'
            "        )\n"
            "    gen = _as_rng(seed)\n"
        )
        assert source.count(seeded) == 1, (
            "range_queries no longer matches the mutation template; "
            "update this test alongside the query generator"
        )
        queries.write_text(source.replace(
            seeded, seeded.replace("_as_rng(seed)", "_as_rng(None)")
        ))
        fired = _fired(lint_paths([tree_copy]), "SEED001")
        assert any(
            "None" in v.message and "_as_rng" in v.message
            for v in fired
        )

    def test_summing_over_a_set_fires_order001(self, tree_copy):
        """``MaintainedHistogram.estimate`` sums its buckets in list
        order; summing over ``set(self.buckets)`` would make the last
        ulp depend on hash order."""
        maintenance = tree_copy / "core" / "maintenance.py"
        source = maintenance.read_text()
        ordered = "b.estimate(query) for b in self.buckets"
        assert source.count(ordered) == 1, (
            "MaintainedHistogram.estimate no longer matches the "
            "mutation template; update this test alongside it"
        )
        maintenance.write_text(source.replace(
            ordered, "b.estimate(query) for b in set(self.buckets)"
        ))
        fired = _fired(lint_paths([tree_copy]), "ORDER001")
        assert any("unordered set" in v.message for v in fired)

    def test_cli_exits_nonzero_on_mutated_tree(self, tree_copy):
        bucket = tree_copy / "estimators" / "bucket_estimator.py"
        source = bucket.read_text()
        assert _SYNCED_BATCH in source
        bucket.write_text(source.replace(_SYNCED_BATCH, _UNSYNCED_BATCH))
        assert main(["lint", str(tree_copy)]) == 1
