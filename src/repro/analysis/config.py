"""Linter configuration: rule selection and per-rule knobs.

:data:`DEFAULT_CONFIG` encodes this repository's invariants — which
packages must not mutate their arguments, which metric namespaces are
registered, where wall-clock reads are legitimate.  Tests and the CLI
build variations with :meth:`LintConfig.replace`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, FrozenSet, Optional, Tuple

__all__ = ["LintConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class LintConfig:
    """Immutable linter settings.

    Attributes
    ----------
    select:
        Rule codes to run, or ``None`` for every registered rule.
    det001_allow_modules:
        Module prefixes (``repro.obs``) where DET001 is not enforced —
        the observability layer legitimately reads wall clocks.
    det001_banned_calls:
        Fully-qualified callables that break run determinism.
    mut001_packages:
        Module prefixes whose *public* functions must not mutate their
        array/sequence parameters in place.
    mut001_mutating_methods:
        Method names on a parameter treated as in-place mutation.
    api001_packages:
        Module prefixes whose public functions require complete type
        annotations (every parameter and the return type).
    obs_namespaces:
        First dotted segment a metric key must start with; the
        registered-metric naming scheme of :mod:`repro.obs`.
    exclude_dir_names:
        Directory basenames skipped while walking lint targets.
    epoch001_packages:
        Module prefixes whose revalidating classes EPOCH001 checks.
    epoch001_revalidators:
        Method names that bring derived state up to date; a class is
        in EPOCH001 scope when it defines or inherits one of these.
    epoch001_snapshot_attrs:
        ``self.<attr>`` names holding derived state — the epoch-keyed
        kernel snapshot (``_arrays``).  A call that takes one as its
        receiver (``self._arrays.estimate_block(...)``) or as an
        argument (``estimate_many_arrays(self._arrays, ...)``) reads
        it.
    epoch001_exempt_methods:
        Methods never analysed (constructors; the revalidators
        themselves are always exempt).
    epoch001_mutation_attrs:
        Published-summary attributes: storing one on any receiver
        other than ``self`` (``hist.buckets = ...``) bypasses the
        owner's atomic epoch-bump publish (``replace_buckets``) and
        is flagged in every EPOCH001 package.
    pickle001_boundaries:
        Qualified callables whose arguments cross a pickle boundary.
    seed001_constructors:
        Qualified RNG constructors whose seed argument SEED001 traces
        across call edges.
    order001_packages:
        Module prefixes where iteration over unordered sets must not
        feed float accumulation.
    res002_packages:
        Module prefixes whose IPC receive loops RES002 checks.
    res002_recv_methods:
        Attribute calls treated as blocking IPC reads (connection
        ``recv``/``recv_bytes``/``poll``).
    res002_check_attrs:
        Attribute calls that consume deadline budget
        (``Deadline.check``); each IPC read must be dominated by one.
    res002_exempt_functions:
        Function/method names RES002 never analyses — the worker-side
        idle loop blocks on ``recv`` by design (its supervisor kills
        it), only parent-side loops must carry deadlines.
    """

    select: Optional[FrozenSet[str]] = None
    det001_allow_modules: Tuple[str, ...] = ("repro.obs",)
    det001_banned_calls: FrozenSet[str] = frozenset({
        "numpy.random.seed",
        "numpy.random.rand",
        "numpy.random.randn",
        "numpy.random.randint",
        "numpy.random.random",
        "numpy.random.random_sample",
        "numpy.random.ranf",
        "numpy.random.sample",
        "numpy.random.choice",
        "numpy.random.shuffle",
        "numpy.random.permutation",
        "numpy.random.uniform",
        "numpy.random.normal",
        "numpy.random.exponential",
        "numpy.random.poisson",
        "numpy.random.RandomState",
        "numpy.random.set_state",
        "time.time",
        "time.time_ns",
    })
    mut001_packages: Tuple[str, ...] = (
        "repro.geometry",
        "repro.core",
        "repro.estimators",
    )
    # ``ndarray.partition`` is omitted: the name collides with the
    # repository's own ``Partitioner.partition()`` protocol, which is
    # pure.
    mut001_mutating_methods: FrozenSet[str] = frozenset({
        "sort", "fill", "resize", "put", "setflags", "itemset",
        "append", "extend", "insert", "remove", "pop", "clear",
        "reverse", "update", "setdefault", "popitem", "discard",
    })
    api001_packages: Tuple[str, ...] = (
        "repro.geometry",
        "repro.obs",
        "repro.core",
        "repro.estimators",
        "repro.analysis",
        "repro.errors",
        "repro.resilience",
    )
    obs_namespaces: FrozenSet[str] = frozenset({
        "bench", "build", "counting", "data", "equi_area", "equi_count",
        "estimate", "estimator", "eval", "grid", "lint", "maintenance",
        "minskew", "obs", "oracle", "partition", "progressive",
        "resilience", "rtree", "serving", "storage", "tuning",
        "workload",
    })
    exclude_dir_names: Tuple[str, ...] = (
        "__pycache__", ".git", ".venv", "build", "dist",
    )
    epoch001_packages: Tuple[str, ...] = (
        "repro.serving",
        "repro.estimators",
        "repro.tuning",
    )
    epoch001_revalidators: Tuple[str, ...] = ("_revalidate", "sync")
    epoch001_snapshot_attrs: FrozenSet[str] = frozenset({"_arrays"})
    epoch001_exempt_methods: FrozenSet[str] = frozenset({
        "__init__", "__repr__", "__getstate__", "__setstate__",
    })
    epoch001_mutation_attrs: FrozenSet[str] = frozenset({
        "buckets",
    })
    pickle001_boundaries: FrozenSet[str] = frozenset({
        "repro.serving.parallel.ShardWorkerPool",
        "repro.serving.parallel.parallel_map",
        "concurrent.futures.ProcessPoolExecutor",
        "pickle.dumps",
        "pickle.dump",
    })
    seed001_constructors: FrozenSet[str] = frozenset({
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.PCG64",
        "numpy.random.MT19937",
        "numpy.random.Philox",
        "numpy.random.SFC64",
        "numpy.random.SeedSequence",
    })
    order001_packages: Tuple[str, ...] = (
        "repro.core",
        "repro.estimators",
        "repro.serving",
    )
    res002_packages: Tuple[str, ...] = ("repro.serving",)
    res002_recv_methods: FrozenSet[str] = frozenset({
        "recv", "recv_bytes", "poll",
    })
    res002_check_attrs: FrozenSet[str] = frozenset({"check"})
    res002_exempt_functions: Tuple[str, ...] = (
        "_shard_worker_main",
    )

    def replace(self, **changes: Any) -> "LintConfig":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def wants(self, rule_code: str) -> bool:
        """True when ``rule_code`` is enabled by this configuration."""
        return self.select is None or rule_code in self.select


#: The repository's standing configuration (what CI enforces).
DEFAULT_CONFIG = LintConfig()
