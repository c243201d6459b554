"""Resilience layer: deterministic fault injection, logical budgets,
retries, breakers, and the sharded tier's worker-kill experiment.

The fault handling that serves lives in the sharded tier
(:mod:`repro.serving`): the router retries a failing shard per
:class:`RetryPolicy`, quarantines it behind a :class:`CircuitBreaker`,
and answers its part of a query with a ``Uniform@s<id>`` partial,
while the worker pool respawns dead workers and sends them their
shards' kernels again.  This package supplies the deterministic pieces
that machinery is built from, and :mod:`~repro.resilience.chaos`
SIGKILLs workers under a seeded plan to prove nothing is lost.

Import order note: :mod:`repro.storage.persist` imports
:mod:`~repro.resilience.faults` for its fault-injection sites, so this
package must not import :mod:`repro.storage` (or anything that does)
at module level; :mod:`~repro.resilience.chaos` defers its serving,
dataset and workload imports for the same reason.
"""

from .chaos import (
    WorkerKillConfig,
    WorkerKillReport,
    format_worker_kill_report,
    run_worker_kill_chaos,
)
from .clock import Deadline, StepClock
from .faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    active_injector,
    fire,
    installed,
)
from .retry import CircuitBreaker, RetryPolicy

__all__ = [
    # clock
    "StepClock",
    "Deadline",
    # fault injection
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "fire",
    "active_injector",
    "installed",
    # retry and breakers
    "RetryPolicy",
    "CircuitBreaker",
    # worker-kill chaos experiment
    "WorkerKillConfig",
    "WorkerKillReport",
    "run_worker_kill_chaos",
    "format_worker_kill_report",
]
