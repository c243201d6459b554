"""Resilience layer: deterministic fault injection, guarded
estimation with a fallback chain, budgets, retries, and breakers.

The availability contract: a valid query always gets a finite
estimate; partial failure costs accuracy, never availability — and
every degradation is observable through :data:`repro.obs.OBS` under
the ``resilience.*`` namespace.

Import order note: :mod:`repro.storage.persist` imports
:mod:`~repro.resilience.faults` for its fault-injection sites, so this
package must not import :mod:`repro.storage` (or anything that does)
at module level; :mod:`~repro.resilience.chaos` defers its dataset and
workload imports for the same reason.
"""

from .chaos import (
    ChaosConfig,
    ChaosReport,
    WorkerKillConfig,
    WorkerKillReport,
    format_worker_kill_report,
    run_worker_kill_chaos,
    default_plan,
    format_report,
    run_chaos,
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
    sites_from_rates,
)
from .guarded import (
    DEFAULT_CALL_BUDGET_STEPS,
    CircuitBreaker,
    FallbackLink,
    GuardedEstimator,
    build_fallback_chain,
)
from .retry import RetryPolicy, with_retry

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
    "sites_from_rates",
    # retry
    "RetryPolicy",
    "with_retry",
    # guarded pipeline
    "CircuitBreaker",
    "FallbackLink",
    "GuardedEstimator",
    "build_fallback_chain",
    "DEFAULT_CALL_BUDGET_STEPS",
    # chaos harness
    "ChaosConfig",
    "ChaosReport",
    "default_plan",
    "run_chaos",
    "format_report",
    "WorkerKillConfig",
    "WorkerKillReport",
    "run_worker_kill_chaos",
    "format_worker_kill_report",
]
