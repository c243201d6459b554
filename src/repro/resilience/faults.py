"""Deterministic fault injection.

A :class:`FaultPlan` is a seed plus a tuple of :class:`FaultSpec`
rules.  Installing it (:func:`installed`) arms the process-wide
injector; instrumented call sites — storage IO (``storage.read`` /
``storage.write``), dataset loading (``data.load``), each shard the
sharded router consults (``serving.worker.s<id>``) and the chaos
harness's per-worker kill decisions (``chaos.worker-kill.w<i>``) —
announce themselves with :func:`fire(site) <fire>` and the injector
decides, **deterministically**, whether that invocation fails.

Determinism contract (the dynamic half of the DET001 lint): every
decision comes from per-spec ``numpy.random.Generator`` streams seeded
by ``(plan.seed, spec_index)`` and from per-spec invocation counters,
never from wall clock or global RNG state.  Two runs with the same
plan, workload, and call order inject byte-identical fault sequences.

Fault kinds
-----------
``io``
    Raise :class:`~repro.errors.TransientIOError` (retryable).
``corrupt``
    Raise :class:`~repro.errors.ArtifactCorruptError` (not retryable —
    models a checksum failure, i.e. a poisoned artifact).
``fail``
    Raise the generic :class:`~repro.errors.InjectedFault`.

A spec with ``recover_after=k`` stops matching after its first ``k``
injections, modelling a transient-then-recover outage.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..errors import (
    ArtifactCorruptError,
    InjectedFault,
    TransientIOError,
)

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "fire",
    "active_injector",
    "installed",
]

#: Recognised values of :attr:`FaultSpec.kind`.
FAULT_KINDS = ("io", "corrupt", "fail")


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule.

    Attributes
    ----------
    site:
        Site name to match: exact (``"storage.read"``), or a prefix
        when it ends with ``*`` (``"estimator.*"``).
    kind:
        One of :data:`FAULT_KINDS`.
    probability:
        Per-invocation injection probability in ``[0, 1]``.
    start_step, stop_step:
        Only invocations with ``start_step <= i < stop_step`` of the
        per-spec match counter are eligible (``stop_step=None`` means
        forever), giving deterministic step schedules.
    recover_after:
        When positive, the spec disarms after this many injections —
        a transient fault that later recovers.
    """

    site: str
    kind: str = "io"
    probability: float = 1.0
    start_step: int = 0
    stop_step: Optional[int] = None
    recover_after: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"known: {FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.start_step < 0 or self.recover_after < 0:
            raise ValueError("step parameters must be non-negative")

    def matches(self, site: str) -> bool:
        """Whether this rule applies to calls at ``site``."""
        if self.site.endswith("*"):
            return site.startswith(self.site[:-1])
        return site == self.site


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the fault rules it drives.

    The same plan always injects the same faults for the same call
    sequence — chaos runs are reproducible experiments, not noise.
    """

    seed: int
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def with_spec(self, spec: FaultSpec) -> "FaultPlan":
        """A copy of this plan with one more rule appended."""
        return FaultPlan(self.seed, self.specs + (spec,))


class _SpecState:
    """Mutable per-spec runtime state (counters + RNG stream)."""

    __slots__ = ("spec", "rng", "seen", "injected")

    def __init__(self, spec: FaultSpec, seed: int, index: int) -> None:
        self.spec = spec
        # One independent stream per spec, derived from (plan seed,
        # spec index): interleaving of *other* sites cannot perturb
        # this spec's decisions.
        self.rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(seed, index))
        )
        self.seen = 0
        self.injected = 0


class FaultInjector:
    """Executes a :class:`FaultPlan` at instrumented call sites."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._states = [
            _SpecState(spec, plan.seed, index)
            for index, spec in enumerate(plan.specs)
        ]
        self._fired: Dict[str, int] = {}
        self._injected: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def fire(self, site: str) -> None:
        """Announce one invocation of ``site``; may raise a fault.

        Each matching spec sees its own invocation counter advance
        whether or not it injects, so step schedules stay aligned with
        the workload regardless of what other specs do.
        """
        self._fired[site] = self._fired.get(site, 0) + 1
        for state in self._states:
            spec = state.spec
            if not spec.matches(site):
                continue
            step = state.seen
            state.seen += 1
            if step < spec.start_step:
                continue
            if spec.stop_step is not None and step >= spec.stop_step:
                continue
            if spec.recover_after and \
                    state.injected >= spec.recover_after:
                continue
            if spec.probability < 1.0 \
                    and state.rng.random() >= spec.probability:
                continue
            state.injected += 1
            self._injected[site] = self._injected.get(site, 0) + 1
            self._raise(spec, site)

    def _raise(self, spec: FaultSpec, site: str) -> None:
        message = f"injected {spec.kind} fault at {site}"
        if spec.kind == "io":
            raise TransientIOError(message, hint="retryable")
        if spec.kind == "corrupt":
            raise ArtifactCorruptError(
                message, hint="summary is poisoned; fall back"
            )
        raise InjectedFault(message)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-site invocation and injection counts so far."""
        return {
            "fired": dict(sorted(self._fired.items())),
            "injected": dict(sorted(self._injected.items())),
        }

    def total_injected(self) -> int:
        return sum(self._injected.values())

    def __repr__(self) -> str:
        return (
            f"FaultInjector(seed={self.plan.seed}, "
            f"specs={len(self.plan.specs)}, "
            f"injected={self.total_injected()})"
        )


# ----------------------------------------------------------------------
# process-wide installation (mirrors the OBS registry idiom: a no-op
# when nothing is installed, so instrumented sites cost one global
# read + one None check in normal operation)
# ----------------------------------------------------------------------
_ACTIVE: Optional[FaultInjector] = None


def active_injector() -> Optional[FaultInjector]:
    """The currently installed injector, or ``None``."""
    return _ACTIVE


def fire(site: str) -> None:
    """Announce ``site`` to the installed injector (no-op when none)."""
    if _ACTIVE is not None:
        _ACTIVE.fire(site)


@contextmanager
def installed(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Install ``injector`` process-wide for the duration of the block.

    Nested installations restore the previous injector on exit.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous
