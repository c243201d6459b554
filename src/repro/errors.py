"""Typed error hierarchy for the whole library.

Every failure the library can *recover from* — a corrupt histogram
artifact, a transient IO fault, an exhausted per-call budget, a
degenerate query rectangle — is raised as a :class:`ReproError`
subclass, so callers can tell recoverable degradation apart from
programming bugs with one ``except ReproError`` clause, and the
sharded serving tier (:mod:`repro.serving`) can route each class to the
right policy: retry what is :attr:`~ReproError.retryable`, answer a
failed shard's part of a query with its degraded partial, and surface
the remainder to the user as a one-line actionable message
(:attr:`~ReproError.hint`).

Two design rules keep the hierarchy backward compatible:

* validation errors also derive from :class:`ValueError`, so code (and
  tests) written against the pre-hierarchy API keep working;
* storage errors derive from the matching OS-level class
  (:class:`FileNotFoundError` / :class:`OSError`), so generic file
  handling still catches them.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "ValidationError",
    "GeometryError",
    "EmptyInputError",
    "EstimationError",
    "ShardWorkerError",
    "OverloadedError",
    "DeadlineError",
    "StorageError",
    "ArtifactMissingError",
    "ArtifactCorruptError",
    "TransientIOError",
    "CheckpointError",
    "InjectedFault",
]


class ReproError(Exception):
    """Base class of every recoverable library error.

    Attributes
    ----------
    retryable:
        Whether retrying the same operation may succeed (transient IO
        faults are; corrupt artifacts and invalid inputs are not).
    hint:
        One-line remedy shown by the CLI after the error message
        (``"regenerate the file with repro-spatial ..."``).
    """

    retryable: bool = False

    def __init__(self, message: str, *, hint: Optional[str] = None) -> None:
        super().__init__(message)
        self.hint: str = hint or ""


# ----------------------------------------------------------------------
# input validation
# ----------------------------------------------------------------------
class ValidationError(ReproError, ValueError):
    """Invalid caller-supplied input (never retryable)."""


class GeometryError(ValidationError):
    """A rectangle is geometrically invalid: NaN/inf coordinates or an
    inverted extent (``x2 < x1`` / ``y2 < y1``).  Zero-area rectangles
    are *valid* — a point query is a degenerate rectangle."""


class EmptyInputError(ValidationError):
    """An operation that needs at least one rectangle got an empty set."""


# ----------------------------------------------------------------------
# estimation pipeline
# ----------------------------------------------------------------------
class EstimationError(ReproError):
    """An estimator could not produce a usable estimate."""


class ShardWorkerError(EstimationError):
    """A shard worker process died, wedged past its reply deadline, or
    reported a per-request failure.  Retryable: the pool respawns the
    worker from the parent's copy of its shards, so the same request
    is expected to succeed on a fresh process; a shard that keeps failing
    is quarantined by the router and served degraded instead."""

    retryable = True


class OverloadedError(EstimationError):
    """The serving front door shed this request instead of queueing it
    unboundedly: the pending queue hit its admission bound, or the
    ingress circuit breaker is open after repeated dispatch failures.
    Retryable by design — the shed exists so a backed-up tier drains
    instead of accumulating latency, and a later attempt is expected
    to be admitted."""

    retryable = True


class DeadlineError(ReproError):
    """A per-call step budget was exhausted before the call finished."""


# ----------------------------------------------------------------------
# storage and persistence
# ----------------------------------------------------------------------
class StorageError(ReproError):
    """Base class for persistence failures."""


class ArtifactMissingError(StorageError, FileNotFoundError):
    """A dataset/histogram/checkpoint file does not exist."""


class ArtifactCorruptError(StorageError):
    """An artifact exists but fails its checksum, magic, or parse —
    the crash-safe reader refuses to return partial data."""


class TransientIOError(StorageError, IOError):
    """A (possibly injected) transient IO fault; safe to retry."""

    retryable = True


class CheckpointError(StorageError):
    """A checkpoint store cannot be resumed (config fingerprint
    mismatch or unwritable directory)."""


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
class InjectedFault(ReproError):
    """A generic failure raised by the fault-injection harness at sites
    where no more specific error class applies."""
