"""Serve a live :class:`~repro.core.maintenance.MaintainedHistogram`.

:class:`MaintainedEstimator` is the adapter between the maintenance
layer (which mutates bucket statistics in place, epoch-stamping every
accepted change) and the estimator/serving stack (which assumes an
immutable bucket list it can snapshot into columnar
:class:`~repro.core.bucket.BucketArrays`).  The adapter is *lazily*
consistent: it records the histogram epoch its snapshot was built from
and rebuilds on the first query after the epoch moves — never during a
maintenance burst, and never twice for one burst.

Both query paths re-snapshot before answering (via the :meth:`sync`
hook that :class:`~repro.estimators.BucketEstimator` calls first
thing), so the adapter never serves stale statistics and needs no
owner watching its epoch: the front door, the bench harness and every
shard serve it directly.

A feedback tuning pass (:class:`repro.tuning.FeedbackTuner`) is, from
this adapter's point of view, just another mutation: it replaces the
histogram's bucket list atomically with exactly one epoch bump, so the
first query afterwards re-snapshots the tuned layout here exactly as a
maintenance insert would — no tuning-specific hook exists or is
needed, and a half-tuned snapshot can never be observed.
"""

from __future__ import annotations

from ..core.bucket import BucketArrays
from ..core.maintenance import MaintainedHistogram
from ..obs import OBS
from .bucket_estimator import BucketEstimator


class MaintainedEstimator(BucketEstimator):
    """A :class:`BucketEstimator` view over a live histogram.

    The histogram stays the single source of truth: this class never
    copies rows, only the bucket summaries, and only when queried
    after the histogram's epoch has moved.
    """

    def __init__(
        self,
        histogram: MaintainedHistogram,
        name: str = "Maintained",
    ) -> None:
        self._histogram = histogram
        super().__init__(list(histogram.buckets), name=name)
        self._synced_epoch = histogram.epoch

    @property
    def histogram(self) -> MaintainedHistogram:
        return self._histogram

    @property
    def epoch(self) -> int:
        """The source histogram's epoch (moves under maintenance)."""
        return self._histogram.epoch

    @property
    def synced_epoch(self) -> int:
        """Epoch the current kernel snapshot was built from."""
        return self._synced_epoch

    def sync(self) -> bool:
        """Re-snapshot the bucket list if the histogram has moved.

        Returns True when a rebuild happened.
        """
        current = self._histogram.epoch
        if current == self._synced_epoch:
            return False
        self.buckets = list(self._histogram.buckets)
        self._arrays = BucketArrays(self.buckets)
        self._synced_epoch = current
        if OBS.enabled:
            OBS.add("serving.epoch.estimator_rebuilds")
        return True
