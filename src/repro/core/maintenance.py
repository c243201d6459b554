"""Incremental maintenance of bucket summaries.

The paper builds its histograms offline; a production system also needs
to keep them usable while the underlying table changes, rebuilding only
occasionally (PostgreSQL's ANALYZE model).  This extension module keeps
a bucket summary approximately in sync under inserts and deletes:

* an inserted rectangle increments the count (and running average
  extents) of the bucket containing its center — the same center rule
  the construction uses;
* a deleted rectangle decrements them;
* inserts whose center no bucket covers are counted as *drift* (the
  summary's box layout no longer matches the data);
* when drift exceeds a threshold, :meth:`MaintainedHistogram.refresh`
  rebuilds the partitioning from the current data.

The bucket *layout* is never changed incrementally — only the per-bucket
statistics — so estimates degrade gracefully between rebuilds instead of
breaking.  The accompanying tests measure exactly that degradation.

Every mutation that the histogram accepts bumps a monotonically
increasing **epoch** (:attr:`MaintainedHistogram.epoch`).  The epoch is
the staleness contract of the live-serving path: any consumer holding
state derived from the buckets — a
:class:`~repro.estimators.MaintainedEstimator`'s
:class:`~repro.core.bucket.BucketArrays` kernel snapshot, a shard's
routing box, the union reference's per-shard kernels — records the
epoch it was built from and must rebuild when the histogram's epoch
has moved past it.  Epoch bumps deliberately over-approximate "the bucket
statistics changed" (an uncovered insert changes only the raw data, yet
still bumps) because a spurious rebuild costs time while a missed one
serves wrong answers.

Mutations report under the ``maintenance.*`` counter namespace in
:data:`repro.obs.OBS` (``maintenance.inserts``,
``maintenance.deletes``, ``maintenance.delete_misses``,
``maintenance.uncovered_inserts``, ``maintenance.refreshes``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..geometry import Rect, RectSet
from ..obs import OBS
from ..partitioners.base import Partitioner
from .bucket import Bucket, buckets_from_members, owner_of_center


class MaintainedHistogram:
    """A bucket summary that tracks inserts/deletes between rebuilds.

    Parameters
    ----------
    partitioner:
        Used for the initial build and for every :meth:`refresh`.
    data:
        The initial distribution.
    drift_threshold:
        Fraction of the current size after which :attr:`needs_refresh`
        turns true (uncovered inserts + total modifications are both
        counted against it).
    """

    def __init__(
        self,
        partitioner: Partitioner,
        data: RectSet,
        *,
        drift_threshold: float = 0.2,
    ) -> None:
        if not 0.0 < drift_threshold <= 1.0:
            raise ValueError("drift_threshold must be in (0, 1]")
        self._partitioner = partitioner
        self._drift_threshold = drift_threshold
        self._rows: List[np.ndarray] = [row.copy() for row in data.coords]
        self.buckets: List[Bucket] = partitioner.partition(data)
        self._modifications = 0
        self._uncovered = 0
        self._epoch = 0

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    @property
    def epoch(self) -> int:
        """Monotonic version of the bucket summary.

        Starts at 0 and increases by one for every accepted mutation
        (:meth:`insert`, successful :meth:`delete`, :meth:`refresh`).
        A consumer that recorded ``epoch`` when it derived state from
        :attr:`buckets` is stale exactly when the property has moved.
        """
        return self._epoch

    @property
    def modifications_since_refresh(self) -> int:
        return self._modifications

    @property
    def uncovered_inserts(self) -> int:
        return self._uncovered

    @property
    def needs_refresh(self) -> bool:
        """True when accumulated drift warrants a rebuild."""
        n = max(len(self._rows), 1)
        return (
            self._modifications >= self._drift_threshold * n
            or self._uncovered >= 0.25 * self._drift_threshold * n
        )

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def _find_bucket(self, cx: float, cy: float) -> Optional[int]:
        # The shared half-open tie rule (see owner_of_center): a
        # center exactly on a split coordinate updates the same bucket
        # that assign_by_center / the grid labelling would give it.
        return owner_of_center(
            cx, cy, [b.bbox for b in self.buckets]
        )

    def insert(self, rect: Rect) -> None:
        """Add a rectangle; update the covering bucket's statistics."""
        self._rows.append(np.asarray(rect.as_tuple(), dtype=np.float64))
        self._modifications += 1
        self._epoch += 1
        OBS.add("maintenance.inserts")
        cx, cy = rect.center
        idx = self._find_bucket(cx, cy)
        if idx is None:
            self._uncovered += 1
            OBS.add("maintenance.uncovered_inserts")
            return
        self.buckets[idx] = self.buckets[idx].with_inserted(rect)

    def delete(self, rect: Rect) -> bool:
        """Remove one rectangle equal to ``rect``.

        Returns False (and changes nothing — the epoch included) if no
        such rectangle is stored.  Removing the last member of a bucket
        leaves an empty bucket (count 0, zero averages); the guard
        lives in :meth:`repro.core.bucket.Bucket.with_deleted`.
        """
        target = np.asarray(rect.as_tuple(), dtype=np.float64)
        for i, row in enumerate(self._rows):
            if np.array_equal(row, target):
                del self._rows[i]
                break
        else:
            OBS.add("maintenance.delete_misses")
            return False
        self._modifications += 1
        self._epoch += 1
        OBS.add("maintenance.deletes")
        cx, cy = rect.center
        idx = self._find_bucket(cx, cy)
        if idx is not None:
            self.buckets[idx] = self.buckets[idx].with_deleted(rect)
        return True

    # ------------------------------------------------------------------
    # estimation + rebuild
    # ------------------------------------------------------------------
    def estimate(self, query: Rect) -> float:
        """Estimated |Q| from the (possibly drifted) bucket summary."""
        return float(sum(b.estimate(query) for b in self.buckets))

    def current_data(self) -> RectSet:
        """The live distribution (initial data plus modifications)."""
        if not self._rows:
            return RectSet.empty()
        return RectSet(np.vstack(self._rows), copy=False, validate=False)

    def refresh(self) -> None:
        """Rebuild the partitioning from the current data (ANALYZE).

        The partitioner supplies the new bucket *layout*; the
        per-bucket statistics are then recomputed exactly from the
        retained rows with :meth:`Bucket.from_members`, discarding
        whatever float error the incremental running averages (and
        their 0.0 clamps — see :meth:`Bucket.with_deleted`)
        accumulated since the last rebuild.  After a refresh the
        summary is bit-identical to one built fresh from
        :meth:`current_data`.
        """
        data = self.current_data()
        if len(data) == 0:
            self.buckets = []
        else:
            layout = [
                b.bbox for b in self._partitioner.partition(data)
            ]
            self.buckets = buckets_from_members(data, layout)
        self._modifications = 0
        self._uncovered = 0
        self._epoch += 1
        OBS.add("maintenance.refreshes")

    def replace_buckets(self, buckets: List[Bucket]) -> None:
        """Swap in a tuned bucket list as one atomic mutation.

        The feedback tuner's single entry point into the epoch
        machinery: the new list becomes visible together with exactly
        one epoch bump, so every derived consumer — the estimator's
        kernel snapshot, the shard's routing box, the router's tier
        kernel — sees either the old or the new summary, never a
        half-tuned mix.  Structural drift serviced
        by the pass resets the modification counter; uncovered
        inserts survive (a tuning pass reshapes existing boxes, it
        does not extend coverage), so :attr:`needs_refresh` stays
        honest about layout drift.
        """
        self.buckets = list(buckets)
        self._modifications = 0
        self._epoch += 1
        OBS.add("maintenance.tunes")
