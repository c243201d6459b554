"""Estimator over any bucket grouping.

This is the "technique for using the resulting set of buckets to estimate
the result sizes" of paper Section 3.2: selectivity estimation reduces to
the individual buckets, each answered with the Section 3.1 uniformity
formulas, and the per-bucket contributions are summed.

Both query paths run the same vectorised kernel over columnar bucket
state (:class:`repro.core.bucket.BucketArrays`, precomputed once at
construction): the batch path evaluates a ``(Q, B)`` broadcast block,
and the scalar path evaluates the identical block with ``Q = 1``, so
scalar and batch answers are bit-identical by construction.

The scalar path validates its query first: a :class:`Rect` is checked
by its constructor, but one built around it (``object.__new__``) would
otherwise reach the kernel with NaN or inverted coordinates, so it is
rejected with the same :class:`~repro.errors.GeometryError` the batch
path raises.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import numpy.typing as npt

from ..core.bucket import Bucket, BucketArrays, estimate_many_arrays
from ..geometry import Rect, RectSet, require_nonempty, \
    validate_extent
from ..obs import OBS
from ..partitioners.base import Partitioner
from .base import SelectivityEstimator

#: Words of summary state per bucket (Section 5.4): four for the
#: bounding box, one each for average density, count, average width and
#: average height.
WORDS_PER_BUCKET = 8


class BucketEstimator(SelectivityEstimator):
    """Sums the uniformity-assumption estimate over a bucket list."""

    def __init__(
        self, buckets: Sequence[Bucket], name: str = "buckets"
    ) -> None:
        require_nonempty(len(buckets), what="bucket list")
        self.buckets: List[Bucket] = list(buckets)
        self.name = name
        self._arrays = BucketArrays(self.buckets)

    @classmethod
    def build(
        cls,
        partitioner: Partitioner,
        rects: RectSet,
        *,
        bounds: Optional[Rect] = None,
    ) -> "BucketEstimator":
        """Partition ``rects`` and wrap the result."""
        with OBS.timer(f"partition.{partitioner.name}"):
            buckets = partitioner.partition(rects, bounds=bounds)
        return cls(buckets, name=partitioner.name)

    # ------------------------------------------------------------------
    # staleness hooks
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Version of the bucket summary this estimator serves.

        A plain :class:`BucketEstimator` owns its bucket list, which
        never changes after construction, so the epoch is a constant 0.
        Live adapters (:class:`repro.estimators.maintained.\
MaintainedEstimator`) override this with their source histogram's
        monotonic epoch, and :meth:`sync` compares it against the
        epoch the kernel snapshot was built from.
        """
        return 0

    def sync(self) -> bool:
        """Rebuild derived state if the source summary has moved.

        Returns True when a rebuild happened (so callers holding state
        derived from :attr:`buckets` know to rebuild too).  The static
        base class is never stale.  Both query paths call this first,
        which is what makes the estimator safe to query
        mid-maintenance with nothing in front of it.
        """
        return False

    # ------------------------------------------------------------------
    # query paths
    # ------------------------------------------------------------------
    def estimate(self, query: Rect) -> float:
        validate_extent(
            query.x1, query.y1, query.x2, query.y2, what="query"
        )
        self.sync()
        qrow = np.array(
            [[query.x1, query.y1, query.x2, query.y2]],
            dtype=np.float64,
        )
        return float(self._arrays.estimate_block(qrow)[0])

    def _estimate_batch(
        self, queries: RectSet
    ) -> npt.NDArray[np.float64]:
        self.sync()
        if OBS.enabled:
            OBS.add("estimator.buckets_inspected",
                    len(self.buckets) * len(queries))
        return estimate_many_arrays(self._arrays, queries)

    def size_words(self) -> int:
        return WORDS_PER_BUCKET * len(self.buckets)

    @property
    def n_buckets(self) -> int:
        return len(self.buckets)

    def total_count(self) -> int:
        """Sum of bucket counts (= N when the grouping partitions T)."""
        return sum(b.count for b in self.buckets)
