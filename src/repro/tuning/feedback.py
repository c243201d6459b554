"""The feedback collector and the quota-preserving bucket tuner.

The loop has three stages, all off the query hot path:

1. **Collect** — :class:`FeedbackCollector` samples every Nth served
   (query, estimate) pair.  Sampling is deterministic (a modular
   counter, no RNG) and O(1) per query, so offering every served
   answer to a collector never perturbs answers or timing-sensitive
   paths.
2. **Score** — :meth:`FeedbackTuner.tune` first re-derives every
   bucket summary exactly from the retained rows (discarding the
   incremental-maintenance float drift), then asks the exact counting
   oracle for the truth of each sampled query and attributes each
   query's absolute error to buckets in proportion to the Section 3.1
   overlap fractions — the same per-bucket factor the range formula
   uses, so the blame lands on the buckets that actually produced the
   estimate.
3. **Re-shape** — under the fixed bucket quota, the pass pairs each
   *split* of a high-error bucket (split point chosen by the Min-Skew
   marginal criterion over a density grid of the bucket's own
   members) with a *merge* of the coldest, most accurate sibling pair
   whose union is an exact rectangle.  Merges and splits are paired
   one-for-one, so the bucket count is invariant; member sets are
   repartitioned with the documented half-open tie rule, so the total
   count is conserved exactly.

The new bucket list is published with
:meth:`~repro.core.maintenance.MaintainedHistogram.replace_buckets` —
one atomic mutation, one epoch bump — and every consumer of the
histogram picks it up through the existing epoch machinery.

Counters report under the ``tuning.*`` namespace: ``tuning.observed``,
``tuning.passes``, ``tuning.scored``, ``tuning.splits``,
``tuning.merges``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.bucket import (
    Bucket,
    BucketArrays,
    assign_by_center,
    buckets_from_members,
    estimate_many,
)
from ..core.maintenance import MaintainedHistogram
from ..counting import ExactCountOracle
from ..geometry import Rect, RectSet
from ..grid import BlockStats, DensityGrid, best_split_of_marginal
from ..obs import OBS


@dataclass(frozen=True)
class FeedbackRecord:
    """One sampled observation: a served query and its estimate."""

    query: Rect
    estimate: float


class FeedbackCollector:
    """Deterministic every-Nth sampler of served queries.

    ``sample_every=1`` records everything; larger strides thin the
    stream.  The sampler is a modular counter over the queries *seen*
    (not recorded), so the same query stream always yields the same
    sample — no RNG, reproducible bit-for-bit.  ``capacity`` bounds
    memory; once full, further observations are counted but dropped
    (the tuner drains the buffer, reopening it).
    """

    def __init__(
        self, *, sample_every: int = 1, capacity: int = 4096
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._sample_every = int(sample_every)
        self._capacity = int(capacity)
        self._seen = 0
        self._records: List[FeedbackRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    @property
    def seen(self) -> int:
        """Queries observed (recorded or not) since construction."""
        return self._seen

    def observe(self, query: Rect, estimate: float) -> None:
        """Register one served query; record it if the stride says so."""
        self._seen += 1
        if self._seen % self._sample_every:
            return
        if len(self._records) >= self._capacity:
            return
        self._records.append(FeedbackRecord(query, float(estimate)))
        OBS.add("tuning.observed")

    def observe_batch(
        self, queries: RectSet, estimates: np.ndarray
    ) -> None:
        """Register a served batch (same stride as scalar observes)."""
        n = len(queries)
        start = self._seen
        self._seen += n
        s = self._sample_every
        first = (-(start + 1)) % s  # first i with (start + i + 1) % s == 0
        recorded = 0
        for i in range(first, n, s):
            if len(self._records) >= self._capacity:
                break
            self._records.append(
                FeedbackRecord(queries[i], float(estimates[i]))
            )
            recorded += 1
        if recorded:
            OBS.add("tuning.observed", recorded)

    def drain(self) -> Tuple[RectSet, np.ndarray]:
        """Take (and clear) the recorded sample as columnar arrays."""
        records = self._records
        self._records = []
        if not records:
            return RectSet.empty(), np.zeros(0, dtype=np.float64)
        coords = np.array(
            [
                [r.query.x1, r.query.y1, r.query.x2, r.query.y2]
                for r in records
            ],
            dtype=np.float64,
        )
        served = np.array(
            [r.estimate for r in records], dtype=np.float64
        )
        return RectSet(coords, copy=False, validate=False), served


@dataclass(frozen=True)
class TuningReport:
    """What one :meth:`FeedbackTuner.tune` pass did.

    ``applied`` is False only for the empty-feedback no-op (no
    mutation, no epoch bump).  The error fields are mean absolute
    error over the scored queries, before (exact resummarisation, old
    layout) and after (new layout) — the pass's own measure of
    whether re-shaping helped.
    """

    scored: int
    splits: int
    merges: int
    applied: bool
    epoch: int
    mean_abs_error_before: float
    mean_abs_error_after: float


def _exact_union(a: Rect, b: Rect) -> Optional[Rect]:
    """The union of ``a`` and ``b`` iff it is an exact rectangle.

    True exactly when the boxes share a full edge: equal y-extents and
    abutting in x, or equal x-extents and abutting in y.  Coordinates
    compare exactly — split coordinates are shared floats by
    construction, so no tolerance is needed.
    """
    if a.y1 == b.y1 and a.y2 == b.y2:
        if a.x2 == b.x1:
            return Rect(a.x1, a.y1, b.x2, a.y2)
        if b.x2 == a.x1:
            return Rect(b.x1, a.y1, a.x2, a.y2)
    if a.x1 == b.x1 and a.x2 == b.x2:
        if a.y2 == b.y1:
            return Rect(a.x1, a.y1, a.x2, b.y2)
        if b.y2 == a.y1:
            return Rect(a.x1, b.y1, a.x2, a.y2)
    return None


def _min_skew_split(
    members: RectSet, bbox: Rect, nx: int, ny: int
) -> Optional[Tuple[int, float]]:
    """Best split of ``bbox`` by the Min-Skew marginal criterion.

    Builds a density grid of the bucket's own members, evaluates the
    best SSE-reducing split of each marginal (scaled by the other
    axis's extent, exactly as Min-Skew construction scores its
    blocks), and returns ``(axis, position)`` — axis 0 splits at
    ``x = position``, axis 1 at ``y = position``.  ``None`` when the
    box cannot be split (degenerate extent along both axes).
    """
    if bbox.area <= 0.0:
        return None
    grid = DensityGrid.from_rects(members, nx, ny, bounds=bbox)
    stats = BlockStats(grid.densities)
    best: Optional[Tuple[float, int, int]] = None
    kx, red_x = best_split_of_marginal(
        stats.marginal_x(0, grid.nx - 1, 0, grid.ny - 1)
    )
    if kx > 0:
        best = (red_x / grid.ny, 0, kx)
    ky, red_y = best_split_of_marginal(
        stats.marginal_y(0, grid.nx - 1, 0, grid.ny - 1)
    )
    if ky > 0 and (best is None or red_y / grid.nx > best[0]):
        best = (red_y / grid.nx, 1, ky)
    if best is None:
        return None
    _, axis, k = best
    if axis == 0:
        return 0, grid.bounds.x1 + k * grid.cell_width
    return 1, grid.bounds.y1 + k * grid.cell_height


class FeedbackTuner:
    """Re-shapes a :class:`MaintainedHistogram` from query feedback.

    Parameters
    ----------
    hist:
        The histogram to tune.  Mutated only through
        :meth:`~repro.core.maintenance.MaintainedHistogram.replace_buckets`.
    max_ops:
        Maximum split/merge *pairs* per pass.  Each pair removes one
        bucket (merge) and adds one (split), so the quota is invariant.
    grid_nx, grid_ny:
        Resolution of the per-bucket density grid the split criterion
        runs on.
    beam:
        How many top-ranked merge and split candidates each round
        trials before keeping the best strictly-improving pair.
    """

    def __init__(
        self,
        hist: MaintainedHistogram,
        *,
        max_ops: int = 4,
        grid_nx: int = 8,
        grid_ny: int = 8,
        beam: int = 4,
    ) -> None:
        if max_ops < 0:
            raise ValueError("max_ops must be non-negative")
        if grid_nx < 2 or grid_ny < 2:
            raise ValueError("split grid must be at least 2x2")
        if beam < 1:
            raise ValueError("beam must be >= 1")
        self._hist = hist
        self._max_ops = int(max_ops)
        self._grid_nx = int(grid_nx)
        self._grid_ny = int(grid_ny)
        self._beam = int(beam)

    # ------------------------------------------------------------------
    def tune(self, queries: RectSet) -> TuningReport:
        """Run one feedback pass over ``queries``.

        Scores the sampled queries against the exact oracle over the
        histogram's current rows, re-shapes under the quota, and
        publishes the result as one atomic epoch bump.  An empty
        feedback batch is a no-op (no mutation, no bump).
        """
        hist = self._hist
        if len(queries) == 0 or not hist.buckets:
            return TuningReport(
                scored=0, splits=0, merges=0, applied=False,
                epoch=hist.epoch, mean_abs_error_before=0.0,
                mean_abs_error_after=0.0,
            )

        data = hist.current_data()
        boxes = [b.bbox for b in hist.buckets]
        assignment = assign_by_center(data, boxes)
        # Stage 1: exact resummarisation — the drifted running
        # averages are replaced by from_members statistics before any
        # error is attributed, so re-shaping reacts to layout error,
        # not to maintenance float drift.
        buckets = buckets_from_members(data, boxes, assignment)
        members = [
            np.flatnonzero(assignment == i) for i in range(len(boxes))
        ]

        truth = ExactCountOracle(data).counts(queries)
        error_before = float(
            np.abs(estimate_many(buckets, queries) - truth).mean()
        )

        # Stages 2+3: attribute, re-shape, repeat.  Each round picks
        # one merge+split pair and keeps it only if the scored error
        # strictly drops, so a pass can never make the sampled
        # workload worse and repeated passes over the same feedback
        # reach a fixpoint instead of oscillating.
        applied_pairs = 0
        for _ in range(self._max_ops):
            picked = self._improve_once(
                data, truth, queries, boxes, members, buckets
            )
            if picked is None:
                break
            boxes, members, buckets = picked
            applied_pairs += 1

        hist.replace_buckets(buckets)

        error_after = float(
            np.abs(estimate_many(buckets, queries) - truth).mean()
        )
        OBS.add("tuning.passes")
        OBS.add("tuning.scored", len(queries))
        if applied_pairs:
            OBS.add("tuning.splits", applied_pairs)
            OBS.add("tuning.merges", applied_pairs)
        return TuningReport(
            scored=len(queries),
            splits=applied_pairs,
            merges=applied_pairs,
            applied=True,
            epoch=hist.epoch,
            mean_abs_error_before=error_before,
            mean_abs_error_after=error_after,
        )

    # ------------------------------------------------------------------
    def _improve_once(
        self,
        data: RectSet,
        truth: np.ndarray,
        queries: RectSet,
        boxes: List[Rect],
        members: List[np.ndarray],
        buckets: List[Bucket],
    ) -> Optional[
        Tuple[List[Rect], List[np.ndarray], List[Bucket]]
    ]:
        """Try one quota-preserving (merge, split) pair.

        Attribution ranks split candidates hottest-error first and
        merge candidates (pairs whose union is an exact rectangle)
        coldest and most accurate first; the top few of each ranking
        are trialled and the pair giving the lowest mean absolute
        error over the scored queries is kept — only if strictly
        below the current error.  Returns the updated layout, or
        ``None`` when no candidate improves.
        """
        n = len(buckets)
        if n < 2:
            return None
        arrays = BucketArrays(buckets)
        fractions = arrays.fraction_block(queries.coords)
        errors = np.abs(estimate_many(buckets, queries) - truth)
        current = float(errors.mean())

        # Attribution: each query's absolute error is shared among
        # the buckets it touched, weighted by the same overlap
        # fraction the range formula multiplied their counts by; heat
        # counts how many scored queries touched a bucket.
        touched = fractions > 0.0
        denom = fractions.sum(axis=1)
        safe = np.where(denom > 0.0, denom, 1.0)
        share = np.where(
            touched, fractions / safe[:, np.newaxis], 0.0
        )
        bucket_error = (share * errors[:, np.newaxis]).sum(axis=0)
        heat = touched.sum(axis=0)

        split_ranked = sorted(
            (
                i for i in range(n)
                if buckets[i].count >= 2 and buckets[i].bbox.area > 0.0
            ),
            key=lambda i: (-bucket_error[i], i),
        )[:self._beam]
        merge_ranked = sorted(
            (
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if _exact_union(boxes[i], boxes[j]) is not None
            ),
            key=lambda p: (
                int(heat[p[0]] + heat[p[1]]),
                bucket_error[p[0]] + bucket_error[p[1]],
                p,
            ),
        )[:self._beam]

        cuts: Dict[int, Optional[Tuple[int, float]]] = {}
        best: Optional[
            Tuple[float, List[Rect], List[np.ndarray], List[Bucket]]
        ] = None
        for i, j in merge_ranked:
            for s in split_ranked:
                if s == i or s == j:
                    continue
                if s not in cuts:
                    cuts[s] = _min_skew_split(
                        data.select(members[s]), boxes[s],
                        self._grid_nx, self._grid_ny,
                    )
                cut = cuts[s]
                if cut is None:
                    continue
                cand = self._apply_pair(
                    data, boxes, members, buckets, (i, j), (s, cut)
                )
                err = float(
                    np.abs(
                        estimate_many(cand[2], queries) - truth
                    ).mean()
                )
                if err < current and (best is None or err < best[0]):
                    best = (err, *cand)
        if best is None:
            return None
        return best[1], best[2], best[3]

    # ------------------------------------------------------------------
    def _apply_pair(
        self,
        data: RectSet,
        boxes: Sequence[Rect],
        members: Sequence[np.ndarray],
        buckets: Sequence[Bucket],
        merge: Tuple[int, int],
        split: Tuple[int, Tuple[int, float]],
    ) -> Tuple[List[Rect], List[np.ndarray], List[Bucket]]:
        """Materialise one merge plus one split as exact summaries.

        Untouched buckets keep their (already exact) summaries; the
        merge product and both split halves are rebuilt with
        :meth:`Bucket.from_members` over the member rows, partitioned
        by the half-open tie rule at the split coordinate.  One box
        removed by the merge, one added by the split — bucket quota
        and total member count are both conserved exactly.
        """
        i, j = merge
        s, (axis, position) = split
        used = {i, j, s}

        new_boxes: List[Rect] = []
        new_members: List[np.ndarray] = []
        new_buckets: List[Bucket] = []
        for k, b in enumerate(buckets):
            if k in used:
                continue
            new_boxes.append(boxes[k])
            new_members.append(members[k])
            new_buckets.append(b)

        union = _exact_union(boxes[i], boxes[j])
        if union is None:  # pragma: no cover - candidates pre-checked
            raise AssertionError("merge pair lost its shared edge")
        merged_idx = np.concatenate((members[i], members[j]))
        new_boxes.append(union)
        new_members.append(merged_idx)
        new_buckets.append(
            Bucket.from_members(union, data.select(merged_idx))
        )

        box = boxes[s]
        centers = data.centers()
        if axis == 0:
            left_box = Rect(box.x1, box.y1, position, box.y2)
            right_box = Rect(position, box.y1, box.x2, box.y2)
            side = centers[members[s], 0] < position
        else:
            left_box = Rect(box.x1, box.y1, box.x2, position)
            right_box = Rect(box.x1, position, box.x2, box.y2)
            side = centers[members[s], 1] < position
        for half_box, half_idx in (
            (left_box, members[s][side]),
            (right_box, members[s][~side]),
        ):
            new_boxes.append(half_box)
            new_members.append(half_idx)
            new_buckets.append(
                Bucket.from_members(half_box, data.select(half_idx))
            )
        return new_boxes, new_members, new_buckets
