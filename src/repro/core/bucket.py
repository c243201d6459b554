"""Histogram buckets and the per-bucket uniformity-assumption formulas.

Every bucket-based technique in the paper (Equi-Area, Equi-Count, R-Tree,
Min-Skew) produces a set of buckets and answers queries by "applying the
uniformity assumption (and the corresponding formulae developed in
Section 3.1) individually to each bucket".

A bucket stores exactly the eight words of Section 5.4: the four
bounding-box coordinates, the average density, the rectangle count, and
the average width and height of the member rectangles.

The range formula (Section 3.1) extends each query side outward by the
average extent — "the left side of the query [is extended] by the average
width subject to the constraint that the left side cannot cross the left
input boundary" — because rectangles whose *centers* lie outside the
query can still intersect it.  Within a bucket the estimate is then

    count · Area(Q' ∩ B) / Area(B)

where Q' is the extended query and B the bucket box.  A point query is a
zero-extent range query and needs no special case: the extension gives it
the average-density answer TA/Area of Section 3.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import Rect, RectSet


@dataclass(frozen=True)
class Bucket:
    """One histogram bucket (the paper's eight words of state).

    Attributes
    ----------
    bbox:
        The bucket's bounding box (four words).
    count:
        Number of input rectangles assigned to the bucket.
    avg_width, avg_height:
        Mean extents of the member rectangles (0.0 when empty).
    avg_density:
        Mean spatial density inside the bucket — the expected result of
        a point query within the box.  Stored for introspection; the
        estimation formulas derive what they need from the other fields.
    """

    bbox: Rect
    count: int
    avg_width: float = 0.0
    avg_height: float = 0.0
    avg_density: float = 0.0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("bucket count must be non-negative")
        if self.avg_width < 0 or self.avg_height < 0:
            raise ValueError("average extents must be non-negative")

    # ------------------------------------------------------------------
    @classmethod
    def from_members(cls, bbox: Rect, members: RectSet) -> "Bucket":
        """Build a bucket summarising ``members`` within ``bbox``."""
        count = len(members)
        if count == 0:
            return cls(bbox, 0)
        area = bbox.area
        density = members.total_area() / area if area > 0 else float(count)
        return cls(
            bbox,
            count,
            avg_width=members.avg_width(),
            avg_height=members.avg_height(),
            avg_density=density,
        )

    # ------------------------------------------------------------------
    # incremental member updates (live maintenance)
    # ------------------------------------------------------------------
    def with_inserted(self, rect: Rect) -> "Bucket":
        """This bucket's summary after ``rect`` joins its members.

        Running averages are updated exactly as
        :meth:`from_members` would compute them over the enlarged
        member set; the density stays "total member area over bucket
        area" (a degenerate bucket box counts each member as one full
        unit of density, mirroring :meth:`from_members`).
        """
        new_count = self.count + 1
        avg_w = (self.avg_width * self.count + rect.width) / new_count
        avg_h = (self.avg_height * self.count + rect.height) / new_count
        area = self.bbox.area
        density = self.avg_density + (
            rect.area / area if area > 0 else 1.0
        )
        return Bucket(
            self.bbox, new_count, avg_width=avg_w, avg_height=avg_h,
            avg_density=density,
        )

    def with_deleted(self, rect: Rect) -> "Bucket":
        """This bucket's summary after one member equal to ``rect``
        leaves.

        The empty-bucket case is guarded here, in one place: removing
        the last member yields count 0 with zero averages instead of
        dividing by zero.  An already-empty bucket is returned
        unchanged (the summary has nothing left to subtract from).
        Accumulated float error can drive a running average slightly
        negative on the way down; averages are clamped at 0.0 so the
        :class:`Bucket` invariants hold.  The clamp *absorbs* that
        error instead of cancelling it, so a long insert/delete stream
        drifts the running summary away from what
        :meth:`from_members` would compute — which is why
        ``MaintainedHistogram.refresh`` re-derives every summary
        exactly from the retained rows rather than trusting these
        incremental values.
        """
        if self.count == 0:
            return self
        new_count = self.count - 1
        if new_count == 0:
            return Bucket(self.bbox, 0)
        avg_w = max(
            (self.avg_width * self.count - rect.width) / new_count, 0.0
        )
        avg_h = max(
            (self.avg_height * self.count - rect.height) / new_count,
            0.0,
        )
        area = self.bbox.area
        density = max(
            self.avg_density - (rect.area / area if area > 0 else 1.0),
            0.0,
        )
        return Bucket(
            self.bbox, new_count, avg_width=avg_w, avg_height=avg_h,
            avg_density=density,
        )

    # ------------------------------------------------------------------
    def estimate(self, query: Rect) -> float:
        """Expected number of member rectangles intersecting ``query``.

        Implements the Section 3.1 range formula within this bucket.
        """
        if self.count == 0:
            return 0.0
        box = self.bbox
        area = box.area
        if area <= 0.0:
            # Degenerate box (e.g. co-located point data): every member
            # intersects the query iff the query touches the box.
            return float(self.count) if box.intersects(query) else 0.0

        # Extend the query outward by half the average extent per side
        # (one full average extent per axis in total, as in Section 3.1,
        # but symmetric because membership is decided by rect *centers*),
        # clamped to the bucket box.
        half_w = self.avg_width / 2.0
        half_h = self.avg_height / 2.0
        ex1 = max(box.x1, query.x1 - half_w)
        ex2 = min(box.x2, query.x2 + half_w)
        ey1 = max(box.y1, query.y1 - half_h)
        ey2 = min(box.y2, query.y2 + half_h)
        overlap_w = ex2 - ex1
        overlap_h = ey2 - ey1
        if overlap_w <= 0.0 or overlap_h <= 0.0:
            return 0.0
        fraction = (overlap_w * overlap_h) / area
        return self.count * min(fraction, 1.0)


class BucketArrays:
    """Columnar view of a bucket list for the vectorised kernel.

    Precomputing the per-bucket columns once (instead of on every
    ``estimate_many`` call) is what makes the kernel usable as the
    *scalar* fast path too: a single query is simply a batch of one,
    and because numpy evaluates every element of a ``(Q, B)`` block
    independently — and reduces each row with the same pairwise
    algorithm regardless of ``Q`` — a batch-of-one answer is
    bit-identical to the corresponding element of any larger batch.
    The differential serving suite relies on that equivalence.
    """

    __slots__ = (
        "n", "x1", "y1", "x2", "y2", "counts", "half_w", "half_h",
        "safe_areas", "degenerate", "any_degenerate",
    )

    def __init__(self, buckets: Sequence[Bucket]) -> None:
        self.n = len(buckets)
        self.x1 = np.array([b.bbox.x1 for b in buckets],
                           dtype=np.float64)
        self.y1 = np.array([b.bbox.y1 for b in buckets],
                           dtype=np.float64)
        self.x2 = np.array([b.bbox.x2 for b in buckets],
                           dtype=np.float64)
        self.y2 = np.array([b.bbox.y2 for b in buckets],
                           dtype=np.float64)
        self.counts = np.array([float(b.count) for b in buckets],
                               dtype=np.float64)
        self.half_w = np.array([b.avg_width / 2.0 for b in buckets],
                               dtype=np.float64)
        self.half_h = np.array([b.avg_height / 2.0 for b in buckets],
                               dtype=np.float64)
        areas = (self.x2 - self.x1) * (self.y2 - self.y1)
        self.degenerate = (areas <= 0.0) & (self.counts > 0)
        self.any_degenerate = bool(self.degenerate.any())
        self.safe_areas = np.where(areas > 0.0, areas, 1.0)

    def estimate_block(self, qcoords: np.ndarray) -> np.ndarray:
        """Per-query sum of bucket estimates for an ``(M, 4)`` block.

        One broadcast evaluation of the Section 3.1 range formula over
        every (query, bucket) pair, reduced over buckets.
        """
        m = qcoords.shape[0]
        if m == 0 or self.n == 0:
            return np.zeros(m, dtype=np.float64)
        qx1 = qcoords[:, 0][:, np.newaxis]
        qy1 = qcoords[:, 1][:, np.newaxis]
        qx2 = qcoords[:, 2][:, np.newaxis]
        qy2 = qcoords[:, 3][:, np.newaxis]

        ex1 = np.maximum(self.x1, qx1 - self.half_w)
        ex2 = np.minimum(self.x2, qx2 + self.half_w)
        ey1 = np.maximum(self.y1, qy1 - self.half_h)
        ey2 = np.minimum(self.y2, qy2 + self.half_h)
        overlap = (
            np.clip(ex2 - ex1, 0.0, None) * np.clip(ey2 - ey1, 0.0, None)
        )
        fraction = np.minimum(overlap / self.safe_areas, 1.0)
        estimates = (self.counts * fraction).astype(np.float64)

        if self.any_degenerate:
            touches = (
                (self.x1 <= qx2) & (self.x2 >= qx1)
                & (self.y1 <= qy2) & (self.y2 >= qy1)
            )
            estimates = np.where(
                self.degenerate,
                np.where(touches, self.counts, 0.0),
                estimates,
            )
        return estimates.sum(axis=1)

    def fraction_block(self, qcoords: np.ndarray) -> np.ndarray:
        """``(M, B)`` matrix of the Section 3.1 overlap fractions.

        Entry ``(q, b)`` is the fraction of bucket ``b``'s box covered
        by query ``q`` after the average-extent extension — the factor
        the range formula multiplies the bucket count by.  A
        degenerate box contributes 1.0 when the query touches it,
        matching :meth:`estimate_block`.  The feedback tuner uses this
        matrix to attribute per-query estimation error to buckets.
        """
        m = qcoords.shape[0]
        if m == 0 or self.n == 0:
            return np.zeros((m, self.n), dtype=np.float64)
        qx1 = qcoords[:, 0][:, np.newaxis]
        qy1 = qcoords[:, 1][:, np.newaxis]
        qx2 = qcoords[:, 2][:, np.newaxis]
        qy2 = qcoords[:, 3][:, np.newaxis]

        ex1 = np.maximum(self.x1, qx1 - self.half_w)
        ex2 = np.minimum(self.x2, qx2 + self.half_w)
        ey1 = np.maximum(self.y1, qy1 - self.half_h)
        ey2 = np.minimum(self.y2, qy2 + self.half_h)
        overlap = (
            np.clip(ex2 - ex1, 0.0, None) * np.clip(ey2 - ey1, 0.0, None)
        )
        fraction = np.minimum(overlap / self.safe_areas, 1.0)
        areas = (self.x2 - self.x1) * (self.y2 - self.y1)
        if bool((areas <= 0.0).any()):
            touches = (
                (self.x1 <= qx2) & (self.x2 >= qx1)
                & (self.y1 <= qy2) & (self.y2 >= qy1)
            )
            fraction = np.where(
                areas <= 0.0,
                np.where(touches, 1.0, 0.0),
                fraction,
            )
        return fraction


def estimate_many(
    buckets: Sequence[Bucket],
    queries: RectSet,
    *,
    chunk_size: int = 1024,
) -> np.ndarray:
    """Vectorised sum of per-bucket estimates for many queries.

    Equivalent to ``sum(b.estimate(q) for b in buckets)`` per query but
    evaluated as (query-chunk × bucket) numpy blocks, which is what makes
    10 000-query experiment sweeps practical.
    """
    return estimate_many_arrays(
        BucketArrays(buckets), queries, chunk_size=chunk_size
    )


def estimate_many_arrays(
    arrays: BucketArrays,
    queries: RectSet,
    *,
    chunk_size: int = 1024,
) -> np.ndarray:
    """:func:`estimate_many` over precomputed :class:`BucketArrays`.

    Chunking bounds peak memory at ``chunk_size × B`` doubles; chunk
    boundaries cannot change any answer because every row of the block
    is evaluated independently.
    """
    n_queries = len(queries)
    result = np.zeros(n_queries, dtype=np.float64)
    if n_queries == 0 or arrays.n == 0:
        return result
    qc = queries.coords
    for start in range(0, n_queries, chunk_size):
        block = qc[start:start + chunk_size]
        result[start:start + block.shape[0]] = \
            arrays.estimate_block(block)
    return result


def _max_edges(boxes: Sequence[Rect]) -> Tuple[float, float]:
    """Global maximum x/y edge over ``boxes`` (the closed boundary)."""
    return (
        max(box.x2 for box in boxes),
        max(box.y2 for box in boxes),
    )


def owner_of_center(
    cx: float, cy: float, boxes: Sequence[Rect]
) -> Optional[int]:
    """Index of the box owning center ``(cx, cy)``, or ``None``.

    **The tie rule** (shared by every center-assignment path — this
    scalar probe, :func:`assign_by_center`, the Min-Skew grid
    labelling, and ``ShardPlan`` routing): each box is half-open,
    ``[x1, x2) × [y1, y2)``, *except* along the global maximum edges
    of the box list, where it is closed.  A center sitting exactly on
    a shared split coordinate therefore belongs to exactly one box
    (the upper/right neighbour), and a center on the layout MBR's max
    edge is still covered.  Boxes that genuinely overlap (non-BSP
    layouts) resolve first-wins, in list order.
    """
    if not boxes:
        return None
    gx2, gy2 = _max_edges(boxes)
    for idx, box in enumerate(boxes):
        in_x = cx >= box.x1 and (
            cx <= box.x2 if box.x2 >= gx2 else cx < box.x2
        )
        in_y = cy >= box.y1 and (
            cy <= box.y2 if box.y2 >= gy2 else cy < box.y2
        )
        if in_x and in_y:
            return idx
    return None


def assign_by_center(
    rects: RectSet, boxes: Sequence[Rect]
) -> np.ndarray:
    """Assign each rectangle to the box owning its center.

    Returns an ``int64`` array of box indices, −1 where no box owns
    the center.  Ownership follows the documented half-open tie rule
    of :func:`owner_of_center` — boxes are ``[x1, x2) × [y1, y2)``
    except along the global max edges, which are closed — so a center
    lying exactly on a shared split coordinate lands in exactly one
    box, matching the grid-label assignment used by Min-Skew
    construction and shard routing.  Used by partitioners whose boxes
    are disjoint covers (the BSP families); O(N × B) vectorised.
    """
    assignment = np.full(len(rects), -1, dtype=np.int64)
    if len(rects) == 0 or not boxes:
        return assignment
    centers = rects.centers()
    gx2, gy2 = _max_edges(boxes)
    for idx, box in enumerate(boxes):
        unassigned = assignment == -1
        if not unassigned.any():
            break
        cx = centers[unassigned, 0]
        cy = centers[unassigned, 1]
        in_x = (cx >= box.x1) & (
            (cx <= box.x2) if box.x2 >= gx2 else (cx < box.x2)
        )
        in_y = (cy >= box.y1) & (
            (cy <= box.y2) if box.y2 >= gy2 else (cy < box.y2)
        )
        inside = in_x & in_y
        target = np.flatnonzero(unassigned)[inside]
        assignment[target] = idx
    return assignment


def buckets_from_assignment(
    rects: RectSet,
    boxes: Sequence[Rect],
    assignment: np.ndarray,
) -> List[Bucket]:
    """Build one :class:`Bucket` per box from an assignment vector.

    The sums accumulate per label via ``bincount``, which associates
    additions differently from the pairwise ``np.mean`` reduction in
    :meth:`Bucket.from_members`; the two can disagree in the last
    ulp.  Callers needing the exact ``from_members`` form (the
    maintenance refresh, the feedback tuner) use
    :func:`buckets_from_members` instead.
    """
    n_boxes = len(boxes)
    assigned = assignment >= 0
    labels = assignment[assigned]
    counts = np.bincount(labels, minlength=n_boxes).astype(np.int64)
    sum_w = np.bincount(
        labels, weights=rects.widths[assigned], minlength=n_boxes
    )
    sum_h = np.bincount(
        labels, weights=rects.heights[assigned], minlength=n_boxes
    )
    sum_area = np.bincount(
        labels, weights=rects.areas[assigned], minlength=n_boxes
    )
    buckets: List[Bucket] = []
    for i, box in enumerate(boxes):
        c = int(counts[i])
        if c == 0:
            buckets.append(Bucket(box, 0))
            continue
        area = box.area
        buckets.append(
            Bucket(
                box,
                c,
                avg_width=float(sum_w[i] / c),
                avg_height=float(sum_h[i] / c),
                avg_density=float(sum_area[i] / area) if area > 0 else
                float(c),
            )
        )
    return buckets


def buckets_from_members(
    rects: RectSet,
    boxes: Sequence[Rect],
    assignment: Optional[np.ndarray] = None,
) -> List[Bucket]:
    """Exact per-box summaries via :meth:`Bucket.from_members`.

    Bit-for-bit equal to building each bucket as
    ``Bucket.from_members(box, rects.select(assignment == i))`` — a
    guarantee :func:`buckets_from_assignment` does *not* make (see
    its docstring).  The maintenance refresh and the feedback tuner
    use this form so a drifted incremental summary lands exactly
    where a fresh ``from_members`` rebuild would.
    """
    if assignment is None:
        assignment = assign_by_center(rects, boxes)
    return [
        Bucket.from_members(box, rects.select(assignment == i))
        for i, box in enumerate(boxes)
    ]
