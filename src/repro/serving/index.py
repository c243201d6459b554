"""Bucket index: naming the buckets a query can touch.

A bucket histogram answers a query by summing the Section 3.1 formula
over *every* bucket, but most buckets contribute exactly 0.0 — their
box (extended by the bucket's average member extents) misses the query
entirely.  :class:`BucketIndex` names the buckets that *can* contribute.

Nothing in :mod:`repro` probes this index any more: at the paper's
bucket budgets (50–750 buckets, Section 5.4) one vectorised pass over
every bucket is cheaper than a probe.  The module stays only because
the repository benchmark's tracer (``perfbench/tracing.py``) imports
:class:`BucketIndex` by path to wrap its methods; it goes when that
tracer stops importing it.

The pruning is made mathematically exact by *inflating* each bucket box
by half the bucket's average extents before indexing it: the Section
3.1 formula extends the query by ``(avg_width/2, avg_height/2)`` per
side and clamps into the bucket box, so its overlap is positive exactly
when the raw query intersects the inflated box.  Degenerate (zero-area)
buckets use the raw touch test in the kernel and are indexed
un-inflated.  Inflated boxes contain the raw boxes, so the candidate
set is always a superset of the buckets whose raw box intersects the
query — the property ``tests/test_serving_index.py`` asserts.

Two probe structures share that contract:

* a uniform **grid** over the inflated boxes (each cell lists the
  buckets overlapping it), the default because bucket counts are small
  and grids probe in O(1); and
* an **R*-tree** of the inflated boxes, used when bucket boxes are so
  large relative to the space that the grid would replicate most
  buckets into most cells (the grid degenerates to a linear scan with
  extra steps).

Both paths finish with the same exact inflated-box filter, so
``candidates()`` returns an identical (ascending) id list whichever
structure served it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from ..core.bucket import Bucket
from ..geometry import Rect
from ..rtree import RStarTree

__all__ = ["BucketIndex"]

#: Grid cells are abandoned for the R*-tree once the average bucket
#: overlaps more than this many cells: past that point the per-cell
#: lists replicate the bucket set instead of partitioning it.
MAX_AVG_CELLS_PER_BUCKET = 32.0


class BucketIndex:
    """Names the buckets a query might touch (a superset, exactly).

    Parameters
    ----------
    buckets:
        The histogram's buckets, in estimator order — returned
        candidate ids are positions into this sequence.
    grid_size:
        Cells per axis of the uniform grid.  Default: chosen from the
        bucket count so the grid has roughly ``4 × n`` cells.
    epoch:
        The source summary's epoch at build time.  The index itself
        never consults it — it tells an owner watching a live summary
        which version of the buckets this index describes.
    """

    def __init__(
        self,
        buckets: Sequence[Bucket],
        *,
        grid_size: "int | None" = None,
        epoch: int = 0,
    ) -> None:
        n = len(buckets)
        if n == 0:
            raise ValueError("cannot index an empty bucket list")
        self.n = n
        self.epoch = epoch
        # Inflated boxes: the formula's query extension folded onto the
        # bucket side, so probing uses the *raw* query.  Degenerate
        # boxes (the kernel's raw-touch branch) are not inflated.
        bx1 = np.array([b.bbox.x1 for b in buckets], dtype=np.float64)
        by1 = np.array([b.bbox.y1 for b in buckets], dtype=np.float64)
        bx2 = np.array([b.bbox.x2 for b in buckets], dtype=np.float64)
        by2 = np.array([b.bbox.y2 for b in buckets], dtype=np.float64)
        half_w = np.array(
            [b.avg_width / 2.0 for b in buckets], dtype=np.float64
        )
        half_h = np.array(
            [b.avg_height / 2.0 for b in buckets], dtype=np.float64
        )
        degenerate = (bx2 - bx1) * (by2 - by1) <= 0.0
        inflate_w = np.where(degenerate, 0.0, half_w)
        inflate_h = np.where(degenerate, 0.0, half_h)
        self._ix1 = bx1 - inflate_w
        self._iy1 = by1 - inflate_h
        self._ix2 = bx2 + inflate_w
        self._iy2 = by2 + inflate_h

        self._minx = float(self._ix1.min())
        self._miny = float(self._iy1.min())
        maxx = float(self._ix2.max())
        maxy = float(self._iy2.max())
        if grid_size is None:
            grid_size = int(np.ceil(np.sqrt(4.0 * n)))
        self._gx = max(1, min(grid_size, 256))
        self._gy = self._gx
        width = maxx - self._minx
        height = maxy - self._miny
        self._cell_w = width / self._gx if width > 0.0 else 1.0
        self._cell_h = height / self._gy if height > 0.0 else 1.0

        spans = self._cell_span(
            self._ix1, self._iy1, self._ix2, self._iy2
        )
        cx0, cy0, cx1, cy1 = spans
        avg_cells = float(
            ((cx1 - cx0 + 1) * (cy1 - cy0 + 1)).mean()
        )
        self._tree: "RStarTree | None" = None
        self._cells: List[List[int]] = []
        if avg_cells > MAX_AVG_CELLS_PER_BUCKET:
            self.mode = "rtree"
            tree = RStarTree(max_entries=8)
            for i in range(n):
                tree.insert(
                    Rect(
                        float(self._ix1[i]), float(self._iy1[i]),
                        float(self._ix2[i]), float(self._iy2[i]),
                    ),
                    record_id=i,
                )
            self._tree = tree
        else:
            self.mode = "grid"
            self._cells = [
                [] for _ in range(self._gx * self._gy)
            ]
            for i in range(n):
                for cx in range(int(cx0[i]), int(cx1[i]) + 1):
                    row = cx * self._gy
                    for cy in range(int(cy0[i]), int(cy1[i]) + 1):
                        self._cells[row + cy].append(i)

    # ------------------------------------------------------------------
    def _cell_span(
        self,
        x1: "npt.NDArray[np.float64] | float",
        y1: "npt.NDArray[np.float64] | float",
        x2: "npt.NDArray[np.float64] | float",
        y2: "npt.NDArray[np.float64] | float",
    ) -> Tuple[
        "npt.NDArray[np.int64]", "npt.NDArray[np.int64]",
        "npt.NDArray[np.int64]", "npt.NDArray[np.int64]",
    ]:
        """Inclusive grid-cell ranges covered by boxes (clipped)."""
        cx0 = np.clip(
            np.floor((np.asarray(x1) - self._minx) / self._cell_w),
            0, self._gx - 1,
        ).astype(np.int64)
        cy0 = np.clip(
            np.floor((np.asarray(y1) - self._miny) / self._cell_h),
            0, self._gy - 1,
        ).astype(np.int64)
        cx1 = np.clip(
            np.floor((np.asarray(x2) - self._minx) / self._cell_w),
            0, self._gx - 1,
        ).astype(np.int64)
        cy1 = np.clip(
            np.floor((np.asarray(y2) - self._miny) / self._cell_h),
            0, self._gy - 1,
        ).astype(np.int64)
        return cx0, cy0, cx1, cy1

    # ------------------------------------------------------------------
    def candidates(self, query: Rect) -> "npt.NDArray[np.int64]":
        """Ascending positions of every possibly-contributing bucket.

        Exactly the buckets whose inflated box intersects ``query``
        (closed-rectangle test), independent of the probe structure.
        """
        if self._tree is not None:
            rough = np.asarray(
                sorted(self._tree.search(query)), dtype=np.int64
            )
        else:
            cx0, cy0, cx1, cy1 = self._cell_span(
                query.x1, query.y1, query.x2, query.y2
            )
            mask = np.zeros(self.n, dtype=np.bool_)
            for cx in range(int(cx0), int(cx1) + 1):
                row = cx * self._gy
                for cy in range(int(cy0), int(cy1) + 1):
                    ids = self._cells[row + cy]
                    if ids:
                        mask[ids] = True
            rough = np.flatnonzero(mask).astype(np.int64)
        if rough.size == 0:
            return rough
        keep = (
            (self._ix1[rough] <= query.x2)
            & (self._ix2[rough] >= query.x1)
            & (self._iy1[rough] <= query.y2)
            & (self._iy2[rough] >= query.y1)
        )
        return rough[keep]

    def __repr__(self) -> str:
        return (
            f"BucketIndex(n={self.n}, mode={self.mode!r}, "
            f"grid={self._gx}x{self._gy})"
        )
