"""Sharding a live histogram with Min-Skew shard boundaries.

The scatter-gather tier splits the data space into ``K`` disjoint shard
boxes and hosts one live summary — a
:class:`~repro.core.maintenance.MaintainedHistogram` and the
:class:`~repro.estimators.MaintainedEstimator` kernel snapshot over it
— per shard, each with an independent epoch.  A mutation routes to the
*owning* shard only, so an insert re-snapshots one shard's kernel
instead of the whole tier's.  The router reads those snapshots
through :meth:`HistogramShard.kernel`.  Served inline, it evaluates
the whole tier's buckets in one pass; pooled, it ships a shard's
snapshot, keyed by :attr:`HistogramShard.epoch`, to the worker the
shard is pinned to, which answers the shard's sub-batches from it.
Every shard lives only in the parent process.

**Min-Skew is the shard-boundary algorithm.**  :class:`ShardPlan` runs
the paper's own partitioner with a bucket quota of ``K``: the top-level
greedy cuts minimise spatial skew, which is exactly the load-balance
property a scale-out partitioning wants (Aji et al., PAPERS.md).  The
resulting blocks tile the data MBR, and ownership is resolved on the
construction grid itself (cell-label lookup), so shard assignment uses
the identical center rule Min-Skew uses to assign rectangles to
buckets.

**Exactness.**  The sharded tier is differentially gated against
:class:`ShardUnionEstimator` — the single-engine reference that runs
every shard's kernel over the *full* batch and accumulates the partial
sums in shard order.  The inline router computes exactly that: one
pass over the concatenated shard snapshots, then each shard's
column-range row sums added in shard order (every entry of a term
block is evaluated independently, so a column range equals the
shard's own block).  Where the pooled router dispatches per shard
instead, equality is still bit-for-bit, not approximate, because of
three properties it relies on:

* per-shard partials are evaluated over the same bucket list in the
  same order whether the batch was clipped or not;
* clipping a query to a shard's *routing box* (the MBR of the shard's
  inflated bucket boxes, see :func:`_inflated_mbr`) never changes any
  clamp in the Section 3.1 formula, because every inflated bucket box
  is contained in the routing box;
* a query that misses the routing box contributes exactly ``+0.0`` for
  every bucket of that shard, so skipping the shard is the identity on
  a non-negative accumulator.

The plan box of a shard is *not* a valid routing box: member rectangles
are assigned by center, so bucket boxes (and their inflation) can stick
out of the plan box.  Routing boxes are therefore derived from the
current buckets and recomputed whenever the shard's epoch moves.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from ..core.bucket import Bucket, BucketArrays, estimate_many_arrays
from ..core.maintenance import MaintainedHistogram
from ..core.minskew import MinSkewPartitioner
from ..estimators import (
    MaintainedEstimator,
    SelectivityEstimator,
    UniformEstimator,
    WORDS_PER_BUCKET,
)
from ..geometry import Rect, RectSet, validate_extent
from ..partitioners.base import Partitioner
from ..tuning import FeedbackTuner, TuningReport

__all__ = [
    "ShardPlan",
    "HistogramShard",
    "ShardedHistogram",
    "ShardUnionEstimator",
    "shard_quotas",
]

#: Density-grid resolution for the shard-boundary Min-Skew run.  Shard
#: boundaries are coarse structures (K is small), so the plan grid can
#: be far coarser than a histogram-quality grid.
DEFAULT_PLAN_REGIONS = 256


def shard_quotas(
    n_buckets: int, counts: Sequence[int]
) -> List[int]:
    """Split a bucket budget across shards, proportional to load.

    Largest-remainder apportionment of ``n_buckets`` over the per-shard
    rectangle ``counts``; every non-empty shard receives at least one
    bucket (even when that overshoots a very small budget), empty
    shards receive zero.  Deterministic: remainder ties break on the
    lower shard id.
    """
    if n_buckets < 1:
        raise ValueError("n_buckets must be at least 1")
    total = sum(counts)
    quotas = [0] * len(counts)
    if total == 0:
        return quotas
    floors: List[int] = []
    remainders: List[Tuple[float, int]] = []
    for sid, count in enumerate(counts):
        share = n_buckets * (count / total)
        floors.append(int(math.floor(share)))
        remainders.append((-(share - math.floor(share)), sid))
    left = n_buckets - sum(floors)
    remainders.sort()
    bonus = {sid for _, sid in remainders[:max(0, left)]}
    for sid, count in enumerate(counts):
        if count == 0:
            continue
        quotas[sid] = max(1, floors[sid] + (1 if sid in bonus else 0))
    return quotas


class ShardPlan:
    """K disjoint shard boxes tiling the data MBR, from Min-Skew.

    Ownership is resolved on the plan's density grid: a point is
    clamped into the grid and mapped through the cell→shard label
    array, exactly how Min-Skew assigns rectangles to buckets — total,
    deterministic, and immune to floating-point edge effects between
    adjacent shard boxes.
    """

    def __init__(
        self,
        boxes: Sequence[Rect],
        bounds: Rect,
        label: "npt.NDArray[np.int64]",
        cell_width: float,
        cell_height: float,
    ) -> None:
        if not boxes:
            raise ValueError("a shard plan needs at least one box")
        self.boxes: List[Rect] = list(boxes)
        self.bounds = bounds
        self._label = np.asarray(label, dtype=np.int64)
        self._nx, self._ny = self._label.shape
        self._cell_w = cell_width
        self._cell_h = cell_height

    @property
    def n_shards(self) -> int:
        return len(self.boxes)

    @classmethod
    def build(
        cls,
        data: RectSet,
        n_shards: int,
        *,
        n_regions: int = DEFAULT_PLAN_REGIONS,
    ) -> "ShardPlan":
        """Run Min-Skew with a bucket quota of ``n_shards``.

        The returned plan may hold fewer boxes than requested when the
        input cannot be cut further (degenerate bounds, tiny grids).
        """
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        partitioner = MinSkewPartitioner(
            n_shards, n_regions=n_regions
        )
        result = partitioner.partition_full(data)
        grid = result.grid
        label = np.full((grid.nx, grid.ny), -1, dtype=np.int64)
        boxes: List[Rect] = []
        for sid, (ix0, ix1, iy0, iy1) in enumerate(result.blocks):
            label[ix0:ix1 + 1, iy0:iy1 + 1] = sid
            boxes.append(grid.block_rect(ix0, ix1, iy0, iy1))
        return cls(
            boxes, grid.bounds, label,
            grid.cell_width, grid.cell_height,
        )

    # ------------------------------------------------------------------
    def owners(
        self, centers: "npt.NDArray[np.float64]"
    ) -> "npt.NDArray[np.int64]":
        """Owning shard id for each ``(x, y)`` center row."""
        cx = np.asarray(centers[:, 0], dtype=np.float64)
        cy = np.asarray(centers[:, 1], dtype=np.float64)
        ix = np.floor(
            (cx - self.bounds.x1) / self._cell_w
        ).astype(np.int64)
        iy = np.floor(
            (cy - self.bounds.y1) / self._cell_h
        ).astype(np.int64)
        np.clip(ix, 0, self._nx - 1, out=ix)
        np.clip(iy, 0, self._ny - 1, out=iy)
        return self._label[ix, iy]

    def owner(self, cx: float, cy: float) -> int:
        """Owning shard id of a single point."""
        centers = np.array([[cx, cy]], dtype=np.float64)
        return int(self.owners(centers)[0])

    def __repr__(self) -> str:
        return (
            f"ShardPlan(n_shards={self.n_shards}, "
            f"grid={self._nx}x{self._ny})"
        )


def _inflated_mbr(buckets: Sequence[Bucket]) -> Optional[Rect]:
    """MBR of the buckets' inflated boxes (None for no buckets).

    A bucket box is inflated by half its average member extents per
    side — the Section 3.1 formula's query extension folded onto the
    bucket — except degenerate (zero-area) boxes, which the kernel
    answers with a raw touch test and are left uninflated.
    """
    if not buckets:
        return None
    x1 = y1 = math.inf
    x2 = y2 = -math.inf
    for b in buckets:
        box = b.bbox
        if box.area > 0.0:
            hw = b.avg_width / 2.0
            hh = b.avg_height / 2.0
        else:
            hw = hh = 0.0
        x1 = min(x1, box.x1 - hw)
        y1 = min(y1, box.y1 - hh)
        x2 = max(x2, box.x2 + hw)
        y2 = max(y2, box.y2 + hh)
    return Rect(x1, y1, x2, y2)


class HistogramShard:
    """One shard: plan box, live histogram, kernel snapshot, epoch.

    The histogram is created lazily — a shard that received no
    rectangles at build time materialises its stack on the first
    insert.  ``epoch`` folds that creation in (it bumps alongside every
    histogram epoch move), so consumers watching the shard see lazy
    creation as a mutation like any other.
    """

    def __init__(
        self,
        shard_id: int,
        box: Rect,
        partitioner: Partitioner,
        data: RectSet,
        *,
        drift_threshold: float = 0.2,
    ) -> None:
        self.shard_id = shard_id
        self.box = box
        self._partitioner = partitioner
        self._drift_threshold = drift_threshold
        self._epoch_base = 0
        self.hist: Optional[MaintainedHistogram] = None
        self.estimator: Optional[MaintainedEstimator] = None
        self._routing_epoch = -1
        self._routing_box: Optional[Rect] = None
        self._degraded_est: Optional[UniformEstimator] = None
        self._degraded_epoch = -1
        if len(data) > 0:
            self._create(data)

    def _create(self, data: RectSet) -> None:
        self.hist = MaintainedHistogram(
            self._partitioner, data,
            drift_threshold=self._drift_threshold,
        )
        self.estimator = MaintainedEstimator(
            self.hist, name=self._partitioner.name
        )

    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Monotonic shard version (histogram epoch + lazy creation)."""
        hist_epoch = self.hist.epoch if self.hist is not None else 0
        return self._epoch_base + hist_epoch

    @property
    def buckets(self) -> List[Bucket]:
        if self.hist is None:
            return []
        return list(self.hist.buckets)

    def __len__(self) -> int:
        return len(self.hist) if self.hist is not None else 0

    def routing_box(self) -> Optional[Rect]:
        """Current inflated-bucket MBR (None → nothing can match).

        Cached per epoch; any mutation (or lazy creation) invalidates
        the cached box on the next call.
        """
        if self.epoch != self._routing_epoch:
            self._routing_box = _inflated_mbr(self.buckets)
            self._routing_epoch = self.epoch
        return self._routing_box

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def kernel(self) -> BucketArrays:
        """The kernel snapshot at :attr:`epoch` (empty before the
        histogram exists)."""
        if self.estimator is None:
            return BucketArrays(())
        return self.estimator.kernel()

    # perfbench's tracer wraps this method; no served path calls it
    def estimate_batch_coords(
        self, coords: "npt.NDArray[np.float64]"
    ) -> "npt.NDArray[np.float64]":
        """Serve an ``(M, 4)`` coordinate block in one kernel pass."""
        if self.estimator is None:
            return np.zeros(coords.shape[0], dtype=np.float64)
        queries = RectSet(coords, copy=False, validate=False)
        return self.estimator.estimate_batch(queries)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def insert(self, rect: Rect) -> None:
        if self.hist is None:
            coords = np.asarray(
                [rect.as_tuple()], dtype=np.float64
            )
            self._create(
                RectSet(coords, copy=False, validate=False)
            )
            self._epoch_base += 1
        else:
            self.hist.insert(rect)
            self._maybe_refresh()

    def delete(self, rect: Rect) -> bool:
        if self.hist is None:
            return False
        accepted = self.hist.delete(rect)
        if accepted:
            self._maybe_refresh()
        return accepted

    def _maybe_refresh(self) -> None:
        if self.hist is not None and self.hist.needs_refresh:
            self.hist.refresh()

    def tune(
        self,
        queries: RectSet,
        *,
        max_ops: int = 2,
        grid_nx: int = 8,
        grid_ny: int = 8,
    ) -> Optional[TuningReport]:
        """One feedback pass over this shard's own rows.

        Each shard scores the sampled queries against *its* exact
        oracle — shard answers are additive, so per-shard truth is
        the shard's contribution to the union answer.  The tuner
        publishes through the histogram's ``replace_buckets`` (one
        epoch bump), which the shard :attr:`epoch`, the
        :meth:`routing_box` cache, the estimator's ``sync()``, and any
        union reference all pick up through the normal staleness
        machinery.  Returns ``None`` for a shard that has no histogram
        yet.
        """
        if self.hist is None:
            return None
        tuner = FeedbackTuner(
            self.hist, max_ops=max_ops,
            grid_nx=grid_nx, grid_ny=grid_ny,
        )
        return tuner.tune(queries)

    # ------------------------------------------------------------------
    # degraded serving (the quarantine partial)
    # ------------------------------------------------------------------
    def degraded_estimator(self) -> Optional[UniformEstimator]:
        """The shard's ``Uniform@s<id>`` last resort, parent-side.

        Built over the live data and kept per epoch.  The router
        serves a quarantined or repeatedly failing shard's partial
        through this estimator directly, without dispatching to the
        shard.  ``None`` means the shard holds no data and its partial
        is exactly zero.
        """
        if self.hist is None or len(self.hist) == 0:
            return None
        if self._degraded_epoch != self.epoch \
                or self._degraded_est is None:
            est = UniformEstimator(self.hist.current_data())
            est.name = f"Uniform@s{self.shard_id}"
            self._degraded_est = est
            self._degraded_epoch = self.epoch
        return self._degraded_est

    def __repr__(self) -> str:
        return (
            f"HistogramShard(id={self.shard_id}, n={len(self)}, "
            f"buckets={len(self.buckets)}, epoch={self.epoch})"
        )


class ShardedHistogram:
    """A Min-Skew-sharded live histogram: plan + one summary per shard."""

    def __init__(
        self,
        plan: ShardPlan,
        shards: Sequence[HistogramShard],
        *,
        name: str = "Sharded",
    ) -> None:
        if len(shards) != plan.n_shards:
            raise ValueError(
                "shard list does not match the plan "
                f"({len(shards)} shards, plan has {plan.n_shards})"
            )
        self.plan = plan
        self.shards: List[HistogramShard] = list(shards)
        self.name = name

    @classmethod
    def build(
        cls,
        data: RectSet,
        *,
        n_shards: int = 4,
        n_buckets: int = 40,
        partitioner_factory:
            "Callable[[int], Partitioner] | None" = None,
        plan: Optional[ShardPlan] = None,
        plan_regions: int = DEFAULT_PLAN_REGIONS,
        n_regions: int = 2_500,
        drift_threshold: float = 0.2,
    ) -> "ShardedHistogram":
        """Plan the shard boxes and build one live summary each.

        ``partitioner_factory`` maps a per-shard bucket quota to a
        fresh partitioner (default: Min-Skew over ``n_regions``
        regions); the total ``n_buckets`` budget is apportioned across
        shards proportionally to their rectangle counts
        (:func:`shard_quotas`).
        """
        if len(data) == 0:
            raise ValueError("cannot shard an empty distribution")
        if plan is None:
            plan = ShardPlan.build(
                data, n_shards, n_regions=plan_regions
            )
        factory: Callable[[int], Partitioner]
        if partitioner_factory is None:
            def _default_factory(quota: int) -> Partitioner:
                return MinSkewPartitioner(
                    quota, n_regions=n_regions
                )
            factory = _default_factory
        else:
            factory = partitioner_factory
        owners = plan.owners(data.centers())
        counts = np.bincount(owners, minlength=plan.n_shards)
        quotas = shard_quotas(
            n_buckets, [int(c) for c in counts]
        )
        shards: List[HistogramShard] = []
        for sid in range(plan.n_shards):
            sub = data.select(owners == sid)
            quota = quotas[sid] if quotas[sid] > 0 else 1
            shards.append(
                HistogramShard(
                    sid,
                    plan.boxes[sid],
                    factory(quota),
                    sub,
                    drift_threshold=drift_threshold,
                )
            )
        name = shards[0]._partitioner.name if shards else "Sharded"
        return cls(plan, shards, name=name)

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def __len__(self) -> int:
        return sum(len(s) for s in self.shards)

    @property
    def buckets(self) -> List[Bucket]:
        """Union bucket list, in shard order (the reference order)."""
        out: List[Bucket] = []
        for shard in self.shards:
            out.extend(shard.buckets)
        return out

    def epochs(self) -> List[int]:
        return [s.epoch for s in self.shards]

    def owner_of(self, rect: Rect) -> int:
        """The shard owning ``rect`` (by center, the Min-Skew rule)."""
        cx, cy = rect.center
        return self.plan.owner(cx, cy)

    # ------------------------------------------------------------------
    # mutations: routed to the owning shard only
    # ------------------------------------------------------------------
    def insert(self, rect: Rect) -> int:
        """Insert; returns the (only) shard id whose epoch moved."""
        sid = self.owner_of(rect)
        self.shards[sid].insert(rect)
        return sid

    def delete(self, rect: Rect) -> Tuple[int, bool]:
        """Delete; returns ``(owning shard id, accepted)``."""
        sid = self.owner_of(rect)
        return sid, self.shards[sid].delete(rect)

    def tune(
        self,
        queries: RectSet,
        *,
        max_ops: int = 2,
        grid_nx: int = 8,
        grid_ny: int = 8,
    ) -> List[Optional[TuningReport]]:
        """Run one feedback pass on every built shard.

        Every shard receives the full query sample and scores it
        against its own rows (see :meth:`HistogramShard.tune`); each
        tuned shard moves only its own epoch, preserving the tier's
        owner-only invalidation property.
        """
        return [
            shard.tune(
                queries, max_ops=max_ops,
                grid_nx=grid_nx, grid_ny=grid_ny,
            )
            for shard in self.shards
        ]

    # ------------------------------------------------------------------
    def union_estimator(self) -> "ShardUnionEstimator":
        """The single-engine differential reference over this tier."""
        return ShardUnionEstimator(self)

    def current_data(self) -> RectSet:
        """The live distribution across every shard (shard order)."""
        parts = [
            s.hist.current_data()
            for s in self.shards
            if s.hist is not None and len(s.hist) > 0
        ]
        if not parts:
            return RectSet.empty()
        coords = np.vstack([p.coords for p in parts])
        return RectSet(coords, copy=False, validate=False)

    def size_words(self) -> int:
        """Summary footprint: buckets plus the plan's shard boxes."""
        buckets = sum(len(s.buckets) for s in self.shards)
        return WORDS_PER_BUCKET * buckets + 4 * self.n_shards

    def __repr__(self) -> str:
        return (
            f"ShardedHistogram({self.name!r}, "
            f"n_shards={self.n_shards}, n={len(self)})"
        )


class ShardUnionEstimator(SelectivityEstimator):
    """Single-engine reference: shard kernels over the *full* batch.

    Evaluates each shard's bucket kernel on every (unclipped) query and
    accumulates the per-shard partial sums left-to-right in shard-id
    order.  The router reproduces exactly this computation — clipping
    and skipping are bit-exact identities (module docstring) — so
    ``router.estimate_batch(q) == union.estimate_batch(q)`` bit-for-bit
    is the differential gate of the sharded tier.

    A flat estimator over the concatenated bucket list is *not* an
    equivalent reference: numpy's pairwise summation over the union
    bucket axis associates differently than per-shard partial sums.
    """

    def __init__(self, sharded: ShardedHistogram) -> None:
        self._sharded = sharded
        self.name = sharded.name
        self._kernel_key: Optional[Tuple[int, ...]] = None
        self._kernels: List[Optional[BucketArrays]] = []

    def _sync_kernels(self) -> List[Optional[BucketArrays]]:
        """Per-shard kernel snapshots, rebuilt when any epoch moves."""
        key = tuple(s.epoch for s in self._sharded.shards)
        if key != self._kernel_key:
            self._kernels = [
                BucketArrays(s.buckets) if s.buckets else None
                for s in self._sharded.shards
            ]
            self._kernel_key = key
        return self._kernels

    def estimate(self, query: Rect) -> float:
        validate_extent(
            query.x1, query.y1, query.x2, query.y2, what="query"
        )
        qrow = np.array(
            [[query.x1, query.y1, query.x2, query.y2]],
            dtype=np.float64,
        )
        total = 0.0
        for arrays in self._sync_kernels():
            if arrays is not None:
                total += float(arrays.estimate_block(qrow)[0])
        return total

    def _estimate_batch(
        self, queries: RectSet
    ) -> "npt.NDArray[np.float64]":
        result = np.zeros(len(queries), dtype=np.float64)
        for arrays in self._sync_kernels():
            if arrays is not None:
                result += estimate_many_arrays(arrays, queries)
        return result

    def size_words(self) -> int:
        return self._sharded.size_words()
