"""Property tests for :class:`repro.serving.index.BucketIndex`.

No estimator probes the index any more; it is kept, and tested here,
only while the repository benchmark's tracer still imports it.  The
index contract: ``candidates(query)`` is *exactly* the set of buckets
whose inflated box intersects the query, which makes it

* a superset of the buckets whose raw box intersects the query, and
* a superset of the buckets contributing a non-zero term to the
  Section 3.1 estimate (the inflation folds the formula's query
  extension onto the bucket side).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bucket import Bucket
from repro.eval import build_estimator
from repro.geometry import Rect, RectSet
from repro.serving.index import BucketIndex


def random_dataset(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(10, 300))
    cx = gen.uniform(0, 1_000, n)
    cy = gen.uniform(0, 1_000, n)
    w = gen.uniform(0, 60, n)
    h = gen.uniform(0, 60, n)
    if gen.integers(0, 2):
        w[: n // 3] = 0.0
        h[: n // 3] = 0.0  # mix in point rectangles
    return RectSet.from_centers(cx, cy, w, h)


def random_query(seed, bounds):
    gen = np.random.default_rng(seed)
    x = np.sort(gen.uniform(bounds.x1 - 50, bounds.x2 + 50, 2))
    y = np.sort(gen.uniform(bounds.y1 - 50, bounds.y2 + 50, 2))
    return Rect(x[0], y[0], x[1], y[1])


class TestCandidateSuperset:
    @given(
        seed=st.integers(0, 10_000),
        technique=st.sampled_from(("Min-Skew", "Grid", "Equi-Area")),
        qseed=st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_candidates_cover_intersecting_and_contributing(
        self, seed, technique, qseed
    ):
        data = random_dataset(seed)
        est = build_estimator(technique, data, 12, n_regions=144)
        index = BucketIndex(est.buckets)
        query = random_query(seed * 7 + qseed, data.mbr())
        candidates = set(index.candidates(query).tolist())
        for i, bucket in enumerate(est.buckets):
            if bucket.bbox.intersects(query):
                assert i in candidates, (
                    f"bucket {i} intersects the query but was pruned"
                )
            if bucket.estimate(query) > 0.0:
                assert i in candidates, (
                    f"bucket {i} contributes but was pruned"
                )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_candidates_sorted_unique(self, seed):
        data = random_dataset(seed)
        est = build_estimator("Min-Skew", data, 10, n_regions=100)
        index = BucketIndex(est.buckets)
        cand = index.candidates(random_query(seed, data.mbr()))
        assert cand.dtype == np.int64
        assert (np.diff(cand) > 0).all()  # strictly ascending
        assert cand.size == 0 or (
            cand.min() >= 0 and cand.max() < len(est.buckets)
        )


class TestProbeStructures:
    def test_empty_bucket_list_rejected(self):
        with pytest.raises(ValueError):
            BucketIndex([])

    def test_rtree_fallback_for_fat_buckets(self):
        # buckets covering most of the space blow the per-bucket cell
        # budget of a fine grid -> R*-tree probe, same answers
        gen = np.random.default_rng(9)
        buckets = []
        for _ in range(12):
            x1, y1 = gen.uniform(0, 20, 2)
            buckets.append(
                Bucket(Rect(x1, y1, x1 + 70.0, y1 + 70.0),
                       int(gen.integers(1, 50)),
                       avg_width=2.0, avg_height=2.0)
            )
        fine = BucketIndex(buckets, grid_size=256)
        coarse = BucketIndex(buckets, grid_size=2)
        assert fine.mode == "rtree"
        assert coarse.mode == "grid"
        for qseed in range(25):
            q = random_query(qseed, Rect(0.0, 0.0, 100.0, 100.0))
            np.testing.assert_array_equal(
                fine.candidates(q), coarse.candidates(q)
            )

    def test_degenerate_space_single_cell(self):
        # co-located point buckets: zero-extent space must not divide
        # by a zero cell size
        buckets = [Bucket(Rect(5.0, 5.0, 5.0, 5.0), 3)
                   for _ in range(4)]
        index = BucketIndex(buckets)
        assert index.candidates(
            Rect(0.0, 0.0, 10.0, 10.0)
        ).tolist() == [0, 1, 2, 3]
        assert index.candidates(
            Rect(6.0, 6.0, 7.0, 7.0)
        ).size == 0
