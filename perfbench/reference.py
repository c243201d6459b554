"""In-process references for the benchmark's correctness gates.

The reference is built with the same public calls ``repro serve
--shards 4`` makes — :meth:`ShardedHistogram.build` with the Min-Skew
partitioner factory — and answers through
:meth:`ShardedHistogram.union_estimator`, the single-engine reference
the sharded tier is bit-for-bit equal to.  Mutations are replayed
through :meth:`ShardedHistogram.insert` / ``delete``, in the order the
server acknowledged them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.counting import ExactCountOracle
from repro.data import make_dataset
from repro.eval import build_partitioner
from repro.eval.metrics import average_relative_error
from repro.geometry import Rect, RectSet
from repro.serving import ShardedHistogram

#: ``repro serve`` defaults the benchmark relies on.
TECHNIQUE = "Min-Skew"
BUCKETS = 50
REGIONS = 10_000
SHARDS = 4


def dataset(n: Optional[int]) -> RectSet:
    """Charminar as ``repro serve --dataset charminar [--n N]`` builds it."""
    return make_dataset("charminar", n, None)


def build(data: RectSet) -> ShardedHistogram:
    return ShardedHistogram.build(
        data,
        n_shards=SHARDS,
        n_buckets=BUCKETS,
        partitioner_factory=lambda quota: build_partitioner(
            TECHNIQUE, quota, n_regions=REGIONS
        ),
        n_regions=REGIONS,
    )


def answers(sharded: ShardedHistogram, coords: np.ndarray) -> np.ndarray:
    rects = RectSet(np.asarray(coords, dtype=np.float64), copy=False)
    return np.asarray(
        sharded.union_estimator().estimate_batch(rects), dtype=np.float64
    )


def are(data: RectSet, coords: np.ndarray, estimates: np.ndarray) -> float:
    """The paper's average relative error against exact counts."""
    rects = RectSet(np.asarray(coords, dtype=np.float64), copy=False)
    return average_relative_error(
        ExactCountOracle(data).counts(rects), estimates
    )


def bit_equal(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Per-row bit-for-bit equality of two float64 arrays."""
    got = np.ascontiguousarray(got, dtype=np.float64)
    want = np.ascontiguousarray(want, dtype=np.float64)
    return got.view(np.int64) == want.view(np.int64)


def replay(
    sharded: ShardedHistogram,
    ops: Sequence[Tuple[str, Sequence[float]]],
) -> List[object]:
    """Apply acknowledged mutations in order; the wire-shaped results
    (an insert's shard id, a delete's ``[shard id, accepted]``)."""
    results: List[object] = []
    for kind, row in ops:
        rect = Rect(*(float(v) for v in row))
        if kind == "insert":
            results.append(int(sharded.insert(rect)))
        else:
            sid, accepted = sharded.delete(rect)
            results.append([int(sid), bool(accepted)])
    return results
