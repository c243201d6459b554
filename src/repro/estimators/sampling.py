"""The Sample technique (paper Section 5.3).

"We collect a sample of the input rectangles.  Given a query, we compute
the selectivity of the query on the sample.  We then scale the result
appropriately ...: if the size of the sample is n, the input size is N,
and the number of sample rectangles that satisfy the given predicate is
m, then the estimated result size is m × N / n."

Space accounting (Section 5.4): a sample rectangle costs four words (its
bounding box), i.e. half a bucket; the paper deliberately grants Sample
*twice* its fair space, which :mod:`repro.eval.space` reproduces.

The sample is drawn by reservoir sampling so the constructor works for
streams as well; for in-memory :class:`RectSet` inputs a vectorised
without-replacement draw gives the identical distribution and is used
directly.
"""

from __future__ import annotations

from typing import Iterable, List, Union

import numpy as np
import numpy.typing as npt

from ..counting import brute_force_counts
from ..geometry import Rect, RectSet, require_nonempty, \
    validate_extent
from ..obs import OBS
from .base import SelectivityEstimator

#: Accepted randomness sources: an explicit seed or a threaded
#: Generator.  ``None`` is deliberately not accepted — an unseeded draw
#: would make the estimator non-reproducible run to run.
SeedLike = Union[int, np.random.Generator]

#: Words of summary state per sampled rectangle (its bounding box).
WORDS_PER_SAMPLE = 4


def reservoir_sample(
    stream: Iterable[Rect], k: int, rng: np.random.Generator
) -> List[Rect]:
    """Classic reservoir sampling: a uniform k-subset of a stream.

    Provided for completeness (one-pass construction over data that does
    not fit in memory, matching how a real system would sample).
    """
    if k < 0:
        raise ValueError("sample size must be non-negative")
    reservoir: List[Rect] = []
    for i, rect in enumerate(stream):
        if i < k:
            reservoir.append(rect)
        else:
            j = int(rng.integers(0, i + 1))
            if j < k:
                reservoir[j] = rect
    return reservoir


class SampleEstimator(SelectivityEstimator):
    """Scaled count over a uniform random sample.

    Parameters
    ----------
    rects:
        The input distribution T.
    sample_size:
        Number of rectangles to keep.
    seed:
        RNG seed or threaded ``numpy.random.Generator`` for the draw.
        Defaults to a fixed seed so two runs build the same sample;
        pass a Generator to share a stream across components.
    """

    name = "Sample"

    def __init__(
        self,
        rects: RectSet,
        sample_size: int,
        *,
        seed: SeedLike = 0,
    ) -> None:
        require_nonempty(len(rects))
        if sample_size < 1:
            raise ValueError("sample_size must be at least 1")
        rng = seed if isinstance(seed, np.random.Generator) \
            else np.random.default_rng(seed)
        self.n_input = len(rects)
        self.sample = rects.sample(sample_size, rng)
        self._scale = self.n_input / len(self.sample)

    def estimate(self, query: Rect) -> float:
        validate_extent(
            query.x1, query.y1, query.x2, query.y2, what="query"
        )
        return self.sample.count_intersecting(query) * self._scale

    def _estimate_batch(
        self, queries: RectSet
    ) -> npt.NDArray[np.float64]:
        if OBS.enabled:
            OBS.add("estimator.sample_comparisons",
                    len(self.sample) * len(queries))
        return brute_force_counts(self.sample, queries) * self._scale

    def size_words(self) -> int:
        return WORDS_PER_SAMPLE * len(self.sample)
