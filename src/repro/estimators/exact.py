"""Exact "estimator": the ground truth behind the estimator interface.

Not a technique from the paper — an oracle wrapper so examples and tests
can treat the true result sizes as just another estimator (e.g. the query
optimizer example compares plans under estimated vs. true selectivities).
Its ``size_words`` is the full data footprint, which is exactly why real
systems cannot use it (Section 2: scanning or indexing per optimisation
call is "too expensive to be useful").
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from ..counting import ExactCountOracle
from ..geometry import Rect, RectSet, validate_extent
from .base import SelectivityEstimator
from .sampling import WORDS_PER_SAMPLE


class ExactEstimator(SelectivityEstimator):
    """Answers every query exactly via the counting oracle."""

    name = "Exact"

    def __init__(self, rects: RectSet) -> None:
        self._rects = rects
        self._oracle = ExactCountOracle(rects)

    def estimate(self, query: Rect) -> float:
        validate_extent(
            query.x1, query.y1, query.x2, query.y2, what="query"
        )
        return float(self._rects.count_intersecting(query))

    def _estimate_batch(
        self, queries: RectSet
    ) -> npt.NDArray[np.float64]:
        return self._oracle.counts(queries).astype(np.float64)

    def size_words(self) -> int:
        return WORDS_PER_SAMPLE * len(self._rects)
