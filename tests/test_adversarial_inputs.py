"""Adversarial-input properties: every estimator either raises a typed
:mod:`repro.errors` error or returns a finite, non-negative estimate —
no NaN propagation, no crashes, no unhandled exceptions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import uniform_rects
from repro.errors import EmptyInputError, GeometryError, ValidationError
from repro.estimators import (
    BucketEstimator,
    FractalEstimator,
    SampleEstimator,
    UniformEstimator,
)
from repro.eval import ALL_TECHNIQUES, build_estimator
from repro.geometry import Rect, RectSet

#: Shared input distribution for estimator construction.
DATA = uniform_rects(400, seed=17)

#: One prebuilt estimator per technique (construction is the slow part).
ESTIMATORS = [
    build_estimator(t, DATA, 8, n_regions=256, rtree_method="str")
    for t in ALL_TECHNIQUES
]

finite_coord = st.floats(
    min_value=-1e9, max_value=1e9,
    allow_nan=False, allow_infinity=False,
)
bad_coord = st.sampled_from([
    float("nan"), float("inf"), float("-inf"),
])
any_coord = finite_coord | bad_coord


def make_valid_rect(x1, y1, x2, y2):
    """Order the corners so the rectangle is valid (maybe zero-area)."""
    return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


class TestDegenerateRectangles:
    @given(any_coord, any_coord, any_coord, any_coord)
    @settings(max_examples=200, deadline=None)
    def test_rect_constructor_is_total(self, x1, y1, x2, y2):
        """Rect() either builds a valid rectangle or raises the typed
        GeometryError (a ValueError) — never anything else."""
        finite = all(math.isfinite(v) for v in (x1, y1, x2, y2))
        valid = finite and x2 >= x1 and y2 >= y1
        if valid:
            rect = Rect(x1, y1, x2, y2)
            assert rect.width >= 0.0 and rect.height >= 0.0
        else:
            with pytest.raises(GeometryError) as err:
                Rect(x1, y1, x2, y2)
            assert isinstance(err.value, ValueError)

    @given(st.integers(0, 3), st.integers(0, 3), bad_coord)
    @settings(max_examples=60, deadline=None)
    def test_rectset_rejects_poisoned_rows(self, row, col, bad):
        coords = np.ones((4, 4), dtype=np.float64)
        coords[:, 2:] = 2.0
        coords[row, col] = bad
        with pytest.raises(GeometryError):
            RectSet(coords)

    def test_rectset_rejects_inverted_rows(self):
        coords = np.array([[0.0, 0.0, 1.0, 1.0],
                           [5.0, 0.0, 1.0, 1.0]])
        with pytest.raises(GeometryError) as err:
            RectSet(coords)
        assert "rectangle 1" in str(err.value)

    def test_zero_area_rectangles_are_valid(self):
        point = Rect(3.0, 4.0, 3.0, 4.0)
        assert point.area == 0.0
        for estimator in ESTIMATORS:
            value = estimator.estimate(point)
            assert np.isfinite(value) and value >= 0.0


class TestEstimatorTotality:
    @given(finite_coord, finite_coord, finite_coord, finite_coord)
    @settings(max_examples=60, deadline=None)
    def test_any_valid_query_gets_a_finite_estimate(
        self, x1, y1, x2, y2
    ):
        """Estimates stay finite and non-negative for every valid
        query, however far outside the data space it lies."""
        query = make_valid_rect(x1, y1, x2, y2)
        for estimator in ESTIMATORS:
            value = estimator.estimate(query)
            assert np.isfinite(value), estimator.name
            assert value >= 0.0, estimator.name

    @given(st.lists(
        st.tuples(finite_coord, finite_coord, finite_coord,
                  finite_coord),
        min_size=1, max_size=10,
    ))
    @settings(max_examples=25, deadline=None)
    def test_batch_estimates_are_finite(self, corners):
        rows = [
            (min(a, c), min(b, d), max(a, c), max(b, d))
            for a, b, c, d in corners
        ]
        queries = RectSet(np.asarray(rows, dtype=np.float64))
        for estimator in ESTIMATORS:
            values = np.asarray(estimator.estimate_many(queries))
            assert values.shape == (len(queries),), estimator.name
            assert np.isfinite(values).all(), estimator.name
            assert (values >= 0.0).all(), estimator.name

    @given(any_coord, any_coord, any_coord, any_coord)
    @settings(max_examples=100, deadline=None)
    def test_invalid_queries_never_reach_estimators(
        self, x1, y1, x2, y2
    ):
        """An invalid query cannot even be constructed, so estimators
        need no per-call defence — the helper is the single gate."""
        finite = all(math.isfinite(v) for v in (x1, y1, x2, y2))
        if finite and x2 >= x1 and y2 >= y1:
            return  # valid; covered above
        with pytest.raises(ValidationError):
            Rect(x1, y1, x2, y2)


class TestEmptyInputs:
    def test_every_estimator_rejects_empty_data(self):
        empty = RectSet.empty()
        for build in (
            lambda: UniformEstimator(empty),
            lambda: SampleEstimator(empty, 4),
            lambda: FractalEstimator(empty),
            lambda: BucketEstimator([]),
        ):
            with pytest.raises(EmptyInputError) as err:
                build()
            assert isinstance(err.value, ValueError)

    def test_bucket_techniques_reject_empty_data(self):
        empty = RectSet.empty()
        for technique in ALL_TECHNIQUES:
            with pytest.raises(ValueError):
                build_estimator(technique, empty, 4, n_regions=16)
