"""Batch query validation regressions.

Every batch entry point routes its query block through
:func:`repro.geometry.validate.validate_coords_array` before any kernel
runs, so a :class:`~repro.geometry.RectSet` constructed with
``validate=False`` cannot smuggle NaN, infinite, or inverted rectangles
into an estimator or the resilience chain.  These tests build exactly
such hostile batches and assert the
:class:`~repro.errors.GeometryError` fires — and that the estimator
still serves valid work afterwards.  The scalar path rejects exactly
what the batch path rejects, even for a hostile :class:`Rect` that
skipped its own constructor check.
"""

import numpy as np
import pytest

from repro.data import charminar
from repro.errors import GeometryError
from repro.estimators.exact import ExactEstimator
from repro.eval import ALL_TECHNIQUES, build_estimator
from repro.geometry import RectSet
from repro.obs import OBS
from repro.resilience import build_fallback_chain
from repro.workload import range_queries

DATA = charminar(400, seed=7)


def _hostile_batches():
    base = range_queries(DATA, 0.1, 5, seed=1).coords.copy()
    nan = base.copy()
    nan[2, 1] = np.nan
    inf = base.copy()
    inf[0, 3] = np.inf
    inverted_x = base.copy()
    inverted_x[4, [0, 2]] = inverted_x[4, [2, 0]] + [1.0, -1.0]
    inverted_y = base.copy()
    inverted_y[1, 1] = inverted_y[1, 3] + 5.0
    return {
        "nan": nan,
        "inf": inf,
        "inverted_x": inverted_x,
        "inverted_y": inverted_y,
    }


HOSTILE = _hostile_batches()


def _rectset(kind):
    return RectSet(HOSTILE[kind], validate=False)


@pytest.fixture(scope="module", params=tuple(ALL_TECHNIQUES) + ("Exact",))
def estimator(request):
    if request.param == "Exact":
        return ExactEstimator(DATA)
    return build_estimator(request.param, DATA, 8, n_regions=100)


class TestEstimatorBatchValidation:
    @pytest.mark.parametrize("kind", sorted(HOSTILE))
    def test_hostile_batch_rejected(self, estimator, kind):
        with pytest.raises(GeometryError):
            estimator.estimate_batch(_rectset(kind))

    def test_error_names_offending_row(self, estimator):
        with pytest.raises(GeometryError, match="query 2"):
            estimator.estimate_batch(_rectset("nan"))

    def test_rectset_constructor_rejects_by_default(self):
        with pytest.raises(GeometryError):
            RectSet(HOSTILE["nan"])
        with pytest.raises(GeometryError):
            RectSet(HOSTILE["inverted_x"])


class TestBucketEstimatorValidation:
    def test_valid_work_served_after_rejection(self):
        est = build_estimator("Min-Skew", DATA, 8, n_regions=100)
        for kind in sorted(HOSTILE):
            with pytest.raises(GeometryError):
                est.estimate_batch(_rectset(kind))
        # the estimator still serves valid work afterwards
        good = range_queries(DATA, 0.1, 10, seed=2)
        np.testing.assert_array_equal(
            est.estimate_batch(good),
            build_estimator(
                "Min-Skew", DATA, 8, n_regions=100
            ).estimate_batch(good),
        )

    def test_zero_area_queries_are_valid(self):
        est = build_estimator("Grid", DATA, 8)
        coords = np.tile(
            np.array([[10.0, 10.0, 10.0, 10.0]]), (3, 1)
        )
        out = est.estimate_batch(RectSet(coords))
        assert out.shape == (3,)
        assert np.isfinite(out).all()


def _hostile_rect(x1, y1, x2, y2):
    """A Rect carrying coordinates its constructor would reject.

    ``Rect.__post_init__`` validates, so a NaN/inverted scalar query
    can only reach an estimator through an object that skipped it —
    the same trust boundary a ``RectSet(validate=False)`` batch
    crosses.
    """
    from repro.geometry import Rect

    rect = object.__new__(Rect)
    object.__setattr__(rect, "x1", x1)
    object.__setattr__(rect, "y1", y1)
    object.__setattr__(rect, "x2", x2)
    object.__setattr__(rect, "y2", y2)
    return rect


HOSTILE_SCALARS = {
    "nan": (0.0, float("nan"), 1.0, 1.0),
    "inf": (0.0, 0.0, float("inf"), 1.0),
    "inverted_x": (5.0, 0.0, 1.0, 1.0),
    "inverted_y": (0.0, 5.0, 1.0, 1.0),
}


class TestScalarValidation:
    """The scalar path must reject exactly what the batch path
    rejects — before the query reaches the kernel, where a NaN or
    inverted extent would yield a silent wrong answer."""

    @pytest.mark.parametrize("kind", sorted(HOSTILE_SCALARS))
    def test_hostile_scalar_rejected(self, kind):
        est = build_estimator("Min-Skew", DATA, 8, n_regions=100)
        with pytest.raises(GeometryError):
            est.estimate(_hostile_rect(*HOSTILE_SCALARS[kind]))

    @pytest.mark.parametrize("kind", sorted(HOSTILE_SCALARS))
    def test_scalar_and_batch_reject_alike(self, kind):
        est = build_estimator("Grid", DATA, 8)
        coords = np.array([HOSTILE_SCALARS[kind]], dtype=np.float64)
        with pytest.raises(GeometryError):
            est.estimate_batch(RectSet(coords, validate=False))
        with pytest.raises(GeometryError):
            est.estimate(_hostile_rect(*HOSTILE_SCALARS[kind]))

    def test_valid_scalar_still_served(self):
        est = build_estimator("Grid", DATA, 8)
        query = next(iter(range_queries(DATA, 0.1, 1, seed=3)))
        value = est.estimate(query)
        assert value == float(
            est.estimate_batch(RectSet.from_rects([query]))[0]
        )


class TestGuardedChainValidation:
    def test_rejected_before_entering_chain(self):
        chain = build_fallback_chain(DATA, 8, n_regions=100)
        with OBS.scope():
            OBS.reset()
            for kind in sorted(HOSTILE):
                with pytest.raises(GeometryError):
                    chain.estimate_batch(_rectset(kind))
            counters = dict(OBS.snapshot()["counters"])
            OBS.reset()
        # validation failed fast: no link was ever consulted
        assert not any(
            key.startswith(("resilience.link_failures",
                            "resilience.served"))
            for key in counters
        )
