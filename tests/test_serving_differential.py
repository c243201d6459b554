"""Differential lockdown of the serving fast paths.

The serving layer promises that none of its accelerations changes a
single bit of output:

* every estimator's ``estimate_batch`` equals the scalar
  one-query-at-a-time loop to **exact float equality** (both routes
  run the same numpy kernels, scalar as a batch of one);
* an ``evaluate_sweep`` with ``workers=4`` is byte-identical to
  ``workers=1`` — same summaries, same dict order, same merged
  counters.

Hypothesis drives the workloads; the dataset is fixed so estimator
construction is paid once per technique.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import charminar, uniform_rects
from repro.estimators.exact import ExactEstimator
from repro.eval import ALL_TECHNIQUES, ExperimentRunner, build_estimator
from repro.workload import point_queries, range_queries

DATA = charminar(1_200, seed=5)

#: Every technique, plus the exact oracle behind the same interface.
SERVED = tuple(ALL_TECHNIQUES) + ("Exact",)


def _build(technique):
    if technique == "Exact":
        return ExactEstimator(DATA)
    return build_estimator(technique, DATA, 16, n_regions=400)


@pytest.fixture(scope="module", params=SERVED)
def estimator(request):
    return _build(request.param)


def _scalar_loop(est, queries):
    return np.array([est.estimate(q) for q in queries],
                    dtype=np.float64)


class TestBatchEqualsScalar:
    @given(
        seed=st.integers(0, 10_000),
        qsize=st.floats(0.01, 0.3),
        n=st.integers(1, 50),
    )
    @settings(max_examples=10, deadline=None)
    def test_batch_equals_scalar_loop_exactly(
        self, estimator, seed, qsize, n
    ):
        queries = range_queries(DATA, qsize, n, seed=seed)
        batch = estimator.estimate_batch(queries)
        scalar = _scalar_loop(estimator, queries)
        assert batch.dtype == np.float64
        assert batch.shape == (n,)
        # exact equality, not allclose: both paths must round
        # identically
        np.testing.assert_array_equal(batch, scalar)

    def test_point_queries_agree_exactly(self, estimator):
        queries = point_queries(DATA, 40, seed=3)
        np.testing.assert_array_equal(
            estimator.estimate_batch(queries),
            _scalar_loop(estimator, queries),
        )

    def test_empty_batch(self, estimator):
        from repro.geometry import RectSet

        out = estimator.estimate_batch(RectSet.empty())
        assert out.shape == (0,)
        assert out.dtype == np.float64


class TestParallelSweepDeterminism:
    SWEEP_TECHNIQUES = ("Min-Skew", "Sample", "Uniform", "Fractal")

    def _sweep(self, workers, capture):
        data = uniform_rects(700, seed=21)
        queries = range_queries(data, 0.08, 120, seed=22)
        runner = ExperimentRunner(data)
        results, counters = capture(lambda: runner.evaluate_sweep(
            self.SWEEP_TECHNIQUES, queries, 12, n_regions=256,
            workers=workers,
        ))
        return results, counters

    def test_workers_4_byte_identical_to_workers_1(
        self, capture_counters
    ):
        serial, serial_counters = self._sweep(1, capture_counters)
        parallel, parallel_counters = self._sweep(4, capture_counters)
        assert list(serial) == list(parallel)
        for technique in self.SWEEP_TECHNIQUES:
            # dataclass equality compares every float field exactly
            assert serial[technique] == parallel[technique]
        assert serial_counters == parallel_counters

    def test_parallel_map_preserves_order(self):
        from repro.serving import parallel_map

        items = list(range(23))
        assert parallel_map(_double, items, workers=3) == [
            2 * i for i in items
        ]
        assert parallel_map(_double, [], workers=3) == []


def _double(x):
    return 2 * x
