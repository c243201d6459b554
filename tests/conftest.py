"""Shared fixtures: datasets, workloads, and the serving-tier factory.

The serving suites (differential, sharded, live, chaos, front door)
all serve the same architecture through different entry points; the
``served_engine`` factory here builds any of the four kinds — direct,
sharded, pooled, server — behind one facade so a test parameterizes
over engine kind instead of hand-rolling each stack's setup and
teardown.
"""

import numpy as np
import pytest

from repro.data import charminar, nj_road_like, uniform_rects
from repro.geometry import Rect, RectSet

#: Every way the serving tier can answer a query batch.
SERVING_ENGINE_KINDS = ("direct", "sharded", "pooled", "server")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_uniform():
    """2 000 identical rectangles placed uniformly."""
    return uniform_rects(2_000, seed=11)


@pytest.fixture(scope="session")
def small_charminar():
    """A scaled-down Charminar set (4 000 rects)."""
    return charminar(4_000, seed=22)


@pytest.fixture(scope="session")
def small_nj_road():
    """A scaled-down simulated NJ-Road set (8 000 segment MBRs)."""
    return nj_road_like(8_000, seed=33)


@pytest.fixture(scope="session")
def mixed_rects(rng):
    """A messy mixture: varied sizes, includes degenerate rectangles."""
    n = 1_500
    cx = rng.uniform(0, 1_000, n)
    cy = rng.uniform(0, 1_000, n)
    w = rng.uniform(0, 80, n)
    h = rng.uniform(0, 80, n)
    w[:50] = 0.0  # vertical segments
    h[50:100] = 0.0  # horizontal segments
    w[100:150] = 0.0
    h[100:150] = 0.0  # points
    return RectSet.from_centers(cx, cy, w, h)


@pytest.fixture()
def unit_square():
    return Rect(0.0, 0.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def serving_dataset():
    """The dataset every serving-tier suite serves (1 200 rects)."""
    return charminar(1_200, seed=17)


@pytest.fixture(scope="session")
def serving_queries(serving_dataset):
    from repro.workload import range_queries

    return range_queries(serving_dataset, 0.08, 60, seed=71)


class ServedEngine:
    """One serving stack behind a uniform facade.

    ``estimate_batch`` answers a :class:`RectSet`; ``insert`` /
    ``delete`` route a mutation through the stack's own entry point;
    ``tune`` runs one feedback pass through the stack's own entry
    point (the router's in pooled mode, so the next dispatch ships
    the tuned kernels); ``reference`` is the single-engine union answer
    over the *current* shard state (so it tracks mutations and
    tuning), built fresh on every call — for the ``direct`` kind,
    which serves one long-lived union estimator, that makes the
    comparison a check of the long-lived estimator's epoch-keyed
    kernel snapshots.  The building fixture owns ``close``.
    """

    def __init__(self, kind, sharded, estimate_batch, insert,
                 delete, close, tune):
        self.kind = kind
        self.sharded = sharded
        self.estimate_batch = estimate_batch
        self.insert = insert
        self.delete = delete
        self.close = close
        self.tune = tune

    def reference(self, queries):
        return self.sharded.union_estimator().estimate_batch(queries)


def _build_served_engine(kind, data, *, n_shards=3, n_buckets=16,
                         n_regions=256, max_batch=16, wait_steps=2):
    from repro.serving import FrontDoorThread, ShardedHistogram, \
        ShardRouter

    sharded = ShardedHistogram.build(
        data, n_shards=n_shards, n_buckets=n_buckets,
        n_regions=n_regions,
    )
    if kind == "direct":
        # one long-lived union estimator: its per-shard kernel
        # snapshots must follow every mutation and tune through the
        # shard epochs, or it drifts from the fresh reference()
        return ServedEngine(
            kind, sharded, sharded.union_estimator().estimate_batch,
            insert=sharded.insert, delete=sharded.delete,
            close=lambda: None, tune=sharded.tune,
        )
    router = ShardRouter(
        sharded, workers=2 if kind == "pooled" else 0
    )
    if kind in ("sharded", "pooled"):
        return ServedEngine(
            kind, sharded, router.estimate_batch,
            insert=router.insert, delete=router.delete,
            close=router.close, tune=router.tune,
        )
    if kind != "server":
        raise ValueError(f"unknown served-engine kind {kind!r}")
    front = FrontDoorThread(
        router, max_batch=max_batch, max_wait_steps=wait_steps
    ).start()

    def serve_wire(queries):
        responses = front.estimate_many(queries.coords)
        bad = [r for r in responses if not r.get("ok", False)]
        assert not bad, f"front door errored: {bad[0]}"
        return np.array(
            [float(r["value"]) for r in responses],
            dtype=np.float64,
        )

    def close():
        front.stop()
        router.close()

    return ServedEngine(
        kind, sharded, serve_wire,
        insert=lambda rect: front.mutate(
            "insert", (rect.x1, rect.y1, rect.x2, rect.y2)
        ),
        delete=lambda rect: front.mutate(
            "delete", (rect.x1, rect.y1, rect.x2, rect.y2)
        ),
        close=close, tune=router.tune,
    )


@pytest.fixture(scope="session")
def serving_engine_factory(serving_dataset):
    """Factory: build a :class:`ServedEngine` of the requested kind.

    The caller closes what it builds; the parameterized
    ``served_engine`` fixture below does that automatically.
    """

    def factory(kind, **overrides):
        return _build_served_engine(kind, serving_dataset, **overrides)

    return factory


@pytest.fixture(params=SERVING_ENGINE_KINDS)
def served_engine(request, serving_engine_factory):
    engine = serving_engine_factory(request.param)
    yield engine
    engine.close()


@pytest.fixture()
def capture_counters():
    """Run a callable under a fresh OBS scope.

    Returns ``(result, counters)`` — the shared pattern the serving
    suites previously each hand-rolled with ``OBS.scope`` /
    ``OBS.reset`` / ``OBS.snapshot``.
    """
    from repro.obs import OBS

    def run(fn):
        with OBS.scope():
            OBS.reset()
            try:
                result = fn()
                counters = dict(OBS.snapshot()["counters"])
            finally:
                OBS.reset()
        return result, counters

    return run
