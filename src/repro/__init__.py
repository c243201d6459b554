"""repro — selectivity estimation in spatial databases.

A complete, from-scratch reproduction of Acharya, Poosala & Ramaswamy,
*Selectivity Estimation in Spatial Databases* (SIGMOD 1999): the
**Min-Skew** spatial histogram with progressive refinement, every
baseline technique the paper compares against (Equi-Area, Equi-Count,
R-Tree, Sample, Uniform, Fractal), the substrates they stand on (an
R*-tree, density grids, exact counting oracles, dataset generators), and
the full experiment harness for the paper's figures and tables.

Quick start::

    from repro import MinSkewPartitioner, BucketEstimator
    from repro.data import charminar
    from repro.workload import range_queries

    data = charminar()                       # 40 000 rectangles
    est = BucketEstimator.build(MinSkewPartitioner(100), data)
    queries = range_queries(data, qsize=0.05, n_queries=100, seed=0)
    print(est.estimate_many(queries)[:5])    # estimated result sizes
"""

from .core import (
    Bucket,
    MinSkewPartitioner,
    MinSkewResult,
    grouping_skew,
    progressive_min_skew,
)
from .estimators import (
    BucketEstimator,
    ExactEstimator,
    FractalEstimator,
    SampleEstimator,
    SelectivityEstimator,
    UniformEstimator,
)
from .eval import (
    ExperimentRunner,
    average_relative_error,
    build_estimator,
)
from .geometry import Rect, RectSet
from .grid import DensityGrid
from .obs import OBS, MetricsRegistry
from .partitioners import (
    EquiAreaPartitioner,
    EquiCountPartitioner,
    Partitioner,
    RTreePartitioner,
)
from .rtree import RStarTree, str_bulk_load
from .workload import point_queries, range_queries

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # geometry
    "Rect",
    "RectSet",
    # core contribution
    "Bucket",
    "MinSkewPartitioner",
    "MinSkewResult",
    "progressive_min_skew",
    "grouping_skew",
    # partitioners
    "Partitioner",
    "EquiAreaPartitioner",
    "EquiCountPartitioner",
    "RTreePartitioner",
    # estimators
    "SelectivityEstimator",
    "BucketEstimator",
    "UniformEstimator",
    "SampleEstimator",
    "FractalEstimator",
    "ExactEstimator",
    # substrates
    "RStarTree",
    "str_bulk_load",
    "DensityGrid",
    # observability
    "OBS",
    "MetricsRegistry",
    # workload + eval
    "range_queries",
    "point_queries",
    "ExperimentRunner",
    "build_estimator",
    "average_relative_error",
]
