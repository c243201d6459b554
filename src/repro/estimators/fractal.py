"""The fractal (parametric) technique of Belussi & Faloutsos, VLDB 1995.

The paper's comparison baseline: "spatial data can be described using
fractals having a non-integer fractal dimension ... selectivity for such
point sets can be described using a power law with the correlation
fractal dimension as the exponent.  For comparison, we extended this
technique to rectangle data by using the centroids of the rectangles as
representatives."

The correlation dimension D₂ is measured by box counting: impose grids of
side r over the data, compute S₂(r) = Σᵢ pᵢ² (pᵢ the fraction of points
in box i), and fit the slope of log S₂ against log r — for a self-similar
set, S₂(r) ∝ r^D₂.  The selectivity of a query of side s centered on a
data point then follows the power law |Q| ≈ N · (s / L)^D₂ with L the
input extent.  Note the "biased query" model — queries centered on data
points — is exactly the paper's workload (Section 5.2 draws query centers
from input rectangle centers).

The SIGMOD'99 experiments found this technique "close to being the least
effective ... consistently close to 90 %" error on rectangle data; the
reproduction preserves that behaviour (it is a two-parameter summary, so
this is expected, and our benchmarks assert only its qualitative rank).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import numpy.typing as npt

from ..geometry import Rect, RectSet, require_nonempty, \
    validate_extent
from ..grid import DensityGrid
from .base import SelectivityEstimator

#: Words of summary state: the input MBR (4), N (1), D₂ (1), and the
#: average extents used for query extension (2).
FRACTAL_WORDS = 8


def correlation_dimension(
    points: npt.NDArray[np.float64],
    bounds: Rect,
    *,
    min_level: int = 1,
    max_level: int = 8,
) -> Tuple[
    float, npt.NDArray[np.float64], npt.NDArray[np.float64]
]:
    """Box-counting estimate of the correlation fractal dimension D₂.

    Parameters
    ----------
    points:
        ``(N, 2)`` point array.
    bounds:
        The space the grids tile.
    min_level, max_level:
        Grid levels used: level ℓ imposes a ``2^ℓ × 2^ℓ`` grid, i.e. a
        box side of ``2^-ℓ`` relative to the bounds.

    Returns
    -------
    (d2, log_r, log_s2):
        The fitted dimension and the log–log points it was fitted to
        (useful for diagnostics and tests).
    """
    if points.shape[0] == 0:
        raise ValueError("cannot measure the dimension of no points")
    if min_level < 0 or max_level < min_level:
        raise ValueError("invalid level range")
    n = points.shape[0]
    # Fit only over the linear region of the log–log plot: once boxes
    # hold ≪ 1 point each, S₂ flattens at 1/N (every occupied box holds
    # a single point) and including those scales biases D₂ low.  Cap
    # the finest level so boxes average ≳ a few points.
    saturation_level = max(min_level + 1,
                           int(np.log(max(n, 4)) / np.log(4.0)) - 1)
    max_level = min(max_level, saturation_level)
    log_r = []
    log_s2 = []
    for level in range(min_level, max_level + 1):
        g = 2 ** level
        grid = DensityGrid.from_points(points, g, g, bounds=bounds)
        p = grid.densities / n
        s2 = float((p * p).sum())
        if s2 <= 0.0:
            continue
        log_r.append(-level)  # log2 of relative box side 2^-level
        log_s2.append(np.log2(s2))
    log_r_arr = np.asarray(log_r, dtype=np.float64)
    log_s2_arr = np.asarray(log_s2, dtype=np.float64)
    if log_r_arr.size < 2:
        # One usable scale (e.g. a single distinct point): treat the
        # set as zero-dimensional.
        return 0.0, log_r_arr, log_s2_arr
    slope, _ = np.polyfit(log_r_arr, log_s2_arr, 1)
    # A finite point set flattens out at fine scales (every point alone
    # in its box), so the raw slope can dip below 0; clamp into the
    # geometrically meaningful range for 2-D data.
    d2 = float(np.clip(slope, 0.0, 2.0))
    return d2, log_r_arr, log_s2_arr


class FractalEstimator(SelectivityEstimator):
    """Power-law selectivity from the correlation dimension."""

    name = "Fractal"

    def __init__(
        self,
        rects: RectSet,
        *,
        max_level: int = 8,
        bounds: Optional[Rect] = None,
    ) -> None:
        require_nonempty(len(rects))
        self.n_input = len(rects)
        self.bounds = bounds if bounds is not None else rects.mbr()
        self.avg_width = rects.avg_width()
        self.avg_height = rects.avg_height()
        centroids = rects.centers()
        self.d2, self._log_r, self._log_s2 = correlation_dimension(
            centroids, self.bounds, max_level=max_level
        )
        # reference extent: geometric mean of the MBR sides
        self._extent = float(
            np.sqrt(max(self.bounds.width, 1e-300)
                    * max(self.bounds.height, 1e-300))
        )

    def estimate(self, query: Rect) -> float:
        validate_extent(
            query.x1, query.y1, query.x2, query.y2, what="query"
        )
        # A batch of one through the same numpy kernel as the batch
        # path: ``ratio ** d2`` must round identically on both paths
        # (C ``pow`` via Python and via a numpy array loop can differ
        # in the last ulp), and the differential serving suite holds
        # the two paths to exact float equality.
        qrow = np.array(
            [[query.x1, query.y1, query.x2, query.y2]],
            dtype=np.float64,
        )
        return float(self._power_law(qrow)[0])

    def _power_law(
        self, qcoords: npt.NDArray[np.float64]
    ) -> npt.NDArray[np.float64]:
        """The extended-query power law over an ``(M, 4)`` block."""
        widths = qcoords[:, 2] - qcoords[:, 0]
        heights = qcoords[:, 3] - qcoords[:, 1]
        w = np.minimum(widths + self.avg_width, self.bounds.width)
        h = np.minimum(heights + self.avg_height, self.bounds.height)
        side = np.sqrt(np.clip(w, 0.0, None) * np.clip(h, 0.0, None))
        ratio = np.minimum(side / self._extent, 1.0)
        est = self.n_input * ratio ** self.d2
        return np.where(side > 0.0, est, 0.0)

    def _estimate_batch(
        self, queries: RectSet
    ) -> npt.NDArray[np.float64]:
        return self._power_law(queries.coords)

    def size_words(self) -> int:
        return FRACTAL_WORDS
