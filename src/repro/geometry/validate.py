"""One validation helper for degenerate-rectangle handling.

Every subsystem that accepts rectangles — the scalar :class:`Rect`
constructor, the columnar :class:`RectSet` constructor, the estimators,
and the sharded router in :mod:`repro.serving` — routes its input
checks through this module, so "what counts as a valid rectangle" is
defined exactly once:

* coordinates must be **finite** (NaN/inf rejected),
* extents must be **non-negative** (``x2 >= x1`` and ``y2 >= y1``; an
  inverted rectangle is rejected, not silently normalised),
* **zero-area** rectangles are valid — a point query is a degenerate
  rectangle (paper Section 2).

Violations raise :class:`repro.errors.GeometryError`, which is also a
:class:`ValueError` for backward compatibility.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np
import numpy.typing as npt

from ..errors import EmptyInputError, GeometryError

__all__ = [
    "validate_extent",
    "validate_coords_array",
    "require_nonempty",
]


def validate_extent(
    x1: float, y1: float, x2: float, y2: float, *, what: str = "rectangle"
) -> Tuple[float, float, float, float]:
    """Validate one ``(x1, y1, x2, y2)`` extent; returns it unchanged.

    Raises :class:`GeometryError` on NaN/inf coordinates or an inverted
    extent.  ``what`` names the offender in the message ("query",
    "bucket box", ...).
    """
    if not (
        math.isfinite(x1) and math.isfinite(y1)
        and math.isfinite(x2) and math.isfinite(y2)
    ):
        raise GeometryError(
            f"{what} coordinates must be finite, got "
            f"({x1}, {y1}, {x2}, {y2})",
            hint="drop or repair non-finite rows before querying",
        )
    if x2 < x1 or y2 < y1:
        raise GeometryError(
            f"invalid {what}: ({x1}, {y1}, {x2}, {y2}) has negative "
            f"extent",
            hint="corners must be (lower-left, upper-right); swap the "
                 "inverted axis",
        )
    return (x1, y1, x2, y2)


def validate_coords_array(
    coords: npt.NDArray[np.float64], *, what: str = "rectangle"
) -> npt.NDArray[np.float64]:
    """Vectorised :func:`validate_extent` over an ``(N, 4)`` array.

    Returns the array unchanged; raises :class:`GeometryError` naming
    the first offending row.
    """
    if coords.size == 0:
        return coords
    finite = np.isfinite(coords)
    if not finite.all():
        first = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise GeometryError(
            f"{what} {first} has non-finite coordinates: "
            f"{coords[first]}",
            hint="drop or repair non-finite rows before querying",
        )
    inverted = (coords[:, 2] < coords[:, 0]) \
        | (coords[:, 3] < coords[:, 1])
    if inverted.any():
        first = int(np.flatnonzero(inverted)[0])
        raise GeometryError(
            f"{what} {first} has negative extent: {coords[first]}",
            hint="corners must be (lower-left, upper-right); swap the "
                 "inverted axis",
        )
    return coords


def require_nonempty(n: int, *, what: str = "distribution") -> int:
    """Require at least one rectangle; returns ``n`` unchanged.

    Raises :class:`EmptyInputError` (a :class:`ValueError`) otherwise.
    """
    if n <= 0:
        raise EmptyInputError(
            f"cannot summarise an empty {what}",
            hint="load or generate a non-empty dataset first",
        )
    return n
