"""Dataset persistence: save/load :class:`RectSet` to npy and CSV.

Experiments that sweep many configurations over the same dataset save the
generated rectangles once and reload them, so all techniques see exactly
the same input (and so full-scale datasets need not be regenerated per
run).

:func:`load_rects` is the guarded entry point the CLI uses: it
dispatches on the file suffix, announces the ``data.load``
fault-injection site, and converts every failure mode —
missing file, unparseable content, invalid rectangles — into the typed
:mod:`repro.errors` hierarchy with an actionable hint.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Union

import numpy as np

from ..errors import ArtifactCorruptError, ArtifactMissingError
from ..geometry import RectSet
from ..resilience.faults import fire

PathLike = Union[str, Path]

_CSV_HEADER = ["x1", "y1", "x2", "y2"]


def save_npy(rects: RectSet, path: PathLike) -> None:
    """Save to a ``.npy`` file holding the ``(N, 4)`` coordinate array."""
    np.save(Path(path), rects.coords)


def load_npy(path: PathLike) -> RectSet:
    """Load a :class:`RectSet` saved with :func:`save_npy`."""
    arr = np.load(Path(path))
    return RectSet(arr, copy=False, validate=True)


def save_csv(rects: RectSet, path: PathLike) -> None:
    """Save to CSV with an ``x1,y1,x2,y2`` header row."""
    with open(Path(path), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(_CSV_HEADER)
        writer.writerows(rects.coords.tolist())


def load_csv(path: PathLike) -> RectSet:
    """Load a :class:`RectSet` from CSV written by :func:`save_csv`.

    Also accepts header-less files whose rows are four floats per line.
    """
    path = Path(path)
    with open(path, newline="") as f:
        reader = csv.reader(f)
        rows = []
        for i, row in enumerate(reader):
            if not row:
                continue
            if i == 0 and row == _CSV_HEADER:
                continue
            if len(row) != 4:
                raise ValueError(
                    f"{path}:{i + 1}: expected 4 columns, got {len(row)}"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{path}:{i + 1}: non-numeric value") \
                    from exc
    if not rows:
        return RectSet.empty()
    return RectSet(np.asarray(rows), copy=False, validate=True)


#: Suffixes :func:`load_rects` understands, mapped to their loaders.
_LOADERS = {".npy": load_npy, ".csv": load_csv}


def load_rects(path: PathLike) -> RectSet:
    """Load a rectangle file (``.npy`` or ``.csv``) with typed errors.

    Raises
    ------
    ArtifactMissingError
        ``path`` does not exist (or has an unsupported suffix).
    ArtifactCorruptError
        The file exists but cannot be parsed into valid rectangles.
    """
    fire("data.load")
    path = Path(path)
    loader = _LOADERS.get(path.suffix.lower())
    if loader is None:
        raise ArtifactMissingError(
            f"unsupported dataset file type {path.suffix!r}: {path}",
            hint="supported suffixes: "
                 + ", ".join(sorted(_LOADERS)),
        )
    if not path.exists():
        raise ArtifactMissingError(
            f"dataset file not found: {path}",
            hint="check the path, or generate one with "
                 "repro.data.save_npy/save_csv",
        )
    try:
        return loader(path)
    except (ValueError, OSError) as exc:
        raise ArtifactCorruptError(
            f"corrupt dataset file {path}: {exc}",
            hint="regenerate the file; partial or non-rectangular "
                 "content is rejected",
        ) from exc
