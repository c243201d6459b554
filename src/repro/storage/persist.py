"""Crash-safe, checksummed artifact persistence.

Every durable artifact the library writes — histogram bucket files,
dataset snapshots, experiment checkpoints, bench documents — goes
through two guarantees here:

* **atomic replace**: content is written to a temporary file in the
  destination directory, flushed and ``fsync``\\ ed, then ``os.replace``\\ d
  over the destination.  A crash (even SIGKILL) mid-write leaves either
  the old file or the new file, never a torn one; at worst a stray
  ``*.tmp.*`` file remains, which readers ignore.
* **checksum envelope**: JSON artifacts are wrapped in an envelope
  carrying a magic string, a ``kind`` tag, and the SHA-256 of the
  canonical payload encoding.  :func:`read_artifact` refuses to return
  data that fails any of those checks, raising
  :class:`~repro.errors.ArtifactCorruptError` — a poisoned summary is
  detected at the storage boundary as a typed error, never served.

All reads and writes announce the ``storage.read`` / ``storage.write``
fault-injection sites, so chaos runs exercise exactly these paths.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, List, Optional, Union

from ..core.bucket import Bucket
from ..errors import ArtifactCorruptError, ArtifactMissingError
from ..geometry import Rect, RectSet
from ..obs import OBS
from ..resilience.faults import fire

__all__ = [
    "ARTIFACT_MAGIC",
    "ARTIFACT_VERSION",
    "atomic_write_bytes",
    "atomic_write_text",
    "write_artifact",
    "read_artifact",
    "save_buckets",
    "load_buckets",
    "save_rectset",
    "load_rectset",
]

PathLike = Union[str, Path]

ARTIFACT_MAGIC = "repro-artifact"
ARTIFACT_VERSION = 1


def _canonical(payload: Any) -> str:
    """Canonical JSON encoding (the checksummed byte stream)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# atomic writes
# ----------------------------------------------------------------------
def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tmp + fsync + replace)."""
    target = Path(path)
    fire("storage.write")
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=target.name + ".tmp.", dir=target.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        # Leave no half-written destination; the stray tmp file (if
        # the replace itself failed) is ignored by all readers.
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    OBS.add("storage.atomic_writes")


def atomic_write_text(path: PathLike, text: str) -> None:
    """Atomic UTF-8 text write (see :func:`atomic_write_bytes`)."""
    atomic_write_bytes(path, text.encode("utf-8"))


# ----------------------------------------------------------------------
# checksummed envelopes
# ----------------------------------------------------------------------
def write_artifact(
    path: PathLike, payload: Any, *, kind: str
) -> None:
    """Atomically write ``payload`` in a checksummed envelope.

    ``payload`` must be JSON-serialisable with finite numbers only
    (NaN/inf would not round-trip through strict JSON).
    """
    body = _canonical(payload)
    envelope = {
        "magic": ARTIFACT_MAGIC,
        "version": ARTIFACT_VERSION,
        "kind": kind,
        "sha256": _sha256(body),
        "payload": payload,
    }
    atomic_write_text(
        path, json.dumps(envelope, sort_keys=True, indent=1) + "\n"
    )


def read_artifact(
    path: PathLike, *, kind: Optional[str] = None
) -> Any:
    """Read and verify an envelope written by :func:`write_artifact`.

    Raises
    ------
    ArtifactMissingError
        ``path`` does not exist.
    ArtifactCorruptError
        Unparseable JSON, wrong magic/version, ``kind`` mismatch, or
        checksum failure.
    """
    fire("storage.read")
    target = Path(path)
    try:
        raw = target.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ArtifactMissingError(
            f"artifact not found: {target}",
            hint="check the path, or regenerate the artifact",
        ) from None
    except OSError as exc:
        raise ArtifactCorruptError(
            f"artifact unreadable: {target} ({exc})",
            hint="check filesystem permissions and integrity",
        ) from exc

    def corrupt(reason: str) -> ArtifactCorruptError:
        OBS.add("storage.corrupt_artifacts")
        return ArtifactCorruptError(
            f"corrupt artifact {target}: {reason}",
            hint="delete and regenerate the file; the checksummed "
                 "reader never returns partial data",
        )

    try:
        envelope = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise corrupt(f"invalid JSON ({exc.msg})") from exc
    if not isinstance(envelope, dict) \
            or envelope.get("magic") != ARTIFACT_MAGIC:
        raise corrupt("missing repro-artifact envelope")
    if envelope.get("version") != ARTIFACT_VERSION:
        raise corrupt(
            f"unsupported envelope version {envelope.get('version')!r}"
        )
    if kind is not None and envelope.get("kind") != kind:
        raise corrupt(
            f"kind mismatch: expected {kind!r}, "
            f"found {envelope.get('kind')!r}"
        )
    if "payload" not in envelope or "sha256" not in envelope:
        raise corrupt("envelope missing payload or checksum")
    payload = envelope["payload"]
    if _sha256(_canonical(payload)) != envelope["sha256"]:
        raise corrupt("checksum mismatch")
    OBS.add("storage.artifact_reads")
    return payload


# ----------------------------------------------------------------------
# histogram (bucket list) artifacts
# ----------------------------------------------------------------------
_BUCKETS_KIND = "buckets"


def save_buckets(path: PathLike, buckets: List[Bucket]) -> None:
    """Persist a bucket histogram as a checksummed artifact."""
    payload = {
        "buckets": [
            [
                b.bbox.x1, b.bbox.y1, b.bbox.x2, b.bbox.y2,
                int(b.count), b.avg_width, b.avg_height, b.avg_density,
            ]
            for b in buckets
        ],
    }
    write_artifact(path, payload, kind=_BUCKETS_KIND)


def load_buckets(path: PathLike) -> List[Bucket]:
    """Load a histogram saved by :func:`save_buckets` (verified)."""
    payload = read_artifact(path, kind=_BUCKETS_KIND)
    try:
        rows = payload["buckets"]
        return [
            Bucket(
                Rect(float(r[0]), float(r[1]), float(r[2]),
                     float(r[3])),
                int(r[4]),
                avg_width=float(r[5]),
                avg_height=float(r[6]),
                avg_density=float(r[7]),
            )
            for r in rows
        ]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ArtifactCorruptError(
            f"corrupt bucket artifact {path}: {exc}",
            hint="delete and regenerate the histogram file",
        ) from exc


# ----------------------------------------------------------------------
# dataset snapshots
# ----------------------------------------------------------------------
_RECTSET_KIND = "rectset"


def save_rectset(path: PathLike, rects: RectSet) -> None:
    """Persist a :class:`RectSet` as a checksummed artifact."""
    write_artifact(
        path, {"coords": rects.coords.tolist()}, kind=_RECTSET_KIND
    )


def load_rectset(path: PathLike) -> RectSet:
    """Load a snapshot saved by :func:`save_rectset` (verified)."""
    payload = read_artifact(path, kind=_RECTSET_KIND)
    try:
        coords = payload["coords"]
        if not coords:
            return RectSet.empty()
        return RectSet(coords, copy=False, validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactCorruptError(
            f"corrupt rectset artifact {path}: {exc}",
            hint="delete and regenerate the dataset snapshot",
        ) from exc
