"""Series identity: what one telemetry stream *is* and where it lives.

Every sample in the store belongs to exactly one series, keyed by
``(building, wall, node_id, metric)`` -- the paper's deployment
hierarchy (Fig. 1f): a building has instrumented walls, a wall has
implanted capsules, a capsule reports named channels.  Structure-level
channels that are not tied to a capsule (the campaign's deck
acceleration, steel stress) use the reserved ``node_id`` 0.

Keys map directly onto the on-disk layout::

    <root>/segments/<building>/<wall>/n<node_id:05d>/<metric>/

so the name components double as path components and are validated
accordingly -- a hostile key can never escape the store root.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import Any, Dict, Iterable, List, Mapping, Tuple

from ..errors import StoreError

#: Reserved node id for structure-level (non-capsule) series.
STRUCTURE_NODE_ID = 0

#: Reserved building namespace for the system's own operational
#: telemetry (the :mod:`repro.obs.pipeline` recorder).  Components
#: starting with an underscore are reserved for such self-telemetry
#: namespaces; experiment data should never use them.
OBS_BUILDING = "_obs"

#: Largest representable node id (the directory name is zero-padded).
MAX_NODE_ID = 99_999

#: Allowed shape of a name component (also a safe path component).
#: A leading underscore marks a reserved namespace (e.g. ``_obs``).
_COMPONENT = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9._-]{0,63}$")

_NODE_DIRNAME = re.compile(r"^n(\d{5})$")


def validate_component(name: str, what: str) -> str:
    """Check one key component is a safe, portable path component."""
    if not isinstance(name, str) or not _COMPONENT.match(name):
        raise StoreError(
            f"invalid {what} {name!r}: need 1-64 chars of "
            "[A-Za-z0-9._-] starting with an alphanumeric "
            "(or an underscore for reserved namespaces)"
        )
    if name in (".", "..") or ".." in name:
        raise StoreError(f"invalid {what} {name!r}: path traversal")
    return name


@dataclass(frozen=True, order=True)
class SeriesKey:
    """The identity of one telemetry time series.

    Attributes:
        building: Deployment-level name (e.g. ``"campaign"``).
        wall: Instrumented wall/span within the building.
        node_id: Capsule id, or :data:`STRUCTURE_NODE_ID` (0) for
            structure-level channels.
        metric: Channel name (``"strain"``, ``"acceleration"``, ...).
    """

    building: str
    wall: str
    node_id: int
    metric: str

    def __post_init__(self) -> None:
        validate_component(self.building, "building")
        validate_component(self.wall, "wall")
        validate_component(self.metric, "metric")
        if not isinstance(self.node_id, int) or isinstance(self.node_id, bool):
            raise StoreError(f"node_id must be an int, got {self.node_id!r}")
        if not 0 <= self.node_id <= MAX_NODE_ID:
            raise StoreError(
                f"node_id {self.node_id} outside [0, {MAX_NODE_ID}]"
            )

    @property
    def node_dirname(self) -> str:
        return f"n{self.node_id:05d}"

    @property
    def relpath(self) -> PurePosixPath:
        """Path of this series' segment directory, relative to the root."""
        return PurePosixPath(
            self.building, self.wall, self.node_dirname, self.metric
        )

    def label(self) -> str:
        """Human-readable ``building/wall/n#/metric`` form."""
        return f"{self.building}/{self.wall}/{self.node_id}/{self.metric}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "building": self.building,
            "wall": self.wall,
            "node_id": self.node_id,
            "metric": self.metric,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SeriesKey":
        if not isinstance(payload, Mapping):
            raise StoreError("series key must be an object")
        try:
            return cls(
                building=payload["building"],
                wall=payload["wall"],
                node_id=int(payload["node_id"]),
                metric=payload["metric"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"malformed series key: {exc!r}")

    @classmethod
    def from_path_parts(cls, parts: Tuple[str, ...]) -> "SeriesKey":
        """Rebuild a key from the four segment-directory path parts."""
        if len(parts) != 4:
            raise StoreError(f"expected 4 path parts, got {parts!r}")
        building, wall, node_dir, metric = parts
        match = _NODE_DIRNAME.match(node_dir)
        if not match:
            raise StoreError(f"not a node directory name: {node_dir!r}")
        return cls(
            building=building,
            wall=wall,
            node_id=int(match.group(1)),
            metric=metric,
        )


def by_building(keys: Iterable[SeriesKey]) -> Dict[str, List[SeriesKey]]:
    """``keys`` (deduplicated, sorted) grouped by building, in building order."""
    grouped: Dict[str, List[SeriesKey]] = {}
    for key in sorted(set(keys)):
        grouped.setdefault(key.building, []).append(key)
    return grouped
