"""Minkowski-spacetime geometry for multi-agent protocol layouts.

Events live in 1+d dimensional flat spacetime with 1 <= d <= 3 spatial
dimensions and units chosen so the speed of light is 1.  The module
provides the causal predicates used everywhere else (causal precedence,
spacelike separation, membership in the common causal past of the
designated points), finite event-set regions with box builders, layout
validation, and a JSON wire format for layouts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import LayoutError

__all__ = [
    "Event",
    "Region",
    "Layout",
    "ValidatedLayout",
    "causally_precedes",
    "spacelike_separated",
    "in_region_g",
    "interval_squared",
    "box_region",
    "check_layout",
    "validate_layout",
    "layout_to_json",
    "layout_from_json",
]

MAX_SPATIAL_DIM = 3


@dataclass(frozen=True)
class Event:
    """A point in 1+d Minkowski spacetime.

    Parameters
    ----------
    t:
        Time coordinate.
    x:
        Spatial coordinates, a scalar (treated as 1-dimensional) or a
        sequence of length 1 to 3.
    """

    t: float
    x: tuple[float, ...]

    def __init__(self, t: float, x) -> None:
        if isinstance(x, (int, float)):
            xs = (float(x),)
        else:
            xs = tuple(float(v) for v in x)
        if not 1 <= len(xs) <= MAX_SPATIAL_DIM:
            raise ValueError(f"spatial dimension must be 1..{MAX_SPATIAL_DIM}, got {len(xs)}")
        tf = float(t)
        if not math.isfinite(tf) or not all(math.isfinite(v) for v in xs):
            raise ValueError("event coordinates must be finite")
        object.__setattr__(self, "t", tf)
        object.__setattr__(self, "x", xs)

    @property
    def dim(self) -> int:
        """Number of spatial dimensions."""
        return len(self.x)

    def spatial_distance(self, other: "Event") -> float:
        """Euclidean distance between the spatial parts."""
        _check_same_dim(self, other)
        return math.dist(self.x, other.x)


def _check_same_dim(a: Event, b: Event) -> None:
    if len(a.x) != len(b.x):
        raise ValueError(f"dimension mismatch: {len(a.x)} vs {len(b.x)}")


def causally_precedes(a: Event, b: Event, eps: float = 0.0) -> bool:
    """Return True when a signal from ``a`` can reach ``b``.

    This is the closed relation: events on the light-cone boundary are
    causal, and every event precedes itself.  ``eps`` widens the cone by
    treating ``b`` as reachable whenever ``b.t - a.t >= dist - eps``;
    the default 0 is the exact relation.
    """
    _check_same_dim(a, b)
    return (b.t - a.t) >= math.dist(a.x, b.x) - eps


def spacelike_separated(a: Event, b: Event, eps: float = 0.0) -> bool:
    """Return True when neither event can signal the other.

    ``eps`` demands a safety margin: the events only count as spacelike
    when ``|dt| < dist - eps``.  With the default 0 this is the exact
    complement of causal precedence in either direction.
    """
    _check_same_dim(a, b)
    return abs(b.t - a.t) < math.dist(a.x, b.x) - eps


def interval_squared(a: Event, b: Event) -> float:
    """Invariant interval ``dt**2 - |dx|**2`` between two events."""
    _check_same_dim(a, b)
    dt = b.t - a.t
    return dt * dt - sum((u - v) ** 2 for u, v in zip(a.x, b.x))


def in_region_g(event: Event, q_points: Sequence[Event], eps: float = 0.0) -> bool:
    """Membership in the intersection of the causal pasts of all ``q_points``."""
    if not q_points:
        raise ValueError("q_points must be nonempty")
    return all(causally_precedes(event, q, eps) for q in q_points)


@dataclass(frozen=True)
class Region:
    """A finite nonempty set of events standing in for a spacetime region.

    Geometric predicates against a region quantify over its event set;
    ``contains`` uses the axis-aligned bounding box of the events, which
    is exact for the box regions produced by :func:`box_region`.
    """

    events: tuple[Event, ...]

    def __init__(self, events: Iterable[Event]) -> None:
        evs = tuple(events)
        if not evs:
            raise ValueError("region must contain at least one event")
        for e in evs[1:]:
            _check_same_dim(evs[0], e)
        object.__setattr__(self, "events", evs)

    @property
    def dim(self) -> int:
        return self.events[0].dim

    def bounds(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Componentwise (lo, hi) corners over (t, x...) of the event set."""
        coords = [(e.t, *e.x) for e in self.events]
        lo = tuple(min(c[k] for c in coords) for k in range(len(coords[0])))
        hi = tuple(max(c[k] for c in coords) for k in range(len(coords[0])))
        return lo, hi

    def contains(self, event: Event, eps: float = 0.0) -> bool:
        """Bounding-box membership with slack ``eps`` on every coordinate."""
        _check_same_dim(self.events[0], event)
        lo, hi = self.bounds()
        coords = (event.t, *event.x)
        return all(l - eps <= c <= h + eps for c, l, h in zip(coords, lo, hi))


def box_region(lo: Event, hi: Event, interior: Iterable[Event] = ()) -> Region:
    """Region holding all corner events of the box ``[lo, hi]``.

    ``interior`` adds user-chosen sample events, which must lie inside
    the box.  Corners are enumerated over every (t, x...) coordinate
    taking its lo or hi value, so a d-dimensional box has ``2**(1+d)``
    corners (fewer when some coordinates are degenerate).
    """
    _check_same_dim(lo, hi)
    los = (lo.t, *lo.x)
    his = (hi.t, *hi.x)
    if any(l > h for l, h in zip(los, his)):
        raise ValueError("box corners must satisfy lo <= hi componentwise")
    corners = []
    for choice in itertools.product(*[(l, h) for l, h in zip(los, his)]):
        corners.append(Event(choice[0], choice[1:]))
    seen: dict[Event, None] = dict.fromkeys(corners)
    extra = tuple(interior)
    probe = Region(tuple(seen))
    for e in extra:
        if not probe.contains(e):
            raise ValueError(f"interior event {e} outside the box")
        seen.setdefault(e, None)
    return Region(tuple(seen))


@dataclass(frozen=True)
class Layout:
    """Declared geometry of one protocol instance.

    ``regions[i]`` is the output region of party ``i``, ``q_points[i]``
    the designated handover point for that region, and ``worldlines``
    maps agent names to their ordered vertex lists.  Construction only
    normalizes containers; run :func:`validate_layout` for the
    geometric invariants.
    """

    regions: tuple[Region, ...]
    q_points: tuple[Event, ...]
    worldlines: tuple[tuple[str, tuple[Event, ...]], ...]

    def __init__(
        self,
        regions: Iterable[Region],
        q_points: Iterable[Event],
        worldlines: Mapping[str, Sequence[Event]],
    ) -> None:
        object.__setattr__(self, "regions", tuple(regions))
        object.__setattr__(self, "q_points", tuple(q_points))
        object.__setattr__(
            self,
            "worldlines",
            tuple(sorted((str(k), tuple(v)) for k, v in worldlines.items())),
        )

    @property
    def m(self) -> int:
        return len(self.regions)

    @property
    def dim(self) -> int:
        return self.q_points[0].dim if self.q_points else self.regions[0].dim

    @property
    def agents(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.worldlines)

    def worldline(self, agent: str) -> tuple[Event, ...]:
        for name, verts in self.worldlines:
            if name == agent:
                return verts
        raise KeyError(agent)


@dataclass(frozen=True)
class ValidatedLayout:
    """A :class:`Layout` that passed :func:`validate_layout`."""

    layout: Layout

    @property
    def m(self) -> int:
        return self.layout.m


def check_layout(layout: Layout) -> list[dict]:
    """Collect all invariant violations of ``layout``.

    Returns an empty list for a valid layout.  Checked invariants:
    at least two regions, one q point per region, consistent spatial
    dimension everywhere, pairwise spacelike separation between events
    of distinct regions, each q point inside its region's bounding box,
    and strictly time-increasing causal worldlines.
    """
    out: list[dict] = []
    if len(layout.regions) < 2:
        out.append({"kind": "too_few_regions", "count": len(layout.regions)})
    if len(layout.q_points) != len(layout.regions):
        out.append(
            {
                "kind": "q_point_count",
                "regions": len(layout.regions),
                "q_points": len(layout.q_points),
            }
        )

    dims = {r.dim for r in layout.regions}
    dims.update(q.dim for q in layout.q_points)
    for name, verts in layout.worldlines:
        dims.update(v.dim for v in verts)
        if not verts:
            out.append({"kind": "empty_worldline", "agent": name})
    if len(dims) > 1:
        out.append({"kind": "dim_mismatch", "dims": sorted(dims)})
        return out

    for i, j in itertools.combinations(range(len(layout.regions)), 2):
        for a in layout.regions[i].events:
            for b in layout.regions[j].events:
                if not spacelike_separated(a, b):
                    out.append(
                        {
                            "kind": "regions_not_spacelike",
                            "i": i,
                            "j": j,
                            "a": [a.t, *a.x],
                            "b": [b.t, *b.x],
                        }
                    )
                    break
            else:
                continue
            break

    for i, q in enumerate(layout.q_points):
        if i < len(layout.regions) and not layout.regions[i].contains(q):
            out.append({"kind": "q_point_outside_region", "i": i, "q": [q.t, *q.x]})

    for name, verts in layout.worldlines:
        for k in range(len(verts) - 1):
            a, b = verts[k], verts[k + 1]
            if b.t <= a.t or not causally_precedes(a, b):
                out.append(
                    {
                        "kind": "worldline_not_causal",
                        "agent": name,
                        "index": k,
                        "a": [a.t, *a.x],
                        "b": [b.t, *b.x],
                    }
                )
                break
    return out


def validate_layout(layout: Layout) -> ValidatedLayout:
    """Validate and wrap ``layout``, raising :class:`LayoutError` on failure."""
    violations = check_layout(layout)
    if violations:
        raise LayoutError(violations)
    return ValidatedLayout(layout)


def _event_to_json(e: Event) -> list[float]:
    return [e.t, *e.x]


def _event_from_json(v: Sequence[float]) -> Event:
    if len(v) < 2:
        raise ValueError(f"event needs [t, x...], got {v!r}")
    return Event(v[0], v[1:])


def layout_to_json(layout: Layout) -> dict:
    """Serialize to the documented wire schema.

    Regions are written as their bounding boxes plus any events that are
    not box corners (under ``interior``), which round-trips the regions
    produced by :func:`box_region`.
    """
    regions = []
    for r in layout.regions:
        lo, hi = r.bounds()
        corner_vals = [set(pair) for pair in zip(lo, hi)]
        interior = [
            _event_to_json(e)
            for e in r.events
            if not all(c in vals for c, vals in zip((e.t, *e.x), corner_vals))
        ]
        entry: dict = {"lo": list(lo), "hi": list(hi)}
        if interior:
            entry["interior"] = interior
        regions.append(entry)
    return {
        "dim": layout.dim,
        "regions": regions,
        "q_points": [_event_to_json(q) for q in layout.q_points],
        "worldlines": {
            name: [_event_to_json(v) for v in verts] for name, verts in layout.worldlines
        },
    }


def layout_from_json(doc: Mapping) -> Layout:
    """Parse the wire schema back into a :class:`Layout`."""
    try:
        dim = int(doc["dim"])
        regions = []
        for entry in doc["regions"]:
            lo = _event_from_json(entry["lo"])
            hi = _event_from_json(entry["hi"])
            interior = tuple(_event_from_json(v) for v in entry.get("interior", ()))
            regions.append(box_region(lo, hi, interior))
        q_points = [_event_from_json(v) for v in doc["q_points"]]
        worldlines = {
            str(name): [_event_from_json(v) for v in verts]
            for name, verts in doc["worldlines"].items()
        }
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed layout document: {exc!r}") from exc
    layout = Layout(regions, q_points, worldlines)
    if layout.dim != dim:
        raise ValueError(f"declared dim {dim} does not match events ({layout.dim})")
    return layout
