"""Serialization: tabulation JSON, vertex CSV, and OBJ polylines.

All writers are deterministic byte-for-byte: fixed key order, fixed field
order, ``\\n`` newlines.  Readers raise ValueError with a line reference on
malformed input; knot-level validity problems surface as KnotError from the
constructors.
"""

from __future__ import annotations

import json
from typing import Any

from .knot import (
    LatticeKnot,
    StickType,
    Tabulation,
    build_knot,
    knot_from_vertices,
)
from .lattice import Point


def dump_tabulation_json(
    tab: Tabulation, origin: Point = (0, 0, 0), torus_p: int | None = None
) -> str:
    out: dict[str, Any] = {
        "types": [t.value for t in tab.types],
        "lengths": {
            "x": list(tab.column(0)),
            "y": list(tab.column(1)),
            "z": list(tab.column(2)),
        },
        "origin": list(origin),
    }
    if torus_p is not None:
        out["torus_p"] = torus_p
    return json.dumps(out, sort_keys=True, separators=(", ", ": ")) + "\n"


def _is_int(value: Any) -> bool:
    # bool subclasses int, but JSON true/false is not a length or coordinate
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value: Any) -> bool:
    return isinstance(value, list) and all(_is_int(v) for v in value)


def load_tabulation_json(text: str) -> tuple[Tabulation, Point, int | None]:
    """Parse the JSON object form; returns (tabulation, origin, torus tag)."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("tabulation JSON must be an object")
    for key in ("types", "lengths"):
        if key not in data:
            raise ValueError(f"tabulation JSON lacks the {key!r} key")
    if not isinstance(data["types"], list):
        raise ValueError("'types' must be a list of stick types")
    types = [StickType.parse(t) for t in data["types"]]
    lengths = data["lengths"]
    if not isinstance(lengths, dict):
        raise ValueError("'lengths' must be an object with x/y/z arrays")
    columns = []
    for name in ("x", "y", "z"):
        column = lengths.get(name, [])
        if not _is_int_list(column):
            raise ValueError(f"'lengths.{name}' must be a list of integers")
        columns.append(tuple(column))
    origin_raw = data.get("origin", [0, 0, 0])
    if not _is_int_list(origin_raw) or len(origin_raw) != 3:
        raise ValueError("'origin' must be a list of three integers")
    origin = (origin_raw[0], origin_raw[1], origin_raw[2])
    torus_p = data.get("torus_p")
    if torus_p is not None and not _is_int(torus_p):
        raise ValueError("'torus_p' must be an integer")
    if torus_p is not None and torus_p < 2:
        raise ValueError("'torus_p' must be an integer >= 2")
    tab = Tabulation(tuple(types), (columns[0], columns[1], columns[2]))
    return tab, origin, torus_p


def knot_to_vertex_csv(K: LatticeKnot) -> str:
    """One row per lattice point in cyclic order, critical vertices (the
    stick starts) flagged."""
    starts = {stick.start for stick in K.sticks}
    lines = ["x,y,z,critical"]
    for i, (x, y, z) in enumerate(K.vertices):
        lines.append(f"{x},{y},{z},{1 if i in starts else 0}")
    return "\n".join(lines) + "\n"


def knot_from_vertex_csv(text: str) -> LatticeKnot:
    """Rebuild a knot from its vertex CSV; the critical column is ignored."""
    points: list[Point] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line.lower().startswith("x"):
            continue
        fields = line.split(",")
        if len(fields) not in (3, 4):
            raise ValueError(f"line {lineno}: expected 3 or 4 fields, got {len(fields)}")
        try:
            x, y, z = (int(fields[k]) for k in range(3))
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer coordinate") from None
        points.append((x, y, z))
    if not points:
        raise ValueError("no vertex rows found")
    return knot_from_vertices(points)


def knot_to_obj(K: LatticeKnot) -> str:
    """OBJ polyline: every lattice point as a vertex, one closed line element."""
    lines = [f"v {v[0]} {v[1]} {v[2]}" for v in K.vertices]
    cycle = " ".join(str(i) for i in range(1, K.edge_length + 1))
    lines.append(f"l {cycle} 1")
    return "\n".join(lines) + "\n"


def knot_to_json(K: LatticeKnot, torus_p: int | None = None) -> str:
    """Canonical tabulation JSON for a knot (reproducible serialized form)."""
    tab, origin = K.canonical_tabulation()
    return dump_tabulation_json(tab, origin, torus_p)


def load_knot_text(text: str, kind: str) -> tuple[LatticeKnot, int | None]:
    """Build a knot from file content; ``kind`` is 'json' or 'csv'."""
    if kind == "json":
        tab, origin, torus_p = load_tabulation_json(text)
        return build_knot(tab, origin), torus_p
    if kind == "csv":
        return knot_from_vertex_csv(text), None
    raise ValueError(f"unknown input kind {kind!r}")


def sniff_kind(path: str, text: str) -> str:
    """Decide whether a file holds tabulation JSON or vertex CSV."""
    lowered = path.lower()
    if lowered.endswith(".json"):
        return "json"
    if lowered.endswith(".csv"):
        return "csv"
    head = text.lstrip()[:1]
    if head == "{":
        return "json"
    if head:
        return "csv"
    raise ValueError("empty input file")
