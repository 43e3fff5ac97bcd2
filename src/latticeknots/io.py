"""Serialization: tabulation JSON, vertex CSV, and OBJ polylines.

All writers are deterministic byte-for-byte: fixed key order, fixed field
order, ``\\n`` newlines.  Readers raise ValueError with a line reference on
malformed input; knot-level validity problems surface as KnotError from the
constructors.  A vertex CSV is read as coordinate columns, and the vertex CSV
and OBJ writers emit one join per stick: per-point work runs in C.
"""

from __future__ import annotations

import json
from itertools import repeat
from typing import Any

from .knot import (
    LatticeKnot,
    StickType,
    Tabulation,
    build_knot,
    knot_from_columns,
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


_BLOCK = 1 << 12  # characters of whole lines read, or OBJ indices joined, at a time
_PAD = {2: ",", 3: ""}  # by its commas, what makes a row of 3 or 4 fields one of 4


def _rows(K: LatticeKnot, head: str, sep: str, flags: tuple[str, str]) -> str:
    """A line per lattice point from vertex 0, one join per stick piece:
    ``head``, the coordinates joined by ``sep``, then ``flags[1]`` at a
    stick's start and ``flags[0]`` elsewhere."""
    out = []
    for stick, a, b in K.pieces():
        x, y, z = p = stick.start_point
        if a == 0:
            out.append(f"{head}{x}{sep}{y}{sep}{z}{flags[1]}\n")
        if (a := max(a, 1)) < b:
            axis, sign = stick.type.axis, stick.type.sign
            before = (head, f"{head}{x}{sep}", f"{head}{x}{sep}{y}{sep}")[axis]
            tail = (f"{sep}{y}{sep}{z}", f"{sep}{z}", "")[axis] + f"{flags[0]}\n"
            run = map(str, range(p[axis] + sign * a, p[axis] + sign * b, sign))
            out.append(before + (tail + before).join(run) + tail)
    return "".join(out)


def knot_to_vertex_csv(K: LatticeKnot) -> str:
    """One row per lattice point in cyclic order, critical vertices (the
    stick starts) flagged."""
    return "x,y,z,critical\n" + _rows(K, "", ",", (",0", ",1"))


def _bad_line(text: str) -> ValueError:
    """The error of the first malformed line, read line by line."""
    for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1):
        fields = line.split(",")
        if not line or (lineno == 1 and line.lower().startswith("x")):
            continue
        if len(fields) not in (3, 4):
            return ValueError(f"line {lineno}: expected 3 or 4 fields, got {len(fields)}")
        try:
            list(map(int, fields[:3]))
        except ValueError:
            return ValueError(f"line {lineno}: non-integer coordinate")
    raise AssertionError("no malformed line")


def knot_from_vertex_csv(text: str) -> LatticeKnot:
    """Rebuild a knot from its vertex CSV; the critical column is ignored.

    A block of lines is one join and split of its rows, each padded to 4
    fields, so that a coordinate column is a slice: no row becomes a list or
    tuple.  Only a malformed row has the lines read one by one, to name it.
    """
    columns: tuple[list[int], list[int], list[int]] = ([], [], [])
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _BLOCK) + 1 or len(text)
        lines = text[start:stop].splitlines()
        if start == 0 and lines and lines[0].strip().lower().startswith("x"):
            del lines[0]
        rows, start = list(filter(str.strip, lines)), stop
        try:
            pads = map(_PAD.__getitem__, map(str.count, rows, repeat(",")))
            fields = ",".join(map(str.__add__, rows, pads)).split(",")
            for axis, column in enumerate(columns):
                column += map(int, fields[axis:4 * len(rows):4])
        except (KeyError, ValueError):  # a row of other than 3 or 4 fields, or a non-integer
            raise _bad_line(text) from None
    if not columns[0]:
        raise ValueError("no vertex rows found")
    return knot_from_columns(*columns)


def knot_to_obj(K: LatticeKnot) -> str:
    """OBJ polyline: every lattice point as a vertex, one closed line element."""
    points = _rows(K, "v ", " ", ("", ""))  # first, to refuse a knot too long to list
    n = K.edge_length  # the indices joined a block at a time, to hold one block's strings
    blocks = (range(a, min(a + _BLOCK, n + 1)) for a in range(1, n + 1, _BLOCK))
    return f"{points}l {' '.join(' '.join(map(str, block)) for block in blocks)} 1\n"


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
