"""Workload definitions: seeded input files, task lists and independent checks.

Nothing here imports latticeknots.  The inputs (tabulation JSON, vertex CSV)
are written by this module's own geometry, so the program under test only
ever sees files, and the checks below do not trust the program.

A task is a dict:

- ``key``: names the task and its inputs; the reference table uses it.
- ``argv``: the ``latticeknots`` command line, or ``None`` for a library call.
- ``call``: for a library call, its name and arguments.
- ``move_from``: for a move, the key of the ``--check-irreducible`` task whose
  reported witnesses supply ``--stick/--direction/--amount``.
- ``files``: output files (relative to the work directory) whose digests are
  checked; a directory stands for every file under it.
- ``check``: name and arguments of an independent check in ``CHECKS``.
- ``ref``: whether a recorded reference exists for the task.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# The (p, p+1) torus-knot tabulation: the type sequence repeats this period
# p times and the n-th stick of each axis takes the n-th row of its column.
_PERIOD = ("z+", "x+", "y+", "z-", "x-", "y-")
_STEP = {
    "x+": (1, 0, 0), "x-": (-1, 0, 0),
    "y+": (0, 1, 0), "y-": (0, -1, 0),
    "z+": (0, 0, 1), "z-": (0, 0, -1),
}


def _x_entry(p: int, row: int) -> int:
    if row == 1:
        return 2
    if row == 2 * p - 2:
        return p + 1
    if row == 2 * p - 1:
        return p
    if row == 2 * p:
        return 1
    return row // 2 + 2


def _y_entry(p: int, row: int) -> int:
    if row == 2 * p - 1:
        return 2 * p - 1
    if row == 2 * p:
        return p
    return p - 1 if row % 2 == 1 else p


def _z_entry(p: int, row: int) -> int:
    return p if row == 2 * p else 2 * p - row


def torus_columns(p: int) -> dict[str, list[int]]:
    rows = range(1, 2 * p + 1)
    return {
        "x": [_x_entry(p, r) for r in rows],
        "y": [_y_entry(p, r) for r in rows],
        "z": [_z_entry(p, r) for r in rows],
    }


def torus_json(p: int) -> str:
    """Tabulation JSON of T(p, p+1), byte for byte as ``generate --p`` writes it."""
    data = {
        "types": list(_PERIOD * p),
        "lengths": torus_columns(p),
        "origin": [0, 0, 0],
        "torus_p": p,
    }
    return json.dumps(data, sort_keys=True, separators=(", ", ": ")) + "\n"


def torus_corners(p: int) -> list[tuple[int, int, int]]:
    """Stick start points of T(p, p+1), walked from the origin."""
    columns = torus_columns(p)
    used = {"x": 0, "y": 0, "z": 0}
    pos = (0, 0, 0)
    corners = []
    for t in _PERIOD * p:
        axis = t[0]
        length = columns[axis][used[axis]]
        used[axis] += 1
        corners.append(pos)
        d = _STEP[t]
        pos = (pos[0] + d[0] * length, pos[1] + d[1] * length, pos[2] + d[2] * length)
    assert pos == (0, 0, 0)
    return corners


def torus_edge_length(p: int) -> int:
    return 5 * p * p + 3 * p - 2


# Small unknots, as cyclic corner lists (edges, sticks in the comments).
UNKNOTS = {
    "ell6": [(0, 0, 0), (2, 0, 0), (2, 1, 0), (1, 1, 0), (1, 2, 0), (0, 2, 0)],  # 8, 6
    "saddle6": [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1), (0, 0, 1)],  # 6, 6
    "u8": [(0, 0, 0), (3, 0, 0), (3, 3, 0), (2, 3, 0), (2, 1, 0), (1, 1, 0),
           (1, 3, 0), (0, 3, 0)],  # 16, 8
    "crank10": [(0, 0, 0), (2, 0, 0), (2, 2, 0), (2, 2, 2), (0, 2, 2), (0, 1, 2),
                (1, 1, 2), (1, 1, 1), (0, 1, 1), (0, 0, 1)],  # 14, 10
}


def base_corners(name: str) -> list[tuple[int, int, int]]:
    if name == "trefoil":
        return torus_corners(2)
    if name == "t34":
        return torus_corners(3)
    return list(UNKNOTS[name])


def perimeter(corners: list[tuple[int, int, int]]) -> int:
    n = len(corners)
    return sum(
        sum(abs(a - b) for a, b in zip(corners[k], corners[(k + 1) % n]))
        for k in range(n)
    )


# Dilated workload: one knot per slot, (base, factor), 640 to 2880 edges and
# at most 18 sticks, so edges far outnumber sticks.  The seed picks one of
# VARIANTS placements per slot; a variant changes the factor by 0 or 1, the
# isometry, the starting corner, the orientation and the translation.  The
# catalogue is finite so that every task has a recorded reference.
SLOTS = (
    ("u8", 40),
    ("t34", 16),
    ("saddle6", 180),
    ("trefoil", 55),
    ("ell6", 200),
    ("t34", 40),
    ("crank10", 150),
    ("trefoil", 120),
)
VARIANTS = 4
SEARCH_FACTOR = 16  # the search starts from the trefoil dilated to 384 edges
SEARCH_SEEDS = 4
OVERSIZE_A = 100_000  # the a x 1 rectangle, n = 2a + 2 = 200,002 edges

_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def dilated_corners(slot: int, variant: int) -> list[tuple[int, int, int]]:
    """The slot's base, dilated and placed as the variant says."""
    name, factor = SLOTS[slot]
    factor += variant % 2
    perm = _PERMS[(slot + variant) % 6]
    signs = [1 if (variant * 5 + slot) >> k & 1 else -1 for k in range(3)]
    offset = (variant * 7 - 11, slot * 3 - variant, 5 - slot - variant)
    corners = []
    for c in base_corners(name):
        scaled = tuple(signs[k] * factor * c[perm[k]] + offset[k] for k in range(3))
        corners.append(scaled)
    start = (3 * variant + slot) % len(corners)
    corners = corners[start:] + corners[:start]
    if variant >= 2:
        corners = corners[:1] + corners[:0:-1]
    return corners


def vertex_csv(corners: list[tuple[int, int, int]]) -> str:
    return "x,y,z\n" + "".join(f"{x},{y},{z}\n" for x, y, z in corners)


def _dilated_key(slot: int, variant: int) -> str:
    name, factor = SLOTS[slot]
    return f"dilated/{name}x{factor}/v{variant}"


# ---------------------------------------------------------------- task lists

SIZES = {
    # torus: p range, largest p run with --oracle, survey --max-p
    # census: --max-length
    # dilated: number of slots, search move budget
    "full": {"torus": (18, 12, 16), "census": 12, "dilated": (len(SLOTS), 300)},
    "tiny": {"torus": (4, 4, 4), "census": 8, "dilated": (2, 30)},
}

# Isometry classes of conformations per edge length, and the distortion-one
# survivors among them (lengths 4 and 6 only).
CENSUS_CLASSES = {4: 1, 6: 3, 8: 11, 10: 73, 12: 755}
CENSUS_DISTORTION_ONE = {4: 1, 6: 1}


def _write_input(work: Path, name: str, text: str) -> str:
    """Write one input file; return its path relative to the work dir."""
    path = work / "inputs" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return f"inputs/{name}"


def _task(key, argv=None, *, files=(), check=None, ref=True, **extra):
    task = {"key": key, "argv": argv, "files": list(files), "check": check, "ref": ref}
    task.update(extra)
    return task


def _torus(work: Path, size: str, seed: int) -> list[dict]:
    max_p, oracle_p, survey_p = SIZES[size]["torus"]
    tasks = []
    for p in range(2, max_p + 1):
        src = _write_input(work, f"t{p:02d}.json", torus_json(p))
        k = f"torus/p{p:02d}"
        gen = f"out/gen_p{p:02d}.json"
        obj = f"out/t{p:02d}.obj"
        tasks += [
            _task(f"{k}/generate", ["generate", "--p", str(p), "-o", gen],
                  files=[gen], check=["same_bytes", gen, src]),
            _task(f"{k}/validate", ["validate", src], check=["torus_validate", p]),
            _task(f"{k}/distortion",
                  ["distortion", src, "--pairs"] + (["--oracle"] if p <= oracle_p else []),
                  check=["oracle_agrees"] if p <= oracle_p else None),
            _task(f"{k}/reduce", ["reduce", src, "--check-irreducible"]),
            _task(f"{k}/export", ["export", src, "--format", "obj", "-o", obj],
                  files=[obj], check=["obj_vertices", obj, torus_edge_length(p)]),
        ]
    tasks.append(_task(f"torus/survey{survey_p}", ["survey", "--max-p", str(survey_p)],
                       check=["survey", survey_p]))
    return tasks


def _census(work: Path, size: str, seed: int) -> list[dict]:
    length = SIZES[size]["census"]
    return [
        _task(f"census/enumerate{length}", ["enumerate", "--max-length", str(length)],
              check=["census_counts", length]),
        _task(f"census/classify{length}",
              ["enumerate", "--max-length", str(length), "--classify",
               "--golden-dir", "out/golden"],
              files=["out/golden"], check=["census_distortion_one", length]),
    ]


def _dilated(work: Path, size: str, seed: int) -> list[dict]:
    slots, budget = SIZES[size]["dilated"]
    rng = random.Random(seed)
    picks = [(slot, rng.randrange(VARIANTS)) for slot in range(slots)]
    return dilated_tasks(work, picks, budget, rng.randrange(SEARCH_SEEDS))


def dilated_tasks(work: Path, picks, budget: int, search_seed: int) -> list[dict]:
    """Tasks on the picked (slot, variant) knots, the search and the rectangle."""
    tasks = []
    for slot, variant in picks:
        corners = dilated_corners(slot, variant)
        edges = perimeter(corners)
        sticks = len(corners)
        src = _write_input(work, f"d{slot}.csv", vertex_csv(corners))
        k = _dilated_key(slot, variant)
        reduced = f"out/d{slot}_reduced.csv"
        exported = f"out/d{slot}_reduced.json"
        tasks += [
            _task(f"{k}/validate", ["validate", src],
                  check=["knot_summary", sticks, edges]),
            _task(f"{k}/distortion", ["distortion", src, "--pairs"]),
            _task(f"{k}/reduce", ["reduce", src, "--check-irreducible"]),
            _task(f"{k}/move", ["reduce", src, "-o", reduced], move_from=f"{k}/reduce",
                  files=[reduced], check=["move_rows", reduced, edges]),
            _task(f"{k}/export", ["export", reduced, "--format", "json", "-o", exported],
                  files=[exported], check=["json_sticks", exported, sticks]),
        ]
    start = [tuple(SEARCH_FACTOR * v for v in c) for c in base_corners("trefoil")]
    search_src = _write_input(work, "search.csv", vertex_csv(start))
    tasks.append(_task(
        f"dilated/search/x{SEARCH_FACTOR}/b{budget}/s{search_seed}",
        call=["search_low_distortion", search_src, budget, search_seed],
        check=["search", budget],
    ))
    a = OVERSIZE_A
    rect = _write_input(work, "rect.csv",
                        vertex_csv([(0, 0, 0), (a, 0, 0), (a, 1, 0), (0, 1, 0)]))
    tasks.append(_task(f"dilated/oversize{a}", ["distortion", rect, "--pairs"],
                       check=["rectangle", a], ref=False))
    return tasks


WORKLOADS = {"torus": _torus, "dilated": _dilated, "census": _census}


def prepare(workload: str, size: str, seed: int, work: Path) -> list[dict]:
    """Write the workload's inputs under ``work/inputs`` and return its tasks."""
    return WORKLOADS[workload](work, size, seed)


# ------------------------------------------------------ independent checks
# Each returns None when the output is right, else a one-line reason.  They
# read the task's stdout, its command line as run, and its files (paths
# relative to the work dir).


def check_same_bytes(work, stdout, argv, out_path, in_path):
    if (work / out_path).read_bytes() != (work / in_path).read_bytes():
        return f"{out_path} differs from the generated input {in_path}"


def check_torus_validate(work, stdout, argv, p):
    lines = stdout.splitlines()
    want = [
        f"simple, closed, {6 * p} sticks, length {torus_edge_length(p)}",
        f"torus structure checks (p={p}): ok",
    ]
    if lines != want:
        return f"validate p={p} printed {lines!r}"


def check_oracle_agrees(work, stdout, argv):
    if stdout.splitlines()[-1:] != ["oracle: agree"]:
        return "no 'oracle: agree' line"


def check_obj_vertices(work, stdout, argv, obj, n):
    lines = (work / obj).read_text().splitlines()
    if len(lines) != n + 1 or not all(line.startswith("v ") for line in lines[:n]):
        return f"{obj} does not hold {n} vertices and one line element"
    if lines[n] != "l " + " ".join(str(i) for i in range(1, n + 1)) + " 1":
        return f"{obj} line element is not the closed cycle"


def check_survey(work, stdout, argv, max_p):
    rows = stdout.splitlines()[1:]
    if len(rows) != max_p - 1:
        return f"survey printed {len(rows)} rows, expected {max_p - 1}"
    for p, row in zip(range(2, max_p + 1), rows):
        cells = row.split(",")
        if cells[:3] != [str(p), str(torus_edge_length(p)), str(6 * p)]:
            return f"survey row for p={p} reads {row!r}"


def _count_table(stdout: str) -> dict[int, int]:
    table = {}
    for line in stdout.splitlines()[1:]:
        length, count = line.split(",")
        if int(count):
            table[int(length)] = int(count)
    return table


def check_census_counts(work, stdout, argv, length):
    want = {k: v for k, v in CENSUS_CLASSES.items() if k <= length}
    got = _count_table(stdout)
    if got != want:
        return f"class counts {got} != {want}"


def check_census_distortion_one(work, stdout, argv, length):
    got = _count_table(stdout)
    if got != CENSUS_DISTORTION_ONE:
        return f"distortion-one counts {got} != {CENSUS_DISTORTION_ONE}"
    names = sorted(p.name for p in (work / "out/golden").iterdir())
    if names != ["distortion_one_len04_0.csv", "distortion_one_len06_0.csv"]:
        return f"golden files {names}"


def check_knot_summary(work, stdout, argv, sticks, edges):
    if stdout.splitlines() != [f"simple, closed, {sticks} sticks, length {edges}"]:
        return f"validate printed {stdout!r}"


def check_move_rows(work, stdout, argv, path, edges):
    amount = int(argv[argv.index("--amount") + 1])
    rows = len((work / path).read_text().splitlines()) - 1
    if rows != edges - 2 * amount:
        return f"{path} has {rows} vertices, expected {edges} - 2 * {amount}"


def check_json_sticks(work, stdout, argv, path, sticks):
    data = json.loads((work / path).read_text())
    if len(data["types"]) != sticks:
        return f"{path} has {len(data['types'])} sticks, expected {sticks}"


def check_search(work, stdout, argv, budget):
    _value, applied, _vertices = stdout.split()
    if not 0 < int(applied) <= budget:
        return f"search applied {applied} moves of a budget of {budget}"


def check_rectangle(work, stdout, argv, a):
    want = f"{a + 1}\n{a // 2} {3 * a // 2 + 1}\n"
    if stdout != want:
        return f"rectangle a={a}: printed {stdout[:60]!r}, closed form {want!r}"


CHECKS = {
    name[len("check_"):]: fn for name, fn in globals().items() if name.startswith("check_")
}
