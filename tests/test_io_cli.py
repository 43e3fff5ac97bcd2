import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import latticeknots
import latticeknots.certificate
import latticeknots.cli
import latticeknots.explorer
import latticeknots.torus
from latticeknots import (
    KnotError,
    NonAxisParallel,
    NotClosed,
    SelfIntersection,
    Tabulation,
    build_knot,
    enumerate_conformations,
    knot_from_vertices,
    random_lattice_knot,
    torus_knot,
)
from latticeknots.cli import main
from latticeknots.io import (
    dump_tabulation_json,
    knot_from_vertex_csv,
    knot_to_obj,
    knot_to_vertex_csv,
    load_tabulation_json,
    sniff_kind,
)
from latticeknots.torus import generate_torus_tabulation, verify_structure
from conftest import (
    double_loop_corners,
    isometry_image,
    reference_knot_from_vertex_csv,
    reference_knot_from_vertices,
    reference_knot_to_obj,
    reference_knot_to_vertex_csv,
)

SRC = Path(latticeknots.__file__).resolve().parent.parent

TREFOIL_JSON = (
    '{"lengths": {"x": [2, 3, 2, 1], "y": [1, 2, 3, 2], "z": [3, 2, 1, 2]}, '
    '"origin": [0, 0, 0], "torus_p": 2, '
    '"types": ["z+", "x+", "y+", "z-", "x-", "y-", '
    '"z+", "x+", "y+", "z-", "x-", "y-"]}\n'
)


def test_tabulation_json_round_trip():
    tab = generate_torus_tabulation(3)
    text = dump_tabulation_json(tab, torus_p=3)
    parsed, origin, torus_p = load_tabulation_json(text)
    assert parsed == tab
    assert origin == (0, 0, 0)
    assert torus_p == 3
    assert dump_tabulation_json(parsed, origin, torus_p) == text


def test_tabulation_json_golden_bytes():
    tab = generate_torus_tabulation(2)
    assert dump_tabulation_json(tab, torus_p=2) == TREFOIL_JSON


def test_tabulation_json_rejects_malformed():
    with pytest.raises(ValueError):
        load_tabulation_json('{"types": ["x+"]}')
    with pytest.raises(ValueError):
        load_tabulation_json('{"types": ["w+"], "lengths": {"x": [1]}}')
    with pytest.raises(ValueError):
        load_tabulation_json(
            '{"types": ["x+"], "lengths": {"x": [1.5], "y": [], "z": []}}'
        )
    with pytest.raises(json.JSONDecodeError):
        load_tabulation_json("{not json")


def test_vertex_csv_round_trip(trefoil):
    text = knot_to_vertex_csv(trefoil)
    again = knot_from_vertex_csv(text)
    assert again == trefoil
    assert knot_to_vertex_csv(again) == text


def test_vertex_csv_flags_critical_vertices(unit_square):
    text = knot_to_vertex_csv(unit_square)
    lines = text.splitlines()
    assert lines[0] == "x,y,z,critical"
    assert lines[1] == "0,0,0,1"
    assert all(line.endswith(",1") for line in lines[1:])


def test_vertex_csv_accepts_three_columns():
    K = knot_from_vertex_csv("0,0,0\n1,0,0\n1,1,0\n0,1,0\n")
    assert K.edge_length == 4


def test_vertex_csv_reports_bad_lines():
    with pytest.raises(ValueError, match="line 2"):
        knot_from_vertex_csv("x,y,z,critical\n1,2\n")
    with pytest.raises(ValueError, match="line 3"):
        knot_from_vertex_csv("0,0,0\n1,0,0\n1,q,0\n")
    with pytest.raises(ValueError):
        knot_from_vertex_csv("")


SQUARE_ROWS = "0,0,0\n1,0,0\n1,1,0\n0,1,0\n"

# (text, exception class, exact message) of every way a vertex CSV fails
MALFORMED_CSV = [
    pytest.param("x,y,z\n0,0,0\n1,0\n1,1,0\n0,1,0\n", ValueError,
                 "line 3: expected 3 or 4 fields, got 2", id="two-fields"),
    pytest.param("0,0,0\n1,0,0\n1,1,0,1,7\n0,1,0\n", ValueError,
                 "line 3: expected 3 or 4 fields, got 5", id="five-fields"),
    pytest.param("0,0,0\n1,0,0\n1,q,0\n0,1,0\n", ValueError,
                 "line 3: non-integer coordinate", id="non-integer"),
    pytest.param("0,0,0\n1.0,0,0\n1,1,0\n0,1,0\n", ValueError,
                 "line 2: non-integer coordinate", id="decimal-point"),
    pytest.param("0,,0\n1,0,0\n1,1,0\n", ValueError,
                 "line 1: non-integer coordinate", id="empty-field"),
    pytest.param("0,0,0\n1,q,0\n1,1\n0,1,0\n", ValueError,
                 "line 2: non-integer coordinate", id="first-fault-wins"),
    pytest.param("x,y,z\n\n0,0,0\n  \n1,0,0\n1,1\n", ValueError,
                 "line 6: expected 3 or 4 fields, got 2", id="blank-lines-counted"),
    pytest.param("\nx,y,z\n" + SQUARE_ROWS, ValueError,
                 "line 2: non-integer coordinate", id="header-after-blank-line"),
    pytest.param("0,0,0\nx,y,z\n1,0,0\n1,1,0\n0,1,0\n", ValueError,
                 "line 2: non-integer coordinate", id="header-on-line-2"),
    pytest.param("\ufeffx,y,z\n" + SQUARE_ROWS, ValueError,
                 "line 1: non-integer coordinate", id="byte-order-mark"),
    pytest.param("", ValueError, "no vertex rows found", id="empty"),
    pytest.param("x,y,z,critical\n", ValueError, "no vertex rows found", id="header-only"),
    pytest.param("\n \n\t\n", ValueError, "no vertex rows found", id="blank-only"),
    pytest.param("0,0,0\n", NotClosed, "a vertex cycle needs at least 3 points",
                 id="one-row"),
    pytest.param("x,y,z\n0,0,0\n1,0,0\n", NotClosed,
                 "a vertex cycle needs at least 3 points", id="two-rows"),
    pytest.param("0,0,0\n1,0,0\n1,0,0\n1,1,0\n0,1,0\n", NonAxisParallel,
                 "(1, 0, 0) -> (1, 0, 0) does not move along exactly one axis",
                 id="zero-step"),
    pytest.param("0,0,0\n1,0,0\n0,0,0\n", NonAxisParallel,
                 "(0, 0, 0) -> (0, 0, 0) does not move along exactly one axis",
                 id="zero-closing-step"),
    pytest.param("0,0,0\n1,1,0\n1,0,0\n", NonAxisParallel,
                 "(0, 0, 0) -> (1, 1, 0) does not move along exactly one axis",
                 id="diagonal-step"),
    pytest.param("0,0,0\n1,0,0\n1,1,0\n0,1,1\n", NonAxisParallel,
                 "(1, 1, 0) -> (0, 1, 1) does not move along exactly one axis",
                 id="diagonal-closing-pair"),
    pytest.param("0,0,0\n1,0,0\n2,0,0\n1,0,0\n1,1,0\n0,1,0\n", SelfIntersection,
                 "self-intersection at (1, 0, 0) between sticks 0 and 2", id="doubling-back"),
]

# rows the reader accepts, each the unit square
ACCEPTED_CSV = [
    pytest.param("x,y,z\r\n0,0,0\r\n1,0,0\r\n1,1,0\r\n0,1,0\r\n", id="crlf"),
    pytest.param("  X , y , z\n 0 , 0 ,0\n\t1,0 , 0 \n1, 1,0\n0 ,1,0  \n",
                 id="whitespace-around-fields"),
    pytest.param("0,0,0,yes\n1,0,0,\n1,1,0,1\n0,1,0, q\n", id="fourth-field-ignored"),
    pytest.param("\n0,0,0\n\n1,0,0,1\n1,1,0\n\n0,1,0\n\n", id="blank-lines-and-mixed-widths"),
]


@pytest.mark.parametrize("text, error, message", MALFORMED_CSV)
def test_vertex_csv_malformed_rows_give_exact_messages(capsys, tmp_path, text, error, message):
    with pytest.raises(error) as raised:
        knot_from_vertex_csv(text)
    assert str(raised.value) == message
    # the command line prints the same message, one line, with its exit code
    target = tmp_path / "bad.csv"
    target.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(target))
    if text.startswith("\ufeff"):  # the command line reads past a byte-order mark
        assert (code, out) == (0, "simple, closed, 4 sticks, length 4\n")
        return
    assert out == ""
    if issubclass(error, KnotError):
        assert (code, err) == (1, f"invalid knot: {message}\n")
    else:
        assert (code, err) == (2, f"error: {message}\n")


@pytest.mark.parametrize("text", ACCEPTED_CSV)
def test_vertex_csv_accepted_row_forms(text, unit_square):
    assert knot_from_vertex_csv(text).sticks == unit_square.sticks


def test_cli_reads_files_saved_with_a_byte_order_mark(capsys, tmp_path):
    csv = tmp_path / "square.csv"
    csv.write_text("x,y,z\n" + SQUARE_ROWS, encoding="utf-8-sig")
    assert csv.read_bytes().startswith(b"\xef\xbb\xbf")
    code, out, err = run_cli(capsys, "validate", str(csv))
    assert (code, out, err) == (0, "simple, closed, 4 sticks, length 4\n", "")
    tab = tmp_path / "trefoil.json"
    tab.write_text(TREFOIL_JSON, encoding="utf-8-sig")
    code, out, err = run_cli(capsys, "validate", str(tab))
    assert (code, err) == (0, "")
    assert out == "simple, closed, 12 sticks, length 24\ntorus structure checks (p=2): ok\n"
    plain = tmp_path / "plain.json"
    plain.write_text(TREFOIL_JSON, encoding="utf-8")
    exports = [run_cli(capsys, "export", str(f), "--format", "json") for f in (tab, plain)]
    assert exports[0] == exports[1] and exports[0][0] == 0


# --- the column reader and stick writers against the per-point references ---

_SIGNED_PERMUTATIONS = [((0, 1, 2), (1, 1, 1)), ((1, 2, 0), (-1, 1, 1)),
                        ((2, 0, 1), (1, -1, -1)), ((0, 2, 1), (-1, -1, 1))]


def _io_corpus():
    """The census to 10 edges, 300 random knots, torus p = 2..11 and every
    rectangle to 8 x 8 in each coordinate plane."""
    rng = random.Random(5)
    knots = list(enumerate_conformations(10))
    knots += [random_lattice_knot(rng, 60) for _ in range(300)]
    knots += [torus_knot(p) for p in range(2, 12)]
    for perm, signs in _SIGNED_PERMUTATIONS[:3]:
        for a in range(1, 9):
            for b in range(1, 9):
                corners = [(0, 0, 0), (a, 0, 0), (a, b, 0), (0, b, 0)]
                knots.append(knot_from_vertices(
                    [isometry_image((perm, signs), c) for c in corners]))
    return knots


def _cycles(knots):
    """Point cycles of the corpus: each knot's vertices, and for 400 of them
    a moved copy restarted inside its longest stick, so that vertex 0 lies
    inside the last stick, reversed every other time, and its corners."""
    for k, K in enumerate(knots):
        yield list(K.vertices)
        if k % 2 == 0 and k < 800:
            longest = max(K.sticks, key=lambda s: s.length)
            start = (longest.start + longest.length // 2) % K.edge_length
            iso = _SIGNED_PERMUTATIONS[k % 4]
            points = [tuple(c + 3 for c in isometry_image(iso, v))
                      for v in K.vertices[start:] + K.vertices[:start]]
            if k % 4 == 2:
                points = points[:1] + points[:0:-1]
            yield points
        yield [K.vertices[s.start] for s in K.sticks]


def test_column_builder_and_stick_writers_match_the_per_point_references():
    knots = _io_corpus()
    inside = 0
    for cycle in _cycles(knots):
        K = knot_from_vertices(cycle)
        assert K.sticks == reference_knot_from_vertices(cycle).sticks, cycle
        inside += K.sticks[0].start > 0
        csv = knot_to_vertex_csv(K)
        assert csv == reference_knot_to_vertex_csv(K)
        assert knot_to_obj(K) == reference_knot_to_obj(K)
        assert knot_from_vertex_csv(csv).sticks == K.sticks
        three = "".join(f"{x},{y},{z}\n" for x, y, z in cycle)
        assert knot_from_vertex_csv(three).sticks == reference_knot_from_vertex_csv(three).sticks
    assert inside >= 300


def _outcome(read, text):
    try:
        return read(text).sticks
    except (ValueError, KnotError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("text", [p.values[0] for p in MALFORMED_CSV + ACCEPTED_CSV])
def test_vertex_csv_reader_matches_the_per_line_reference(text):
    assert _outcome(knot_from_vertex_csv, text) == _outcome(reference_knot_from_vertex_csv, text)


def test_vertex_csv_reader_past_its_first_block_matches_the_reference():
    # a header, a malformed row or a blank line on the first line of a later
    # block of the reader is read as it would be anywhere else
    text = knot_to_vertex_csv(torus_knot(12))
    cut = text.index("\n", latticeknots.io._BLOCK) + 1
    for line in ("x,y,z", "1,2", "  ", "\ufeff0,0,0"):
        changed = text[:cut] + line + "\n" + text[cut:]
        assert (_outcome(knot_from_vertex_csv, changed)
                == _outcome(reference_knot_from_vertex_csv, changed)), line
    assert _outcome(knot_from_vertex_csv, text) == torus_knot(12).sticks


def test_obj_writer_past_its_first_block_of_indices_matches_the_reference():
    # the closing line's indices are joined a block at a time
    block = latticeknots.io._BLOCK
    for n in (block - 2, block, block + 2, 2 * block, 2 * block + 2, 3 * block + 4):
        a = n // 2 - 1
        K = knot_from_vertices([(0, 0, 0), (a, 0, 0), (a, 1, 0), (0, 1, 0)])
        assert K.edge_length == n
        assert knot_to_obj(K) == reference_knot_to_obj(K)


def test_column_builder_names_the_first_bad_pair_as_the_reference_does():
    square = [(0, 0, 0), (2, 0, 0), (2, 3, 0), (0, 3, 0)]
    cycles = [square[:k] + [p] + square[k:] for k in range(5)
              for p in [(1, 1, 1), (2, 0, 0), (0, 3, 0), (5, 5, 0), (1, 0, 0)]]
    cycles += [square[:2], square[1:], [(0, 0, 0), (4, 0, 0), (0, 0, 0), (0, 1, 0)]]
    for cycle in cycles:
        assert (_outcome(knot_from_vertices, cycle)
                == _outcome(reference_knot_from_vertices, cycle)), cycle


def test_obj_export(unit_square):
    assert knot_to_obj(unit_square) == (
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nl 1 2 3 4 1\n"
    )
    obj = knot_to_obj(torus_knot(7))
    v_lines = [line for line in obj.splitlines() if line.startswith("v ")]
    assert len(v_lines) == 264


def test_sniff_kind(tmp_path):
    assert sniff_kind("knot.json", "") == "json"
    assert sniff_kind("knot.csv", "") == "csv"
    assert sniff_kind("data", '  {"types": []}') == "json"
    assert sniff_kind("data", "0,0,0") == "csv"
    with pytest.raises(ValueError):
        sniff_kind("data", "   ")


# --- CLI ------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_generate_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "generate", "--p", "2")
    assert code == 0
    assert out == TREFOIL_JSON


def test_cli_generate_p7_type_count(capsys, tmp_path):
    target = tmp_path / "t7.json"
    code, _, _ = run_cli(capsys, "generate", "--p", "7", "-o", str(target))
    assert code == 0
    data = json.loads(target.read_text())
    assert len(data["types"]) == 42


def test_cli_generate_rejects_p1(capsys):
    code, _, err = run_cli(capsys, "generate", "--p", "1")
    assert code == 2
    assert "at least 2" in err


def test_cli_validate_family_file(capsys, tmp_path, monkeypatch):
    target = tmp_path / "t5.json"
    run_cli(capsys, "generate", "--p", "5", "-o", str(target))
    built = []
    for module in (latticeknots.cli, latticeknots.torus):
        monkeypatch.setattr(
            module, "torus_knot", lambda p: built.append(p) or torus_knot(p)
        )
    code, out, _ = run_cli(capsys, "validate", str(target))
    assert code == 0
    assert "simple, closed, 30 sticks, length 138" in out
    assert "torus structure checks (p=5): ok" in out
    assert built == [5]  # the family member is built once


def test_cli_validate_names_the_failed_checks(capsys, tmp_path, monkeypatch):
    target = tmp_path / "t5.json"
    run_cli(capsys, "generate", "--p", "5", "-o", str(target))
    # checked as the next family member, every size and closed form is off
    monkeypatch.setattr(
        latticeknots.cli, "verify_structure", lambda p, K: verify_structure(p + 1, K)
    )
    code, out, _ = run_cli(capsys, "validate", str(target))
    assert code == 1
    assert out == (
        "simple, closed, 30 sticks, length 138\n"
        "torus structure checks (p=5): FAILED (edge length, stick count, "
        "partial sums, arcs per level, x-level 2, z+ initials, last x+ initials)\n"
    )


def test_cli_validate_tampered_table(capsys, tmp_path):
    data = json.loads(TREFOIL_JSON)
    data["lengths"]["z"] = [2, 1, 1, 2]
    del data["torus_p"]
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "validate", str(target))
    assert code == 1
    assert "self-intersection at (1, 0, 2)" in err


def test_cli_validate_wrongly_tagged_file(capsys, tmp_path):
    data = json.loads(TREFOIL_JSON)
    data["torus_p"] = 3
    target = tmp_path / "mistagged.json"
    target.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "validate", str(target))
    assert code == 1
    assert "does not match" in err


def test_cli_validate_empty_file(capsys, tmp_path):
    target = tmp_path / "empty.json"
    target.write_text("")
    code, _, err = run_cli(capsys, "validate", str(target))
    assert code == 2


SQUARE_FIELDS = (
    '"types": ["x+", "y+", "x-", "y-"], '
    '"lengths": {"x": [1, 1], "y": [1, 1], "z": []}'
)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(
            '{"types": ["x+", "y+", "x-", "y-"], "lengths": {"x": 5}}',
            id="lengths-int",
        ),
        pytest.param(
            '{"types": ["x+", "y+", "x-", "y-"], '
            '"lengths": {"x": [1, 1], "y": null}}',
            id="lengths-null",
        ),
        pytest.param(
            '{"types": ["x+", "y+", "x-", "y-"], '
            '"lengths": {"x": [true, 1], "y": [1, 1], "z": []}}',
            id="lengths-bool",
        ),
        pytest.param(
            '{"types": 5, "lengths": {"x": [1, 1], "y": [1, 1], "z": []}}',
            id="types-int",
        ),
        pytest.param("{" + SQUARE_FIELDS + ', "origin": 5}', id="origin-int"),
        pytest.param(
            "{" + SQUARE_FIELDS + ', "origin": [true, 0, 0]}', id="origin-bool"
        ),
        pytest.param("{" + SQUARE_FIELDS + ', "torus_p": true}', id="torus_p-bool"),
        # a tag below the family's first member is refused on loading, so
        # validate prints nothing before it exits
        pytest.param("{" + SQUARE_FIELDS + ', "torus_p": 1}', id="torus_p-1"),
        pytest.param("{" + SQUARE_FIELDS + ', "torus_p": 0}', id="torus_p-0"),
        pytest.param("{" + SQUARE_FIELDS + ', "torus_p": -3}', id="torus_p-minus-3"),
    ],
)
def test_cli_rejects_malformed_json_integers(capsys, tmp_path, text):
    target = tmp_path / "bad.json"
    target.write_text(text)
    for command in (("export", str(target), "--format", "csv"), ("validate", str(target))):
        code, out, err = run_cli(capsys, *command)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err


def _cap_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


LONG_JSON = (
    '{"types": ["x+", "y+", "x-", "y-"], '
    '"lengths": {"x": [1000000000000, 1000000000000], "y": [1, 1]}}'
)
FAR_CSV = "0,0,0\n1000000000000,0,0\n1000000000000,1,0\n0,1,0\n"
LONG_SUMMARY = "simple, closed, 4 sticks, length 2000000000002\n"
OBJ = ("export", "--format", "obj")


@pytest.mark.parametrize(
    "name, text, command, code, out",
    [
        pytest.param("long.json", LONG_JSON, ("validate",), 0, LONG_SUMMARY,
                     id="json-length-1e12"),
        pytest.param("far.csv", FAR_CSV, ("validate",), 0, LONG_SUMMARY,
                     id="csv-coordinate-1e12"),
        pytest.param("long.json", LONG_JSON, OBJ, 2, "", id="json-length-1e12-obj"),
        pytest.param("far.csv", FAR_CSV, OBJ, 2, "", id="csv-coordinate-1e12-obj"),
        pytest.param("deep.json", "[" * 100_000 + "]" * 100_000, ("validate",), 2, "",
                     id="json-deep"),
        pytest.param(
            "mistagged.json", "{" + SQUARE_FIELDS + ', "torus_p": 100000000}',
            ("validate",), 1, "simple, closed, 4 sticks, length 4\n",
            id="torus-tag-1e8",
        ),
    ],
)
def test_cli_refuses_huge_input_cleanly(tmp_path, name, text, command, code, out):
    # a child process under a 1 GiB address-space cap, so that the outcome
    # does not depend on how the host overcommits memory; a knot of 10**12
    # edges validates from its sticks, but listing its points is refused
    target = tmp_path / name
    target.write_text(text)
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    result = subprocess.run(
        [sys.executable, "-m", "latticeknots.cli", command[0], str(target), *command[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_cap_address_space,
    )
    assert result.returncode == code, result.stderr
    assert result.stdout == out
    assert len(result.stderr.splitlines()) == (code != 0), result.stderr
    assert "Traceback" not in result.stderr


def _torus_scaled(p, factor):
    tab = generate_torus_tabulation(p)
    columns = tuple(tuple(factor * n for n in column) for column in tab.lengths)
    return dump_tabulation_json(Tabulation(tab.types, columns))


E12 = 10**12
SQUARE_1E12_CSV = f"0,0,0\n{E12},0,0\n{E12},{E12},0\n0,{E12},0\n"


@pytest.mark.parametrize(
    "name, text, summary",
    [
        pytest.param("square.csv", SQUARE_1E12_CSV,
                     f"simple, closed, 4 sticks, length {4 * E12}\n", id="square-1e12"),
        pytest.param("t5.json", _torus_scaled(5, 10**9),
                     f"simple, closed, 30 sticks, length {138 * 10**9}\n",
                     id="torus5-times-1e9"),
    ],
)
def test_cli_answers_lengths_up_to_1e12_from_sticks(tmp_path, name, text, summary):
    # nothing but listing points grows with the edge length, so each command
    # ends within a second under the 1 GiB address-space cap
    target = tmp_path / name
    target.write_text(text)
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    outputs = []
    for command in (["validate"], ["distortion", "--pairs"],
                    ["reduce", "--check-irreducible"]):
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "latticeknots.cli", command[0], str(target),
             *command[1:]],
            env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=_cap_address_space,
        )
        elapsed = time.perf_counter() - start
        assert (result.returncode, result.stderr) == (0, ""), command
        assert elapsed < 1.0, (command, elapsed)
        outputs.append(result.stdout)
    K, _ = latticeknots.io.load_knot_text(text, "csv" if name.endswith(".csv") else "json")
    report = latticeknots.vertex_distortion(K)
    pairs = "".join(f"{i} {j}\n" for i, j in report.realizing_pairs)
    assert outputs[0] == summary
    assert outputs[1] == f"{latticeknots.format_exact(report.value)}\n{pairs}"
    assert outputs[2].splitlines()[0] == "reducible"
    if name == "square.csv":
        # the midpoints of opposite sides, 2 * 10**12 apart along the knot
        assert outputs[1] == f"2\n{E12 // 2} {5 * E12 // 2}\n{3 * E12 // 2} {7 * E12 // 2}\n"


@pytest.mark.parametrize("command", [
    ("export", "--format", "csv"),
    ("export", "--format", "obj"),
    ("reduce", "--stick", "0", "--direction", "with", "--amount", "1", "-o", "out.csv"),
    ("distortion", "--oracle"),
])
def test_cli_refuses_to_list_too_many_points(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "square.csv").write_text(SQUARE_1E12_CSV)
    code, out, err = run_cli(capsys, command[0], "square.csv", *command[1:])
    assert code == 2
    assert out == ""
    assert err == (f"error: the knot has {4 * E12 - 2 * (command[0] == 'reduce')} "
                   f"lattice points; listing them is refused past "
                   f"{latticeknots.knot.MAX_POINTS}\n")
    assert not (tmp_path / "out.csv").exists()


def test_cli_refuses_to_list_too_many_realizing_pairs(tmp_path):
    # about 10**9 realizing pairs: distortion --pairs is refused before it
    # lists them, under the 1 GiB address-space cap, while plain distortion,
    # which reads only the value, and validate answer from the sticks
    L = 10**9
    target = tmp_path / "loop.csv"
    target.write_text("".join(f"{x},{y},{z}\n" for x, y, z in double_loop_corners(L)))
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    answers = {"validate": f"simple, closed, 10 sticks, length {4 * L + 10}\n",
               "distortion": f"{2 * L + 3}\n"}
    for command, code in ((["validate"], 0), (["distortion"], 0),
                          (["distortion", "--pairs"], 2)):
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "latticeknots.cli", command[0], str(target),
             *command[1:]],
            env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=_cap_address_space,
        )
        elapsed = time.perf_counter() - start
        assert result.returncode == code, (command, result.stderr)
        assert elapsed < 1.0, (command, elapsed)
        if code:
            assert result.stdout == ""
            assert result.stderr == (f"error: listing more than {latticeknots.knot.MAX_POINTS}"
                                     f" realizing pairs is refused\n")
        else:
            assert result.stdout == answers[command[0]]


@pytest.mark.slow
def test_cli_round_trips_a_rectangle_of_max_points_edges_under_the_address_cap(tmp_path):
    # an a x 1 rectangle has 2a + 2 edges: listed, written as a vertex CSV,
    # read back and written as OBJ, each command under the 1 GiB cap
    n = latticeknots.knot.MAX_POINTS
    a = n // 2 - 1
    (tmp_path / "corners.csv").write_text(f"0,0,0\n{a},0,0\n{a},1,0\n0,1,0\n")
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    outputs = []
    for command in (["export", "corners.csv", "--format", "csv", "-o", "rect.csv"],
                    ["validate", "rect.csv"],
                    ["export", "rect.csv", "--format", "obj", "-o", "rect.obj"]):
        result = subprocess.run(
            [sys.executable, "-m", "latticeknots.cli", *command], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120, preexec_fn=_cap_address_space,
        )
        assert (result.returncode, result.stderr) == (0, ""), command
        outputs.append(result.stdout)
    assert outputs == ["", f"simple, closed, 4 sticks, length {n}\n", ""]
    csv, obj = (tmp_path / "rect.csv").read_bytes(), (tmp_path / "rect.obj").read_bytes()
    assert csv.count(b"\n") == n + 1 and csv.count(b",1\n") == 4
    assert obj.count(b"\nv ") == n - 1 and obj.endswith(f" {n} 1\n".encode())


# Fuzzed inputs keep every number small: a large coordinate or length is a
# valid knot that is merely big, and test_cli_refuses_huge_input_cleanly
# covers those under an address-space cap.
_SMALL = st.integers(-3, 6)
_TYPE_NAMES = st.sampled_from(["x+", "x-", "y+", "y-", "z+", "z-"])
_JSON_LEAVES = st.none() | st.booleans() | _SMALL | _TYPE_NAMES | st.text(max_size=4)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(
        st.sampled_from(["types", "lengths", "origin", "torus_p", "x", "y", "z"]),
        inner,
        max_size=4,
    ),
    max_leaves=16,
)
_TABULATIONS = st.fixed_dictionaries(
    {
        "types": st.lists(_TYPE_NAMES, max_size=12),
        "lengths": st.fixed_dictionaries(
            {}, optional={axis: st.lists(_SMALL, max_size=5) for axis in "xyz"}
        ),
    },
    optional={"origin": st.lists(_SMALL, max_size=4), "torus_p": _SMALL},
)


@st.composite
def _axis_walks(draw):
    """Moves (axis, nonzero delta) of a walk from the origin, often closed
    and sometimes simple, so that some inputs are knots."""
    moves = draw(
        st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 3).filter(bool)),
                 max_size=8)
    )
    if draw(st.booleans()):
        end = [sum(d for a, d in moves if a == axis) for axis in range(3)]
        moves += [(axis, -end[axis]) for axis in range(3) if end[axis]]
    return moves


def _walk_tabulation(moves):
    lengths = {"x": [], "y": [], "z": []}
    for axis, delta in moves:
        lengths["xyz"[axis]].append(abs(delta))
    types = ["xyz"[axis] + ("+" if delta > 0 else "-") for axis, delta in moves]
    return {"types": types, "lengths": lengths}


def _walk_rows(moves):
    point, rows = [0, 0, 0], ["0,0,0"]
    for axis, delta in moves:
        point[axis] += delta
        rows.append(",".join(map(str, point)))
    return rows[:-1] if point == [0, 0, 0] else rows


# Valid knots that the mutations below start from.
_SEED_TABULATIONS = [json.loads(TREFOIL_JSON), json.loads("{" + SQUARE_FIELDS + "}")]
_SEED_ROWS = [
    knot_to_vertex_csv(K).splitlines()[1:] for K in (torus_knot(2), torus_knot(3))
]


@st.composite
def _mutated_tabulations(draw):
    data = dict(draw(st.sampled_from(_SEED_TABULATIONS)))
    key = draw(st.sampled_from(["types", "lengths", "origin", "torus_p"]))
    choice = draw(st.integers(0, 2))
    if choice == 1:
        data.pop(key, None)
    elif choice == 2:
        data[key] = draw(_SMALL if key == "torus_p" else _JSON_VALUES)
    return data


_JSON_TEXTS = (
    st.one_of(
        _mutated_tabulations(),
        _axis_walks().map(_walk_tabulation),
        _TABULATIONS,
        _JSON_VALUES,
    ).map(json.dumps)
    | st.text(alphabet='{}[]",: 0123456789xyz+-truefalsn', max_size=40)
)


@st.composite
def _vertex_csv_texts(draw):
    """The rows of a walk or of a torus knot, with some rows dropped or
    moved, and junk lines and a header mixed in."""
    if draw(st.booleans()):
        lines = list(draw(st.sampled_from(_SEED_ROWS)))
        for _ in range(draw(st.integers(0, 2))):
            row = lines.pop(draw(st.integers(0, len(lines) - 1)))
            if draw(st.booleans()):
                lines.insert(draw(st.integers(0, len(lines))), row)
    else:
        lines = _walk_rows(draw(_axis_walks()))
    for _ in range(draw(st.integers(0, 2))):
        junk = draw(st.text(alphabet=",-x \t01", max_size=6))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    if draw(st.booleans()):
        lines.insert(0, "x,y,z,critical")
    return "\n".join(lines) + "\n"


_FUZZ_COMMANDS = st.sampled_from(
    [
        ["validate"],
        ["distortion", "--pairs"],
        ["reduce", "--check-irreducible"],
        ["export", "--format", "csv"],
        ["export", "--format", "json"],
        ["export", "--format", "obj"],
    ]
)
_FUZZ_SETTINGS = settings(
    derandomize=True,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


def _run_fuzzed(tmp_path, name, text, command):
    target = tmp_path / name
    target.write_text(text)
    assert main([command[0], str(target), *command[1:]]) in (0, 1, 2)


@_FUZZ_SETTINGS
@given(
    text=_JSON_TEXTS,
    name=st.sampled_from(["knot.json", "knot.txt"]),
    command=_FUZZ_COMMANDS,
)
def test_cli_fuzzed_json_exits_cleanly(tmp_path, text, name, command):
    _run_fuzzed(tmp_path, name, text, command)


@_FUZZ_SETTINGS
@given(
    text=_vertex_csv_texts(),
    name=st.sampled_from(["knot.csv", "knot.txt"]),
    command=_FUZZ_COMMANDS,
)
def test_cli_fuzzed_vertex_csv_exits_cleanly(tmp_path, text, name, command):
    _run_fuzzed(tmp_path, name, text, command)


def test_cli_validate_missing_file(capsys):
    code, _, _ = run_cli(capsys, "validate", "/no/such/file.json")
    assert code == 2


def test_cli_distortion_square(capsys, tmp_path):
    target = tmp_path / "square.csv"
    target.write_text("0,0,0\n1,0,0\n1,1,0\n0,1,0\n")
    code, out, _ = run_cli(capsys, "distortion", str(target))
    assert code == 0
    assert out == "1\n"


def test_cli_distortion_torus_with_oracle_and_pairs(capsys, tmp_path):
    target = tmp_path / "t4.json"
    run_cli(capsys, "generate", "--p", "4", "-o", str(target))
    code, out, _ = run_cli(
        capsys, "distortion", str(target), "--pairs", "--oracle"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "41"
    assert lines[-1] == "oracle: agree"
    i, j = map(int, lines[1].split())
    assert 0 <= i < j < 90


def test_cli_distortion_oracle_golden_on_torus(capsys, tmp_path):
    # recorded from the breadth-first oracle; the certificate closes on
    # each of these knots and must print the same bytes
    golden = (Path(__file__).parent / "golden"
              / "torus_distortion_pairs_oracle.txt").read_text()
    blocks = []
    for p in range(2, 13):
        target = tmp_path / f"t{p}.json"
        run_cli(capsys, "generate", "--p", str(p), "-o", str(target))
        code, out, err = run_cli(capsys, "distortion", str(target), "--pairs", "--oracle")
        assert (code, err) == (0, "")
        blocks.append(f"# p={p}\n{out}")
    assert "".join(blocks) == golden


@pytest.mark.parametrize("corners", [
    [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
    [(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)],
])
def test_cli_distortion_oracle_falls_back_to_bfs(capsys, tmp_path, monkeypatch,
                                                 corners):
    # these knots do not close at shell 1 and cannot afford shell 2, so the
    # certificate gives up and the all-pairs oracle decides
    K = knot_from_vertices(corners)
    assert not latticeknots.cli.certify_distortion(K).certified
    bfs_calls = []
    monkeypatch.setattr(
        latticeknots.cli, "vertex_distortion_oracle",
        lambda K: bfs_calls.append(K) or latticeknots.vertex_distortion_oracle(K),
    )
    target = tmp_path / "knot.csv"
    target.write_text(knot_to_vertex_csv(K))
    code, out, _ = run_cli(capsys, "distortion", str(target), "--oracle")
    assert code == 0
    assert out.splitlines()[-1] == "oracle: agree"
    assert len(bfs_calls) == 1


def test_cli_distortion_oracle_mismatch_exits_one(capsys, tmp_path, monkeypatch):
    target = tmp_path / "t4.json"
    run_cli(capsys, "generate", "--p", "4", "-o", str(target))
    wrong = latticeknots.certificate.Certificate(True, Fraction(40), ((38, 79),))
    monkeypatch.setattr(latticeknots.cli, "certify_distortion", lambda K: wrong)
    code, out, err = run_cli(capsys, "distortion", str(target), "--oracle")
    assert code == 1
    assert out == "41\n"
    assert err == "oracle mismatch: kernel 41 vs oracle 40\n"


def test_cli_distortion_long_rectangle_pairs(capsys, tmp_path):
    # 200,002 edges on 4 sticks: the maximum is the one antipodal pair
    # across the middle of the two long sides
    a = 100_000
    K = knot_from_vertices([(0, 0, 0), (a, 0, 0), (a, 1, 0), (0, 1, 0)])
    target = tmp_path / "rect.csv"
    target.write_text(knot_to_vertex_csv(K))
    code, out, _ = run_cli(capsys, "distortion", str(target), "--pairs")
    assert code == 0
    assert out == f"{a + 1}\n{a // 2} {3 * a // 2 + 1}\n"


def test_cli_import_leaves_numpy_unloaded():
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    probe = "import sys, latticeknots.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_cli_reduce_check_irreducible(capsys, tmp_path):
    target = tmp_path / "t3.json"
    run_cli(capsys, "generate", "--p", "3", "-o", str(target))
    code, out, _ = run_cli(capsys, "reduce", str(target), "--check-irreducible")
    assert code == 0
    assert out.strip() == "irreducible"


def test_cli_reduce_check_irreducible_takes_no_move_options(capsys, tmp_path):
    source = tmp_path / "rect.csv"
    source.write_text("0,0,0\n2,0,0\n2,1,0\n0,1,0\n")
    out_path = tmp_path / "out.csv"
    for extra in (
        ["-o", str(out_path)],
        ["--stick", "0"],
        ["--direction", "with"],
        ["--amount", "1"],
        ["-o", str(out_path), "--stick", "0", "--direction", "with", "--amount", "1"],
    ):
        code, out, err = run_cli(
            capsys, "reduce", str(source), "--check-irreducible", *extra
        )
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and "--check-irreducible" in err
    assert not out_path.exists()


def test_cli_reduce_applies_move(capsys, tmp_path):
    source = tmp_path / "rect.csv"
    source.write_text("0,0,0\n2,0,0\n2,1,0\n0,1,0\n")
    out_path = tmp_path / "reduced.csv"
    code, _, _ = run_cli(
        capsys,
        "reduce", str(source),
        "--stick", "0", "--direction", "with_orientation", "--amount", "1",
        "-o", str(out_path),
    )
    assert code == 0
    reduced = knot_from_vertex_csv(out_path.read_text())
    assert reduced.edge_length == 4


def test_cli_reduce_collision_exits_one(capsys, tmp_path):
    target = tmp_path / "t2.json"
    run_cli(capsys, "generate", "--p", "2", "-o", str(target))
    code, _, err = run_cli(
        capsys,
        "reduce", str(target),
        "--stick", "0", "--direction", "with", "--amount", "1",
    )
    assert code == 1
    assert "collides" in err


def test_cli_reduce_requires_move_or_check(capsys, tmp_path):
    target = tmp_path / "t2.json"
    run_cli(capsys, "generate", "--p", "2", "-o", str(target))
    code, _, err = run_cli(capsys, "reduce", str(target))
    assert code == 2


def test_cli_export_csv_round_trip(capsys, tmp_path):
    source = tmp_path / "t2.json"
    run_cli(capsys, "generate", "--p", "2", "-o", str(source))
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    run_cli(capsys, "export", str(source), "--format", "csv", "-o", str(first))
    run_cli(capsys, "export", str(first), "--format", "csv", "-o", str(second))
    assert first.read_text() == second.read_text()


def test_cli_export_obj(capsys, tmp_path):
    source = tmp_path / "square.csv"
    source.write_text("0,0,0\n1,0,0\n1,1,0\n0,1,0\n")
    code, out, _ = run_cli(capsys, "export", str(source), "--format", "obj")
    assert code == 0
    assert out == "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nl 1 2 3 4 1\n"


def test_cli_export_json_is_canonical(capsys, tmp_path):
    source = tmp_path / "t2.json"
    run_cli(capsys, "generate", "--p", "2", "-o", str(source))
    code, out1, _ = run_cli(capsys, "export", str(source), "--format", "json")
    assert code == 0
    tab, origin, _ = load_tabulation_json(out1)
    rebuilt = build_knot(tab, origin)
    assert frozenset(rebuilt.vertices) == frozenset(torus_knot(2).vertices)
    _, out2, _ = run_cli(capsys, "export", str(source), "--format", "json")
    assert out1 == out2


def test_cli_survey(capsys):
    code, out, _ = run_cli(capsys, "survey", "--max-p", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("p,edge_length,stick_count,delta_v")
    row6 = next(line for line in lines if line.startswith("6,"))
    cells = row6.split(",")
    assert cells[1] == "196"
    assert cells[3] == "89"
    assert cells[4:6] == ["89", "MATCH"]


def test_cli_survey_even_only(capsys):
    code, out, _ = run_cli(capsys, "survey", "--max-p", "7", "--even-formulas")
    assert code == 0
    ps = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert ps == ["2", "4", "6"]


def test_cli_survey_cap(capsys):
    code, _, err = run_cli(capsys, "survey", "--max-p", "201")
    assert code == 2
    assert "cap" in err


def test_cli_survey_refuses_max_p_below_two(capsys):
    # as generate --p 1 does: no family member has p < 2, so no table
    for max_p in ("1", "0", "-3"):
        code, out, err = run_cli(capsys, "survey", "--max-p", max_p)
        assert (code, out) == (2, "")
        assert err == "error: --max-p must be at least 2\n"


def test_cli_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--max-length", "8")
    assert code == 0
    assert out.splitlines() == [
        "edge_length,conformations",
        "4,1",
        "6,3",
        "8,11",
    ]


def test_cli_enumerate_refuses_past_the_cap(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--max-length", "18")
    assert (code, out) == (2, "")
    assert "cap 16" in err
    for length in ("18", "5", "2"):
        for extra in ((), ("--classify",)):
            code, out, err = run_cli(capsys, "enumerate", "--max-length", length, *extra)
            assert (code, out) == (2, "")
            assert err.startswith("error: max_edge_length")
    # the caps are constants, not options
    for argv in (
        ["enumerate", "--max-length", "4", "--cap", "4"],
        ["survey", "--cap", "30"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_cli_enumerate_counts_build_no_knot(capsys, monkeypatch):
    # the counts read the census walks; only --classify builds knots
    def refuse(*args):
        raise AssertionError("a knot was built")

    monkeypatch.setattr(latticeknots.explorer, "LatticeKnot", refuse)
    code, out, _ = run_cli(capsys, "enumerate", "--max-length", "10")
    assert code == 0
    assert out.splitlines()[1:] == ["4,1", "6,3", "8,11", "10,73"]


def test_cli_enumerate_classify_with_golden_dir(capsys, tmp_path):
    golden = tmp_path / "golden"
    code, out, _ = run_cli(
        capsys,
        "enumerate", "--max-length", "6", "--classify",
        "--golden-dir", str(golden),
    )
    assert code == 0
    assert out.splitlines() == [
        "edge_length,distortion_one_count",
        "4,1",
        "6,1",
    ]
    files = sorted(f.name for f in golden.iterdir())
    assert files == [
        "distortion_one_len04_0.csv",
        "distortion_one_len06_0.csv",
    ]
    square = knot_from_vertex_csv((golden / files[0]).read_text())
    assert square.edge_length == 4


def test_cli_enumerate_unusable_golden_dir_prints_nothing(capsys, tmp_path):
    # the directory is made before the header, so a file in its way is an
    # i/o error with stdout empty, as for a refused length
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    for golden in (taken, taken / "golden"):
        code, out, err = run_cli(
            capsys, "enumerate", "--max-length", "6", "--classify",
            "--golden-dir", str(golden),
        )
        assert (code, out) == (1, "")
        assert err.startswith("i/o error")
    assert taken.read_text() == "not a directory\n"


def test_cli_enumerate_golden_dir_needs_classify(capsys, tmp_path):
    golden = tmp_path / "golden"
    code, out, err = run_cli(
        capsys, "enumerate", "--max-length", "8", "--golden-dir", str(golden)
    )
    assert (code, out) == (2, "")
    assert "--classify" in err
    assert not golden.exists()


def test_cli_main_reuses_one_parser(capsys, tmp_path):
    # calls after the first, with other subcommands, print what a fresh
    # process prints, a refusal included
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    for argv in (
        ["generate", "--p", "3"],
        ["survey", "--max-p", "4"],
        ["enumerate", "--max-length", "6", "--golden-dir", str(tmp_path / "gd")],
        ["enumerate", "--max-length", "6"],
    ):
        fresh = subprocess.run(
            [sys.executable, "-m", "latticeknots.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run_cli(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert latticeknots.cli.build_parser() is latticeknots.cli.build_parser()


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
