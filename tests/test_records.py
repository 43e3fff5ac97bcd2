"""The records' semantics: every report, move and tabulation is an immutable
named tuple, and ``Stick`` a mutable slots class that compares, hashes and
prints over its seven fields."""

import pytest

from latticeknots import (
    Direction,
    IrreducibilityReport,
    LengthMismatch,
    ReductionMove,
    Stick,
    StickType,
    Tabulation,
    check_distortion_one_structure,
    is_irreducible,
    search_low_distortion,
    torus_knot,
    vertex_distortion,
    verify_structure,
)
from latticeknots.certificate import certify_distortion
from latticeknots.reduction import _plan_move
from latticeknots.torus import verify_x_level_2
from conftest import trefoil_tabulation

STICK_ARGS = (StickType.ZP, 3, 0, (0, 0, 0), (0, 0, 3), (0, 0, 0), (0, 0, 3))


def _records(unit_square, rectangle):
    return [
        trefoil_tabulation(),
        vertex_distortion(unit_square),
        check_distortion_one_structure(unit_square),
        ReductionMove(0, Direction.WITH, 1),
        _plan_move(rectangle, 0, Direction.WITH),
        is_irreducible(rectangle),
        search_low_distortion(rectangle, 5, 0),
        verify_x_level_2(3, torus_knot(3)),
        verify_structure(2, torus_knot(2)),
        certify_distortion(unit_square),
    ]


def test_records_refuse_every_field_write(unit_square, rectangle):
    records = _records(unit_square, rectangle)
    assert len({type(record) for record in records}) == len(records)
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_stick_is_not_frozen():
    stick = Stick(*STICK_ARGS)
    stick.length = 4
    assert stick.length == 4


def test_equal_fields_give_equal_records_and_hashes(rectangle):
    pairs = [
        (Stick(*STICK_ARGS), torus_knot(2).sticks[0]),
        (trefoil_tabulation(), trefoil_tabulation()),
        (ReductionMove(2, Direction.AGAINST, 3), ReductionMove(2, Direction.AGAINST, 3)),
        (vertex_distortion(rectangle), vertex_distortion(rectangle)),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b), a


def test_stick_equality_reads_all_seven_fields():
    stick = Stick(*STICK_ARGS)
    for k in range(7):
        other = list(STICK_ARGS)
        other[k] = StickType.XP if k == 0 else 5 if k in (1, 2) else (0, 1, 0)
        assert stick != Stick(*other), k
    # like the dataclass it replaces, a stick equals no tuple of its fields
    assert stick != STICK_ARGS


def test_stick_repr_keeps_the_field_form():
    assert repr(Stick(*STICK_ARGS)) == (
        "Stick(type=<StickType.ZP: 'z+'>, length=3, start=0, start_point=(0, 0, 0), "
        "end_point=(0, 0, 3), lo=(0, 0, 0), hi=(0, 0, 3))"
    )


def test_irreducible_is_derived_from_the_witnesses(rectangle, trefoil):
    for report in (is_irreducible(rectangle), is_irreducible(trefoil),
                   IrreducibilityReport(())):
        assert report.irreducible == (not report.witnesses)
    assert not is_irreducible(rectangle).irreducible
    assert is_irreducible(trefoil).irreducible


def test_tabulation_checks_its_columns_when_built():
    types = (StickType.XP, StickType.YP, StickType.XM, StickType.YM)
    faults = [
        ((1,), "x column has 1 entries but the type sequence uses 2 x-sticks"),
        ((1, 0), "x column holds a nonpositive length within its first 2 entries"),
        ((1, 1, 7), "x column has unconsumed positive entries past row 2"),
    ]
    for x, message in faults:
        with pytest.raises(LengthMismatch) as caught:
            Tabulation(types, (x, (1, 1), ()))
        assert str(caught.value) == message
        with pytest.raises(LengthMismatch, match=message):
            Tabulation(types, ((1, 1), (1, 1), ()))._replace(lengths=(x, (1, 1), ()))
