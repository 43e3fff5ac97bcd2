import random
from collections import Counter
from itertools import groupby

import pytest

from latticeknots import (
    ISOMETRIES,
    ReductionError,
    StickType,
    apply_isometry,
    canonical_steps,
    classify_distortion_one,
    enumerate_conformations,
    random_lattice_knot,
    search_low_distortion,
    torus_knot,
    vertex_distortion,
)
from latticeknots import explorer
from latticeknots.explorer import (
    _DX,
    _DY,
    _DZ,
    _candidates,
    _canonical_codes,
    _closed_walks,
)
from latticeknots.lattice import affine_rank

# Frozen regression values from the exhaustive backtracking enumeration.
EXPECTED_COUNTS = {4: 1, 6: 3, 8: 11, 10: 73}

# Rooted, oriented self-avoiding polygons on the cubic lattice (OEIS A001413).
ROOTED_POLYGONS = {4: 24, 6: 264, 8: 3312, 10: 48240, 12: 762096}

# Test-only reference for canonical forms: every image of an encoded step
# sequence under the 48 isometries, both orientations and all n rotations,
# with step images taken from apply_isometry.
STEPS = list(StickType)
CODE = {t: i for i, t in enumerate(STEPS)}
BY_STEP = {t.step: t for t in STEPS}
PAD = bytes(range(6, 256))
IMAGE_TABLES = [
    bytes(CODE[BY_STEP[apply_isometry(iso, t.step)]] for t in STEPS) + PAD
    for iso in ISOMETRIES
]
OPPOSITE_TABLE = bytes(CODE[t.opposite] for t in STEPS) + PAD


def all_images(codes: bytes):
    """The 96n images of the sequence, with repeats."""
    n = len(codes)
    for seq in (codes, codes[::-1].translate(OPPOSITE_TABLE)):
        for table in IMAGE_TABLES:
            doubled = seq.translate(table) * 2
            for i in range(n):
                yield doubled[i : i + n]


def brute_canonical(steps) -> tuple[int, ...]:
    return tuple(min(all_images(bytes(CODE[t] for t in steps))))


def reference_closed_walks(max_length: int, emit) -> None:
    """Every self-avoiding closed walk of length 4..max_length with first
    step x+, first step off the x-axis y+ and first z step z+, unpruned
    otherwise: at least one walk per class, the slow path that the census's
    pruned search is checked against.
    """
    steps = [0]
    base = 2 * max_length + 1
    visited: set[int] = set()

    def rec(x, y, z, seen_y, seen_z):
        if x == 0 and y == 0 and z == 0:
            if len(steps) > 2:
                emit(bytes(steps))
            return
        if abs(x) + abs(y) + abs(z) > max_length - len(steps):
            return
        key = (x * base + y) * base + z
        if key in visited:
            return
        visited.add(key)
        for code in range(6):
            if code == 3 and not seen_y:
                continue
            if code >= 4 and (not seen_y or (code == 5 and not seen_z)):
                continue
            steps.append(code)
            rec(
                x + _DX[code],
                y + _DY[code],
                z + _DZ[code],
                seen_y or code in (2, 3),
                seen_z or code in (4, 5),
            )
            steps.pop()
        visited.discard(key)

    rec(1, 0, 0, False, False)


def collect(search, max_length: int) -> list[bytes]:
    walks: list[bytes] = []
    search(max_length, walks.append)
    return walks


def test_length_four_is_only_the_unit_square():
    knots = list(enumerate_conformations(4))
    assert len(knots) == 1
    assert knots[0].vertices == ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0))


def length_counts(knots):
    return dict(Counter(K.edge_length for K in knots))


def test_conformation_counts_frozen():
    assert length_counts(enumerate_conformations(10)) == EXPECTED_COUNTS


def test_length_six_classes():
    hexagons = [K for K in enumerate_conformations(6) if K.edge_length == 6]
    assert len(hexagons) == 3
    planar = [K for K in hexagons if affine_rank(list(K.vertices)) == 2]
    # one planar class (the 2x1 rectangle); the other two bend out of plane
    assert len(planar) == 1
    assert planar[0].bounding_box().max_corner in ((2, 1, 0), (1, 2, 0))
    values = sorted(vertex_distortion(K).value for K in hexagons)
    assert values == [1, 3, 3]


def test_enumeration_is_isometry_canonical():
    rng = random.Random(5)
    for K in enumerate_conformations(8):
        reference = canonical_steps(K.steps)
        for _ in range(3):
            iso = rng.choice(ISOMETRIES)
            image = K.transform(iso)
            image = image.rotate_start(rng.randrange(image.edge_length))
            if rng.random() < 0.5:
                image = image.reverse()
            assert canonical_steps(image.steps) == reference


def test_canonical_steps_matches_brute_force_on_all_walks():
    pending = set(collect(reference_closed_walks, 12))
    assert len(pending) == 17187
    assert {len(walk) for walk in pending} == {4, 6, 8, 10, 12}
    while pending:
        walk = pending.pop()
        # members of one orbit share its least image: one brute force each
        orbit = set(all_images(walk))
        least = tuple(min(orbit))
        for member in (pending & orbit) | {walk}:
            assert canonical_steps([STEPS[c] for c in member]) == least
        pending -= orbit


def test_pruned_walks_give_the_reference_classes():
    reference = {_canonical_codes(w) for w in collect(reference_closed_walks, 12)}
    for length in range(4, 13, 2):
        pruned = {_canonical_codes(w) for w in collect(_closed_walks, length)}
        assert pruned == {c for c in reference if len(c) <= length}


def test_pruned_walks_include_each_class_least_image():
    walks = collect(_closed_walks, 12)
    assert len(walks) == len(set(walks)) == 3351
    classes = {_canonical_codes(w) for w in walks}
    assert len(classes) == 843
    assert classes <= set(walks)


def test_pruned_walks_obey_the_four_rules():
    for walk in collect(_closed_walks, 12):
        runs = [len(list(run)) for _, run in groupby(walk)]
        longest = runs[0]
        assert walk[:longest] == bytes(longest) and walk[longest] == 2
        assert max(runs) == longest
        z_steps = [code for code in walk if code >= 4]
        assert not z_steps or z_steps[0] == 4
        assert walk[-1] != 0


def test_candidate_count_is_the_stabiliser_order():
    for walk in collect(reference_closed_walks, 10):
        candidates = _candidates(walk)
        least = min(candidates)
        images = list(all_images(walk))
        assert least == min(images)
        assert candidates.count(least) == images.count(least)


def test_canonical_steps_matches_brute_force_on_images():
    rng = random.Random(11)
    knots = [random_lattice_knot(rng, 40) for _ in range(30)]
    knots += [torus_knot(p) for p in range(2, 6)]
    for K in knots:
        reference = brute_canonical(K.steps)
        assert canonical_steps(K.steps) == reference
        for _ in range(4):
            image = K.transform(rng.choice(ISOMETRIES))
            image = image.rotate_start(rng.randrange(image.edge_length))
            if rng.random() < 0.5:
                image = image.reverse()
            assert canonical_steps(image.steps) == reference


def test_orbit_counting_identity():
    """Classes times orbit sizes (96L / |stabiliser|) count rooted polygons."""
    rooted = dict.fromkeys(ROOTED_POLYGONS, 0)
    for K in enumerate_conformations(12):
        codes = bytes(CODE[t] for t in K.steps)
        stabiliser = sum(1 for image in all_images(codes) if image == codes)
        group_order = 96 * K.edge_length
        assert group_order % stabiliser == 0
        rooted[K.edge_length] += group_order // stabiliser
    assert rooted == ROOTED_POLYGONS


@pytest.mark.slow
def test_census_at_sixteen_frozen_and_counts_rooted_polygons():
    """Per-length classes at 14 and 16 edges, and orbit counting: each class
    of length L stands for 96L / |stabiliser| rooted oriented polygons."""
    knots = list(enumerate_conformations(16))
    assert length_counts(knots) == {
        **EXPECTED_COUNTS, 12: 755, 14: 9760, 16: 143997
    }
    rooted = Counter()
    for K in knots:
        codes = bytes(CODE[t] for t in K.steps)
        stabiliser = _candidates(codes).count(codes)
        group_order = 96 * len(codes)
        assert group_order % stabiliser == 0
        rooted[len(codes)] += group_order // stabiliser
    assert {length: rooted[length] for length in ROOTED_POLYGONS} == ROOTED_POLYGONS
    assert rooted[14] == 12673920
    assert rooted[16] == 218904768


def test_conformation_count_at_fourteen_frozen():
    assert length_counts(enumerate_conformations(14)) == {
        **EXPECTED_COUNTS, 12: 755, 14: 9760
    }


def test_enumeration_order_is_length_then_canonical_code():
    keys = [
        (K.edge_length, canonical_steps(K.steps)) for K in enumerate_conformations(10)
    ]
    # lengths never decrease; within a length, codes strictly increase
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_enumerated_knots_are_valid_and_deduplicated():
    seen = set()
    for K in enumerate_conformations(8):
        assert K.edge_length % 2 == 0
        assert len(set(K.vertices)) == K.edge_length
        codes = canonical_steps(K.steps)
        assert codes not in seen
        seen.add(codes)


def test_enumeration_argument_validation(monkeypatch):
    with pytest.raises(ValueError):
        list(enumerate_conformations(5))
    with pytest.raises(ValueError):
        list(enumerate_conformations(2))
    with pytest.raises(ValueError):
        list(enumerate_conformations(18))  # the cap is 16
    monkeypatch.setattr(explorer, "CENSUS_CAP", 4)
    assert 4 in length_counts(enumerate_conformations(4))
    with pytest.raises(ValueError, match="exceeds the configured cap 4"):
        list(enumerate_conformations(6))


def test_classification_finds_square_and_cube_hexagon():
    survivors = classify_distortion_one(enumerate_conformations(8))
    by_length = {}
    for K in survivors:
        by_length.setdefault(K.edge_length, []).append(K)
    assert sorted(by_length) == [4, 6]
    assert len(by_length[4]) == 1 and len(by_length[6]) == 1
    hexagon = by_length[6][0]
    # the nonplanar corner hexagon: all vertices on the unit cube
    assert affine_rank(list(hexagon.vertices)) == 3
    assert hexagon.bounding_box().max_corner == (1, 1, 1)


def test_classification_extends_monotonically():
    """A larger length bound only appends longer conformations."""
    short = classify_distortion_one(enumerate_conformations(6))
    longer = classify_distortion_one(enumerate_conformations(10))
    assert longer[: len(short)] == short


def test_distortion_one_golden_files(tmp_path):
    """Regenerating the committed census CSVs reproduces them byte-for-byte."""
    from pathlib import Path

    from latticeknots.cli import main

    golden_dir = Path(__file__).parent / "golden"
    committed = {f.name: f.read_text() for f in golden_dir.glob("*.csv")}
    assert sorted(committed) == [
        "distortion_one_len04_0.csv",
        "distortion_one_len06_0.csv",
    ]
    out_dir = tmp_path / "golden"
    assert main(
        ["enumerate", "--max-length", "12", "--classify", "--golden-dir", str(out_dir)]
    ) == 0
    regenerated = {f.name: f.read_text() for f in out_dir.glob("*.csv")}
    assert regenerated == committed


def test_random_lattice_knot_properties():
    rng = random.Random(99)
    lengths = set()
    for _ in range(25):
        K = random_lattice_knot(rng, max_edge_length=30)
        assert 4 <= K.edge_length <= 30
        assert K.edge_length % 2 == 0
        assert len(set(K.vertices)) == K.edge_length
        lengths.add(K.edge_length)
    assert len(lengths) > 3  # the sampler actually varies the target length


def test_random_lattice_knot_deterministic_per_seed():
    a = random_lattice_knot(random.Random(3), 24)
    b = random_lattice_knot(random.Random(3), 24)
    assert a == b


def test_search_on_unit_square_stays_at_one(unit_square):
    result = search_low_distortion(unit_square, 30, seed=1)
    assert result.best_value == 1


def test_search_budget_zero_returns_own_distortion():
    K = torus_knot(2)
    result = search_low_distortion(K, 0)
    assert result.best_knot == K
    assert result.best_value == 11
    assert result.moves_applied == 0


def test_search_trefoil_regression():
    # frozen observation, an upper bound for the knot type, not an infimum
    result = search_low_distortion(torus_knot(2), 200, seed=3)
    assert result.best_value == 11
    assert result.moves_applied > 0
    assert result.moves_applied + sum(result.rejections.values()) == 200
    reasons = {cls.__name__ for cls in ReductionError.__subclasses__()}
    assert set(result.rejections) <= reasons


def test_search_never_returns_worse_than_start(rectangle):
    start = vertex_distortion(rectangle).value
    for seed in range(4):
        result = search_low_distortion(rectangle, 40, seed=seed)
        assert result.best_value <= start
