import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, groupby

import pytest

from latticeknots import (
    ISOMETRIES,
    ReductionError,
    StickType,
    canonical_steps,
    census_walks,
    check_distortion_one_structure,
    classify_distortion_one,
    distortion_value,
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
    _antipodes_apart,
    _closed_walks,
    _images,
    _is_least,
)
from conftest import affine_rank_by_fractions, box, isometry_image, knot_steps, moved_knot

# Frozen regression values from the exhaustive backtracking enumeration.
EXPECTED_COUNTS = {4: 1, 6: 3, 8: 11, 10: 73}

# Rooted, oriented self-avoiding polygons on the cubic lattice (OEIS A001413).
ROOTED_POLYGONS = {4: 24, 6: 264, 8: 3312, 10: 48240, 12: 762096}

# Test-only reference for canonical forms: every image of an encoded step
# sequence under the 48 isometries, both orientations and all n rotations,
# with step images taken from isometry_image.
STEPS = list(StickType)
CODE = {t: i for i, t in enumerate(STEPS)}
BY_STEP = {t.step: t for t in STEPS}
PAD = bytes(range(6, 256))
IMAGE_TABLES = [
    bytes(CODE[BY_STEP[isometry_image(iso, t.step)]] for t in STEPS) + PAD
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


def four_rule_closed_walks(max_length: int, emit) -> None:
    """The census walk search before its cut at partial walks: the first
    four rules of ``_closed_walks`` and nothing else, so it emits a superset
    of the pruned search's walks, every least one among them."""
    base = 2 * max_length + 1

    def rec(x, y, z, run, seen_z):
        if x == 0 and y == 0 and z == 0:
            if steps[-1] != 0:
                emit(bytes(steps))
            return
        if abs(x) + abs(y) + abs(z) > max_length - len(steps):
            return
        key = (x * base + y) * base + z
        if key in visited:
            return
        visited.add(key)
        last = steps[-1]
        for code in range(6) if seen_z else range(5):
            if code != last:
                grown = 1
            elif run < longest:
                grown = run + 1
            else:
                continue
            steps.append(code)
            rec(x + _DX[code], y + _DY[code], z + _DZ[code], grown, seen_z or code == 4)
            steps.pop()
        visited.discard(key)

    for longest in range(1, max_length // 2):
        steps = [0] * longest + [2]
        visited = {i * base * base for i in range(1, longest + 1)}
        rec(longest, 1, 0, 1, False)


def collect(search, max_length: int) -> list[bytes]:
    walks: list[bytes] = []
    search(max_length, walks.append)
    return walks


def test_census_walks_are_the_enumerated_knots_steps():
    walks = census_walks(10)
    assert walks == [bytes(CODE[t] for t in knot_steps(K)) for K in enumerate_conformations(10)]
    assert Counter(map(len, walks)) == EXPECTED_COUNTS


def test_length_four_is_only_the_unit_square():
    knots = list(enumerate_conformations(4))
    assert len(knots) == 1
    assert knots[0].vertices == ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0))


def length_counts(knots):
    return dict(Counter(K.edge_length for K in knots))


def walk_length_counts(walks):
    return dict(Counter(map(len, walks)))


def test_conformation_counts_frozen():
    assert length_counts(enumerate_conformations(10)) == EXPECTED_COUNTS


def test_length_six_classes():
    hexagons = [K for K in enumerate_conformations(6) if K.edge_length == 6]
    assert len(hexagons) == 3
    planar = [K for K in hexagons if affine_rank_by_fractions(list(K.vertices)) == 2]
    # one planar class (the 2x1 rectangle); the other two bend out of plane
    assert len(planar) == 1
    assert box(planar[0].vertices)[1] in ((2, 1, 0), (1, 2, 0))
    values = sorted(vertex_distortion(K).value for K in hexagons)
    assert values == [1, 3, 3]


def test_enumeration_is_isometry_canonical():
    rng = random.Random(5)
    for K in enumerate_conformations(8):
        reference = canonical_steps(knot_steps(K))
        for _ in range(3):
            iso = rng.choice(ISOMETRIES)
            start = rng.randrange(K.edge_length)
            image = moved_knot(K, iso, start=start, reverse=rng.random() < 0.5)
            assert canonical_steps(knot_steps(image)) == reference


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
    reference = {min(_images(w)) for w in collect(reference_closed_walks, 12)}
    for length in range(4, 13, 2):
        pruned = {min(_images(w)) for w in collect(_closed_walks, length)}
        assert pruned == {c for c in reference if len(c) <= length}


def test_pruned_walks_include_each_class_least_image():
    walks = collect(_closed_walks, 12)
    # 3,351 before the cut at partial walks whose image is smaller
    assert len(walks) == len(set(walks)) == 1419
    classes = {min(_images(w)) for w in walks}
    assert len(classes) == 843
    assert classes <= set(walks)


def test_cut_at_partial_walks_drops_only_walks_that_are_not_least():
    for length in range(4, 13, 2):
        reference = collect(four_rule_closed_walks, length)
        walks = collect(_closed_walks, length)
        assert len(walks) == len(set(walks))
        assert set(walks) <= set(reference)
        dropped = set(reference) - set(walks)
        assert not any(_is_least(walk) for walk in dropped)
    assert (len(reference), len(walks)) == (3351, 1419)


def test_is_least_agrees_with_the_canonical_form():
    # the census keeps a walk at its first image that is not smaller; that
    # must be the same decision as comparing with its least image
    walks = collect(_closed_walks, 12) + collect(reference_closed_walks, 10)
    kept = [walk for walk in walks if _is_least(walk)]
    assert len(kept) == 843 + 88
    for walk in walks:
        assert _is_least(walk) == (walk == min(_images(walk)))


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
        candidates = list(_images(walk))
        least = min(candidates)
        images = list(all_images(walk))
        assert least == min(images)
        assert candidates.count(least) == images.count(least)


def test_canonical_steps_matches_brute_force_on_images():
    rng = random.Random(11)
    knots = [random_lattice_knot(rng, 40) for _ in range(30)]
    knots += [torus_knot(p) for p in range(2, 6)]
    for K in knots:
        reference = brute_canonical(knot_steps(K))
        assert canonical_steps(knot_steps(K)) == reference
        for _ in range(4):
            iso = rng.choice(ISOMETRIES)
            start = rng.randrange(K.edge_length)
            image = moved_knot(K, iso, start=start, reverse=rng.random() < 0.5)
            assert canonical_steps(knot_steps(image)) == reference


def test_orbit_counting_identity():
    """Classes times orbit sizes (96L / |stabiliser|) count rooted polygons."""
    rooted = dict.fromkeys(ROOTED_POLYGONS, 0)
    for codes in census_walks(12):
        stabiliser = sum(1 for image in all_images(codes) if image == codes)
        group_order = 96 * len(codes)
        assert group_order % stabiliser == 0
        rooted[len(codes)] += group_order // stabiliser
    assert rooted == ROOTED_POLYGONS


@pytest.mark.slow
def test_census_at_sixteen_frozen_and_counts_rooted_polygons():
    """Per-length classes at 14 and 16 edges, and orbit counting: each class
    of length L stands for 96L / |stabiliser| rooted oriented polygons.
    The distortion-one classification of their walks keeps one class at
    4 edges and one at 6, as it does to 14 edges."""
    walks = census_walks(16)
    assert walk_length_counts(walks) == {
        **EXPECTED_COUNTS, 12: 755, 14: 9760, 16: 143997
    }
    rooted = Counter()
    for codes in walks:
        stabiliser = list(_images(codes)).count(codes)
        group_order = 96 * len(codes)
        assert group_order % stabiliser == 0
        rooted[len(codes)] += group_order // stabiliser
    assert {length: rooted[length] for length in ROOTED_POLYGONS} == ROOTED_POLYGONS
    assert rooted[14] == 12673920
    assert rooted[16] == 218904768
    survivors = classify_distortion_one(walks)
    assert [knot_steps(K) for K in survivors] == [
        knot_steps(K) for K in classify_distortion_one(census_walks(6))
    ]
    assert [K.edge_length for K in survivors] == [4, 6]


def test_conformation_count_at_fourteen_frozen():
    assert walk_length_counts(census_walks(14)) == {
        **EXPECTED_COUNTS, 12: 755, 14: 9760
    }


def test_classification_at_fourteen_frozen():
    assert length_counts(classify_distortion_one(census_walks(14))) == {4: 1, 6: 1}


def test_enumeration_order_is_length_then_canonical_code():
    keys = [
        (K.edge_length, canonical_steps(knot_steps(K))) for K in enumerate_conformations(10)
    ]
    # lengths never decrease; within a length, codes strictly increase
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_enumerated_knots_are_valid_and_deduplicated():
    seen = set()
    for K in enumerate_conformations(8):
        assert K.edge_length % 2 == 0
        assert len(set(K.vertices)) == K.edge_length
        codes = canonical_steps(knot_steps(K))
        assert codes not in seen
        seen.add(codes)


def test_enumeration_argument_validation(monkeypatch):
    with pytest.raises(ValueError):
        list(enumerate_conformations(5))
    with pytest.raises(ValueError):
        list(enumerate_conformations(2))
    with pytest.raises(ValueError):
        list(enumerate_conformations(18))  # the cap is 16
    for length in (2, 5, 18):
        with pytest.raises(ValueError):
            census_walks(length)
    monkeypatch.setattr(explorer, "CENSUS_CAP", 4)
    assert 4 in length_counts(enumerate_conformations(4))
    with pytest.raises(ValueError, match="exceeds the configured cap 4"):
        list(enumerate_conformations(6))


def test_classification_finds_square_and_cube_hexagon():
    survivors = classify_distortion_one(census_walks(8))
    by_length = {}
    for K in survivors:
        by_length.setdefault(K.edge_length, []).append(K)
    assert sorted(by_length) == [4, 6]
    assert len(by_length[4]) == 1 and len(by_length[6]) == 1
    hexagon = by_length[6][0]
    # the nonplanar corner hexagon: all vertices on the unit cube
    assert affine_rank_by_fractions(list(hexagon.vertices)) == 3
    assert box(hexagon.vertices)[1] == (1, 1, 1)


def test_classification_extends_monotonically():
    """A larger length bound only appends longer conformations."""
    short = classify_distortion_one(census_walks(6))
    longer = classify_distortion_one(census_walks(10))
    assert longer[: len(short)] == short


@pytest.fixture(scope="module")
def census_fourteen():
    """Each class to 14 edges: its walk, its knot and the kernel's value."""
    knots = list(enumerate_conformations(14))
    return list(zip(census_walks(14), knots, map(distortion_value, knots)))


def test_antipodal_rejection_is_sound(census_fourteen):
    """Every walk the antipodal test drops has distortion above 1, at least
    the ratio (n/2)/d1 of its closest antipodal pair, both arcs being n/2."""
    dropped = 0
    for codes, K, value in census_fourteen:
        if _antipodes_apart(codes):
            continue
        dropped += 1
        v, half = K.vertices, K.edge_length // 2
        d1 = min(
            sum(abs(a - b) for a, b in zip(v[i], v[i + half])) for i in range(half)
        )
        assert d1 < half
        assert value > 1 and value >= Fraction(half, d1)
    assert dropped == len(census_fourteen) - 2


def test_antipodal_test_reads_the_vertex_distances():
    """On every image of every walk to 8 edges (all isometries, starts and
    both orientations), the test holds exactly when each vertex lies n/2
    from the vertex n/2 steps on."""
    for codes in census_walks(8):
        half = len(codes) // 2
        for image in set(all_images(codes)):
            x, y, z = ([*accumulate(d[c] for c in image)] for d in (_DX, _DY, _DZ))
            apart = all(
                abs(x[i] - x[i + half]) + abs(y[i] - y[i + half])
                + abs(z[i] - z[i + half]) == half
                for i in range(half)
            )
            assert _antipodes_apart(image) == apart


def test_classification_is_the_kernel_only_reference(census_fourteen):
    """The classifier keeps exactly the knots the kernel puts at 1."""

    def key(knots):
        return [(knot_steps(K), K.origin) for K in knots]

    for length in (4, 6, 8, 10, 12):
        reference = [
            K for K in enumerate_conformations(length) if distortion_value(K) == 1
        ]
        assert key(classify_distortion_one(census_walks(length))) == key(reference)
    reference = [K for _, K, value in census_fourteen if value == 1]
    assert key(classify_distortion_one(census_walks(14))) == key(reference)


def test_only_two_walks_reach_the_kernel(monkeypatch):
    checked = []

    def counting(K):
        checked.append(K.edge_length)
        return check_distortion_one_structure(K)

    monkeypatch.setattr(explorer, "check_distortion_one_structure", counting)
    survivors = classify_distortion_one(census_walks(12))
    assert checked == [4, 6]
    assert [K.edge_length for K in survivors] == [4, 6]


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
