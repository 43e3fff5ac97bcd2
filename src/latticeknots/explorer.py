"""Exhaustive and randomized searches over small lattice knots.

Enumeration lists every closed simple lattice cycle up to a given edge
length, one representative per equivalence class under translation, the 48
signed axis permutations, cyclic change of starting vertex, and reversal of
orientation.  Classes are identified by the lexicographically least encoded
step sequence over the whole group, so counts and output order are
reproducible across runs.

On top of the enumeration sit the distortion-one filter, which takes the
enumerated knots, and a randomized walk through reduction/extension moves
that tracks the lowest distortion conformation it encounters (an empirical
upper bound for the knot type, never a proof of the infimum).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .distortion import (
    PreconditionFailed,
    check_distortion_one_structure,
    vertex_distortion,
)
from .knot import LatticeKnot, StickType
from .lattice import ISOMETRIES, Point
from .reduction import (
    Direction,
    ReductionError,
    ReductionMove,
    apply_extension,
    apply_reduction,
)

# the census grows exponentially with length: ~0.7M candidate walks at 16 edges
CENSUS_CAP = 16

_ENCODE = {t: i for i, t in enumerate(StickType)}
_DIRS: tuple[StickType, ...] = tuple(StickType)

# bytes translation tables: encoded step images under each of the 48 isometries
_STEP_IMAGES = tuple(
    bytes(
        _ENCODE[StickType.from_axis_sign(iso[0][t.axis], t.sign * iso[1][t.axis])]
        for t in _DIRS
    )
    + bytes(range(6, 256))
    for iso in ISOMETRIES
)


def _lead_images(d0: int, d1: int) -> tuple[bytes, ...]:
    """The images that send d0 to x+ and d1 to the least code they can."""
    fixing = [image for image in _STEP_IMAGES if image[d0] == 0]
    least = min(image[d1] for image in fixing)
    return tuple(image for image in fixing if image[d1] == least)


_LEAD_IMAGES = {(d0, d1): _lead_images(d0, d1) for d0 in range(6) for d1 in range(6)}


def canonical_steps(steps: Sequence[StickType]) -> tuple[int, ...]:
    """Least encoded step sequence over isometries, rotations and reversal.

    The least image opens with the longest run of x+ (code 0) of any image,
    so it starts at a longest stick (taken cyclically) of the walk or its
    reverse, mapped to x+.  In a closed simple walk the next step is neither
    x+ (the stick is maximal) nor x- (a step back), so it maps to y+ at
    best, and exactly two isometries (the two signs of the third axis) do
    both.  Each longest stick thus leaves at most four candidates over both
    orientations.  Reversal also negates every step, but the isometries
    include that negation, so the reversed order alone gives the same
    images.  ``_LEAD_IMAGES`` keeps the isometries that send the next
    direction to its least code, so any other sequence gets its exact least
    image too.
    """
    return tuple(_canonical_codes(bytes(_ENCODE[s] for s in steps)))


def _canonical_codes(codes: bytes) -> bytes:
    """The least image of ``codes``, over the candidates of ``canonical_steps``."""
    return min(_candidates(codes))


def _candidates(codes: bytes) -> list[bytes]:
    """The images of ``codes`` that ``canonical_steps`` compares, one per
    isometry, orientation and start that can give the least image.

    For a closed walk, the candidates equal to the least image are exactly
    the images of the symmetries that map it to that image, so their count
    is the order of its stabiliser.
    """
    n = len(codes)
    candidates: list[bytes] = []
    for seq in (codes, codes[::-1]):
        starts = [i for i in range(n) if seq[i] != seq[i - 1]]
        if not starts:
            return [bytes(n)]
        ends = starts[1:] + [starts[0] + n]
        longest = max(end - start for start, end in zip(starts, ends))
        doubled = seq + seq
        candidates += [
            doubled[start : start + n].translate(image)
            for start, end in zip(starts, ends)
            if end - start == longest
            for image in _LEAD_IMAGES[seq[start], doubled[end]]
        ]
    return candidates


_DX, _DY, _DZ = zip(*(t.step for t in _DIRS))


def _closed_walks(max_length: int, emit: Callable[[bytes], object]) -> None:
    """Hand ``emit`` each self-avoiding closed walk of length 4..max_length
    that could be the least image of its own class, as the depth-first
    search completes it (in search order, not by length; no list is kept).

    The least image that ``_canonical_codes`` picks obeys four rules, so the
    search prunes every walk that breaks one:

    - it opens with a run of k x+ steps and then y+: the least image starts
      at a longest stick mapped to x+, and the next step maps to y+;
    - no later stick is longer than k, because the first one is a longest;
    - its first z step is z+: the two images that fix x+ and y+ differ only
      in the sign of z, and z+ has the smaller code;
    - its closing step is not x+: the least image starts where a stick
      starts, so its last step differs from its first.

    Every class thus keeps its least image, and the canonical-form dedup
    afterwards removes the walks that obey the rules without being least.
    A walk ends where it returns to the origin; a search from each opening
    run of k steps stops where the origin is out of reach.
    """
    base = 2 * max_length + 1

    def rec(x: int, y: int, z: int, run: int, seen_z: bool) -> None:
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
            rec(
                x + _DX[code],
                y + _DY[code],
                z + _DZ[code],
                grown,
                seen_z or code == 4,
            )
            steps.pop()
        visited.discard(key)

    for longest in range(1, max_length // 2):
        steps = [0] * longest + [2]
        # the keys of (1, 0, 0) .. (longest, 0, 0), the opening run's points
        visited = {i * base * base for i in range(1, longest + 1)}
        rec(longest, 1, 0, 1, False)


def enumerate_conformations(max_edge_length: int) -> Iterator[LatticeKnot]:
    """All conformations up to isometry, shortest first, in canonical order.

    This is the one census pass: counts and the distortion-one filter read
    what it yields.  Each emitted knot is built from its canonical step
    sequence starting at the origin.  The edge-length bound must be even, at
    least 4, and at most ``CENSUS_CAP``.
    """
    if max_edge_length % 2 != 0 or max_edge_length < 4:
        raise ValueError("max_edge_length must be an even integer >= 4")
    if max_edge_length > CENSUS_CAP:
        raise ValueError(
            f"max_edge_length {max_edge_length} exceeds the configured cap "
            f"{CENSUS_CAP}"
        )
    classes: set[bytes] = set()
    _closed_walks(max_edge_length, lambda walk: classes.add(_canonical_codes(walk)))
    for codes in sorted(classes, key=lambda c: (len(c), c)):
        yield LatticeKnot([_DIRS[c] for c in codes])


def classify_distortion_one(knots: Iterable[LatticeKnot]) -> list[LatticeKnot]:
    """The given knots whose vertex distortion equals one, in their order.

    Every survivor is pushed through the structural consequences of the
    distortion-one theorem: each vertex must be a corner of the minimal
    bounding box (hence the whole cycle lies on the box boundary) and all
    antipodal arcs must be staircase walks.  A survivor failing those checks
    would falsify the theorem, so it raises immediately.
    """
    survivors = []
    for K in knots:
        try:
            report = check_distortion_one_structure(K)
        except PreconditionFailed:
            continue
        if not report.ok:
            raise AssertionError(
                f"distortion-one conformation violates structure: {report}"
            )
        survivors.append(K)
    return survivors


def random_lattice_knot(rng: random.Random, max_edge_length: int = 60) -> LatticeKnot:
    """A pseudo-random closed simple lattice cycle, for property tests.

    Picks a random even target length and backtracks through self-avoiding
    walks in randomized direction order until one closes up.
    """
    if max_edge_length < 4:
        raise ValueError("need max_edge_length >= 4")
    length = rng.randrange(2, max_edge_length // 2 + 1) * 2

    steps: list[StickType] = []
    visited: dict[Point, int] = {}
    pos = (0, 0, 0)

    def rec() -> bool:
        nonlocal pos
        remaining = length - len(steps)
        if remaining == 0:
            return pos == (0, 0, 0)
        if abs(pos[0]) + abs(pos[1]) + abs(pos[2]) > remaining:
            return False
        if pos in visited:
            return False
        visited[pos] = len(steps)
        here = pos
        for t in rng.sample(_DIRS, 6):
            steps.append(t)
            d = t.step
            pos = (here[0] + d[0], here[1] + d[1], here[2] + d[2])
            if rec():
                return True
            steps.pop()
        pos = here
        del visited[pos]
        return False

    if not rec():
        raise RuntimeError("no closed walk found (unreachable for length >= 4)")
    return LatticeKnot(steps)


@dataclass(frozen=True)
class SearchResult:
    """Lowest-distortion conformation seen during a randomized move walk."""

    best_knot: LatticeKnot
    best_value: Fraction
    moves_applied: int
    rejections: dict[str, int]  # ReductionError subclass name -> moves it refused


def search_low_distortion(
    knot: LatticeKnot, move_budget: int, seed: int = 0
) -> SearchResult:
    """Random walk through reductions and extensions, tracking min distortion.

    Reductions are preferred when available so the walk gravitates toward
    short conformations, with occasional extensions to escape dead ends.
    The returned value is an upper bound observed for the knot type; the
    walk never claims the infimum.
    """
    rng = random.Random(seed)
    current = knot
    best = knot
    best_value = vertex_distortion(knot).value
    applied = 0
    rejections: Counter[str] = Counter()
    for _ in range(move_budget):
        stick = rng.randrange(len(current.sticks))
        direction = rng.choice((Direction.WITH, Direction.AGAINST))
        extend = rng.random() < 0.25
        try:
            if extend:
                amount = rng.randrange(1, 3)
                candidate = apply_extension(current, stick, direction, amount)
            else:
                amount = rng.randrange(1, max(2, current.sticks[stick].length))
                candidate = apply_reduction(
                    current, ReductionMove(stick, direction, amount)
                )
        except ReductionError as exc:
            rejections[type(exc).__name__] += 1
            continue
        applied += 1
        current = candidate
        value = vertex_distortion(current).value
        if value < best_value:
            best, best_value = current, value
    return SearchResult(best, best_value, applied, dict(rejections))
