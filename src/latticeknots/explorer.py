"""Exhaustive and randomized searches over small lattice knots.

Enumeration lists every closed simple lattice cycle up to a given edge
length, one representative per equivalence class under translation, the 48
signed axis permutations, cyclic change of starting vertex, and reversal of
orientation.  Classes are identified by the lexicographically least encoded
step sequence over the whole group, so counts and output order are
reproducible across runs.

On top of the enumeration sit the distortion-one filter, which takes the
census walks, and a randomized walk through reduction/extension moves
that tracks the lowest distortion conformation it encounters (an empirical
upper bound for the knot type, never a proof of the infimum).
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .distortion import PreconditionFailed, check_distortion_one_structure, distortion_value
from .knot import LatticeKnot, StickType
from .lattice import ISOMETRIES, Point
from .reduction import (Direction, ReductionError, ReductionMove, apply_extension,
                        apply_reduction)

# the census grows exponentially with length: 154,600 walks emitted at 16 edges
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
    return tuple(min(_images(bytes(_ENCODE[s] for s in steps))))


def _images(codes: bytes) -> Iterator[bytes]:
    """The images of ``codes`` that ``canonical_steps`` compares, one per
    isometry, orientation and start that can give the least image.

    For a closed walk, the images equal to the least image are exactly the
    images of the symmetries that map it to that image, so their count is
    the order of its stabiliser.  The walk search compares the same images
    stick by stick while a walk grows (``_closed_walks``).
    """
    n = len(codes)
    for seq in (codes, codes[::-1]):
        starts = [i for i in range(n) if seq[i] != seq[i - 1]]
        if not starts:
            yield bytes(n)
            return
        ends = starts[1:] + [starts[0] + n]
        longest = max(end - start for start, end in zip(starts, ends))
        doubled = seq + seq
        for start, end in zip(starts, ends):
            if end - start == longest:
                rotated = doubled[start : start + n]
                for image in _LEAD_IMAGES[seq[start], doubled[end]]:
                    yield rotated.translate(image)


_DX, _DY, _DZ = zip(*(t.step for t in _DIRS))


def _closed_walks(max_length: int, emit: Callable[[bytes], object]) -> None:
    """Hand ``emit`` each class's least image among the self-avoiding closed
    walks of length 4..max_length, once, as the depth-first search completes
    it (in search order, not by length; no list is kept).

    The least image that ``canonical_steps`` picks obeys six rules, so the
    search prunes every walk, complete or partial, that breaks one:

    - it opens with a run of k x+ steps and then y+: the least image starts
      at a longest stick mapped to x+, and the next step maps to y+;
    - no later stick is longer than k, because the first one is a longest;
    - its first z step is z+: the two images that fix x+ and y+ differ only
      in the sign of z, and z+ has the smaller code;
    - its closing step is not x+: the least image starts where a stick
      starts, so its last step differs from its first;
    - no image from a later stick of length k is smaller on the known
      steps.  Every completion keeps an ended stick at length k between
      the same neighbours (no stick merges across the wrap, by the rule
      above), so ``_images`` yields the same images from it: backward, all
      known at once, so each is cut (smaller), dropped (larger) or tied
      with every known step; forward, one more step known with each step,
      so they stay pending until smaller (cut) or larger (dropped);
    - no image is smaller once the walk closes.  ``_images`` reads each
      stick of length k both ways.  The first stick read forward gives the
      walk and its z mirror, not smaller by the z+ rule.  A later stick
      that ended before the closing step left only larger images, pending
      ones, equal to the walk on all but their last ``start`` steps, and
      tied ones, equal on the ``a`` steps known when they were taken.  The
      closing steps are read only by these and by the images from the
      first stick read backward and the last stick (if its length is k)
      read both ways, so the walk is least when none of them is smaller
      (``_least_at_closure``).  No census walk to 16 edges needs the last
      stick's forward read; it is kept because nothing here proves it
      redundant.

    Every walk emitted is thus the least image of its class, and every
    class's least image is emitted.  A walk ends where it returns to the
    origin; a search from each opening run of k steps stops where the
    origin is out of reach.
    """
    base = 2 * max_length + 1

    def rec(x: int, y: int, z: int, run: int, seen_z: bool, pending: list, tied: list) -> None:
        if x == 0 and y == 0 and z == 0:
            if steps[-1] != 0 and _least_at_closure(bytes(steps), longest, run, pending, tied):
                emit(bytes(steps))
            return
        n = len(steps)
        last = steps[-1]
        # a run of k ends at the next step: its backward images are known
        if run == longest:
            tail = steps[::-1]
            for image in _LEAD_IMAGES[last, steps[n - longest - 1]]:
                mapped = tail.translate(image)
                if mapped < steps:
                    return
                if mapped == steps:
                    tied = tied + [(n, image)]  # a copy: sibling subtrees share the list
        key = (x * base + y) * base + z  # unvisited and in reach: the caller checks
        visited.add(key)
        for code in range(6) if seen_z else range(5):
            if code != last:
                grown = 1
            elif run < longest:
                grown = run + 1
            else:
                continue
            nx, ny, nz = x + _DX[code], y + _DY[code], z + _DZ[code]
            if abs(nx) + abs(ny) + abs(nz) >= max_length - n or (
                (nx * base + ny) * base + nz in visited
            ):
                continue
            ahead = []  # the pending images still equal after this step
            for start, image in pending:
                byte, known = image[code], steps[n - start]
                if byte < known:
                    break
                if byte == known:
                    ahead.append((start, image))
            else:
                if grown == 1 and run == longest:
                    ahead += ((n - longest, image) for image in _LEAD_IMAGES[last, code])
                steps.append(code)
                rec(nx, ny, nz, grown, seen_z or code == 4, ahead, tied)
                steps.pop()
        visited.discard(key)

    for longest in range(1, max_length // 2):
        steps = bytearray(longest) + b"\2"
        # the keys of (1, 0, 0) .. (longest, 0, 0), the opening run's points
        visited = {i * base * base for i in range(1, longest + 1)}
        rec(longest, 1, 0, 1, False, [], [])


def _least_at_closure(codes: bytes, k: int, run: int, pending: list, tied: list) -> bool:
    """Whether no image that the sixth rule of ``_closed_walks`` leaves to
    the closing step is smaller than the closed walk ``codes``."""
    n, last = len(codes), codes[-1]
    reads = [(codes[k - 1::-1] + codes[:k - 1:-1], _LEAD_IMAGES[0, last])]  # first stick back
    if run == k:  # the last stick, backward and forward
        reads += ((codes[::-1], _LEAD_IMAGES[last, codes[n - k - 1]]),
                  (codes[n - k:] + codes[:n - k], _LEAD_IMAGES[last, 0]))
    for seq, images in reads:
        for image in images:
            if seq.translate(image) < codes:
                return False
    for start, image in pending:
        if codes[:start].translate(image) < codes[n - start:]:
            return False
    for a, image in tied:
        if codes[a:][::-1].translate(image) < codes[a:]:
            return False
    return True


def census_walks(max_edge_length: int) -> list[bytes]:
    """The one census pass: each class's canonical step codes, shortest
    first, then in code order.  The walk search emits exactly one walk per
    class, its least image, so every walk it emits is kept.  The
    edge-length bound must be even, at least 4, and at most ``CENSUS_CAP``.
    """
    if max_edge_length % 2 != 0 or max_edge_length < 4:
        raise ValueError("max_edge_length must be an even integer >= 4")
    if max_edge_length > CENSUS_CAP:
        raise ValueError(
            f"max_edge_length {max_edge_length} exceeds the configured cap "
            f"{CENSUS_CAP}"
        )
    classes: list[bytes] = []
    _closed_walks(max_edge_length, classes.append)
    return sorted(classes, key=lambda c: (len(c), c))


def enumerate_conformations(max_edge_length: int) -> Iterator[LatticeKnot]:
    """All conformations up to isometry, shortest first, in canonical order:
    a knot from the origin per walk of ``census_walks``, which counts read."""
    for codes in census_walks(max_edge_length):
        # unit runs, which the constructor merges into sticks
        yield LatticeKnot(map(_DIRS.__getitem__, codes), repeat(1))


def classify_distortion_one(walks: Iterable[bytes]) -> list[LatticeKnot]:
    """The class walks (step codes, as ``census_walks`` gives them) whose
    vertex distortion equals one, each as a knot from the origin, in order.

    A walk is dropped, before any knot is built, at its first antipodal pair
    (vertices n/2 steps apart) closer than n/2: both arcs between them are
    n/2 long, so their ratio (n/2)/d1 exceeds 1 by the ratio's definition,
    not by the theorem, and no walk of distortion one is dropped.  A pair is
    n/2 apart exactly when an arc between them holds no step and its opposite.

    Every survivor goes through the kernel and the structural consequences of
    the distortion-one theorem: each vertex must be a corner of the minimal
    bounding box (hence the whole cycle lies on the box boundary) and all
    antipodal arcs must be staircase walks.  A survivor failing those checks
    would falsify the theorem, so it raises immediately.
    """
    survivors = []
    for codes in filter(_antipodes_apart, walks):
        K = LatticeKnot(map(_DIRS.__getitem__, codes), repeat(1))
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


def _antipodes_apart(codes: bytes) -> bool:
    """Whether no run of n/2 steps holds a step and its opposite (codes 2a and
    2a + 1 on axis a), i.e. each vertex is n/2 from the one n/2 steps on."""
    half = len(codes) // 2
    for i in range(half):
        arc = codes[i:i + half]
        if 0 in arc and 1 in arc or 2 in arc and 3 in arc or 4 in arc and 5 in arc:
            return False
    return True


def random_lattice_knot(rng: random.Random, max_edge_length: int = 60) -> LatticeKnot:
    """A pseudo-random closed simple lattice cycle, for property tests.

    Picks a random even target length and backtracks through self-avoiding
    walks in randomized direction order until one closes up.
    """
    if max_edge_length < 4:
        raise ValueError("need max_edge_length >= 4")
    length = rng.randrange(2, max_edge_length // 2 + 1) * 2

    # a depth-first search over an explicit stack: one frame per point of
    # the walk so far, holding the directions it has yet to try, drawn by
    # rng.sample when the point is entered, as a recursive search draws them
    steps: list[StickType] = []
    visited: set[Point] = set()
    frames: list[tuple[Point, Iterator[StickType]]] = []
    pos = (0, 0, 0)
    while True:
        remaining = length - len(steps)
        if remaining == 0:
            if pos == (0, 0, 0):
                return LatticeKnot(steps, repeat(1))
        elif abs(pos[0]) + abs(pos[1]) + abs(pos[2]) <= remaining and pos not in visited:
            visited.add(pos)
            frames.append((pos, iter(rng.sample(_DIRS, 6))))
        while frames:
            here, untried = frames[-1]
            del steps[len(frames) - 1:]
            step = next(untried, None)
            if step is not None:
                steps.append(step)
                d = step.step
                pos = (here[0] + d[0], here[1] + d[1], here[2] + d[2])
                break
            frames.pop()
            visited.remove(here)
        else:
            raise RuntimeError("no closed walk found (unreachable for length >= 4)")


class SearchResult(NamedTuple):
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
    best_value = distortion_value(knot)
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
        value = distortion_value(current)
        if value < best_value:
            best, best_value = current, value
    return SearchResult(best, best_value, applied, dict(rejections))
