import random
from fractions import Fraction

import pytest

from latticeknots import (
    enumerate_conformations,
    random_lattice_knot,
    torus_knot,
    vertex_distortion,
    vertex_distortion_oracle,
    verify_structure,
)
from latticeknots.certificate import Certificate, _half_shell, certify_distortion
from test_acceptance import GOLDEN_DISTORTION
from test_distortion import dilate, dilated_knots, rectangle


def check_against_kernel(K):
    """Where the certificate closes it equals the kernel, value and pairs;
    where it does not, its lower bound stays at or below the kernel's value.
    Returns whether it closed."""
    certificate = certify_distortion(K)
    report = vertex_distortion(K)
    if certificate.certified:
        assert (certificate.value, certificate.realizing_pairs) == (
            report.value, report.realizing_pairs), K
    else:
        assert certificate.value <= report.value, K
    return certificate.certified


def test_half_shells_meet_each_offset_pair_once():
    for d in range(1, 6):
        half = _half_shell(d)
        assert len(half) == len(set(half)) == 2 * d * d + 1
        assert all(sum(map(abs, o)) == d for o in half)
        assert not set(half) & {(-x, -y, -z) for x, y, z in half}


def test_certificate_matches_kernel_on_census_rectangles_and_random_knots():
    census = list(enumerate_conformations(12))
    rectangles = [rectangle(a, b) for a in range(1, 9) for b in range(1, 9)]
    rng = random.Random(41)
    random_knots = [random_lattice_knot(rng, 60) for _ in range(200)]
    for corpus in (census, rectangles, random_knots):
        closed = [check_against_kernel(K) for K in corpus]
        # each corpus exercises both the certificate and its refusal
        assert any(closed) and not all(closed)


def test_certificate_on_the_torus_family():
    pair_counts = {}
    for p in list(GOLDEN_DISTORTION) + [41, 60]:
        K = torus_knot(p)
        certificate = certify_distortion(K)
        assert certificate.certified, p
        assert check_against_kernel(K), p
        assert certificate.value == GOLDEN_DISTORTION.get(p, certificate.value), p
        pair_counts[p] = len(certificate.realizing_pairs)
    assert pair_counts[2] == 6 and pair_counts[41] == 2


def test_certificate_matches_kernel_on_dilated_knots():
    # dilating by f moves every pair off adjacent sticks out to shell f or
    # beyond, past the budget of these small knots; the two larger knots,
    # dilated by 2 and 3, can afford the shell that closes them
    closed = [check_against_kernel(K) for K in dilated_knots()]
    assert not any(closed)
    assert check_against_kernel(dilate(torus_knot(5), 2))
    assert check_against_kernel(dilate(torus_knot(8), 3))


@pytest.mark.slow
def test_every_torus_knot_to_p_200_is_certified():
    for p in range(2, 201):
        K = torus_knot(p)
        assert check_against_kernel(K), p
        assert verify_structure(p, K).ok, p


def test_certificate_equals_bfs_oracle_on_small_torus_knots():
    for p in range(2, 13):
        K = torus_knot(p)
        certificate = certify_distortion(K)
        assert (certificate.value, certificate.realizing_pairs) == (
            vertex_distortion_oracle(K)), p


def test_certificate_scans_past_shell_1_only_within_its_budget():
    # shell 1 is always scanned; shells 1 and 2 together cost 12n lookups,
    # within the n(n-1)/16 budget only from n = 193 edges
    square = rectangle(1, 1)
    assert certify_distortion(square) == Certificate(
        False, Fraction(1), ((0, 1), (0, 3), (1, 2), (2, 3)))
    # a 2 x 2 square finds only consecutive vertices at shell 1
    certificate = certify_distortion(rectangle(2, 2))
    assert not certificate.certified
    assert certificate.value == 1 and len(certificate.realizing_pairs) == 8
    # an a x 2 rectangle closes only at shell 2, on the pairs straight
    # across its middle: 184 edges cannot afford that shell, 204 can
    assert not certify_distortion(rectangle(90, 2)).certified
    assert check_against_kernel(rectangle(100, 2))
    assert certify_distortion(rectangle(100, 2)).value == Fraction(204, 4)
