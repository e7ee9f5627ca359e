"""Boundary functions: construction, ray limits, strata, sequence checks.

The independent oracle for ray limits is the normalised distance function
psi evaluated far along the ray through the facet-functional gauge route;
the boundary functions themselves are evaluated through face-vertex
pseudo-norms, a disjoint code path.  For rational data the minimisers in
psi stabilise at finite time, so the comparison at t = 10**8 is exact.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomtest import rand_ball, rand_nonzero_vector, rand_vector
from horopoly._linalg import vsub
from horopoly.errors import InputError, NotAFace, PreconditionError
from horopoly.horoboundary import (
    SequenceSample,
    almost_geodesic_check,
    chain_check,
    convexity_midpoint_test,
    enumerate_strata,
    evaluate,
    horofunction_to_json,
    horofunctions_equal,
    limit_of_ray,
    make_horofunction,
    psi,
)
from horopoly.norm import distance, gauge, polyhedral_norm
from horopoly.polytope import convex_hull, face_lattice, face_of

T_FAR = Fraction(10) ** 12


@pytest.fixture(scope="module")
def l1(l1_ball):
    return polyhedral_norm(l1_ball)


@pytest.fixture(scope="module")
def hexn(skew_hexagon):
    return polyhedral_norm(skew_hexagon)


def edge_face(norm, i, j):
    return face_of(norm.dual_ball, [i, j])


# ---------------------------------------------------------------------------
# construction and frozen closed forms


def test_limit_of_ray_frozen_edge_face(l1):
    # dual ball is the square, lex-sorted (-1,-1),(-1,1),(1,-1),(1,1);
    # direction (1,0) selects the edge on the first two
    h = limit_of_ray(l1, (5, 2), (1, 0))
    assert h.face.vertex_indices == (0, 1)
    assert h.basepoint == (Fraction(0), Fraction(2))


def test_frozen_value_on_edge_face(l1):
    h = limit_of_ray(l1, (5, 2), (1, 0))
    assert evaluate(h, (1, 1)) == Fraction(-2)
    assert h((1, 1)) == Fraction(-2)


def test_edge_face_closed_form(l1):
    # face on y1 = -1 of the dual square: h(y) = -y1 + |c - y2| - |c|
    rng = random.Random(7)
    for _ in range(25):
        c = rand_vector(rng, 1)[0]
        h = make_horofunction(l1, edge_face(l1, 0, 1), (rand_vector(rng, 1)[0], c))
        y = rand_vector(rng, 2)
        assert evaluate(h, y) == -y[0] + abs(c - y[1]) - abs(c)


def test_vertex_faces_give_linear_functions(l1):
    rng = random.Random(11)
    for i, b in enumerate(l1.dual_ball.vertices):
        h = make_horofunction(l1, face_of(l1.dual_ball, [i]), rand_vector(rng, 2))
        assert h.basepoint == (0, 0)
        for _ in range(10):
            y = rand_vector(rng, 2)
            assert evaluate(h, y) == b[0] * y[0] + b[1] * y[1]


def test_vanishes_at_origin(l1, hexn):
    rng = random.Random(13)
    for norm in (l1, hexn):
        for _ in range(10):
            h = limit_of_ray(norm, rand_vector(rng, 2), rand_nonzero_vector(rng, 2))
            assert evaluate(h, (0, 0)) == 0


def test_canonical_basepoint_collapses_dual_span(l1):
    E = edge_face(l1, 0, 1)
    h1 = make_horofunction(l1, E, (5, 2))
    h2 = make_horofunction(l1, E, (-3, 2))
    assert horofunctions_equal(h1, h2)
    assert h1.basepoint == (0, 2)


def test_horofunctions_equal_distinguishes(l1):
    E = edge_face(l1, 0, 1)
    assert not horofunctions_equal(make_horofunction(l1, E, (0, 2)),
                                   make_horofunction(l1, E, (0, 3)))
    hv = make_horofunction(l1, face_of(l1.dual_ball, [0]), (0, 0))
    assert not horofunctions_equal(make_horofunction(l1, E, (0, 0)), hv)


def test_equality_across_norms_rejected(l1, hexn):
    h1 = limit_of_ray(l1, (0, 0), (1, 0))
    h2 = limit_of_ray(hexn, (0, 0), (1, 0))
    with pytest.raises(InputError):
        horofunctions_equal(h1, h2)


def test_make_horofunction_rejections(l1):
    top = face_of(l1.dual_ball, range(4))
    with pytest.raises(PreconditionError):
        make_horofunction(l1, top, (0, 0))
    ball_vertex_face = face_of(l1.ball, [0])
    with pytest.raises(NotAFace):
        make_horofunction(l1, ball_vertex_face, (0, 0))
    with pytest.raises(InputError):
        make_horofunction(l1, edge_face(l1, 0, 1), (1, 2, 3))


def test_limit_of_ray_rejections(l1):
    with pytest.raises(PreconditionError):
        limit_of_ray(l1, (0, 0), (0, 0))
    with pytest.raises(InputError):
        limit_of_ray(l1, (0, 0), (1, 0, 0))


# ---------------------------------------------------------------------------
# ray limits against the far-psi oracle


def psi_far_oracle(norm, q, u, y):
    """psi far along the ray, via the facet-gauge route only.

    For rational data the argmin in the gauge stabilises at a finite time
    controlled by the vertex data; t = 10**12 is past it for every seeded
    case here, so the comparison is exact, not approximate.
    """
    z = tuple(a + T_FAR * b for a, b in zip(q, u))
    return distance(norm, y, z) - distance(norm, tuple([0] * len(z)), z)


def test_limits_match_far_psi_dim2(l1, hexn, asym_ball):
    rng = random.Random(23)
    norms = [l1, hexn, polyhedral_norm(asym_ball)]
    for norm in norms + [polyhedral_norm(rand_ball(rng, 2, 9)) for _ in range(4)]:
        for _ in range(12):
            q = rand_vector(rng, 2)
            u = rand_nonzero_vector(rng, 2)
            h = limit_of_ray(norm, q, u)
            for _ in range(6):
                y = rand_vector(rng, 2)
                assert evaluate(h, y) == psi_far_oracle(norm, q, u, y)


def test_limits_match_far_psi_dim3():
    rng = random.Random(29)
    for _ in range(3):
        norm = polyhedral_norm(rand_ball(rng, 3, 8))
        for _ in range(8):
            q = rand_vector(rng, 3)
            u = rand_nonzero_vector(rng, 3)
            h = limit_of_ray(norm, q, u)
            for _ in range(5):
                y = rand_vector(rng, 3)
                assert evaluate(h, y) == psi_far_oracle(norm, q, u, y)


def test_psi_definition(l1):
    rng = random.Random(31)
    for _ in range(20):
        z = rand_vector(rng, 2)
        y = rand_vector(rng, 2)
        assert psi(l1, z, y) == distance(l1, y, z) - gauge(l1, z)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_boundary_functions_are_gauge_bounded(seed):
    rng = random.Random(seed)
    norm = polyhedral_norm(rand_ball(rng, 2, 7))
    h = limit_of_ray(norm, rand_vector(rng, 2), rand_nonzero_vector(rng, 2))
    y = rand_vector(rng, 2)
    yy = rand_vector(rng, 2)
    val = evaluate(h, y)
    assert -gauge(norm, y) <= val <= gauge(norm, tuple(-a for a in y))
    # nonexpansive for the asymmetric distance
    assert val - evaluate(h, yy) <= distance(norm, y, yy)


# ---------------------------------------------------------------------------
# strata


def test_enumerate_strata_l1(l1):
    strata = enumerate_strata(l1)
    assert len(strata) == 8
    assert sorted(d for _, d in strata) == [0, 0, 0, 0, 1, 1, 1, 1]
    for f, d in strata:
        assert f.is_proper and f.dim == d


def test_walsh_criterion_counts(l1, hexn, square_ball):
    # extreme sets are the strata plus the whole dual ball
    assert len(enumerate_strata(l1)) + 1 == 9
    assert len(enumerate_strata(polyhedral_norm(square_ball))) + 1 == 9
    assert len(enumerate_strata(hexn)) + 1 == 13


def test_walsh_count_is_lattice_size():
    rng = random.Random(37)
    for dim in (2, 3):
        ball = rand_ball(rng, dim, 7)
        norm = polyhedral_norm(ball)
        assert len(enumerate_strata(norm)) == len(face_lattice(norm.dual_ball)) - 1


# ---------------------------------------------------------------------------
# sequence diagnostics


def l1_dist(a, b):
    return sum(abs(x - y) for x, y in zip(b, a))


def test_almost_geodesic_accepts_ray_samples(l1):
    d = lambda a, b: distance(l1, a, b)
    pts = [(Fraction(t), Fraction(t, 2)) for t in range(1, 9)]
    assert almost_geodesic_check(SequenceSample.of(pts), d, Fraction(1, 1000))


def test_almost_geodesic_rejects_zigzag(l1):
    d = lambda a, b: distance(l1, a, b)
    pts = [(Fraction(k), Fraction(k % 2)) for k in range(1, 9)]
    assert not almost_geodesic_check(SequenceSample.of(pts), d, Fraction(1, 10))
    # the same walk is fine once the slack dominates the oscillation
    assert almost_geodesic_check(SequenceSample.of(pts), d, Fraction(3))


def test_almost_geodesic_divergence_proxy(l1):
    d = lambda a, b: distance(l1, a, b)
    near = [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0))]
    assert not almost_geodesic_check(SequenceSample.of(near), d, Fraction(1))
    inward = [(Fraction(5), Fraction(0)), (Fraction(2), Fraction(0))]
    assert not almost_geodesic_check(SequenceSample.of(inward), d, Fraction(1))


def test_almost_geodesic_tail_start(l1):
    d = lambda a, b: distance(l1, a, b)
    pts = [(Fraction(0), Fraction(3)), (Fraction(1), Fraction(0)),
           (Fraction(2), Fraction(0)), (Fraction(4), Fraction(0)),
           (Fraction(7), Fraction(0))]
    assert not almost_geodesic_check(SequenceSample.of(pts), d, Fraction(1, 100))
    assert almost_geodesic_check(SequenceSample.of(pts), d, Fraction(1, 100),
                                 tail_start=1)


def test_sequence_sample_rejections(l1):
    d = lambda a, b: distance(l1, a, b)
    with pytest.raises(InputError):
        SequenceSample.of([])
    one = SequenceSample.of([(1, 0)])
    with pytest.raises(InputError):
        almost_geodesic_check(one, d, 1)
    same = SequenceSample.of([(1, 0), (1, 0), (1, 0)])
    with pytest.raises(InputError):
        almost_geodesic_check(same, d, 1)
    with pytest.raises(InputError):
        chain_check(same, d, 1)
    with pytest.raises(InputError):
        chain_check(SequenceSample.of([(0, 0), (1, 0)]), d, 1)


def test_chain_accepts_and_rejects(l1):
    d = lambda a, b: distance(l1, a, b)
    ray = [(Fraction(t), Fraction(0)) for t in range(1, 8)]
    assert chain_check(SequenceSample.of(ray), d, Fraction(1, 1000))
    zig = [(Fraction(k), Fraction(k % 2)) for k in range(1, 8)]
    assert not chain_check(SequenceSample.of(zig), d, Fraction(1, 10))


def test_almost_geodesic_implies_double_eps_chain(l1):
    """Pair slack eps on tail pairs forces triple slack 2*eps."""
    d = lambda a, b: distance(l1, a, b)
    rng = random.Random(43)
    eps = Fraction(1, 3)
    hits = 0
    for _ in range(40):
        u = rand_nonzero_vector(rng, 2)
        q = rand_vector(rng, 2)
        pts = []
        for t in range(2, 10):
            noise = (Fraction(rng.randint(-1, 1), 50), Fraction(rng.randint(-1, 1), 50))
            pts.append((q[0] + t * u[0] + noise[0], q[1] + t * u[1] + noise[1]))
        sample = SequenceSample.of(pts, q)
        if almost_geodesic_check(sample, d, eps):
            hits += 1
            assert chain_check(sample, d, 2 * eps)
    assert hits >= 5


def test_convexity_midpoint_scalar_blend(l1):
    ray1 = ((0, 0), (1, 0))
    ray2 = ((7, 0), (2, 0))
    samples = [(0, 0), (1, 1), (-2, 3), (Fraction(1, 2), Fraction(-5, 3))]
    assert convexity_midpoint_test(l1, ray1, ray2, Fraction(1, 2), samples)
    assert convexity_midpoint_test(l1, ray1, ray2, 0, samples)


def test_convexity_midpoint_cycled_blend(l1):
    ray1 = ((0, 0), (1, 0))
    ray2 = ((3, 0), (1, 0))
    samples = [(0, 0), (2, -1), (Fraction(3, 4), Fraction(1, 6))]
    assert convexity_midpoint_test(l1, ray1, ray2, (0, 1), samples)
    assert convexity_midpoint_test(l1, ray1, ray2,
                                   (Fraction(1, 4), Fraction(3, 4)), samples)


def test_convexity_midpoint_rejects_mismatched_rays(l1):
    with pytest.raises(PreconditionError):
        convexity_midpoint_test(l1, ((0, 0), (1, 0)), ((0, 0), (0, 1)),
                                Fraction(1, 2), [(0, 0)])
    with pytest.raises(PreconditionError):
        # same face, different canonical basepoints
        convexity_midpoint_test(l1, ((0, 0), (1, 0)), ((0, 5), (1, 0)),
                                Fraction(1, 2), [(0, 0)])
    with pytest.raises(InputError):
        convexity_midpoint_test(l1, ((0, 0), (1, 0)), ((3, 0), (1, 0)),
                                Fraction(3, 2), [(0, 0)])


@pytest.mark.parametrize("lam, samples, t_schedule", [
    ([], [(0, 0)], None),
    (Fraction(1, 2), [], None),
    (Fraction(1, 2), [(0, 0)], []),
], ids=["no-lam", "no-samples", "no-schedule"])
def test_convexity_midpoint_rejects_empty_inputs(l1, lam, samples, t_schedule):
    with pytest.raises(InputError):
        convexity_midpoint_test(l1, ((0, 0), (1, 0)), ((3, 0), (1, 0)), lam, samples,
                                t_schedule=t_schedule)


def test_convexity_midpoint_random_pairs():
    rng = random.Random(47)
    for _ in range(20):
        norm = polyhedral_norm(rand_ball(rng, 2, 7))
        u = rand_nonzero_vector(rng, 2)
        q = rand_vector(rng, 2)
        # shift the basepoint along the span the canonicalisation removes,
        # so both rays have the same boundary limit by construction
        h = limit_of_ray(norm, q, u)
        shift = vsub(q, h.basepoint)
        q2 = tuple(a + 2 * b for a, b in zip(q, shift))
        assert horofunctions_equal(h, limit_of_ray(norm, q2, u))
        samples = [rand_vector(rng, 2) for _ in range(4)]
        far = tuple(Fraction(10) ** k for k in range(6, 14))
        assert convexity_midpoint_test(norm, (q, u), (q2, u),
                                       Fraction(1, 3), samples, t_schedule=far)


# ---------------------------------------------------------------------------
# serialization


def test_horofunction_json_roundtrip(l1):
    h = limit_of_ray(l1, (5, 2), (1, 0))
    obj = horofunction_to_json(h)
    assert obj == {"face": [0, 1], "p": ["0", "2"]}
    E = face_of(l1.dual_ball, obj["face"])
    h2 = make_horofunction(l1, E, tuple(Fraction(x) for x in obj["p"]))
    assert horofunctions_equal(h, h2)
