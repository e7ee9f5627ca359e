"""Gauge, dual pseudo-norm and asymmetric distances.

The gauge has two independent evaluation routes: the facet-constraint
maximum implemented in the package and the dual-vertex minimum
-min{<q|v> : q vertex of the polar ball}.  They must agree exactly.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horopoly.errors import DimensionMismatch, OriginNotInterior
from horopoly.norm import distance, gauge, polyhedral_norm, pseudo_norm
from horopoly.polytope import convex_hull, face_of, polar_dual
from horopoly._linalg import vadd, vdot, vec

from geomtest import on_facet, rand_ball, rand_vector

F = Fraction


def dual_vertex_gauge(norm, v):
    """Oracle: evaluate the gauge as the pseudo-norm of the polar ball."""
    return -min(vdot(q, vec(v)) for q in norm.dual_ball.vertices)


@pytest.fixture(scope="session")
def l1(l1_ball):
    return polyhedral_norm(l1_ball)


@pytest.fixture(scope="session")
def asym(asym_ball):
    return polyhedral_norm(asym_ball)


def test_norm_requires_origin_interior():
    with pytest.raises(OriginNotInterior):
        polyhedral_norm(convex_hull([(0, 0), (1, 0), (0, 1)]))


def test_gauge_frozen_values(l1):
    # both routes give -min{-7, -1, 7, 1} = 7 at (3, 4)
    assert gauge(l1, (3, 4)) == 7
    assert dual_vertex_gauge(l1, (3, 4)) == 7
    assert gauge(l1, (1, 0)) == 1  # vertices sit on the unit sphere
    assert gauge(l1, (0, 0)) == 0


def test_gauge_dimension_check(l1):
    with pytest.raises(DimensionMismatch):
        gauge(l1, (1, 2, 3))


def test_gauge_routes_agree_on_random_vectors():
    rng = random.Random(41)
    for dim, count in [(2, 8), (3, 8), (4, 7)]:
        N = polyhedral_norm(rand_ball(rng, dim, count))
        for _ in range(120):
            v = rand_vector(rng, dim)
            assert gauge(N, v) == dual_vertex_gauge(N, v)


def test_gauge_unit_sphere_is_boundary(l1):
    rng = random.Random(43)
    for _ in range(50):
        v = rand_vector(rng, 2)
        g = gauge(l1, v)
        if g == 0:
            continue
        w = tuple(x / g for x in v)
        assert gauge(l1, w) == 1
        assert any(on_facet(h, w) for h in l1.ball.facets)


def test_pseudo_norm_of_polar_is_the_1_norm(l1):
    rng = random.Random(47)
    for _ in range(60):
        v = rand_vector(rng, 2)
        assert pseudo_norm(l1.dual_ball, v) == abs(v[0]) + abs(v[1])


def test_pseudo_norm_single_vertex():
    # C = {(-1, -1)} gives |p|_C = p_1 + p_2
    assert pseudo_norm([vec((-1, -1))], (3, 4)) == 7
    assert pseudo_norm([vec((-1, -1))], (-2, 1)) == -(-1 * -2 + -1 * 1)


def test_pseudo_norm_on_edge_face(l1):
    # the edge of the square on y_1 = -1 has |p| = p_1 + |p_2|
    sq = l1.dual_ball
    edge = face_of(sq, [i for i, w in enumerate(sq.vertices) if w[0] == -1])
    rng = random.Random(53)
    for _ in range(40):
        p = rand_vector(rng, 2)
        assert pseudo_norm(edge, p) == p[0] + abs(p[1])


def test_pseudo_norm_monotone_in_the_set(l1):
    sq = l1.dual_ball
    edge = face_of(sq, [0, 1])
    rng = random.Random(59)
    for _ in range(40):
        p = rand_vector(rng, 2)
        assert pseudo_norm(edge, p) <= pseudo_norm(sq, p)


def test_asymmetric_distance(asym):
    # ball reaches 2 in the +x direction but only 1 in the -x direction
    assert distance(asym, (0, 0), (1, 0)) == F(1, 2)
    assert distance(asym, (1, 0), (0, 0)) == 1


def test_distance_translation_invariance(asym):
    rng = random.Random(61)
    for _ in range(40):
        x, z, t = (rand_vector(rng, 2) for _ in range(3))
        assert distance(asym, vadd(x, t), vadd(z, t)) == distance(asym, x, z)


def test_triangle_inequality_and_homogeneity():
    rng = random.Random(67)
    for dim in (2, 3):
        N = polyhedral_norm(rand_ball(rng, dim, 8))
        for _ in range(60):
            u, v = rand_vector(rng, dim), rand_vector(rng, dim)
            assert gauge(N, vadd(u, v)) <= gauge(N, u) + gauge(N, v)
            c = abs(rand_vector(rng, 1)[0])
            assert gauge(N, tuple(c * x for x in u)) == c * gauge(N, u)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_gauge_positive_off_origin(seed):
    rng = random.Random(seed)
    N = polyhedral_norm(rand_ball(rng, 2, 6))
    v = rand_vector(rng, 2)
    g = gauge(N, v)
    assert (g == 0) == (v == vec((0, 0)))
    # asymmetry is bounded by the two gauges both being norms of v and -v
    assert gauge(N, tuple(-x for x in v)) >= 0


def test_norm_carries_its_polar(l1, l1_ball):
    assert l1.dual_ball == polar_dual(l1_ball)
