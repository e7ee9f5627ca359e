"""Exact polytope engine: hulls, dual descriptions, polarity, face lattices.

Derived expected values are frozen from independent oracles defined here:
a pairwise side-test facet oracle in the plane, a Cramer-rule vertex
enumerator, and a facet-subset face enumerator.
"""

import gc
import random
import weakref
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horopoly.errors import (
    DimensionMismatch,
    EmptyInput,
    InputError,
    NotAFace,
    OriginNotInterior,
    PreconditionError,
)
from horopoly import polytope
from horopoly.polytope import (
    Polytope,
    convex_hull,
    dual_face,
    f_vector,
    face_lattice,
    face_of,
    negate,
    polar_dual,
    polytope_from_json,
    polytope_to_json,
)
from horopoly._linalg import mat_vec, vadd, vdot, vec, vsub
from horopoly.rootsys import build, named_weight
from horopoly.satake import satake_ball, weight_hull, weight_spec

from geomtest import (normalized_halfspace, on_facet, oracle_hull,
                      oracle_vertex_enumeration, rand_ball, rand_vector, rank,
                      relative_interior_point)

F = Fraction


# ---------------------------------------------------------------------------
# independent oracles


def oracle_facets_2d(points):
    """Every line through two points with all points on one side is a facet."""
    pts = [vec(p) for p in points]
    found = set()
    for a, b in combinations(pts, 2):
        d = vsub(b, a)
        n = (-d[1], d[0])
        vals = [vdot(n, p) - vdot(n, a) for p in pts]
        if all(v >= 0 for v in vals):
            found.add(normalized_halfspace(n, vdot(n, a)))
        elif all(v <= 0 for v in vals):
            found.add(normalized_halfspace((-n[0], -n[1]), -vdot(n, a)))
    return found


def oracle_vertices_2d(halfspaces):
    """Cramer-rule enumeration of all feasible pairwise intersections."""
    out = set()
    for h1, h2 in combinations(halfspaces, 2):
        (a, b), (c, d) = h1.functional, h2.functional
        det = a * d - b * c
        if det == 0:
            continue
        x = (h1.offset * d - b * h2.offset) / det
        y = (a * h2.offset - h1.offset * c) / det
        if all(h.contains((x, y)) for h in halfspaces):
            out.add((x, y))
    return out


def oracle_faces(P):
    """All nonempty equality sets of facet subsets, plus the polytope itself."""
    n = len(P.vertices)
    active = [frozenset(i for i, v in enumerate(P.vertices) if on_facet(h, v))
              for h in P.facets]
    found = {frozenset(range(n))}
    for r in range(1, len(active) + 1):
        for subset in combinations(active, r):
            s = frozenset.intersection(*subset)
            if s:
                found.add(s)
    return found


# ---------------------------------------------------------------------------
# convex_hull


def test_hull_drops_interior_point(l1_ball):
    P = convex_hull([(1, 0), (0, 1), (-1, 0), (0, -1), (0, 0)])
    assert P == l1_ball
    assert len(P.vertices) == 4
    assert len(P.facets) == 4


def test_hull_triangle_matches_facet_oracle():
    pts = [(1, 0), (0, 1), (-1, -1)]
    P = convex_hull(pts)
    assert set(P.facets) == oracle_facets_2d(pts)
    assert len(P.vertices) == 3 and len(P.facets) == 3


def test_hull_rank_two_roots_hexagon(skew_hexagon):
    assert len(skew_hexagon.vertices) == 6
    assert len(skew_hexagon.facets) == 6


def test_hull_collinear_input_is_lower_dimensional():
    P = convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])
    assert P.affine_dim == 1
    assert P.vertices == (vec((0, 0)), vec((3, 3)))
    assert P.facets == ()


def test_hull_single_point():
    P = convex_hull([(F(1, 2), F(-3))])
    assert P.affine_dim == 0 and P.vertices == (vec((F(1, 2), -3)),)


def test_hull_errors():
    with pytest.raises(EmptyInput):
        convex_hull([])
    with pytest.raises(DimensionMismatch):
        convex_hull([(1, 0), (1, 0, 0)])


def test_hull_many_points_in_disk():
    rng = random.Random(20)
    pts = []
    while len(pts) < 600:
        p = rand_vector(rng, 2, num=30, den=7)
        if p[0] * p[0] + p[1] * p[1] <= 20:
            pts.append(p)
    P = convex_hull(pts)
    assert all(all(h.contains(p) for h in P.facets) for p in pts)
    for v in P.vertices:
        assert rank([h.functional for h in P.facets if on_facet(h, v)]) == 2


def test_hull_extreme_points_match_pairwise_oracle():
    rng = random.Random(7)
    pts = list({rand_vector(rng, 2, num=9, den=4) for _ in range(80)})
    P = convex_hull(pts)
    facets = oracle_facets_2d(pts)
    oracle_vertices = {p for p in pts
                       if rank([h.functional for h in facets if on_facet(h, p)]) == 2}
    assert set(P.vertices) == oracle_vertices


def test_hull_skips_candidates_spanning_no_hyperplane():
    # the triple on the edge from (1,0,0) to (0,1,0) leaves a 2-D
    # nullspace; one of its normals gives the supporting plane x + y = 1,
    # which meets the octahedron in that edge only
    pts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
           (F(1, 2), F(1, 2), 0)]
    P = convex_hull(pts)
    assert len(P.vertices) == 6 and len(P.facets) == 8
    assert P == oracle_hull(pts)


@st.composite
def grid_point_sets(draw):
    """Up to 10 points of a coarse rational grid in dim 1 to 4.

    The grid is small enough that duplicates, coplanar points and points
    inside facets are common.
    """
    dim = draw(st.integers(1, 4))
    coord = st.sampled_from([F(k, 2) for k in range(-3, 4)])
    return draw(st.lists(st.tuples(*[coord] * dim), min_size=dim + 1, max_size=10))


@settings(max_examples=150, deadline=None)
@given(grid_point_sets())
def test_hull_matches_subset_scan_oracle(points):
    P = convex_hull(points)
    if P.is_full_dimensional:
        assert P == oracle_hull(points)


@pytest.mark.parametrize("flat_dim, dim", [(1, 3), (2, 3), (2, 4), (3, 4)])
def test_lower_dimensional_hull_matches_oracle_under_affine_map(flat_dim, dim):
    """Points of R^flat_dim put into R^dim by an injective rational affine
    map: the hull's vertices are the images of the oracle's vertices."""
    rng = random.Random(100 * flat_dim + dim)
    checked = 0
    while checked < 15:
        pts = [rand_vector(rng, flat_dim, num=3, den=2)
               for _ in range(rng.randint(flat_dim + 1, 10))]
        A = [rand_vector(rng, flat_dim, num=4, den=3) for _ in range(dim)]
        if rank(A) < flat_dim or not convex_hull(pts).is_full_dimensional:
            continue
        b = rand_vector(rng, dim)
        image = {p: vadd(mat_vec(A, p), b) for p in pts}
        P = convex_hull(image.values())
        assert P.affine_dim == flat_dim and P.facets == ()
        assert P.vertices == tuple(sorted(image[v] for v in oracle_hull(pts).vertices))
        checked += 1


# ---------------------------------------------------------------------------
# dual descriptions


def test_vertex_enum_square_matches_cramer_oracle():
    hs = [normalized_halfspace((1, 0), -1), normalized_halfspace((-1, 0), -1),
          normalized_halfspace((0, 1), -1), normalized_halfspace((0, -1), -1)]
    P = oracle_vertex_enumeration(hs)
    assert set(P.vertices) == oracle_vertices_2d(hs)
    assert set(P.vertices) == {vec(v) for v in [(1, 1), (1, -1), (-1, 1), (-1, -1)]}


def test_round_trip_v_h_v():
    rng = random.Random(3)
    for dim, count in [(2, 12), (3, 9), (4, 7)]:
        for _ in range(5):
            P = rand_ball(rng, dim, count)
            assert oracle_vertex_enumeration(convex_hull(P.vertices).facets) == P


# ---------------------------------------------------------------------------
# polar duality


def test_polar_of_1_norm_ball_is_square(l1_ball, square_ball):
    assert polar_dual(l1_ball) == square_ball
    assert polar_dual(l1_ball).vertices == tuple(
        vec(v) for v in [(-1, -1), (-1, 1), (1, -1), (1, 1)])


def test_polar_triangle_frozen_from_equality_oracle():
    tri = convex_hull([(1, 0), (0, 1), (-1, -1)])
    # oracle: solve <y|a_i> = -1 on vertex pairs, keep feasible solutions
    cons = [normalized_halfspace(a, -1) for a in tri.vertices]
    assert set(polar_dual(tri).vertices) == oracle_vertices_2d(cons)
    assert set(polar_dual(tri).vertices) == {
        vec(v) for v in [(-1, -1), (2, -1), (-1, 2)]}


def test_polar_requires_interior_origin():
    shifted = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(OriginNotInterior):
        polar_dual(shifted)
    segment = convex_hull([(-1, 0), (1, 0)])
    with pytest.raises(OriginNotInterior):
        polar_dual(segment)


def test_polar_involution_random():
    rng = random.Random(11)
    for dim, count in [(2, 10), (3, 8), (4, 7)]:
        for _ in range(6):
            P = rand_ball(rng, dim, count)
            assert polar_dual(polar_dual(P)) == P


def test_polar_agrees_with_vertex_enumeration():
    rng = random.Random(13)
    for dim, count in [(2, 9), (3, 7)]:
        for _ in range(4):
            P = rand_ball(rng, dim, count)
            direct = oracle_vertex_enumeration(
                [normalized_halfspace(v, -1) for v in P.vertices])
            assert direct == polar_dual(P)


# ---------------------------------------------------------------------------
# face lattice


def test_square_f_vector(square_ball):
    assert f_vector(square_ball) == (4, 4, 1)


def test_face_lattice_matches_subset_oracle(l1_ball, square_ball, skew_hexagon):
    cube = convex_hull([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    for P in [l1_ball, square_ball, skew_hexagon, cube]:
        ours = {frozenset(f.vertex_indices) for f in face_lattice(P)}
        assert ours == oracle_faces(P)


def test_face_support_is_exact(l1_ball):
    for f in face_lattice(l1_ball):
        for h in f.support:
            assert all(on_facet(h, v) for v in f.vertices)
        if f.is_proper:
            assert f.support
        else:
            assert f.support == ()


def test_segment_ball_f_vector():
    seg = convex_hull([(F(-1),), (F(1),)])
    assert f_vector(seg) == (2, 1)


def test_face_of_rejects_non_faces(square_ball):
    with pytest.raises(NotAFace):
        face_of(square_ball, [0, 3])  # diagonal of the square
    with pytest.raises(InputError):
        face_of(square_ball, [99])


# ---------------------------------------------------------------------------
# dual faces


def test_dual_faces_of_1_norm_ball(l1_ball):
    Q = polar_dual(l1_ball)
    # vertex a_j of B dualises to the edge of the square on <y|a_j> = -1
    for j, a in enumerate(l1_ball.vertices):
        vf = face_of(l1_ball, [j])
        df = dual_face(l1_ball, vf)
        expect = [i for i, w in enumerate(Q.vertices) if vdot(w, a) == -1]
        assert list(df.vertex_indices) == expect
        assert df.dim == 1
    # edge of B dualises to a vertex of the square
    for f in face_lattice(l1_ball):
        if f.dim == 1:
            df = dual_face(l1_ball, f)
            assert df.dim == 0
            (w,) = df.vertices
            assert all(vdot(w, v) == -1 for v in f.vertices)


def test_dual_face_dimension_formula():
    rng = random.Random(17)
    for dim, count in [(2, 10), (3, 8), (4, 7)]:
        P = rand_ball(rng, dim, count)
        for f in face_lattice(P):
            if f.is_proper:
                assert f.dim + dual_face(P, f).dim == dim - 1


def test_dual_face_reverses_inclusion():
    rng = random.Random(19)
    P = rand_ball(rng, 3, 8)
    faces = [f for f in face_lattice(P) if f.is_proper]
    for f, g in combinations(faces, 2):
        if set(f.vertex_indices) <= set(g.vertex_indices):
            df, dg = dual_face(P, f), dual_face(P, g)
            assert set(dg.vertex_indices) <= set(df.vertex_indices)


def test_dual_face_is_bijection_on_proper_faces():
    rng = random.Random(23)
    P = rand_ball(rng, 3, 7)
    Q = polar_dual(P)
    images = {dual_face(P, f).vertex_indices
              for f in face_lattice(P) if f.is_proper}
    assert images == {f.vertex_indices for f in face_lattice(Q) if f.is_proper}
    # and applying it twice returns to the original face
    for f in face_lattice(P):
        if f.is_proper:
            assert dual_face(Q, dual_face(P, f)).vertex_indices == f.vertex_indices


def test_dual_face_rejects_improper(l1_ball):
    top = face_of(l1_ball, range(4))
    with pytest.raises(PreconditionError):
        dual_face(l1_ball, top)


# ---------------------------------------------------------------------------
# other operations


def test_union_of_crossing_squares_is_octagon(square_ball):
    rot = convex_hull([(F(3, 2), 0), (0, F(3, 2)), (F(-3, 2), 0), (0, F(-3, 2))])
    U = convex_hull(square_ball.vertices + rot.vertices)
    assert len(U.vertices) == 8 and len(U.facets) == 8


def test_union_is_idempotent(l1_ball):
    assert convex_hull(l1_ball.vertices + l1_ball.vertices) == l1_ball


def test_relative_interior_point(square_ball):
    assert relative_interior_point(square_ball) == vec((0, 0))
    edge = face_of(square_ball, [0, 1])  # (-1,-1) and (-1,1)
    assert relative_interior_point(edge) == vec((-1, 0))
    rng = random.Random(29)
    P = rand_ball(rng, 3, 8)
    c = relative_interior_point(P)
    assert all(vdot(h.functional, c) > h.offset for h in P.facets)


def test_negate_matches_recomputed_hull():
    rng = random.Random(31)
    P = rand_ball(rng, 3, 8)
    assert negate(P) == convex_hull([tuple(-x for x in v) for v in P.vertices])


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip(l1_ball):
    obj = polytope_to_json(l1_ball)
    assert obj["dim"] == 2
    assert all(isinstance(c, str) for v in obj["vertices"] for c in v)
    assert polytope_from_json(obj) == l1_ball


def test_json_rejects_non_extremal_vertices():
    with pytest.raises(InputError):
        polytope_from_json({"dim": 2,
                            "vertices": [["1", "0"], ["0", "1"], ["-1", "0"],
                                         ["0", "-1"], ["0", "0"]]})


def test_json_rejects_bad_facets(l1_ball):
    obj = polytope_to_json(l1_ball)
    obj["facets"] = [["1", "0"]]
    with pytest.raises(InputError):
        polytope_from_json(obj)


# ---------------------------------------------------------------------------
# properties


@st.composite
def small_balls(draw):
    dim = draw(st.integers(2, 3))
    count = draw(st.integers(dim + 1, 7))
    seed = draw(st.integers(0, 10**6))
    return rand_ball(random.Random(seed), dim, count)


@settings(max_examples=40, deadline=None)
@given(small_balls())
def test_polar_involution_property(P):
    Q = polar_dual(P)
    assert polar_dual(Q) == P
    assert len(Q.vertices) == len(P.facets)
    assert len(Q.facets) == len(P.vertices)


def _rebuilt(P):
    return Polytope(P.vertices, P.facets, P.ambient_dim, P.affine_dim)


@settings(max_examples=25, deadline=None)
@given(small_balls())
def test_polar_incidence_is_the_transpose(P):
    # the polar's incidence is seeded from P's, its polar's from its own
    Q = polar_dual(P)
    for R in (P, Q, polar_dual(Q)):
        assert R.incidence == _rebuilt(R).incidence


def test_polar_incidence_is_the_transpose_in_dim_4():
    P = rand_ball(random.Random(43), 4, 9)
    Q = polar_dual(P)
    assert Q.incidence == _rebuilt(Q).incidence


# the integer facet record


def _primitive_rows(raw):
    rows = set()
    for r in raw:
        if any(r[:-1]):
            g = gcd(*r)
            rows.add(tuple(x // g for x in r))
    return list(rows)


_BIG = 10**100


@st.composite
def facet_rows(draw):
    """Distinct primitive rows (a, c) with c > 0, c < 0 and c = 0 mixed in."""
    dim = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-6, 6), st.integers(-_BIG, _BIG))
    offset = st.one_of(st.just(0), st.integers(-6, 6), st.integers(-_BIG, _BIG))
    raw = draw(st.lists(st.tuples(*[entry] * dim, offset), min_size=1, max_size=8))
    return _primitive_rows(raw)


@settings(max_examples=60, deadline=None)
@given(facet_rows())
@example([(_BIG + 1, _BIG - 1, _BIG + 3), (_BIG - 1, -_BIG - 3, -_BIG - 1),
          (_BIG + 3, _BIG + 1, 0), (1, 0, 1), (1, 0, -1), (1, 0, 0)])
def test_halfspaces_from_rows_match_the_fraction_normal_form(rows):
    sorted_rows, facets = polytope._facets_from_rows(rows)
    oracle = [normalized_halfspace(r[:-1], -r[-1]) for r in sorted_rows]
    assert list(facets) == oracle == sorted(oracle)
    assert sorted(sorted_rows) == sorted(rows)
    # the fallback reads the same rows back off the halfspaces
    if rows:
        m = len(rows[0]) - 1
        assert Polytope((), facets, m, m)._facet_rows == sorted_rows


def _check_seeded_records(P, seeded):
    fresh = _rebuilt(P)
    for name in seeded:
        assert name in P.__dict__
    assert P._facet_rows == fresh._facet_rows
    assert P._homogeneous == fresh._homogeneous
    assert P.incidence == fresh.incidence


@settings(max_examples=20, deadline=None)
@given(small_balls())
def test_seeded_records_match_a_fresh_copy(P):
    _check_seeded_records(P, ("_facet_rows", "_homogeneous", "incidence"))
    Q = polar_dual(P)
    _check_seeded_records(Q, ("_facet_rows", "_homogeneous", "incidence"))
    _check_seeded_records(negate(P), ("_facet_rows", "_homogeneous"))
    _check_seeded_records(negate(Q), ("_facet_rows", "_homogeneous"))


@pytest.mark.parametrize("points", [
    [(-2,), (1,), (0,)],
    [(-1, -1), (0, -1), (1, -1), (1, 1), (-1, 1), (0, 0)],
    [(-1, 0, 0), (1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 2), (0, 0, -1),
     (F(1, 2), F(1, 2), 0)],
])
def test_seeded_records_of_hulls_with_degenerate_points(points):
    P = convex_hull(points)
    _check_seeded_records(P, ("_facet_rows", "_homogeneous", "incidence"))
    _check_seeded_records(polar_dual(P), ("_facet_rows", "_homogeneous", "incidence"))
    _check_seeded_records(negate(P), ("_facet_rows", "_homogeneous"))


@pytest.mark.parametrize("family, rank, name", [
    ("A", 2, "adjoint"), ("B", 2, "standard"), ("A", 3, "adjoint"), ("C", 3, "standard")])
def test_seeded_records_of_satake_balls(family, rank, name):
    rs = build(family, rank)
    ball = satake_ball(weight_hull(weight_spec(rs, [named_weight(rs, name)])))
    _check_seeded_records(ball, ("_facet_rows", "_homogeneous"))


@settings(max_examples=25, deadline=None)
@given(small_balls())
def test_face_counts_are_polar_reversed(P):
    assert f_vector(polar_dual(P))[:-1] == f_vector(P)[-2::-1]


def _incidence_scan(P):
    return tuple(frozenset(i for i, v in enumerate(P.vertices) if on_facet(h, v))
                 for h in P.facets)


def _dual_face_scan(P, F):
    """The dual face's vertex indices by a direct scan over the polar."""
    return tuple(j for j, w in enumerate(polar_dual(P).vertices)
                 if all(vdot(w, v) == -1 for v in F.vertices))


def _check_faces_against_scans(P):
    assert P.incidence == _incidence_scan(P)
    for F in face_lattice(P):
        assert face_of(P, F.vertex_indices) == F
        assert F.support == tuple(h for h in P.facets
                                  if all(on_facet(h, v) for v in F.vertices))
        if F.is_proper:
            assert dual_face(P, F).vertex_indices == _dual_face_scan(P, F)


@settings(max_examples=25, deadline=None)
@given(small_balls())
def test_faces_from_incidence_match_scans(P):
    _check_faces_against_scans(P)


def test_faces_from_incidence_match_scans_in_dim_4():
    rng = random.Random(37)
    for count in (6, 7, 8):
        _check_faces_against_scans(rand_ball(rng, 4, count))


def test_no_module_cache_keeps_polytopes_alive():
    P = rand_ball(random.Random(41), 3, 7)
    Q = polar_dual(P)
    assert polar_dual(P) is Q
    assert polar_dual(Q) == P and polar_dual(Q) is not P
    F = face_lattice(P)[0]
    assert face_of(P, F.vertex_indices) == F
    dual_face(P, F)
    ref = weakref.ref(P)
    del P, F
    gc.collect()
    assert ref() is None
