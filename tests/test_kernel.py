"""The integer kernel under the polytope layer, against Fraction oracles.

The helpers in horopoly._linalg are checked against rref and Leibniz
determinants, the integer projection and span_coefficients against the
Fraction Gram solve of geomtest; convex_hull, incidence and face
dimensions against the subset-scan oracle of geomtest and Fraction affine
spans.
"""

import random
from fractions import Fraction
from itertools import permutations
from math import lcm, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from geomtest import (affine_span, on_facet, oracle_hull, oracle_project_onto_span,
                      rank, rref, solve_system, transpose)
from horopoly._linalg import (adjugate, homogeneous, pivot_columns, project_onto_span,
                              span_coefficients, vadd, vscale)
from horopoly.polytope import convex_hull, face_lattice
from horopoly.rootsys import (build, named_weight, weight_coords, weyl_group,
                              weyl_orbit)

F = Fraction


def det(rows) -> int:
    """Leibniz determinant of a small square matrix."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


# ---------------------------------------------------------------------------
# integer helpers

entries = st.one_of(st.integers(-3, 3), st.integers(-10**20, 10**20))


@st.composite
def integer_matrices(draw):
    """Integer rows, often rank-deficient: some rows are integer
    combinations of earlier ones, and zero rows and columns occur."""
    ncols = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
        else:
            rows.append(tuple(draw(entries) for _ in range(ncols)))
    if rows and draw(st.booleans()):
        zero = draw(st.integers(0, ncols - 1))
        rows = [r[:zero] + (0,) + r[zero + 1:] for r in rows]
    return rows


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_pivot_columns_match_rref(rows):
    pivots = pivot_columns(rows)
    assert pivots == (rref(rows)[1] if rows else [])
    assert len(pivots) == rank(rows)


def test_pivot_columns_on_singular_matrices():
    assert pivot_columns([]) == []
    assert pivot_columns([(0, 0, 0)]) == []
    assert pivot_columns([(0, 2, 4), (0, 1, 2), (0, 0, 0)]) == [1]
    assert pivot_columns([(1, 2, 3), (4, 5, 6), (7, 8, 9)]) == [0, 1]
    assert pivot_columns([(0, 0, 5), (3, 0, 1), (6, 0, 2)]) == [0, 2]
    assert pivot_columns([(2, 1), (1, 3)]) == [0, 1]


@st.composite
def square_matrices(draw):
    """Square integer rows, n from 1 to 5, with small and huge entries:
    zero leading entries force row swaps, and some are singular."""
    n = draw(st.integers(1, 5))
    return [tuple(draw(entries) for _ in range(n)) for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_adjugate_inverts_up_to_the_determinant(rows):
    n = len(rows)
    D = det(rows)
    if not D:
        return
    adj, d = adjugate(rows)
    assert d == D
    for i in range(n):
        for j in range(n):
            assert sum(adj[i][k] * rows[k][j] for k in range(n)) == D * (i == j)


def test_adjugate_with_row_swaps():
    assert adjugate([(0, 1), (1, 0)]) == ([[0, -1], [-1, 0]], -1)
    assert adjugate([(0, 0, 2), (0, 3, 0), (5, 0, 0)]) == (
        [[0, 0, -6], [0, -10, 0], [-15, 0, 0]], -30)
    assert adjugate([(7,)]) == ([[1]], 7)


def test_homogeneous_uses_each_points_own_denominators():
    assert homogeneous((F(1, 2), F(-2, 3), F(5))) == (3, -4, 30, 6)
    assert homogeneous((F(0), F(7))) == (0, 7, 1)
    big = 10**30 + 1
    x = (F(1, big), F(3, 2 * big), F(-1, 7))
    X = homogeneous(x)
    assert X[-1] == lcm(big, 2 * big, 7)
    assert tuple(F(a, X[-1]) for a in X[:-1]) == x


@st.composite
def projection_cases(draw):
    """(vectors, v) in dims 1 to 5: empty lists, zero vectors, rows that are
    combinations of earlier ones, and entries over a pair of coprime
    100-digit denominators."""
    dim = draw(st.integers(1, 5))
    big = draw(st.integers(10**99, 10**100 - 2))
    coord = st.builds(F, st.integers(-10**3, 10**3), st.sampled_from((1, 2, 3, big, big + 1)))
    vector = st.tuples(*[coord] * dim)
    vectors = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("new", "zero", "combination")))
        if kind == "combination" and vectors:
            a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            s, t = draw(coord), draw(coord)
            vectors.append(vadd(vscale(a, s), vscale(b, t)))
        elif kind == "zero":
            vectors.append((F(0),) * dim)
        else:
            vectors.append(draw(vector))
    return vectors, draw(vector)


@settings(max_examples=100, deadline=None)
@given(projection_cases())
def test_project_onto_span_matches_fraction_oracle(case):
    vectors, v = case
    assert project_onto_span(vectors, v) == oracle_project_onto_span(vectors, v)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_span_coefficients_match_solve_system_inside_the_span(data):
    dim = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, dim))
    basis = data.draw(st.lists(st.tuples(*[entries] * dim), min_size=k, max_size=k)
                      .filter(lambda rows: rank(rows) == k))
    coeffs = data.draw(st.lists(rationals(10**30), min_size=k, max_size=k))
    x = homogeneous(tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(dim)))
    c, d = span_coefficients(basis, x[:-1])
    assert d > 0
    assert tuple(F(ci, d) for ci in c) == solve_system(transpose(basis), x[:-1])
    assert [F(ci, d * x[-1]) for ci in c] == coeffs


def test_span_coefficients_expose_what_the_root_check_refuses():
    # (1, 0, 0) has trace 1, off the span of the A2 simple roots: the
    # combination is det times its projection, not det times the vector
    simple = [(1, -1, 0), (0, 1, -1)]
    c, d = span_coefficients(simple, (1, 0, 0))
    assert [sum(ci * s[j] for ci, s in zip(c, simple)) for j in range(3)] != [d, 0, 0]
    # (0, 1) is half the long C2 simple root (0, 2): det does not divide c
    c, d = span_coefficients([(1, -1), (0, 2)], (0, 1))
    assert (F(c[0], d), F(c[1], d)) == (0, F(1, 2))
    assert any(ci % d for ci in c)


# ---------------------------------------------------------------------------
# convex_hull against the Fraction oracle


def rationals(max_den):
    return st.builds(F, st.integers(-max_den, max_den),
                     st.one_of(st.integers(1, 9), st.integers(1, max_den)))


@st.composite
def coprime_point_sets(draw):
    """Points with mixed denominators up to 10**30, some repeated."""
    dim = draw(st.integers(1, 4))
    coord = rationals(10**30)
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=dim + 1,
                        max_size=9 if dim < 4 else 8))
    return pts + draw(st.lists(st.sampled_from(pts), max_size=3))


@st.composite
def grid_point_sets(draw):
    """Points of a coarse grid with denominators 1 to 3: coplanar points,
    points inside facets and duplicates are common."""
    dim = draw(st.integers(2, 4))
    coord = st.sampled_from(sorted({F(k, d) for k in range(-3, 4) for d in (1, 2, 3)}))
    return draw(st.lists(st.tuples(*[coord] * dim), min_size=dim + 1, max_size=10))


ORBIT_SYSTEMS = [("A", 2), ("B", 2), ("C", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 3)]


@st.composite
def orbit_point_sets(draw):
    """A Weyl orbit (cospherical points, at most 24 of them in rank 3 with
    at most two fundamental weights), scaled and moved by rationals with
    large denominators."""
    fam, r = draw(st.sampled_from(ORBIT_SYSTEMS))
    rs = build(fam, r)
    ks = draw(st.sets(st.integers(1, r), min_size=1, max_size=2))
    chi = None
    for k in ks:
        w = vscale(named_weight(rs, f"fundamental:{k}"), draw(st.integers(1, 3)))
        chi = w if chi is None else vadd(chi, w)
    scale = draw(rationals(10**30).filter(lambda x: x != 0))
    shift = draw(st.tuples(*[rationals(10**30)] * r))
    return [vadd(vscale(weight_coords(rs, p), scale), shift)
            for p in weyl_orbit(weyl_group(rs), chi)]


@settings(max_examples=120, deadline=None)
@given(st.one_of(coprime_point_sets(), grid_point_sets(), orbit_point_sets()))
def test_hull_incidence_and_face_dims_match_fraction_oracle(points):
    P = convex_hull(points)
    if not P.is_full_dimensional:
        assert P.affine_dim == len(affine_span(points)[1])
        return
    assert P == oracle_hull(points)
    assert P.incidence == tuple(
        frozenset(i for i, v in enumerate(P.vertices) if on_facet(h, v))
        for h in P.facets)
    for face in face_lattice(P):
        assert face.dim == len(affine_span(face.vertices)[1])


def orbit_union(fam, r, *weights):
    """The union of the Weyl orbits of the given weights, each a sum of
    fundamental weights named by their indices, in weight coordinates."""
    rs = build(fam, r)
    group = weyl_group(rs)
    pts = []
    for ks in weights:
        chi = named_weight(rs, f"fundamental:{ks[0]}")
        for k in ks[1:]:
            chi = vadd(chi, named_weight(rs, f"fundamental:{k}"))
        pts += [weight_coords(rs, p) for p in weyl_orbit(group, chi)]
    return pts


def half_integer_grid(rng, dim, count):
    """count draws from the grid {-1, -1/2, 0, 1/2, 1}^dim: many coplanar
    points, points inside facets and duplicates."""
    return [tuple(F(rng.randint(-2, 2), 2) for _ in range(dim)) for _ in range(count)]


def test_hull_matches_oracle_on_orbits_unions_and_dense_grids():
    rng = random.Random(16)
    cases = [orbit_union("A", 3, (1, 2, 3)),  # regular: truncated octahedron
             *(orbit_union("B", 3, (k,)) for k in (1, 2, 3)),
             orbit_union("C", 3, (1,), (3,)),  # two orbits, some points inside
             half_integer_grid(rng, 3, 18), half_integer_grid(rng, 4, 12)]
    for points in cases:
        P = convex_hull(points)
        assert P == oracle_hull(points)
        assert P.incidence == tuple(
            frozenset(i for i, v in enumerate(P.vertices) if on_facet(h, v))
            for h in P.facets)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lower_dimensional_hull_matches_oracle_under_affine_map(data):
    """Points with large denominators put into a higher dimension by an
    injective rational affine map: the hull's vertices are the images of
    the oracle's."""
    flat_dim = data.draw(st.integers(1, 3))
    dim = data.draw(st.integers(flat_dim + 1, 4))
    coord = rationals(10**30)
    pts = data.draw(st.lists(st.tuples(*[coord] * flat_dim), min_size=flat_dim + 1,
                             max_size=8, unique=True))
    A = data.draw(st.lists(st.tuples(*[rationals(9)] * flat_dim), min_size=dim,
                           max_size=dim).filter(lambda A: rank(A) == flat_dim))
    b = data.draw(st.tuples(*[coord] * dim))
    image = {p: tuple(sum((a * x for a, x in zip(row, p)), bi) for row, bi in zip(A, b))
             for p in pts}
    P = convex_hull(image.values())
    flat = convex_hull(pts)
    assert P.affine_dim == flat.affine_dim and P.facets == ()
    if flat.is_full_dimensional:
        assert P.vertices == tuple(sorted(image[v] for v in oracle_hull(pts).vertices))
