"""Top-level acceptance checks, one per shipped guarantee.

Each test prints a single verdict line (visible under pytest -s) with its
wall-clock time and budget.  Everything outside the matrix-space suite is
exact rational arithmetic; the stated tolerances there are genuine float
error bars, not fudge factors.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest

from geomtest import identity_matrix, on_facet
from horopoly._linalg import mat_vec, vadd, vdot, vscale, vsub
from horopoly.flatspace import (InvarianceConfig, exp_flat, finsler_distance,
                                flat_gauge, flat_limit_consistency, flat_space,
                                invariance_suite)
from horopoly.horoboundary import (SequenceSample, almost_geodesic_check,
                                   chain_check, convexity_midpoint_test,
                                   evaluate, horofunctions_equal,
                                   limit_of_ray, make_horofunction, psi)
from horopoly.norm import distance, gauge, polyhedral_norm, pseudo_norm
from horopoly.polytope import (convex_hull, dual_face, f_vector, face_lattice,
                               face_of, polar_dual)
from horopoly.rootsys import (build, named_weight, weyl_point_matrices,
                              weyl_weight_matrices)
from horopoly.satake import (classify, combinatorial_summary, invariant_under,
                             same_compactification, satake_ball, weight_hull,
                             weight_spec)


@contextmanager
def criterion(num, label, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"acceptance {num:02d} [{label}]: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget else "FAIL"
    print(f"acceptance {num:02d} [{label}]: {verdict} "
          f"({elapsed:.2f}s, budget {budget:g}s)")
    assert elapsed < budget, f"criterion {num} ran over its time budget"


def rand_frac(rng, bound=4, max_den=3):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, max_den))

def rand_vec(rng, dim, bound=4, max_den=3):
    return tuple(rand_frac(rng, bound, max_den) for _ in range(dim))

def rand_nonzero(rng, dim, bound=4, max_den=3):
    while True:
        v = rand_vec(rng, dim, bound, max_den)
        if any(v):
            return v


def random_ball(rng, dim):
    """Random rational polytope with 0 pinned strictly inside."""
    extra = 6 if dim < 4 else 3
    pts = [rand_vec(rng, dim) for _ in range(rng.randint(dim + 2, dim + extra))]
    for i in range(dim):
        axis = [Fraction(0)] * dim
        axis[i] = Fraction(1)
        pts.append(tuple(axis))
        pts.append(tuple(-c for c in axis))
    return convex_hull(pts)


def test_01_cross_ball_polar(l1_ball):
    with criterion(1, "polar dual of the cross ball", 1.0):
        square = polar_dual(l1_ball)
        expected = convex_hull([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        assert square == expected

        for j in range(4):
            a = l1_ball.vertices[j]
            edge = dual_face(l1_ball, face_of(l1_ball, [j]))
            assert edge.dim == 1
            assert all(vdot(w, a) == -1 for w in edge.vertices)

        for h in l1_ball.facets:
            idxs = [i for i, v in enumerate(l1_ball.vertices) if on_facet(h, v)]
            corner = dual_face(l1_ball, face_of(l1_ball, idxs))
            assert corner.dim == 0
            b = corner.vertices[0]
            assert all(vdot(b, l1_ball.vertices[i]) == -1 for i in idxs)


def test_02_duality_involution():
    with criterion(2, "polar involution and face dimension pairing", 60.0):
        rng = random.Random(20813)
        checked = 0
        for trial in range(201):
            dim = 2 + trial % 3
            B = random_ball(rng, dim)
            assert len(B.vertices) <= 40
            Q = polar_dual(B)
            assert polar_dual(Q) == B

            faces = [F for F in face_lattice(B) if F.is_proper]
            dual_dims = {frozenset(f.vertex_indices): f.dim
                         for f in face_lattice(Q)}
            # the polar vertices w with <w|v> = -1, for each ball vertex v
            tight = [frozenset(k for k, w in enumerate(Q.vertices) if vdot(w, v) == -1)
                     for v in B.vertices]
            for F in faces:
                idxs = frozenset.intersection(*(tight[i] for i in F.vertex_indices))
                # the pairing must land exactly on a face of the polar
                assert dual_dims[idxs] == dim - 1 - F.dim
            # spot-check the dual_face helper against the same pairing
            F = faces[trial % len(faces)]
            assert dual_face(B, F).dim == dim - 1 - F.dim
            checked += 1
        assert checked >= 200


def test_03_gauge_matches_dual_pseudo_norm(l1_ball, square_ball, skew_hexagon,
                                           asym_ball):
    with criterion(3, "gauge equals the dual-ball pseudo-norm", 10.0):
        rng = random.Random(977)
        for ball in (l1_ball, square_ball, skew_hexagon, asym_ball):
            norm = polyhedral_norm(ball)
            for _ in range(500):
                v = rand_vec(rng, 2, bound=6, max_den=5)
                assert gauge(norm, v) == pseudo_norm(norm.dual_ball, v)


def test_04_closed_form_boundary_functions(l1_ball):
    with criterion(4, "closed forms of the cross-ball boundary", 1.0):
        norm = polyhedral_norm(l1_ball)
        square = norm.dual_ball
        rng = random.Random(4242)

        for j, b in enumerate(square.vertices):
            h = make_horofunction(norm, face_of(square, [j]),
                                  rand_vec(rng, 2))
            for _ in range(100):
                y = rand_vec(rng, 2, bound=5, max_den=4)
                assert evaluate(h, y) == vdot(b, y)

        # facet of the dual ball lying against the first cross vertex
        idxs = [i for i, w in enumerate(square.vertices) if w[0] == -1]
        E = face_of(square, idxs)
        p = rand_vec(rng, 2)
        h = make_horofunction(norm, E, p)
        for _ in range(100):
            y = rand_vec(rng, 2, bound=5, max_den=4)
            expected = -y[0] + abs(p[1] - y[1]) - abs(p[1])
            assert evaluate(h, y) == expected


def test_05_ray_limits_match_far_points(l1_ball, square_ball, skew_hexagon,
                                        asym_ball):
    with criterion(5, "ray limits against far normalized distances", 60.0):
        rng = random.Random(555)
        t = Fraction(10) ** 8
        tol = Fraction(1, 10 ** 6)
        for ball in (l1_ball, square_ball, skew_hexagon, asym_ball):
            norm = polyhedral_norm(ball)
            samples = [rand_vec(rng, 2, bound=5, max_den=4) for _ in range(50)]
            for _ in range(200):
                q = rand_vec(rng, 2)
                u = rand_nonzero(rng, 2)
                h = limit_of_ray(norm, q, u)
                z = vadd(q, vscale(u, t))
                assert all(abs(evaluate(h, y) - psi(norm, z, y)) <= tol
                           for y in samples)


def test_06_almost_geodesic_suite(l1_ball, square_ball, skew_hexagon,
                                  asym_ball):
    with criterion(6, "almost geodesic rays, chains, and blends", 60.0):
        rng = random.Random(606)
        schedule = [Fraction(10) ** k for k in range(8)]
        for ball in (l1_ball, square_ball, skew_hexagon, asym_ball):
            norm = polyhedral_norm(ball)
            dist = lambda a, b: distance(norm, a, b)

            for _ in range(25):
                q = rand_vec(rng, 2)
                u = rand_nonzero(rng, 2)
                sample = SequenceSample.of(
                    [vadd(q, vscale(u, t)) for t in schedule], basepoint=q)
                for eps in (Fraction(1), Fraction(1, 10 ** 6),
                            Fraction(1, 10 ** 9)):
                    assert almost_geodesic_check(sample, dist, eps)
                    assert chain_check(sample, dist, 2 * eps)

            pairs = 0
            points = [rand_vec(rng, 2, bound=5, max_den=4) for _ in range(6)]
            while pairs < 50:
                u = rand_nonzero(rng, 2)
                q1, q2 = rand_vec(rng, 2), rand_vec(rng, 2)
                h1 = limit_of_ray(norm, q1, u)
                h2 = limit_of_ray(norm, q2, u)
                if not horofunctions_equal(h1, h2):
                    continue
                assert convexity_midpoint_test(norm, (q1, u), (q2, u),
                                               Fraction(1, 2), points)
                pairs += 1


def regular_weight(rs):
    w = named_weight(rs, "fundamental:1")
    for k in range(2, rs.rank + 1):
        w = vadd(w, named_weight(rs, f"fundamental:{k}"))
    return w


def test_07_weight_hull_combinatorics():
    with criterion(7, "weight hull and induced ball face counts", 30.0):
        A2, A3 = build("A", 2), build("A", 3)

        hex_hull = weight_hull(weight_spec(A2, [named_weight(A2, "adjoint")]))
        assert f_vector(hex_hull) == (6, 6, 1)

        adj3 = weight_hull(weight_spec(A3, [named_weight(A3, "adjoint")]))
        ball3 = satake_ball(adj3)
        assert (len(adj3.vertices), len(adj3.facets)) == (12, 14)
        assert (len(ball3.vertices), len(ball3.facets)) == (14, 12)

        report = classify(weight_spec(A3, [regular_weight(A3)]))
        assert report.hull_f_vector[0] == 24
        assert report.facet_count == 14
        assert report.shape == "permutohedron"

        mixed = weight_spec(A2, [named_weight(A2, "standard"),
                                 named_weight(A2, "dual-standard")])
        hull = weight_hull(mixed)
        assert f_vector(hull) == (6, 6, 1)
        mats = [m for m in weyl_weight_matrices(A2)
                if m != identity_matrix(A2.rank)]
        for v in hull.vertices:
            assert any(mat_vec(m, v) == v for m in mats)


def test_08_group_and_scale_invariance():
    with criterion(8, "reflection-group and scale invariance", 30.0):
        cases = [("A", 2, ["adjoint"]), ("A", 2, ["standard"]),
                 ("A", 2, ["standard", "dual-standard"]),
                 ("A", 3, ["adjoint"]), ("A", 3, ["regular"]),
                 ("B", 2, ["adjoint"]), ("C", 3, ["standard"])]
        for family, rank, names in cases:
            rs = build(family, rank)
            weights = [regular_weight(rs) if n == "regular"
                       else named_weight(rs, n) for n in names]
            spec = weight_spec(rs, weights)
            hull = weight_hull(spec)
            ball = satake_ball(hull)
            # the hull carries the weight-side action, the induced ball the
            # point-side action; the two are inverse transposes of each other
            assert invariant_under(hull, weyl_weight_matrices(rs))
            assert invariant_under(ball, weyl_point_matrices(rs))

            doubled = weight_spec(rs, weights, scale=2)
            assert (combinatorial_summary(classify(spec))
                    == combinatorial_summary(classify(doubled)))


def test_09_compactification_comparison():
    with criterion(9, "equality decision for compactifications", 30.0):
        A2 = build("A", 2)
        adjoint = weight_spec(A2, [named_weight(A2, "adjoint")])
        assert same_compactification(
            adjoint, weight_spec(A2, [named_weight(A2, "adjoint")], scale=2))
        assert not same_compactification(
            weight_spec(A2, [named_weight(A2, "standard")]),
            weight_spec(A2, [named_weight(A2, "dual-standard")]))
        assert same_compactification(
            adjoint, weight_spec(A2, [regular_weight(A2)]))


def test_10_matrix_space_numerics(skew_hexagon):
    with criterion(10, "matrix-space numeric suite", 120.0):
        fs = flat_space(3, skew_hexagon)
        rng = random.Random(1010)

        def rand_spectrum():
            a = Fraction(rng.randint(-8, 8), 4)
            b = Fraction(rng.randint(-8, 8), 4)
            return (a, b, -a - b)

        for _ in range(100):
            Ha, Hb = rand_spectrum(), rand_spectrum()
            d = finsler_distance(fs, exp_flat(Ha), exp_flat(Hb))
            diff = tuple(sorted(vsub(Hb, Ha), reverse=True))
            assert abs(d - float(flat_gauge(fs, diff))) <= 1e-10

        grid = [(a, b, -a - b) for a, b in product(range(-2, 3), repeat=2)]
        start = (Fraction(0),) * 3
        regular = (Fraction(1, 1000), Fraction(0), Fraction(-1, 1000))
        wall = (Fraction(1, 2000), Fraction(1, 2000), Fraction(-1, 1000))
        for direction in (regular, wall):
            report = flat_limit_consistency(fs, start, direction, grid,
                                            t_max=1e4, tol=1e-5)
            assert report.status == "converged"
            assert report.matrix_route_max_t == pytest.approx(1e4)

        suite = invariance_suite(fs, InvarianceConfig(samples=100, seed=7,
                                                      invariance_tol=1e-9))
        assert suite.basepoint_ok and suite.equivariance_ok
        assert suite.limit_defects[-1][0] == pytest.approx(1000.0)
        assert suite.limit_defects[-1][1] < 1e-3
        defects = [d for _, d in suite.limit_defects]
        assert all(a >= b for a, b in zip(defects, defects[1:]))
