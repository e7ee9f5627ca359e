"""Weight hulls, their polars, classification, and equivalence decisions.

Independent oracles: the negated polar is checked against a direct
halfspace build of {x : <v|x> <= 1}, orbit hull vertices against hand
computed chart images, and singular supports against explicit root
pairings.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomtest import (normalized_halfspace, oracle_same_compactification,
                      oracle_vertex_enumeration, relative_interior_point,
                      wall_signature)
from horopoly._linalg import mat_vec
from horopoly.cli import _emit_json
from horopoly.errors import InputError, PreconditionError
from horopoly.horoboundary import enumerate_strata
from horopoly.norm import polyhedral_norm
from horopoly import polytope
from horopoly.polytope import (
    convex_hull,
    f_vector,
    face_lattice,
    negate,
    polar_dual,
)
from horopoly.rootsys import (
    build,
    named_weight,
    weyl_group,
    weyl_orbit,
    weyl_point_matrices,
    weyl_weight_matrices,
)
from horopoly.satake import (
    _LatticeProfile,
    classify,
    combinatorial_summary,
    invariant_under,
    same_compactification,
    satake_ball,
    weight_hull,
    weight_spec,
)

F = Fraction

A2 = build("A", 2)
A3 = build("A", 3)
B2 = build("B", 2)


def spec_of(rs, name_or_vec, scale=1):
    w = named_weight(rs, name_or_vec) if isinstance(name_or_vec, str) else name_or_vec
    return weight_spec(rs, [w], scale)


# ---------------------------------------------------------------------------
# weight specs and hulls


def test_weight_spec_validation():
    with pytest.raises(InputError):
        weight_spec(A2, [])
    with pytest.raises(InputError):
        weight_spec(A2, [(0, 1, -1)])  # alpha_1 pairing negative
    with pytest.raises(InputError):
        weight_spec(A2, [(1, 0)])
    with pytest.raises(InputError):
        weight_spec(A2, [(1, 0, -1)], scale=0)
    spec = weight_spec(A2, [(1, 0, -1)], scale=2)
    assert spec.scale == 2


def test_a2_adjoint_hull_is_hexagon():
    hull = weight_hull(spec_of(A2, "adjoint"))
    assert f_vector(hull) == (6, 6, 1)
    assert set(hull.vertices) == {(2, -1), (1, 1), (-1, 2),
                                  (-2, 1), (-1, -1), (1, -2)}


def test_a3_adjoint_hull_counts():
    hull = weight_hull(spec_of(A3, "adjoint"))
    assert f_vector(hull) == (12, 24, 14, 1)


@pytest.mark.parametrize("fam, rank, name, fv", [
    ("B", 4, "adjoint", (24, 96, 96, 24)),  # the 24-cell, as for D4
    ("D", 4, "adjoint", (24, 96, 96, 24)),
    ("C", 4, "fundamental:3", (32, 96, 88, 24)),
    ("A", 5, "adjoint", (30, 120, 210, 180, 62)),
])
def test_rank_four_and_five_hull_f_vectors(fam, rank, name, fv):
    # a few hundredths of a second each by double description; a scan of
    # all m-point subsets of the orbit takes over a second on A5 alone
    assert f_vector(weight_hull(spec_of(build(fam, rank), name)))[:-1] == fv


def test_scale_dilates_hull():
    h1 = weight_hull(spec_of(A2, "adjoint"))
    h2 = weight_hull(spec_of(A2, "adjoint", scale=2))
    assert set(h2.vertices) == {tuple(2 * x for x in v) for v in h1.vertices}


def test_degenerate_hull_rejected():
    # a single zero weight spans nothing
    with pytest.raises(PreconditionError):
        weight_hull(weight_spec(A2, [(0, 0, 0)]))


def test_standard_hull_is_triangle_with_zero_interior():
    hull = weight_hull(spec_of(A2, "standard"))
    assert f_vector(hull) == (3, 3, 1)
    assert hull.has_origin_interior()
    assert set(hull.vertices) == {(1, 0), (-1, 1), (0, -1)}


# ---------------------------------------------------------------------------
# balls


def oracle_classical_polar(P):
    """{x : <v|x> <= 1 for every vertex v}, built by halfspace intersection."""
    return oracle_vertex_enumeration(
        [normalized_halfspace(tuple(-x for x in v), -1) for v in P.vertices])


def test_satake_ball_equals_classical_polar_oracle():
    for spec in (spec_of(A2, "adjoint"), spec_of(A2, "standard"),
                 spec_of(A3, "adjoint"), spec_of(B2, "standard")):
        hull = weight_hull(spec)
        assert satake_ball(hull) == oracle_classical_polar(hull)


def test_a3_adjoint_ball_counts():
    ball = satake_ball(weight_hull(spec_of(A3, "adjoint")))
    assert f_vector(ball) == (14, 24, 12, 1)


def test_satake_ball_on_symmetric_hull_is_plain_polar():
    hull = weight_hull(spec_of(A2, "adjoint"))
    assert set(hull.vertices) == {tuple(-x for x in v) for v in hull.vertices}
    assert satake_ball(hull) == polar_dual(hull)


def test_diamond_hull_gives_square_ball():
    hull = weight_hull(spec_of(B2, "standard"))
    assert set(hull.vertices) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    ball = satake_ball(hull)
    assert set(ball.vertices) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_a3_adjoint_dual_ball_strata_count():
    hull = weight_hull(spec_of(A3, "adjoint"))
    # the weight hull is itself the unit ball of the dual compactification
    norm = polyhedral_norm(hull)
    strata = enumerate_strata(norm)
    assert len(strata) == 50
    assert len(face_lattice(norm.dual_ball)) == 51


def test_duality_exchanges_f_vectors():
    for spec in (spec_of(A2, "adjoint"), spec_of(A2, "standard"),
                 spec_of(A3, "adjoint"), spec_of(A3, (3, 1, -1, -3)),
                 spec_of(B2, "adjoint")):
        hull = weight_hull(spec)
        ball = satake_ball(hull)
        proper = f_vector(hull)[:-1]
        assert f_vector(ball)[:-1] == tuple(reversed(proper))


# ---------------------------------------------------------------------------
# group invariance


def test_hull_and_ball_are_group_invariant():
    for rs, name in ((A2, "adjoint"), (A2, "standard"), (A3, "adjoint"),
                     (B2, "standard"), (B2, "adjoint")):
        hull = weight_hull(spec_of(rs, name))
        assert invariant_under(hull, weyl_weight_matrices(rs))
        assert invariant_under(satake_ball(hull), weyl_point_matrices(rs))


def test_invariant_under_detects_asymmetry():
    lopsided = convex_hull([(2, 0), (0, 1), (-1, 0), (0, -1)])
    assert not invariant_under(lopsided, weyl_weight_matrices(A2))


def test_union_of_standard_and_dual_standard_is_wall_hexagon():
    d1 = weight_hull(spec_of(A2, "standard"))
    d2 = weight_hull(spec_of(A2, "dual-standard"))
    union = convex_hull(d1.vertices + d2.vertices)
    assert f_vector(union) == (6, 6, 1)
    mats = weyl_weight_matrices(A2)
    for v in union.vertices:
        stab = sum(1 for m in mats if mat_vec(m, v) == v)
        assert stab >= 2


# ---------------------------------------------------------------------------
# classification


def test_classify_a2_adjoint():
    report = classify(spec_of(A2, "adjoint"))
    assert report.shape == "hexagon"
    assert report.regular
    assert report.singular_supports == ((),)
    assert report.hull_f_vector == (6, 6, 1)
    assert report.facet_count == 6


def test_classify_a3_adjoint():
    report = classify(spec_of(A3, "adjoint"))
    assert report.shape == "cuboctahedron"
    assert not report.regular
    assert report.singular_supports == ((1,),)
    assert report.hull_f_vector == (12, 24, 14, 1)
    assert report.ball_f_vector == (14, 24, 12, 1)


def test_classify_a3_regular_permutohedron():
    report = classify(spec_of(A3, (3, 1, -1, -3)))
    assert report.shape == "permutohedron"
    assert report.regular
    assert len(report.vertices) == 24
    assert report.facet_count == 14


def oracle_shape(rs, hull):
    """The shape by the whole orbit of one vertex under all |W| matrices."""
    fv = f_vector(hull)
    if hull.affine_dim == 2 and fv == (6, 6, 1):
        return "hexagon"
    if hull.affine_dim == 3 and fv == (12, 24, 14, 1):
        return "cuboctahedron"
    mats = weyl_weight_matrices(rs)
    orbit = {mat_vec(m, hull.vertices[0]) for m in mats}
    if len(hull.vertices) == len(mats) and orbit == set(hull.vertices):
        return "permutohedron"
    return None


def test_permutohedron_test_matches_orbit_oracle():
    """The wall test agrees with the whole-orbit test on every named weight,
    on the sum of the fundamental weights (the regular case), in rank 2 on
    every pair of those, and on a B2 octagon with |W| vertices on walls.
    B3 and C3 skip the regular weight: its 48-point hull costs seconds."""
    shapes = set()
    for label, rank in (("A", 2), ("B", 2), ("C", 2), ("A", 3), ("B", 3),
                        ("C", 3), ("D", 3)):
        rs = build(label, rank)
        fundamentals = [named_weight(rs, f"fundamental:{k}")
                        for k in range(1, rank + 1)]
        weights = [named_weight(rs, "adjoint"), named_weight(rs, "standard"),
                   named_weight(rs, "dual-standard")] + fundamentals
        if label in "AD" or rank == 2:
            weights.append(tuple(sum(c) for c in zip(*fundamentals)))
        groups = [[w] for w in weights]
        if rank == 2:
            groups += [[v, w] for i, v in enumerate(weights) for w in weights[i + 1:]]
        for group in groups:
            spec = weight_spec(rs, group)
            try:
                hull = weight_hull(spec)
            except PreconditionError:
                continue
            shape = classify(spec).shape
            assert shape == oracle_shape(rs, hull), (label, rank, group)
            shapes.add(shape)
    octagon = weight_spec(B2, [(F(3, 2), 0), (1, 1)])
    assert len(weight_hull(octagon).vertices) == 8
    assert classify(octagon).shape is oracle_shape(B2, weight_hull(octagon)) is None
    assert shapes == {"hexagon", "cuboctahedron", "permutohedron", None}


def test_classify_reuses_the_weight_hull(monkeypatch):
    import horopoly.satake as satake

    builds = []

    def counting_hull(points):
        builds.append(len(points))
        return convex_hull(points)

    monkeypatch.setattr(satake, "convex_hull", counting_hull)
    spec = spec_of(A3, "adjoint")
    hull = weight_hull(spec)
    assert classify(spec).vertices == hull.vertices
    assert same_compactification(spec, spec)
    assert weight_hull(spec) is hull
    assert builds == [12]


def test_classify_scale_invariant():
    for name in ("adjoint", "standard"):
        r1 = classify(spec_of(A2, name, scale=1))
        r2 = classify(spec_of(A2, name, scale=2))
        assert combinatorial_summary(r1) == combinatorial_summary(r2)
        assert r1.vertices != r2.vertices


def test_classify_multi_weight():
    spec = weight_spec(A2, [named_weight(A2, "adjoint"),
                            named_weight(A2, "standard")])
    report = classify(spec)
    assert report.shape == "hexagon"
    assert report.singular_supports == ((), (1,))
    assert not report.regular


def test_report_json_shape(capsys):
    _emit_json(classify(spec_of(A2, "adjoint")), None)
    obj = json.loads(capsys.readouterr().out)
    assert obj["hull_f_vector"] == [6, 6, 1]
    assert obj["regular"] is True
    assert len(obj["vertices"]) == 6
    assert all(isinstance(x, str) for v in obj["vertices"] for x in v)


# ---------------------------------------------------------------------------
# equivalence


def test_same_compactification_scaling():
    assert same_compactification(spec_of(A2, "adjoint"),
                                 spec_of(A2, "adjoint", scale=2))
    assert same_compactification(spec_of(A3, "adjoint"),
                                 spec_of(A3, "adjoint", scale=2))


def test_same_compactification_standard_vs_dual():
    assert not same_compactification(spec_of(A2, "standard"),
                                     spec_of(A2, "dual-standard"))


def test_same_compactification_adjoint_vs_generic_regular():
    assert same_compactification(spec_of(A2, "adjoint"),
                                 spec_of(A2, (2, 1, -3)))


def test_same_compactification_distinct_shapes():
    assert not same_compactification(spec_of(A2, "adjoint"),
                                     spec_of(A2, "standard"))
    assert not same_compactification(spec_of(A3, "adjoint"),
                                     spec_of(A3, (3, 1, -1, -3)))


def test_same_compactification_is_reflexive_and_symmetric():
    specs = [spec_of(A2, "adjoint"), spec_of(A2, "standard"),
             spec_of(A2, (2, 1, -3))]
    for s in specs:
        assert same_compactification(s, s)
    for s in specs:
        for t in specs:
            assert (same_compactification(s, t)
                    == same_compactification(t, s))


def test_same_compactification_rejects_mixed_systems():
    with pytest.raises(InputError):
        same_compactification(spec_of(A2, "adjoint"), spec_of(A3, "adjoint"))


def test_two_generic_regular_weights_agree():
    assert same_compactification(spec_of(A2, (2, 1, -3)),
                                 spec_of(A2, (5, 2, -7)))


def test_standard_not_equivalent_to_generic():
    # a triangle and a hexagon differ already in face counts
    assert not same_compactification(spec_of(A2, "standard"),
                                     spec_of(A2, (2, 1, -3)))


def test_equal_wall_signatures_give_equal_stabilizers():
    """Faces with one (dim, wall signature) have one setwise stabilizer.

    The equivalence search keys faces by that pair alone; the stabilizers
    here come from brute force over the whole group.
    """
    specs = 0
    for label, rank in (("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2),
                        ("C", 3), ("D", 3)):
        rs = build(label, rank)
        mats = weyl_weight_matrices(rs)
        names = ["adjoint", "standard", "dual-standard"]
        names += [f"fundamental:{k}" for k in range(1, rank + 1)]
        for name in names:
            try:
                hull = weight_hull(spec_of(rs, name))
            except PreconditionError:
                continue
            specs += 1
            vpos = {v: i for i, v in enumerate(hull.vertices)}
            perms = [[vpos[mat_vec(m, v)] for v in hull.vertices] for m in mats]
            stabilizer_of = {}
            profile = _LatticeProfile(rs, hull)
            for s, key in profile.faces.items():
                stab = frozenset(k for k, perm in enumerate(perms)
                                 if {perm[i] for i in s} == s)
                assert stabilizer_of.setdefault(key, stab) == stab, (label, rank, name)
    assert specs >= 30


def oracle_keys(rs, hull):
    return [(face.dim, wall_signature(rs, relative_interior_point(face)))
            for face in face_lattice(hull)]


def test_lattice_profile_keys_match_barycenter_signatures():
    """Signs of summed integer root pairings equal the Fraction wall
    signature of each face's barycenter."""
    specs = []
    for label, rank in (("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2),
                        ("C", 3), ("D", 3)):
        rs = build(label, rank)
        names = ["adjoint", "standard", "dual-standard"]
        names += [f"fundamental:{k}" for k in range(1, rank + 1)]
        specs += [spec_of(rs, name) for name in names]
    specs += [spec_of(build(label, 4), "standard") for label in "ABCD"]
    B3 = build("B", 3)
    specs.append(spec_of(B3, "fundamental:3", F(3, 7)))
    specs.append(spec_of(A3, (F(5, 3), F(1, 2), F(-1, 4), F(-23, 12)), F(3, 7)))
    specs.append(weight_spec(B3, [named_weight(B3, "standard"),
                                  named_weight(B3, "fundamental:3")], F(2, 5)))
    checked = 0
    for spec in specs:
        try:
            hull = weight_hull(spec)
        except PreconditionError:
            continue
        checked += 1
        rs = spec.root_system
        profile = _LatticeProfile(rs, hull)
        assert list(profile.faces.values()) == oracle_keys(rs, hull)
        assert profile.vertex_keys == [wall_signature(rs, v) for v in hull.vertices]
    assert checked >= 40


def test_lattice_profile_generators_give_the_whole_action():
    """The vertex permutations of the simple reflections generate exactly
    the permutations of all group elements."""
    for rs, name in ((A3, "adjoint"), (B2, "standard"), (build("C", 3), "fundamental:2"),
                     (build("D", 3), "fundamental:3")):
        hull = weight_hull(spec_of(rs, name))
        profile = _LatticeProfile(rs, hull)
        assert len(profile.action) == rs.rank
        vpos = {v: i for i, v in enumerate(hull.vertices)}
        whole = {tuple(vpos[mat_vec(m, v)] for v in hull.vertices)
                 for m in weyl_weight_matrices(rs)}
        generated = {tuple(range(len(hull.vertices)))}
        frontier = list(generated)
        while frontier:
            p = frontier.pop()
            for g in profile.action:
                q = tuple(g[i] for i in p)
                if q not in generated:
                    generated.add(q)
                    frontier.append(q)
        assert generated == whole


def test_vertex_search_agrees_with_the_face_lattice_oracle():
    """Every ordered pair of specs within one root system gets the same
    answer from the vertex-level search as from the face-lattice search."""
    answers = set()
    for label, rank in (("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2),
                        ("C", 3), ("D", 3)):
        rs = build(label, rank)
        fundamentals = [named_weight(rs, f"fundamental:{k}")
                        for k in range(1, rank + 1)]
        regular = tuple(map(sum, zip(*fundamentals)))
        standard = named_weight(rs, "standard")
        weights = dict.fromkeys([named_weight(rs, "adjoint"), standard,
                                 named_weight(rs, "dual-standard")] + fundamentals)
        candidates = [[w] for w in weights] + [[regular]]
        candidates += [[standard, w] for w in weights if w != standard]
        specs = []
        for ws in candidates:
            for scale in (1, F(3, 7)) if ws == [regular] else (1,):
                try:
                    spec = weight_spec(rs, ws, scale)
                    spec.hull
                except PreconditionError:
                    continue
                specs.append(spec)
        for s in specs:
            for t in specs:
                answer = same_compactification(s, t)
                assert answer == oracle_same_compactification(s, t), (
                    label, rank, s.highest_weights, t.highest_weights)
                answers.add(answer)
    assert answers == {True, False}


def test_group_matrices_stay_unbuilt():
    """Orbits, reports and the equivalence search run on signed
    permutations alone; the element matrices are built only on request."""
    weyl_group.cache_clear()
    for rs, name in ((A3, "adjoint"), (build("B", 3), "standard")):
        w = named_weight(rs, name)
        weyl_orbit(weyl_group(rs), w)
        classify(spec_of(rs, w))
        assert same_compactification(spec_of(rs, w), spec_of(rs, w, scale=3))
        assert not {"elements", "generators"} & vars(weyl_group(rs)).keys()


def test_face_lattice_built_once_per_hull(monkeypatch):
    """classify and same_compactification share the hull's one lattice."""
    built = []
    face_from_index_set = polytope._face_from_index_set

    def counted(P, idxs):
        built.append(P)
        return face_from_index_set(P, idxs)

    monkeypatch.setattr(polytope, "_face_from_index_set", counted)
    rs = build("B", 3)
    spec = spec_of(rs, "adjoint")
    classify(spec)
    assert same_compactification(spec, spec_of(rs, "adjoint", scale=2))
    hull = spec.hull
    # one call per proper face: the top face is built directly
    assert sum(P is hull for P in built) == len(face_lattice(hull)) - 1
    assert face_lattice(hull) is face_lattice(hull)


# ---------------------------------------------------------------------------
# properties on random dominant weights


def rand_dominant(rng, rs):
    while True:
        v = tuple(F(rng.randint(0, 8), rng.randint(1, 3)) for _ in range(rs.rank))
        # nonnegative combination of the fundamental directions
        out = [F(0)] * rs.ambient_dim
        for k, c in enumerate(v, start=1):
            w = named_weight(rs, f"fundamental:{k}")
            out = [a + c * b for a, b in zip(out, w)]
        out = tuple(out)
        if any(x != 0 for x in out):
            return out


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_random_specs_invariance_and_duality(seed):
    rng = random.Random(seed)
    rs = rng.choice([A2, B2])
    w = rand_dominant(rng, rs)
    try:
        hull = weight_hull(weight_spec(rs, [w]))
    except PreconditionError:
        # a wall weight can span a lower-dimensional hull; that is a
        # legitimate rejection, not a failure
        return
    ball = satake_ball(hull)
    assert invariant_under(hull, weyl_weight_matrices(rs))
    assert invariant_under(ball, weyl_point_matrices(rs))
    assert f_vector(ball)[:-1] == tuple(reversed(f_vector(hull)[:-1]))
    assert polar_dual(ball) == negate(hull)
