"""Root systems: construction, reflection groups, orbits, charts.

Derived counts are cross-checked against independent oracles: orbit
sizes against explicit stabilizer counts, kernel bases against direct
inner products with the defining roots, the closed-form groups and
parabolic subgroups against a breadth-first closure of their generators.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomtest import (identity_matrix, mat_mul, matrix_orbit, nullspace, rand_vector,
                      rank, reflection_matrix, solve_system, transpose)
from horopoly._linalg import mat_vec, vdot
from horopoly.errors import DimensionMismatch, InputError, PreconditionError
from horopoly.rootsys import (
    build,
    named_weight,
    point_ambient,
    point_coords,
    signed_permute,
    singular_support,
    weight_ambient,
    weight_coords,
    weyl_group,
    weyl_orbit,
    weyl_point_matrices,
    weyl_weight_matrices,
)

F = Fraction


def all_roots(rs):
    return set(rs.positive_roots) | {tuple(-x for x in r) for r in rs.positive_roots}


# ---------------------------------------------------------------------------
# construction


def test_build_a2_frozen():
    rs = build("A", 2)
    assert rs.simple_roots == ((1, -1, 0), (0, 1, -1))
    assert len(rs.positive_roots) == 3
    assert rs.ambient_dim == 3


def test_build_counts_match_classical():
    for r in (1, 2, 3, 4):
        assert len(build("A", r).positive_roots) == r * (r + 1) // 2
    for r in (2, 3, 4):
        assert len(build("B", r).positive_roots) == r * r
        assert len(build("C", r).positive_roots) == r * r
    for r in (3, 4):
        assert len(build("D", r).positive_roots) == r * (r - 1)


def test_build_b2():
    rs = build("B", 2)
    assert len(rs.positive_roots) == 4
    assert (F(1), F(0)) in rs.positive_roots


def test_positive_roots_in_nonnegative_cone():
    # every positive root decomposes over the simple roots with coefficients
    # that are nonnegative integers
    for rs in (build("A", 3), build("B", 3), build("C", 2), build("D", 4)):
        for root in rs.positive_roots:
            combo = solve_system(transpose(rs.simple_roots), root)
            assert combo is not None
            assert all(c >= 0 and c.denominator == 1 for c in combo)


def test_every_rank_under_the_group_cap_builds():
    # the positive-root self-check of the build passes for every family and
    # rank that the group cap admits
    counts = {"A": lambda r: r * (r + 1) // 2, "B": lambda r: r * r,
              "C": lambda r: r * r, "D": lambda r: r * (r - 1)}
    for fam, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        r = low
        while True:
            try:
                rs = build(fam, r)
            except PreconditionError:
                break
            assert len(rs.positive_roots) == counts[fam](r)
            r += 1
        assert r - low >= 4


def test_build_rejections():
    with pytest.raises(InputError):
        build("A", 0)
    with pytest.raises(InputError):
        build("E", 2)
    with pytest.raises(InputError):
        build("B", 1)
    with pytest.raises(InputError):
        build("D", 2)
    with pytest.raises(InputError):
        build("A", "3")


def test_simple_roots_independent():
    for rs in (build("A", 4), build("B", 4), build("C", 3), build("D", 4)):
        assert rank(rs.simple_roots) == rs.rank


# ---------------------------------------------------------------------------
# reflection groups


def test_group_orders():
    assert weyl_group(build("A", 2)).order == 6
    assert weyl_group(build("A", 3)).order == 24
    assert weyl_group(build("A", 4)).order == 120
    assert weyl_group(build("B", 2)).order == 8
    assert weyl_group(build("B", 3)).order == 48
    assert weyl_group(build("C", 2)).order == 8
    assert weyl_group(build("D", 3)).order == 24
    assert weyl_group(build("D", 4)).order == 192


CLASSICAL_ORDERS = {("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("A", 4): 120,
                    ("B", 2): 8, ("B", 3): 48, ("B", 4): 384,
                    ("C", 2): 8, ("C", 3): 48, ("C", 4): 384,
                    ("D", 3): 24, ("D", 4): 192}
CLASSICAL = [build(f, r) for f, r in CLASSICAL_ORDERS]


def generated_group(gens, n):
    """Breadth-first closure of the generators, the oracle for the closed forms.

    The generators here have integer entries, so the closure runs on ints.
    """
    gens = [tuple(tuple(int(x) for x in row) for row in g) for g in gens]
    elems = {identity_matrix(n)}
    frontier = list(elems)
    while frontier:
        frontier = list({mat_mul(g, m) for m in frontier for g in gens} - elems)
        elems.update(frontier)
    return tuple(sorted(elems))


def test_closed_form_is_the_generated_group():
    # the identity, closure under left multiplication by every generator
    # and the classical order together force equality with the group the
    # simple reflections generate
    for rs in CLASSICAL:
        W = weyl_group(rs)
        elems = set(W.elements)
        assert W.generators == tuple(reflection_matrix(a) for a in rs.simple_roots)
        assert W.elements == tuple(sorted(elems))
        assert len(elems) == CLASSICAL_ORDERS[rs.type_label, rs.rank]
        assert identity_matrix(rs.ambient_dim) in elems
        for g in W.generators:
            assert all(mat_mul(g, m) in elems for m in W.elements)


def test_subset_subgroup_is_generated_by_chosen_reflections():
    # Steinberg: the elements of W fixing the chosen roots' common kernel
    # pointwise form the group the chosen simple reflections generate
    for rs in CLASSICAL:
        W = weyl_group(rs)
        for k in range(rs.rank + 1):
            for idxs in combinations(range(rs.rank), k):
                fixed = nullspace([rs.simple_roots[i] for i in idxs],
                                  ambient_dim=rs.ambient_dim)
                stabiliser = tuple(m for m in W.elements
                                   if all(mat_vec(m, v) == v for v in fixed))
                gens = [reflection_matrix(rs.simple_roots[i]) for i in idxs]
                assert stabiliser == generated_group(gens, rs.ambient_dim)


def test_group_cap_guards_high_rank():
    with pytest.raises(PreconditionError):
        weyl_group(build("B", 6))


def test_build_refuses_over_cap_rank():
    for label, r in (("A", 40), ("A", 7), ("B", 6), ("C", 6), ("D", 7),
                     ("A", 10**9)):
        with pytest.raises(PreconditionError, match="safety cap"):
            build(label, r)
    # the largest ranks under the cap still build
    for label, r in (("A", 6), ("B", 5), ("C", 5), ("D", 6)):
        assert build(label, r).rank == r


def test_elements_orthogonal_and_permute_roots():
    for rs in (build("A", 2), build("B", 2), build("D", 3)):
        W = weyl_group(rs)
        roots = all_roots(rs)
        eye = identity_matrix(rs.ambient_dim)
        for m in W.elements:
            assert mat_mul(transpose(m), m) == eye
            assert {mat_vec(m, r) for r in roots} == roots


def test_group_closure_exhaustive_a2():
    W = weyl_group(build("A", 2))
    elems = set(W.elements)
    for a in W.elements:
        for b in W.elements:
            assert mat_mul(a, b) in elems


def test_signed_permutations_act_as_the_matrices():
    rng = random.Random(71)
    for rs in CLASSICAL:
        W = weyl_group(rs)
        assert len(W.signed_elements) == W.order
        assert len(W.signed_generators) == rs.rank
        pairs = (list(zip(W.signed_elements, W.elements))
                 + list(zip(W.signed_generators, W.generators)))
        for _ in range(3):
            v = rand_vector(rng, rs.ambient_dim, num=10**6, den=10**4)
            for sp, m in pairs:
                assert signed_permute(sp, v) == mat_vec(m, v)


def test_generators_are_simple_reflections():
    rs = build("B", 2)
    W = weyl_group(rs)
    assert len(W.generators) == 2
    for g, a in zip(W.generators, rs.simple_roots):
        assert mat_vec(g, a) == tuple(-x for x in a)
        assert mat_mul(g, g) == identity_matrix(2)


# ---------------------------------------------------------------------------
# orbits and chambers


def test_orbit_of_highest_root_is_root_set():
    rs = build("A", 2)
    orbit = weyl_orbit(weyl_group(rs), named_weight(rs, "adjoint"))
    assert len(orbit) == 6
    assert set(orbit) == all_roots(rs)


def test_orbit_of_zero():
    rs = build("B", 2)
    assert weyl_orbit(weyl_group(rs), (0, 0)) == ((0, 0),)


def test_orbit_fundamental_weight_a2():
    rs = build("A", 2)
    W = weyl_group(rs)
    v = named_weight(rs, "standard")
    orbit = weyl_orbit(W, v)
    stab = [m for m in W.elements if mat_vec(m, v) == v]
    assert len(stab) == 2
    assert len(orbit) == 3
    assert len(orbit) * len(stab) == W.order


def test_orbit_stabilizer_random():
    rng = random.Random(61)
    for rs in (build("A", 3), build("B", 2), build("D", 3)):
        W = weyl_group(rs)
        for _ in range(6):
            v = rand_vector(rng, rs.ambient_dim)
            orbit = weyl_orbit(W, v)
            stab = sum(1 for m in W.elements if mat_vec(m, v) == v)
            assert len(orbit) * stab == W.order


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_orbit_matches_matrix_oracle(seed):
    # coordinates drawn from a few values, so that orbits have repeated
    # entries, zeros and entries of both signs with mixed denominators
    rng = random.Random(seed)
    values = [F(0)] + [F(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
                       for _ in range(3)]
    for rs in CLASSICAL:
        W = weyl_group(rs)
        v = tuple(rng.choice(values) for _ in range(rs.ambient_dim))
        orbit = weyl_orbit(W, v)
        assert orbit == matrix_orbit(W, v)
        assert all(type(x) is F for w in orbit for x in w)


def test_orbit_dimension_mismatch():
    rs = build("A", 2)
    with pytest.raises(DimensionMismatch):
        weyl_orbit(weyl_group(rs), (1, 0))


def test_each_orbit_meets_chamber_once():
    rng = random.Random(67)
    for rs in (build("A", 2), build("B", 2), build("C", 3)):
        W = weyl_group(rs)
        for _ in range(5):
            v = rand_vector(rng, rs.ambient_dim)
            orbit = weyl_orbit(W, v)
            dom = [w for w in orbit
                   if all(vdot(a, w) >= 0 for a in rs.simple_roots)]
            assert len(dom) == 1


def test_singular_support():
    a3 = build("A", 3)
    assert singular_support(a3, named_weight(a3, "adjoint")) == (1,)
    assert singular_support(a3, (3, 2, 1, 0)) == ()
    assert singular_support(a3, (0, 0, 0, 0)) == (0, 1, 2)
    with pytest.raises(PreconditionError):
        singular_support(a3, (0, 1, 2, 3))


# ---------------------------------------------------------------------------
# coordinate charts


def test_point_chart_roundtrip_a():
    rng = random.Random(79)
    rs = build("A", 3)
    for _ in range(20):
        x = rand_vector(rng, 3)
        assert point_coords(rs, point_ambient(rs, x)) == x
        head = rand_vector(rng, 3)
        v = head + (-sum(head),)
        assert point_ambient(rs, point_coords(rs, v)) == v


def test_weight_chart_roundtrip_a():
    rng = random.Random(83)
    rs = build("A", 3)
    for _ in range(20):
        y = rand_vector(rng, 3)
        assert weight_coords(rs, weight_ambient(rs, y)) == y
        # constant shifts of the functional are quotiented away
        m = rand_vector(rng, 4)
        shifted = tuple(a + F(7, 3) for a in m)
        assert weight_coords(rs, m) == weight_coords(rs, shifted)


def test_charts_preserve_pairing():
    rng = random.Random(89)
    for r in (1, 2, 3):
        rs = build("A", r)
        for _ in range(20):
            head = rand_vector(rng, r)
            v = head + (-sum(head),)
            m = rand_vector(rng, r + 1)
            assert (vdot(weight_coords(rs, m), point_coords(rs, v))
                    == vdot(m, v))


def test_chart_rejections():
    rs = build("A", 2)
    with pytest.raises(InputError):
        point_coords(rs, (1, 0, 1))
    with pytest.raises(DimensionMismatch):
        point_coords(rs, (1, 0))
    with pytest.raises(DimensionMismatch):
        point_ambient(rs, (1, 0, -1))
    with pytest.raises(DimensionMismatch):
        weight_coords(rs, (1, 0))


def test_charts_identity_outside_family_a():
    rs = build("B", 2)
    assert point_coords(rs, (F(1), F(2))) == (1, 2)
    assert weight_ambient(rs, (F(1), F(2))) == (1, 2)
    assert weyl_point_matrices(rs) == weyl_group(rs).elements


def test_transported_matrices_commute_with_charts():
    rng = random.Random(97)
    for r in (2, 3):
        rs = build("A", r)
        W = weyl_group(rs)
        for m, mp, mw in zip(W.elements, weyl_point_matrices(rs),
                             weyl_weight_matrices(rs)):
            head = rand_vector(rng, r)
            v = head + (-sum(head),)
            assert point_coords(rs, mat_vec(m, v)) == mat_vec(mp, point_coords(rs, v))
            f = rand_vector(rng, r + 1)
            assert (weight_coords(rs, mat_vec(m, f))
                    == mat_vec(mw, weight_coords(rs, f)))


def test_point_chart_of_a2_roots_frozen():
    rs = build("A", 2)
    pts = {point_coords(rs, r) for r in all_roots(rs)}
    assert pts == {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}


# ---------------------------------------------------------------------------
# named weights


def test_named_weights_frozen():
    a2 = build("A", 2)
    assert named_weight(a2, "adjoint") == (1, 0, -1)
    assert named_weight(a2, "standard") == (1, 0, 0)
    assert named_weight(a2, "dual-standard") == (0, 0, -1)
    a3 = build("A", 3)
    assert named_weight(a3, "fundamental:2") == (1, 1, 0, 0)
    b2 = build("B", 2)
    assert named_weight(b2, "fundamental:2") == (F(1, 2), F(1, 2))
    d4 = build("D", 4)
    assert named_weight(d4, "fundamental:3") == (F(1, 2),) * 3 + (F(-1, 2),)


def test_named_weights_dominant():
    for rs in (build("A", 3), build("B", 3), build("C", 2), build("D", 4)):
        names = ["adjoint", "standard", "dual-standard"]
        names += [f"fundamental:{k}" for k in range(1, rs.rank + 1)]
        for name in names:
            singular_support(rs, named_weight(rs, name))


def test_named_weight_rejections():
    rs = build("A", 2)
    for bad in ("spelled-wrong", "fundamental:0", "fundamental:3",
                "fundamental:x"):
        with pytest.raises(InputError):
            named_weight(rs, bad)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_reflections_are_orthogonal_involutions(seed):
    rng = random.Random(seed)
    dim = rng.randint(2, 4)
    root = tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
    if all(x == 0 for x in root):
        root = (F(1),) + root[1:]
    s = reflection_matrix(root)
    assert mat_mul(s, s) == identity_matrix(dim)
    assert mat_mul(transpose(s), s) == identity_matrix(dim)
    assert mat_vec(s, root) == tuple(-x for x in root)
