"""Renderer output: frozen SVG geometry and OFF structure checks.

The A2 adjoint hull coordinates are small integers, so the expected path
string can be written down by hand from the vertex set.
"""

import random
import re
from fractions import Fraction

import pytest

from horopoly.errors import InputError
from horopoly.polytope import convex_hull, f_vector
from horopoly.render import render_off, render_svg
from horopoly.rootsys import build, named_weight
from horopoly.satake import satake_ball, weight_hull, weight_spec


def adjoint_hull(rank):
    rs = build("A", rank)
    return weight_hull(weight_spec(rs, [named_weight(rs, "adjoint")]))


@pytest.fixture(scope="module")
def hexagon():
    return adjoint_hull(2)


@pytest.fixture(scope="module")
def cube():
    return convex_hull([(x, y, z) for x in (-1, 1) for y in (-1, 1)
                        for z in (-1, 1)])


class TestSvg:
    def test_hexagon_path(self, hexagon):
        svg = render_svg(hexagon)
        # ccw cycle starting at the lex-smallest vertex, y flipped for screen
        assert 'd="M -2 -1 L -1 1 L 1 2 L 2 1 L 1 -1 L -1 -2 Z"' in svg
        assert svg.count("<path") == 1

    def test_viewbox_includes_origin_with_padding(self, hexagon):
        svg = render_svg(hexagon)
        assert 'viewBox="-2.6 -2.6 5.2 5.2"' in svg

    def test_deterministic(self, hexagon):
        a = render_svg(hexagon, labels=True)
        b = render_svg(hexagon, labels=True)
        assert a == b

    def test_wall_rays_rendered_dashed(self, hexagon):
        rays = [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)),
                (Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1)),
                (Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1))]
        svg = render_svg(hexagon, wall_rays=rays)
        assert svg.count("<line") == 6
        assert "stroke-dasharray" in svg
        assert svg.count('x1="0" y1="0"') == 6

    def test_zero_wall_direction_rejected(self, hexagon):
        with pytest.raises(InputError):
            render_svg(hexagon, wall_rays=[(Fraction(0), Fraction(0))])

    def test_labels_only_on_request(self, hexagon):
        assert "<text" not in render_svg(hexagon)
        labeled = render_svg(hexagon, labels=True)
        assert labeled.count("<text") == 6
        assert ">0<" in labeled and ">5<" in labeled

    def test_point_overlay(self, hexagon):
        svg = render_svg(hexagon, points=[(Fraction(1, 2), Fraction(1, 3))])
        assert svg.count("<circle") == 1
        assert 'cx="0.5"' in svg

    def test_points_stretch_viewbox(self, hexagon):
        near = render_svg(hexagon)
        far = render_svg(hexagon, points=[(Fraction(10), Fraction(0))])
        assert near != far
        assert 'viewBox="' in far

    def test_wrong_dimension_rejected(self, cube):
        with pytest.raises(InputError):
            render_svg(cube)
        segment = convex_hull([(-1,), (1,)])
        with pytest.raises(InputError):
            render_svg(segment)

    def test_trailing_newline(self, hexagon):
        assert render_svg(hexagon).endswith("</svg>\n")

    def test_point_and_segment_keep_sorted_order(self):
        point = convex_hull([(1, 2)])
        assert '<path d="M 1 -2 Z"' in render_svg(point)
        segment = convex_hull([(1, 1), (-1, 0)])
        assert '<path d="M -1 -0 L 1 -1 Z"' in render_svg(segment)


class TestOff:
    def test_cube_header(self, cube):
        lines = render_off(cube).splitlines()
        assert lines[0] == "OFF"
        assert lines[1] == "8 6 12"

    def test_cube_facets_are_quads(self, cube):
        lines = render_off(cube).splitlines()
        facet_lines = lines[2 + 8:]
        assert len(facet_lines) == 6
        assert all(line.split()[0] == "4" for line in facet_lines)
        # every facet cycle lists distinct vertex indices
        for line in facet_lines:
            ids = line.split()[1:]
            assert len(set(ids)) == 4

    def test_adjoint_ball_header_matches_f_vector(self):
        rs = build("A", 3)
        ball = satake_ball(adjoint_hull(3))
        nv, ne, nf, _ = f_vector(ball)
        lines = render_off(ball).splitlines()
        assert lines[1] == f"{nv} {nf} {ne}"
        assert (nv, nf) == (14, 12)

    def test_facet_vertex_counts_sum_to_twice_edges(self, cube):
        lines = render_off(cube).splitlines()
        nv, nf, ne = map(int, lines[1].split())
        total = sum(int(line.split()[0]) for line in lines[2 + nv:])
        assert total == 2 * ne

    def test_facets_wind_counterclockwise_from_outside(self, cube):
        # signed area of each facet cycle against its outward normal
        lines = render_off(cube).splitlines()
        verts = [tuple(float(c) for c in line.split()) for line in lines[2:10]]
        for line in lines[10:]:
            ids = [int(c) for c in line.split()[1:]]
            pts = [verts[i] for i in ids]
            cx = sum(p[0] for p in pts) / len(pts)
            cy = sum(p[1] for p in pts) / len(pts)
            cz = sum(p[2] for p in pts) / len(pts)
            area = [0.0, 0.0, 0.0]
            for a, b in zip(pts, pts[1:] + pts[:1]):
                u = (a[0] - cx, a[1] - cy, a[2] - cz)
                v = (b[0] - cx, b[1] - cy, b[2] - cz)
                area[0] += u[1] * v[2] - u[2] * v[1]
                area[1] += u[2] * v[0] - u[0] * v[2]
                area[2] += u[0] * v[1] - u[1] * v[0]
            # outward normal of a cube facet through centroid c is c itself
            assert area[0] * cx + area[1] * cy + area[2] * cz > 0

    def test_deterministic(self, cube):
        assert render_off(cube) == render_off(cube)

    def test_wrong_dimension_rejected(self, hexagon):
        with pytest.raises(InputError):
            render_off(hexagon)


# ---------------------------------------------------------------------------
# exact orientation, near the origin and far from it

FAR = 10 ** 20


def random_hulls(dim, count):
    """Seeded full-dimensional hulls of small integer points."""
    rng = random.Random(dim)
    hulls = []
    while len(hulls) < count:
        P = convex_hull([tuple(rng.randint(-9, 9) for _ in range(dim))
                         for _ in range(rng.randint(dim + 1, 12))])
        if P.is_full_dimensional:
            hulls.append(P)
    return hulls


def translate(P, shift):
    return convex_hull([tuple(x + t for x, t in zip(v, shift)) for v in P.vertices])


def turn(P, i, j, k, normal=(0, 0, 1)):
    """det(v_j - v_i, v_k - v_i, normal), the plane read as z = 0."""
    a, b, c = (tuple(P.vertices[m]) + (0,) * (3 - P.ambient_dim) for m in (i, j, k))
    u = [y - x for x, y in zip(a, b)]
    v = [y - x for x, y in zip(a, c)]
    cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
             u[0] * v[1] - u[1] * v[0])
    return sum(x * y for x, y in zip(cross, normal))


def assert_ccw_cycle(P, cycle, normal=(0, 0, 1)):
    """Smallest index first, every step an edge, every turn positive."""
    assert cycle[0] == min(cycle)
    n = len(cycle)
    for k in range(n):
        i, j, m = cycle[k], cycle[(k + 1) % n], cycle[(k + 2) % n]
        # an edge of a polygon lies on one of its facets, of a solid on two
        assert sum({i, j} <= s for s in P.incidence) == P.ambient_dim - 1
        assert turn(P, i, j, m, normal) > 0


def path_cycle(P, svg):
    """The vertex indices of an SVG path, read back through its printed
    coordinates, which for small integers are exact."""
    d = re.search(r'<path d="([^"]*)"', svg).group(1)
    nums = [Fraction(t) for t in d.split() if t not in ("M", "L", "Z")]
    where = {v: i for i, v in enumerate(P.vertices)}
    return [where[(x, -y)] for x, y in zip(nums[::2], nums[1::2])]


def off_cycles(text):
    nv = int(text.splitlines()[1].split()[0])
    return [[int(c) for c in line.split()[1:]]
            for line in text.splitlines()[2 + nv:]]


def test_svg_paths_turn_counterclockwise_near_and_far():
    for P in random_hulls(2, 40):
        cycle = path_cycle(P, render_svg(P))
        assert_ccw_cycle(P, cycle)
        # a far translate keeps the vertex order, so its path is the same
        # cycle, though its printed coordinates no longer tell vertices apart
        for shift in ((FAR, 0), (0, FAR), (FAR, -FAR)):
            Q = translate(P, shift)
            assert_ccw_cycle(Q, cycle)
            far = re.search(r'<path d="([^"]*)"', render_svg(Q)).group(1)
            steps = far[:-2].replace("M ", "").split(" L ")
            assert steps == ["%.12g %.12g" % (float(Q.vertices[i][0]),
                                               -float(Q.vertices[i][1]))
                             for i in cycle]


def test_off_facets_turn_counterclockwise_near_and_far():
    for P in random_hulls(3, 25):
        for Q in (P, translate(P, (FAR, 0, 0)), translate(P, (FAR, -FAR, FAR))):
            cycles = off_cycles(render_off(Q))
            assert sorted(frozenset(c) for c in cycles) == sorted(Q.incidence)
            inside = tuple(sum(c) / len(Q.vertices) for c in zip(*Q.vertices))
            for cycle in cycles:
                # outward: away from a point inside the solid
                out = tuple(x - y for x, y in zip(Q.vertices[cycle[0]], inside))
                assert_ccw_cycle(Q, cycle, out)
