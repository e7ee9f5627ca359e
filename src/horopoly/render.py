"""Deterministic SVG and OFF renderings of plane and solid polytopes.

Plane polytopes become a single closed SVG path whose vertices march
counterclockwise from the lexicographically smallest one, with optional
dashed chamber-wall rays, marked points, and index labels.  Solid
polytopes are written in the plain OFF format with header counts taken
from the face lattice, one facet line per supporting halfspace, vertices
of each facet ordered counterclockwise as seen from outside.

Each boundary order is exact: the cycle walks the polygon's edges (a
plane polytope's facets, or the edges of the face lattice inside a
facet) and one exact determinant decides its turn.  Floats appear only
in drawing: the printed coordinates, the viewBox and the wall rays.  All
numbers print through a fixed 12 significant digit format, so a given
polytope always renders to the identical byte string.
"""

from __future__ import annotations

import math

from ._linalg import vdot, vsub
from .errors import InputError
from .polytope import Polytope, f_vector, face_lattice


def _fmt(x) -> str:
    return "%.12g" % float(x)


def _floats(points) -> list:
    try:
        return [tuple(float(c) for c in p) for p in points]
    except OverflowError:
        raise InputError("a coordinate is beyond the float range and "
                         "cannot be drawn") from None


def _cycle(P: Polytope, idx, edges, normal=(0, 0, 1)) -> list:
    """The polygon on vertex indices idx, walked along its edges (vertex
    index pairs) from the smallest index, counterclockwise as seen from the
    side normal points to; the plane is read as z = 0.  Fewer than three
    vertices keep their sorted order.

    The turn is the exact determinant of (v1 - v0, v2 - v0, normal): every
    three vertices of a convex polygon, in cycle order, turn the same way.
    """
    idx = sorted(idx)
    if len(idx) < 3:
        return idx
    nbrs = {i: [] for i in idx}
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    cycle = [idx[0], nbrs[idx[0]][0]]
    while len(cycle) < len(idx):
        a, b = nbrs[cycle[-1]]
        cycle.append(b if a == cycle[-2] else a)
    v0, v1, v2 = (P.vertices[i] + (0,) * (3 - P.ambient_dim) for i in cycle[:3])
    (a, b, c), (d, e, f) = vsub(v1, v0), vsub(v2, v0)
    if vdot((b * f - c * e, c * d - a * f, a * e - b * d), normal) < 0:
        cycle[1:] = cycle[:0:-1]
    return cycle


def render_svg(P: Polytope, wall_rays=(), labels: bool = False, points=()) -> str:
    """Closed-path SVG picture of a plane polytope with optional overlays.

    wall_rays: direction vectors drawn as dashed rays out of the origin.
    points: positions marked with filled dots.  labels: vertex indices.
    """
    if P.ambient_dim != 2:
        raise InputError("SVG rendering needs a 2-dimensional polytope")
    if not P.vertices:
        raise InputError("nothing to render")
    if any(len(p) != 2 for p in points):
        raise InputError("marked points must be 2-dimensional")
    # the svg y axis points down; flip y so the picture keeps math orientation
    verts, marks = ([(x, -y) for x, y in _floats(ps)] for ps in (P.vertices, points))
    xs = [p[0] for p in verts + marks] + [0.0]
    ys = [p[1] for p in verts + marks] + [0.0]
    extent = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    pad = 0.15 * extent
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    view = (x0, y0, x1 - x0, y1 - y0)
    sw = extent / 150.0

    lines = ['<svg xmlns="http://www.w3.org/2000/svg" viewBox="%s %s %s %s">'
             % tuple(_fmt(c) for c in view)]
    if wall_rays:
        reach = 1.5 * extent
        lines.append('  <g class="walls" stroke="#888888" fill="none" '
                     'stroke-width="%s" stroke-dasharray="%s %s">'
                     % (_fmt(sw * 0.7), _fmt(sw * 4), _fmt(sw * 3)))
        for d in wall_rays:
            dx, dy = float(d[0]), -float(d[1])
            norm = math.hypot(dx, dy)
            if norm == 0:
                raise InputError("wall ray direction must be nonzero")
            lines.append('    <line x1="0" y1="0" x2="%s" y2="%s"/>'
                         % (_fmt(dx / norm * reach), _fmt(dy / norm * reach)))
        lines.append('  </g>')
    path = " L ".join(" ".join(map(_fmt, verts[i]))
                      for i in _cycle(P, range(len(verts)), P.incidence))
    lines.append('  <path d="M %s Z" fill="none" stroke="#000000" '
                 'stroke-width="%s"/>' % (path, _fmt(sw)))
    if points:
        lines.append('  <g class="points" fill="#b03030">')
        for px, py in marks:
            lines.append('    <circle cx="%s" cy="%s" r="%s"/>'
                         % (_fmt(px), _fmt(py), _fmt(sw * 2.5)))
        lines.append('  </g>')
    if labels:
        lines.append('  <g class="labels" font-size="%s" fill="#000000">'
                     % _fmt(extent / 18.0))
        for i, (px, py) in enumerate(verts):
            lines.append('    <text x="%s" y="%s">%d</text>'
                         % (_fmt(px + sw * 2), _fmt(py - sw * 2), i))
        lines.append('  </g>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"


def render_off(P: Polytope) -> str:
    """Plain OFF text for a solid polytope.

    The header counts come from the face lattice, so they agree with the
    combinatorial f-vector by construction.
    """
    if P.ambient_dim != 3:
        raise InputError("OFF rendering needs a 3-dimensional polytope")
    if not P.is_full_dimensional:
        raise InputError("OFF rendering needs a full-dimensional solid")
    verts = _floats(P.vertices)
    nv, ne, nf = f_vector(P)[:3]
    edges = [f.vertex_indices for f in face_lattice(P) if f.dim == 1]
    lines = ["OFF", "%d %d %d" % (nv, nf, ne)]
    for v in verts:
        lines.append(" ".join(_fmt(c) for c in v))
    for h, on_facet in zip(P.facets, P.incidence):
        # outward normal: the halfspace keeps the body on the >= side
        cyc = _cycle(P, on_facet, [e for e in edges if on_facet.issuperset(e)],
                     tuple(-c for c in h.functional))
        lines.append(" ".join([str(len(cyc))] + [str(i) for i in cyc]))
    return "\n".join(lines) + "\n"
