"""Deterministic SVG and OFF renderings of plane and solid polytopes.

Plane polytopes become a single closed SVG path whose vertices march
counterclockwise from the lexicographically smallest one, with optional
dashed chamber-wall rays, marked points, and index labels.  Solid
polytopes are written in the plain OFF format with header counts taken
from the face lattice, one facet line per supporting halfspace, vertices
of each facet ordered counterclockwise as seen from outside.

All numbers print through a fixed 12 significant digit format, so a
given polytope always renders to the identical byte string.
"""

from __future__ import annotations

import math

from .errors import InputError
from .polytope import Polytope, f_vector


def _fmt(x) -> str:
    return "%.12g" % float(x)


def _boundary_cycle(P: Polytope) -> list:
    """Vertex order around a polygon: counterclockwise, lex-smallest first."""
    verts = list(P.vertices)
    cx = sum(float(v[0]) for v in verts) / len(verts)
    cy = sum(float(v[1]) for v in verts) / len(verts)
    order = sorted(range(len(verts)),
                   key=lambda i: math.atan2(float(verts[i][1]) - cy,
                                            float(verts[i][0]) - cx))
    start = min(range(len(order)), key=lambda k: verts[order[k]])
    return [order[(start + k) % len(order)] for k in range(len(order))]


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
    cycle = _boundary_cycle(P)
    xs = [float(v[0]) for v in P.vertices] + [float(p[0]) for p in points] + [0.0]
    ys = [float(v[1]) for v in P.vertices] + [float(p[1]) for p in points] + [0.0]
    extent = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    pad = 0.15 * extent
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    # the svg y axis points down; flip so the picture keeps math orientation
    flip = lambda p: (float(p[0]), -float(p[1]))
    view = (x0, -y1, x1 - x0, y1 - y0)
    sw = extent / 150.0

    lines = ['<svg xmlns="http://www.w3.org/2000/svg" viewBox="%s %s %s %s">'
             % tuple(_fmt(c) for c in view)]
    if wall_rays:
        reach = 1.5 * extent
        lines.append('  <g class="walls" stroke="#888888" fill="none" '
                     'stroke-width="%s" stroke-dasharray="%s %s">'
                     % (_fmt(sw * 0.7), _fmt(sw * 4), _fmt(sw * 3)))
        for d in wall_rays:
            dx, dy = float(d[0]), float(d[1])
            norm = math.hypot(dx, dy)
            if norm == 0:
                raise InputError("wall ray direction must be nonzero")
            ex, ey = flip((dx / norm * reach, dy / norm * reach))
            lines.append('    <line x1="0" y1="0" x2="%s" y2="%s"/>'
                         % (_fmt(ex), _fmt(ey)))
        lines.append('  </g>')
    path = []
    for k, i in enumerate(cycle):
        px, py = flip(P.vertices[i])
        path.append("%s%s %s" % ("M " if k == 0 else "L ", _fmt(px), _fmt(py)))
    lines.append('  <path d="%s Z" fill="none" stroke="#000000" '
                 'stroke-width="%s"/>' % (" ".join(path), _fmt(sw)))
    if points:
        lines.append('  <g class="points" fill="#b03030">')
        for p in points:
            px, py = flip(p)
            lines.append('    <circle cx="%s" cy="%s" r="%s"/>'
                         % (_fmt(px), _fmt(py), _fmt(sw * 2.5)))
        lines.append('  </g>')
    if labels:
        lines.append('  <g class="labels" font-size="%s" fill="#000000">'
                     % _fmt(extent / 18.0))
        for i, v in enumerate(P.vertices):
            px, py = flip(v)
            lines.append('    <text x="%s" y="%s">%d</text>'
                         % (_fmt(px + sw * 2), _fmt(py - sw * 2), i))
        lines.append('  </g>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"


def _facet_cycle(P: Polytope, h, on_facet) -> list:
    """Facet vertex indices, counterclockwise seen from outside the solid."""
    idx = sorted(on_facet)
    pts = [tuple(float(c) for c in P.vertices[i]) for i in idx]
    cx = tuple(sum(p[k] for p in pts) / len(pts) for k in range(3))
    # outward normal: the halfspace keeps the body on the >= side
    n = tuple(-float(c) for c in h.functional)
    nlen = math.sqrt(sum(c * c for c in n))
    n = tuple(c / nlen for c in n)
    b1 = tuple(p - c for p, c in zip(pts[0], cx))
    blen = math.sqrt(sum(c * c for c in b1))
    b1 = tuple(c / blen for c in b1)
    b2 = (n[1] * b1[2] - n[2] * b1[1],
          n[2] * b1[0] - n[0] * b1[2],
          n[0] * b1[1] - n[1] * b1[0])
    def angle(p):
        r = tuple(a - c for a, c in zip(p, cx))
        return math.atan2(sum(a * b for a, b in zip(r, b2)),
                          sum(a * b for a, b in zip(r, b1)))
    order = sorted(range(len(idx)), key=lambda k: angle(pts[k]))
    start = min(range(len(order)), key=lambda k: idx[order[k]])
    return [idx[order[(start + k) % len(order)]] for k in range(len(order))]


def render_off(P: Polytope) -> str:
    """Plain OFF text for a solid polytope.

    The header counts come from the face lattice, so they agree with the
    combinatorial f-vector by construction.
    """
    if P.ambient_dim != 3:
        raise InputError("OFF rendering needs a 3-dimensional polytope")
    if not P.is_full_dimensional:
        raise InputError("OFF rendering needs a full-dimensional solid")
    nv, ne, nf = f_vector(P)[:3]
    lines = ["OFF", "%d %d %d" % (nv, nf, ne)]
    for v in P.vertices:
        lines.append(" ".join(_fmt(c) for c in v))
    for h, on_facet in zip(P.facets, P.incidence):
        cyc = _facet_cycle(P, h, on_facet)
        lines.append(" ".join([str(len(cyc))] + [str(i) for i in cyc]))
    return "\n".join(lines) + "\n"
