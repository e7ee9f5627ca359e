"""Exact convex polytopes over the rationals with dual descriptions.

Vertices and facet halfspaces are both carried on every full-dimensional
polytope.  Halfspaces are written {x : <functional|x> >= offset} with the
offset normalised to -1, 0 or +1; a polytope contains the origin in its
interior exactly when every facet offset is -1, which is the form polar
duality works in:

    polar(B) = {y : <y|x> >= -1 for all x in B}.

A polytope computes its facet-vertex incidence, its face lattice and its
polar once, on first use, and keeps them on the instance; every face
query (face_of, face_lattice, Face.support, dual_face) reads that one
incidence.

Designed for low dimensions (<= 4) and modest vertex counts.  Vertices
and facets are Fraction tuples, but the kernel computes on integers: each
point x becomes its own homogeneous integer vector (x*w, w), w the lcm of
its denominators.  Facets come from a scan over all m-point subsets in
R^m.  A subset's normal is the vector of signed maximal minors of its m
homogeneous rows, zero exactly when the points are affinely dependent,
and the minors are shared by every subset with the same first m - 1
points.  The normal is kept when every point lies on one side, which is
the sign of one integer dot product.  The scan records which points each
facet holds, and a point is a vertex exactly when the facets through it
meet in that point alone.  Incidence and face dimensions are integer
tests and ranks on the same homogeneous vectors.  Every step is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from ._linalg import (
    ONE,
    extend_minors,
    frac,
    homogeneous,
    is_zero_vec,
    normal_map,
    pivot_columns,
    primitive,
    vdot,
    vec,
    vscale,
    vsub,
)
from .errors import (
    DimensionMismatch,
    EmptyInput,
    InputError,
    NotAFace,
    OriginNotInterior,
    PreconditionError,
)

Vector = tuple  # tuple of Fraction


@dataclass(frozen=True, order=True)
class Halfspace:
    """The closed halfspace {x : <functional|x> >= offset}, offset in {-1,0,1}."""

    functional: Vector
    offset: Fraction

    @staticmethod
    def normalized(functional, offset) -> "Halfspace":
        f = vec(functional)
        c = frac(offset)
        if is_zero_vec(f):
            raise InputError("halfspace functional must be nonzero")
        if c != 0:
            f = vscale(f, ONE / abs(c))
            c = Fraction(1 if c > 0 else -1)
        else:
            # offset 0 leaves the scale free; pin it with the primitive form
            f = primitive(f)
        return Halfspace(f, c)

    def contains(self, x) -> bool:
        return vdot(self.functional, x) >= self.offset


@dataclass(frozen=True)
class Polytope:
    """A convex polytope with canonical vertex and facet descriptions.

    vertices are extremal points, deduplicated and sorted lexicographically,
    so structural equality of two polytopes is set equality.  facets is the
    irredundant facet list when the polytope is full-dimensional and empty
    otherwise (lower-dimensional polytopes appear only as intermediate
    values and as faces of other polytopes).
    """

    vertices: tuple
    facets: tuple
    ambient_dim: int
    affine_dim: int

    def __repr__(self) -> str:
        return (f"Polytope(ambient={self.ambient_dim}, dim={self.affine_dim}, "
                f"vertices={len(self.vertices)}, facets={len(self.facets)})")

    @property
    def is_full_dimensional(self) -> bool:
        return self.affine_dim == self.ambient_dim

    def contains(self, x) -> bool:
        if not self.facets:
            raise PreconditionError("containment needs a facet description")
        x = vec(x)
        return all(h.contains(x) for h in self.facets)

    def has_origin_interior(self) -> bool:
        return (self.is_full_dimensional and bool(self.facets)
                and all(h.offset == -1 for h in self.facets))

    @cached_property
    def _homogeneous(self) -> tuple:
        """The integer vector (x*w, w) of each vertex x, in vertex order."""
        return tuple(homogeneous(v) for v in self.vertices)

    @cached_property
    def incidence(self) -> tuple:
        """Per facet, in facet order, the frozenset of vertex indices on it.

        Facet <F/d|x> >= c holds the vertex with integer vector (X, w)
        exactly when <F|X> = c*d*w.
        """
        out = []
        for h in self.facets:
            F = homogeneous(h.functional)
            row = F[:-1] + (-int(h.offset) * F[-1],)
            out.append(frozenset(i for i, v in enumerate(self._homogeneous)
                                 if not sum(map(mul, row, v))))
        return tuple(out)

    @cached_property
    def lattice(self) -> tuple:
        """All faces graded by dimension, the polytope itself included.

        Proper faces are exactly the intersections of facets, computed by
        closing the facet vertex sets under pairwise intersection.
        """
        if self.affine_dim == 0:
            return (Face(self, (0,), 0),)
        if not self.facets:
            raise PreconditionError("face lattice needs a facet description")
        facet_sets = self.incidence
        proper = set(facet_sets)
        frontier = set(facet_sets)
        while frontier:
            fresh = set()
            for s in frontier:
                for f in facet_sets:
                    t = s & f
                    if t and t not in proper:
                        proper.add(t)
                        fresh.add(t)
            frontier = fresh
        faces = [_face_from_index_set(self, s) for s in proper]
        faces.append(Face(self, tuple(range(len(self.vertices))), self.affine_dim))
        faces.sort(key=lambda f: (f.dim, f.vertex_indices))
        return tuple(faces)

    @cached_property
    def polar(self) -> "Polytope":
        """The polar {y : <y|x> >= -1 for all x in P}; see polar_dual."""
        if not self.has_origin_interior():
            raise OriginNotInterior(
                "polar duality needs a full-dimensional polytope with 0 interior")
        m = self.ambient_dim
        verts = tuple(sorted(h.functional for h in self.facets))
        facets = tuple(sorted(Halfspace(v, Fraction(-1)) for v in self.vertices))
        return Polytope(verts, facets, m, m)


@dataclass(frozen=True)
class Face:
    """A face of a polytope, identified by its sorted vertex index set.

    support lists the parent facets active on the whole face; it is empty
    exactly for the improper face (the polytope itself).
    """

    parent: Polytope
    vertex_indices: tuple
    dim: int

    @property
    def support(self) -> tuple:
        iset = set(self.vertex_indices)
        return tuple(h for h, s in zip(self.parent.facets, self.parent.incidence)
                     if iset <= s)

    @property
    def vertices(self) -> tuple:
        return tuple(self.parent.vertices[i] for i in self.vertex_indices)

    @property
    def is_proper(self) -> bool:
        return len(self.vertex_indices) < len(self.parent.vertices)

    def __repr__(self) -> str:
        return f"Face(dim={self.dim}, vertices={list(self.vertex_indices)})"


# ---------------------------------------------------------------------------
# construction


def _check_points(points):
    pts = [vec(p) for p in points]
    if not pts:
        raise EmptyInput("no points given")
    m = len(pts[0])
    if m == 0 or any(len(p) != m for p in pts):
        raise DimensionMismatch("points must share a positive dimension")
    return sorted(set(pts)), m


def _cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d(pts):
    """Monotone chain on presorted distinct points; returns CCW boundary."""
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and _cross2(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross2(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    boundary = lower[:-1] + upper[:-1]
    facets = []
    for a, b in zip(boundary, boundary[1:] + boundary[:1]):
        d = vsub(b, a)
        inward = (-d[1], d[0])  # CCW boundary: this points into the polygon
        facets.append(Halfspace.normalized(inward, vdot(inward, a)))
    return boundary, facets


def _hull_full(pts, hom):
    """Facets and vertices of a full-dimensional hull via subset enumeration.

    hom holds the homogeneous integer vector of each point.
    """
    m = len(pts[0])
    if m == 2:
        return _hull_2d(pts)

    n = len(pts)
    # scan from both ends of the sorted list inwards: the extreme points
    # tend to lie on both sides of a candidate that is no facet, which ends
    # its scan early (on a line, after two points)
    order = sorted(range(n), key=lambda i: min(i, n - 1 - i))
    facets = {}  # indices of the points on a facet -> its inward normal

    def scan(prefix, minors):
        k = len(prefix)
        start = prefix[-1] + 1 if prefix else 0
        if k < m - 1:
            for j in range(start, n - (m - 1 - k)):
                rows = extend_minors(minors, k, hom[j])
                if any(rows):  # dependent rows stay dependent below
                    scan(prefix + (j,), rows)
            return
        N = normal_map(minors, m + 1)
        for j in range(start, n):
            normal = [sum(map(mul, r, hom[j])) for r in N]
            if not any(normal):
                continue
            above = below = False
            on = []
            for i in order:
                s = sum(map(mul, normal, hom[i]))
                if s > 0:
                    above = True
                elif s < 0:
                    below = True
                else:
                    on.append(i)
                if above and below:
                    break
            if above and below:
                continue
            facets[frozenset(on)] = normal if above else [-x for x in normal]

    scan((), (1,))  # the one minor of no rows
    everything = frozenset(range(n))
    verts = [p for i, p in enumerate(pts)
             if everything.intersection(*(s for s in facets if i in s)) == {i}]
    # <normal|(x*w, w)> >= 0 is <normal[:-1]|x> >= -normal[-1]
    return verts, [Halfspace.normalized(v[:-1], -v[-1]) for v in facets.values()]


def convex_hull(points) -> Polytope:
    """Convex hull of rational points, with facets when full-dimensional."""
    pts, m = _check_points(points)
    hom = [homogeneous(p) for p in pts]
    # with w first, the pivot columns after it are the coordinates that the
    # affine span projects onto one to one
    pivots = pivot_columns([h[-1:] + h[:-1] for h in hom])
    d = len(pivots) - 1
    if d == m:
        verts, facets = _hull_full(pts, hom)
        return Polytope(tuple(sorted(verts)), tuple(sorted(facets)), m, m)
    if d == 0:
        return Polytope((pts[0],), (), m, 0)
    # lower-dimensional: hull those coordinates
    coord_map = {tuple(p[j - 1] for j in pivots[1:]): p for p in pts}
    sub = convex_hull(list(coord_map))
    verts = sorted(coord_map[c] for c in sub.vertices)
    return Polytope(tuple(verts), (), m, d)


# ---------------------------------------------------------------------------
# polarity and faces


def polar_dual(P: Polytope) -> Polytope:
    """The polar {y : <y|x> >= -1 for all x in P}, kept on P once built.

    Needs 0 strictly interior.  Vertices of the polar are the facet
    functionals of P and vice versa, so the polar of the polar is P itself,
    exactly and structurally.  Facet i of the polar is the one of
    P.vertices[i].
    """
    return P.polar


def _face_from_index_set(P: Polytope, idxs) -> Face:
    idxs = tuple(sorted(idxs))
    rows = [P._homogeneous[i] for i in idxs]
    return Face(P, idxs, len(pivot_columns(rows)) - 1)


def face_of(P: Polytope, vertex_indices) -> Face:
    """Build the face with exactly these vertices; NotAFace if there is none."""
    idxs = tuple(sorted(set(vertex_indices)))
    if not idxs:
        raise NotAFace("a face needs at least one vertex")
    if any(i < 0 or i >= len(P.vertices) for i in idxs):
        raise InputError("vertex index out of range")
    if len(idxs) == len(P.vertices):
        return Face(P, idxs, P.affine_dim)
    if not P.facets:
        raise PreconditionError("faces need a facet description")
    rows = [s for s in P.incidence if s.issuperset(idxs)]
    if not rows:
        raise NotAFace(f"{list(idxs)} is not the equality set of any facet subset")
    closure = frozenset.intersection(*rows)
    if closure != set(idxs):
        raise NotAFace(f"{list(idxs)} is not a face (closure is {sorted(closure)})")
    return _face_from_index_set(P, idxs)


def face_lattice(P: Polytope) -> tuple:
    """All faces of P graded by dimension: P itself included, empty face not.

    Built once per polytope and kept on it; see Polytope.lattice.
    """
    return P.lattice


def f_vector(P: Polytope) -> tuple:
    """Face counts by dimension 0..affine_dim, the top face included."""
    counts = [0] * (P.affine_dim + 1)
    for f in face_lattice(P):
        counts[f.dim] += 1
    return tuple(counts)


def dual_face(P: Polytope, F: Face) -> Face:
    """The face {y in polar(P) : <y|x> = -1 on all of F} of the polar.

    Inclusion-reversing bijection on proper faces; dim F + dim dual = dim - 1.
    """
    if F.parent is not P and F.parent != P:
        raise NotAFace("face does not belong to this polytope")
    if not F.is_proper:
        raise PreconditionError("only proper faces have dual faces")
    Q = polar_dual(P)
    idxs = frozenset.intersection(*(Q.incidence[i] for i in F.vertex_indices))
    if not idxs:
        raise NotAFace("empty dual face; input was not a face")
    return face_of(Q, idxs)


def negate(P: Polytope) -> Polytope:
    """The pointwise negation -P, computed structurally."""
    verts = tuple(sorted(tuple(-x for x in v) for v in P.vertices))
    facets = tuple(sorted(
        Halfspace.normalized(tuple(-x for x in h.functional), h.offset)
        for h in P.facets))
    return Polytope(verts, facets, P.ambient_dim, P.affine_dim)


# ---------------------------------------------------------------------------
# serialization


def _format_vec(v) -> list:
    return [str(x) for x in v]


def polytope_to_json(P: Polytope) -> dict:
    """JSON form: rationals as strings; facets included when 0 is interior."""
    out = {"dim": P.ambient_dim, "vertices": [_format_vec(v) for v in P.vertices]}
    if P.has_origin_interior():
        out["facets"] = [_format_vec(h.functional) for h in P.facets]
    return out


def polytope_from_json(obj) -> Polytope:
    """Parse and validate; vertex lists must be extremal and canonical."""
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise InputError("polytope JSON needs a 'vertices' key")
    try:
        pts = [vec(v) for v in obj["vertices"]]
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad vertex data: {exc}") from exc
    P = convex_hull(pts)
    if "dim" in obj and P.ambient_dim != obj["dim"]:
        raise InputError("'dim' does not match the vertex coordinates")
    if list(P.vertices) != sorted(set(pts)):
        raise InputError("vertex list contains non-extremal or duplicate points")
    if "facets" in obj:
        try:
            given = {vec(f) for f in obj["facets"]}
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad facet data: {exc}") from exc
        actual = {h.functional for h in P.facets}
        if not P.has_origin_interior() or given != actual:
            raise InputError("facet list does not match the vertex data")
    return P
