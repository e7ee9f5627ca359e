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
incidence.  convex_hull and polar set it as they build the polytope.

Vertices and facets are Fraction tuples, but the kernel computes on
integers: each point x becomes its own homogeneous integer vector
(x*w, w), w the lcm of its denominators.  The facets of the hull are the
extreme rays of the cone {a : <a|(x*w, w)> >= 0 for every point}, found
by double description (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda
and Prodon 1996): start from the cone of m + 1 independent rows, whose
rays are the columns of their integer adjugate, and cut it by the other
rows one at a time, joining adjacent rays across each.  Each ray carries
the bitmask of the points on it, so signs decide every step without an
epsilon, coplanar points fall on one facet, and the final masks are the
facet-vertex incidence.  A point is a vertex exactly when the facets
through it meet in that point alone.  The cost follows the output, not
the C(n, m) point subsets.  Plane hulls take the monotone chain.  Face
dimensions are fraction-free ranks on the homogeneous vectors.  Every
step is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd
from operator import and_, mul

from ._linalg import (
    ONE,
    adjugate,
    frac,
    homogeneous,
    is_zero_vec,
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
        Q = Polytope(verts, facets, m, m)
        # facet i of Q is vertex i of P and vertex j of Q facet j of P
        columns = [[] for _ in self.vertices]
        for j, s in enumerate(self.incidence):
            for i in s:
                columns[i].append(j)
        Q.__dict__["incidence"] = tuple(map(frozenset, columns))
        return Q


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


def _extreme_rays(hom) -> list:
    """Extreme rays of the cone {a : <a|h> >= 0 for every row h}, by double
    description; the integer rows span their space, so the cone is pointed.

    Each ray is a primitive integer vector with the bitmask of the rows it
    is orthogonal to.  The start cone is cut out by the first independent
    rows, and its rays are the columns of their adjugate.  Each further
    row keeps the rays on its side and joins each adjacent pair across it:
    a pair is adjacent when both are orthogonal to at least d - 2 common
    rows and no third ray is orthogonal to all of those.
    """
    n, d = len(hom), len(hom[0])
    start = pivot_columns(list(zip(*hom)))
    adj, det = adjugate([hom[i] for i in start])
    sign = 1 if det > 0 else -1
    rays = []
    for j, col in enumerate(zip(*adj)):
        g = sign * gcd(*col)
        rays.append((tuple(x // g for x in col),
                     sum(1 << i for k, i in enumerate(start) if k != j)))
    for i in sorted(set(range(n)).difference(start)):
        row, bit = hom[i], 1 << i
        kept, plus, minus = [], [], []
        for ray, zeros in rays:
            s = sum(map(mul, ray, row))
            if s > 0:
                kept.append((ray, zeros))
                plus.append((ray, zeros, s))
            elif s < 0:
                minus.append((ray, zeros, s))
            else:
                kept.append((ray, zeros | bit))
        masks = [zeros for _, zeros in rays]
        for p, zp, sp in plus:
            for q, zq, sq in minus:
                common = zp & zq
                if common.bit_count() < d - 2 or any(
                        z & common == common and z != zp and z != zq for z in masks):
                    continue
                ray = [sp * y - sq * x for x, y in zip(p, q)]
                g = gcd(*ray)
                kept.append((tuple(x // g for x in ray), common | bit))
        rays = kept
    return rays


def _hull_full(pts, hom) -> Polytope:
    """The full-dimensional hull of distinct sorted points, with its
    incidence read off the facets' zero sets.

    hom holds the homogeneous integer vector of each point.  A facet
    <a[:-1]|x> >= -a[-1] is an extreme ray a of {a : <a|(x*w, w)> >= 0}.
    """
    m = len(pts[0])
    rays = _extreme_rays(hom)
    everything = (1 << len(pts)) - 1
    # a point is a vertex when the facets through it meet in it alone
    verts = [i for i in range(len(pts))
             if reduce(and_, (z for _, z in rays if z >> i & 1), everything) == 1 << i]
    facets = sorted((Halfspace.normalized(a[:-1], -a[-1]), z) for a, z in rays)
    P = Polytope(tuple(pts[i] for i in verts), tuple(h for h, _ in facets), m, m)
    P.__dict__["incidence"] = tuple(
        frozenset(k for k, i in enumerate(verts) if z >> i & 1) for _, z in facets)
    return P


def convex_hull(points) -> Polytope:
    """Convex hull of rational points, with facets when full-dimensional."""
    pts, m = _check_points(points)
    hom = [homogeneous(p) for p in pts]
    # with w first, the pivot columns after it are the coordinates that the
    # affine span projects onto one to one
    pivots = pivot_columns([h[-1:] + h[:-1] for h in hom])
    d = len(pivots) - 1
    if d == m:
        if m == 2:
            verts, facets = _hull_2d(pts)
            return Polytope(tuple(sorted(verts)), tuple(sorted(facets)), m, m)
        return _hull_full(pts, hom)
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
