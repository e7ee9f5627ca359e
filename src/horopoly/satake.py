"""Weight-orbit polytopes and Satake-type unit balls.

A choice of dominant functionals for a root system determines the convex
hull of their reflection-group orbits, taken here in the weight chart so
the hull is a full-dimensional polytope.  That hull serves two roles:
its negated polar is the unit ball of a polyhedral Finsler metric
realizing the generalized Satake compactification attached to the
choice, and the hull itself is the unit ball of the dual compactification.

Two choices are considered equivalent when their hulls admit a bijection
of face lattices that preserves dimension and inclusion, commutes with
the reflection group, and matches each face's incidence pattern against
the chamber walls.  A face lattice is atomistic (Ziegler 1995, 2.2), so
such a bijection is fixed by where it sends the vertices.  The decision
procedure is an exhaustive backtracking search over equivariant vertex
bijections, pruned by the vertices' wall-sign signatures; it accepts one
that sends every face onto a face of the same dimension and signature.
So a False answer is a proof of non-existence rather than a heuristic
failure.  The signature also fixes a face's setwise stabilizer: that is
the stabilizer of the face's barycenter, which Steinberg's theorem
generates from the reflections in the roots vanishing there.  A
bijection commuting with the simple reflections commutes with the whole
group, so the search acts through those alone.

Both run on integers.  The hull's vertices go to ambient coordinates
once, scaled by one common positive integer, and the simple reflections
act on them as signed permutations.  Each vertex is paired once with
every positive root, and a face's signature is the signs of the summed
pairings over its vertices: the sum is a positive multiple of the
barycenter, so the signs are the barycenter's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Optional

from ._linalg import frac, homogeneous, mat_vec, vdot, vec, vscale
from .errors import InputError, PreconditionError
from .polytope import (
    Polytope,
    convex_hull,
    f_vector,
    face_lattice,
    negate,
    polar_dual,
)
from .rootsys import (
    RootSystem,
    signed_permute,
    singular_support,
    weight_ambient,
    weight_coords,
    weyl_group,
    weyl_orbit,
)


@dataclass(frozen=True)
class WeightSpec:
    root_system: RootSystem
    highest_weights: tuple
    scale: Fraction

    @cached_property
    def hull(self) -> Polytope:
        """Convex hull of the scaled orbit points, in weight-chart coordinates."""
        rs = self.root_system
        group = weyl_group(rs)
        pts = [vscale(weight_coords(rs, p), self.scale)
               for chi in self.highest_weights
               for p in weyl_orbit(group, chi)]
        hull = convex_hull(pts)
        if hull.affine_dim < rs.rank or not hull.has_origin_interior():
            raise PreconditionError(
                "weight hull lacks 0 as an interior point and cannot be a unit ball")
        return hull


@dataclass(frozen=True)
class CompactificationReport:
    hull_f_vector: tuple
    ball_f_vector: tuple
    vertices: tuple
    facet_count: int
    singular_supports: tuple
    regular: bool
    shape: Optional[str]


def weight_spec(rs: RootSystem, weights, scale=1) -> WeightSpec:
    """Validated bundle of dominant functionals (ambient coords) and scale."""
    ws = tuple(vec(w) for w in weights)
    if not ws:
        raise InputError("at least one weight is required")
    for w in ws:
        if len(w) != rs.ambient_dim:
            raise InputError("weight does not live in the ambient space")
        if any(vdot(a, w) < 0 for a in rs.simple_roots):
            raise InputError("weights must be dominant")
    scale = frac(scale)
    if scale <= 0:
        raise InputError("scale must be positive")
    return WeightSpec(rs, ws, scale)


def weight_hull(spec: WeightSpec) -> Polytope:
    """The spec's weight hull, built once and kept on the spec."""
    return spec.hull


def satake_ball(hull: Polytope) -> Polytope:
    """Negated polar of the weight hull: the compactification's unit ball."""
    return negate(polar_dual(hull))


def invariant_under(P: Polytope, matrices) -> bool:
    """Does every matrix map the vertex set onto itself?"""
    vset = set(P.vertices)
    return all({mat_vec(m, v) for v in P.vertices} == vset for m in matrices)


def _ambient_integers(rs: RootSystem, chart_points) -> list:
    """The points in ambient coordinates as integer vectors, all scaled by
    one positive integer.  Family A points are taken trace-zero (the group
    permutes that representative), which scales them by the ambient
    dimension once more."""
    n = rs.ambient_dim
    flat = homogeneous([x for p in chart_points for x in weight_ambient(rs, p)])
    ints = [flat[i:i + n] for i in range(0, len(flat) - 1, n)]
    if rs.type_label == "A":
        ints = [tuple(n * x - sum(p) for x in p) for p in ints]
    return ints


def _root_pairings(rs: RootSystem, ints) -> list:
    """Each integer ambient point's pairing with every positive root."""
    roots = [tuple(int(x) for x in a) for a in rs.positive_roots]
    return [tuple(sum(map(mul, p, a)) for a in roots) for p in ints]


def _wall_signature(pairings, indices) -> tuple:
    """Sign pattern, against every positive root's wall, of the sum of the
    indexed points: the pattern of their barycenter."""
    sums = map(sum, zip(*(pairings[i] for i in indices)))
    return tuple((x > 0) - (x < 0) for x in sums)


def classify(spec: WeightSpec) -> CompactificationReport:
    """The report on the spec's weight hull and its ball."""
    rs = spec.root_system
    hull = spec.hull
    supports = tuple(singular_support(rs, w) for w in spec.highest_weights)
    fv = f_vector(hull)
    return CompactificationReport(
        hull_f_vector=fv,
        ball_f_vector=f_vector(satake_ball(hull)),
        vertices=hull.vertices,
        facet_count=len(hull.facets),
        singular_supports=supports,
        regular=all(s == () for s in supports),
        shape=_recognize_shape(rs, hull, fv),
    )


def _recognize_shape(rs: RootSystem, hull: Polytope, fv: tuple) -> Optional[str]:
    if hull.affine_dim == 2 and fv == (6, 6, 1):
        return "hexagon"
    if hull.affine_dim == 3 and fv == (12, 24, 14, 1):
        return "cuboctahedron"
    # The vertex set is group invariant, so a vertex on no wall has a free
    # orbit, and when there are |W| vertices that orbit is all of them.
    if len(hull.vertices) == weyl_group(rs).order:
        (first,) = _root_pairings(rs, _ambient_integers(rs, hull.vertices[:1]))
        if 0 not in first:
            return "permutohedron"
    return None


def combinatorial_summary(report: CompactificationReport) -> dict:
    """The scale-independent content of a report."""
    return {
        "hull_f_vector": report.hull_f_vector,
        "ball_f_vector": report.ball_f_vector,
        "vertex_count": len(report.vertices),
        "facet_count": report.facet_count,
        "singular_supports": report.singular_supports,
        "regular": report.regular,
        "shape": report.shape,
    }


def report_to_json(report: CompactificationReport) -> dict:
    return {
        "hull_f_vector": list(report.hull_f_vector),
        "ball_f_vector": list(report.ball_f_vector),
        "vertices": [[str(x) for x in v] for v in report.vertices],
        "facet_count": report.facet_count,
        "singular_supports": [list(s) for s in report.singular_supports],
        "regular": report.regular,
        "shape": report.shape,
    }


# ---------------------------------------------------------------------------
# equivalence of compactifications


class _LatticeProfile:
    """A hull's vertex action and the exact invariants of its faces."""

    def __init__(self, rs: RootSystem, hull: Polytope):
        ints = _ambient_integers(rs, hull.vertices)
        vpos = {u: i for i, u in enumerate(ints)}
        try:  # one vertex permutation per simple reflection
            self.action = [tuple(vpos[signed_permute(g, u)] for u in ints)
                           for g in weyl_group(rs).signed_generators]
        except KeyError:
            raise AssertionError("weight hull is not group invariant")
        pairings = _root_pairings(rs, ints)
        self.vertex_keys = [_wall_signature(pairings, (i,)) for i in range(len(ints))]
        self.faces = {frozenset(f.vertex_indices):
                      (f.dim, _wall_signature(pairings, f.vertex_indices))
                      for f in face_lattice(hull)}


def same_compactification(spec1: WeightSpec, spec2: WeightSpec) -> bool:
    """Equivalence by exhaustive equivariant vertex-bijection search."""
    if spec1.root_system != spec2.root_system:
        raise InputError("specs must share a root system")
    rs = spec1.root_system
    p1 = _LatticeProfile(rs, spec1.hull)
    p2 = _LatticeProfile(rs, spec2.hull)
    n = len(p1.vertex_keys)
    if (n != len(p2.vertex_keys)
            or sorted(p1.faces.values()) != sorted(p2.faces.values())):
        return False
    assign = [None] * n
    taken = [False] * n

    def place(v: int, w: int, log: list) -> bool:
        """Assign the whole equivariant closure of v -> w; False on clash."""
        stack = [(v, w)]
        while stack:
            a, b = stack.pop()
            if assign[a] is not None:
                if assign[a] != b:
                    return False
                continue
            if taken[b] or p1.vertex_keys[a] != p2.vertex_keys[b]:
                return False
            assign[a] = b
            taken[b] = True
            log.append(a)
            for act1, act2 in zip(p1.action, p2.action):
                stack.append((act1[a], act2[b]))
        return True

    def search() -> bool:
        try:
            v = assign.index(None)
        except ValueError:
            return all(p2.faces.get(frozenset(assign[i] for i in s)) == key
                       for s, key in p1.faces.items())
        for w in range(n):
            if taken[w] or p2.vertex_keys[w] != p1.vertex_keys[v]:
                continue
            log = []
            if place(v, w, log) and search():
                return True
            for a in log:
                taken[assign[a]] = False
                assign[a] = None
        return False

    return search()
