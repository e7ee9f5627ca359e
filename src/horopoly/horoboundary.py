"""Horofunction boundary of a polyhedral normed space.

Every boundary point of the horofunction compactification of (R^m, ||.||)
with polyhedral unit ball B is a function

    h_{E,p}(y) = |p - y|_E - |p|_E,

where E is a proper face of the dual ball and p ranges over the orthogonal
complement of the linear span of the dual face of E.  Projecting an
arbitrary basepoint onto that complement therefore canonicalises it, and
two boundary functions are equal exactly when face and canonical basepoint
coincide.

A geodesic ray t -> q + t*u converges to the boundary function whose face
is the subset of dual-ball vertices minimising <.|u>: for large t the
minimisers in

    psi(q + tu, y) = -min_w <w|q + tu - y> + min_w <w|q + tu>

stabilise inside that face and the t-linear parts cancel, leaving
h_{E,q}(y) exactly.  The stabilisation threshold is finite, which the
numeric-oracle tests exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from ._linalg import (
    frac,
    is_zero_vec,
    project_onto_span,
    vadd,
    vdot,
    vec,
    vscale,
    vsub,
    vzero,
)
from .errors import InputError, NotAFace, PreconditionError
from .norm import PolyhedralNorm, distance, pseudo_norm
from .polytope import Face, dual_face, face_lattice, face_of


@dataclass(frozen=True)
class Horofunction:
    """A boundary function h_{E,p}: face of the dual ball plus canonical p."""

    norm: PolyhedralNorm
    face: Face
    basepoint: tuple

    def __call__(self, y) -> Fraction:
        return evaluate(self, y)


@dataclass(frozen=True)
class SequenceSample:
    """Finitely many points of a sequence, with the basepoint it is viewed from."""

    points: tuple
    basepoint: tuple

    @staticmethod
    def of(points, basepoint=None) -> "SequenceSample":
        pts = tuple(vec(p) for p in points)
        if not pts:
            raise InputError("a sequence sample needs at least one point")
        b = vzero(len(pts[0])) if basepoint is None else vec(basepoint)
        return SequenceSample(pts, b)


def make_horofunction(norm: PolyhedralNorm, E: Face, p) -> Horofunction:
    """Build h_{E,p} with the basepoint projected to its canonical position.

    The canonical basepoint is p minus its orthogonal projection onto the
    span of the dual face's vertices (standard inner product).  For a
    vertex face E that span is everything, so the basepoint collapses to 0
    and the function reduces to y -> <vertex|y>.
    """
    if E.parent != norm.dual_ball:
        raise NotAFace("face does not belong to the dual ball")
    if not E.is_proper:
        raise PreconditionError("only proper faces of the dual ball define "
                                "boundary functions")
    p = vec(p)
    if len(p) != norm.dim:
        raise InputError("basepoint dimension does not match the space")
    span = dual_face(norm.dual_ball, E).vertices
    return Horofunction(norm, E, vsub(p, project_onto_span(span, p)))


def evaluate(h: Horofunction, y) -> Fraction:
    """h(y) = |p - y|_E - |p|_E, exactly."""
    y = vec(y)
    return (pseudo_norm(h.face, vsub(h.basepoint, y))
            - pseudo_norm(h.face, h.basepoint))


def psi(norm: PolyhedralNorm, z, y) -> Fraction:
    """The normalised distance function psi_z(y) = d(y, z) - d(0, z)."""
    z = vec(z)
    return distance(norm, y, z) - distance(norm, vzero(len(z)), z)


def limit_of_ray(norm: PolyhedralNorm, q, u) -> Horofunction:
    """Boundary limit of the ray t -> q + t*u for u != 0.

    The face is the argmin of <.|u> over the dual ball, always a proper
    exposed face; the basepoint is q, canonicalised.
    """
    u = vec(u)
    if is_zero_vec(u):
        raise PreconditionError("a ray needs a nonzero direction")
    if len(u) != norm.dim:
        raise InputError("direction dimension does not match the space")
    values = [vdot(w, u) for w in norm.dual_ball.vertices]
    lowest = min(values)
    E = face_of(norm.dual_ball, [i for i, v in enumerate(values) if v == lowest])
    return make_horofunction(norm, E, q)


def horofunctions_equal(h1: Horofunction, h2: Horofunction) -> bool:
    """Equality of boundary functions: same face, same canonical basepoint."""
    if h1.norm != h2.norm:
        raise InputError("horofunctions live on different normed spaces")
    return (h1.face.vertex_indices == h2.face.vertex_indices
            and h1.basepoint == h2.basepoint)


def enumerate_strata(norm: PolyhedralNorm) -> tuple:
    """All proper faces of the dual ball with their parameter dimensions.

    The stratum of a face E is parametrised by a space of dimension dim E.
    """
    return tuple((f, f.dim) for f in face_lattice(norm.dual_ball) if f.is_proper)


# ---------------------------------------------------------------------------
# sequence diagnostics


def almost_geodesic_check(sample: SequenceSample, dist: Callable, eps,
                          tail_start: int = 0, divergence_min=1) -> bool:
    """Does the sampled tail behave like an almost geodesic?

    Checks d(b, x_m) + d(x_m, x_n) < d(b, x_n) + eps on all tail pairs
    m <= n, plus a finite-sample divergence proxy: the distance from the
    basepoint must end above divergence_min and above where it started.
    """
    eps = frac(eps)
    pts = sample.points[tail_start:]
    if len(pts) < 2:
        raise InputError("need at least two tail points")
    if len(set(pts)) == 1:
        raise InputError("degenerate sample: all tail points equal")
    b = sample.basepoint
    from_base = [dist(b, x) for x in pts]
    if from_base[-1] < frac(divergence_min) or from_base[-1] <= from_base[0]:
        return False
    for m in range(len(pts)):
        for n in range(m + 1, len(pts)):
            if from_base[m] + dist(pts[m], pts[n]) >= from_base[n] + eps:
                return False
    return True


def chain_check(sample: SequenceSample, dist: Callable, eps,
                tail_start: int = 0) -> bool:
    """Triple inequality d(x_i,x_j) + d(x_j,x_k) < d(x_i,x_k) + eps on the tail.

    Any sample passing almost_geodesic_check with eps/2 passes this check:
    summing the pair inequality over (i,j) and (j,k) and applying the
    triangle inequality doubles the slack and eliminates the basepoint.
    """
    eps = frac(eps)
    pts = sample.points[tail_start:]
    if len(pts) < 3:
        raise InputError("need at least three tail points")
    if len(set(pts)) == 1:
        raise InputError("degenerate sample: all tail points equal")
    for i in range(len(pts)):
        for j in range(i, len(pts)):
            dij = dist(pts[i], pts[j])
            for k in range(j, len(pts)):
                if dij + dist(pts[j], pts[k]) >= dist(pts[i], pts[k]) + eps:
                    return False
    return True


_DEFAULT_SCHEDULE = tuple(Fraction(10) ** k for k in range(1, 9))


def convexity_midpoint_test(norm: PolyhedralNorm, ray1, ray2, lam, samples,
                            tol=Fraction(1, 10**6), t_schedule=None) -> bool:
    """Blends of two rays with a common limit must converge to that limit.

    lam may be a single coefficient in [0,1] or a sequence cycled along the
    time schedule (so alternating 0/1 jumps between the rays).  The blend
    m(t) = (1-lam)(q1 + t u1) + lam(q2 + t u2) is tested pointwise on the
    samples against the common boundary function over the schedule tail.
    """
    q1, u1 = vec(ray1[0]), vec(ray1[1])
    q2, u2 = vec(ray2[0]), vec(ray2[1])
    h1 = limit_of_ray(norm, q1, u1)
    h2 = limit_of_ray(norm, q2, u2)
    if not horofunctions_equal(h1, h2):
        raise PreconditionError("rays converge to different boundary functions")
    lams = [frac(l) for l in (lam if isinstance(lam, (list, tuple)) else [lam])]
    if any(l < 0 or l > 1 for l in lams):
        raise InputError("blend coefficients must lie in [0, 1]")
    schedule = tuple(frac(t) for t in (t_schedule or _DEFAULT_SCHEDULE))
    pts = [vec(y) for y in samples]
    tol = frac(tol)
    tail = max(3, len(lams) + 1)
    for idx, t in enumerate(schedule):
        lam_t = lams[idx % len(lams)]
        x_t = vadd(q1, vscale(u1, t))
        y_t = vadd(q2, vscale(u2, t))
        m_t = vadd(vscale(x_t, 1 - lam_t), vscale(y_t, lam_t))
        if idx >= len(schedule) - tail:
            for y in pts:
                if abs(psi(norm, m_t, y) - evaluate(h1, y)) > tol:
                    return False
    return True


# ---------------------------------------------------------------------------
# serialization


def horofunction_to_json(h: Horofunction) -> dict:
    return {"face": list(h.face.vertex_indices),
            "p": [str(x) for x in h.basepoint]}
