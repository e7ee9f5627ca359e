"""Reference checks on horopoly's answers, written with plain `fractions`.

Nothing here imports horopoly.  Every check takes answers as plain data
(tuples of Fraction, index lists, parsed JSON documents) and raises
CheckError when a property the method must have does not hold.  The
properties come from the definitions, not from stored program output:
facet inequalities and incidences, the Euler-Poincare relation, polar
face duality, Weyl orbits built by simple reflections, scale invariance
of the compactification, ray limits as argmin faces, and the limit of
normalised distances far along a ray.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from fractions import Fraction

ZERO = Fraction(0)


class CheckError(AssertionError):
    """An answer of the program violates a property it must have."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def fvec(values) -> tuple:
    return tuple(Fraction(x) for x in values)


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), ZERO)


def rank(rows) -> int:
    """Rank over the rationals by Gaussian elimination."""
    m = [list(r) for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def affine_rank(points) -> int:
    pts = list(points)
    if len(pts) < 2:
        return 0
    return rank([tuple(x - y for x, y in zip(p, pts[0])) for p in pts[1:]])


# ---------------------------------------------------------------------------
# polytopes: vertices plus facets {x : <f|x> >= c}


def check_hull(points, vertices, facets, dim: int) -> None:
    """The vertex/facet pair is the convex hull of the input points."""
    pts = set(points)
    require(len(vertices) >= dim + 1, "too few vertices for a full-dimensional hull")
    require(len(facets) >= dim + 1, "too few facets for a bounded polytope")
    for f, c in facets:
        for p in pts:
            require(dot(f, p) >= c, f"input point {p} violates facet {f} >= {c}")
        tight = [v for v in vertices if dot(f, v) == c]
        require(affine_rank(tight) == dim - 1,
                f"facet {f} is not tight on a hyperplane's worth of vertices")
    vset = set(vertices)
    require(len(vset) == len(vertices), "duplicate vertices")
    for p in pts:
        normals = [f for f, c in facets if dot(f, p) == c]
        full = len(normals) >= dim and rank(normals) == dim
        if p in vset:
            require(full, f"vertex {p} is not tight on facets of full rank")
        else:
            require(not full, f"extreme input point {p} is missing from the vertices")
    require(vset <= pts, "a vertex is not one of the input points")


def check_ball(vertices, facets, dim: int) -> None:
    """A unit ball: 0 interior, so every facet reads <f|x> >= -1."""
    require(all(c == -1 for _, c in facets), "a unit ball has every facet offset -1")
    check_hull(vertices, vertices, facets, dim)


def incidence_lattice(vertices, facets) -> dict:
    """Proper faces as vertex index sets, with dimensions from the lattice.

    Faces are the nonempty intersections of facet vertex sets.  A face's
    dimension is one more than the largest dimension among the faces it
    strictly contains, starting from 0 at the vertices.
    """
    tight = [frozenset(i for i, v in enumerate(vertices) if dot(f, v) == c)
             for f, c in facets]
    faces = set(tight)
    frontier = set(tight)
    while frontier:
        fresh = set()
        for s in frontier:
            for t in tight:
                u = s & t
                if u and u not in faces:
                    faces.add(u)
                    fresh.add(u)
        frontier = fresh
    dims = {}
    for s in sorted(faces, key=len):
        below = [dims[t] for t in dims if t < s]
        dims[s] = 1 + max(below) if below else 0
    return dims


def f_vector_of(lattice: dict, dim: int) -> tuple:
    counts = [0] * dim
    for d in lattice.values():
        require(0 <= d < dim, "face dimension out of range")
        counts[d] += 1
    return tuple(counts) + (1,)


def check_euler(fv) -> None:
    """Euler-Poincare: sum (-1)^i f_i over proper faces is 1 - (-1)^d."""
    d = len(fv) - 1
    total = sum((-1) ** i * f for i, f in enumerate(fv[:-1]))
    require(total == 1 - (-1) ** d, f"f-vector {tuple(fv)} breaks Euler-Poincare")


def check_lattice(reported, vertices, facets, dim: int) -> dict:
    """The program's face lattice equals the incidence lattice.

    reported: (vertex index tuple, dim) for every face, the polytope
    itself included.  Returns the reference lattice of proper faces.
    """
    ref = incidence_lattice(vertices, facets)
    fv = f_vector_of(ref, dim)
    check_euler(fv)
    require(fv[0] == len(vertices), "vertices are not the 0-faces")
    require(fv[dim - 1] == len(facets), "facets are not the (d-1)-faces")
    top = frozenset(range(len(vertices)))
    got = {}
    for idxs, d in reported:
        got[frozenset(idxs)] = d
    require(got.pop(top, None) == dim, "the polytope itself is missing or misdimensioned")
    require(got == ref, "face lattice differs from the vertex-facet incidence lattice")
    return ref


def polar_tight(polar_vertices, face_points) -> frozenset:
    return frozenset(j for j, w in enumerate(polar_vertices)
                     if all(dot(w, x) == -1 for x in face_points))


def check_polar(ball_vertices, ball_facets, polar_vertices, polar_facets) -> None:
    """Vertices of the polar are the facet normals of the ball and back."""
    require(sorted(polar_vertices) == sorted(f for f, _ in ball_facets),
            "polar vertices are not the ball's facet functionals")
    require(sorted(f for f, _ in polar_facets) == sorted(ball_vertices),
            "polar facets are not the ball's vertices")
    for w in polar_vertices:
        for x in ball_vertices:
            require(dot(w, x) >= -1, "polar vertex outside the polar")


def check_face_pairing(ball_lattice: dict, ball_vertices, polar_vertices,
                       polar_lattice: dict, dim: int) -> None:
    """dim F + dim F* = d - 1 for every proper face F."""
    tight = [polar_tight(polar_vertices, [x]) for x in ball_vertices]
    for s, d in ball_lattice.items():
        dual = frozenset.intersection(*(tight[i] for i in s))
        require(dual in polar_lattice, f"dual of face {sorted(s)} is not a face")
        require(polar_lattice[dual] == dim - 1 - d,
                f"face {sorted(s)} and its dual have dims {d}, {polar_lattice[dual]}")


# ---------------------------------------------------------------------------
# root systems, written out from the standard realisations


def simple_roots(family: str, rank_: int) -> list:
    def unit(n, i):
        return tuple(Fraction(int(j == i)) for j in range(n))

    def diff(n, i, j):
        return tuple(a - b for a, b in zip(unit(n, i), unit(n, j)))

    if family == "A":
        n = rank_ + 1
        return [diff(n, i, i + 1) for i in range(rank_)]
    n = rank_
    roots = [diff(n, i, i + 1) for i in range(rank_ - 1)]
    if family == "B":
        roots.append(unit(n, n - 1))
    elif family == "C":
        roots.append(tuple(2 * x for x in unit(n, n - 1)))
    else:
        roots.append(tuple(a + b for a, b in zip(unit(n, n - 2), unit(n, n - 1))))
    return roots


def named_weight(family: str, rank_: int, name: str) -> tuple:
    """Dominant weights in ambient coordinates, from their definitions."""
    n = rank_ + 1 if family == "A" else rank_
    e = [tuple(Fraction(int(j == i)) for j in range(n)) for i in range(n)]
    if name == "standard":
        return e[0]
    if name == "dual-standard":
        return tuple(-x for x in e[n - 1]) if family == "A" else e[0]
    if name == "adjoint":
        if family == "A":
            return tuple(a - b for a, b in zip(e[0], e[n - 1]))
        if family == "C":
            return tuple(2 * x for x in e[0])
        return tuple(a + b for a, b in zip(e[0], e[1]))
    if name == "regular":
        w = (ZERO,) * n
        for k in range(1, rank_ + 1):
            w = tuple(a + b for a, b in zip(w, named_weight(family, rank_, f"fundamental:{k}")))
        return w
    k = int(name.split(":")[1])
    ones = tuple(Fraction(int(i < k)) for i in range(n))
    if family == "B" and k == rank_:
        return tuple(x / 2 for x in ones)
    if family == "D" and k >= rank_ - 1:
        half = [Fraction(1, 2)] * n
        if k == rank_ - 1:
            half[-1] = Fraction(-1, 2)
        return tuple(half)
    return ones


def reflection_orbit(roots, weight) -> set:
    """Orbit of a weight under the group generated by the simple reflections."""
    seen = {tuple(weight)}
    frontier = [tuple(weight)]
    while frontier:
        fresh = []
        for v in frontier:
            for a in roots:
                t = 2 * dot(v, a) / dot(a, a)
                w = tuple(x - t * y for x, y in zip(v, a))
                if w not in seen:
                    seen.add(w)
                    fresh.append(w)
        frontier = fresh
    return seen


def weight_chart(family: str, v) -> tuple:
    """Family A functionals modulo constants: consecutive differences."""
    if family != "A":
        return tuple(v)
    return tuple(v[i] - v[i + 1] for i in range(len(v) - 1))


def check_orbit_hull(family: str, rank_: int, weight_names, scale, hull_vertices) -> None:
    roots = simple_roots(family, rank_)
    expected = set()
    for name in weight_names:
        for v in reflection_orbit(roots, named_weight(family, rank_, name)):
            expected.add(tuple(scale * x for x in weight_chart(family, v)))
    if len(weight_names) == 1:
        # a single orbit is cospherical, so every orbit point is a vertex
        require(set(hull_vertices) == expected,
                "hull vertices differ from the reflection orbit of the weight")
    else:
        require(set(hull_vertices) <= expected, "a hull vertex is not an orbit point")


def is_regular(family: str, rank_: int, weight_names) -> bool:
    roots = simple_roots(family, rank_)
    return all(all(dot(named_weight(family, rank_, n), a) != 0 for a in roots)
               for n in weight_names)


def check_report(report: dict, family: str, rank_: int, weight_names, scale) -> None:
    """A classification report: orbit vertices, Euler, polar f-vectors."""
    hull_fv = tuple(report["hull_f_vector"])
    ball_fv = tuple(report["ball_f_vector"])
    verts = [fvec(v) for v in report["vertices"]]
    check_orbit_hull(family, rank_, weight_names, scale, verts)
    check_euler(hull_fv)
    check_euler(ball_fv)
    require(hull_fv[0] == len(verts), "report f-vector disagrees with its vertices")
    require(hull_fv[-2] == report["facet_count"], "report f-vector disagrees with facet count")
    require(ball_fv[:-1] == hull_fv[:-1][::-1], "ball f-vector is not the hull's reversed")
    require(report["regular"] == is_regular(family, rank_, weight_names),
            "regularity flag disagrees with the weights' simple-root pairings")


# ---------------------------------------------------------------------------
# norms and boundary functions


def ref_gauge(ball_facets, v) -> Fraction:
    """min{t >= 0 : v in tB} = max(0, max over facets of -<f|v>)."""
    return max([ZERO] + [-dot(f, v) for f, _ in ball_facets])


def ref_pseudo_norm(points, p) -> Fraction:
    return -min(dot(q, p) for q in points)


def argmin_face(dual_vertices, u) -> list:
    values = [dot(w, u) for w in dual_vertices]
    low = min(values)
    return [i for i, x in enumerate(values) if x == low]


def check_ray_limit(ball_vertices, ball_facets, dual_vertices, q, u, face,
                    basepoint, samples, far=10 ** 8) -> None:
    """The limit of q + t*u is the argmin face with a canonical basepoint,
    and h(y) = |p - y|_E - |p|_E matches psi far along the ray."""
    require(list(face) == argmin_face(dual_vertices, u),
            "limit face is not the argmin set of <.|u> over the dual vertices")
    E = [dual_vertices[i] for i in face]
    span = [x for x in ball_vertices if all(dot(w, x) == -1 for w in E)]
    require(all(dot(basepoint, x) == 0 for x in span),
            "basepoint is not orthogonal to the dual face of the limit face")
    diff = tuple(a - b for a, b in zip(q, basepoint))
    require(rank(span + [diff]) == rank(span),
            "basepoint is not q moved within the span of the dual face")
    z = tuple(a + far * b for a, b in zip(q, u))
    gz = ref_gauge(ball_facets, z)
    for y in samples:
        h = (ref_pseudo_norm(E, tuple(a - b for a, b in zip(basepoint, y)))
             - ref_pseudo_norm(E, basepoint))
        psi = ref_gauge(ball_facets, tuple(a - b for a, b in zip(z, y))) - gz
        require(abs(h - psi) <= Fraction(1, 10 ** 6),
                f"boundary function and far psi differ at {y}")


def check_horo_values(evaluated, psis, gauges, pseudo, reference, tol=Fraction(1, 10 ** 6)) -> None:
    """Program values: evaluate ~ psi far out, gauge == pseudo_norm == ref."""
    for e, p in zip(evaluated, psis, strict=True):
        require(abs(e - p) <= tol, "evaluate(h, y) and far psi differ")
    for g, s, r in zip(gauges, pseudo, reference, strict=True):
        require(g == s == r, "gauge, dual pseudo-norm and reference gauge differ")


def check_strata(strata, dual_lattice: dict) -> None:
    """Strata are the proper faces of the dual ball with their dimensions."""
    got = {frozenset(face): d for face, d in strata}
    require(len(got) == len(strata), "duplicate strata")
    require(got == dual_lattice, "strata differ from the dual ball's proper faces")


# ---------------------------------------------------------------------------
# command line documents


def polytope_doc(doc) -> tuple:
    """(vertices, facets) from a polytope JSON document; facets at -1."""
    verts = [fvec(v) for v in doc["vertices"]]
    facets = [(fvec(f), Fraction(-1)) for f in doc.get("facets", [])]
    return verts, facets


def check_svg(text: str, vertex_count: int) -> None:
    root = ET.fromstring(text)
    ns = "{http://www.w3.org/2000/svg}"
    paths = root.findall(f".//{ns}path")
    require(len(paths) == 1, "the SVG should draw exactly one polygon")
    d = paths[0].get("d", "").split()
    corners = sum(1 for tok in d if tok in ("M", "L"))
    require(d[-1:] == ["Z"], "the polygon path is not closed")
    require(corners == vertex_count, f"polygon has {corners} corners, hull has {vertex_count}")


def check_off(text: str, fv) -> None:
    lines = text.strip().splitlines()
    require(lines[0] == "OFF", "missing OFF header")
    nv, nf, ne = (int(x) for x in lines[1].split())
    require((nv, ne, nf) == tuple(fv[:3]), f"OFF counts {(nv, nf, ne)} differ from f-vector {fv}")
    require(len(lines) == 2 + nv + nf, "OFF body length differs from its header")
    for line in lines[2 + nv:]:
        k, *idx = (int(x) for x in line.split())
        require(k == len(idx) >= 3 and all(0 <= i < nv for i in idx), "bad OFF facet line")


def check_flat_test(doc: dict, n: int) -> None:
    """Every consistency ray converged and every invariance flag holds,
    at the shipped tolerances."""
    require(doc["n"] == n, "flat-test report is for another n")
    for label, rep in doc["consistency"].items():
        require(rep["status"] == "converged", f"ray {label} did not converge")
        require(rep["tolerance"] == 1e-5, "consistency tolerance was changed")
    inv = doc["invariance"]
    require(inv["limit_tol"] == 1e-3 and inv["invariance_tol"] == 1e-9,
            "invariance tolerances were changed")
    for flag in ("basepoint_ok", "equivariance_ok", "limit_ok", "limit_monotone"):
        require(inv[flag] is True, f"invariance flag {flag} is false")


def flat_test_failure(doc: dict) -> str | None:
    """Name the known fault when a flat-test report fails only on it.

    The default invariance ray keeps a spread of 1/50 for every n, so at
    n = 4 the limit defect at the end of the schedule stays above
    limit_tol while every other verdict holds.
    """
    inv = doc.get("invariance", {})
    rays_ok = all(r.get("status") == "converged" for r in doc.get("consistency", {}).values())
    if (rays_ok and inv.get("basepoint_ok") and inv.get("equivariance_ok")
            and inv.get("limit_ok") is False and inv.get("limit_tol") == 1e-3
            and inv["limit_defects"][-1][1] > inv["limit_tol"]):
        return "invariance limit defect above limit_tol (default ray spread 1/50 at every n)"
    return None
