"""Shared helpers for the geometry test suite.

Random rational data is produced from seeded random.Random instances so
every run sees the same cases.  oracle_hull is a subset-scan hull for
the double-description convex_hull to be checked against: it takes an
affine span and then a nullspace per m-point candidate, and finds vertices by a rank test on the facet
normals through each point.  oracle_vertex_enumeration goes the other
way, from halfspaces to vertices, for polar duals to be checked against.
matrix_orbit and wall_signature are the Fraction matrix and barycenter
forms of the Weyl orbit and of the wall signature of a face, and
reflection_matrix is the reflection in a root by its textbook formula.
oracle_same_compactification is the equivalence search over whole face
lattices, with a face-level group action and an inclusion table, for the
vertex-level search of satake to be checked against.  nullspace is the
Fraction kernel basis that the subset-scan oracle takes its normals from.
oracle_flat_gauge, oracle_finsler_gauge and oracle_psi_flat read flat
vectors through the Fraction chart (centre to trace zero, partial sums)
and the chart gauge, for the integer gauge rows of flatspace to be checked
against.  oracle_cartan_projection checks and projects one pair of
matrices at a time, and oracle_invariance_suite and
oracle_flat_limit_consistency measure their reports pair by pair through
it, for the stacked matrix route of flatspace to be checked against.
validate_spd and psi, the one-point check and the matrix normalized
distance, back no verb and live here on flatspace's stacked route.
rref, solve_system and span_basis are the Fraction Gauss-Jordan
elimination that the oracles above rest on, and oracle_project_onto_span
projects through it, for the integer Gram solve of
_linalg.project_onto_span and span_coefficients to be checked against.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import accumulate, combinations

import numpy as np

from horopoly import flatspace as fl
from horopoly.errors import (DimensionMismatch, EmptyInput, InputError,
                             PreconditionError)
from horopoly.horoboundary import evaluate, psi as chart_psi
from horopoly.norm import gauge
from horopoly.polytope import (
    Halfspace,
    Polytope,
    _hull_2d,
    convex_hull,
    face_lattice,
)
from horopoly.rootsys import signed_permute, weight_ambient, weyl_group
from horopoly.satake import _ambient_integers, _root_pairings, _wall_signature
from horopoly._linalg import (
    ONE,
    ZERO,
    frac,
    is_zero_vec,
    mat_vec,
    vadd,
    vdot,
    vec,
    vscale,
    vsub,
    vzero,
)


# ---------------------------------------------------------------------------
# Fraction elimination


def transpose(M):
    return tuple(zip(*M, strict=True))


def rref(rows):
    """Reduced row echelon form of a list of equal-length rows.

    Returns (echelon_rows, pivot_columns).  Zero rows are dropped.
    """
    m = [list(vec(r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


def solve_system(A, b):
    """Some solution of A x = b (free variables set to zero), or None.

    For a nonsingular square A this is the unique solution.
    """
    if not A:
        return None
    ncols = len(A[0])
    aug = [list(vec(row)) + [frac(bi)] for row, bi in zip(A, b, strict=True)]
    rows, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for row, c in zip(rows, pivots):
        x[c] = row[-1]
    return tuple(x)


def span_basis(vectors):
    """Basis of the linear span of the given vectors (echelon form rows)."""
    vectors = [v for v in vectors if not is_zero_vec(v)]
    if not vectors:
        return []
    rows, _ = rref(vectors)
    return [tuple(r) for r in rows]


def oracle_project_onto_span(vectors, v):
    """Orthogonal projection of v onto span(vectors), standard inner product."""
    basis = span_basis(vectors)
    if not basis:
        return vzero(len(v))
    gram = [[vdot(bi, bj) for bj in basis] for bi in basis]
    rhs = [vdot(bi, v) for bi in basis]
    coeffs = solve_system(gram, rhs)
    out = vzero(len(v))
    for c, bi in zip(coeffs, basis):
        out = vadd(out, vscale(bi, c))
    return out


def rand_fraction(rng: random.Random, num: int = 12, den: int = 6) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_vector(rng: random.Random, dim: int, num: int = 12, den: int = 6) -> tuple:
    return tuple(rand_fraction(rng, num, den) for _ in range(dim))


def rand_nonzero_vector(rng: random.Random, dim: int, num: int = 12, den: int = 6) -> tuple:
    while True:
        v = rand_vector(rng, dim, num, den)
        if any(x != 0 for x in v):
            return v


def relative_interior_point(obj) -> tuple:
    """Vertex barycenter, a canonical relative interior point."""
    verts = obj.vertices
    if not verts:
        raise EmptyInput("no vertices")
    n = Fraction(len(verts))
    out = vzero(len(verts[0]))
    for v in verts:
        out = tuple(a + b / n for a, b in zip(out, v))
    return out


def wall_signature(rs, chart_point) -> tuple:
    """Sign pattern of a weight-chart point against every positive root's
    wall, by Fraction dot products."""
    ambient = weight_ambient(rs, chart_point)
    return tuple((t > 0) - (t < 0)
                 for t in (vdot(ambient, a) for a in rs.positive_roots))


def matrix_orbit(group, v) -> tuple:
    """The orbit of v under every element matrix, deduplicated and sorted."""
    v = vec(v)
    return tuple(sorted({mat_vec(m, v) for m in group.elements}))


def reflection_matrix(root) -> tuple:
    """The orthogonal reflection fixing the root's kernel hyperplane."""
    root = vec(root)
    n = len(root)
    norm2 = vdot(root, root)
    if norm2 == 0:
        raise InputError("cannot reflect in the zero vector")
    return tuple(tuple((ONE if i == j else ZERO) - 2 * root[i] * root[j] / norm2
                       for j in range(n))
                 for i in range(n))


def nullspace(rows, ambient_dim: int | None = None):
    """Basis of {x : <row|x> = 0 for every row}.

    ambient_dim is required when rows is empty.
    """
    rows = list(rows)
    if not rows:
        if ambient_dim is None:
            raise ValueError("ambient_dim required for an empty row list")
        return [tuple(ONE if i == j else ZERO for j in range(ambient_dim))
                for i in range(ambient_dim)]
    ncols = len(rows[0])
    ech, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [ZERO] * ncols
        x[f] = ONE
        for row, c in zip(ech, pivots):
            x[c] = -row[f]
        basis.append(tuple(x))
    return basis


def rand_ball(rng: random.Random, dim: int, count: int) -> Polytope:
    """A random full-dimensional polytope with 0 strictly interior.

    Hull of random rational points, recentred at the vertex barycenter.
    """
    while True:
        pts = [rand_vector(rng, dim) for _ in range(count)]
        hull = convex_hull(pts)
        if hull.affine_dim != dim:
            continue
        c = relative_interior_point(hull)
        recentred = convex_hull([vsub(v, c) for v in hull.vertices])
        if recentred.has_origin_interior():
            return recentred


def mat_mul(A, B) -> tuple:
    """Matrix product; integer matrices stay integer and compare equal to
    their Fraction forms."""
    cols = transpose(B)
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                 for row in A)


def identity_matrix(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def on_facet(h: Halfspace, x) -> bool:
    """Whether x lies on the boundary hyperplane of h."""
    return vdot(h.functional, x) == h.offset


def affine_span(points):
    """(origin, basis of the direction space) for a nonempty point list."""
    pts = list(points)
    origin = vec(pts[0])
    return origin, span_basis([vsub(vec(p), origin) for p in pts[1:]])


def rank(vectors) -> int:
    vectors = list(vectors)
    if not vectors:
        return 0
    return len(rref(vectors)[1])


def coords_in_basis(basis, v):
    """Coefficients c with sum(c_i * basis_i) = v, or None when v is outside."""
    if not basis:
        return () if is_zero_vec(v) else None
    cols = transpose(basis)
    return solve_system(cols, v)


def _hyperplane_through(points):
    """(normal, value) of the hyperplane through the points, or None."""
    origin, basis = affine_span(points)
    if len(basis) != len(origin) - 1:
        return None
    normal = nullspace(basis)[0]
    return normal, vdot(normal, origin)


def _hull_full(pts, m):
    """Facets and vertices of a full-dimensional hull via subset enumeration."""
    if m == 1:
        lo, hi = pts[0], pts[-1]
        facets = [Halfspace.normalized((ONE,), lo[0]),
                  Halfspace.normalized((-ONE,), -hi[0])]
        return [lo, hi], facets
    if m == 2:
        return _hull_2d(pts)

    facets = {}
    for comb in combinations(pts, m):
        hp = _hyperplane_through(comb)
        if hp is None:
            continue
        normal, value = hp
        above = below = False
        for p in pts:
            s = vdot(normal, p) - value
            if s > 0:
                above = True
            elif s < 0:
                below = True
            if above and below:
                break
        if above and below:
            continue
        if above:
            hs = Halfspace.normalized(normal, value)
        else:
            hs = Halfspace.normalized(tuple(-x for x in normal), -value)
        facets[hs] = None

    facet_list = list(facets)
    verts = []
    for p in pts:
        active = [h.functional for h in facet_list if on_facet(h, p)]
        if len(active) >= m and rank(active) == m:
            verts.append(p)
    return verts, facet_list


def oracle_hull(points) -> Polytope:
    """The subset-scan hull of distinct full-dimensional points."""
    pts = sorted(set(points))
    m = len(pts[0])
    verts, facets = _hull_full(pts, m)
    return Polytope(tuple(sorted(verts)), tuple(sorted(facets)), m, m)


def oracle_vertex_enumeration(halfspaces) -> Polytope:
    """Hull of the feasible vertices of a bounded halfspace intersection.

    Each m-subset of halfspaces with independent functionals meets in one
    point; the feasible ones are the candidates.
    """
    hs = list(halfspaces)
    m = len(hs[0].functional)
    candidates = set()
    for comb in combinations(hs, m):
        rows = [h.functional for h in comb]
        if rank(rows) < m:
            continue
        x = solve_system(rows, [h.offset for h in comb])
        if all(h.contains(x) for h in hs):
            candidates.add(x)
    return convex_hull(candidates)


class _FaceLatticeProfile:
    """Face lattice of a hull with its face-level group action, exact
    invariants and full inclusion table."""

    def __init__(self, rs, hull):
        faces = face_lattice(hull)
        self.sets = [frozenset(f.vertex_indices) for f in faces]
        index_of = {s: i for i, s in enumerate(self.sets)}
        ints = _ambient_integers(rs, hull.vertices)
        vpos = {u: i for i, u in enumerate(ints)}
        self.action = []  # one face permutation per simple reflection
        for g in weyl_group(rs).signed_generators:
            perm = tuple(vpos[signed_permute(g, u)] for u in ints)
            self.action.append(tuple(index_of[frozenset(perm[i] for i in s)]
                                     for s in self.sets))
        pairings = _root_pairings(rs, ints)
        self.keys = [(face.dim, _wall_signature(pairings, face.vertex_indices))
                     for face in faces]
        self.incl = [[a <= b for b in self.sets] for a in self.sets]


def oracle_same_compactification(spec1, spec2) -> bool:
    """Equivalence by exhaustive search over face-lattice bijections that
    keep each face's (dim, wall signature), preserve inclusion both ways
    and commute with the simple reflections."""
    rs = spec1.root_system
    p1 = _FaceLatticeProfile(rs, spec1.hull)
    p2 = _FaceLatticeProfile(rs, spec2.hull)
    n = len(p1.sets)
    if n != len(p2.sets) or sorted(p1.keys) != sorted(p2.keys):
        return False
    candidates = [[g for g in range(n) if p2.keys[g] == p1.keys[f]]
                  for f in range(n)]
    assign = [None] * n
    taken = [False] * n

    def place(f, g, log):
        stack = [(f, g)]
        while stack:
            a, b = stack.pop()
            if assign[a] is not None:
                if assign[a] != b:
                    return False
                continue
            if taken[b] or p1.keys[a] != p2.keys[b]:
                return False
            for c in range(n):
                if assign[c] is not None:
                    if (p1.incl[a][c] != p2.incl[b][assign[c]]
                            or p1.incl[c][a] != p2.incl[assign[c]][b]):
                        return False
            assign[a] = b
            taken[b] = True
            log.append(a)
            for act1, act2 in zip(p1.action, p2.action):
                stack.append((act1[a], act2[b]))
        return True

    def search():
        try:
            f = assign.index(None)
        except ValueError:
            return True
        for g in candidates[f]:
            if taken[g]:
                continue
            log = []
            if place(f, g, log) and search():
                return True
            for a in log:
                taken[assign[a]] = False
                assign[a] = None
        return False

    return search()


def validate_spd(matrix) -> np.ndarray:
    """Check one point of the space and return it as a float array: the
    checks of a flatspace stack, then a condition number at most 1e12,
    which alone raises PreconditionError."""
    M, cond = fl._points([matrix])
    if cond[0] > fl._COND_LIMIT:
        raise PreconditionError("point condition number exceeds 1e12")
    return M[0]


def psi(fs, z, x) -> float:
    """Distance to z, normalized to vanish at the identity basepoint."""
    return fl.finsler_distance(fs, x, z) - fl.finsler_distance(fs, fl.basepoint(fs), z)


def oracle_flat_chart(fs, H) -> tuple:
    """Chart coordinates of a flat vector of the flat space fs, in Fraction
    arithmetic: centred to trace zero, then partial sums."""
    vals = vec(H)
    mean = sum(vals, start=ZERO) / fs.n
    return tuple(accumulate(x - mean for x in vals))[: fs.n - 1]


def oracle_flat_gauge(fs, H) -> Fraction:
    return gauge(fs.norm, oracle_flat_chart(fs, H))


def oracle_finsler_gauge(fs, H) -> float:
    """The distance finsler_distance reports for the relative spectrum H."""
    return float(oracle_flat_gauge(fs, H))


def oracle_psi_flat(fs, Hz, Hx) -> Fraction:
    return chart_psi(fs.norm, oracle_flat_chart(fs, Hz), oracle_flat_chart(fs, Hx))


def _oracle_point(matrix) -> tuple:
    """One point's checks, without the condition guard: (array, cond)."""
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError("expected a square matrix")
    n = M.shape[0]
    if not 2 <= n <= 4:
        raise InputError("matrix size must be 2, 3, or 4")
    if not np.all(np.isfinite(M)):
        raise InputError("matrix entries must be finite")
    if float(np.max(np.abs(M - M.T))) > fl._SYMMETRY_TOL:
        raise InputError("matrix is not symmetric")
    vals = np.linalg.eigvalsh(M)
    if float(vals[0]) <= 0.0:
        raise InputError("matrix is not positive definite")
    if abs(float(np.prod(vals)) - 1.0) > fl._DET_TOL:
        raise InputError("matrix determinant must equal 1")
    return M, float(vals[-1] / vals[0])


def oracle_cartan_projection(P, Q) -> tuple:
    """The relative log spectrum of Q seen from P, one pair of 2-d arrays."""
    P, cond_p = _oracle_point(P)
    Q, cond_q = _oracle_point(Q)
    if P.shape != Q.shape:
        raise DimensionMismatch("points have different matrix sizes")
    if max(cond_p, cond_q) > fl._COND_LIMIT:
        raise PreconditionError("point condition number exceeds 1e12")
    L = np.linalg.cholesky(P)
    vals = np.linalg.eigvalsh(np.linalg.solve(L, np.linalg.solve(L, Q).T))
    logs = np.log(vals)[::-1]
    logs = logs - logs.mean()
    return tuple(float(x) for x in logs)


def oracle_finsler_distance(fs, P, Q) -> float:
    return oracle_finsler_gauge(fs, oracle_cartan_projection(P, Q))


def oracle_matrix_psi(fs, z, x) -> float:
    return (oracle_finsler_distance(fs, x, z)
            - oracle_finsler_distance(fs, np.eye(fs.n), z))


def oracle_flat_limit_consistency(fs, start, direction, test_points,
                                  t_max: float = 1e4, tol: float = 1e-5):
    """flat_limit_consistency with one matrix pair per normalized distance."""
    start, direction = vec(start), vec(direction)
    ray_type = fl.sequence_type_of_ray(fs.root_system, start, direction)
    pts = [vec(p) for p in test_points]
    h = fl.flat_limit(fs, start, direction)
    targets = [evaluate(h, fl.flat_chart(fs, p)) for p in pts]
    points_conditioned = all(fl._spread(fs, p) < fl._SPREAD_GUARD for p in pts)
    rows, matrix_reach = [], 0.0
    for k in range(4, -1, -1):
        t = t_max * 10.0 ** (-k)
        Hz = vadd(start, vscale(direction, Fraction(t)))
        defect = max(abs(float(fl.psi_flat(fs, Hz, p) - targets[j]))
                     for j, p in enumerate(pts))
        if points_conditioned and fl._spread(fs, Hz) < fl._SPREAD_GUARD:
            z = fl.exp_flat(Hz)
            for j, p in enumerate(pts):
                defect = max(defect, abs(oracle_matrix_psi(fs, z, fl.exp_flat(p))
                                         - float(targets[j])))
            matrix_reach = t
        rows.append((t, defect))
    last = rows[-1][1]
    status = ("converged" if last <= tol
              else "inconclusive" if last < max(d for _, d in rows[:-1])
              else "failed")
    return fl.FlatLimitReport(status=status, defects=tuple(rows), tolerance=tol,
                              t_max=t_max, ray_type=ray_type,
                              matrix_route_max_t=matrix_reach)


def oracle_invariance_suite(fs, cfg):
    """invariance_suite drawing and measuring one sample at a time."""
    n = fs.n
    direction = (vec(cfg.ray_direction) if cfg.ray_direction is not None
                 else fl._default_ray_direction(n))
    ray_type = fl.sequence_type_of_ray(fs.root_system, vzero(n), direction)
    rng = np.random.default_rng(cfg.seed)
    eye = np.eye(n)
    d = partial(oracle_finsler_distance, fs)

    base_defect = 0.0
    for _ in range(cfg.samples):
        x = fl.sample_spd(rng, n)
        k = fl.sample_rotation(rng, n)
        base_defect = max(base_defect, abs(d(fl.act(k, x), eye) - d(x, eye)))

    equi_defect = 0.0
    for _ in range(cfg.samples):
        z = fl.sample_spd(rng, n)
        x = fl.sample_spd(rng, n)
        k = fl.sample_rotation(rng, n)
        lhs = oracle_matrix_psi(fs, fl.act(k, z), x)
        rhs = oracle_matrix_psi(fs, z, fl.act(k.T, x))
        equi_defect = max(equi_defect, abs(lhs - rhs))

    points = [fl.sample_spd(rng, n) for _ in range(cfg.point_samples)]
    movers = ([fl.sample_block_rotation(rng, n, ray_type.indices)
               for _ in range(cfg.group_samples)]
              + [fl.sample_block_unipotent(rng, n, ray_type.indices)
                 for _ in range(cfg.group_samples)])
    rows = []
    for t in fl._T_SCHEDULE:
        z = fl.exp_flat(vscale(direction, Fraction(t)))
        defect = 0.0
        for x in points:
            here = d(x, z)
            for g in movers:
                defect = max(defect, abs(d(fl.act(g, x), z) - here))
        rows.append((t, defect))

    monotone = all(rows[k + 1][1] <= rows[k][1] + fl._NOISE_BAND
                   for k in range(len(rows) - 1))
    return fl.InvarianceReport(
        basepoint_defect=base_defect,
        equivariance_defect=equi_defect,
        limit_defects=tuple(rows),
        basepoint_ok=base_defect <= cfg.invariance_tol,
        equivariance_ok=equi_defect <= cfg.invariance_tol,
        limit_ok=rows[-1][1] <= fl._LIMIT_TOL,
        limit_monotone=monotone,
        ray_type=ray_type,
        invariance_tol=cfg.invariance_tol,
        limit_tol=fl._LIMIT_TOL,
        noise_band=fl._NOISE_BAND,
    )
