"""Unit-determinant positive matrices with a polyhedral spectral metric.

Points are symmetric positive definite n x n matrices of determinant one,
n <= 4.  The relative position of two points is the descending-sorted
logarithmic spectrum of one against the other, a trace-zero vector; any
permutation-invariant polyhedral gauge on that spectrum induces a distance
invariant under congruence by special orthogonal matrices.

The diagonal points form a flat on which the distance restricts to the
exact vector-space gauge, so normalized distance functions along diagonal
rays converge to the boundary functions the horoboundary module computes
exactly.  This module is the floating-point end of the package; the flat
keeps a parallel exact code path used to follow rays far beyond where
matrix exponentials stay well conditioned.

The chart is linear, n*chart(H) = A*H with the integer matrix
A_kj = n*[j <= k] - (k + 1), so with L the lcm of the ball's facet
denominators each facet functional u gives the integer gauge row
-(L*u)*A, and the gauge of H = X/d (X integers, d > 0) is
max(0, max over rows of <row|X>) / (n*L*d), exactly.  Every gauge on the
flat is one integer dot product per facet on these rows.

Points are handled in stacks.  The checks and the Cartan projection run
on (k, n, n) arrays through numpy's stacked linear algebra: one
eigvalsh per stack for the checks, then one cholesky, two solves and one
eigvalsh for the spectra.  The reports measure each sample set as one
stack, and the one-pair functions are stacks of one.  A stacked call runs
the same LAPACK routine on each matrix as a call on that matrix alone,
so every spectrum, distance and report has the floats of the pair by
pair route, which the tests keep as their oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import mul

import numpy as np

from ._linalg import frac, project_onto_span, vadd, vdot, vec, vscale, vzero
from .errors import DimensionMismatch, InputError, PreconditionError
from .horoboundary import Horofunction, evaluate, limit_of_ray
from .norm import PolyhedralNorm, polyhedral_norm
from .rootsys import RootSystem, build, point_ambient

_COND_LIMIT = 1e12
_SYMMETRY_TOL = 1e-12
_DET_TOL = 1e-9
_SAMPLE_COND = 1e4
_SPREAD_GUARD = math.log(_COND_LIMIT / 10.0)  # log spread a decade inside


def _points(stack) -> tuple:
    """Check a (k, n, n) stack of points of the space, except conditioning.

    Accepts anything numpy can coerce to such a stack; enforces size 2..4
    and symmetry to 1e-12, then reads off one eigvalsh a positive spectrum
    and a determinant (the eigenvalue product) within 1e-9 of one.
    Returns the stack as a float array and the per-point condition numbers.
    """
    M = np.asarray(stack, dtype=float)
    if M.ndim != 3 or M.shape[1] != M.shape[2]:
        raise InputError("expected a square matrix")
    if not 2 <= M.shape[1] <= 4:
        raise InputError("matrix size must be 2, 3, or 4")
    if not np.all(np.isfinite(M)):
        raise InputError("matrix entries must be finite")
    if float(np.max(np.abs(M - M.swapaxes(-1, -2)))) > _SYMMETRY_TOL:
        raise InputError("matrix is not symmetric")
    vals = np.linalg.eigvalsh(M)
    if float(np.min(vals[:, 0])) <= 0.0:
        raise InputError("matrix is not positive definite")
    if float(np.max(np.abs(np.prod(vals, axis=-1) - 1.0))) > _DET_TOL:
        raise InputError("matrix determinant must equal 1")
    return M, vals[:, -1] / vals[:, 0]


@dataclass(frozen=True)
class FlatSpace:
    """Matrix size n, the rank n-1 chart root data, and the gauge norm."""

    n: int
    root_system: RootSystem
    norm: PolyhedralNorm

    @cached_property
    def _gauge_rows(self) -> tuple:
        """(rows, s): per ball facet u the integer row -(L*u)*A, and s = n*L.
        The ball's primitive facet row is (a, c) with u = a/c, so L = lcm c."""
        n = self.n
        facet_rows = self.norm.ball._facet_rows
        L = math.lcm(*(r[-1] for r in facet_rows))
        rows = []
        for *a, c in facet_rows:
            U = [x * (L // c) for x in a]
            rows.append(tuple(-sum(U[k] * (n * (j <= k) - k - 1) for k in range(n - 1))
                              for j in range(n)))
        return tuple(rows), n * L


def flat_space(n, ball) -> FlatSpace:
    """Bundle a matrix size with a permutation-invariant unit ball.

    The ball (a Polytope or a PolyhedralNorm) lives in the n-1 dimensional
    chart of the trace-zero diagonal subspace; invariance under the full
    coordinate-permutation action is checked here, once, as closure of the
    vertices' ambient coordinates under the adjacent transpositions.
    """
    if not isinstance(n, int) or isinstance(n, bool) or not 2 <= n <= 4:
        raise InputError("matrix size must be 2, 3, or 4")
    norm = ball if isinstance(ball, PolyhedralNorm) else polyhedral_norm(ball)
    if norm.dim != n - 1:
        raise DimensionMismatch("the ball must have dimension n - 1")
    rs = build("A", n - 1)
    # adjacent transpositions of the ambient coordinates generate the group
    ambient = {point_ambient(rs, v) for v in norm.ball.vertices}
    if any({p[:i] + (p[i + 1], p[i]) + p[i + 2:] for p in ambient} != ambient
           for i in range(n - 1)):
        raise PreconditionError(
            "the unit ball must be invariant under the coordinate permutations")
    return FlatSpace(n, rs, norm)


def basepoint(fs: FlatSpace) -> np.ndarray:
    return np.eye(fs.n)


def flat_chart(fs: FlatSpace, H) -> tuple:
    """Exact chart coordinates of a diagonal-subspace vector.

    The input is centered to trace zero first (exact rational arithmetic),
    which makes the chart insensitive to the roundoff-sized trace that
    floating inputs carry.
    """
    vals = vec(H)
    if len(vals) != fs.n:
        raise DimensionMismatch("expected one entry per diagonal slot")
    mean = sum(vals, start=Fraction(0)) / fs.n
    centered = tuple(x - mean for x in vals)
    return tuple(accumulate(centered))[: fs.n - 1]


def _integer_point(fs: FlatSpace, H) -> tuple:
    """(X, d): integers X and one denominator d > 0 with H = X/d exactly.

    Floats give their exact binary value, so d is a power of two for them.
    """
    ratios = [x.as_integer_ratio() if isinstance(x, float)
              else frac(x).as_integer_ratio() for x in H]
    if len(ratios) != fs.n:
        raise DimensionMismatch("expected one entry per diagonal slot")
    d = math.lcm(*(q for _, q in ratios))
    return [p * (d // q) for p, q in ratios], d


def _gauge_ratio(fs: FlatSpace, X, d) -> tuple:
    """(a, b): integers whose ratio a/b is the gauge of the flat vector X/d."""
    rows, s = fs._gauge_rows
    return max(0, max(sum(map(mul, row, X)) for row in rows)), s * d


def flat_gauge(fs: FlatSpace, H) -> Fraction:
    """Exact gauge of a flat vector: the chart gauge, on integer rows."""
    return Fraction(*_gauge_ratio(fs, *_integer_point(fs, H)))


def exp_flat(H) -> np.ndarray:
    """Diagonal point of the flat with the given logarithmic spectrum."""
    vals = np.asarray([float(x) for x in H], dtype=float)
    vals = vals - vals.mean()
    return np.diag(np.exp(vals))


def _spectra(P, Q) -> np.ndarray:
    """Cartan projections of two (k, n, n) stacks of points, row by row.

    Every input check runs on P, then on Q, then the shapes are compared
    and the condition guard applied; both stacks must have the same shape.
    """
    P, cond_p = _points(P)
    Q, cond_q = _points(Q)
    if P.shape != Q.shape:
        raise DimensionMismatch("points have different matrix sizes")
    if max(np.max(cond_p), np.max(cond_q)) > _COND_LIMIT:
        raise PreconditionError("point condition number exceeds 1e12")
    L = np.linalg.cholesky(P)
    vals = np.linalg.eigvalsh(np.linalg.solve(L, np.linalg.solve(L, Q).swapaxes(-1, -2)))
    logs = np.log(vals)[:, ::-1]
    return logs - logs.mean(axis=-1, keepdims=True)


def cartan_projection(P, Q) -> tuple:
    """Descending-sorted logs of the spectrum of Q relative to P.

    Solves the symmetric-definite pencil Q v = t P v by Cholesky
    whitening, P = L L^T, and the spectrum of L^-1 Q L^-T, so the result is
    the sorted logarithmic generalized spectrum, re-centered to trace zero.
    Both points must have condition number at most 1e12.
    """
    return tuple(_spectra([P], [Q])[0].tolist())


def _spectrum_distance(fs: FlatSpace, H) -> float:
    if len(H) != fs.n:
        raise DimensionMismatch("points do not match the space's matrix size")
    a, b = _gauge_ratio(fs, *_integer_point(fs, H))
    return a / b


def _distances(fs: FlatSpace, P, Q) -> list:
    """finsler_distance over two stacks of points, pair by pair."""
    return [_spectrum_distance(fs, H) for H in _spectra(P, Q).tolist()]


def finsler_distance(fs: FlatSpace, P, Q) -> float:
    """Gauge length of the relative position of Q seen from P.

    The spectrum's floats are read as their exact binary values over one
    power-of-two denominator, and the gauge is an integer numerator over
    an integer denominator.  Python's int/int division rounds correctly,
    so the result is the exact gauge of the spectrum rounded once: the
    only floating error is the one already in the spectrum.
    """
    return _spectrum_distance(fs, cartan_projection(P, Q))


def psi_flat(fs: FlatSpace, Hz, Hx) -> Fraction:
    """Exact normalized distance between the flat points at Hz and Hx.

    On diagonal points the matrix metric reduces to the chart gauge, which
    lets rays run to parameter values far beyond the conditioning guard.
    The chart is linear, so this is gauge(Hz - Hx) - gauge(Hz), with the
    difference taken exactly over the product of the two denominators.
    """
    Z, dz = _integer_point(fs, Hz)
    X, dx = _integer_point(fs, Hx)
    diff = [z * dx - x * dz for z, x in zip(Z, X)]
    return (Fraction(*_gauge_ratio(fs, diff, dz * dx))
            - Fraction(*_gauge_ratio(fs, Z, dz)))


def flat_limit(fs: FlatSpace, start, direction) -> Horofunction:
    """Exact boundary function of the diagonal ray start + t*direction."""
    return limit_of_ray(fs.norm, flat_chart(fs, start), flat_chart(fs, direction))


@dataclass(frozen=True)
class SequenceType:
    """Divergence type of a chamber ray.

    indices: positions of the simple roots whose pairing stays bounded.
    limit: the vector in the span of those roots realizing the limiting
    pairings, in exact rationals.
    """

    indices: tuple
    limit: tuple


def sequence_type_of_ray(rs: RootSystem, start, direction) -> SequenceType:
    """Exact type of the affine ray start + t*direction, t -> infinity.

    The ray must eventually enter the closed dominant chamber and must be
    unbounded there; the bounded simple-root pairings are read off the
    direction's zero pairings.  Those pairings keep their values at start
    along the whole ray, so the limit vector, the one vector in the span
    of the corresponding roots with these pairings, is the orthogonal
    projection of start onto that span.
    """
    start = vec(start)
    direction = vec(direction)
    if len(start) != rs.ambient_dim or len(direction) != rs.ambient_dim:
        raise DimensionMismatch("ray data does not live in the ambient space")
    pair_u = [vdot(a, direction) for a in rs.simple_roots]
    pair_h = [vdot(a, start) for a in rs.simple_roots]
    for u, h in zip(pair_u, pair_h):
        if u < 0 or (u == 0 and h < 0):
            raise PreconditionError(
                "the ray must eventually enter the closed dominant chamber")
    if all(u == 0 for u in pair_u):
        raise PreconditionError("bounded ray, no divergence type")
    indices = tuple(i for i, u in enumerate(pair_u) if u == 0)
    limit = project_onto_span([rs.simple_roots[i] for i in indices], start)
    return SequenceType(indices=indices, limit=limit)


@dataclass(frozen=True)
class FlatLimitReport:
    """Agreement of far-ray normalized distances with the exact limit.

    defects holds (t, max defect over the test points) rows in ascending t;
    matrix_route_max_t is the largest scheduled t at which the floating
    matrix metric was also evaluated and folded into the defect (0.0 when
    the exponentials left the conditioning guard immediately).
    """

    status: str
    defects: tuple
    tolerance: float
    t_max: float
    ray_type: SequenceType
    matrix_route_max_t: float


def _spread(fs: FlatSpace, H) -> float:
    vals = [float(x) for x in H]
    mean = sum(vals) / len(vals)
    return max(v - mean for v in vals) - min(v - mean for v in vals)


def flat_limit_consistency(fs: FlatSpace, start, direction, test_points,
                           t_max: float = 1e4, tol: float = 1e-5) -> FlatLimitReport:
    """Track normalized distances along a diagonal chamber ray.

    At a ladder of times up to t_max the normalized distance based at the
    ray point is compared, on the given flat test points, with the exact
    limit boundary function of the ray.  The exact chart route runs at
    every time; the floating matrix route is folded in as long as the
    diagonal exponentials stay inside the conditioning guard.  The verdict
    is converged when the final defect is within tol, inconclusive when it
    is still shrinking at t_max, and failed otherwise.
    """
    t_max = float(t_max)
    tol = float(tol)
    if not (t_max > 0 and math.isfinite(t_max)):
        raise InputError("t_max must be positive and finite")
    if not (tol > 0 and math.isfinite(tol)):
        raise InputError("tol must be positive and finite")
    start = vec(start)
    direction = vec(direction)
    ray_type = sequence_type_of_ray(fs.root_system, start, direction)
    pts = [vec(p) for p in test_points]
    if not pts:
        raise InputError("need at least one flat test point")
    if any(len(p) != fs.n for p in pts):
        raise DimensionMismatch("test points must have one entry per slot")

    h = flat_limit(fs, start, direction)
    targets = [evaluate(h, flat_chart(fs, p)) for p in pts]
    points_conditioned = all(_spread(fs, p) < _SPREAD_GUARD for p in pts)
    # the test points with the basepoint last: psi's two distances per point
    point_mats = ([exp_flat(p) for p in pts] + [basepoint(fs)]
                  if points_conditioned else None)

    rows = []
    matrix_reach = 0.0
    for k in range(4, -1, -1):
        t = t_max * 10.0 ** (-k)
        Hz = vadd(start, vscale(direction, frac(t)))
        defect = max(abs(float(psi_flat(fs, Hz, p) - targets[j]))
                     for j, p in enumerate(pts))
        if points_conditioned and _spread(fs, Hz) < _SPREAD_GUARD:
            z = np.broadcast_to(exp_flat(Hz), (len(point_mats), fs.n, fs.n))
            *dists, base = _distances(fs, point_mats, z)
            for j, d in enumerate(dists):
                defect = max(defect, abs((d - base) - float(targets[j])))
            matrix_reach = t
        rows.append((t, defect))

    last = rows[-1][1]
    if last <= tol:
        status = "converged"
    elif last < max(d for _, d in rows[:-1]):
        # above tolerance but still shrinking: the horizon, not the limit
        status = "inconclusive"
    else:
        status = "failed"
    return FlatLimitReport(status=status, defects=tuple(rows), tolerance=tol,
                           t_max=t_max, ray_type=ray_type,
                           matrix_route_max_t=matrix_reach)


def act(g, x) -> np.ndarray:
    """Congruence action g.x = g x g^T, symmetrized against roundoff."""
    g = np.asarray(g, dtype=float)
    x = np.asarray(x, dtype=float)
    y = g @ x @ g.T
    return (y + y.T) / 2.0


def sample_spd(rng, n: int) -> np.ndarray:
    """Random unit-determinant positive matrix with moderate conditioning."""
    while True:
        A = rng.normal(size=(n, n))
        X = A @ A.T
        if float(np.linalg.cond(X)) > _SAMPLE_COND:
            continue
        X = X / float(np.linalg.det(X)) ** (1.0 / n)
        return (X + X.T) / 2.0


def sample_rotation(rng, n: int) -> np.ndarray:
    """Haar-ish random special orthogonal matrix via QR with sign fixing."""
    A = rng.normal(size=(n, n))
    q, r = np.linalg.qr(A)
    signs = np.sign(np.diagonal(r))
    signs[signs == 0] = 1.0
    q = q * signs
    if float(np.linalg.det(q)) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _index_blocks(n: int, indices) -> list:
    """Consecutive slot blocks glued by the chosen simple-root positions."""
    chosen = set(indices)
    blocks, current = [], [0]
    for pos in range(1, n):
        if pos - 1 in chosen:
            current.append(pos)
        else:
            blocks.append(current)
            current = [pos]
    blocks.append(current)
    return blocks


def sample_block_rotation(rng, n: int, indices) -> np.ndarray:
    """Random rotation acting inside each glued slot block."""
    g = np.eye(n)
    for block in _index_blocks(n, indices):
        if len(block) == 1:
            continue
        R = sample_rotation(rng, len(block))
        for a, i in enumerate(block):
            for b, j in enumerate(block):
                g[i, j] = R[a, b]
    return g


def sample_block_unipotent(rng, n: int, indices) -> np.ndarray:
    """Random upper unipotent matrix vanishing inside the glued blocks."""
    blocks = _index_blocks(n, indices)
    owner = {i: k for k, block in enumerate(blocks) for i in block}
    g = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            if owner[i] != owner[j]:
                g[i, j] = rng.uniform(-_UNIPOTENT_SCALE, _UNIPOTENT_SCALE)
    return g


# the invariance report's fixed plan: ray times, final limit tolerance,
# allowed rise between times, and the cross-block unipotent entry range
_T_SCHEDULE = (10.0, 31.6, 100.0, 316.0, 1000.0)
_LIMIT_TOL = 1e-3
_NOISE_BAND = 1e-6
_UNIPOTENT_SCALE = 0.5


@dataclass(frozen=True)
class InvarianceConfig:
    """Sampling plan for the invariance report.

    The ray starts at the origin and follows ray_direction, an ambient
    flat vector that defaults to a gentle regular ramp whose exponentials
    stay inside the conditioning guard up to t = 1000, the last scheduled
    time.  Sample counts and the tolerance must be positive and the seed
    non-negative; a violation raises InputError on construction.
    """

    samples: int = 100
    seed: int = 7
    invariance_tol: float = 1e-9
    ray_direction: tuple | None = None
    point_samples: int = 20
    group_samples: int = 6

    def __post_init__(self):
        if self.samples < 1 or self.point_samples < 1 or self.group_samples < 1:
            raise InputError("sample counts must be positive")
        if not self.invariance_tol > 0:
            raise InputError("invariance_tol must be positive")
        if self.seed < 0:
            raise InputError("the sampling seed must be non-negative")


@dataclass(frozen=True)
class InvarianceReport:
    """Measured defects for the three isometry-invariance statements.

    basepoint_defect: rotating a point must not change its normalized
    distance seen from the identity.  equivariance_defect: rotating the
    base of the normalized distance matches un-rotating its argument.
    limit_defects: (t, defect) rows for the block groups attached to the
    ray's divergence type; their defect must shrink along the schedule.
    """

    basepoint_defect: float
    equivariance_defect: float
    limit_defects: tuple
    basepoint_ok: bool
    equivariance_ok: bool
    limit_ok: bool
    limit_monotone: bool
    ray_type: SequenceType
    invariance_tol: float
    limit_tol: float
    noise_band: float


def _default_ray_direction(n: int) -> tuple:
    # evenly spaced ramp with spread 1/50: exp stays conditioned to t = 1000
    return tuple(Fraction(n - 1 - 2 * i, 100 * (n - 1)) for i in range(n))


def invariance_suite(fs: FlatSpace, config: InvarianceConfig | None = None) -> InvarianceReport:
    """Measure the rotation-invariance and limit-invariance defects.

    Three experiments with a shared deterministic sample pool: (a) the
    normalized distance from the identity is rotation invariant, (b)
    rotating the base point matches un-rotating the argument, (c) for the
    configured chamber ray the block rotations and cross-block unipotents
    attached to its divergence type move points by less and less, as seen
    from far ray points.  Group and point samples are drawn once and
    reused across the schedule, so the decay rows track fixed elements.
    """
    cfg = config or InvarianceConfig()
    n = fs.n
    direction = (vec(cfg.ray_direction) if cfg.ray_direction is not None
                 else _default_ray_direction(n))
    ray_type = sequence_type_of_ray(fs.root_system, vzero(n), direction)
    # the spread grows linearly along the ray, so the last time decides
    if _spread(fs, vscale(direction, frac(_T_SCHEDULE[-1]))) >= _SPREAD_GUARD:
        raise InputError("ray_direction leaves the conditioning guard "
                         "before the last scheduled time")

    rng = np.random.default_rng(cfg.seed)
    eye = np.broadcast_to(np.eye(n), (cfg.samples, n, n))

    # sample in the order of one pass per pair, then measure stack by stack
    xks = [(sample_spd(rng, n), sample_rotation(rng, n)) for _ in range(cfg.samples)]
    moved = _distances(fs, [act(k, x) for x, k in xks], eye)
    still = _distances(fs, [x for x, _ in xks], eye)
    base_defect = 0.0
    for a, b in zip(moved, still):
        base_defect = max(base_defect, abs(a - b))

    zxks = [(sample_spd(rng, n), sample_spd(rng, n), sample_rotation(rng, n))
            for _ in range(cfg.samples)]
    kz = [act(k, z) for z, _, k in zxks]
    zs = [z for z, _, _ in zxks]
    # psi(k.z, x) against psi(z, k^T.x)
    lhs = zip(_distances(fs, [x for _, x, _ in zxks], kz), _distances(fs, eye, kz))
    rhs = zip(_distances(fs, [act(k.T, x) for _, x, k in zxks], zs),
              _distances(fs, eye, zs))
    equi_defect = 0.0
    for (a, b), (c, d) in zip(lhs, rhs):
        equi_defect = max(equi_defect, abs((a - b) - (c - d)))

    points = [sample_spd(rng, n) for _ in range(cfg.point_samples)]
    movers = ([sample_block_rotation(rng, n, ray_type.indices)
               for _ in range(cfg.group_samples)]
              + [sample_block_unipotent(rng, n, ray_type.indices)
                 for _ in range(cfg.group_samples)])
    # each point followed by its moved copies, one stack for every time
    stack = np.array([y for x in points for y in [x] + [act(g, x) for g in movers]])
    rows = []
    for t in _T_SCHEDULE:
        z = np.broadcast_to(exp_flat(vscale(direction, frac(t))), (len(stack), n, n))
        dists = _distances(fs, stack, z)
        defect = 0.0
        m = len(movers) + 1
        for i in range(0, len(dists), m):
            for there in dists[i + 1:i + m]:
                defect = max(defect, abs(there - dists[i]))
        rows.append((t, defect))

    monotone = all(rows[k + 1][1] <= rows[k][1] + _NOISE_BAND
                   for k in range(len(rows) - 1))
    return InvarianceReport(
        basepoint_defect=base_defect,
        equivariance_defect=equi_defect,
        limit_defects=tuple(rows),
        basepoint_ok=base_defect <= cfg.invariance_tol,
        equivariance_ok=equi_defect <= cfg.invariance_tol,
        limit_ok=rows[-1][1] <= _LIMIT_TOL,
        limit_monotone=monotone,
        ray_type=ray_type,
        invariance_tol=cfg.invariance_tol,
        limit_tol=_LIMIT_TOL,
        noise_band=_NOISE_BAND,
    )

