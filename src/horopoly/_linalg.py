"""Exact linear algebra over the rationals.

Small dense routines backing the polytope and root-system machinery.
Everything operates on tuples of Fraction; nothing here touches floats.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isfinite, lcm

ZERO = Fraction(0)
ONE = Fraction(1)

# up to this decimal exponent a dim-4 hull prints within the 4300-digit limit
_EXPONENT_CAP = 500
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)")


def frac(x) -> Fraction:
    """Coerce an int, string, finite float or Fraction to Fraction.

    Floats convert to their exact binary value, which keeps the conversion
    deterministic; callers that want a short decimal should pass strings.
    Booleans are refused rather than read as 0 and 1.  A zero denominator
    such as "1/0", and a decimal exponent beyond +-500 such as "1e5000",
    raise ValueError like any other bad string, the latter before the
    number is built.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        m = _EXPONENT.search(x)
        digits = m.group(1).replace("_", "").lstrip("0") if m else ""
        if len(digits) > 3 or int(digits or 0) > _EXPONENT_CAP:
            raise ValueError(f"decimal exponent beyond +-{_EXPONENT_CAP} in {x!r}")
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, float) and isfinite(x):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def vec(values) -> tuple:
    return tuple(frac(x) for x in values)


def vzero(n: int) -> tuple:
    return (ZERO,) * n


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vscale(a, t):
    t = frac(t)
    return tuple(t * x for x in a)


def vdot(a, b) -> Fraction:
    if len(a) != len(b):
        raise ValueError("dimension mismatch in dot product")
    return sum((x * y for x, y in zip(a, b)), start=ZERO)


def is_zero_vec(a) -> bool:
    return all(x == 0 for x in a)


def transpose(M):
    return tuple(zip(*M, strict=True))


def mat_vec(M, v):
    return tuple(vdot(row, v) for row in M)


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


def span_basis(vectors):
    """Basis of the linear span of the given vectors (echelon form rows)."""
    vectors = [v for v in vectors if not is_zero_vec(v)]
    if not vectors:
        return []
    rows, _ = rref(vectors)
    return [tuple(r) for r in rows]


def affine_span(points):
    """(origin, basis of the direction space) for a nonempty point list."""
    pts = list(points)
    origin = vec(pts[0])
    dirs = [vsub(vec(p), origin) for p in pts[1:]]
    return origin, span_basis(dirs)


def project_onto_span(vectors, v):
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


def primitive(vector):
    """Positive rescale of a nonzero rational vector to coprime integers."""
    denom = lcm(*(x.denominator for x in vector)) if len(vector) > 1 else vector[0].denominator
    ints = [int(x * denom) for x in vector]
    g = 0
    for n in ints:
        g = gcd(g, abs(n))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(Fraction(n, g) for n in ints)
