"""Exact linear algebra over the rationals and the integers.

Small dense routines backing the polytope and root-system machinery.  The
vector and elimination routines operate on tuples of Fraction.  The
polytope kernel works on integers instead: homogeneous writes a rational
point as one integer vector, extend_minors and normal_map give the
hyperplane through such vectors from their minors, and pivot_columns
eliminates without fractions.  Nothing here touches floats.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
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


def span_basis(vectors):
    """Basis of the linear span of the given vectors (echelon form rows)."""
    vectors = [v for v in vectors if not is_zero_vec(v)]
    if not vectors:
        return []
    rows, _ = rref(vectors)
    return [tuple(r) for r in rows]


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
    ints = homogeneous(vector)[:-1]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(Fraction(n, g) for n in ints)


# ---------------------------------------------------------------------------
# integer kernel


def homogeneous(point) -> tuple:
    """The integer vector (x*w, w) of a rational point x, where w > 0 is
    the lcm of its own denominators."""
    w = lcm(*(x.denominator for x in point))
    return tuple(x.numerator * (w // x.denominator) for x in point) + (w,)


@lru_cache(maxsize=None)
def _expansion(ncols: int, k: int) -> tuple:
    """Per (k+1)-subset of the columns, in combinations order, the terms
    (column, sign, position of a k-subset) of its minor expanded along the
    last row."""
    position = {s: i for i, s in enumerate(combinations(range(ncols), k))}
    return tuple(
        tuple((c, (-1) ** (k + p), position[t[:p] + t[p + 1:]])
              for p, c in enumerate(t))
        for t in combinations(range(ncols), k + 1))


def extend_minors(minors, k: int, row) -> tuple:
    """Maximal minors of k integer rows with row appended below them.

    minors lists the k x k minors of the k rows over the k-subsets of the
    columns in combinations order: (1,) for no rows, a row for one row.
    """
    return tuple(sum(s * row[c] * minors[i] for c, s, i in terms)
                 for terms in _expansion(len(row), k))


def normal_map(minors, ncols: int) -> list:
    """The matrix N that takes a last row v to the normal n of m rows of
    length ncols = m + 1: <n|x> = det(rows; x) for every x.

    minors lists the maximal minors of the first m - 1 rows, as in
    extend_minors.  The normal is zero exactly when the m rows are
    dependent, and otherwise spans their orthogonal complement.
    """
    m = ncols - 1
    N = [[0] * ncols for _ in range(ncols)]
    # the m-subset at position i leaves out column m - i
    for i, terms in enumerate(_expansion(ncols, m - 1)):
        c = m - i
        sign = 1 if (m + c) % 2 == 0 else -1
        for col, s, idx in terms:
            N[c][col] = sign * s * minors[idx]
    return N


def pivot_columns(rows) -> list:
    """Pivot columns of integer rows, by fraction-free (Bareiss) elimination.

    After each step every entry below the pivots is a minor of the input,
    so the division by the previous pivot is exact and no entry outgrows
    the minors.  The rank is the number of pivots.
    """
    m = [list(r) for r in rows]
    pivots = []
    previous = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        top = m[r]
        pivot = top[c]
        for i in range(r + 1, len(m)):
            a = m[i][c]
            m[i] = [(pivot * x - a * y) // previous for x, y in zip(m[i], top)]
        previous = pivot
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return pivots
