"""Exact linear algebra over the rationals and the integers.

Small dense routines backing the polytope and root-system machinery.  The
vector routines operate on tuples of Fraction.  Elimination is
fraction-free and on integers only: homogeneous writes a rational point
as one integer vector, pivot_columns and adjugate eliminate without
fractions (Bareiss), and span_coefficients and project_onto_span solve
Gram systems through the adjugate.  Nothing here touches floats.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isfinite, lcm
from operator import mul

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


def mat_vec(M, v):
    return tuple(vdot(row, v) for row in M)


def project_onto_span(vectors, v):
    """Orthogonal projection of v onto span(vectors), standard inner product.

    Each vector is scaled to integers, the first independent ones span,
    and span_coefficients solves their Gram system on integers; the one
    division is the Fraction built for each coordinate.
    """
    rows = [homogeneous(u)[:-1] for u in vectors]
    basis = [rows[i] for i in pivot_columns(list(zip(*rows)))]
    x = homogeneous(v)
    c, det = span_coefficients(basis, x[:-1])
    den = det * x[-1]
    return tuple(Fraction(sum(ci * b[k] for ci, b in zip(c, basis)), den)
                 for k in range(len(v)))


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


def adjugate(rows) -> tuple:
    """Rows of the adjugate of a nonsingular square integer matrix, and its
    determinant: adj(A) A = A adj(A) = det(A) I.

    Fraction-free (Bareiss) Gauss-Jordan on (A | I): every entry after a
    step is a minor of (A | I), so each division by the previous pivot is
    exact, and the right half ends as det(A) A^-1 up to the row swaps' sign.
    """
    n = len(rows)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    sign = previous = 1
    for c in range(n):
        p = next(i for i in range(c, n) if m[i][c])
        if p != c:
            m[c], m[p] = m[p], m[c]
            sign = -sign
        top = m[c]
        pivot = top[c]
        for i in range(n):
            if i != c:
                a = m[i][c]
                m[i] = [(pivot * x - a * y) // previous for x, y in zip(m[i], top)]
        previous = pivot
    return [[sign * x for x in r[n:]] for r in m], sign * previous


def span_coefficients(basis, x) -> tuple:
    """Integers c and det > 0 with sum(c_i * basis_i) = det * proj(x), proj
    the orthogonal projection onto the span of the independent integer rows
    basis, for an integer vector x.

    det is the Gram determinant of basis and c = adj(G) (basis x), since
    proj(x) = basis^T G^-1 basis x; nothing is divided.
    """
    gram = [[sum(map(mul, a, b)) for b in basis] for a in basis]
    adj, det = adjugate(gram)
    rhs = [sum(map(mul, a, x)) for a in basis]
    return [sum(map(mul, row, rhs)) for row in adj], det
