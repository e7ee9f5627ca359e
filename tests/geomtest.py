"""Shared helpers for the geometry test suite.

Random rational data is produced from seeded random.Random instances so
every run sees the same cases.
"""

from __future__ import annotations

import random
from fractions import Fraction

from horopoly.polytope import Polytope, convex_hull, relative_interior_point
from horopoly._linalg import transpose, vsub


def rand_fraction(rng: random.Random, num: int = 12, den: int = 6) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_vector(rng: random.Random, dim: int, num: int = 12, den: int = 6) -> tuple:
    return tuple(rand_fraction(rng, num, den) for _ in range(dim))


def rand_nonzero_vector(rng: random.Random, dim: int, num: int = 12, den: int = 6) -> tuple:
    while True:
        v = rand_vector(rng, dim, num, den)
        if any(x != 0 for x in v):
            return v


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
