"""Classical root systems with exact arithmetic.

Families A, B, C and D in their standard coordinate realisations: family
A of rank r lives in the trace-zero hyperplane of R^(r+1), the other
families fill R^r.  The reflection group of each system is enumerated
explicitly in its closed form, as the permutations (A) or signed
permutations (B, C, D) of the ambient coordinates, so orbits, chamber
membership and stabilisers are all decided exactly.  Each element, and
each simple reflection, is the pair (p, s) of a permutation and a sign
vector, and it maps v to (s_i * v[p_i])_i, which takes negations and no
products.  The same elements as exact matrices are built from the pairs
only when a caller asks for them.

Family A keeps its ambient coordinates, and two rank-sized charts
translate to full-dimensional coordinates where polytopes live: a point
chart (partial sums) for vectors of the space the group acts on, and a
weight chart (consecutive differences) for linear functionals on it.
The charts preserve the evaluation pairing <functional|vector>, so
polarity computed in chart coordinates matches the ambient geometry.
For the other families both charts are the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, permutations, product

from ._linalg import (
    ZERO,
    homogeneous,
    mat_vec,
    span_coefficients,
    vdot,
    vec,
    vscale,
    vsub,
)
from .errors import DimensionMismatch, InputError, PreconditionError

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
_GROUP_CAP = 25000


@dataclass(frozen=True)
class RootSystem:
    type_label: str
    rank: int
    ambient_dim: int
    simple_roots: tuple
    positive_roots: tuple


@dataclass(frozen=True)
class WeylGroup:
    """The finite reflection group, fully enumerated.

    signed_elements: every group element as a signed permutation (p, s),
    for signed_permute, in the order of the sorted element matrices.
    signed_generators: the simple reflections, aligned with the simple
    roots.  elements and generators are the same as exact orthogonal
    matrices, built from the pairs on first use and then kept on the
    instance.
    """

    root_system: RootSystem
    signed_elements: tuple
    signed_generators: tuple

    @property
    def order(self) -> int:
        return len(self.signed_elements)

    @cached_property
    def elements(self) -> tuple:
        return tuple(map(_matrix, self.signed_elements))

    @cached_property
    def generators(self) -> tuple:
        return tuple(map(_matrix, self.signed_generators))


def _matrix(sp) -> tuple:
    """The matrix of the signed permutation (p, s): row i holds s_i in
    column p_i."""
    p, s = sp
    n = len(p)
    return tuple(tuple(Fraction(t) if j == c else ZERO for j in range(n))
                 for c, t in zip(p, s))


def signed_permute(sp, v) -> tuple:
    """The image (s_i * v[p_i])_i of v under the signed permutation (p, s)."""
    p, s = sp
    return tuple(v[j] if t > 0 else -v[j] for j, t in zip(p, s))


def _unit(n: int, i: int) -> tuple:
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))


def build(type_label, rank) -> RootSystem:
    """Standard realisation of the chosen family at the chosen rank."""
    label = str(type_label).upper()
    if label not in _MIN_RANK:
        raise InputError(f"unsupported family {type_label!r}; pick one of A, B, C, D")
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise InputError("rank must be an integer")
    if rank < _MIN_RANK[label]:
        raise InputError(f"family {label} needs rank >= {_MIN_RANK[label]}")
    _check_group_cap(label, rank)
    return _build(label, rank)


@lru_cache(maxsize=None)
def _build(label: str, r: int) -> RootSystem:
    """The realisation, built and its positive roots checked once per
    family and rank."""
    if label == "A":
        n = r + 1
        simple = [vsub(_unit(n, i), _unit(n, i + 1)) for i in range(r)]
        positive = [vsub(_unit(n, i), _unit(n, j))
                    for i in range(n) for j in range(i + 1, n)]
    else:
        n = r
        simple = [vsub(_unit(n, i), _unit(n, i + 1)) for i in range(r - 1)]
        positive = [vsub(_unit(n, i), _unit(n, j))
                    for i in range(r) for j in range(i + 1, r)]
        positive += [tuple(a + b for a, b in zip(_unit(n, i), _unit(n, j)))
                     for i in range(r) for j in range(i + 1, r)]
        if label == "B":
            simple.append(_unit(n, r - 1))
            positive += [_unit(n, i) for i in range(r)]
        elif label == "C":
            simple.append(vscale(_unit(n, r - 1), 2))
            positive += [vscale(_unit(n, i), 2) for i in range(r)]
        else:
            simple.append(tuple(a + b for a, b in
                                zip(_unit(n, r - 2), _unit(n, r - 1))))
    rows = [homogeneous(a)[:-1] for a in simple]
    for root in positive:
        # root = sum((c_i / det) * simple_i), each c_i / det a natural number
        c, det = span_coefficients(rows, homogeneous(root)[:-1])
        if (any(x < 0 or x % det for x in c)
                or [sum(x * a[k] for x, a in zip(c, simple)) for k in range(n)]
                != [det * y for y in root]):
            raise AssertionError("positive root outside the nonnegative "
                                 "integer cone of the simple roots")
    return RootSystem(label, r, n, tuple(simple), tuple(positive))


def _reflection(root) -> tuple:
    """The reflection in a classical root as a signed permutation: e_i - e_j
    swaps two coordinates, e_i + e_j swaps and negates them, and a multiple
    of e_i negates one."""
    p, s = list(range(len(root))), [1] * len(root)
    support = [k for k, x in enumerate(root) if x]
    if len(support) == 2:
        i, j = support
        p[i], p[j] = j, i
        if root[i] == root[j]:
            s[i] = s[j] = -1
    else:
        s[support[0]] = -1
    return tuple(p), tuple(s)


def _check_group_cap(label: str, r: int) -> None:
    """Refuse a group whose classical order exceeds the safety cap.

    The order is (r+1)! for A_r, 2^r r! = 2 * 4 * ... * 2r for B_r and
    C_r, and half that for D_r.  The product stops once past the cap, so
    a huge rank is refused at once.
    """
    if label == "A":
        factors = range(2, r + 2)
    else:
        factors = range(4 if label == "D" else 2, 2 * r + 1, 2)
    order = 1
    for k in factors:
        order *= k
        if order > _GROUP_CAP:
            raise PreconditionError(
                f"{label}{r} group order exceeds the safety cap {_GROUP_CAP}")


@lru_cache(maxsize=None)
def weyl_group(rs: RootSystem) -> WeylGroup:
    """The full reflection group in closed form (Humphreys 1990, 2.10).

    W(A_r) permutes the r+1 ambient coordinates, W(B_r) and W(C_r) are
    all signed permutations, and W(D_r) the signed permutations with an
    even number of sign changes.
    """
    label, n = rs.type_label, rs.ambient_dim
    _check_group_cap(label, rs.rank)
    if label == "A":
        signs = [(1,) * n]
    else:
        signs = [s for s in product((1, -1), repeat=n)
                 if label != "D" or s.count(-1) % 2 == 0]
    # row i of an element's matrix sorts by s_i * (n - p_i)
    elems = sorted(((p, s) for p in permutations(range(n)) for s in signs),
                   key=lambda ps: tuple(t * (n - c) for c, t in zip(*ps)))
    gens = tuple(_reflection(a) for a in rs.simple_roots)
    return WeylGroup(rs, tuple(elems), gens)


def weyl_orbit(group: WeylGroup, v) -> tuple:
    """Deduplicated orbit of v, lexicographically sorted.

    The group acts by signed permutations on v scaled to integers.  Every
    orbit point has only the entries +-v_i, so scaling by one positive
    integer keeps the order and maps back entry by entry.
    """
    v = vec(v)
    if len(v) != group.root_system.ambient_dim:
        raise DimensionMismatch("vector does not live in the ambient space")
    u = homogeneous(v)[:-1]
    back = {a: x for a, x in zip(u, v)} | {-a: -x for a, x in zip(u, v)}
    orbit = sorted({signed_permute(sp, u) for sp in group.signed_elements})
    return tuple(tuple(back[a] for a in w) for w in orbit)


def singular_support(rs: RootSystem, v) -> tuple:
    """Indices of the simple roots vanishing on a dominant vector."""
    v = vec(v)
    if len(v) != rs.ambient_dim:
        raise DimensionMismatch("vector does not live in the ambient space")
    values = [vdot(a, v) for a in rs.simple_roots]
    if any(t < 0 for t in values):
        raise PreconditionError("vector is not dominant")
    return tuple(i for i, t in enumerate(values) if t == 0)


# ---------------------------------------------------------------------------
# coordinate charts (nontrivial for family A only)


def point_coords(rs: RootSystem, v) -> tuple:
    """Chart for vectors acted on: partial sums of the ambient coordinates.

    Family A input must be trace-zero (the chart inverts only there).
    """
    v = vec(v)
    if len(v) != rs.ambient_dim:
        raise DimensionMismatch("vector does not live in the ambient space")
    if rs.type_label != "A":
        return v
    if sum(v) != 0:
        raise InputError("family A vectors must have coordinate sum zero")
    return tuple(accumulate(v))[: rs.rank]


def point_ambient(rs: RootSystem, x) -> tuple:
    """Inverse of point_coords; lands in the trace-zero hyperplane."""
    x = vec(x)
    if len(x) != rs.rank:
        raise DimensionMismatch("expected a rank-sized coordinate vector")
    if rs.type_label != "A":
        return x
    return tuple(x[i] - (x[i - 1] if i else 0) for i in range(rs.rank)) + (-x[-1],)


def weight_coords(rs: RootSystem, m) -> tuple:
    """Chart for functionals: consecutive differences of ambient coordinates.

    Constant shifts of a family-A functional act identically on trace-zero
    vectors, and the chart quotients exactly that redundancy away.
    """
    m = vec(m)
    if len(m) != rs.ambient_dim:
        raise DimensionMismatch("functional does not live in the ambient space")
    if rs.type_label != "A":
        return m
    return tuple(m[i] - m[i + 1] for i in range(rs.rank))


def weight_ambient(rs: RootSystem, y) -> tuple:
    """Section of weight_coords choosing last ambient coordinate zero."""
    y = vec(y)
    if len(y) != rs.rank:
        raise DimensionMismatch("expected a rank-sized coordinate vector")
    if rs.type_label != "A":
        return y
    out = [Fraction(0)] * (rs.rank + 1)
    for i in range(rs.rank - 1, -1, -1):
        out[i] = out[i + 1] + y[i]
    return tuple(out)


def _transported(rs: RootSystem, matrices, embed, project) -> tuple:
    if rs.type_label != "A":
        return tuple(matrices)
    basis = [_unit(rs.rank, j) for j in range(rs.rank)]
    out = []
    for m in matrices:
        cols = [project(rs, mat_vec(m, embed(rs, e))) for e in basis]
        out.append(tuple(tuple(cols[j][i] for j in range(rs.rank))
                         for i in range(rs.rank)))
    return tuple(out)


@lru_cache(maxsize=None)
def weyl_point_matrices(rs: RootSystem) -> tuple:
    """Group elements in the point chart, aligned with weyl_group order."""
    return _transported(rs, weyl_group(rs).elements, point_ambient, point_coords)


@lru_cache(maxsize=None)
def weyl_weight_matrices(rs: RootSystem) -> tuple:
    """Group elements in the weight chart, aligned with weyl_group order."""
    return _transported(rs, weyl_group(rs).elements, weight_ambient, weight_coords)


# ---------------------------------------------------------------------------
# named dominant functionals


def named_weight(rs: RootSystem, name: str) -> tuple:
    """Dominant functionals by preset name, in ambient coordinates.

    Supported: "adjoint" (the highest root), "standard", "dual-standard",
    and "fundamental:k" with 1-based k up to the rank.
    """
    n, r = rs.ambient_dim, rs.rank
    label = rs.type_label
    name = str(name).strip().lower()
    if name == "adjoint":
        if label == "A":
            return vsub(_unit(n, 0), _unit(n, n - 1))
        if label == "C":
            return vscale(_unit(n, 0), 2)
        return tuple(a + b for a, b in zip(_unit(n, 0), _unit(n, 1)))
    if name == "standard":
        return _unit(n, 0)
    if name == "dual-standard":
        return vscale(_unit(n, n - 1), -1) if label == "A" else _unit(n, 0)
    if name.startswith("fundamental:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad fundamental weight index in {name!r}")
        if not 1 <= k <= r:
            raise InputError(f"fundamental weight index must be in 1..{r}")
        ones = tuple(Fraction(1) if i < k else Fraction(0) for i in range(n))
        if label == "B" and k == r:
            return vscale(ones, Fraction(1, 2))
        if label == "D" and k >= r - 1:
            out = [Fraction(1, 2)] * r
            if k == r - 1:
                out[r - 1] = Fraction(-1, 2)
            return tuple(out)
        return ones
    raise InputError(f"unknown weight preset {name!r}")
