"""Desarguesian projective planes PG(2, F) and polar unitals.

Points and lines are homogeneous coordinate triples over a finite field,
normalized so the first nonzero coordinate is 1; both live in the same
index space (the plane is self-dual in coordinates).  ``polar_unital`` cuts
a unital of order q out of any plane of order q² with a unitary polarity:
the absolute points, with the traces of the non-tangent lines as blocks.
The hermitian unital comes from PG(2, q²) and the polarity
(x0 : x1 : x2) ↦ [x0^q : x1^q : x2^q]; the Figueroa unital is another.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .gf import Field, make_field, prime_power
from .incidence import Unital
from .permgroup import Perm

Triple = tuple[int, int, int]

# The largest plane built: PG(2, q²) for q ≤ 17, and the twisted plane for
# q = 2 (4161 points; q = 3 would give 532,171 with 730 on each line).
MAX_PLANE_POINTS = 100_000


def normalize(F: Field, v: Triple) -> Triple:
    """Scale a nonzero homogeneous triple so its first nonzero entry is 1."""
    for i in range(3):
        if v[i]:
            if v[i] == F.one:
                return v
            s = F.inv(v[i])
            return tuple(F.mul(s, x) for x in v)  # type: ignore[return-value]
    raise ValueError("zero vector has no projective class")


def cross(F: Field, u: Triple, v: Triple) -> Triple:
    a = F.sub(F.mul(u[1], v[2]), F.mul(u[2], v[1]))
    b = F.sub(F.mul(u[2], v[0]), F.mul(u[0], v[2]))
    c = F.sub(F.mul(u[0], v[1]), F.mul(u[1], v[0]))
    return (a, b, c)


def dot(F: Field, u: Triple, v: Triple) -> int:
    acc = 0
    for x, y in zip(u, v):
        acc = F.add(acc, F.mul(x, y))
    return acc


def line_through(F: Field, P: Triple, Q: Triple) -> Triple:
    """Coordinates of the unique line joining two distinct points.  By
    duality the same triple is the meet of two distinct lines."""
    w = cross(F, P, Q)
    if w == (0, 0, 0):
        raise ValueError("points are not distinct")
    return normalize(F, w)


def _normalized_triples(F: Field) -> list[Triple]:
    out: list[Triple] = []
    n = F.order
    for y in range(n):
        for z in range(n):
            out.append((1, y, z))
    for z in range(n):
        out.append((0, 1, z))
    out.append((0, 0, 1))
    return out


class ProjectivePlane:
    """PG(2, F) with precomputed incidence lists.

    ``points`` holds the normalized triples; line ``i`` is the line with the
    coordinates ``points[i]``, so a triple has one index valid in both roles.
    """

    def __init__(self, F: Field):
        self.field = F
        self.order = F.order
        triples = _normalized_triples(F)
        self.points: tuple[Triple, ...] = tuple(triples)
        self.index: dict[Triple, int] = {t: i for i, t in enumerate(triples)}
        self.points_on = tuple(self._solve_line(l) for l in triples)
        lt: list[list[int]] = [[] for _ in triples]
        for lid, pts in enumerate(self.points_on):
            for pid in pts:
                lt[pid].append(lid)
        self.lines_through = tuple(tuple(ls) for ls in lt)

    def _solve_line(self, l: Triple) -> tuple[int, ...]:
        """Indices of the points incident with l, ascending."""
        F = self.field
        a, b, c = l
        if a == 0 and b == 0:
            p0, p1 = (1, 0, 0), (0, 1, 0)
        elif a == 0:
            p0, p1 = (1, 0, 0), (0, F.neg(F.div(c, b)), 1)
        else:
            p0 = (F.neg(F.div(b, a)), 1, 0)
            p1 = (F.neg(F.div(c, a)), 0, 1)
        idx = self.index
        pts = [idx[normalize(F, p1)]]
        for t in range(F.order):
            v = (F.add(p0[0], F.mul(t, p1[0])),
                 F.add(p0[1], F.mul(t, p1[1])),
                 F.add(p0[2], F.mul(t, p1[2])))
            pts.append(idx[normalize(F, v)])
        return tuple(sorted(pts))


@lru_cache(maxsize=None)
def projective_plane(F: Field) -> ProjectivePlane:
    return ProjectivePlane(F)


def frobenius_perm(plane: ProjectivePlane, k: int) -> Perm:
    """The index permutation induced by the field map x ↦ x^(p^k).  Read as
    point → line, it is a correlation of the plane; for PG(2, q²) with
    q = p^m, ``frobenius_perm(plane, m)`` is the unitary polarity."""
    F = plane.field
    img = []
    for t in plane.points:
        u = (F.frobenius(t[0], k), F.frobenius(t[1], k), F.frobenius(t[2], k))
        img.append(plane.index[u])  # normalized triples stay normalized
    return tuple(img)


def polar_unital(points_on: Sequence[tuple[int, ...]], lines_through: Sequence[tuple[int, ...]],
                 polarity: Perm, order: int,
                 labels: Sequence) -> tuple[Unital, tuple[int, ...], tuple[int, ...]]:
    """The unital of order ``order`` cut out of a plane by a unitary polarity.

    The plane comes as its incidence lists (ascending point ids per line,
    line ids per point), the polarity as a point → line index map.  Returns
    the unital of the absolute points, in index order and labelled from
    ``labels``, with the traces of more than one point as blocks; the plane
    point of each unital point; and the plane line of each block.
    """
    absolute = [pid for pid, ls in enumerate(lines_through) if polarity[pid] in ls]
    v = order**3 + 1
    if len(absolute) != v:
        raise ArithmeticError(f"{len(absolute)} absolute points, expected {v}")
    reindex = {pid: i for i, pid in enumerate(absolute)}
    traced: list[tuple[tuple[int, ...], int]] = []
    for lid, pts in enumerate(points_on):
        tr = tuple(reindex[pid] for pid in pts if pid in reindex)
        if len(tr) > 1:
            if len(tr) != order + 1:
                raise ArithmeticError(f"line {lid} meets the absolute points in {len(tr)} points")
            traced.append((tr, lid))
    traced.sort()
    blocks = tuple(t for t, _ in traced)
    U = Unital(v, blocks, order, point_labels=tuple(labels[pid] for pid in absolute))
    if U.blocks != blocks:
        raise AssertionError("block canonicalization changed the trace order")
    return U, tuple(absolute), tuple(lid for _, lid in traced)


def hermitian_unital(q: int) -> Unital:
    """The hermitian unital of order q as a 2-(q^3+1, q+1, 1) design.

    Point labels carry the homogeneous coordinates of the absolute points,
    in index order.  A plane PG(2, q²) above ``MAX_PLANE_POINTS`` points
    (q ≥ 19) is refused before anything is built.
    """
    size = q**4 + q**2 + 1
    if size > MAX_PLANE_POINTS:
        raise ValueError(f"the plane PG(2, q²) for q = {q} has {size} points; "
                         f"at most {MAX_PLANE_POINTS} can be built")
    p, m = prime_power(q)
    plane = projective_plane(make_field(p, 2 * m))
    U, _, _ = polar_unital(plane.points_on, plane.lines_through,
                           frobenius_perm(plane, m), q, plane.points)
    return U
