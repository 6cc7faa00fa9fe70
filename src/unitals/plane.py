"""Desarguesian projective planes PG(2, F) and polar unitals.

Points and lines are homogeneous coordinate triples over a finite field,
normalized so the first nonzero coordinate is 1; both live in the same
index space (the plane is self-dual in coordinates): (1, y, z) is y·n + z,
(0, 1, z) is n² + z and (0, 0, 1) is n² + n.  Each line's point ids are
written straight from that formula, with two n × n field tables (1 + b·y
and −w/c) for the arithmetic.  Incidence t·s = 0 is symmetric, so the
points on line i are the lines through point i, and ``points_on`` doubles
as ``lines_through``.

``polar_unital`` cuts a unital of order q out of any plane of order q² with
a unitary polarity: the absolute points, with the traces of the non-tangent
lines as blocks.  The hermitian unital comes from PG(2, q²) and the polarity
(x0 : x1 : x2) ↦ [x0^q : x1^q : x2^q]; the Figueroa unital is another.
``hermitian_isomorphism`` is the one test of whether a design is hermitian.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Sequence

from .gf import Field, make_field, prime_power
from .incidence import Incidence, Unital, isomorphism_search, validate_unital

if TYPE_CHECKING:
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


def _incidence(F: Field, lines: Sequence[Triple]) -> tuple[tuple[int, ...], ...]:
    """The ascending point ids on each of ``lines`` (normalized triples),
    written from the index formula.

    Line (a, b, c) holds the points x with a·x0 + b·x1 + c·x2 = 0.  For
    c ≠ 0 these are (1, y, −(a + b·y)/c) for each y, then (0, 1, −b/c); for
    c = 0 and b ≠ 0 the points (1, −a/b, z), then (0, 0, 1); and the line
    (1, 0, 0) holds the points (0, 1, z) and (0, 0, 1).  Ids come from one
    list, so each is one int object however many lines hold it.
    """
    n = F.order
    nn = n * n
    ids = list(range(nn + n + 1))
    rows = [ids[y * n:(y + 1) * n] for y in range(n)]  # the ids of (1, y, ·)
    elems = range(n)
    zeros = [0] * n
    # neg_div[c][w] = −w/c (row 0 is never read), one_plus[b][y] = 1 + b·y
    neg_div = [zeros] + [[F.neg(F.div(w, c)) for w in elems] for c in range(1, n)]
    one_plus = [[F.add(1, F.mul(b, y)) for y in elems] for b in elems]
    out = []
    for a, b, c in lines:
        if c:
            d = neg_div[c]
            ws = one_plus[b] if a else (elems if b else zeros)  # a + b·y
            pts = [row[d[w]] for row, w in zip(rows, ws)]
            pts.append(ids[nn + d[b]])
        elif b:
            pts = rows[neg_div[b][a]] + ids[-1:]
        else:
            pts = ids[nn:]
        out.append(tuple(pts))
    return tuple(out)


class ProjectivePlane:
    """PG(2, F) with precomputed incidence lists.

    ``points`` holds the normalized triples in index order; line ``i`` is
    the line with the coordinates ``points[i]``, so a triple has one index
    valid in both roles, and ``lines_through`` is ``points_on``.
    """

    def __init__(self, F: Field):
        self.field = F
        self.order = F.order
        triples = _normalized_triples(F)
        self.points: tuple[Triple, ...] = tuple(triples)
        self.index: dict[Triple, int] = {t: i for i, t in enumerate(triples)}
        self.points_on = _incidence(F, triples)
        self.lines_through = self.points_on


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


def polar_unital(lines_through: Sequence[tuple[int, ...]], polarity: Perm,
                 order: int) -> tuple[Unital, tuple[int, ...], tuple[int, ...]]:
    """The unital of order ``order`` cut out of a plane by a unitary polarity.

    The plane comes as its pencils (ascending line ids per point; a plane
    has as many lines as points), the polarity as a point → line index map.
    Returns the unital of the absolute points, in index order, with the
    traces of more than one point as blocks; the plane point of each unital
    point; and the plane line of each block.

    A point is absolute when its polar line is in its pencil, found by
    bisection.  The traces are written from the pencils of the absolute
    points only, in ascending order, so no other incidence is read.
    """
    absolute = []
    for pid, ls in enumerate(lines_through):
        polar = polarity[pid]
        i = bisect_left(ls, polar)
        if i < len(ls) and ls[i] == polar:
            absolute.append(pid)
    v = order**3 + 1
    if len(absolute) != v:
        raise ArithmeticError(f"{len(absolute)} absolute points, expected {v}")
    traces: list[list[int]] = [[] for _ in lines_through]
    for i, pid in enumerate(absolute):
        for lid in lines_through[pid]:
            traces[lid].append(i)
    traced: list[tuple[tuple[int, ...], int]] = []
    for lid, tr in enumerate(traces):
        if len(tr) > 1:
            if len(tr) != order + 1:
                raise ArithmeticError(f"line {lid} meets the absolute points in {len(tr)} points")
            traced.append((tuple(tr), lid))
    traced.sort()
    blocks = tuple(t for t, _ in traced)
    U = Unital(v, blocks, order)
    if U.blocks != blocks:
        raise AssertionError("block canonicalization changed the trace order")
    return U, tuple(absolute), tuple(lid for _, lid in traced)


def hermitian_unital(q: int) -> Unital:
    """The hermitian unital of order q as a 2-(q^3+1, q+1, 1) design.

    Its points are the absolute points of PG(2, q²), in index order.  A
    plane above ``MAX_PLANE_POINTS`` points (q ≥ 19) is refused before
    anything is built.
    """
    size = q**4 + q**2 + 1
    if size > MAX_PLANE_POINTS:
        raise ValueError(f"the plane PG(2, q²) for q = {q} has {size} points; "
                         f"at most {MAX_PLANE_POINTS} can be built")
    p, m = prime_power(q)
    plane = projective_plane(make_field(p, 2 * m))
    U, _, _ = polar_unital(plane.lines_through, frobenius_perm(plane, m), q)
    return U


def hermitian_isomorphism(D: Incidence) -> tuple[Optional[int], Optional[tuple[int, ...]]]:
    """Read ``D`` as a unital and search for an isomorphism onto the
    hermitian unital of its order.

    ``D`` is read as a unital of order s when all its blocks have size
    s + 1, it has s³ + 1 points, s is a prime power and it validates as a
    unital of order s.  Returns ``(s, isomorphism or None)``, or
    ``(None, None)`` when ``D`` is not read as such a unital.
    """
    sizes = {len(b) for b in D.blocks}
    if len(sizes) != 1:
        return None, None
    s = sizes.pop() - 1
    if D.v != s**3 + 1:
        return None, None
    try:
        prime_power(s)
    except ValueError:
        return None, None
    if not validate_unital(D, s).valid:
        return None, None
    return s, isomorphism_search(D, hermitian_unital(s))
