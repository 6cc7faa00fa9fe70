"""Desarguesian projective planes PG(2, F) and polar unitals.

Points and lines are indices, and the index formula is the plane's only
coordinate system.  It numbers the homogeneous triples over F, normalized
so the first nonzero coordinate is 1, as points and as lines alike (the
plane is self-dual in coordinates): (1, y, z) is y·n + z, (0, 1, z) is
n² + z and (0, 0, 1) is n² + n.  ``triple`` reads the formula backwards;
no triple is stored.  Each line's point ids are written straight from the
formula, with two n × n field tables (1 + b·y and −w/c) for the
arithmetic, and a field automorphism acts on the ids through a table of
its n values.  Incidence t·s = 0 is symmetric, so the points on line i are
the lines through point i, and ``points_on`` doubles as ``lines_through``.

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


def triple(n: int, i: int) -> Triple:
    """The normalized coordinates of point (and line) ``i`` of PG(2, F),
    |F| = n: the index formula read backwards."""
    if i < n * n:
        y, z = divmod(i, n)
        return (1, y, z)
    return (0, 1, i - n * n) if i < n * n + n else (0, 0, 1)


def _incidence(F: Field) -> tuple[tuple[int, ...], ...]:
    """The ascending point ids on each line, written from the index formula.

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
    for i in ids:
        a, b, c = triple(n, i)
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

    Point ``i`` and line ``i`` both have the coordinates ``triple(n, i)``,
    so ``lines_through`` is ``points_on``.
    """

    def __init__(self, F: Field):
        self.field = F
        self.order = F.order
        self.points_on = _incidence(F)
        self.lines_through = self.points_on


@lru_cache(maxsize=None)
def projective_plane(F: Field) -> ProjectivePlane:
    return ProjectivePlane(F)


def frobenius_perm(plane: ProjectivePlane, k: int) -> Perm:
    """The index permutation induced by the field map x ↦ x^(p^k).  Read as
    point → line, it is a correlation of the plane; for PG(2, q²) with
    q = p^m, ``frobenius_perm(plane, m)`` is the unitary polarity."""
    n = plane.order
    fr = [plane.field.frobenius(x, k) for x in range(n)]
    # 0 and 1 are fixed, so normalized triples stay normalized
    return tuple([fr[y] * n + fr[z] for y in range(n) for z in range(n)]
                 + [n * n + z for z in fr] + [n * n + n])


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

    ``D`` is read as a unital of order s, the size of its first block less
    one, when s is a prime power and ``D`` validates as a unital of order
    s.  Returns ``(s, isomorphism or None)``, or ``(None, None)`` when
    ``D`` is not read as such a unital.
    """
    if not D.blocks:
        return None, None
    s = len(D.blocks[0]) - 1
    try:
        prime_power(s)
    except ValueError:
        return None, None
    if not validate_unital(D, s).valid:
        return None, None
    return s, isomorphism_search(D, hermitian_unital(s))
