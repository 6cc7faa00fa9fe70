"""Desarguesian projective planes PG(2, F) and the classical hermitian unital.

Points and lines are homogeneous coordinate triples over a finite field,
normalized so the first nonzero coordinate is 1; both live in the same
index space (the plane is self-dual in coordinates).  The hermitian unital
of order q is cut out of PG(2, GF(q^2)) by the unitary polarity
(x0 : x1 : x2) ↦ [x0^q : x1^q : x2^q]: its points are the self-conjugate
(absolute) points and its blocks are the traces of non-tangent lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .gf import Field, make_field, prime_power
from .incidence import Unital

Triple = tuple[int, int, int]


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
    """Coordinates of the unique line joining two distinct points."""
    w = cross(F, P, Q)
    if w == (0, 0, 0):
        raise ValueError("points are not distinct")
    return normalize(F, w)


def meet(F: Field, l: Triple, m: Triple) -> Triple:
    """The unique common point of two distinct lines."""
    w = cross(F, l, m)
    if w == (0, 0, 0):
        raise ValueError("lines are not distinct")
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

    ``points`` and ``lines`` hold the same normalized triples in the same
    order, so a coordinate triple has one index valid in both roles.
    """

    def __init__(self, F: Field):
        self.field = F
        self.order = F.order
        triples = _normalized_triples(F)
        self.points: tuple[Triple, ...] = tuple(triples)
        self.lines: tuple[Triple, ...] = tuple(triples)
        self.index: dict[Triple, int] = {t: i for i, t in enumerate(triples)}
        self.points_on = tuple(self._solve_line(l) for l in self.lines)
        self._line_sets = tuple(frozenset(pts) for pts in self.points_on)
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

    def incident(self, pid: int, lid: int) -> bool:
        return pid in self._line_sets[lid]


@lru_cache(maxsize=None)
def projective_plane(F: Field) -> ProjectivePlane:
    return ProjectivePlane(F)


@dataclass(frozen=True)
class UnitaryPolarity:
    """The conjugation polarity of PG(2, GF(q^2)) fixing the hermitian curve."""

    q: int
    field: Field  # GF(q^2)
    half_degree: int  # e/2; conjugation is the half-degree Frobenius

    def conj(self, a: int) -> int:
        return self.field.frobenius(a, self.half_degree)

    def point_to_line(self, P: Triple) -> Triple:
        return normalize(self.field, tuple(self.conj(x) for x in P))  # type: ignore[arg-type]

    def is_absolute(self, P: Triple) -> bool:
        F = self.field
        acc = 0
        for x in P:
            acc = F.add(acc, F.mul(x, self.conj(x)))
        return acc == 0


def unitary_polarity(q: int) -> UnitaryPolarity:
    p, m = prime_power(q)
    return UnitaryPolarity(q=q, field=make_field(p, 2 * m), half_degree=m)


def hermitian_unital(q: int) -> Unital:
    """The hermitian unital of order q as a 2-(q^3+1, q+1, 1) design.

    Point labels carry the homogeneous coordinates of the absolute points,
    in index order.
    """
    pol = unitary_polarity(q)
    plane = projective_plane(pol.field)
    absolute = [pid for pid, P in enumerate(plane.points) if pol.is_absolute(P)]
    if len(absolute) != q**3 + 1:
        raise ArithmeticError(
            f"absolute point count {len(absolute)} != {q**3 + 1}; construction is broken"
        )
    reindex = {pid: i for i, pid in enumerate(absolute)}
    blocks = []
    for pts in plane.points_on:
        trace = [reindex[p] for p in pts if p in reindex]
        if len(trace) > 1:
            if len(trace) != q + 1:
                raise ArithmeticError("line trace is neither tangent nor full secant")
            blocks.append(tuple(sorted(trace)))
    labels = tuple(plane.points[pid] for pid in absolute)
    return Unital(len(absolute), blocks, q=q, point_labels=labels)
