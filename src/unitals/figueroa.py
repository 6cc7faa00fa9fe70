"""The Figueroa plane of order q⁶, its polarity, and the polar unital.

Construction.  Start from the desarguesian plane PG(2, F) with F = GF(q⁶)
and the order-3 collineation α acting coordinatewise by x ↦ x^{q²}.  Points
(dually, lines) split into three types: type I are fixed by α, type II have
their α-orbit collinear (dually, concurrent), and type III have a triangle
as orbit.  For type-III elements set

    μ(P) = the classical line through αP and α²P,
    μ(ℓ) = the classical meet of αℓ and α²ℓ,

and define the twisted incidence: a type-III point P lies on a type-III
line ℓ exactly when μ(ℓ) lies classically on μ(P); every other
point/line pair keeps its classical incidence.  The result is validated
from scratch as a projective plane of order q⁶ (nothing is taken on faith
from the construction), in one pass per point: every line has q⁶+1 points,
every point lies on q⁶+1 lines, and the lines through each point cover the
plane, so two points share exactly one line.  Two lines then meet in exactly
one point, as in every symmetric design.

The coordinatewise map x ↦ x^{q³} turns out to be a polarity of the twisted
plane; this is likewise verified exhaustively, pair by pair, before use.
Its absolute points carry a unital of order q³ (cut out by
``plane.polar_unital``, as the hermitian unitals are) whose type-I points
form a subunital isomorphic to the hermitian unital of order q.

Only q = 2 (plane order 64, 4161 points) can be built: the next prime
power gives 532,171 points, and ``build_figueroa_plane`` refuses any plane
above ``MAX_PLANE_POINTS`` before it builds anything.  Note the plane of
order r³ twisted from PG(2, F_{r³}) is non-desarguesian only for r > 2;
here r = q² is a square, so r = 4 and up — every plane built here is a
genuine Figueroa plane.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .gf import make_field, prime_power
from .incidence import Unital, carries_blocks, restrict_to, validate_unital
from .permgroup import (
    Perm,
    is_transitive,
    is_two_transitive,
    perm_order,
    restrict_group,
    restrict_perm,
)
from .plane import (
    MAX_PLANE_POINTS,
    ProjectivePlane,
    dot,
    frobenius_perm,
    hermitian_isomorphism,
    line_through,
    polar_unital,
    projective_plane,
)
from .translations import TranslationAtlas

__all__ = [
    "FigPlane",
    "FigueroaBundle",
    "build_figueroa_plane",
    "build_fig_polarity",
    "figueroa_bundle",
    "FigueroaVerification",
    "verify_figueroa_theorems",
    "TYPE_I",
    "TYPE_II",
    "TYPE_III",
]

TYPE_I = "I"
TYPE_II = "II"
TYPE_III = "III"


class FigPlane(NamedTuple):
    """The twisted plane, with the classical scaffolding kept around."""

    q: int
    order: int  # q**6
    classical: ProjectivePlane
    alpha_point: Perm  # x -> x^(q^2), coordinatewise; the same map on line triples
    # Points and lines share their triples, so these serve lines too: a
    # line's type, and μ of a type-III line as a classical point index.
    point_type: tuple[str, ...]
    mu_point: tuple[int, ...]  # type-III point -> classical line index (-1 else)
    points_on: tuple[tuple[int, ...], ...]  # twisted incidence
    lines_through: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.classical.points)


def _classify(plane: ProjectivePlane, alpha: Perm) -> tuple[list[str], list[int]]:
    """Type tags and μ images for all points.  Points and lines share their
    triples, and the meet of two lines is the triple ``line_through`` gives,
    so the same lists are the type tags and μ images of the lines."""
    F = plane.field
    triples = plane.points
    types: list[str] = []
    mu: list[int] = []
    for i, t in enumerate(triples):
        a = alpha[i]
        if a == i:
            types.append(TYPE_I)
            mu.append(-1)
            continue
        carrier = line_through(F, triples[a], triples[alpha[a]])
        # for a point: is α²P on the line through P, αP?  (equivalently the
        # line through αP, α²P passes through P)  dually for lines.
        if dot(F, t, carrier) == 0:
            types.append(TYPE_II)
            mu.append(-1)
        else:
            types.append(TYPE_III)
            mu.append(plane.index[carrier])
    return types, mu


def _twist_incidence(plane: ProjectivePlane, types: list[str],
                     mu: list[int]) -> list[tuple[int, ...]]:
    """Twisted point lists per line: replace the type-III points of every
    type-III line by the points the μ maps dictate.  ``types`` and ``mu``
    serve points and lines alike (see ``_classify``)."""
    pts_by_mu: dict[int, list[int]] = {}
    for pid, L in enumerate(mu):
        if L >= 0:
            pts_by_mu.setdefault(L, []).append(pid)

    out: list[tuple[int, ...]] = []
    for lid, pts in enumerate(plane.points_on):
        if types[lid] != TYPE_III:
            out.append(pts)
            continue
        kept = [pid for pid in pts if types[pid] != TYPE_III]
        for L in plane.lines_through[mu[lid]]:
            kept.extend(pts_by_mu.get(L, ()))
        out.append(tuple(sorted(kept)))
    return out


def _validate_plane(points_on: list[tuple[int, ...]], n: int, size: int,
                    quadrangle: tuple[int, int, int, int]) -> list[tuple[int, ...]]:
    """Exhaustive projective-plane axioms of order n; returns the transpose.

    Lines have n+1 points, points lie on n+1 lines, and the lines through
    each point hold all n²+n+1 points: n points each besides the common one,
    so they cannot overlap, and two points lie on exactly one line.  The
    cover is the OR of the lines' bitmasks (bit i for point i), compared
    with the all-ones mask.  The dual axiom follows, as in every symmetric
    design.
    """
    if len(points_on) != size or size != n * n + n + 1:
        raise ArithmeticError(f"expected {n*n+n+1} lines, found {len(points_on)}")
    through: list[list[int]] = [[] for _ in range(size)]
    masks: list[int] = []
    for lid, pts in enumerate(points_on):
        if len(pts) != n + 1:
            raise ArithmeticError(f"line {lid} has {len(pts)} points, expected {n+1}")
        mask = 0
        for pid in pts:
            through[pid].append(lid)
            mask |= 1 << pid
        masks.append(mask)
    full = (1 << size) - 1
    for pid, ls in enumerate(through):
        if len(ls) != n + 1:
            raise ArithmeticError(f"point {pid} lies on {len(ls)} lines, expected {n+1}")
        cover = 0
        for lid in ls:
            cover |= masks[lid]
        if cover != full:
            raise ArithmeticError(f"the lines through point {pid} meet again")

    sets = {x: frozenset(through[x]) for x in quadrangle}
    a, b, c, d = quadrangle
    for x, y, z in ((a, b, c), (a, b, d), (a, c, d), (b, c, d)):
        if sets[x] & sets[y] & sets[z]:
            raise ArithmeticError(f"quadrangle degenerate: {x},{y},{z} collinear")
    return [tuple(ls) for ls in through]


def build_figueroa_plane(q: int) -> FigPlane:
    """Construct and fully validate the twisted plane of order q⁶."""
    size = q**12 + q**6 + 1
    if size > MAX_PLANE_POINTS:
        raise ValueError(f"the twisted plane for q = {q} has {size} points; "
                         f"at most {MAX_PLANE_POINTS} can be built")
    p, e = prime_power(q)
    F = make_field(p, 6 * e)
    plane = projective_plane(F)
    alpha = frobenius_perm(plane, 2 * e)

    if perm_order(alpha) != 3:
        raise ArithmeticError("the twisting map does not have order 3")

    types, mu = _classify(plane, alpha)
    points_on = _twist_incidence(plane, types, mu)
    quad = tuple(plane.index[t] for t in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
    lines_through = _validate_plane(points_on, F.order, size, quad)

    fig = FigPlane(
        q=q,
        order=F.order,
        classical=plane,
        alpha_point=alpha,
        point_type=tuple(types),
        mu_point=tuple(mu),
        points_on=tuple(points_on),
        lines_through=tuple(lines_through),
    )

    # α must still be a collineation after the twist.
    for lid, pts in enumerate(points_on):
        if tuple(sorted(alpha[pid] for pid in pts)) != points_on[alpha[lid]]:
            raise ArithmeticError("the twisting map is not a collineation")
    return fig


def build_fig_polarity(fig: FigPlane) -> Perm:
    """The point↔line correspondence x ↦ x^{q³}, verified to be a polarity.

    Points and lines share their indices, and the correspondence is an
    involution, so the one permutation maps points to lines and back.

    Verification is exhaustive: involutory on every element, commuting with
    the twisting map, and incidence-reversing on every point/line pair (the
    pair check is organized row by row — for each point, the set of its
    lines must map exactly onto the polar point sets — which covers all
    size² pairs).  Any failure aborts with a diagnostic.
    """
    plane = fig.classical
    p, e = prime_power(fig.q)
    sigma = frobenius_perm(plane, 3 * e)
    size = fig.size

    alpha = fig.alpha_point
    for i in range(size):
        if sigma[sigma[i]] != i:
            raise ArithmeticError(f"correspondence is not involutory at {i}")
        if sigma[alpha[i]] != alpha[sigma[i]]:
            raise ArithmeticError(f"correspondence does not commute with the twisting map at {i}")

    for pid in range(size):
        expected = frozenset(fig.lines_through[pid])
        got = frozenset(sigma[qid] for qid in fig.points_on[sigma[pid]])
        if expected != got:
            raise ArithmeticError(
                f"incidence reversal fails at point {pid}: "
                f"pencil {sorted(expected)[:4]}... vs polar image {sorted(got)[:4]}..."
            )
    return sigma


class FigueroaBundle(NamedTuple):
    """The polar unital with its provenance in the twisted plane."""

    q: int
    plane: FigPlane
    polarity: Perm  # point -> line and line -> point, from build_fig_polarity
    unital: Unital
    plane_points: tuple[int, ...]  # unital point -> plane point index
    point_types: tuple[str, ...]  # unital point -> I/II/III
    block_lines: tuple[int, ...]  # unital block -> plane line index
    hermitian_points: tuple[int, ...]  # unital indices of the type-I points
    alpha_unital: Perm  # twisting map restricted to the unital points


@lru_cache(maxsize=None)
def figueroa_bundle(q: int = 2) -> FigueroaBundle:
    fig = build_figueroa_plane(q)
    pol = build_fig_polarity(fig)
    order = q**3
    U, absolute, block_lines = polar_unital(fig.lines_through, pol, order)
    rep = validate_unital(U, order)
    if not rep.valid:
        raise ArithmeticError(f"absolute points do not form a unital: {rep.violations}")

    alpha_u = restrict_perm(fig.alpha_point, absolute)
    if alpha_u is None:
        raise ArithmeticError("twisting map does not preserve the absolute points")

    types = tuple(fig.point_type[pid] for pid in absolute)
    herm = tuple(i for i, t in enumerate(types) if t == TYPE_I)
    return FigueroaBundle(
        q=q,
        plane=fig,
        polarity=pol,
        unital=U,
        plane_points=absolute,
        point_types=types,
        block_lines=block_lines,
        hermitian_points=herm,
        alpha_unital=alpha_u,
    )


class FigueroaVerification(NamedTuple):
    """Everything the translation atlas of the polar unital must satisfy."""

    q: int
    center_count: int
    omega2_equals_h: bool
    mho_is_complement: bool
    all_translations_involutions: bool
    per_center_orders_on_h: tuple[int, ...]
    t2_order_on_h: int
    t2_transitive_on_h: bool
    t2_two_transitive_on_h: bool
    h_invariant_under_translations: bool
    subunital_isomorphic_to_hermitian: bool
    alpha_is_unital_automorphism: bool
    alpha_order_on_unital: int
    alpha_trivial_on_centers: bool

    @property
    def ok(self) -> bool:
        return (
            self.omega2_equals_h
            and self.mho_is_complement
            and self.all_translations_involutions
            and all(o == self.q for o in self.per_center_orders_on_h)
            and self.t2_transitive_on_h
            and self.h_invariant_under_translations
            and self.subunital_isomorphic_to_hermitian
            and self.alpha_is_unital_automorphism
            and self.alpha_order_on_unital == 3
            and self.alpha_trivial_on_centers
        )


def verify_figueroa_theorems(bundle: FigueroaBundle,
                             atlas: TranslationAtlas) -> FigueroaVerification:
    """Check the translation structure of the polar unital, read off its
    atlas, against its predicted shape: involutions only, centers exactly
    the subplane points, the generated group of order-q acting transitively
    (its restriction to the subunital is also tested for two-transitivity
    and the result reported), the subplane points invariant, and the
    twisting map an order-3 unital automorphism acting trivially on the
    centers."""
    q = bundle.q
    U = bundle.unital
    H = frozenset(bundle.hermitian_points)
    omega2 = atlas.centers_by_order.get(2, frozenset())

    per_center = tuple(len(atlas.orders[c]) + 1 for c in sorted(H))

    h_invariant = all(restrict_perm(p, H) is not None
                      for c in range(U.v) for p, _ in atlas.group(c))

    if h_invariant and omega2:
        T2h = restrict_group(atlas.group_for(2), H)
        t2_order = T2h.order()
        transitive = is_transitive(T2h)
        two_transitive = is_two_transitive(T2h)
    else:
        t2_order = 0
        transitive = False
        two_transitive = False

    order, iso = hermitian_isomorphism(restrict_to(U, H))

    alpha = bundle.alpha_unital
    alpha_auto = carries_blocks(U, alpha, U)
    alpha_ord = perm_order(alpha)
    alpha_trivial_on_centers = all(alpha[x] == x for x in omega2)

    return FigueroaVerification(
        q=q,
        center_count=len(omega2),
        omega2_equals_h=omega2 == H,
        mho_is_complement=atlas.trivial_centers == frozenset(range(U.v)) - H,
        all_translations_involutions=all(n == 2 for orders in atlas.orders for n in orders),
        per_center_orders_on_h=per_center,
        t2_order_on_h=t2_order,
        t2_transitive_on_h=transitive,
        t2_two_transitive_on_h=two_transitive,
        h_invariant_under_translations=h_invariant,
        subunital_isomorphic_to_hermitian=order == q and iso is not None,
        alpha_is_unital_automorphism=alpha_auto,
        alpha_order_on_unital=alpha_ord,
        alpha_trivial_on_centers=alpha_trivial_on_centers,
    )
