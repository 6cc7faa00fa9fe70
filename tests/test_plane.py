import random

import pytest

from helpers import DOUBLE_TXT, MISSING_TXT, ag23_unital, plane_incidence_raw, relabel
from unitals.gf import make_field
from unitals.incidence import (
    Incidence,
    isomorphism_search,
    parse_unital,
    restrict_to,
    validate_unital,
)
from unitals.plane import (
    frobenius_perm,
    hermitian_isomorphism,
    hermitian_unital,
    line_through,
    normalize,
    polar_unital,
    projective_plane,
)


def unitary(q):
    """PG(2, q²) and its unitary polarity x ↦ x^q, as a point → line map."""
    p, m = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}[q]
    plane = projective_plane(make_field(p, 2 * m))
    return plane, frobenius_perm(plane, m)


def test_plane_counts():
    for order in (2, 3, 4):
        plane = projective_plane(make_field(*{2: (2, 1), 3: (3, 1), 4: (2, 2)}[order]))
        n = order
        assert len(plane.points) == n * n + n + 1
        assert all(len(pts) == n + 1 for pts in plane.points_on)
        assert all(len(ls) == n + 1 for ls in plane.lines_through)


# both characteristics, prime and extension fields: every line shape
# (1, b, c), (0, 1, c) and (0, 0, 1), with c and b zero and non-zero, occurs
@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                 (3, 2), (2, 4), (5, 2)])
def test_incidence_matches_brute_force(p, e):
    F = make_field(p, e)
    plane = projective_plane(F)
    triples, lines = plane_incidence_raw(F)
    assert plane.points == triples
    assert plane.points_on == lines
    assert plane.lines_through is plane.points_on
    # one int object per point id, however many lines hold it
    assert len({id(pid) for pts in plane.points_on for pid in pts}) == len(triples)


def test_two_points_one_line():
    F = make_field(3, 1)
    plane = projective_plane(F)
    for p in range(len(plane.points)):
        for q in range(p + 1, len(plane.points)):
            lid = plane.index[line_through(F, plane.points[p], plane.points[q])]
            assert p in plane.points_on[lid] and q in plane.points_on[lid]
            # uniqueness: no other line holds both
            others = [
                l for l in plane.lines_through[p] if l != lid and q in plane.points_on[l]
            ]
            assert others == []


def test_line_through_meet_are_dual():
    F = make_field(2, 2)
    P, Q = (1, 0, 0), (0, 1, 0)
    l = line_through(F, P, Q)
    assert l == (0, 0, 1)
    m = line_through(F, (0, 0, 1), (0, 1, 0))
    assert m == (1, 0, 0)
    with pytest.raises(ValueError):
        line_through(F, P, P)


def test_normalize():
    F = make_field(3, 1)
    assert normalize(F, (2, 1, 0)) == (1, 2, 0)
    assert normalize(F, (0, 2, 2)) == (0, 1, 1)
    with pytest.raises(ValueError):
        normalize(F, (0, 0, 0))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_unitary_polarity_is_involutory(q):
    plane, sigma = unitary(q)
    for pid in range(len(plane.points)):
        assert sigma[sigma[pid]] == pid


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_absolute_point_count(q):
    plane, sigma = unitary(q)
    F = plane.field
    # the hermitian form x0^(q+1) + x1^(q+1) + x2^(q+1), computed directly
    absolute = [
        t for t in plane.points
        if F.add(F.add(F.pow(t[0], q + 1), F.pow(t[1], q + 1)), F.pow(t[2], q + 1)) == 0
    ]
    assert len(absolute) == q**3 + 1
    # absolute means: the point lies on its own polar line
    for t in absolute:
        pid = plane.index[t]
        assert pid in plane.points_on[sigma[pid]]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_polar_unital_blocks_are_the_line_traces(q):
    plane, sigma = unitary(q)
    U, absolute, block_lines = polar_unital(plane.lines_through, sigma, q)
    # every line of the plane intersected with the absolute points
    index = {pid: i for i, pid in enumerate(absolute)}
    traces = sorted((tuple(index[p] for p in pts if p in index), lid)
                    for lid, pts in enumerate(plane.points_on))
    traces = [(t, lid) for t, lid in traces if len(t) > 1]
    assert U.blocks == tuple(t for t, _ in traces)
    assert block_lines == tuple(lid for _, lid in traces)


def test_polar_unital_rejects_a_correlation_that_is_not_unitary():
    plane, _ = unitary(3)
    # x ↦ [x]: the absolute points are the conic x·x = 0, 10 of them
    identity = tuple(range(len(plane.points)))
    with pytest.raises(ArithmeticError, match="^10 absolute points, expected 28$"):
        polar_unital(plane.lines_through, identity, 3)


@pytest.mark.parametrize(
    "q,v,b", [(2, 9, 12), (3, 28, 63), (4, 65, 208), (5, 126, 525)]
)
def test_hermitian_parameters(q, v, b):
    U = hermitian_unital(q)
    assert U.v == v
    assert len(U.blocks) == b
    assert all(len(blk) == q + 1 for blk in U.blocks)
    assert validate_unital(U, q).valid


def test_hermitian_order_two_is_affine_plane_of_order_three(h2):
    # independent reference: AG(2, 3) built from zero-sum triples over GF(3)²
    iso = isomorphism_search(h2, ag23_unital())
    assert iso is not None


def test_nonsquare_order_rejected():
    with pytest.raises(ValueError):
        hermitian_unital(6)


def shuffled(U, seed):
    perm = list(range(U.v))
    random.Random(seed).shuffle(perm)
    return relabel(U, perm)


@pytest.mark.parametrize("case", ["h2", "h3", "h4", "h5", "h3r", "h4r", "ag23", "fig-type-I"])
def test_hermitian_isomorphism_searches_the_hermitian_unital_of_its_order(case, request):
    if case == "ag23":
        D, s = ag23_unital(), 2
    elif case == "fig-type-I":
        fig = request.getfixturevalue("fig")
        D, s = restrict_to(fig.unital, fig.hermitian_points), 2
    else:
        s = int(case[1])
        D = request.getfixturevalue(case[:2])
        if case.endswith("r"):
            D = shuffled(D, s)
    order, iso = hermitian_isomorphism(D)
    assert (order, iso) == (s, isomorphism_search(D, hermitian_unital(s)))
    assert iso is not None


def test_hermitian_isomorphism_refuses_what_is_not_a_unital(h2, h3):
    mixed = Incidence(h2.v, [*h2.blocks[:-1], h2.blocks[-1][:2]])
    cases = [
        parse_unital(DOUBLE_TXT),  # v = 2³ + 1 and blocks of 3, but a pair on two blocks
        parse_unital(MISSING_TXT),  # the same parameters, pairs on no block
        mixed,  # blocks of 3 and one of 2
        restrict_to(h3, h3.blocks[0]),  # one block of 4 on 4 points, not 3³ + 1
    ]
    for D in cases:
        assert hermitian_isomorphism(D) == (None, None)
