import pytest

from helpers import ag23_unital
from unitals.gf import make_field
from unitals.incidence import isomorphism_search, validate_unital
from unitals.plane import (
    hermitian_unital,
    line_through,
    meet,
    normalize,
    projective_plane,
    unitary_polarity,
)


def test_plane_counts():
    for order in (2, 3, 4):
        plane = projective_plane(make_field(*{2: (2, 1), 3: (3, 1), 4: (2, 2)}[order]))
        n = order
        assert len(plane.points) == n * n + n + 1
        assert all(len(pts) == n + 1 for pts in plane.points_on)
        assert all(len(ls) == n + 1 for ls in plane.lines_through)


def test_two_points_one_line():
    F = make_field(3, 1)
    plane = projective_plane(F)
    for p in range(len(plane.points)):
        for q in range(p + 1, len(plane.points)):
            lid = plane.index[line_through(F, plane.points[p], plane.points[q])]
            assert p in plane.points_on[lid] and q in plane.points_on[lid]
            # uniqueness: no other line holds both
            others = [
                l for l in plane.lines_through[p] if l != lid and q in plane._line_sets[l]
            ]
            assert others == []


def test_line_through_meet_are_dual():
    F = make_field(2, 2)
    P, Q = (1, 0, 0), (0, 1, 0)
    l = line_through(F, P, Q)
    assert l == (0, 0, 1)
    m = meet(F, (0, 0, 1), (0, 1, 0))
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
    pol = unitary_polarity(q)
    plane = projective_plane(pol.field)
    for pid in range(len(plane.points)):
        l = pol.point_to_line(plane.points[pid])
        assert pol.point_to_line(l) == plane.points[pid]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_absolute_point_count(q):
    pol = unitary_polarity(q)
    plane = projective_plane(pol.field)
    absolute = [t for t in plane.points if pol.is_absolute(t)]
    assert len(absolute) == q**3 + 1
    # absolute means: the point lies on its own polar line
    for t in absolute:
        lid = plane.index[pol.point_to_line(t)]
        assert plane.index[t] in plane.points_on[lid]


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
