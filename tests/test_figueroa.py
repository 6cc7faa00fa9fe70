"""Checks for the twisted-plane construction and its polar design."""

import pytest

from helpers import type_counts, validate_plane_raw
from unitals.figueroa import (
    _validate_plane,
    build_figueroa_plane,
    figueroa_bundle,
    verify_figueroa_theorems,
)
from unitals.gf import make_field
from unitals.incidence import onan_search, restrict_to, validate_unital
from unitals.permgroup import perm_order
from unitals.plane import hermitian_isomorphism, projective_plane

TYPE_COUNTS = {"I": 21, "II": 1260, "III": 2880}


def quadrangle(plane):
    return tuple(plane.index[t] for t in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))


class TestPlaneCheck:
    """``_validate_plane`` against the pairwise brute force it replaced."""

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
    def test_agrees_on_desarguesian_planes(self, p, e):
        plane = projective_plane(make_field(p, e))
        args = (list(plane.points_on), plane.order, len(plane.points), quadrangle(plane))
        through = _validate_plane(*args)
        assert through == validate_plane_raw(*args)
        assert through == list(plane.lines_through)

    def test_agrees_on_the_twisted_plane(self, fig):
        plane = fig.plane
        args = (list(plane.points_on), plane.order, plane.size, quadrangle(plane.classical))
        through = _validate_plane(*args)
        assert through == validate_plane_raw(*args)
        assert through == list(plane.lines_through)

    # PG(2, 3) has 13 points; PG(2, 8) and PG(2, 16) have 73 and 273, more
    # than a machine word of mask bits
    corrupted_planes = pytest.mark.parametrize("p,e", [(3, 1), (2, 3), (2, 4)])

    @staticmethod
    def broken(p, e, change, match, quad=None):
        """PG(2, p^e) with ``change`` applied to its lines must be rejected by
        the check, with ``match`` in the message, and by the brute force."""
        plane = projective_plane(make_field(p, e))
        lines = [list(pts) for pts in plane.points_on]
        change(lines)
        args = ([tuple(sorted(pts)) for pts in lines], plane.order, len(plane.points),
                quad or quadrangle(plane))
        with pytest.raises(ArithmeticError, match=match):
            _validate_plane(*args)
        with pytest.raises(ArithmeticError):
            validate_plane_raw(*args)

    @corrupted_planes
    def test_rejects_a_short_line(self, p, e):
        self.broken(p, e, lambda lines: lines[0].pop(), f"line 0 has {p**e} points")

    @staticmethod
    def swap_a_point(a, b):
        """Lines a and b trade a point each; sizes and degrees stay the same,
        and only the cover of a pencil fails."""
        x = next(pid for pid in a if pid not in b)
        y = next(pid for pid in b if pid not in a)
        a[a.index(x)], b[b.index(y)] = y, x

    @corrupted_planes
    def test_rejects_two_lines_swapping_a_point(self, p, e):
        self.broken(p, e, lambda lines: self.swap_a_point(lines[0], lines[1]), "meet again")

    @corrupted_planes
    def test_rejects_the_highest_lines_swapping_a_point(self, p, e):
        # on PG(2, 16) every point a pencil then misses lies past bit 63, so
        # a cover packed into, or compared on, one machine word passes it
        self.broken(p, e, lambda lines: self.swap_a_point(*sorted(lines, key=min)[-2:]),
                    "meet again")

    @corrupted_planes
    def test_rejects_a_point_moved_off_its_line(self, p, e):
        def move(lines):
            lines[0][0] = next(pid for pid in range(len(lines)) if pid not in lines[0])
        self.broken(p, e, move, f"point 0 lies on {p**e + 2} lines")

    @corrupted_planes
    def test_rejects_a_degenerate_quadrangle(self, p, e):
        plane = projective_plane(make_field(p, e))
        line = plane.points_on[0]
        off = next(pid for pid in range(len(plane.points)) if pid not in line)
        self.broken(p, e, lambda lines: None, "collinear", quad=(*line[:3], off))


class TestPlane:
    def test_type_counts(self, fig):
        plane = fig.plane
        assert type_counts(plane) == TYPE_COUNTS  # lines too: they share the triples

    def test_orbit_structure(self, fig):
        plane = fig.plane
        fixed = [P for P in range(4161) if plane.alpha_point[P] == P]
        assert len(fixed) == 21
        assert all(plane.point_type[P] == "I" for P in fixed)
        # everything else falls into 3-cycles, so the other classes are
        # unions of orbits
        assert TYPE_COUNTS["II"] % 3 == 0 and TYPE_COUNTS["III"] % 3 == 0
        assert perm_order(plane.alpha_point) == 3

    def test_mu_pairs_points_with_lines(self, fig):
        plane = fig.plane
        third = [P for P in range(4161) if plane.point_type[P] == "III"]
        assert len(third) == 2880
        for P in range(4161):
            if plane.point_type[P] != "III":
                assert plane.mu_point[P] == -1
        for P in third:
            L = plane.mu_point[P]
            assert plane.point_type[L] == "III"
            assert plane.mu_point[L] == P  # μ of the line L is P again
            # naturality with respect to the twisting collineation
            assert plane.mu_point[plane.alpha_point[P]] == plane.alpha_point[L]

    def test_twist_touches_only_third_type_lines(self, fig):
        plane = fig.plane
        classical = plane.classical
        for L in range(4161):
            same = frozenset(plane.points_on[L]) == frozenset(classical.points_on[L])
            assert same == (plane.point_type[L] != "III")
            assert len(plane.points_on[L]) == 65

    def test_rebuild_matches_cached_bundle(self, fig):
        plane = build_figueroa_plane(2)
        assert plane.points_on == fig.plane.points_on

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError):
            build_figueroa_plane(6)
        # small enough for the size bound, so the factorization rejects it
        with pytest.raises(ValueError, match="1 is not a prime power"):
            build_figueroa_plane(1)


class TestPolarity:
    def test_involutory(self, fig):
        pol = fig.polarity
        n = len(pol)
        assert sorted(pol) == list(range(n))
        assert all(pol[pol[P]] == P for P in range(n))

    def test_commutes_with_twisting_collineation(self, fig):
        plane, pol = fig.plane, fig.polarity
        for P in range(4161):
            assert pol[plane.alpha_point[P]] == plane.alpha_point[pol[P]]

    def test_reverses_incidence(self, fig):
        plane, pol = fig.plane, fig.polarity
        for P in range(0, 4161, 97):
            for L in plane.lines_through[P]:
                assert pol[L] in plane.points_on[pol[P]]

    def test_absolute_points(self, fig):
        plane, pol = fig.plane, fig.polarity
        absolute = [
            P for P in range(4161) if pol[P] in plane.lines_through[P]
        ]
        assert len(absolute) == 513
        assert absolute == list(fig.plane_points)


class TestUnital:
    def test_parameters(self, fig):
        U = fig.unital
        assert (U.v, len(U.blocks)) == (513, 3648)
        assert all(len(b) == 9 for b in U.blocks)
        assert U.q == 8
        assert validate_unital(U, 8).valid

    def test_convenience_constructor(self, fig):
        assert figueroa_bundle(2).unital.blocks == fig.unital.blocks

    def test_block_lines_carry_the_blocks(self, fig):
        plane = fig.plane
        to_unital = {pid: i for i, pid in enumerate(fig.plane_points)}
        for bid in range(0, 3648, 193):
            L = fig.block_lines[bid]
            trace = sorted(to_unital[p] for p in plane.points_on[L] if p in to_unital)
            assert tuple(trace) == fig.unital.blocks[bid]

    def test_hermitian_point_set(self, fig):
        assert fig.hermitian_points == (0, 5, 6, 9, 464, 465, 504, 509, 510)
        assert all(fig.point_types[i] == "I" for i in fig.hermitian_points)

    def test_restriction_is_hermitian(self, fig):
        sub = restrict_to(fig.unital, fig.hermitian_points)
        assert (sub.v, len(sub.blocks)) == (9, 12)
        assert all(len(b) == 3 for b in sub.blocks)
        order, iso = hermitian_isomorphism(sub)
        assert order == 2 and iso is not None

    def test_twisting_collineation_acts_on_unital(self, fig):
        alpha = fig.alpha_unital
        assert perm_order(alpha) == 3
        block_sets = set(fig.unital.block_sets)
        for bs in block_sets:
            assert frozenset(alpha[x] for x in bs) in block_sets


class TestTheorems:
    def test_full_report(self, fig, fig_atlas):
        rep = verify_figueroa_theorems(fig, fig_atlas)
        assert rep.ok
        assert rep.center_count == 9
        assert rep.omega2_equals_h and rep.mho_is_complement
        assert rep.all_translations_involutions
        assert rep.per_center_orders_on_h == (2,) * 9
        assert rep.t2_order_on_h == 18
        assert rep.t2_transitive_on_h
        assert not rep.t2_two_transitive_on_h
        assert rep.h_invariant_under_translations
        assert rep.subunital_isomorphic_to_hermitian
        assert rep.alpha_is_unital_automorphism
        assert rep.alpha_order_on_unital == 3
        assert rep.alpha_trivial_on_centers

    def test_subunital_is_compared_with_the_hermitian_unital_of_order_q(self, fig, fig_atlas):
        # the type-I points carry H(2); read against q = 3 the check must fail
        rep = verify_figueroa_theorems(fig._replace(q=3), fig_atlas)
        assert not rep.subunital_isomorphic_to_hermitian and not rep.ok

    def test_most_points_have_no_translation(self, fig, fig_atlas):
        assert len(fig_atlas.trivial_centers) == 504
        assert fig_atlas.trivial_centers == frozenset(range(513)) - set(
            fig.hermitian_points
        )

    def test_doubled_quadrilateral_witness(self, fig):
        res = onan_search(fig.unital)
        assert res.status == "witness"
        assert res.blocks == (0, 2, 65, 244)
        assert res.points == (0, 1, 3, 10, 115, 421)
        # verify the configuration directly against the incidence structure:
        # four blocks, every two meeting in one of six points, each point on
        # exactly two of the four blocks
        sets = [set(fig.unital.blocks[b]) for b in res.blocks]
        meets = []
        for i in range(4):
            for j in range(i + 1, 4):
                common = sets[i] & sets[j]
                assert len(common) == 1
                meets.append(next(iter(common)))
        assert sorted(meets) == list(res.points)
        assert len(set(meets)) == 6
