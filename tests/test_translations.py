import random

import pytest

from helpers import (
    DOUBLE_TXT,
    MISSING_TXT,
    ag23_corrupted,
    ag23_doubled,
    ag23_unital,
    agl23_elements,
    is_translation_raw,
    pointwise_stabilizer,
    relabel,
    search_translations_raw,
    translations_raw,
)
from unitals.incidence import Unital, parse_unital
from unitals.plane import projective_plane
from unitals.gf import make_field, prime_power
from unitals.permgroup import (
    compose,
    conjugate,
    fixed_points,
    identity_perm,
    inverse,
    perm_order,
)
from unitals.translations import (
    TranslationAtlas,
    build_atlas,
    is_translation,
    orbit_congruence_check,
    smallest_prime_factor,
    translation_transitivity_check,
    translations_at,
)


def test_smallest_prime_factor():
    assert smallest_prime_factor(2) == 2
    assert smallest_prime_factor(9) == 3
    assert smallest_prime_factor(35) == 5
    assert smallest_prime_factor(13) == 13
    with pytest.raises(ValueError):
        smallest_prime_factor(1)


def test_search_agrees_with_brute_force_over_affine_group():
    """Oracle: filter the full affine group AGL(2,3) by the raw definition.

    The unital of order 2 on GF(3)² has AGL(2,3) among its automorphisms;
    every translation of this design is an affine map (the design's full
    automorphism group is 2-transitive of order 432 = |AGL(2,3)|), so
    filtering all 432 maps yields the complete translation group at any
    center, independently of the search under test.
    """
    U = ag23_unital()
    affine = agl23_elements()
    for c in (0, 4, 8):
        expected = sorted(g for g in affine if is_translation(U, g, c))
        assert translations_at(U, c) == expected
        assert len(expected) == 2


def test_is_translation_raw_definition(h2, atlas2):
    ident = identity_perm(9)
    for c in range(9):
        assert is_translation(h2, ident, c)
        sigma = atlas2.nontrivial[c][0]
        assert is_translation(h2, sigma, c)
        # moving the center is disqualifying
        other = next(x for x in range(9) if sigma[x] != x and x != c)
        assert not is_translation(h2, sigma, other)
    # a transposition is not an automorphism of the design
    assert not is_translation(h2, (1, 0, 2, 3, 4, 5, 6, 7, 8), 2)
    with pytest.raises(ValueError):
        is_translation(h2, (0, 0, 2, 3, 4, 5, 6, 7, 8), 0)


def test_translations_form_a_group(atlas2, atlas3):
    for atlas in (atlas2, atlas3):
        v = atlas.unital.v
        for c in range(v):
            group = set(atlas.nontrivial[c]) | {identity_perm(v)}
            for a in group:
                assert inverse(a) in group
                for b in group:
                    assert compose(a, b) in group


def test_fixed_points_are_exactly_the_center(atlas3):
    for c in range(28):
        for sigma in atlas3.nontrivial[c]:
            assert fixed_points(sigma) == (c,)


def test_orders_are_characteristic_powers(atlas2, atlas3, atlas4, atlas5):
    for atlas in (atlas2, atlas3, atlas4, atlas5):
        p, _ = prime_power(atlas.unital.q)
        for perms in atlas.nontrivial:
            for sigma in perms:
                n = perm_order(sigma)
                while n % p == 0:
                    n //= p
                assert n == 1


@pytest.mark.parametrize(
    "q,per_center,total_orders",
    [(2, 2, {2: 9}), (3, 3, {3: 28}), (4, 4, {2: 65}), (5, 5, {5: 126})],
)
def test_translation_group_sizes(q, per_center, total_orders, request):
    atlas = request.getfixturevalue(f"atlas{q}")
    assert all(len(perms) + 1 == per_center for perms in atlas.nontrivial)
    assert {n: len(s) for n, s in atlas.centers_by_order.items()} == total_orders
    assert atlas.trivial_centers == frozenset()


def test_hermitian_order_four_has_no_order_four_translation(atlas4):
    # the per-center groups have order 4 but every nontrivial element is an
    # involution (elementary abelian), so no translation of order 4 exists
    assert 4 not in atlas4.centers_by_order
    assert list(atlas4.centers_by_order) == [2]


def test_generated_group_orders(atlas2, atlas3, atlas4):
    assert atlas2.group_for(2).order() == 18
    assert atlas3.group_for(3).order() == 6048
    assert atlas4.group_for(2).order() == 62400


def test_two_point_stabilizer_structure(atlas3):
    G = atlas3.group_for(3)
    elements = pointwise_stabilizer(G, (0, 1))
    assert len(elements) == 8
    # Q is cyclic of order 8: exactly one involution, which is central and so
    # inverts only the elements of order at most 2
    assert sorted(perm_order(g) for g in elements) == [1, 2, 4, 4, 8, 8, 8, 8]
    (t,) = [g for g in elements if perm_order(g) == 2]
    assert [perm_order(g) for g in elements
            if compose(compose(t, g), t) == inverse(g)] == [1, 2]


def pg_design(q: int) -> Unital:
    """PG(2, q) read as a design of lines."""
    plane = projective_plane(make_field(*prime_power(q)))
    return Unital(len(plane.points_on), plane.points_on, q)


def test_search_matches_brute_force_oracle(h2):
    """The oracle tries every map that permutes the points of each block
    through the center among themselves.  In a projective plane every
    translation but the identity fixes each point of its axis, so the search
    must not assume that a translation fixing a second point is the
    identity; and every line meets every line through the center, so each
    block through a hub has several candidate images."""
    for U in (h2, ag23_unital(), pg_design(2), pg_design(3)):
        for c in range(U.v):
            if U.v == 9:
                assert [len(U.blocks[bid]) for bid in U.pencil(c)] == [3] * 4  # 2!^4 maps
            assert translations_at(U, c) == translations_raw(U, c)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_translations_of_a_projective_plane_are_its_central_collineations(q):
    """The collineations of PG(2, q) fixing every line through a point c are
    its perspectivities with center c: besides the identity, q² − 1
    elations, each fixing its axis (a line through c) and nothing else, and
    q²(q − 2) homologies, each fixing c and its axis (a line not through c)."""
    group = translations_at(pg_design(q), 0)
    assert len(group) == q * q * (q - 1)
    assert sum(len(fixed_points(p)) == q + 1 for p in group) == q * q - 1


def test_branches_are_pruned_on_a_projective_plane():
    """Every line of PG(2, 8) through a hub meets every line through the
    center, so each block of a star has eight candidate images.  A branch is
    dropped once two mapped points of another block have images that no
    block of its signature joins; without that check the search at one
    center reads the pair table about 1.23 M times instead of 235,000."""
    U = pg_design(8)
    reads = 0

    class CountingTable(list):
        def __getitem__(self, i):
            nonlocal reads
            reads += 1
            return list.__getitem__(self, i)

    U.__dict__["pair_table"] = CountingTable(U.pair_table)
    assert len(translations_at(U, 0)) == 448
    assert reads < 500_000


def test_search_matches_brute_force_on_partial_linear_spaces(h2):
    """H(2) with each block not through the center kept with probability
    one half, relabelled.  With blocks gone, a translation can fix points
    besides the center, and a point can share a block with no mapped point."""
    fixing = 0
    for seed in range(200):
        rng = random.Random(seed)
        c = rng.randrange(9)
        blocks = [blk for blk in h2.blocks if c in blk or rng.random() < 0.5]
        g = list(range(9))
        rng.shuffle(g)
        U = relabel(Unital(9, blocks, 2), g)
        group = translations_at(U, g[c])
        assert group == translations_raw(U, g[c])
        fixing += any(len(fixed_points(p)) > 1 for p in group[1:])
    assert fixing > 0


@pytest.mark.parametrize("design", ["h2", "h3"])
def test_stars_with_several_images_are_branched(design, request, monkeypatch):
    """With every block given the same signature, each block through a hub
    has several candidate images, and only branching over all of them finds
    every translation."""
    import unitals.translations as tr

    U = request.getfixturevalue(design)
    monkeypatch.setattr(tr, "_line_signature", lambda line_of, blk: frozenset())
    ident = identity_perm(U.v)
    for c in range(U.v):
        assert translations_at(U, c) == sorted({ident, *search_translations_raw(U, c)})


def test_relabeling_conjugates_translations(h3, atlas3):
    g = tuple((11 * i + 7) % 28 for i in range(28))
    assert sorted(g) == list(range(28))
    other = relabel(h3, g)
    for c in (0, 13):
        expected = sorted(conjugate(sigma, g) for sigma in atlas3.nontrivial[c])
        moved = translations_at(other, g[c])
        assert [p for p in moved if p != identity_perm(28)] == expected


def test_is_translation_matches_raw_definition_on_affine_maps():
    """Translations, automorphisms that are not translations, and (through
    a corrupted copy of the design) maps that are not automorphisms."""
    U = ag23_unital()
    for design in (U, ag23_corrupted()):
        verdicts = set()
        for g in agl23_elements():
            for c in range(9):
                raw = is_translation_raw(design, g, c)
                assert is_translation(design, g, c) == raw
                verdicts.add(raw)
        assert verdicts == {True, False}
    assert sum(is_translation(U, g, 0) for g in agl23_elements()) == 2


def test_is_translation_matches_raw_definition_on_random_permutations(h3, atlas3):
    rng = random.Random(7)
    perms = [tuple(rng.sample(range(28), 28)) for _ in range(200)]
    # automorphisms: translations and products of translations at two centers
    perms += [p for c in range(28) for p in atlas3.nontrivial[c]]
    perms += [compose(atlas3.nontrivial[0][0], atlas3.nontrivial[c][0]) for c in range(1, 28)]
    for perm in perms:
        # a random permutation seldom fixes the point it is tested at, so
        # test it at a fixed point too when it has one
        fixed = [x for x in range(28) if perm[x] == x]
        for c in [rng.randrange(28)] + fixed[:1]:
            assert is_translation(h3, perm, c) == is_translation_raw(h3, perm, c)


@pytest.mark.parametrize(
    "design", ["h2", "h3", "h4", "h5", "h5_relabelled", "fig", "fig_relabelled"])
def test_atlas_matches_per_center_search(design, request):
    """At every center, the atlas equals the search, and the search equals
    the propagation search it replaced."""
    U = request.getfixturevalue(design)
    U = getattr(U, "unital", U)
    atlas = build_atlas(U)
    ident = identity_perm(U.v)
    for c in range(U.v):
        group = translations_at(U, c)
        assert group == sorted({ident, *search_translations_raw(U, c)})
        assert atlas.nontrivial[c] == tuple(p for p in group if p != ident)


@pytest.fixture(scope="module")
def h5_relabelled(h5):
    perm = list(range(h5.v))
    random.Random(1).shuffle(perm)
    return relabel(h5, perm)


@pytest.mark.parametrize("design", ["h3", "h5_relabelled", "fig_relabelled"])
def test_every_atlas_entry_is_a_translation(design, request):
    """Oracle for the transport: the atlas checks a transported translation
    on its center's pencil only; here every entry gets the full definition."""
    U = request.getfixturevalue(design)
    atlas = build_atlas(U)
    assert sum(map(len, atlas.nontrivial)) > 0
    for c, perms in enumerate(atlas.nontrivial):
        for sigma in perms:
            assert is_translation(U, sigma, c)


@pytest.mark.parametrize(
    "design", ["h2", "h3", "h4", "h5", "fig", "fig_relabelled", "pg3", "pg4"])
def test_carried_orders_match_perm_order(design, request):
    """Oracle for the order table: the atlas computes orders at the searched
    centers only and carries them through the transport; here every entry
    is recomputed.  At a center of H(q) or of the Figueroa unital every
    translation has the same order, so only PG(2, q) read as a design, whose
    elations and homologies differ in order at each center, shows an order
    that the transport's sort separated from its permutation."""
    if design.startswith("pg"):
        U = pg_design(int(design[2:]))
    else:
        U = request.getfixturevalue(design)
        U = getattr(U, "unital", U)
    atlas = build_atlas(U)
    assert len(atlas.perm_orders) == U.v
    for perms, orders in zip(atlas.nontrivial, atlas.perm_orders):
        assert orders == tuple(map(perm_order, perms))
    if design.startswith("pg"):
        assert all(len(set(orders)) == 2 for orders in atlas.perm_orders)


@pytest.mark.parametrize("design", ["h3", "h5_relabelled"])
def test_transport_by_the_wrong_conjugate_is_caught(design, request, monkeypatch):
    """The transport conjugates by g⁻¹σg instead of gσg⁻¹.  The generators
    have odd order here, so the result fixes g⁻¹(x), not g(x); on H(2) and
    H(4) they are involutions and the two conjugates coincide."""
    import unitals.translations as tr

    U = request.getfixturevalue(design)
    monkeypatch.setattr(tr, "conjugate", lambda p, by: conjugate(p, inverse(by)))
    with pytest.raises(RuntimeError, match="transport produced a non-translation"):
        build_atlas(U)


def test_orders_are_computed_only_on_searched_translations(h3, monkeypatch, capsys):
    """ord(gσg⁻¹) = ord(σ), so the atlas computes orders only where it
    searches: three centers of H(3), two translations each."""
    import unitals.cli as cli
    import unitals.permgroup as pg
    import unitals.translations as tr

    calls = []
    # the CLI imports perm_order from permgroup when a command runs
    for module in (tr, pg):
        monkeypatch.setattr(module, "perm_order", lambda p: calls.append(p) or perm_order(p))
    atlas = build_atlas(h3)
    for n in atlas.centers_by_order:
        atlas.translations_of_order(n)
    atlas.group_for(3)
    assert atlas.centers_by_order == {3: frozenset(range(28))}
    assert atlas.perm_orders == tuple((3, 3) for _ in range(28))
    assert len(calls) == 6
    searched = [c for c, perms in enumerate(atlas.nontrivial) if set(perms) <= set(calls)]
    assert len(searched) == 3 and searched[0] == 0
    assert sorted(calls) == sorted(p for c in searched for p in atlas.nontrivial[c])
    # the translations report reads the atlas's table
    calls.clear()
    assert cli.main(["translations", "--q", "3"]) == 0
    assert len(calls) == 6 and '"order": 3' in capsys.readouterr().out


def test_threads_do_not_change_the_atlas(h2, fig_relabelled):
    for U in (h2, fig_relabelled):
        a1 = build_atlas(U, threads=1)
        a2 = build_atlas(U, threads=2)
        assert a1.nontrivial == a2.nontrivial


def test_thread_count_must_be_positive(h2):
    for threads in (0, -1):
        with pytest.raises(ValueError):
            build_atlas(h2, threads=threads)


def test_center_out_of_range(h2):
    with pytest.raises(ValueError):
        translations_at(h2, 9)


@pytest.mark.parametrize("text,center,lone", [
    (MISSING_TXT, 0, 3), (MISSING_TXT, 4, 0), (DOUBLE_TXT, 0, 4), (DOUBLE_TXT, 8, 0),
])
def test_point_sharing_no_block_with_the_center(text, center, lone):
    U = parse_unital(text)
    with pytest.raises(ValueError, match=f"point {lone} shares no block with center {center}"):
        translations_at(U, center)
    with pytest.raises(ValueError):
        build_atlas(U)


def test_pair_on_two_blocks_is_an_input_error():
    """The group at 4 has order 2, but its translation maps (1, 2, 7) onto
    (1, 6, 7), and the pair table marks (6, 7) as lying on two blocks, so a
    search that reads block images off it refuses the input."""
    U = ag23_doubled()
    sigma = (8, 7, 6, 5, 4, 3, 2, 1, 0)
    assert is_translation(U, sigma, 4)
    assert translations_raw(U, 4) == [identity_perm(9), sigma]
    with pytest.raises(ValueError, match=r"^pair \(1, 2\) lies on more than one block$"):
        translations_at(U, 4)
    with pytest.raises(ValueError, match=r"^pair \(1, 2\) lies on more than one block$"):
        build_atlas(U)


def test_transitivity_check(atlas2, atlas3, atlas4):
    for atlas, p in ((atlas2, 2), (atlas3, 3), (atlas4, 2)):
        rep = translation_transitivity_check(atlas, p)
        assert rep.ok
        assert rep.group_transitive_on_centers
        assert rep.block_transitivity_ok and rep.blocks_checked > 0
        assert rep.divisor_collapse_ok
    with pytest.raises(ValueError):
        translation_transitivity_check(atlas2, 3)


def test_congruence_check(atlas2, atlas3, atlas4, atlas5):
    for atlas in (atlas2, atlas3, atlas4, atlas5):
        for n in atlas.centers_by_order:
            rep = orbit_congruence_check(atlas, n)
            assert rep.ok
            assert rep.center_set_size % n == 1
    with pytest.raises(ValueError):
        orbit_congruence_check(atlas2, 5)


def from_cycles(cycles, v=9):
    img = list(range(v))
    for cyc in cycles:
        for x, y in zip(cyc, cyc[1:] + cyc[:1]):
            img[x] = y
    return tuple(img)


def test_congruence_check_reports_each_failure_kind(h2):
    """A hand-built table on 9 points with translations that break each rule:
    a second fixed point (center 0), a cycle straddling Ω₂ = {0, 1, 3, 5}
    first (center 1), third (center 3) or second (center 5), and an order-6
    permutation whose second cycle has length 2 (center 2).  Each failure
    names the first failing cycle."""
    table = {
        0: [(1, 2), (3, 4), (5, 6)],
        1: [(0, 2), (3, 4), (5, 6), (7, 8)],
        2: [(0, 1, 3, 4, 5, 6), (7, 8)],
        3: [(0, 1), (2, 4), (5, 6), (7, 8)],
        5: [(0, 3), (1, 2), (4, 6), (7, 8)],
    }
    nontrivial = tuple((from_cycles(table[c]),) if c in table else () for c in range(9))
    orders = tuple(tuple(map(perm_order, perms)) for perms in nontrivial)
    assert orders == ((2,), (2,), (6,), (2,), (), (2,), (), (), ())
    atlas = TranslationAtlas(unital=h2, nontrivial=nontrivial, perm_orders=orders)

    rep = orbit_congruence_check(atlas, 2)
    assert (rep.center_set_size, rep.size_congruent_one, rep.translations_checked) == (4, False, 4)
    assert rep.failures == (
        ("0", "fixed points", "(0, 7, 8)"),
        ("1", "cycle straddles the center set", "(0, 2)"),
        ("3", "cycle straddles the center set", "(5, 6)"),
        ("5", "cycle straddles the center set", "(1, 2)"),
    )
    rep = orbit_congruence_check(atlas, 6)
    assert (rep.center_set_size, rep.size_congruent_one, rep.translations_checked) == (1, True, 1)
    assert rep.failures == (("2", "cycle length", "(7, 8)"),)
    assert not rep.ok
