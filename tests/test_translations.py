import random

import pytest

from helpers import (
    DOUBLE_TXT,
    MISSING_TXT,
    ag23_corrupted,
    ag23_unital,
    agl23_elements,
    is_translation_raw,
    pointwise_stabilizer,
    relabel,
    translations_raw,
)
from unitals.incidence import parse_unital
from unitals.gf import prime_power
from unitals.permgroup import (
    compose,
    conjugate,
    fixed_points,
    identity_perm,
    inverse,
    perm_order,
)
from unitals.translations import (
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
    assert all(atlas.group_order(c) == per_center for c in range(atlas.unital.v))
    assert {n: len(s) for n, s in atlas.centers_by_order.items()} == total_orders
    assert atlas.trivial_centers == frozenset()


def test_hermitian_order_four_has_no_order_four_translation(atlas4):
    # the per-center groups have order 4 but every nontrivial element is an
    # involution (elementary abelian), so no translation of order 4 exists
    assert 4 not in atlas4.centers_by_order
    assert atlas4.orders == (2,)


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


def test_search_matches_brute_force_oracle(h2):
    """The search skips every map with a fixed point besides the center; the
    oracle tries all 16 maps that keep each block through the center."""
    for U in (h2, ag23_unital()):
        for c in range(9):
            assert [len(U.blocks[bid]) for bid in U.pencil(c)] == [3] * 4  # 2!^4 maps
            assert translations_at(U, c) == translations_raw(U, c)


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


@pytest.mark.parametrize("design", ["h2", "h3", "h4", "h5", "fig", "fig_relabelled"])
def test_atlas_matches_per_center_search(design, request):
    U = request.getfixturevalue(design)
    U = getattr(U, "unital", U)
    atlas = build_atlas(U)
    ident = identity_perm(U.v)
    for c in range(U.v):
        assert atlas.nontrivial[c] == tuple(p for p in translations_at(U, c) if p != ident)


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


def test_orders_are_computed_once_per_translation(h3, monkeypatch, capsys):
    import unitals.cli as cli
    import unitals.permgroup as pg
    import unitals.translations as tr

    calls = []
    # the CLI imports perm_order from permgroup when a command runs
    for module in (tr, pg):
        monkeypatch.setattr(module, "perm_order", lambda p: calls.append(p) or perm_order(p))
    atlas = build_atlas(h3)
    for n in atlas.orders:
        atlas.translations_of_order(n)
    atlas.group_for(3)
    assert atlas.centers_by_order == {3: frozenset(range(28))}
    assert atlas.perm_orders == tuple((3, 3) for _ in range(28))
    assert len(calls) == 56
    # the translations report reads the atlas's table
    calls.clear()
    assert cli.main(["translations", "--q", "3"]) == 0
    assert len(calls) == 56 and '"order": 3' in capsys.readouterr().out


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
        for n in atlas.orders:
            rep = orbit_congruence_check(atlas, n)
            assert rep.ok
            assert rep.center_set_size % n == 1
    with pytest.raises(ValueError):
        orbit_congruence_check(atlas2, 5)
