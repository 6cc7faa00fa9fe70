import random

import pytest

from helpers import (
    DOUBLE_TXT,
    MISSING_TXT,
    ag23_corrupted,
    ag23_doubled,
    ag23_unital,
    agl23_elements,
    constant_intersection_check_raw,
    failure_table_atlas,
    hermitian_transvections,
    is_translation_raw,
    orbit_congruence_check_raw,
    pg_design,
    pointwise_stabilizer,
    relabel,
    search_translations_raw,
    translation_transitivity_check_raw,
    translations_raw,
)
from unitals.analysis import constant_intersection_check
from unitals.incidence import Unital, parse_unital
from unitals.gf import prime_power
from unitals.plane import hermitian_unital
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
        sigma = atlas2.groups[c][0][0]
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
            group = {p for p, _ in atlas.groups[c]} | {identity_perm(v)}
            for a in group:
                assert inverse(a) in group
                for b in group:
                    assert compose(a, b) in group


def test_fixed_points_are_exactly_the_center(atlas3):
    for c in range(28):
        for sigma, _ in atlas3.groups[c]:
            assert fixed_points(sigma) == (c,)


def test_orders_are_characteristic_powers(atlas2, atlas3, atlas4, atlas5):
    for atlas in (atlas2, atlas3, atlas4, atlas5):
        p, _ = prime_power(atlas.unital.q)
        for group in atlas.groups:
            for sigma, _ in group:
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
    assert all(len(group) + 1 == per_center for group in atlas.groups)
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
        expected = sorted(conjugate(sigma, g) for sigma, _ in atlas3.groups[c])
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
    perms += [p for c in range(28) for p, _ in atlas3.groups[c]]
    perms += [compose(atlas3.groups[0][0][0], atlas3.groups[c][0][0]) for c in range(1, 28)]
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
        assert [p for p, _ in atlas.groups[c]] == [p for p in group if p != ident]


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
    assert sum(map(len, atlas.groups)) > 0
    for c, group in enumerate(atlas.groups):
        for sigma, _ in group:
            assert is_translation(U, sigma, c)


@pytest.mark.parametrize(
    "design", ["h2", "h3", "h4", "h5", "fig", "fig_relabelled", "pg3", "pg4"])
def test_carried_orders_match_perm_order(design, request):
    """Oracle for the carried orders: the atlas computes orders at the searched
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
    assert len(atlas.groups) == U.v
    for group in atlas.groups:
        assert [n for _, n in group] == [perm_order(p) for p, _ in group]
    if design.startswith("pg"):
        assert all(len({n for _, n in group}) == 2 for group in atlas.groups)


@pytest.mark.parametrize("design", ["h3", "h5_relabelled"])
def test_transport_by_the_wrong_conjugate_is_caught(design, request, monkeypatch):
    """The transport conjugates by g⁻¹σg instead of gσg⁻¹.  The generators
    have odd order here, so the result fixes g⁻¹(x), not g(x); on H(2) and
    H(4) they are involutions and the two conjugates coincide.  The atlas
    transports when its groups are read, so the error comes then."""
    import unitals.translations as tr

    U = request.getfixturevalue(design)
    monkeypatch.setattr(tr, "conjugate", lambda p, by: conjugate(p, inverse(by)))
    atlas = build_atlas(U)
    with pytest.raises(RuntimeError, match="transport produced a non-translation"):
        atlas.groups


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
    assert [[n for _, n in group] for group in atlas.groups] == [[3, 3]] * 28
    assert len(calls) == 6
    searched = [c for c, group in enumerate(atlas.groups) if {p for p, _ in group} <= set(calls)]
    assert len(searched) == 3 and searched[0] == 0
    assert sorted(calls) == sorted(p for c in searched for p, _ in atlas.groups[c])
    # the translations report reads the atlas's table
    calls.clear()
    assert cli.main(["translations", "--q", "3"]) == 0
    assert len(calls) == 6 and '"order": 3' in capsys.readouterr().out


def test_center_out_of_range(h2):
    with pytest.raises(ValueError):
        translations_at(h2, 9)


@pytest.mark.parametrize("text,center,lone", [
    (MISSING_TXT, 0, 3), (MISSING_TXT, 4, 0), (DOUBLE_TXT, 0, 4), (DOUBLE_TXT, 8, 0),
    # the first of two lone points, one on each side of the center
    ("unital v=7 k=3\n0 2 3\n1 4 5\n3 4 6\n", 3, 1),
    # the one lone point, after the center
    ("unital v=8 k=3\n0 1 3\n2 3 4\n3 5 6\n", 3, 7),
])
def test_point_sharing_no_block_with_the_center(text, center, lone):
    U = parse_unital(text)
    with pytest.raises(ValueError, match=f"^point {lone} shares no block with center {center}$"):
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


def test_congruence_check_reports_each_failure_kind(h2):
    """A hand-built table on 9 points with translations that break each rule
    (see ``failure_table_atlas``).  Each failure names the first failing
    cycle."""
    atlas = failure_table_atlas(h2)
    orders = tuple(tuple(n for _, n in group) for group in atlas.groups)
    assert orders == ((2,), (2,), (6,), (2,), (), (2,), (), (), ())

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


# -- the lemma checks on the searched translations --------------------------------


def unbuilt(atlas: TranslationAtlas, cls=TranslationAtlas) -> TranslationAtlas:
    """A fresh atlas with the same searched groups and forest, nothing transported."""
    v = atlas.unital.v
    groups = [None if c in atlas.edges else atlas.group(c) for c in range(v)]
    return cls(atlas.unital, groups, atlas.edges)


def battery_reports(U, atlas, congruence, transitivity, constant) -> dict:
    """Each check's report on the atlas, keyed by check and order."""
    out = {}
    for n in atlas.centers_by_order:
        out["congruence", n] = congruence(atlas, n)
    for p in sorted(atlas.least_primes):
        out["transitivity", p] = transitivity(atlas, p)
        if not any(atlas.centers_of_order(p) <= bs for bs in U.block_sets):
            out["constant", p] = constant(U, atlas, p)
    return out


def check_against_full_walks(U, atlas) -> dict:
    """The checks, then their oracles, which read every translation, so the
    checks meet the atlas as they found it."""
    got = battery_reports(U, atlas, orbit_congruence_check, translation_transitivity_check,
                          constant_intersection_check)
    want = battery_reports(U, atlas, orbit_congruence_check_raw,
                           translation_transitivity_check_raw, constant_intersection_check_raw)
    assert got == want
    return got


@pytest.fixture(scope="module")
def h4_relabelled(h4):
    perm = list(range(h4.v))
    random.Random(1).shuffle(perm)
    return relabel(h4, perm)


@pytest.mark.parametrize("design", [
    "h2", "h3", "h4", "h5", "h4_relabelled", "h5_relabelled", "fig", "fig_relabelled",
    "pg3", "pg4", "table", "h7"])
def test_checks_match_their_full_walks(design, request):
    """On H(q) and the Figueroa unital every translation has one order, so
    the checks run on the searched translations and one block per orbit; on
    PG(2, q) read as a design the orders are mixed, and on the hand-built
    table of ``failure_table_atlas`` there is no forest: both take the full
    walks."""
    if design == "table":
        U = request.getfixturevalue("h2")
        atlas = failure_table_atlas(U)
    else:
        if design.startswith("pg"):
            U = pg_design(int(design[2:]))
        elif design == "h7":
            U = hermitian_unital(7)
        else:
            U = request.getfixturevalue(design)
            U = getattr(U, "unital", U)
        atlas = build_atlas(U)
    reports = check_against_full_walks(U, atlas)
    assert all(r.ok for r in reports.values()) == (design not in ("pg3", "pg4", "table"))


def test_a_pruned_forest_falls_back_to_the_full_walks(h3):
    """A leaf of the forest dropped: Ω₃ misses one point, so each searched
    translation has a cycle straddling it, and every check must give the
    report of its full walk, which names the translations at every center."""
    atlas = build_atlas(h3)
    parents = {x for x, _ in atlas.edges.values()}
    leaf = next(y for y in atlas.edges if y not in parents)
    groups = [() if c == leaf else None if c in atlas.edges else atlas.group(c)
              for c in range(h3.v)]
    edges = {y: edge for y, edge in atlas.edges.items() if y != leaf}
    reports = check_against_full_walks(h3, TranslationAtlas(h3, groups, edges))
    failures = reports["congruence", 3].failures
    assert len(failures) == 27 * 2
    assert {c for c, *_ in failures} == {str(c) for c in range(28) if c != leaf}


def test_a_searched_generator_that_moves_the_center_set_forces_the_full_walk(h3, atlas3):
    """Center 0 keeps one translation σ of order 3.  Center 1 is searched
    with one automorphism g, the product of translations at 1 and 4,
    labelled order 2 as in an atlas of mixed orders.  The forest takes 0 to
    g(0) and on to g²(0) by g, and each round its σ-cycle by σ, so Ω₃ is
    the two blocks through 0 and these points.  σ keeps every rule, but g
    does not preserve Ω₃, and the six transported translations, centered
    on one of the blocks, move the other: the check must test them."""
    sigma = atlas3.groups[0][0][0]
    g = compose(atlas3.groups[1][0][0], atlas3.groups[4][0][0])
    groups = [()] * 28
    groups[0] = ((sigma, 3),)
    groups[1] = ((g, 2),)
    edges = {}
    for parent, y in ((0, g[0]), (g[0], g[g[0]])):
        edges[y] = (parent, g)
        edges[sigma[y]] = (y, sigma)
        edges[sigma[sigma[y]]] = (sigma[y], sigma)
    for y in edges:
        groups[y] = None
    atlas = TranslationAtlas(h3, groups, edges)
    omega = atlas.centers_of_order(3)
    assert len(omega) == 7 and 1 not in omega
    assert {g[x] for x in omega} != omega
    failures = check_against_full_walks(h3, atlas)["congruence", 3].failures
    assert sorted(int(c) for c, *_ in failures) == sorted(edges)


def test_a_failing_block_representative_checks_every_block(h2, atlas2):
    """A fault planted in the translations read per block: the centers of
    block 0 and point 8 seem to carry none, so every block holding two of
    them fails.  Block 0, the one representative of T[2]'s orbit, fails,
    and the check must then name every failing block."""
    faulty = set(h2.blocks[0]) | {8}

    class Faulty(TranslationAtlas):
        def group(self, c):
            return () if c in faulty else super().group(c)

    rep = translation_transitivity_check(unbuilt(atlas2, Faulty), 2)
    expected = [(bid, blk) for bid, blk in enumerate(h2.blocks) if len(faulty.intersection(blk)) > 1]
    assert len(expected) == 4
    assert list(rep.block_failures) == expected and rep.blocks_checked == 12


def sampled_centers(atlas: TranslationAtlas) -> list[int]:
    """The searched centers, up to three of the deepest in the forest, and the last point."""
    depth: dict[int, int] = {}
    for y, (x, _) in atlas.edges.items():
        depth[y] = depth.get(x, 0) + 1
    deepest = [y for y, d in depth.items() if d == max(depth.values())][:3]
    v = atlas.unital.v
    return sorted({c for c in range(v) if c not in atlas.edges} | set(deepest) | {v - 1})


@pytest.fixture(scope="module")
def closed_form():
    """q ↦ (H(q), its transvections by center, its atlas), each built once."""
    built = {}

    def get(q):
        if q not in built:
            U, transvections = hermitian_transvections(q)
            built[q] = U, transvections, build_atlas(U)
        return built[q]

    return get


@pytest.mark.parametrize("q", [7, 8, 9])
def test_atlas_groups_are_the_unitary_transvections(q, closed_form):
    U, transvections, atlas = closed_form(q)
    assert U.blocks == hermitian_unital(q).blocks
    centers = sampled_centers(atlas)
    assert len(centers) > 3 and any(c in atlas.edges for c in centers)
    for c in centers:
        assert [p for p, _ in atlas.group(c)] == transvections(c), c


def test_a_wrong_transport_fails_the_closed_form(closed_form, monkeypatch):
    """Conjugating by g⁻¹σg with the pencil check switched off: at q = 9 the
    translations have order 3, so the two conjugates differ."""
    import unitals.translations as tr

    U, transvections, atlas = closed_form(9)
    monkeypatch.setattr(tr, "conjugate", lambda p, by: conjugate(p, inverse(by)))
    monkeypatch.setattr(tr, "_fixes_pencil", lambda U, p, c: True)
    atlas = unbuilt(atlas)
    assert any([p for p, _ in atlas.group(c)] != transvections(c) for c in sampled_centers(atlas))
