"""Acceptance gate: one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
guarantee.  Everything here is also covered in finer grain by the unit tests;
this file states the headline claims in one place, at the advertised
tolerances.
"""

import json
import time
from math import gcd

from helpers import (
    ag23_unital,
    block_through,
    orbits,
    pointwise_stabilizer,
    relabel,
    type_counts,
)
from unitals.analysis import classify, subunital_analysis
from unitals.cli import main
from unitals.figueroa import verify_figueroa_theorems
from unitals.gf import prime_power
from unitals.incidence import (
    format_unital,
    isomorphism_search,
    onan_search,
    validate_unital,
)
from unitals.permgroup import (
    PermGroup,
    compose,
    fixed_points,
    generalized_dihedral_check,
    identity_perm,
    is_transitive,
    is_two_transitive,
    perm_order,
)
from unitals.plane import hermitian_unital
from unitals.translations import (
    build_atlas,
    orbit_congruence_check,
    translation_transitivity_check,
)

EXPECTED_PARAMETERS = {2: (9, 12, 3), 3: (28, 63, 4), 4: (65, 208, 5), 5: (126, 525, 6)}


def _block_action(U, G):
    """The permutation group induced by G on the block list of U."""
    index = {bs: i for i, bs in enumerate(U.block_sets)}
    images = []
    for g in G.generators:
        images.append(
            tuple(index[frozenset(g[x] for x in bs)] for bs in U.block_sets)
        )
    return PermGroup(images, degree=len(U.blocks))


def test_c01_construction_counts_and_validity():
    started = time.monotonic()
    for q, (v, b, k) in EXPECTED_PARAMETERS.items():
        U = hermitian_unital(q)
        assert U.v == v and len(U.blocks) == b
        assert all(len(blk) == k for blk in U.blocks)
        assert validate_unital(U, q).valid
    assert time.monotonic() - started < 5.0


def test_c02_order_two_structure(h2, atlas2):
    iso = isomorphism_search(h2, ag23_unital())
    assert iso is not None
    assert relabel(h2, iso).blocks == ag23_unital().blocks

    G = atlas2.group_for(2)
    # not |PSU(3, 2)| = 72: the nine point reflections of AG(2, 3) generate
    # only its translations and their negatives, a group of order 18
    assert G.order() == 18
    assert is_transitive(G)
    assert not is_two_transitive(G)
    assert len(orbits(_block_action(h2, G).elements(), range(len(h2.blocks)))) == 4

    report = generalized_dihedral_check(G, atlas2.group(0)[0][0])
    assert report.ok
    assert report.m_order == 9 and report.m_regular and report.m_abelian


def test_c03_translation_axioms(atlas2, atlas3, atlas4, atlas5, fig_atlas):
    for atlas in (atlas2, atlas3, atlas4, atlas5, fig_atlas):
        p, _ = prime_power(atlas.unital.q)
        for c in range(atlas.unital.v):
            perms = [sigma for sigma, _ in atlas.group(c)]
            for sigma in perms:
                assert fixed_points(sigma) == (c,)
                n = perm_order(sigma)
                while n % p == 0:
                    n //= p
                assert n == 1
            # closure: trs(c) with the identity is a group
            group = set(perms) | {identity_perm(atlas.unital.v)}
            assert all(compose(a, b) in group for a in perms for b in perms)


def test_c04_center_set_transitivity(atlas2, atlas3, atlas4, fig_atlas):
    for atlas in (atlas2, atlas3, atlas4, fig_atlas):
        p = min(atlas.least_primes)
        report = translation_transitivity_check(atlas, p)
        assert report.ok, report
        assert report.group_transitive_on_centers
        assert report.block_transitivity_ok
        assert report.divisor_collapse_ok


def test_c05_center_count_congruences(atlas2, atlas3, atlas4, atlas5, fig_atlas):
    for atlas in (atlas2, atlas3, atlas4, atlas5, fig_atlas):
        for n in atlas.centers_by_order:
            report = orbit_congruence_check(atlas, n)
            assert report.ok, report
            assert report.center_set_size % n == 1


def test_c06_two_point_stabilizer_orbits(h3, atlas3, h4, atlas4):
    started = time.monotonic()
    for U, atlas, expected in (
        (h3, atlas3, [1, 1, 2, 8, 8, 8]),
        (h4, atlas4, [1, 1, 3, 15, 15, 15, 15]),
    ):
        G = atlas.group_for(min(atlas.centers_by_order))
        stab_orbits = orbits(pointwise_stabilizer(G, (0, 1)), range(U.v))
        assert sorted(len(o) for o in stab_orbits) == expected
        shortest = min(
            (o for o in stab_orbits if not o <= {0, 1}), key=len
        )
        assert len(shortest) == U.q - 1
        block = U.blocks[block_through(U, 0, 1)]
        assert frozenset({0, 1}) | shortest == frozenset(block)
    assert time.monotonic() - started < 60.0


def test_c07_generated_group_orders(atlas3, atlas4, atlas5):
    """T[p] of H(q) is PSU(3, q), of order q³(q³+1)(q²−1)/gcd(3, q+1), for
    q > 2 (q = 2 is in c02).  The subunital kernel divides |T[p]| by the
    order of its restriction to the center set, so it rests on these."""
    started = time.monotonic()
    atlas7 = build_atlas(hermitian_unital(7))
    for atlas, p, order in [(atlas3, 3, 6048), (atlas4, 2, 62400), (atlas5, 5, 126000),
                            (atlas7, 7, 5663616)]:
        q = atlas.unital.q
        assert atlas.group_for(p).order() == order == (
            q**3 * (q**3 + 1) * (q**2 - 1) // gcd(3, q + 1))
    assert time.monotonic() - started < 120.0


def test_c08_doubled_quadrilateral_dichotomy(h2, h3, fig):
    for U in (h2, h3):
        assert onan_search(U).status == "none"

    found = onan_search(fig.unital)
    assert found.status == "witness"
    sets = [set(fig.unital.blocks[b]) for b in found.blocks]
    incident = [sum(p in s for s in sets) for p in found.points]
    assert incident == [2] * 6
    assert all(len(s & set(found.points)) == 3 for s in sets)


def test_c09_twisted_plane_end_to_end(fig, fig_atlas):
    # construction would have raised on any projective-axiom or polarity
    # failure; restate the headline facts from the verification report
    assert fig.plane.classical.order == 64
    assert type_counts(fig.plane) == {"I": 21, "II": 1260, "III": 2880}
    assert (fig.unital.v, len(fig.unital.blocks)) == (513, 3648)

    report = verify_figueroa_theorems(fig, fig_atlas)
    assert report.ok, report
    assert report.omega2_equals_h and report.mho_is_complement
    assert report.subunital_isomorphic_to_hermitian
    assert report.all_translations_involutions
    assert report.alpha_trivial_on_centers and report.alpha_order_on_unital == 3

    sub = subunital_analysis(fig.unital, fig_atlas, 2)
    assert not sub.ideally_embedded and sub.embedding_witness is not None


def test_c10_classification_harness(h2, atlas2, h3, atlas3, h4, atlas4, fig, fig_atlas):
    for U, atlas in ((h2, atlas2), (h4, atlas4)):
        verdict = classify(U, atlas)
        assert verdict.conclusion == "verified-hermitian"
        assert relabel(U, verdict.isomorphism).blocks == hermitian_unital(U.q).blocks

    verdict = classify(h3, atlas3)
    assert verdict.conclusion == "hypothesis-failed"
    assert verdict.witness == {"kind": "no-involutory-translation"}

    verdict = classify(fig.unital, fig_atlas)
    assert verdict.conclusion == "hypothesis-failed"
    assert verdict.witness["kind"] == "point-without-translation"
    assert verdict.witness["point"] in fig_atlas.trivial_centers


def test_c11_deterministic_reports(tmp_path):
    for argv in (
        ["omega", "--q", "2"],
        ["translations", "--q", "3"],
        ["classify", "--q", "2"],
        ["check-lemmas", "--q", "2"],
    ):
        paths = [tmp_path / f"{argv[0]}-{t}.json" for t in (1, 2)]
        for threads, path in zip((1, 2), paths):
            code = main([*argv, "--threads", str(threads), "--out", str(path)])
            assert code == 0
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        json.loads(first)


def test_c12_check_lemmas_holds_on_every_reference_design(tmp_path, fig):
    # on H(q) for even q ≥ 4 each center carries q − 1 involutions, so the
    # dihedral suite reports itself not applicable instead of refuted
    fig_file = tmp_path / "fig.txt"
    fig_file.write_text(format_unital(fig.unital))
    inputs = [["--q", str(q)] for q in (2, 3, 4, 5, 7, 8)] + [["--in", str(fig_file)]]
    for i, source in enumerate(inputs):
        out = tmp_path / f"{i}.json"
        assert main(["check-lemmas", *source, "--out", str(out)]) == 0, source
        assert json.loads(out.read_text())["payload"]["ok"] is True
