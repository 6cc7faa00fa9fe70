import json

import pytest

import unitals.analysis
import unitals.figueroa
import unitals.plane
from unitals.analysis import (
    classify,
    constant_intersection_check,
    lemma_battery,
    sharply_transitive_suite,
    subunital_analysis,
)
from helpers import pointwise_stabilizer, relabel, report_doc_raw
from unitals.cli import main
from unitals.figueroa import verify_figueroa_theorems
from unitals.incidence import Unital
from unitals.permgroup import PermGroup, perm_order
from unitals.plane import hermitian_unital
from unitals.translations import TranslationAtlas, translation_transitivity_check


def pruned_atlas(h2, atlas2, centers):
    """Atlas pruned so only the given centers keep their translations."""
    return TranslationAtlas(unital=h2, groups=tuple(
        atlas2.group(c) if c in centers else () for c in range(h2.v)))


def collinear_center_atlas(h2, atlas2):
    """Atlas pruned so the surviving centers are the three points of a block."""
    return pruned_atlas(h2, atlas2, h2.blocks[0])


class TestSubunital:
    def test_whole_unital_when_every_point_is_a_center(self, h2, atlas2):
        rep = subunital_analysis(h2, atlas2, 2)
        assert rep.center_count == 9
        assert not rep.contained_in_block
        assert rep.is_linear_space and rep.ideally_embedded
        assert rep.kernel_order == 1 and rep.action_faithful
        assert rep.isomorphic_to_hermitian and rep.hermitian_order == 2

    def test_order_four(self, h4, atlas4):
        rep = subunital_analysis(h4, atlas4, 2)
        assert rep.center_count == 65
        assert rep.ideally_embedded and rep.embedding_witness is None
        assert rep.isomorphic_to_hermitian and rep.hermitian_order == 4

    def test_figueroa_subunital_not_ideally_embedded(self, fig, fig_atlas):
        rep = subunital_analysis(fig.unital, fig_atlas, 2)
        assert rep.center_count == 9
        assert rep.is_linear_space
        assert not rep.ideally_embedded
        # witness: an ambient block through a center that meets the center set
        # in fewer than two points, so it induces no line of the restriction
        x, bid = rep.embedding_witness
        omega = set(fig.hermitian_points)
        assert x in omega
        assert len(set(fig.unital.blocks[bid]) & omega) < 2
        assert rep.isomorphic_to_hermitian and rep.hermitian_order == 2
        assert rep.action_faithful and rep.kernel_order == 1

    def test_collinear_centers_short_circuit(self, h2, atlas2):
        rep = subunital_analysis(h2, collinear_center_atlas(h2, atlas2), 2)
        assert rep.contained_in_block
        assert rep.isomorphic_to_hermitian is None

    def test_kernel_is_the_pointwise_stabilizer_of_the_centers(self, h2, atlas2,
                                                                fig, fig_atlas):
        """The kernel order, |T| over the order of T's image on the center
        set, against the elements of T that fix every center."""
        # center 0's one involution alone: T = ⟨σ⟩ fixes its center set {0}
        ((sigma, _),) = atlas2.group(0)
        assert perm_order(sigma) == 2
        for U, atlas, kernel in (
            (fig.unital, fig_atlas, 1),
            (h2, collinear_center_atlas(h2, atlas2), 1),
            (h2, pruned_atlas(h2, atlas2, {0}), 2),
        ):
            rep = subunital_analysis(U, atlas, 2)
            omega = atlas.centers_of_order(2)
            assert omega != frozenset(range(U.v))  # no shortcut
            assert rep.kernel_order == kernel
            assert len(pointwise_stabilizer(atlas.group_for(2), omega)) == kernel
            assert rep.action_faithful == (kernel == 1)

    def test_center_set_not_invariant_is_a_bug(self, h2, atlas2):
        # σ at center 0 fixes the block through 0 and 1 setwise and moves 1,
        # so the centers {0, 1} are not T[2]-invariant, as no true atlas can be
        with pytest.raises(RuntimeError, match="this is a bug"):
            subunital_analysis(h2, pruned_atlas(h2, atlas2, {0, 1}), 2)

    def test_missing_order_rejected(self, h2, atlas2):
        with pytest.raises(ValueError):
            subunital_analysis(h2, atlas2, 3)


class TestConstantIntersection:
    @pytest.mark.parametrize("q,value,blocks", [(2, 3, 12), (4, 5, 208)])
    def test_hermitian_blocks_meet_centers_constantly(self, q, value, blocks, request):
        U = request.getfixturevalue(f"h{q}")
        atlas = request.getfixturevalue(f"atlas{q}")
        rep = constant_intersection_check(U, atlas, 2)
        assert rep.constant and rep.constant_value == value
        assert rep.intersection_sizes == ((value, blocks),)
        assert rep.every_point_a_center
        assert rep.hypothesis_failure is None
        assert rep.centers_are_all_points and rep.group_transitive_on_points
        assert rep.ok

    def test_figueroa_constant_but_hypothesis_fails(self, fig, fig_atlas):
        rep = constant_intersection_check(fig.unital, fig_atlas, 2)
        assert rep.constant and rep.constant_value == 3
        assert rep.intersection_sizes == ((3, 12),)
        assert not rep.every_point_a_center
        assert rep.hypothesis_failure == (
            "some points are the center of no nontrivial translation"
        )
        # the conclusion is vacuous here, so the check still passes
        assert rep.ok

    def test_collinear_centers_rejected(self, h2, atlas2):
        with pytest.raises(ValueError):
            constant_intersection_check(h2, collinear_center_atlas(h2, atlas2), 2)


def test_orbit_checks_build_no_stabilizer_chain(h4, atlas4, monkeypatch):
    """Both checks read orbits only, so they take them from the generators."""
    def checks():
        return (translation_transitivity_check(atlas4, 2),
                constant_intersection_check(h4, atlas4, 2))

    expected = checks()

    def refuse(*args, **kwargs):
        raise AssertionError("a stabilizer chain was built")

    monkeypatch.setattr(PermGroup, "__init__", refuse)
    assert checks() == expected
    assert expected[0].ok and expected[1].ok


class TestClassify:
    @pytest.mark.parametrize("q", [2, 4])
    def test_hermitian_inputs_verify(self, q, request):
        U = request.getfixturevalue(f"h{q}")
        atlas = request.getfixturevalue(f"atlas{q}")
        rep = classify(U, atlas)
        assert rep.conclusion == "verified-hermitian"
        assert rep.omega2_full
        assert rep.witness is None
        # the returned map really is an isomorphism onto the reference design
        moved = relabel(U, rep.isomorphism)
        assert moved.blocks == hermitian_unital(q).blocks

    def test_relabelled_input_still_verifies(self, h2):
        g = tuple((4 * i + 2) % 9 for i in range(9))
        rep = classify(relabel(h2, g))
        assert rep.conclusion == "verified-hermitian"

    def test_odd_characteristic_has_no_involutions(self, h3, atlas3):
        rep = classify(h3, atlas3)
        assert rep.conclusion == "hypothesis-failed"
        assert rep.hypotheses == {
            "every-point-a-center": True,
            "exists-involutory-translation": False,
        }
        assert rep.witness == {"kind": "no-involutory-translation"}
        assert rep.isomorphism is None

    def test_figueroa_fails_center_hypothesis(self, fig, fig_atlas):
        rep = classify(fig.unital, fig_atlas)
        assert rep.conclusion == "hypothesis-failed"
        assert not rep.omega2_full
        assert rep.witness["kind"] == "point-without-translation"
        assert rep.witness["point"] not in set(fig.hermitian_points)

    def test_json_shape(self, h2, atlas2):
        doc = report_doc_raw(classify(h2, atlas2))
        assert set(doc) == {
            "hypotheses", "omega2_full", "conclusion", "witness", "isomorphism",
        }
        assert set(doc["hypotheses"]) == {
            "every-point-a-center", "exists-involutory-translation",
        }

    def test_invalid_design_rejected(self, h2):
        with pytest.raises(ValueError):
            classify(Unital(q=2, v=9, blocks=h2.blocks[:11]))


def test_arithmetic_exclusion():
    """(q+1)² divides q³+1 only at q = 2, which the recognition argument
    leans on: q³+1 = (q+1)(q²−q+1), and gcd(q+1, q²−q+1) divides 3."""
    assert (2**3 + 1) % (2 + 1) ** 2 == 0
    assert all((q**3 + 1) % (q + 1) ** 2 != 0 for q in range(3, 10**4 + 1))


class TestSharpTransitivity:
    def test_translation_group_on_its_centers(self, atlas2):
        rep = sharply_transitive_suite(
            atlas2.group_for(2), range(9), atlas2.group(0)[0][0]
        )
        assert rep.preconditions_ok and rep.failed_preconditions == ()
        assert rep.m_order == 9 and rep.m_abelian and rep.m_regular
        assert rep.tau_conjugation_semiregular
        assert rep.equivalences_agree and rep.all_conditions_hold
        d = rep.dihedral
        assert d.ok and d.tau_inverts_m and d.coset_all_involutions
        assert d.coset_is_conjugacy_class
        assert rep.ok

    def test_symmetric_group_of_degree_three(self):
        s3 = PermGroup([(1, 0, 2), (1, 2, 0)], degree=3)
        rep = sharply_transitive_suite(s3, (0, 1, 2), (1, 0, 2))
        assert rep.ok and rep.m_order == 3
        assert not rep.m_supplied
        assert rep.dihedral.ok

    def test_preconditions_rejected_with_all_reasons(self):
        a4 = PermGroup([(1, 0, 3, 2), (1, 2, 0, 3)], degree=4)
        rep = sharply_transitive_suite(a4, range(4), (1, 0, 3, 2))
        assert not rep.preconditions_ok and not rep.ok
        assert not rep.m_supplied and rep.m_order is None
        assert "fixes 0 points" in " / ".join(rep.failed_preconditions)
        assert rep.dihedral is None
        # the same involution lies outside the cyclic group of order 4
        c4 = PermGroup([(1, 2, 3, 0)], degree=4)
        rep = sharply_transitive_suite(c4, range(4), (1, 0, 3, 2))
        assert rep.failed_preconditions == (
            "tau is not an element of the group",
            "tau fixes 0 points of the domain instead of exactly one",
        )
        assert not rep.ok and rep.dihedral is None


def test_every_hermitian_check_goes_through_one_routine(monkeypatch, h2, atlas2, fig, fig_atlas):
    # analysis imports the routine from plane when it runs; figueroa at load time
    real = unitals.plane.hermitian_isomorphism
    calls = []

    def counted(D):
        calls.append(D)
        return real(D)

    monkeypatch.setattr(unitals.plane, "hermitian_isomorphism", counted)
    monkeypatch.setattr(unitals.figueroa, "hermitian_isomorphism", counted)
    assert classify(h2).conclusion == "verified-hermitian"
    assert [D.v for D in calls] == [9]
    assert subunital_analysis(h2, atlas2, 2).isomorphic_to_hermitian
    assert [D.v for D in calls] == [9, 9]
    assert calls[1] is h2  # Ω₂ is every point: the design itself, not its copy
    assert verify_figueroa_theorems(fig, fig_atlas).subunital_isomorphic_to_hermitian
    assert [D.v for D in calls] == [9, 9, 9]


def test_ideal_embedding_holds_by_definition_when_every_point_is_a_center(
        monkeypatch, capsys, fig, fig_atlas):
    """Where Ω_p is every point of a unital, the restriction is U itself, so
    ``check-lemmas`` and ``subunital`` on H(2)–H(4) report an ideal
    embedding without the check; the Figueroa battery, where Ω₂ is 9 of
    513 points, still runs it and finds a witness."""
    real = unitals.analysis.ideal_embedding_check

    def refuse(U, subset):
        raise AssertionError("ideal_embedding_check was called")

    monkeypatch.setattr(unitals.analysis, "ideal_embedding_check", refuse)
    for q, p in ((2, 2), (3, 3), (4, 2)):
        for argv, path in ((["check-lemmas"], ["subunital", str(p)]),
                           (["subunital", "--p", str(p)], ["subunital"])):
            assert main([*argv, "--q", str(q)]) == 0
            report = json.loads(capsys.readouterr().out)["payload"]
            for key in path:
                report = report[key]
            assert (report["ideally_embedded"], report["embedding_witness"]) == (True, None)

    calls = []
    monkeypatch.setattr(unitals.analysis, "ideal_embedding_check",
                        lambda U, subset: calls.append(len(subset)) or real(U, subset))
    sub = lemma_battery(fig.unital, fig_atlas)["subunital"]["2"]
    assert calls == [9]
    assert not sub.ideally_embedded and sub.embedding_witness is not None


def test_battery_reports_failed_suite_hypotheses_as_not_applicable(h2, atlas2):
    """With Ω₂ = {0}, center 0's one involution fixes the whole center set, so
    the suite's hypothesis that tau is an involution there fails.  The battery
    names it and leaves the suite out of ``ok``; every check that ran passes."""
    payload = lemma_battery(h2, pruned_atlas(h2, atlas2, {0}))
    assert payload["dihedral_suite"] == {
        "not-applicable": "the suite's hypotheses fail: tau is not an involution on the point set"}
    assert payload["ok"] is True


def test_battery_skips_constant_intersection_when_centers_are_collinear(h2, atlas2):
    """The skipped part is reported as such and left out of ``ok``."""
    payload = lemma_battery(h2, collinear_center_atlas(h2, atlas2))
    assert payload["subunital"]["2"].contained_in_block
    assert payload["constant_intersection"] == {"2": {"skipped": "center set contained in a block"}}
    counted = [*payload["congruence"].values(), *payload["transitivity"].values(),
               payload["dihedral_suite"]]
    assert payload["ok"] == all(part.ok for part in counted)
