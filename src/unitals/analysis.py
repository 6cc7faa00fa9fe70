"""Structure analysis on top of the translation atlas.

Four instruments, and the battery that runs them:

* ``subunital_analysis`` — induce a linear space on the order-p center set
  and test how it sits inside the ambient unital (containment in a block,
  ideal embedding, faithfulness of the translation action, identification
  with a smaller hermitian unital when the parameters allow it).
* ``constant_intersection_check`` — the criterion that a constant block
  intersection with the center set forces the center set to be everything,
  provided every point carries a nontrivial translation.
* ``classify`` — the recognition harness: if every point is the center of a
  nontrivial translation and some translation is an involution, the unital
  should be hermitian; the harness never takes that on faith, it produces an
  explicit isomorphism or reports exactly which hypothesis broke.
* ``sharply_transitive_suite`` — for a transitive group with an involution
  fixing one point: the normal complement is abelian iff it is regular
  (sharply transitive) iff conjugation by the involution fixes none of its
  nontrivial elements; the suite evaluates the three independently, checks
  they agree, and confirms the generalized dihedral shape when they hold.
* ``lemma_battery`` — the ``check-lemmas`` report: each lemma that applies,
  with the translation-level checks, and one verdict over them.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .incidence import Unital, ideal_embedding_check, restrict_to, validate_unital
from .permgroup import (
    DihedralReport,
    PermGroup,
    generalized_dihedral_check,
    is_transitive,
    orbit,
    perm_order,
    restrict_group,
    restrict_perm,
    validate_perm,
)
from .translations import (
    TranslationAtlas,
    build_atlas,
    orbit_congruence_check,
    translation_transitivity_check,
)

__all__ = [
    "SubunitalReport",
    "subunital_analysis",
    "ConstantIntersectionReport",
    "constant_intersection_check",
    "ClassificationReport",
    "classify",
    "SharpTransitivityReport",
    "sharply_transitive_suite",
    "lemma_battery",
]


# -- subunital induced on a center set ----------------------------------------


class SubunitalReport(NamedTuple):
    p: int
    center_count: int
    contained_in_block: bool
    is_linear_space: bool
    ideally_embedded: bool
    embedding_witness: Optional[tuple[int, int]]
    action_faithful: bool
    kernel_order: int
    hermitian_order: Optional[int]
    isomorphic_to_hermitian: Optional[bool]
    isomorphism: Optional[tuple[int, ...]]


def subunital_analysis(U: Unital, atlas: TranslationAtlas, p: int) -> SubunitalReport:
    """Study the structure induced on the set of order-p translation centers."""
    omega = atlas.centers_of_order(p)
    contained = any(omega <= bs for bs in U.block_sets)
    everywhere = omega == frozenset(range(U.v))
    # restricted to every point, U keeps its blocks of two or more points, so
    # it is ideally embedded by definition: pass U, whose pair table is built
    if everywhere and all(len(b) >= 2 for b in U.blocks):
        sub = U
        ideal, witness = True, None
    else:
        sub = restrict_to(U, omega)
        ideal, witness = ideal_embedding_check(U, omega)

    # Kernel of the order-p translation group T acting on the center set:
    # |T| over the order of T's image there (first isomorphism theorem).
    # Conjugating an order-p translation by an automorphism gives one at the
    # image center, so T preserves the center set.  Acting on everything,
    # the kernel is trivial by definition and no chain needs to be built.
    if everywhere:
        kernel_order = 1
    else:
        group = atlas.group_for(p)
        image = restrict_group(group, omega)
        if image is None:
            raise RuntimeError(f"T[{p}] does not preserve its center set; this is a bug")
        kernel_order = group.order() // image.order()

    hermitian_order = iso = None
    if not contained:
        from .plane import hermitian_isomorphism

        hermitian_order, iso = hermitian_isomorphism(sub)
    isomorphic = None if hermitian_order is None else iso is not None

    return SubunitalReport(
        p=p,
        center_count=len(omega),
        contained_in_block=contained,
        is_linear_space=sub.is_linear_space,
        ideally_embedded=ideal,
        embedding_witness=witness,
        action_faithful=kernel_order == 1,
        kernel_order=kernel_order,
        hermitian_order=hermitian_order,
        isomorphic_to_hermitian=isomorphic,
        isomorphism=iso,
    )


# -- constant-intersection criterion -------------------------------------------


class ConstantIntersectionReport(NamedTuple):
    p: int
    center_count: int
    block_count: int
    intersection_sizes: tuple[tuple[int, int], ...]  # (size, multiplicity)
    constant: bool
    constant_value: Optional[int]
    every_point_a_center: bool
    hypothesis_failure: Optional[str]
    centers_are_all_points: Optional[bool]
    group_transitive_on_points: Optional[bool]

    @property
    def ok(self) -> bool:
        """False only when the criterion applies and its conclusion fails."""
        if not (self.constant and self.every_point_a_center):
            return True
        return bool(self.centers_are_all_points and self.group_transitive_on_points)


def constant_intersection_check(
    U: Unital, atlas: TranslationAtlas, p: int
) -> ConstantIntersectionReport:
    """Do all blocks meeting the order-p center set twice meet it equally often?

    When they do and every point of the unital carries a nontrivial
    translation, the center set must be the whole point set and the group
    generated by the order-p translations must be transitive on it; both
    conclusions are checked.  When some point carries no translation, the
    criterion does not apply and the report says so instead of flagging a
    contradiction.
    """
    omega = atlas.centers_of_order(p)
    if any(omega <= bs for bs in U.block_sets):
        raise ValueError("center set is contained in a block")

    sizes: dict[int, int] = {}
    nblocks = 0
    for bs in U.block_sets:
        m = len(bs & omega)
        if m >= 2:
            nblocks += 1
            sizes[m] = sizes.get(m, 0) + 1
    constant = len(sizes) == 1
    value = next(iter(sizes)) if constant else None

    mho_empty = not atlas.trivial_centers
    failure = None
    covers = None
    transitive = None
    if constant:
        if mho_empty:
            covers = omega == frozenset(range(U.v))
            transitive = len(orbit(atlas.generators(p), 0)) == U.v
        else:
            failure = "some points are the center of no nontrivial translation"

    return ConstantIntersectionReport(
        p=p,
        center_count=len(omega),
        block_count=nblocks,
        intersection_sizes=tuple(sorted(sizes.items())),
        constant=constant,
        constant_value=value,
        every_point_a_center=mho_empty,
        hypothesis_failure=failure,
        centers_are_all_points=covers,
        group_transitive_on_points=transitive,
    )


# -- classification harness ----------------------------------------------------


class ClassificationReport(NamedTuple):
    """Outcome of the hermitian recognition test.

    ``conclusion`` is ``verified-hermitian`` only when an explicit point
    bijection onto the reference hermitian unital of the same order has been
    found and re-checked; otherwise ``hypothesis-failed`` (with a witness) or
    ``undetermined``.
    """

    hypotheses: dict[str, bool]  # every-point-a-center, exists-involutory-translation
    omega2_full: bool
    conclusion: str
    witness: Optional[dict]
    isomorphism: Optional[tuple[int, ...]]


def classify(U: Unital, atlas: Optional[TranslationAtlas] = None) -> ClassificationReport:
    """Recognize a hermitian unital from its translations.

    Hypotheses: every point is the center of some nontrivial translation,
    and some translation is an involution.  When both hold the harness
    checks that the order-2 center set is everything and then searches for
    an explicit isomorphism onto the reference hermitian unital of the same
    order; nothing is concluded without that bijection.
    """
    report = validate_unital(U, U.q)
    if not report.valid:
        raise ValueError(f"not a unital of order {U.q}: {report.violations}")

    if atlas is None:
        atlas = build_atlas(U)
    h1 = not atlas.trivial_centers
    h2 = 2 in atlas.centers_by_order
    omega2 = atlas.centers_by_order.get(2, frozenset())
    omega2_full = omega2 == frozenset(range(U.v))

    witness: Optional[dict] = None
    iso: Optional[tuple[int, ...]] = None
    if not h1:
        witness = {
            "kind": "point-without-translation",
            "point": min(atlas.trivial_centers),
        }
        conclusion = "hypothesis-failed"
    elif not h2:
        witness = {"kind": "no-involutory-translation"}
        conclusion = "hypothesis-failed"
    elif not omega2_full:
        conclusion = "undetermined"
    else:
        from .plane import hermitian_isomorphism

        _, iso = hermitian_isomorphism(U)
        conclusion = "verified-hermitian" if iso is not None else "undetermined"

    return ClassificationReport(
        hypotheses={
            "every-point-a-center": h1,
            "exists-involutory-translation": h2,
        },
        omega2_full=omega2_full,
        conclusion=conclusion,
        witness=witness,
        isomorphism=iso,
    )


# -- sharply-transitive complement suite ----------------------------------------


class SharpTransitivityReport(NamedTuple):
    preconditions_ok: bool
    failed_preconditions: tuple[str, ...]
    domain_size: int
    m_order: Optional[int] = None
    m_abelian: Optional[bool] = None
    m_regular: Optional[bool] = None
    tau_conjugation_semiregular: Optional[bool] = None
    equivalences_agree: Optional[bool] = None
    all_conditions_hold: Optional[bool] = None
    dihedral: Optional[DihedralReport] = None
    m_supplied: bool = False  # the complement is always computed; kept in reports

    @property
    def ok(self) -> bool:
        if not self.preconditions_ok:
            return False
        if not self.equivalences_agree:
            return False
        if self.all_conditions_hold:
            return bool(self.dihedral and self.dihedral.ok)
        return True


def sharply_transitive_suite(
    G: PermGroup,
    domain: Iterable[int],
    tau: Sequence[int],
) -> SharpTransitivityReport:
    """Evaluate the abelian/regular/semiregular equivalence for ``G`` on a set.

    ``G`` must be transitive on ``domain`` and ``tau`` an involution in ``G``
    fixing exactly one of its points; the complement is the set of products
    of two involutions.  All precondition failures are reported together;
    the three equivalent conditions are evaluated independently and must
    agree.
    """
    dom = frozenset(domain)
    failures: list[str] = []

    tau = validate_perm(tau, G.degree)
    G_r = restrict_group(G, dom)
    if G_r is None:
        failures.append("the point set is not invariant under the group")
    tau_r = restrict_perm(tau, dom)
    if tau_r is None:
        failures.append("the point set is not invariant under tau")

    if not failures:
        if not is_transitive(G_r):
            failures.append("group not transitive on the point set")
        if tau not in G:
            failures.append("tau is not an element of the group")
        if perm_order(tau_r) != 2:
            failures.append("tau is not an involution on the point set")
        else:
            fixed = sum(1 for i, y in enumerate(tau_r) if i == y)
            if fixed != 1:
                failures.append(
                    f"tau fixes {fixed} points of the domain instead of exactly one"
                )

    if failures:
        return SharpTransitivityReport(
            preconditions_ok=False,
            failed_preconditions=tuple(dict.fromkeys(failures)),
            domain_size=len(dom),
        )

    dihedral = generalized_dihedral_check(G_r, tau_r)
    abelian = dihedral.m_abelian
    agree = dihedral.equivalences_agree
    all_hold = None if agree is None else agree and bool(abelian)

    return SharpTransitivityReport(
        preconditions_ok=True,
        failed_preconditions=(),
        domain_size=len(dom),
        m_order=dihedral.m_order,
        m_abelian=abelian,
        m_regular=dihedral.m_regular,
        tau_conjugation_semiregular=dihedral.tau_conjugation_semiregular,
        equivalences_agree=agree,
        all_conditions_hold=all_hold,
        dihedral=dihedral,
    )


# -- the lemma battery -----------------------------------------------------------


def lemma_battery(U: Unital, atlas: TranslationAtlas) -> dict:
    """The ``check-lemmas`` payload.  Its ``ok`` joins the ``ok`` of each check that ran;
    skipped or not-applicable parts and the descriptive subunital reports do not count."""
    congruence = {str(n): orbit_congruence_check(atlas, n) for n in atlas.centers_by_order}
    transitivity, subunitals, constants = {}, {}, {}
    for p in sorted(atlas.least_primes):
        transitivity[str(p)] = translation_transitivity_check(atlas, p)
        sub = subunitals[str(p)] = subunital_analysis(U, atlas, p)
        constants[str(p)] = (constant_intersection_check(U, atlas, p) if not sub.contained_in_block
                             else {"skipped": "center set contained in a block"})

    # The dihedral lemma presumes exactly one involutory translation at each
    # center that has one; the atlas's orders settle that without building T[2].
    suite = None
    omega2 = atlas.centers_by_order.get(2, frozenset())
    involutions = {c: atlas.orders[c].count(2) for c in sorted(omega2)}
    crowded = next((c for c, k in involutions.items() if k != 1), None)
    if crowded is not None:
        suite = {"not-applicable": (
            f"center {crowded} carries {involutions[crowded]} involutory "
            f"translations in a translation group of order {len(atlas.orders[crowded]) + 1}; "
            "the suite needs exactly one at every center of an involutory translation")}
    elif omega2:
        tau = next(p for p, n in atlas.group(min(omega2)) if n == 2)  # the least involution
        suite = sharply_transitive_suite(atlas.group_for(2), omega2, tau)
        if not suite.preconditions_ok:
            suite = {"not-applicable": "the suite's hypotheses fail: "
                     + "; ".join(suite.failed_preconditions)}

    return {
        "congruence": congruence,
        "transitivity": transitivity,
        "subunital": subunitals,
        "constant_intersection": constants,
        "dihedral_suite": suite,
        "ok": all(getattr(part, "ok", True) for part in (
            *congruence.values(), *transitivity.values(), *constants.values(), suite)),
    }
