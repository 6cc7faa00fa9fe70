import random

import pytest
from hypothesis import given, strategies as st

from helpers import mulclose, orbits, pointwise_stabilizer
from unitals.permgroup import (
    PermGroup,
    compose,
    conjugate,
    fixed_points,
    generalized_dihedral_check,
    identity_perm,
    inverse,
    is_transitive,
    is_two_transitive,
    orbit,
    perm_cycles,
    perm_order,
    restrict_group,
    restrict_perm,
    validate_perm,
)

S4_GENS = [(1, 0, 2, 3), (1, 2, 3, 0)]
A4_GENS = [(1, 2, 0, 3), (0, 2, 3, 1)]
C6_GEN = [(1, 2, 3, 4, 5, 0)]
S3_GENS = [(1, 0, 2), (1, 2, 0)]
D8_GENS = [(1, 2, 3, 0), (3, 2, 1, 0)]  # dihedral of order 8, on a square

perms8 = st.permutations(range(8)).map(tuple)


@given(p=perms8, q=perms8)
def test_compose_applies_left_then_right(p, q):
    r = compose(p, q)
    for x in range(8):
        assert r[x] == q[p[x]]


@given(p=perms8)
def test_inverse(p):
    assert compose(p, inverse(p)) == identity_perm(8)
    assert compose(inverse(p), p) == identity_perm(8)


@given(p=perms8, g=perms8)
def test_conjugate_transports_action(p, g):
    c = conjugate(p, g)
    for x in range(8):
        assert c[g[x]] == g[p[x]]


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (9, 2), (65, 3), (513, 4)])
def test_conjugate_matches_composition(n, seed):
    rng = random.Random(seed)
    for _ in range(20):
        p, g = list(range(n)), list(range(n))
        rng.shuffle(p)
        rng.shuffle(g)
        p, g = tuple(p), tuple(g)
        assert conjugate(p, g) == compose(compose(inverse(g), p), g)


@given(p=perms8)
def test_perm_order_matches_iteration(p):
    n = perm_order(p)
    acc = identity_perm(8)
    for _ in range(n):
        acc = compose(acc, p)
    assert acc == identity_perm(8)
    # and no smaller positive power is the identity
    acc = p
    for _ in range(n - 1):
        assert acc != identity_perm(8)
        acc = compose(acc, p)


def test_perm_cycles():
    assert perm_cycles((1, 0, 3, 4, 2)) == [(0, 1), (2, 3, 4)]
    assert perm_cycles(identity_perm(3)) == []
    assert fixed_points((1, 0, 2)) == (2,)
    assert perm_order((1, 0, 2)) == 2 and perm_order((1, 2, 0)) != 2
    assert perm_order(identity_perm(3)) != 2


def test_validate_perm():
    assert validate_perm([1, 0], 2) == (1, 0)
    with pytest.raises(ValueError):
        validate_perm([0, 0], 2)
    with pytest.raises(ValueError):
        validate_perm([0, 1], degree=3)


def test_mulclose_s3():
    elems = mulclose([(1, 0, 2), (1, 2, 0)])
    assert len(elems) == 6


@pytest.mark.parametrize(
    "gens,order",
    [
        (S4_GENS, 24),
        (A4_GENS, 12),
        (C6_GEN, 6),
        ([(1, 0, 3, 2), (2, 3, 0, 1)], 4),  # Klein four-group
        ([(1, 2, 3, 0), (3, 2, 1, 0)], 8),  # dihedral on a square
    ],
)
def test_group_order_matches_closure(gens, order):
    G = PermGroup(gens, degree=len(gens[0]))
    assert G.order() == order == len(mulclose(gens))
    assert set(G.elements()) == mulclose(gens)


def test_membership():
    G = PermGroup(A4_GENS, degree=4)
    assert (1, 0, 3, 2) in G  # double transposition is even
    assert (1, 0, 2, 3) not in G  # a transposition is odd


def test_orbits_and_transitivity():
    G = PermGroup(C6_GEN, degree=6)
    assert orbit(G.generators, 0) == frozenset(range(6))
    assert is_transitive(G)
    assert not is_two_transitive(G)
    S3 = PermGroup([(1, 0, 2), (1, 2, 0)], degree=3)
    assert is_two_transitive(S3)
    two_orbits = PermGroup([(1, 0, 2, 3)], degree=4)
    assert sorted(map(len, orbits(two_orbits.elements(), range(4)))) == [1, 1, 2]
    assert not is_transitive(two_orbits)
    assert is_transitive(restrict_group(two_orbits, [0, 1]))
    assert restrict_group(two_orbits, [0, 2]) is None  # not invariant


@pytest.mark.parametrize("gens", [S4_GENS, A4_GENS, C6_GEN, [(1, 0, 2, 3)]])
def test_orbit_matches_closure(gens):
    elems = mulclose(gens)
    for x in range(len(gens[0])):
        assert orbit(gens, x) == {g[x] for g in elems}
    assert orbit([], 3) == {3}


def test_stabilizer_chain_orders():
    """The chain's order is the orbit length times the stabilizer order, the
    stabilizers counted from the chain's own elements."""
    S4 = PermGroup(S4_GENS, degree=4)
    stab0 = pointwise_stabilizer(S4, (0,))
    assert len(stab0) == 6 and S4.order() == len(orbit(S4.generators, 0)) * len(stab0)
    stab01 = pointwise_stabilizer(S4, (0, 1))
    assert len(stab01) == 2
    assert sorted(len(o) for o in orbits(stab01, range(4))) == [1, 1, 2]


def two_transitive_raw(G, X) -> bool:
    """G is transitive on X, and the stabilizer of min X, taken from
    ``G.elements()``, is transitive on the rest of X."""
    x0 = min(X)
    rest = frozenset(X) - {x0}
    stab = pointwise_stabilizer(G, (x0,))
    return ({g[x0] for g in G.elements()} == set(X)
            and {g[min(rest)] for g in stab} == rest)


@pytest.mark.parametrize("gens,degree,X,expected", [
    (S3_GENS, 3, range(3), True),
    (S4_GENS, 4, range(4), True),
    (A4_GENS, 4, range(4), True),
    (C6_GEN, 6, range(6), False),
    (D8_GENS, 4, range(4), False),
    ([(1, 0, 2, 3)], 4, range(4), False),  # not transitive
    ([], 3, range(3), False),  # the trivial group
    # S3 on the proper invariant subset {1, 2, 4}, with 0 and 3 swapped
    ([(3, 2, 4, 0, 1), (3, 2, 1, 0, 4)], 5, (1, 2, 4), True),
    ([(3, 2, 4, 0, 1)], 5, (1, 2, 4), False),  # C3 there
    ([(3, 2, 4, 0, 1)], 5, (0, 3), True),  # the swap of 0 and 3
])
def test_two_transitivity_matches_stabilizer_oracle(gens, degree, X, expected):
    G = PermGroup(gens, degree=degree)
    assert is_two_transitive(restrict_group(G, X)) == two_transitive_raw(G, X) == expected


def test_two_transitivity_rejects_small_or_moved_sets():
    S4 = PermGroup(S4_GENS, degree=4)
    with pytest.raises(ValueError, match="at least two"):
        is_two_transitive(restrict_group(PermGroup(pointwise_stabilizer(S4, (0,)), degree=4), [0]))
    assert restrict_group(S4, [0, 1, 2]) is None  # 3 is moved into the set


def test_restrict_group_is_the_image_on_an_invariant_set():
    """The image's order is |G| over the kernel's, the kernel counted from
    ``G.elements()``.  G is the swap of 0 and 3 times S3 on {1, 2, 4}, of
    order 12, so its images there have orders 6, 2 and 12."""
    G = PermGroup([(3, 2, 4, 0, 1), (3, 2, 1, 0, 4)], degree=5)
    for X in [(1, 2, 4), (0, 3), range(5)]:
        image = restrict_group(G, X)
        kernel = [g for g in G.elements() if all(g[x] == x for x in X)]
        assert image.degree == len(set(X))
        assert image.order() * len(kernel) == G.order() == 12
        assert set(image.elements()) == {restrict_perm(g, X) for g in G.elements()}
    assert restrict_group(G, (0, 1)) is None


def test_restrict_perm():
    p = (3, 2, 4, 0, 1)  # (0 3)(1 2 4)
    assert restrict_perm(p, (4, 2, 1)) == (1, 2, 0)  # 1 -> 2 -> 4 -> 1, relabelled
    assert restrict_perm(p, (0, 3)) == (1, 0)
    assert restrict_perm(p, range(5)) == p
    assert restrict_perm(p, (0, 1)) is None  # 0 -> 3 leaves the set
    assert restrict_perm(p, (1, 2)) is None  # 2 -> 4 leaves the set


def test_trivial_group():
    G = PermGroup([], degree=5)
    assert G.order() == 1
    assert G.elements() == [identity_perm(5)]
    assert orbit(G.generators, 3) == frozenset({3})


def test_generalized_dihedral_s3():
    S3 = PermGroup([(1, 0, 2), (1, 2, 0)], degree=3)
    rep = generalized_dihedral_check(S3, (1, 0, 2))
    assert rep.ok
    assert rep.m_order == 3
    assert rep.m_abelian and rep.m_regular and rep.tau_conjugation_semiregular
    assert rep.equivalences_agree
    assert rep.coset_is_conjugacy_class and rep.coset_all_involutions
    assert rep.tau_inverts_m


def test_generalized_dihedral_rejects_d4():
    # products of two involutions form the even-order rotation subgroup
    D4 = PermGroup([(1, 2, 3, 0), (3, 2, 1, 0)], degree=4)
    rep = generalized_dihedral_check(D4, (3, 2, 1, 0))
    assert not rep.ok
    assert rep.reason is not None


def test_generalized_dihedral_requires_involution():
    S3 = PermGroup([(1, 0, 2), (1, 2, 0)], degree=3)
    with pytest.raises(ValueError):
        generalized_dihedral_check(S3, (1, 2, 0))
    with pytest.raises(ValueError):
        generalized_dihedral_check(S3, identity_perm(3))


def test_two_transitivity_on_the_figueroa_subunital(fig, fig_atlas):
    """T[2] of the Figueroa unital on its 9-point hermitian subunital, asked
    on all 513 points and on its restriction to the subunital."""
    H = fig.hermitian_points
    T2 = fig_atlas.group_for(2)
    T2h = restrict_group(T2, H)
    assert T2h.order() == T2.order() == 18
    assert is_two_transitive(T2h) == two_transitive_raw(T2, H) is False
    assert is_two_transitive(T2h) == two_transitive_raw(T2h, range(9)) is False
