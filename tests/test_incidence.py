import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    DOUBLE_TXT,
    ISO_A_TXT,
    ISO_B_TXT,
    MISSING_TXT,
    ag23_corrupted,
    ag23_doubled,
    ag23_unital,
    agl23_elements,
    block_signatures_raw,
    block_through,
    carries_blocks_raw,
    isomorphism_search_raw,
    onan_search_raw,
    pair_coverage_raw,
    pg_design,
    relabel,
)
from unitals import incidence
from unitals.gf import Field
from unitals.incidence import (
    MAX_FILE_POINTS,
    Incidence,
    OnanResult,
    _free_by_orbits,
    _free_nodes,
    _invariants,
    carries_blocks,
    format_unital,
    ideal_embedding_check,
    isomorphism_search,
    onan_search,
    parse_unital,
    read_unital,
    restrict_to,
    validate_unital,
)
from unitals.plane import ProjectivePlane, hermitian_unital
from unitals.translations import build_atlas

FANO = Incidence(
    7,
    [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)],
)


def test_incidence_canonicalization():
    I = Incidence(4, [(2, 1), (0, 3)])
    assert I.blocks == ((0, 3), (1, 2))
    with pytest.raises(ValueError):
        Incidence(3, [(0, 1), (1, 0)])  # duplicate after sorting
    with pytest.raises(ValueError):
        Incidence(3, [(0, 4)])
    with pytest.raises(ValueError):
        Incidence(3, [(1, 1)])


@pytest.mark.parametrize("v,blocks,message", [
    (-1, [], "point count must be nonnegative"),
    (3, [(0, 1.0)], "block entries must be integers"),
    # a non-integer anywhere in a block outranks an out-of-range entry before it
    (3, [(7, -1, "2")], "block entries must be integers"),
    (3, [(0, 3)], "block (0, 3) has out-of-range entries for v=3"),
    (3, [(-1, 0)], "block (-1, 0) has out-of-range entries for v=3"),
    # reported as given, before any sorting or repeat check
    (3, [(2, 9, 2)], "block (2, 9, 2) has out-of-range entries for v=3"),
    (3, [(1, 1)], "block (1, 1) repeats a point"),
    (3, [(2, 0, 2)], "block (0, 2, 2) repeats a point"),
    (3, [(0, 1), (1, 0)], "duplicate block (0, 1)"),
    # blocks are checked in the order given
    (3, [(0, 5), (0, "x")], "block (0, 5) has out-of-range entries for v=3"),
    (3, [(1, 1), (0, 5)], "block (1, 1) repeats a point"),
])
def test_incidence_constructor_messages(v, blocks, message):
    with pytest.raises(ValueError) as exc:
        Incidence(v, blocks)
    assert str(exc.value) == message


def test_unital_pair_lookup(h3):
    for x in range(h3.v):
        for y in range(x + 1, h3.v):
            bid = block_through(h3, x, y)
            assert x in h3.blocks[bid] and y in h3.blocks[bid]
    assert len(h3.point_blocks[0]) == 9  # q^2 blocks through a point
    with pytest.raises(ValueError):
        block_through(h3, 0, 0)


def test_validate_unital_accepts(h2, h3):
    assert validate_unital(h2, 2).valid
    assert validate_unital(h3, 3).valid


def test_validate_unital_rejects_mutations(h2):
    # missing block: a point pair loses coverage
    broken = Incidence(9, h2.blocks[1:])
    rep = validate_unital(broken, 2)
    assert not rep.valid and not rep.checks["pair_coverage"]
    assert "pair_coverage" in rep.violations

    # wrong block size
    rep = validate_unital(Incidence(9, [(0, 1), (2, 3)]), 2)
    assert not rep.valid and not rep.checks["block_size"]

    # wrong point count
    rep = validate_unital(Incidence(8, [(0, 1, 2)]), 2)
    assert not rep.valid and not rep.checks["point_count"]

    # doubled pair: add an extra block through an existing pair
    extra = list(h2.blocks) + [(0, 1, 5)]
    try:
        rep = validate_unital(Incidence(9, extra), 2)
        assert not rep.valid
    except ValueError:
        pass  # structural rejection is equally acceptable here


def test_validate_unital_witness_order():
    # (1, 5) is the least doubly covered pair, but (2, 3) is the first pair
    # met a second time when the blocks are scanned in order
    double = Incidence(9, [(0, 1, 5), (0, 2, 3), (1, 2, 3), (1, 5, 8)])
    rep = validate_unital(double, 2)
    assert rep.violations["pair_coverage"] == "pair (2, 3) lies on more than one block"

    rep = validate_unital(Incidence(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8)]), 2)
    assert rep.violations["pair_coverage"] == "pair (0, 3) lies on no block"

    assert not restrict_to(double, [0, 1, 2, 3, 5]).is_linear_space


@pytest.mark.parametrize("design", [
    *("h2", "h3", "h4", "h5", "fig", "fig_relabelled"),
    *(pytest.param(parse_unital(text), id=name) for name, text in (
        ("double", DOUBLE_TXT), ("missing", MISSING_TXT))),
    pytest.param(ag23_doubled(), id="ag23-doubled"),
    pytest.param(ag23_corrupted(), id="ag23-corrupted"),
])
def test_pair_coverage_matches_the_blocks_through_each_pair(design, request):
    if isinstance(design, str):
        design = request.getfixturevalue(design)
    I = getattr(design, "unital", design)
    assert I._pair_coverage == pair_coverage_raw(I)


def test_restrict_to_and_ideal_embedding(h2):
    # a block is an ideally embedded linear space (trivially: itself)
    blk = h2.blocks[0]
    sub = restrict_to(h2, blk)
    assert sub.v == 3 and sub.blocks == ((0, 1, 2),)
    assert sub.is_linear_space
    ok, witness = ideal_embedding_check(h2, blk)
    assert not ok and witness is not None  # other blocks leave the triple

    ok, witness = ideal_embedding_check(h2, range(9))
    assert ok and witness is None

    with pytest.raises(ValueError):
        restrict_to(h2, [0, 99])


def test_onan_absence_small(h2, h3):
    assert onan_search(h2).status == "none"
    assert onan_search(h3).status == "none"


def test_onan_finds_planted_configuration():
    # four triples pairwise meeting in six distinct points
    I = Incidence(6, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)])
    res = onan_search(I)
    assert res.status == "witness"
    assert res.blocks == (0, 1, 2, 3)
    assert res.points == (0, 1, 2, 3, 4, 5)


def test_onan_budget():
    I = Incidence(6, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)])
    res = onan_search(I, budget=1)
    assert res.status == "budget-exhausted"
    assert res.nodes == 2
    assert res.blocks is None


def test_onan_rejects_negative_budget():
    with pytest.raises(ValueError):
        onan_search(FANO, budget=-1)


def test_onan_rejects_repeated_pairs():
    with pytest.raises(ValueError, match="blocks 0 and 1 share more than one point"):
        onan_search(Incidence(4, [(0, 1, 2), (0, 1, 3)]))


# Cases with at most this many nodes are compared at every budget up to
# nodes + 1; larger ones at nodes - 1, nodes, nodes + 1, ONAN_FIXED_BUDGETS
# (the early pairs, and around the Figueroa witness at node 648) and a
# seeded sample of budgets below ONAN_SAMPLE_BELOW.
ONAN_EVERY_BUDGET = 400
ONAN_FIXED_BUDGETS = (*range(1, 61), *range(640, 651))
ONAN_SAMPLE_BELOW = 20000


# (id, fixture, relabelling seed or None, random block subset number or None)
ONAN_CASES = [
    ("planted", None, None, None),
    *((f"{h}{tag}", h, seed, None) for h in ("h2", "h3", "h4")
      for tag, seed in (("", None), ("-relabelled", int(h[1])))),
    ("fig", "fig", None, None),
    ("fig-relabelled", "fig_relabelled", None, None),
    *((f"{name}-subset{i}", name, None, i) for name in ("h3", "h4", "fig") for i in range(10)),
]


@pytest.mark.parametrize(
    "fixture,seed,subset", [c[1:] for c in ONAN_CASES], ids=[c[0] for c in ONAN_CASES]
)
def test_onan_matches_raw_search(request, fixture, seed, subset):
    if fixture is None:
        I = Incidence(6, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)])
    else:
        I = request.getfixturevalue(fixture)
        I = getattr(I, "unital", I)
    rng = random.Random(f"{fixture}-{seed}-{subset}")
    if seed is not None:
        perm = list(range(I.v))
        random.Random(seed).shuffle(perm)
        I = relabel(I, perm)
    if subset is not None:
        # blocks of a design still pairwise share at most one point
        share = rng.uniform(0.2, 0.7)
        I = Incidence(I.v, [b for b in I.blocks if rng.random() < share])
    full = onan_search_raw(I)
    assert onan_search(I) == full
    n = full.nodes
    if n <= ONAN_EVERY_BUDGET:
        budgets = range(1, n + 2)
    else:
        budgets = {n - 1, n, n + 1, *ONAN_FIXED_BUDGETS,
                   *rng.sample(range(1, min(n - 1, ONAN_SAMPLE_BELOW)), 5)}
    assert_onan_matches_raw_at(I, full, budgets)


def assert_onan_matches_raw_at(I, full, budgets):
    n = full.nodes
    for budget in sorted(budgets):
        # the raw search never counts more than n nodes, so from n on it
        # returns its exhaustive result
        expected = onan_search_raw(I, budget) if budget < n else full
        assert onan_search(I, budget) == expected, budget


PG23_LINES = ProjectivePlane(Field(3, 1)).points_on


@st.composite
def pg23_partial_spaces(draw):
    """At least four lines of PG(2, 3), each cut to at least two of its
    points, with the 13 points relabelled: blocks still share at most one
    point, and where a witness exists it falls in varied pairs and
    positions."""
    lines = draw(st.sets(st.sampled_from(range(13)), min_size=4))
    blocks = [draw(st.sets(st.sampled_from(PG23_LINES[lid]), min_size=2)) for lid in sorted(lines)]
    perm = draw(st.permutations(range(13)))
    return Incidence(13, [tuple(perm[x] for x in blk) for blk in blocks])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pg23_partial_spaces())
def test_onan_matches_raw_search_on_partial_planes(I):
    full = onan_search_raw(I)
    assert onan_search(I) == full
    assert_onan_matches_raw_at(I, full, range(1, full.nodes + 2))


def test_onan_witness_before_a_transversal_sharing_two_points():
    # (0,1,2), (0,3,4), (1,3,5), (2,4,5) form a configuration.  The pair of
    # the first two has the transversals (1,3,5), (1,4,6) and (2,4,5), in
    # that order; (1,4,6) shares the points 4 and 6 with (4,6,7), so any
    # pass that checks it before settling the witness raises.
    I = Incidence(8, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (1, 4, 6), (2, 4, 5), (4, 6, 7)])
    full = onan_search_raw(I)
    assert full == OnanResult("witness", (0, 1, 2, 4), (0, 1, 2, 3, 4, 5), 4)
    assert onan_search(I) == full
    assert_onan_matches_raw_at(I, full, range(1, full.nodes + 2))
    with pytest.raises(ValueError, match="blocks 3 and 4 share more than one point"):
        onan_search(Incidence(8, [b for b in I.blocks if b != (2, 4, 5)]))


@pytest.mark.parametrize("blocks,node,pair", [
    # block 3 meets no block below it: the main loop reaches it after 4 nodes
    ([(0, 1, 2), (0, 3, 4), (1, 3, 5), (6, 7, 8), (6, 7, 9)], 4, (3, 4)),
    # the second block of the walked pair (0, 2)
    ([(0, 1, 2), (0, 3, 4), (1, 5, 6), (5, 6, 7)], 2, (2, 3)),
    # the third block (1,4,6) of the walked pair (0, 1), at node 4
    ([(0, 1, 2), (0, 3, 4), (1, 3, 5), (1, 4, 6), (4, 6, 7)], 4, (3, 4)),
], ids=["first-block", "second-block", "third-block"])
def test_onan_budget_runs_out_before_a_block_sharing_two_points(blocks, node, pair):
    """Below the node at which the search reaches a block sharing two points
    with another, every budget runs out first, as in the node-by-node
    oracle; from that node on the search raises.  The oracle intersects
    blocks pair by pair, so it raises on the same two blocks at a later node."""
    I = Incidence(10, blocks)
    for budget in range(1, node):
        expected = OnanResult("budget-exhausted", None, None, budget + 1)
        assert onan_search(I, budget) == onan_search_raw(I, budget) == expected
    a, b = pair
    for budget in (0, *range(node, node + 20)):
        with pytest.raises(ValueError, match=f"^blocks {a} and {b} share more than one point$"):
            onan_search(I, budget)
    with pytest.raises(ValueError, match=f"^blocks {a} and {b} share 2 points$"):
        onan_search_raw(I)


def searched_translations(U):
    """The verified translations ``onan`` passes to the orbit certificate."""
    return [p for _, p, _ in build_atlas(U).searched]


def never_called():
    raise AssertionError("the search read its automorphisms")


# designs without a configuration: (id, fixture, relabelling seed or None)
FREE_CASES = [
    *((f"{h}{tag}", h, seed) for h in ("h2", "h3", "h4", "h5")
      for tag, seed in (("", None), ("-relabelled", int(h[1])))),
    ("ag23", None, None),
]


@pytest.mark.parametrize("fixture,seed", [c[1:] for c in FREE_CASES], ids=[c[0] for c in FREE_CASES])
def test_onan_orbit_certificate_matches_the_exhaustive_and_raw_searches(
        request, monkeypatch, fixture, seed):
    """The closed form equals the raw and the exhaustive search; the search
    takes it where the translations certify the design, H(3)-H(5) and not
    H(2) or AG(2, 3), whose check would cost more than the search has left;
    and the two routes agree at every budget around the nodes of block 0's
    pairs and the total."""
    U = ag23_unital() if fixture is None else request.getfixturevalue(fixture)
    if seed is not None:
        perm = list(range(U.v))
        random.Random(seed).shuffle(perm)
        U = relabel(U, perm)
    full = onan_search(U)
    assert full == onan_search_raw(U)
    assert full.status == "none" and _free_nodes(U) == full.nodes
    gens = searched_translations(U)
    certified = _free_by_orbits(U, gens)
    assert certified == (U.v > 9)
    closed_forms = []
    monkeypatch.setattr(incidence, "_free_nodes", lambda I: closed_forms.append(I) or _free_nodes(I))
    assert onan_search(U, automorphisms=lambda: gens) == full
    assert len(closed_forms) == certified
    # the search past block 0 never meets block 0, so it is the search without it
    prefix = full.nodes - onan_search(Incidence(U.v, U.blocks[1:])).nodes
    for budget in (prefix - 1, prefix, full.nodes - 1, full.nodes, full.nodes + 1):
        expected = full if budget >= full.nodes else OnanResult(
            "budget-exhausted", None, None, budget + 1)
        assert onan_search(U, budget) == expected, budget
        assert onan_search(U, budget, automorphisms=lambda: gens) == expected, budget


@pytest.mark.parametrize("design", ["fig", "pg3"])
def test_onan_reads_no_automorphisms_when_block_0_holds_a_witness(request, design):
    I = pg_design(3) if design == "pg3" else request.getfixturevalue("fig").unital
    full = onan_search(I)
    assert full.status == "witness" and full.blocks[0] == 0
    assert onan_search(I, automorphisms=never_called) == full


@pytest.mark.parametrize("blocks,pair", [
    ([(0, 1, 2), (0, 3, 4), (1, 3, 5), (6, 7, 8), (6, 7, 9)], (3, 4)),
    ([(0, 1, 2), (3, 4, 5), (3, 4, 6)], (1, 2)),
])
def test_onan_reads_no_automorphisms_when_blocks_share_two_points(blocks, pair):
    """Block 0's pairs end without a witness, but the design is no linear
    space: the search goes on to the same ValueError."""
    I = Incidence(10, blocks)
    a, b = pair
    for automorphisms in (None, never_called):
        with pytest.raises(ValueError, match=f"^blocks {a} and {b} share more than one point$"):
            onan_search(I, automorphisms=automorphisms)
    assert "_pair_coverage" not in vars(I)  # too few pairs for a linear space to need it


def test_onan_orbit_certificate_finds_a_configuration(fig, fig_atlas):
    """Every block of the Figueroa unital lies on a configuration, and its
    block orbits cost fewer transversals than the search has left past
    block 0, so the certificate fails on a clash, at its first orbit."""
    assert not _free_by_orbits(fig.unital, [p for _, p, _ in fig_atlas.searched])


def test_onan_rejects_a_planted_non_automorphism(h3, monkeypatch):
    gens = searched_translations(h3)
    assert _free_by_orbits(h3, gens)
    swap = list(range(h3.v))
    swap[0], swap[1] = 1, 0
    verdicts = []
    monkeypatch.setattr(incidence, "carries_blocks",
                        lambda A, g, B: verdicts.append(carries_blocks(A, g, B)) or verdicts[-1])
    assert not _free_by_orbits(h3, [*gens, swap])
    assert verdicts == [True] * len(gens) + [False]
    assert not _free_by_orbits(h3, [[0] * h3.v])  # not a permutation
    monkeypatch.setattr(incidence, "_free_nodes", never_called)
    assert onan_search(h3, automorphisms=lambda: [*gens, swap]) == onan_search(h3)


def test_isomorphism_identity_and_relabel(h3):
    iso = isomorphism_search(h3, h3)
    assert iso == tuple(range(28))

    g = tuple((5 * i + 3) % 28 for i in range(28))  # a fixed affine scramble
    assert sorted(g) == list(range(28))
    other = relabel(h3, g)
    iso = isomorphism_search(h3, other)
    assert iso is not None
    blocks = set(other.blocks)
    for blk in h3.blocks:
        assert tuple(sorted(iso[x] for x in blk)) in blocks


def test_isomorphism_parameter_shortcut(h2, h3):
    assert isomorphism_search(h2, h3) is None


def test_isomorphism_distinguishes_hexagon_from_triangles():
    hexagon = Incidence(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    triangles = Incidence(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert isomorphism_search(hexagon, triangles) is None
    rotated = Incidence(6, [(1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 1)])
    assert isomorphism_search(hexagon, rotated) is not None


def test_isomorphism_search_depth_is_not_bounded_by_the_recursion_limit():
    """The search chooses one point per level, so one block and 1097 free
    points take 1098 levels, more than Python's default limit of 1000
    frames."""
    one_block = Incidence(1100, [(0, 1, 2)])
    assert isomorphism_search(one_block, Incidence(1100, [(0, 1, 2)])) == tuple(range(1100))


def test_isomorphism_search_maps_many_disjoint_blocks():
    """Two levels per triple: 500 disjoint triples against a relabelled copy
    take 1000 levels."""
    triples = Incidence(1500, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(500)])
    other = shuffled(triples, 27)
    iso = isomorphism_search(triples, other)
    assert iso is not None and carries_blocks(triples, iso, other)


def shuffled(I: Incidence, seed: int) -> Incidence:
    """I with its points renamed by a permutation drawn from ``seed``."""
    perm = list(range(I.v))
    random.Random(seed).shuffle(perm)
    return Incidence(I.v, [tuple(perm[x] for x in blk) for blk in I.blocks])


SMALL_BLOCKS = Incidence(5, [(), (0,), (0, 1, 2), (2, 3, 4), (1, 3)])

# Two non-isomorphic configurations of nine points and nine triples, each
# point on three triples and each pair on at most one: every triple meets
# six others, so every point has the same fingerprint and only the
# backtracking tells them apart.  Likewise cycles against unions of shorter
# cycles.
NINE_THREE = (
    Incidence(9, [(0, 1, 5), (0, 2, 8), (0, 4, 6), (1, 3, 7), (1, 4, 8), (2, 3, 6),
                  (2, 5, 7), (3, 4, 5), (6, 7, 8)]),
    Incidence(9, [(0, 1, 2), (0, 3, 8), (0, 4, 7), (1, 5, 6), (1, 7, 8), (2, 3, 6),
                  (2, 4, 5), (3, 5, 7), (4, 6, 8)]),
)


def cycles(*lengths: int) -> Incidence:
    """Disjoint cycles of the given lengths, as a design of 2-point blocks."""
    blocks, start = [], 0
    for n in lengths:
        blocks += [(start + i, start + (i + 1) % n) for i in range(n)]
        start += n
    return Incidence(start, blocks)


# (id, A, B): a fixture name, a design, or (a fixture name or design, seed)
# for a relabelled copy
ISO_CASES = [
    *((f"{h}-{tag}", a, b) for h in ("h2", "h3", "h4") for tag, a, b in (
        ("canonical", h, h),
        ("canonical-relabelled", h, (h, 1)),
        ("relabelled-canonical", (h, 2), h),
        ("relabelled-relabelled", (h, 3), (h, 4)),
    )),
    ("h2-ag23", "h2", ag23_unital()),
    ("iso_a-iso_b", parse_unital(ISO_A_TXT), parse_unital(ISO_B_TXT)),
    *((f"{name}-relabelled{seed}", parse_unital(text), (parse_unital(text), seed))
      for name, text in (("iso_a", ISO_A_TXT), ("iso_b", ISO_B_TXT),
                         ("double", DOUBLE_TXT), ("missing", MISSING_TXT))
      for seed in (5, 6)),
    ("double-missing", parse_unital(DOUBLE_TXT), parse_unital(MISSING_TXT)),
    ("nine-three", NINE_THREE[0], (NINE_THREE[1], 8)),
    *((f"nine-three{i}-relabelled", I, (I, 9)) for i, I in enumerate(NINE_THREE)),
    ("cycle6-two-cycles3", cycles(6), (cycles(3, 3), 10)),
    ("cycle8-two-cycles4", cycles(8), (cycles(4, 4), 11)),
    ("cycles3-5-relabelled", cycles(3, 5), (cycles(3, 5), 12)),
    # an empty block on one side only: the block signatures differ, and so
    # do the point fingerprints
    ("empty-block-one-side", SMALL_BLOCKS,
     Incidence(5, [(4,), (0,), (0, 1, 2), (2, 3, 4), (1, 3)])),
    ("empty-block-both-sides", SMALL_BLOCKS, (SMALL_BLOCKS, 7)),
    ("empty-block-the-other-side", Incidence(4, [(0,), (0, 1), (2, 3)]),
     Incidence(4, [(), (0, 1), (2, 3)])),
]


def iso_design(request, spec) -> Incidence:
    """The design an ISO_CASES entry names."""
    seed = None
    if isinstance(spec, tuple):
        spec, seed = spec
    if isinstance(spec, str):
        spec = request.getfixturevalue(spec)
    return spec if seed is None else shuffled(spec, seed)


@pytest.mark.parametrize("a,b", [c[1:] for c in ISO_CASES], ids=[c[0] for c in ISO_CASES])
def test_isomorphism_search_matches_raw_search(request, a, b):
    A, B = iso_design(request, a), iso_design(request, b)
    assert isomorphism_search(A, B) == isomorphism_search_raw(A, B)


def count_invariant_passes(monkeypatch) -> list:
    """Count the calls of ``_invariants`` that the search makes from now on."""
    calls = []

    def counted(I):
        calls.append(I)
        return _invariants(I)

    monkeypatch.setattr(incidence, "_invariants", counted)
    return calls


# one block size, one point degree and no pair on two blocks on both sides;
# the Fano plane and a 7-cycle have the same v and b, not the same (k, r)
UNIFORM_CASES = [
    *(c for c in ISO_CASES if c[0].startswith(("h2-", "h3-", "h4-", "nine-three", "cycle"))),
    ("fano-cycle7", FANO, cycles(7)),
    ("cycle7-fano", cycles(7), FANO),
]


@pytest.mark.parametrize("a,b", [c[1:] for c in UNIFORM_CASES], ids=[c[0] for c in UNIFORM_CASES])
def test_uniform_designs_skip_the_fingerprint_pass(request, monkeypatch, a, b):
    A, B = iso_design(request, a), iso_design(request, b)
    raw = isomorphism_search_raw(A, B)
    calls = count_invariant_passes(monkeypatch)
    assert isomorphism_search(A, B) == raw
    assert calls == []


# six points on four triples, each point on two: no pair twice, and two
# pairs twice
SIX_FOUR = Incidence(6, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)])
SIX_FOUR_DOUBLED = Incidence(6, [(0, 1, 2), (0, 1, 3), (2, 4, 5), (3, 4, 5)])


@pytest.mark.parametrize("A,B", [
    (SIX_FOUR_DOUBLED, shuffled(SIX_FOUR_DOUBLED, 13)),
    (SIX_FOUR, SIX_FOUR_DOUBLED),
    (SIX_FOUR_DOUBLED, SIX_FOUR),
], ids=["doubled-relabelled", "plain-doubled", "doubled-plain"])
def test_a_pair_on_two_blocks_keeps_the_fingerprint_pass(monkeypatch, A, B):
    raw = isomorphism_search_raw(A, B)
    calls = count_invariant_passes(monkeypatch)
    assert isomorphism_search(A, B) == raw
    assert calls


# no point on two blocks, so no pair on two: the pair table answers nothing
DEGREE_AT_MOST_ONE = [
    Incidence(7, []),
    Incidence(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8)]),
]


@pytest.mark.parametrize("D", DEGREE_AT_MOST_ONE, ids=["header-only", "disjoint-triples"])
def test_a_design_of_degree_at_most_one_builds_no_pair_table(D):
    B = shuffled(D, 5)
    raw = isomorphism_search_raw(Incidence(D.v, D.blocks), B)
    A = Incidence(D.v, D.blocks)
    assert isomorphism_search(A, B) == raw
    assert raw is not None
    assert "_pair_coverage" not in vars(A)


PARTIAL_BASES = (ag23_unital(), hermitian_unital(2), hermitian_unital(3))


@st.composite
def partial_design_pairs(draw):
    """Two designs with blocks dropped from one of PARTIAL_BASES, the second
    relabelled: the same blocks dropped, all but one of them and one other
    block, which often leaves the point fingerprints alike, or as many
    others."""
    base = draw(st.sampled_from(PARTIAL_BASES))
    n = len(base.blocks)
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    how = draw(st.sampled_from(("same", "swap", "shuffle")))
    if how == "shuffle":
        other = draw(st.permutations(keep))
    else:
        other = list(keep)
        if how == "swap":
            i, j = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
            other[i], other[j] = other[j], other[i]
    perm = draw(st.permutations(range(base.v)))
    A = Incidence(base.v, [b for b, k in zip(base.blocks, keep) if k])
    B = Incidence(base.v, [tuple(perm[x] for x in b) for b, k in zip(base.blocks, other) if k])
    return A, B


@settings(max_examples=80, deadline=None, derandomize=True)
@given(partial_design_pairs())
def test_isomorphism_search_matches_raw_search_on_partial_designs(pair):
    A, B = pair
    assert isomorphism_search(A, B) == isomorphism_search_raw(A, B)


def test_header_only_designs_build_no_pair_table():
    """Without blocks nothing reads a pair table: on the largest file
    ``isomorphic`` accepts, neither design builds its v² entries."""
    A, B = (parse_unital(f"unital v={MAX_FILE_POINTS} k=3\n") for _ in range(2))
    assert isomorphism_search(A, B) == tuple(range(MAX_FILE_POINTS))
    assert "_pair_coverage" not in vars(A) and "_pair_coverage" not in vars(B)


@st.composite
def relabelled_sub_designs(draw):
    """Some blocks of one of PARTIAL_BASES, relabelled: no configuration."""
    base = draw(st.sampled_from(PARTIAL_BASES))
    keep = draw(st.lists(st.booleans(), min_size=len(base.blocks), max_size=len(base.blocks)))
    perm = draw(st.permutations(range(base.v)))
    return Incidence(base.v, [tuple(perm[x] for x in b) for b, k in zip(base.blocks, keep) if k])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(relabelled_sub_designs())
def test_onan_closed_form_matches_the_raw_search_on_sub_designs(I):
    full = onan_search_raw(I)
    assert full.status == "none" and _free_nodes(I) == full.nodes
    assert onan_search(I) == onan_search(I, automorphisms=lambda: []) == full


def fingerprint_classes(fps) -> list[int]:
    """Each point's class, named by the first point that shares it."""
    first: dict = {}
    return [first.setdefault(fp, x) for x, fp in enumerate(fps)]


@pytest.mark.parametrize("design", [
    *("h2", "h3", "h4", "h5", "fig", "fig_relabelled"),
    *(pytest.param(parse_unital(text), id=name) for name, text in (
        ("double", DOUBLE_TXT), ("missing", MISSING_TXT),
        ("iso_a", ISO_A_TXT), ("iso_b", ISO_B_TXT))),
    pytest.param(Incidence(5, [(), (0,), (0, 1, 2), (2, 3, 4), (1, 3)]), id="small-blocks"),
])
def test_invariants_match_all_pairs_signatures(design, request):
    if isinstance(design, str):
        design = request.getfixturevalue(design)
    I = getattr(design, "unital", design)
    sigs, fps = _invariants(I)
    raw = block_signatures_raw(I)
    assert sigs == raw
    sig_ids: dict = {}
    for sig in raw:
        sig_ids.setdefault(sig, len(sig_ids))
    raw_fps = [tuple(sorted(sig_ids[raw[b]] for b in I.point_blocks[x])) for x in range(I.v)]
    assert fingerprint_classes(fps) == fingerprint_classes(raw_fps)


def test_carries_blocks_matches_sorted_tuple_lookup(h3, atlas3):
    rng = random.Random(11)
    perms = [tuple(rng.sample(range(28), 28)) for _ in range(200)]
    autos = [p for c in range(h3.v) for p, _ in atlas3.group(c)]
    g = tuple(rng.sample(range(28), 28))
    other = relabel(h3, g)
    for perm in perms + autos:
        assert carries_blocks(h3, perm, h3) == carries_blocks_raw(h3, perm, h3)
        # onto the relabelled copy: the automorphisms followed by g carry
        # blocks, the same maps without g seldom do
        moved = tuple(g[x] for x in perm)
        for image in (perm, moved):
            assert carries_blocks(h3, image, other) == carries_blocks_raw(h3, image, other)
    assert all(carries_blocks(h3, p, h3) for p in autos)
    assert all(carries_blocks(h3, tuple(g[x] for x in p), other) for p in autos)
    assert not any(carries_blocks(h3, p, h3) for p in perms)

    # pairs covered twice and uncovered, a one-point and an empty block
    bad = ag23_corrupted()
    good = Incidence(9, [b for b in bad.blocks if len(b) == 3])
    verdicts = set()
    for g in agl23_elements():
        for A, B in ((bad, bad), (good, bad), (bad, good)):
            raw = carries_blocks_raw(A, g, B)
            assert carries_blocks(A, g, B) == raw
            verdicts.add(raw)
    assert verdicts == {True, False}

    # every block's first pair is covered twice, so every lookup is by tuple
    twice = Incidence(4, [(0, 1, 2), (0, 1, 3)])
    perms = list(itertools.permutations(range(4)))
    assert [carries_blocks(twice, p, twice) for p in perms] == \
        [carries_blocks_raw(twice, p, twice) for p in perms]
    assert carries_blocks(twice, (1, 0, 3, 2), twice)


def test_empty_block_maps_only_onto_an_empty_block():
    A = Incidence(3, [(), (0, 1, 2)])
    assert carries_blocks(A, (1, 2, 0), A)
    assert not carries_blocks(A, (1, 2, 0), Incidence(3, [(0,), (0, 1, 2)]))


def test_format_parse_roundtrip(h3):
    text = format_unital(h3)
    assert text.startswith("unital v=28 k=4\n")
    U = parse_unital(text)
    assert (U.v, U.q, U.blocks) == (h3.v, h3.q, h3.blocks)


def test_write_read_roundtrip(tmp_path, h2):
    path = tmp_path / "u.unital"
    path.write_text(format_unital(h2))
    U = read_unital(path)
    assert (U.v, U.q, U.blocks) == (h2.v, h2.q, h2.blocks)


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\nunital v=3 k=3  # trailing\n0 1 2\n"
    U = parse_unital(text)
    assert U.v == 3 and U.blocks == ((0, 1, 2),)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 1 2\n", "expected header"),
        ("unital v=9 k=3\n0 1\n", "expected k=3"),
        ("unital v=9 k=3\n0 1 x\n", "non-integer"),
        ("unital v=9 k=3\n2 1 0\n", "strictly ascending"),
        ("unital v=9 k=3\n0 1 9\n", "out of range"),
        ("unital v=9 k=3\n-1 0 4\n", "out of range"),
        # checked in order: entries, size, ascending, range
        ("unital v=9 k=3\n0 x\n", "non-integer"),
        ("unital v=9 k=3\n5 1 9\n", "strictly ascending"),
        ("unital v=9 k=3\n-1 5 0\n", "strictly ascending"),
        ("unital v=9 k=3\n0 1 2\n0 1 2\n", "duplicate block (first seen on line 2)"),
        ("# nothing\n", "missing"),
        ("unital v=0 k=3\n", "out of range"),
        ("unital v=4915 k=3\n0 1 2\n", "header v=4915 k=3 out of range"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ValueError, match=".*") as exc:
        parse_unital(text, source="bad.unital")
    assert fragment in str(exc.value)
    if fragment != "missing":
        assert "bad.unital:" in str(exc.value)  # line number prefix


def test_header_accepts_the_largest_hermitian_unital():
    assert MAX_FILE_POINTS == 17**3 + 1
    assert parse_unital("unital v=4914 k=3\n0 1 2\n").v == 4914


def test_parse_error_reports_line_number():
    text = "unital v=9 k=3\n0 1 2\n0 1\n"
    with pytest.raises(ValueError) as exc:
        parse_unital(text, source="f")
    assert "f:3:" in str(exc.value)
