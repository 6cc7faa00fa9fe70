"""Block designs on indexed point sets: validation, restriction, searches.

The central objects are :class:`Incidence` (points 0..v-1 plus a canonical
sorted tuple of blocks) and :class:`Unital`, an incidence structure carrying
a declared order q.  Design axioms are *not* enforced by constructors — that
is :func:`validate_unital`'s job, so broken inputs can be loaded and reported.

Also here: the plain-text unital file format.  Line one is
``unital v=<points> k=<blocksize>`` with 1 <= v <= ``MAX_FILE_POINTS`` and
k >= 3; every following non-comment line is one
block as space-separated ascending point indices; ``#`` starts a comment.
Canonical form lists blocks in lexicographic order, which the constructors
produce and the writer emits.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from functools import cached_property
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

__all__ = [
    "Incidence",
    "Unital",
    "ValidationReport",
    "OnanResult",
    "validate_unital",
    "restrict_to",
    "ideal_embedding_check",
    "onan_search",
    "isomorphism_search",
    "carries_blocks",
    "read_unital",
    "parse_unital",
    "format_unital",
]


# The largest hermitian unital built from --q (17³ + 1 points); the pair
# table a loaded design gets has v² entries.
MAX_FILE_POINTS = 17**3 + 1


class Incidence:
    """Points 0..v-1 and a canonical block list.

    Structural invariants (enforced here): every block is a strictly
    ascending tuple of in-range point indices, blocks are pairwise distinct,
    and the block list is sorted lexicographically.
    """

    def __init__(self, v: int, blocks: Iterable[Sequence[int]]):
        if v < 0:
            raise ValueError("point count must be nonnegative")
        canon = []
        for blk in blocks:
            t = tuple(blk)
            prev = -1
            in_range = ascending = True
            for x in t:  # a non-integer anywhere outranks an out-of-range entry
                if not isinstance(x, int):
                    raise ValueError("block entries must be integers")
                if not 0 <= x < v:
                    in_range = False
                elif x <= prev:
                    ascending = False
                prev = x
            if not in_range:
                raise ValueError(f"block {t} has out-of-range entries for v={v}")
            if not ascending:
                t = tuple(sorted(t))
                if len(set(t)) != len(t):
                    raise ValueError(f"block {t} repeats a point")
            canon.append(t)
        canon.sort()
        for i in range(len(canon) - 1):
            if canon[i] == canon[i + 1]:
                raise ValueError(f"duplicate block {canon[i]}")
        self.v = v
        self.blocks: tuple[tuple[int, ...], ...] = tuple(canon)

    @cached_property
    def block_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(b) for b in self.blocks)

    @cached_property
    def point_blocks(self) -> tuple[tuple[int, ...], ...]:
        """For each point, the ascending ids of blocks containing it."""
        acc: list[list[int]] = [[] for _ in range(self.v)]
        for bid, blk in enumerate(self.blocks):
            for x in blk:
                acc[x].append(bid)
        return tuple(tuple(a) for a in acc)

    @cached_property
    def pair_table(self) -> list[int]:
        """Flat v*v table: entry x*v + y is the id of the block joining the
        points x and y, -1 if no block does, -2 if more than one does."""
        return self._pair_coverage[0]

    @property
    def doubly_covered_pair(self) -> Optional[tuple[int, int]]:
        """The first pair met on a second block in block order, else None."""
        return self._pair_coverage[1]

    @property
    def is_linear_space(self) -> bool:
        """Whether every pair of points lies on exactly one block; the pair
        table is built only when the blocks hold C(v, 2) pairs in all."""
        pairs = sum(comb(len(b), 2) for b in self.blocks)
        return pairs == comb(self.v, 2) and self._pair_coverage[1:] == (None, None)

    @cached_property
    def _pair_coverage(self) -> tuple[list[int], Optional[tuple[int, int]],
                                      Optional[tuple[int, int]]]:
        """The pair table, the first pair met a second time while the blocks
        are scanned in order, and the least uncovered pair (None if none)."""
        v = self.v
        tbl = [-1] * (v * v)
        double = None
        for bid, blk in enumerate(self.blocks):
            for x, y in itertools.combinations(blk, 2):
                a = x * v + y
                if tbl[a] == -1:
                    tbl[a] = tbl[y * v + x] = bid
                else:
                    tbl[a] = tbl[y * v + x] = -2
                    double = double or (x, y)
        missing = None
        for x in range(v - 1):
            try:
                y = tbl.index(-1, x * v + x + 1, x * v + v) - x * v
            except ValueError:
                continue
            missing = (x, y)
            break
        return tbl, double, missing

    def __repr__(self) -> str:
        return f"{type(self).__name__}(v={self.v}, blocks={len(self.blocks)})"


class Unital(Incidence):
    """An incidence structure with a declared unital order q.

    Whether it actually is a 2-(q^3+1, q+1, 1) design is checked by
    :func:`validate_unital`.
    """

    def __init__(self, v: int, blocks: Iterable[Sequence[int]], q: int):
        super().__init__(v, blocks)
        if q < 2:
            raise ValueError("unital order must be at least 2")
        self.q = q


def carries_blocks(A: Incidence, perm: Sequence[int], B: Incidence) -> bool:
    """Whether the point map ``perm`` sends every block of A onto a block of B.

    A block's image is the block B's pair table gives for the images of its
    first two points, so the block maps onto a block exactly when the two
    have the same size and every other image lies in it.  Blocks with fewer
    than two points, and pairs the table marks as uncovered or covered twice
    (invalid designs), are looked up among B's blocks as sorted tuples.
    """
    v = B.v
    block_sets = B.block_sets
    pair_block = B.pair_table if any(len(blk) >= 2 for blk in A.blocks) else ()
    image_of = perm.__getitem__
    for blk in A.blocks:
        e = pair_block[perm[blk[0]] * v + perm[blk[1]]] if len(blk) >= 2 else -1
        if e >= 0:
            image = block_sets[e]
            if len(image) != len(blk) or not image.issuperset(map(image_of, blk)):
                return False
            continue
        pts = tuple(sorted(map(image_of, blk)))
        if not pts:
            if B.blocks[:1] != ((),):  # the empty block sorts first
                return False
        elif not any(B.blocks[bid] == pts for bid in B.point_blocks[pts[0]]):
            return False
    return True


# -- design validation ------------------------------------------------------


class ValidationReport(NamedTuple):
    valid: bool
    q: int
    v: int
    block_count: int
    checks: dict
    violations: dict


def validate_unital(I: Incidence, q: int) -> ValidationReport:
    """Check the 2-(q^3+1, q+1, 1) axioms, reporting one witness per failure."""
    checks: dict[str, bool] = {}
    violations: dict[str, str] = {}
    v = I.v

    expected_v = q**3 + 1
    checks["point_count"] = v == expected_v
    if not checks["point_count"]:
        violations["point_count"] = f"v={v}, expected {expected_v}"

    k = q + 1
    bad = next((b for b in I.blocks if len(b) != k), None)
    checks["block_size"] = bad is None
    if bad is not None:
        violations["block_size"] = f"block {bad} has size {len(bad)}, expected {k}"

    # every unordered pair of points on exactly one block
    _, double, missing = I._pair_coverage
    checks["pair_coverage"] = double is None and missing is None
    if double is not None:
        violations["pair_coverage"] = f"pair {double} lies on more than one block"
    elif missing is not None:
        violations["pair_coverage"] = f"pair {missing} lies on no block"

    r = q * q
    degs = [0] * v
    for blk in I.blocks:
        for x in blk:
            degs[x] += 1
    badp = next((x for x in range(v) if degs[x] != r), None)
    checks["point_degree"] = badp is None
    if badp is not None:
        violations["point_degree"] = f"point {badp} lies on {degs[badp]} blocks, expected {r}"

    return ValidationReport(
        valid=all(checks.values()),
        q=q,
        v=v,
        block_count=len(I.blocks),
        checks=checks,
        violations=violations,
    )


# -- restriction and embedding ------------------------------------------------


def restrict_to(I: Incidence, subset: Iterable[int]) -> Incidence:
    """The design induced on ``subset``, its points renamed 0, 1, ... in
    ascending order: its blocks are the traces meeting it in >= 2 points."""
    pts = sorted(set(subset))
    if pts and (pts[0] < 0 or pts[-1] >= I.v):
        raise ValueError("subset contains out-of-range points")
    reindex = {x: i for i, x in enumerate(pts)}
    traces = (tuple(reindex[x] for x in blk if x in reindex) for blk in I.blocks)
    return Incidence(len(pts), [tr for tr in traces if len(tr) >= 2])


def ideal_embedding_check(U: Incidence, subset: Iterable[int]):
    """Is every ambient block through a subset point a block of the restriction?

    Returns ``(True, None)`` or ``(False, (point, block_id))`` where the
    witness block meets the subset in fewer than 2 points.
    """
    sub = frozenset(subset)
    sets = U.block_sets
    for x in sorted(sub):
        for bid in U.point_blocks[x]:
            if len(sets[bid] & sub) < 2:
                return False, (x, bid)
    return True, None


# -- O'Nan configurations -----------------------------------------------------


class OnanResult(NamedTuple):
    status: str  # "witness" | "none" | "budget-exhausted"
    blocks: Optional[tuple[int, int, int, int]]
    points: Optional[tuple[int, ...]]
    nodes: int


def onan_search(I: Incidence, budget: int = 0,
                automorphisms: Optional[Callable[[], Iterable[Sequence[int]]]] = None
                ) -> OnanResult:
    """Look for four blocks pairwise meeting in six distinct points.

    Equivalent to the usual four-line/six-point configuration: each of the
    six points then lies on exactly two of the four blocks and each block
    carries exactly three of the six points.  The search is lexicographic
    over ascending block quadruples, so the first witness is canonical;
    ``budget`` caps the number of explored candidate extensions (0 means
    exhaustive; a negative budget is rejected).

    Distinct blocks must share at most one point (true in any linear
    space): the search raises ValueError naming two blocks once it reaches
    a block that shares two points with another.

    Block sets are bitmasks.  A block meeting the three sides of a triangle
    b1 < b2 < b3 completes a configuration exactly when it avoids the
    pencils of the three vertices, so the fourth level is one mask per
    triangle, counted as one node per candidate up to the first witness.

    Most meeting pairs b1 < b2 hold no witness, and are cleared in one
    sweep.  Their transversals are the blocks above b2 that meet b1 and b2
    away from the shared point p12: exactly the third blocks of a
    triangle.  Each transversal meets b1 and b2 once, so two of them form
    a configuration with b1 and b2 exactly when they share a point on
    neither.  The sweep ORs each transversal's points off b1 and b2 into
    one mask; a transversal meeting that mask is a clash.  Without a
    clash the pair's nodes are counted in bulk: one for b2, one per third
    block above b2, and one popcount of fourth candidates per
    transversal.  On a clash, or when a block the sweep reaches shares two
    points with another, the pair is walked again node by node from its
    first node; that walk finds the first witness, its node number and
    every ValueError just as a search walked node by node throughout.
    Nodes are counted, and tested against the budget, in one place: the
    main loop, fed each cleared pair's bulk count and each lazily yielded
    step of a walk, so an exhausted budget stops the search before a later
    witness or ValueError.  Meet maps are built per use and not kept.

    Orbit certificate.  If the pairs of block 0 hold no end and I is a
    linear space, ``automorphisms()``, when given, returns permutations
    meant to be automorphisms of I.  If ``_free_by_orbits`` shows from them
    that I holds no configuration, the rest of the search is one step, its
    nodes counted by ``_free_nodes``; else the search goes on from block 1.
    """
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    blocks = I.blocks
    pb = I.point_blocks
    pencil = [0] * I.v  # filled for the points of each block nb() reaches
    # per block, filled when first reached
    nb_masks: list[Optional[int]] = [None] * len(blocks)
    point_masks = [0] * len(blocks)

    def nb(b: int) -> int:
        """The blocks above b that meet it, as a mask; checks b against
        every block."""
        if nb_masks[b] is None:
            own = 1 << b
            acc = 0
            for x in blocks[b]:
                if not pencil[x]:
                    pencil[x] = sum(1 << c for c in pb[x])
                twice = acc & pencil[x] & ~own
                if twice:
                    other = (twice & -twice).bit_length() - 1
                    raise ValueError(f"blocks {b} and {other} share more than one point")
                acc |= pencil[x]
            nb_masks[b] = acc & -(own << 1)
        return nb_masks[b]

    def meets(b: int) -> dict[int, int]:
        """Each block meeting b (and b itself) -> a point they share."""
        return {c: x for x in blocks[b] for c in pb[x]}

    def points(b: int) -> int:
        """The points of block b, as a mask."""
        if not point_masks[b]:
            point_masks[b] = sum(1 << x for x in blocks[b])
        return point_masks[b]

    def sweep(n1: int, m1: dict[int, int], pts1: int, b2: int) -> Optional[int]:
        """The nodes of the pair (b1, b2), counted in bulk, or None when it
        must be walked: two of its transversals share a point off b1 and
        b2, or a block the sweep reaches shares two points with another."""
        try:
            n12 = n1 & nb(b2)
            counted = 1 + n12.bit_count()
            off = ~(pts1 | points(b2))
            seen = 0
            rest3 = (n12 & ~pencil[m1[b2]]) >> b2 + 1  # the transversals
            while rest3:
                low = rest3 & -rest3
                rest3 ^= low
                b3 = b2 + low.bit_length()
                pts = (point_masks[b3] or points(b3)) & off
                if pts & seen:
                    return None
                seen |= pts
                n3 = nb_masks[b3]
                if n3 is None:
                    n3 = nb(b3)
                counted += (n12 & n3).bit_count()
        except ValueError:
            return None
        return counted

    def walk(b1: int, n1: int, m1: dict[int, int], b2: int):
        """The pair (b1, b2) node by node: yields (nodes, witness or None)
        for b2, then for each third block and its fourth candidates."""
        yield 1, None
        pen12 = pencil[m1[b2]]
        m2 = meets(b2)
        n12 = n1 & nb(b2)
        rest3 = n12 >> b2 + 1
        while rest3:
            low = rest3 & -rest3
            rest3 ^= low
            b3 = b2 + low.bit_length()
            yield 1, None
            if pen12 >> b3 & 1:
                continue  # b3 passes through p12: no triangle
            p13 = m1[b3]
            p23 = m2[b3]
            cands = (n12 & nb(b3)) >> b3 + 1
            good = cands & ~((pen12 | pencil[p13] | pencil[p23]) >> b3 + 1)
            low = good & -good  # the first witness, or 0 (then low - 1 = -1)
            found = None
            if good:
                b4 = b3 + low.bit_length()
                six = (m1[b2], p13, p23, m1[b4], m2[b4], meets(b3)[b4])
                found = (b1, b2, b3, b4), tuple(sorted(six))
            yield (cands & (low - 1)).bit_count() + (good != 0), found

    def steps():
        """(nodes, witness or None) for each cleared pair, and for each step
        of a walked one, in search order."""
        for b1 in range(len(blocks)):
            if (b1 == 1 and automorphisms is not None and I.is_linear_space
                    and _free_by_orbits(I, list(automorphisms()))):
                yield _free_nodes(I) - nodes, None
                return
            n1 = nb(b1)
            m1 = meets(b1)
            rest2 = n1 >> b1 + 1
            pts1 = points(b1)
            while rest2:
                low = rest2 & -rest2
                rest2 ^= low
                b2 = b1 + low.bit_length()
                counted = sweep(n1, m1, pts1, b2)
                if counted is None:
                    yield from walk(b1, n1, m1, b2)
                else:
                    yield counted, None

    nodes = 0
    for step, found in steps():
        nodes += step
        if budget and nodes > budget:
            return OnanResult("budget-exhausted", None, None, budget + 1)
        if found:
            return OnanResult("witness", *found, nodes)
    return OnanResult("none", None, None, nodes)


def _free_by_orbits(I: Incidence, generators: list[Sequence[int]]) -> bool:
    """Whether the permutations ``generators`` show that the linear space I
    holds no configuration.

    Automorphisms map configurations onto configurations, so if one exists,
    one runs through the first block c of some orbit of the generated group
    on the blocks of three or more points: c, a block a meeting c in a
    point p, and two transversals (blocks joining a point y != p of c to a
    point z != p of a) meeting off c and a.  As in the search's sweep, the
    transversals' points off c and a are ORed into one mask, and one that
    meets it is a clash.  False when a generator does not carry blocks onto
    blocks, on a clash, or when the check takes more transversals than the
    search has left past block 0, one per triangle not through block 0: in
    a linear space the triangles are the non-collinear point triples,
    C(k0, 2)(v - k0) of them with two points on block 0.
    """
    v, blocks, pb, pair = I.v, I.blocks, I.point_blocks, I.pair_table
    if not all(sorted(g) == list(range(v)) and carries_blocks(I, g, I) for g in generators):
        return False
    reps, seen = [], set()
    for c, blk in enumerate(blocks):
        if len(blk) >= 3 and c not in seen:
            reps.append(c)
            orbit = [c]
            seen.add(c)
            for b in orbit:  # g maps b onto the block through g(x) and g(y)
                x, y = blocks[b][:2]
                new = {pair[g[x] * v + g[y]] for g in generators} - seen
                seen |= new
                orbit += new
    k0 = len(blocks[0])
    left = comb(v, 3) - sum(comb(len(b), 3) for b in blocks) - comb(k0, 2) * (v - k0)
    if sum((len(blocks[c]) - 1) * (len(blocks[a]) - 1)
           for c in reps for p in blocks[c] for a in pb[p] if a != c) > left:
        return False
    masks = [sum(1 << x for x in blk) for blk in blocks]
    for c in reps:
        for p in blocks[c]:
            for a in pb[p]:
                if a == c:
                    continue
                off, met = ~(masks[c] | masks[a]), 0
                for y, z in itertools.product(blocks[c], blocks[a]):
                    if y != p != z:
                        pts = masks[pair[y * v + z]] & off
                        if pts & met:
                            return False
                        met |= pts
    return True


def _free_nodes(I: Incidence) -> int:
    """The nodes ``onan_search`` counts on I when no two blocks share two
    points and I holds no configuration.

    It counts a node for each meeting pair b1 < b2, one for each triple
    b1 < b2 < b3 of pairwise meeting blocks and, when the triple is a
    triangle (three distinct meets), one for each block b4 > b3 meeting
    its sides.  That b4 passes through exactly one vertex: through none it
    would complete a configuration, through two it would share both with a
    side.  So the fourth-level nodes are the sets {c, a, b, d} whose blocks
    a, b, d pass through a point x off c and meet c, and whose largest is
    not c: the three smaller then form a triangle whose sides the largest
    meets.  A set has one such (x, c), as two triples of its blocks share
    two blocks, which would pass through both points.  With r_x the blocks
    through x, s_x(c) those meeting c and j_x(c) those of them before c,

        nodes = Σ_x [C(r_x, 2) + C(r_x, 3)] + Σ_c Σ_{x∉c} C(s_x(c), 2) / 3
                + Σ_c Σ_{x∉c} [C(s_x(c), 3) - C(j_x(c), 3)],

    as blocks through one point meet nowhere else, and each triangle is
    counted from each side c and its opposite vertex x.  The blocks through
    x meeting c meet it in distinct points y, so each C(·, 2) and C(·, 3)
    sums over the pairs and triples of points of c: x is joined to y when
    it lies in the mask ``near[y]``, and by a block before c when it lies
    in ``below[y]``, filled as the blocks are taken in order.
    """
    v, blocks = I.v, I.blocks
    masks = [sum(1 << x for x in blk) for blk in blocks]
    near, below = [0] * v, [0] * v
    for blk, m in zip(blocks, masks):
        for y in blk:
            near[y] |= m
    triangles3 = fourth = 0
    for blk, m in zip(blocks, masks):
        rows = [(near[y] & ~m, below[y]) for y in blk]
        for i, (n1, b1) in enumerate(rows):
            for j in range(i + 1, len(rows)):
                n12, b12 = n1 & rows[j][0], b1 & rows[j][1]
                triangles3 += n12.bit_count()
                for n3, b3 in rows[j + 1:]:
                    fourth += (n12 & n3).bit_count() - (b12 & b3).bit_count()
        for y in blk:
            below[y] |= m
    at_points = sum(comb(r, 2) + comb(r, 3) for r in map(len, I.point_blocks))
    return at_points + triangles3 // 3 + fourth


# -- isomorphism --------------------------------------------------------------


def _invariants(I: Incidence) -> tuple[list[tuple], list[tuple]]:
    """Block signatures and point fingerprints, in one pass over the pencils.

    A block's signature is its size and the sorted (intersection size,
    count) pairs against every other block; a point's fingerprint is the
    sorted signatures of the blocks through it.  Each block counts the other
    blocks through each of its points; those it never reaches meet it in 0
    points, a count listed only when positive.
    """
    pb = I.point_blocks
    others = len(I.blocks) - 1
    sigs = []
    for bid, blk in enumerate(I.blocks):
        meets = Counter(c for x in blk for c in pb[x])
        meets.pop(bid, None)
        sizes = Counter(meets.values())
        if others > len(meets):
            sizes[0] = others - len(meets)
        sigs.append((len(blk), tuple(sorted(sizes.items()))))
    fps = [tuple(sorted(sigs[bid] for bid in pb[x])) for x in range(I.v)]
    return sigs, fps


def _uniform_degrees(I: Incidence) -> Optional[tuple]:
    """The sets of block sizes and point degrees when each has at most one
    member and no pair of points lies on two blocks, else None.  The pair
    table is read only when the degree r is at least 2: a point on at most
    one block shares no pair with two."""
    sizes = {len(b) for b in I.blocks}
    degrees = {len(bs) for bs in I.point_blocks}
    if len(sizes) > 1 or len(degrees) > 1:
        return None
    if max(degrees, default=0) >= 2 and I.doubly_covered_pair is not None:
        return None
    return sizes, degrees


def isomorphism_search(A: Incidence, B: Incidence):
    """Point bijection carrying the blocks of A exactly onto the blocks of B.

    Returns the image list (position i holds the B-point assigned to
    A-point i) or None.  The backtracking is exhaustive, so None is a proof
    of non-isomorphism at this scale.  Pruning: point fingerprints (which
    also settle the block signatures: a block of size k >= 1 lies in k of
    them, and a design has at most one empty block), and forced block
    images (once two points of an A-block are mapped and the images lie on
    a single common B-block, every remaining point of that A-block must
    land on it).  When both designs have one block size, one point degree
    and no pair on two blocks, every point has the same fingerprint; then
    (v, b, k, r) is compared and the fingerprints are not computed.
    """
    if A.v != B.v or len(A.blocks) != len(B.blocks):
        return None
    kr_b = _uniform_degrees(B)
    kr_a = None if kr_b is None else _uniform_degrees(A)
    if kr_a is not None:
        # every block meets k(r - 1) others once and the rest not at all,
        # so all points share one fingerprint
        if kr_a != kr_b:
            return None
        fp_a = fp_b = [0] * A.v
    else:
        _, fps_a = _invariants(A)
        _, fps_b = _invariants(B)
        fp_ids: dict[tuple, int] = {}
        fp_a = [fp_ids.setdefault(fp, len(fp_ids)) for fp in fps_a]
        fp_b = [fp_ids.setdefault(fp, len(fp_ids)) for fp in fps_b]
        if sorted(fp_a) != sorted(fp_b):
            return None

    v = A.v
    b_sets = B.block_sets
    b_pairs = B.pair_table if any(len(blk) >= 2 for blk in A.blocks) else ()
    b_point_blocks = B.point_blocks

    fp_groups: dict[int, list[int]] = {}
    for y in range(v):
        fp_groups.setdefault(fp_b[y], []).append(y)

    ablocks = A.blocks
    apb = A.point_blocks
    img = [-1] * v  # A-point -> B-point
    pre = [-1] * v  # B-point -> A-point
    blk_img = [-1] * len(ablocks)  # A-block -> its B-block, once forced
    blk_rep = [-1] * len(ablocks)  # A-block -> its first mapped point
    trail: list[tuple[list[int], int]] = []  # entries set, each undone to -1

    def pair_blocks(y1: int, y2: int):
        """Ids of the B-blocks through two points, ascending."""
        e = b_pairs[y1 * v + y2]
        if e != -2:
            return () if e == -1 else (e,)
        return [e for e in b_point_blocks[y1] if y2 in b_sets[e]]

    def candidates(u: int) -> list[int]:
        base = None
        for ab in apb[u]:
            e = blk_img[ab]
            if e == -1:
                continue
            s = {w for w in b_sets[e] if pre[w] == -1 and fp_b[w] == fp_a[u]}
            base = s if base is None else base & s
            if base is not None and len(base) <= 1:
                break
        if base is None:
            base = {w for w in fp_groups.get(fp_a[u], ()) if pre[w] == -1}
        return sorted(base)

    def put(u: int, w: int) -> None:
        img[u] = w
        pre[w] = u
        trail.append((img, u))
        trail.append((pre, w))

    def assign(u: int, w: int) -> bool:
        put(u, w)
        queue = [u]
        while queue:
            uu = queue.pop()
            for ab in apb[uu]:
                if blk_img[ab] != -1:
                    if img[uu] not in b_sets[blk_img[ab]]:
                        return False
                    continue
                other = blk_rep[ab]
                if other == -1:
                    blk_rep[ab] = uu
                    trail.append((blk_rep, ab))
                    continue
                cands = [e for e in pair_blocks(img[other], img[uu])
                         if len(b_sets[e]) == len(ablocks[ab])]
                if len(cands) != 1:
                    if not cands:
                        return False
                    continue  # ambiguous image (non-linear-space); defer to leaf check
                e = cands[0]
                blk_img[ab] = e
                trail.append((blk_img, ab))
                # force single-candidate points of this block
                for x in ablocks[ab]:
                    if img[x] != -1:
                        if img[x] not in b_sets[e]:
                            return False
                        continue
                    cs = candidates(x)
                    if not cs:
                        return False
                    if len(cs) == 1:
                        put(x, cs[0])
                        queue.append(x)
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            arr, i = trail.pop()
            arr[i] = -1

    def next_point():
        """The free point with the fewest candidates, then the most blocks
        holding one mapped point, then the least label; with its candidates.
        A point on no forced block has as candidates the free points of its
        fingerprint class, so only their count is taken."""
        free = Counter(fp_b[w] for w in range(v) if pre[w] == -1)
        best = best_key = None
        for u in range(v):
            if img[u] != -1:
                continue
            half, forced = 0, False
            for ab in apb[u]:
                if blk_img[ab] != -1:
                    forced = True
                elif blk_rep[ab] != -1:
                    half += 1
            key = (len(candidates(u)) if forced else free[fp_a[u]], -half, u)
            if best_key is None or key < best_key:
                best, best_key = u, key
                if key[0] == 0:
                    break
        return None if best is None else (best, candidates(best))

    # depth-first, one level per chosen point: the point, an iterator over
    # its untried candidates, and the trail mark its assignments undo to
    levels: list[tuple[int, Iterator[int], int]] = []
    nxt = next_point()
    while True:
        if nxt is None:
            if carries_blocks(A, img, B):
                return tuple(img)
        else:
            u, cs = nxt
            levels.append((u, iter(cs), len(trail)))
        while levels:  # the next candidate that assigns, backing up when a level runs out
            u, untried, mark = levels[-1]
            undo(mark)
            w = next(untried, None)
            if w is None:
                levels.pop()
            elif assign(u, w):
                break
        else:
            return None
        nxt = next_point()


# -- text format ---------------------------------------------------------------


def format_unital(U: Unital) -> str:
    sizes = {len(b) for b in U.blocks}
    if len(sizes) != 1:
        raise ValueError("cannot serialize: blocks have mixed sizes")
    lines = [f"unital v={U.v} k={sizes.pop()}"]
    lines.extend(" ".join(map(str, blk)) for blk in U.blocks)
    return "\n".join(lines) + "\n"


def parse_unital(text: str, source: str = "<string>") -> Unital:
    v = k = None
    blocks: list[tuple[int, ...]] = []
    seen: dict[tuple[int, ...], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if v is None:
            parts = line.split()
            if (
                len(parts) != 3
                or parts[0] != "unital"
                or not parts[1].startswith("v=")
                or not parts[2].startswith("k=")
            ):
                raise ValueError(
                    f"{source}:{lineno}: expected header 'unital v=<int> k=<int>', got {line!r}"
                )
            try:
                v = int(parts[1][2:])
                k = int(parts[2][2:])
            except ValueError:
                raise ValueError(f"{source}:{lineno}: malformed header numbers") from None
            if not 1 <= v <= MAX_FILE_POINTS or k < 3:
                raise ValueError(f"{source}:{lineno}: header v={v} k={k} out of range "
                                 f"(1 <= v <= {MAX_FILE_POINTS}, k >= 3)")
            continue
        try:
            pts = tuple(map(int, line.split()))
        except ValueError:
            raise ValueError(f"{source}:{lineno}: non-integer block entry") from None
        if len(pts) != k:
            raise ValueError(f"{source}:{lineno}: block has {len(pts)} points, expected k={k}")
        if any(map(operator.ge, pts, pts[1:])):
            raise ValueError(f"{source}:{lineno}: block entries must be strictly ascending")
        if pts[0] < 0 or pts[-1] >= v:  # ascending, so the endpoints bound the rest
            raise ValueError(f"{source}:{lineno}: point index out of range 0..{v - 1}")
        if pts in seen:
            raise ValueError(
                f"{source}:{lineno}: duplicate block (first seen on line {seen[pts]})"
            )
        seen[pts] = lineno
        blocks.append(pts)
    if v is None or k is None:
        raise ValueError(f"{source}: missing 'unital v=... k=...' header")
    return Unital(v, blocks, q=k - 1)


def read_unital(path) -> Unital:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_unital(fh.read(), source=str(path))

