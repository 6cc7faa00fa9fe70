"""Independent reference constructions used as oracles by several test files.

Everything here is built from first principles (affine geometry over GF(3),
explicit matrix groups, brute-force closures and enumerations) without
touching the code paths under test.
"""

from itertools import permutations, product

from unitals.incidence import Incidence, OnanResult, Unital
from unitals.permgroup import compose, identity_perm
from unitals.plane import dot

CLOSURE_LIMIT = 10_000

# Two 9-point files that are not unitals.  In the first, blocks 023 and 123
# share the pair (2, 3); the pair (1, 5) is covered twice as well, but is
# found second when the blocks are scanned in order.  In the second, the
# three blocks are disjoint.  In both, some point shares no block with 0.
DOUBLE_TXT = "unital v=9 k=3\n0 1 5\n0 2 3\n1 2 3\n1 5 8\n"
MISSING_TXT = "unital v=9 k=3\n0 1 2\n3 4 5\n6 7 8\n"

# Two isomorphic 7-point files of five triples, not linear spaces: in the
# second, the pairs (0, 6) and (1, 4) lie on two blocks each.
ISO_A_TXT = "unital v=7 k=3\n0 1 2\n0 1 3\n0 5 6\n2 3 4\n4 5 6\n"
ISO_B_TXT = "unital v=7 k=3\n0 2 6\n0 3 6\n1 4 5\n1 4 6\n2 3 5\n"


def ag23_unital() -> Unital:
    """The affine plane of order 3 as a unital: point (a, b) ↦ index 3a+b.

    Three points of GF(3)² are collinear exactly when they sum to zero in
    both coordinates, so the 12 lines are the zero-sum triples.
    """
    pts = [(a, b) for a in range(3) for b in range(3)]
    idx = {p: 3 * p[0] + p[1] for p in pts}
    blocks = set()
    for i, P in enumerate(pts):
        for Q in pts[i + 1 :]:
            R = ((-P[0] - Q[0]) % 3, (-P[1] - Q[1]) % 3)
            blocks.add(tuple(sorted((idx[P], idx[Q], idx[R]))))
    assert len(blocks) == 12
    return Unital(9, sorted(blocks), 2)


def ag23_corrupted() -> Unital:
    """AG(2, 3) with the line (0, 1, 2) replaced by (0, 1, 3): the pair 0-3
    is covered twice, 0-2 and 1-2 not at all; a one-point block and an
    empty block ride along."""
    blocks = [b for b in ag23_unital().blocks if b != (0, 1, 2)]
    return Unital(9, blocks + [(0, 1, 3), (4,), ()], 2)


def agl23_elements() -> list[tuple[int, ...]]:
    """All 432 affine maps x ↦ Ax + t of GF(3)², as point permutations."""
    pts = [(a, b) for a in range(3) for b in range(3)]
    idx = {p: 3 * p[0] + p[1] for p in pts}
    out = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    if (a * d - b * c) % 3 == 0:
                        continue
                    for t0 in range(3):
                        for t1 in range(3):
                            img = tuple(
                                idx[((a * x + b * y + t0) % 3, (c * x + d * y + t1) % 3)]
                                for (x, y) in pts
                            )
                            out.append(img)
    assert len(out) == 432
    return out


def relabel(U: Unital, g) -> Unital:
    """The same design with point x renamed g[x]."""
    return Unital(U.v, [tuple(g[x] for x in blk) for blk in U.blocks], U.q)


def carries_blocks_raw(A: Incidence, perm, B: Incidence) -> bool:
    """Every block of A maps onto a block of B, each image looked up as a
    sorted tuple."""
    blocks = set(B.blocks)
    return all(tuple(sorted(perm[x] for x in blk)) in blocks for blk in A.blocks)


def is_translation_raw(U: Unital, perm, c: int) -> bool:
    """The definition, with every block image looked up as a sorted tuple:
    an automorphism fixing c and each block through c setwise."""
    pi = tuple(perm)
    if len(pi) != U.v or sorted(pi) != list(range(U.v)):
        raise ValueError("not a permutation of the point set")
    if pi[c] != c or not carries_blocks_raw(U, pi, U):
        return False
    for bid in U.pencil(c):
        blk = U.blocks[bid]
        if frozenset(pi[x] for x in blk) != frozenset(blk):
            return False
    return True


def translations_raw(U: Unital, c: int) -> list[tuple[int, ...]]:
    """All translations with center c, identity included, by brute force:
    every permutation that fixes c and permutes the other points of each
    block through c among themselves, kept if it passes the definition."""
    pencil = [[x for x in U.blocks[bid] if x != c] for bid in U.pencil(c)]
    found = []
    for images in product(*(permutations(pts) for pts in pencil)):
        perm = list(range(U.v))
        for pts, img in zip(pencil, images):
            for x, y in zip(pts, img):
                perm[x] = y
        if is_translation_raw(U, perm, c):
            found.append(tuple(perm))
    return sorted(found)


def mulclose(gens, limit: int = CLOSURE_LIMIT) -> set[tuple[int, ...]]:
    """Brute-force closure of a generating set; the small-group oracle."""
    gens = [tuple(g) for g in gens]
    if not gens:
        raise ValueError("mulclose needs at least one permutation")
    elems = {identity_perm(len(gens[0]))}
    frontier = list(elems)
    while frontier:
        new = []
        for h in frontier:
            for g in gens:
                x = compose(h, g)
                if x not in elems:
                    elems.add(x)
                    new.append(x)
                    if len(elems) > limit:
                        raise ValueError(f"closure exceeded {limit} elements")
        frontier = new
    return elems


def pointwise_stabilizer(G, points) -> list[tuple[int, ...]]:
    """The elements of G fixing every one of ``points``, by brute force over
    ``G.elements()``."""
    return [g for g in G.elements() if all(g[x] == x for x in points)]


def orbits(elements, points) -> list[frozenset[int]]:
    """The orbits on ``points`` of a group given by all its elements, in the
    order of their least points: the orbit of x is every image g[x]."""
    out: list[frozenset[int]] = []
    for x in sorted(points):
        if not any(x in orb for orb in out):
            out.append(frozenset(g[x] for g in elements))
    return out


def block_through(U: Unital, x: int, y: int) -> int:
    """Id of the unique block joining two distinct points, read off the
    pair table."""
    if x == y:
        raise ValueError("a pair of distinct points is required")
    bid = U.pair_table[x * U.v + y]
    if bid == -1:
        raise ValueError(f"no block joins {x} and {y}")
    if bid == -2:
        raise ValueError(f"more than one block joins {x} and {y}")
    return bid


def type_counts(plane) -> dict[str, int]:
    """How many points of a twisted plane have each type I, II and III."""
    out = {"I": 0, "II": 0, "III": 0}
    for t in plane.point_type:
        out[t] += 1
    return out


def plane_incidence_raw(F) -> tuple[tuple, tuple]:
    """PG(2, F) by brute force: the normalized triples in index order, and
    for each line triple s the ascending ids of the triples t with
    t·s = 0, found by trying every pair."""
    n = F.order
    triples = ([(1, y, z) for y in range(n) for z in range(n)]
               + [(0, 1, z) for z in range(n)] + [(0, 0, 1)])
    lines = tuple(tuple(i for i, t in enumerate(triples) if dot(F, t, s) == 0)
                  for s in triples)
    return tuple(triples), lines


def validate_plane_raw(points_on, n: int, size: int, quadrangle):
    """The projective-plane axioms of order n by brute force: every pair of
    points is marked in a size × size table as the lines are scanned, and
    every pair of lines as the points are; a pair met twice is an error.
    Returns the transpose (the ascending line ids through each point)."""
    if len(points_on) != size or size != n * n + n + 1:
        raise ArithmeticError(f"expected {n*n+n+1} lines, found {len(points_on)}")
    for lid, pts in enumerate(points_on):
        if len(pts) != n + 1:
            raise ArithmeticError(f"line {lid} has {len(pts)} points, expected {n+1}")

    cover = bytearray(size * size)
    for lid, pts in enumerate(points_on):
        m = len(pts)
        for i in range(m):
            base = pts[i] * size
            for j in range(i + 1, m):
                a = base + pts[j]
                if cover[a]:
                    raise ArithmeticError(f"points {pts[i]} and {pts[j]} lie on two lines")
                cover[a] = 1
    # (n²+n+1)·C(n+1,2) == C(n²+n+1,2) identically, so coverage is complete.

    through = [[] for _ in range(size)]
    for lid, pts in enumerate(points_on):
        for pid in pts:
            through[pid].append(lid)
    for pid, ls in enumerate(through):
        if len(ls) != n + 1:
            raise ArithmeticError(f"point {pid} lies on {len(ls)} lines, expected {n+1}")

    cover = bytearray(size * size)
    for pid, ls in enumerate(through):
        m = len(ls)
        for i in range(m):
            base = ls[i] * size
            for j in range(i + 1, m):
                a = base + ls[j]
                if cover[a]:
                    raise ArithmeticError(f"lines {ls[i]} and {ls[j]} meet in two points")
                cover[a] = 1

    sets = [frozenset(ls) for ls in through]
    a, b, c, d = quadrangle
    for x, y, z in ((a, b, c), (a, b, d), (a, c, d), (b, c, d)):
        if sets[x] & sets[y] & sets[z]:
            raise ArithmeticError(f"quadrangle degenerate: {x},{y},{z} collinear")
    return [tuple(ls) for ls in through]


def onan_search_raw(I: Incidence, budget: int = 0) -> OnanResult:
    """The O'Nan search node by node, as the library ran it before the
    bitmask search: every meet is a set intersection, and every candidate
    fourth block is tried in turn.  The oracle of ``onan_search``."""
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    sets = I.block_sets
    nblocks = len(I.blocks)
    pb = I.point_blocks
    nodes = 0

    def neighbors(b: int) -> list[int]:
        out = set()
        for x in I.blocks[b]:
            out.update(pb[x])
        out.discard(b)
        return sorted(out)

    def meet_pt(a: int, b: int) -> int:
        common = sets[a] & sets[b]
        if len(common) != 1:
            raise ValueError(f"blocks {a} and {b} share {len(common)} points")
        return next(iter(common))

    nb_cache: dict[int, list[int]] = {}

    def nb(b: int) -> list[int]:
        if b not in nb_cache:
            nb_cache[b] = neighbors(b)
        return nb_cache[b]

    for b1 in range(nblocks):
        n1 = nb(b1)
        for b2 in n1:
            if b2 <= b1:
                continue
            nodes += 1
            if budget and nodes > budget:
                return OnanResult("budget-exhausted", None, None, nodes)
            p12 = meet_pt(b1, b2)
            n2 = set(n1) & set(nb(b2))
            for b3 in sorted(n2):
                if b3 <= b2:
                    continue
                nodes += 1
                if budget and nodes > budget:
                    return OnanResult("budget-exhausted", None, None, nodes)
                p13 = meet_pt(b1, b3)
                p23 = meet_pt(b2, b3)
                if p13 == p12 or p23 == p12 or p13 == p23:
                    continue
                seen3 = {p12, p13, p23}
                for b4 in sorted(n2 & set(nb(b3))):
                    if b4 <= b3:
                        continue
                    nodes += 1
                    if budget and nodes > budget:
                        return OnanResult("budget-exhausted", None, None, nodes)
                    p14 = meet_pt(b1, b4)
                    p24 = meet_pt(b2, b4)
                    p34 = meet_pt(b3, b4)
                    pts = {p14, p24, p34}
                    if len(pts) == 3 and not (pts & seen3):
                        six = tuple(sorted(seen3 | pts))
                        return OnanResult("witness", (b1, b2, b3, b4), six, nodes)
    return OnanResult("none", None, None, nodes)


def block_signatures_raw(I: Incidence) -> list[tuple]:
    """Per block: its size and the sorted (intersection size, count) pairs
    against every other block, by intersecting all pairs of blocks, as the
    isomorphism search computed them before it counted along pencils."""
    sets = I.block_sets
    sigs = []
    for i, s in enumerate(sets):
        counts: dict[int, int] = {}
        for j, t in enumerate(sets):
            if i == j:
                continue
            m = len(s & t)
            counts[m] = counts.get(m, 0) + 1
        sigs.append((len(s), tuple(sorted(counts.items()))))
    return sigs
