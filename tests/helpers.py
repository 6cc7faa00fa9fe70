"""Independent reference constructions used as oracles by several test files.

Everything here is built from first principles (affine geometry over GF(3),
explicit matrix groups, brute-force closures and enumerations) without
touching the code paths under test.
"""

from collections import Counter
from itertools import permutations, product
from operator import getitem
from typing import Optional

from unitals.analysis import ConstantIntersectionReport
from unitals.gf import make_field, prime_power
from unitals.incidence import Incidence, OnanResult, Unital, _invariants, carries_blocks
from unitals.permgroup import compose, fixed_points, identity_perm, orbit, perm_cycles, perm_order
from unitals.plane import frobenius_perm, polar_unital, projective_plane
from unitals.translations import CongruenceReport, TransitivityReport, TranslationAtlas

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

# PG(2, 3) read as a design: each center's 17 translations are 9 homologies
# of order 2 and 8 elations of order 3, each fixing points besides its center
PG3_TXT = ("unital v=13 k=4\n0 1 2 12\n0 3 6 9\n0 4 8 10\n0 5 7 11\n1 3 8 11\n"
           "1 4 7 9\n1 5 6 10\n2 3 7 10\n2 4 6 11\n2 5 8 9\n3 4 5 12\n"
           "6 7 8 12\n9 10 11 12\n")


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


def ag23_doubled() -> Unital:
    """AG(2, 3) with the blocks (1, 2, 7) and (1, 6, 7) added: the pair
    (1, 2) is met a second time first when the blocks are scanned in order,
    and every point still shares a block with every other."""
    return Unital(9, list(ag23_unital().blocks) + [(1, 2, 7), (1, 6, 7)], 2)


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


def report_doc_raw(report) -> dict:
    """A report NamedTuple as JSON data: every field in turn, then ``ok`` when
    the class defines it as a property.  Tuples become lists and nested
    reports recurse."""

    def value(x):
        if hasattr(x, "_fields"):  # a report; it is a tuple too, so test this first
            return report_doc_raw(x)
        if isinstance(x, tuple):
            return [value(y) for y in x]
        return x

    doc = {name: value(x) for name, x in zip(report._fields, report)}
    if isinstance(getattr(type(report), "ok", None), property):
        doc["ok"] = report.ok
    return doc


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
    for bid in U.point_blocks[c]:
        blk = U.blocks[bid]
        if frozenset(pi[x] for x in blk) != frozenset(blk):
            return False
    return True


def translations_raw(U: Unital, c: int) -> list[tuple[int, ...]]:
    """All translations with center c, identity included, by brute force:
    every permutation that fixes c and permutes the other points of each
    block through c among themselves, kept if it passes the definition."""
    pencil = [[x for x in U.blocks[bid] if x != c] for bid in U.point_blocks[c]]
    found = []
    for images in product(*(permutations(pts) for pts in pencil)):
        perm = list(range(U.v))
        for pts, img in zip(pencil, images):
            for x, y in zip(pts, img):
                perm[x] = y
        if is_translation_raw(U, perm, c):
            found.append(tuple(perm))
    return sorted(found)


def as_pairs(perms) -> list[tuple[tuple[int, ...], int]]:
    """Permutations in the format of ``translations_at``: distinct
    (translation, order) pairs in ascending order, identity left out."""
    return sorted((p, n) for p in set(perms) if (n := perm_order(p)) > 1)


def atlas_groups(atlas: TranslationAtlas) -> list:
    """Every center's (translation, order) pairs, read through ``group``."""
    return [atlas.group(c) for c in range(atlas.unital.v)]


def search_translations_raw(U: Unital, c: int) -> list[tuple[int, ...]]:
    """The translation search by constraint propagation, as the library ran
    it before the star construction; the oracle of ``translations_at``.

    Every point starts confined to its block through c; once two points of a
    block have images, the block's image is forced and its other points are
    confined to it.  Only fixed-point-free maps are tried, so on a design
    where a translation can fix a second point (not a unital) it misses
    translations.  Returns the candidates found, unverified and without the
    identity."""
    v = U.v
    blocks = U.blocks
    block_sets = U.block_sets
    point_blocks = U.point_blocks
    pair_block = U.pair_table
    nblocks = len(blocks)
    pencil = point_blocks[c]
    pencil_of = [-1] * v
    for bid in pencil:
        for x in blocks[bid]:
            if x != c:
                pencil_of[x] = bid
    pencil_set = frozenset(pencil)

    img = [-1] * v
    pre = [-1] * v
    img[c] = c
    pre[c] = c
    bimg = [-1] * nblocks
    bcnt = [0] * nblocks
    brep = [0] * nblocks
    used_images = [False] * nblocks
    for bid in pencil:
        bimg[bid] = bid
        bcnt[bid] = 1
        brep[bid] = c
        used_images[bid] = True

    sig_cache: dict[int, frozenset] = {}

    def pencil_sig(bid: int) -> frozenset:
        s = sig_cache.get(bid)
        if s is None:
            s = frozenset(pencil_of[x] for x in blocks[bid])
            sig_cache[bid] = s
        return s

    trail: list[tuple[int, int, int]] = []
    results: list[tuple[int, ...]] = []

    def assign_and_propagate(u0: int, w0: int) -> bool:
        stack = [(u0, w0)]
        scans: list[int] = []
        while stack or scans:
            if stack:
                u, w = stack.pop()
                if img[u] != -1:
                    if img[u] != w:
                        return False
                    continue
                if pre[w] != -1:
                    return False
                img[u] = w
                pre[w] = u
                trail.append((0, u, w))
                for bid in point_blocks[u]:
                    e = bimg[bid]
                    if e != -1:
                        if w not in block_sets[e]:
                            return False
                        bcnt[bid] += 1
                        trail.append((1, bid, 0))
                        continue
                    if bcnt[bid] == 0:
                        bcnt[bid] = 1
                        brep[bid] = u
                        trail.append((2, bid, 0))
                        continue
                    # second assigned point: the block's image is forced
                    a = img[brep[bid]]
                    e2 = pair_block[a * v + w]
                    if e2 < 0 or e2 in pencil_set or used_images[e2]:
                        return False
                    if pencil_sig(bid) != pencil_sig(e2):
                        return False
                    bimg[bid] = e2
                    used_images[e2] = True
                    bcnt[bid] += 1
                    trail.append((3, bid, e2))
                    scans.append(bid)
            else:
                bid = scans.pop()
                e = bimg[bid]
                epts = blocks[e]
                for u in blocks[bid]:
                    if img[u] != -1:
                        continue
                    pu = pencil_of[u]
                    cand = -1
                    multiple = False
                    for w in epts:
                        if pre[w] != -1 or pencil_of[w] != pu or w == u:
                            continue
                        if cand == -1:
                            cand = w
                        else:
                            multiple = True
                            break
                    if cand == -1:
                        return False
                    if not multiple:
                        stack.append((u, cand))
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            kind, a, b = trail.pop()
            if kind == 0:
                img[a] = -1
                pre[b] = -1
            elif kind == 1:
                bcnt[a] -= 1
            elif kind == 2:
                bcnt[a] = 0
            else:
                bimg[a] = -1
                bcnt[a] -= 1
                used_images[b] = False

    def free_candidates(u: int) -> list[int]:
        """Intersection of the images allowed by every determined block at u."""
        pu = pencil_of[u]
        base: Optional[set[int]] = None
        for bid in point_blocks[u]:
            e = bimg[bid]
            if e == -1:
                continue
            s = {
                w
                for w in blocks[e]
                if pre[w] == -1 and pencil_of[w] == pu and w != u
            }
            base = s if base is None else base & s
            if len(base) <= 1:
                break
        assert base is not None  # the pencil block of u is always determined
        return sorted(base)

    def choose(depth: int):
        if depth == 0:
            u = 0 if c != 0 else 1
            return u, free_candidates(u)
        if depth == 1:
            first = next(x for x in range(v) if img[x] != -1 and x != c)
            b0 = pencil_of[first]
            u = next(x for x in range(v) if img[x] == -1 and pencil_of[x] != b0)
            return u, free_candidates(u)
        best = None
        best_key = None
        for u in range(v):
            if img[u] != -1:
                continue
            cs = free_candidates(u)
            half = sum(1 for bid in point_blocks[u] if bimg[bid] == -1 and bcnt[bid] > 0)
            key = (len(cs), -half, u)
            if best_key is None or key < best_key:
                best, best_key = (u, cs), key
                if not cs:
                    break
        return best

    def search(depth: int) -> None:
        nxt = choose(depth)
        if nxt is None:
            results.append(tuple(img))
            return
        u, cands = nxt
        for w in cands:
            mark = len(trail)
            if assign_and_propagate(u, w):
                search(depth + 1)
            undo(mark)

    if v > 1:
        search(0)
    return results


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


def block_orbit_reps_raw(I: Incidence, generators) -> list[int]:
    """The least block of each orbit of the generated group on the blocks of
    two or more points, by closure: a block's image under a generator is
    looked up as a sorted tuple."""
    index = {blk: bid for bid, blk in enumerate(I.blocks)}
    reps: list[int] = []
    seen: set[int] = set()
    for bid, blk in enumerate(I.blocks):
        if len(blk) < 2 or bid in seen:
            continue
        reps.append(bid)
        seen.add(bid)
        frontier = [blk]
        while frontier:
            image_ids = {index[tuple(sorted(g[x] for x in b))] for b in frontier for g in generators}
            frontier = [I.blocks[e] for e in image_ids - seen]
            seen |= image_ids
    return reps


def pair_coverage_raw(I: Incidence) -> tuple[list[int], Optional[tuple[int, int]],
                                              Optional[tuple[int, int]]]:
    """The pair table, the first pair met a second time in block order, and
    the least uncovered pair, from the set of blocks through each pair."""
    v = I.v
    on = [set() for _ in range(v)]
    for bid, blk in enumerate(I.blocks):
        for x in blk:
            on[x].add(bid)
    common = {(x, y): on[x] & on[y] for x in range(v) for y in range(x + 1, v)}
    tbl = [-1] * (v * v)
    for (x, y), bids in common.items():
        if bids:
            tbl[x * v + y] = tbl[y * v + x] = min(bids) if len(bids) == 1 else -2
    double = next(((x, y) for bid, blk in enumerate(I.blocks)
                   for i, x in enumerate(blk) for y in blk[i + 1:]
                   if min(common[x, y]) < bid), None)
    missing = next((pair for pair, bids in common.items() if not bids), None)
    return tbl, double, missing


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


def pg_triples(n: int) -> list[tuple[int, int, int]]:
    """The normalized triples (first nonzero entry 1) over a field of order
    n, in index order: (1, y, z) for each y and z, then (0, 1, z), then
    (0, 0, 1)."""
    return ([(1, y, z) for y in range(n) for z in range(n)]
            + [(0, 1, z) for z in range(n)] + [(0, 0, 1)])


def dot(F, u, v) -> int:
    acc = 0
    for x, y in zip(u, v):
        acc = F.add(acc, F.mul(x, y))
    return acc


def cross(F, u, v) -> tuple[int, int, int]:
    """The cross product: the line through two points, the meet of two
    lines, (0, 0, 0) when they are the same."""
    def minor(i, j):
        return F.add(F.mul(u[i], v[j]), F.neg(F.mul(u[j], v[i])))
    return (minor(1, 2), minor(2, 0), minor(0, 1))


def normalize(F, v) -> tuple[int, int, int]:
    """Scale a nonzero homogeneous triple so its first nonzero entry is 1."""
    s = next((x for x in v if x), 0)
    if not s:
        raise ValueError("zero vector has no projective class")
    return tuple(F.div(x, s) for x in v)


def plane_incidence_raw(F) -> tuple[tuple, tuple]:
    """PG(2, F) by brute force: the normalized triples in index order, and
    for each line triple s the ascending ids of the triples t with
    t·s = 0, found by trying every pair."""
    triples = pg_triples(F.order)
    lines = tuple(tuple(i for i, t in enumerate(triples) if dot(F, t, s) == 0)
                  for s in triples)
    return tuple(triples), lines


def frobenius_perm_raw(F, k: int) -> tuple[int, ...]:
    """x ↦ x^(p^k) applied to each coordinate of each normalized triple,
    the image looked up by its triple."""
    triples = pg_triples(F.order)
    index = {t: i for i, t in enumerate(triples)}
    return tuple(index[tuple(F.frobenius(x, k) for x in t)] for t in triples)


def classify_raw(F, alpha) -> tuple[list[str], list[int]]:
    """The types and μ images of the twisted plane from coordinates: a
    point moved by α has the line through αP and α²P, a cross product, as
    its carrier; it is type II when it lies on it (a zero dot product),
    else type III with the carrier as μ.  Fixed points are type I."""
    triples = pg_triples(F.order)
    index = {t: i for i, t in enumerate(triples)}
    types, mu = [], []
    for i, t in enumerate(triples):
        a = alpha[i]
        if a == i:
            types.append("I")
            mu.append(-1)
            continue
        carrier = normalize(F, cross(F, triples[a], triples[alpha[a]]))
        if dot(F, t, carrier) == 0:
            types.append("II")
            mu.append(-1)
        else:
            types.append("III")
            mu.append(index[carrier])
    return types, mu


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
    against every other block, as the isomorphism search computed them
    before it counted along pencils.  Each unordered pair of blocks is
    intersected once, and its size counts for both blocks."""
    sets = I.block_sets
    # after[i][j - i - 1] is the size of the meet of blocks i and j > i
    after = [[len(s & t) for t in sets[i + 1:]] for i, s in enumerate(sets)]
    sigs = []
    for i, s in enumerate(sets):
        counts = Counter(after[i])
        counts.update(map(getitem, after[:i], range(i - 1, -1, -1)))  # after[j][i - j - 1]
        sigs.append((len(s), tuple(sorted(counts.items()))))
    return sigs


def isomorphism_search_raw(A: Incidence, B: Incidence):
    """The isomorphism search as the library ran it with a trail of four
    kinds of entry and a per-block count of mapped points: the oracle of
    ``isomorphism_search``, which must return the same first isomorphism.

    Point bijection carrying the blocks of A exactly onto the blocks of B.

    Returns the image list (position i holds the B-point assigned to
    A-point i) or None.  The backtracking is exhaustive, so None is a proof
    of non-isomorphism at this scale.  Pruning: block-intersection
    signatures, point fingerprints, and forced block images (once two
    points of an A-block are mapped and the images lie on a single common
    B-block, every remaining point of that A-block must land on it).
    """
    if A.v != B.v or len(A.blocks) != len(B.blocks):
        return None
    sigs_a, fps_a = _invariants(A)
    sigs_b, fps_b = _invariants(B)
    if sorted(sigs_a) != sorted(sigs_b):
        return None
    fp_ids: dict[tuple, int] = {}
    fp_a = [fp_ids.setdefault(fp, len(fp_ids)) for fp in fps_a]
    fp_b = [fp_ids.setdefault(fp, len(fp_ids)) for fp in fps_b]
    if sorted(fp_a) != sorted(fp_b):
        return None

    v = A.v
    b_sets = B.block_sets
    b_pairs = B.pair_table
    b_point_blocks = B.point_blocks

    fp_groups: dict[int, list[int]] = {}
    for y in range(v):
        fp_groups.setdefault(fp_b[y], []).append(y)

    img = [-1] * v
    used = [False] * v
    ablocks = A.blocks
    apb = A.point_blocks
    # image id per A block, -1 unknown
    blk_img = [-1] * len(ablocks)
    blk_cnt = [0] * len(ablocks)
    blk_rep = [0] * len(ablocks)

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
            s = {w for w in b_sets[e] if not used[w] and fp_b[w] == fp_a[u]}
            base = s if base is None else base & s
            if base is not None and len(base) <= 1:
                break
        if base is None:
            base = {w for w in fp_groups.get(fp_a[u], ()) if not used[w]}
        return sorted(base)

    trail: list[tuple] = []

    def assign(u: int, w: int) -> bool:
        img[u] = w
        used[w] = True
        trail.append(("pt", u, w))
        queue = [(u, w)]
        while queue:
            uu, ww = queue.pop()
            for ab in apb[uu]:
                if blk_img[ab] != -1:
                    if img[uu] not in b_sets[blk_img[ab]]:
                        return False
                    blk_cnt[ab] += 1
                    trail.append(("cnt", ab, None))
                    continue
                if blk_cnt[ab] == 0:
                    blk_cnt[ab] = 1
                    blk_rep[ab] = uu
                    trail.append(("cnt0", ab, None))
                    continue
                other = blk_rep[ab]
                cands = [e for e in pair_blocks(img[other], img[uu])
                         if len(b_sets[e]) == len(ablocks[ab])]
                if len(cands) != 1:
                    if not cands:
                        return False
                    # ambiguous image (non-linear-space); defer to leaf check
                    blk_cnt[ab] += 1
                    trail.append(("cnt", ab, None))
                    continue
                e = cands[0]
                blk_img[ab] = e
                blk_cnt[ab] += 1
                trail.append(("img", ab, None))
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
                        img[x] = cs[0]
                        used[cs[0]] = True
                        trail.append(("pt", x, cs[0]))
                        queue.append((x, cs[0]))
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            kind, a, b = trail.pop()
            if kind == "pt":
                img[a] = -1
                used[b] = False
            elif kind == "img":
                blk_img[a] = -1
                blk_cnt[a] -= 1
            elif kind == "cnt":
                blk_cnt[a] -= 1
            else:  # cnt0
                blk_cnt[a] = 0

    def next_point():
        best = None
        best_key = None
        for u in range(v):
            if img[u] != -1:
                continue
            half = sum(1 for ab in apb[u] if blk_img[ab] == -1 and blk_cnt[ab] > 0)
            cs = candidates(u)
            key = (len(cs), -half, u)
            if best_key is None or key < best_key:
                best, best_key = (u, cs), key
                if len(cs) == 0:
                    break
        return best

    def search() -> bool:
        nxt = next_point()
        if nxt is None:
            return carries_blocks(A, img, B)
        u, cs = nxt
        for w in cs:
            mark = len(trail)
            if assign(u, w) and search():
                return True
            undo(mark)
        return False

    if search():
        return tuple(img)
    return None


def pg_design(q: int) -> Unital:
    """PG(2, q) read as a design of lines."""
    plane = projective_plane(make_field(*prime_power(q)))
    return Unital(len(plane.points_on), plane.points_on, q)


def failure_table_atlas(h2: Unital) -> TranslationAtlas:
    """A hand-built table on the 9 points of H(2) with translations that
    break each congruence rule: a second fixed point (center 0), a cycle
    straddling Ω₂ = {0, 1, 3, 5} first (center 1), third (center 3) or
    second (center 5), and an order-6 permutation whose second cycle has
    length 2 (center 2)."""
    table = {
        0: [(1, 2), (3, 4), (5, 6)],
        1: [(0, 2), (3, 4), (5, 6), (7, 8)],
        2: [(0, 1, 3, 4, 5, 6), (7, 8)],
        3: [(0, 1), (2, 4), (5, 6), (7, 8)],
        5: [(0, 3), (1, 2), (4, 6), (7, 8)],
    }
    groups = []
    for c in range(9):
        img = list(range(9))
        for cyc in table.get(c, ()):
            for x, y in zip(cyc, cyc[1:] + cyc[:1]):
                img[x] = y
        groups.append(((tuple(img), perm_order(img)),) if c in table else ())
    return TranslationAtlas(unital=h2, groups=tuple(groups))


# -- the lemma checks as they walked every translation ------------------------


def orbit_congruence_check_raw(atlas: TranslationAtlas, n: int) -> CongruenceReport:
    """``orbit_congruence_check`` testing every order-n translation."""
    omega_n = atlas.centers_of_order(n)
    failures = []
    checked = 0
    for c, sigma in atlas.translations_of_order(n):
        checked += 1
        fixed = fixed_points(sigma)
        if fixed != (c,):
            failures.append((c, "fixed points", fixed))
            continue
        for cyc in perm_cycles(sigma):
            if len(cyc) != n:
                failures.append((c, "cycle length", cyc))
                break
            if not (omega_n.issuperset(cyc) or omega_n.isdisjoint(cyc)):
                failures.append((c, "cycle straddles the center set", cyc))
                break
    return CongruenceReport(
        n=n,
        center_set_size=len(omega_n),
        size_congruent_one=len(omega_n) % n == 1,
        translations_checked=checked,
        cycle_structure_ok=not failures,
        failures=tuple(tuple(map(str, f)) for f in failures),
    )


def translation_transitivity_check_raw(atlas: TranslationAtlas, p: int) -> TransitivityReport:
    """``translation_transitivity_check`` with every order-p translation as a
    generator, and every block meeting the center set twice checked."""
    U = atlas.unital
    omega_p = atlas.centers_of_order(p)

    pairs = atlas.translations_of_order(p)
    transitive = orbit([sigma for _, sigma in pairs], min(omega_p)) >= omega_p
    by_center: dict[int, list] = {}
    for c, sigma in pairs:
        by_center.setdefault(c, []).append(sigma)

    block_failures = []
    checked = 0
    for bid, blk in enumerate(U.blocks):
        inside = sorted(set(blk) & omega_p)
        if len(inside) < 2:
            continue
        checked += 1
        block_gens = [sigma for c in inside for sigma in by_center[c]]
        if not orbit(block_gens, inside[0]) >= set(inside):
            block_failures.append((bid, tuple(inside)))

    divisor_failures = []
    for n, centers in atlas.centers_by_order.items():
        for k in range(2, n + 1):
            if n % k == 0:
                other = atlas.centers_by_order.get(k, frozenset())
                if other != centers:
                    divisor_failures.append((str(n), str(k), "center sets differ"))

    return TransitivityReport(
        p=p,
        center_set_size=len(omega_p),
        group_transitive_on_centers=transitive,
        blocks_checked=checked,
        block_transitivity_ok=not block_failures,
        block_failures=tuple(block_failures),
        divisor_collapse_ok=not divisor_failures,
        divisor_failures=tuple(divisor_failures),
    )


def constant_intersection_check_raw(U: Unital, atlas: TranslationAtlas,
                                    p: int) -> ConstantIntersectionReport:
    """``constant_intersection_check`` with every order-p translation as a
    generator of the orbit of point 0."""
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
            gens = [sigma for _, sigma in atlas.translations_of_order(p)]
            transitive = len(orbit(gens, 0)) == U.v
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


def sampled_centers(atlas: TranslationAtlas) -> list[int]:
    """The searched centers, up to three of the deepest in the forest, and the last point."""
    depth: dict[int, int] = {}
    for y, (x, _) in atlas.edges.items():
        depth[y] = depth.get(x, 0) + 1
    deepest = [y for y, d in depth.items() if d == max(depth.values())][:3]
    v = atlas.unital.v
    return sorted({c for c in range(v) if c not in atlas.edges} | set(deepest) | {v - 1})


def hermitian_transvections(q: int):
    """H(q) in the labels of ``hermitian_unital``, and a function giving the
    translations with center c in closed form, identity omitted and sorted.

    With h(x, y) = Σ xᵢ yᵢ^q on GF(q²)³, they are the unitary transvections
    x ↦ x + λ·h(x, c)·c for the q − 1 nonzero λ with λ^q = −λ (Taylor,
    *The Geometry of the Classical Groups*, 1992).  The points are the
    absolute points that ``plane.polar_unital`` returns."""
    p, m = prime_power(q)
    F = make_field(p, 2 * m)
    plane = projective_plane(F)
    U, absolute, _ = polar_unital(plane.lines_through, frobenius_perm(plane, m), q)
    triples = pg_triples(F.order)
    index = {t: i for i, t in enumerate(triples)}
    coords = [triples[pid] for pid in absolute]
    label = {pid: i for i, pid in enumerate(absolute)}
    lambdas = [a for a in range(1, F.order) if F.frobenius(a, m) == F.neg(a)]

    def translations(c: int) -> list[tuple[int, ...]]:
        C = coords[c]
        Cq = tuple(F.frobenius(a, m) for a in C)
        out = []
        for lam in lambdas:
            img = []
            for x in coords:
                s = F.mul(lam, dot(F, x, Cq))
                y = tuple(F.add(a, F.mul(s, b)) for a, b in zip(x, C))
                img.append(label[index[normalize(F, y)]])
            out.append(tuple(img))
        return sorted(out)

    return U, translations
