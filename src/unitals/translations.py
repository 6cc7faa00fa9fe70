"""Translations of a unital and everything derived from them.

A translation with center c is an automorphism fixing c and fixing every
block through c setwise.  ``translations_at`` enumerates the full group for
one center: it builds each candidate from one point's image and the c-lines
its blocks meet, and verifies it.  ``build_atlas`` collects these groups for
every center: it searches one point per orbit of the group generated by the
translations found so far, and transports the result to the rest of the
orbit by conjugation (see Transport).  The atlas then gives the center sets
of each translation order, the points with only the trivial translation,
the minimal primes of the orders present, and the groups generated by all
translations of a given order.

Search layout per center.  Every point x other than c lies on exactly one
block through c, its c-line L_x, and a translation τ fixes each c-line, so
τ(x) lies on L_x.  The search takes the first point u ≠ c and tries each
point w of L_u as τ(u).  The star of u, its blocks other than L_u, then maps
block by block: τ(b) is a block through w that meets the same c-lines as b
(the same signature), so it is one of the pair-table blocks joining w to a
point of L_x, for any other point x of b.  With one such block, each point
of b goes to that block's point on its own c-line; with none, no
translation sends u to w; with several, the search branches over them, and
drops a branch once another block through a point it mapped holds two mapped
points whose images no block of that block's signature joins.  The star of
u maps every point joined to u.  A point still free is mapped from the
star of a mapped point joined to it, where each block's image is the
pair-table block through two mapped points; in a unital one such star maps
the rest of L_u.  A point joined to no mapped point is tried at every free
point of its c-line, as u was.  Each choice is a level of one depth-first
loop, so no recursion limit bounds the search's depth.  A complete,
injective candidate is the only map with its choices that can be a
translation, and it is kept only if ``is_translation`` accepts it, so
every permutation returned satisfies the definition.  The branch τ(u) = u
holds the translations fixing u; it is skipped when a sufficient test
shows that only the identity fixes u (every block of the star has a
signature no other has, and every other point lies on a block with two
fixed points), as it does at every center of H(2)–H(5) and of the
Figueroa unital; searched, it would rebuild the identity by a walk that
maps every point, the main cost at a center with no translation.
A translation of a design that is not a unital can fix a second point: an
elation of a projective plane fixes its axis.

Transport.  If g is an automorphism with g(c) = c', then σ ↦ gσg⁻¹ maps the
translations with center c onto those with center c'.  The translations
found so far generate a group whose orbits can be covered from one searched
point each; a Schreier forest records, for every other point, its parent
and the generator that reached it.  The atlas keeps each edge and carries
the parent's orders, since ord(gσg⁻¹) = ord(σ); a center's translations are
conjugated only when first read.  Every generator is a searched, fully
verified translation, so by induction along the forest a transported
translation is an automorphism.  At run time it is only checked to fix its
center c' and each of the q² blocks through c' (q²(q+1) lookups, against the
b(q+1) of ``is_translation``, which the tests apply to every atlas entry).
The lemma checks read what conjugation keeps (fixed points, cycle lengths,
orbits) off the searched translations where they can.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence

from .incidence import Unital, block_orbit_reps, carries_blocks
from .permgroup import (
    Perm,
    PermGroup,
    conjugate,
    fixed_points,
    identity_perm,
    orbit,
    perm_cycles,
    perm_order,
    validate_perm,
)

__all__ = [
    "is_translation",
    "translations_at",
    "build_atlas",
    "TranslationAtlas",
    "TransitivityReport",
    "CongruenceReport",
    "translation_transitivity_check",
    "orbit_congruence_check",
    "smallest_prime_factor",
]


def smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise ValueError("n must be at least 2")
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def is_translation(U: Unital, perm, c: int) -> bool:
    """Automorphism fixing c and each block through c setwise."""
    pi = validate_perm(perm, U.v)
    return _fixes_pencil(U, pi, c) and carries_blocks(U, pi, U)


def _fixes_pencil(U: Unital, pi: Perm, c: int) -> bool:
    """pi fixes c and maps each block through c into itself."""
    block_sets = U.block_sets
    image_of = pi.__getitem__
    return pi[c] == c and all(block_sets[bid].issuperset(map(image_of, U.blocks[bid]))
                              for bid in U.point_blocks[c])


def _line_signature(line_of: list[int], blk: tuple[int, ...]) -> frozenset[int]:
    """The c-lines a block meets, as the ids of the blocks through c."""
    return frozenset(map(line_of.__getitem__, blk))


def _search_translations(U: Unital, c: int) -> list[Perm]:
    """Every complete candidate the star construction builds at center c (see
    the module docstring), the identity among them unless its branch was
    skipped; ``translations_at`` verifies the others."""
    v = U.v
    blocks = U.blocks
    block_sets = U.block_sets
    point_blocks = U.point_blocks
    pair_block = U.pair_table
    # point -> id of its c-line (the block through c and it); -1 at c
    line_of = pair_block[c * v:(c + 1) * v]
    sigs: list[Optional[frozenset[int]]] = [None] * len(blocks)

    def sig(bid: int) -> frozenset[int]:
        s = sigs[bid]
        if s is None:
            s = sigs[bid] = _line_signature(line_of, blocks[bid])
        return s

    img = [-1] * v
    pre = [-1] * v
    img[c] = pre[c] = c
    image_of = img.__getitem__
    trail: list[int] = []  # points given an image, in order
    results: list[Perm] = []

    def undo(mark: int) -> None:
        while len(trail) > mark:
            x = trail.pop()
            pre[img[x]] = -1
            img[x] = -1

    def fill(bid: int, e: int) -> bool:
        """Map each point of block ``bid`` to the point of block e on its c-line."""
        on_line = {line_of[z]: z for z in blocks[e]}
        for y in blocks[bid]:
            w = on_line.get(line_of[y], -1)
            if img[y] == -1:
                if w == -1 or pre[w] != -1:
                    return False
                img[y] = w
                pre[w] = y
                trail.append(y)
            elif img[y] != w:
                return False
        return True

    def agrees(bid: int) -> bool:
        """Whether every other block through a point of block ``bid`` with two
        mapped points can map onto the block through their images: it must
        have the same signature and hold the block's other images."""
        for y in blocks[bid]:
            for b in point_blocks[y]:
                if b == bid or b == line_of[y]:
                    continue
                ims = [img[x] for x in blocks[b] if img[x] != -1]
                if len(ims) > 1:
                    e = pair_block[ims[0] * v + ims[1]]
                    if e < 0 or sig(e) != sig(b) or not block_sets[e].issuperset(ims):
                        return False
        return True

    def star(p: int) -> list[int]:
        lp = line_of[p]
        return [bid for bid in point_blocks[p] if bid != lp]

    def only_identity_fixes(u: int) -> bool:
        """A sufficient test that only the identity fixes u.  A translation
        fixing u maps each block through u onto one with the same signature,
        so it fixes each point of a block whose signature no other block
        through u has, and of a block holding two fixed points."""
        blks = star(u)
        counts = Counter(map(sig, blks))
        fixed = {c, u}
        fixed.update(*[blocks[bid] for bid in blks if counts[sigs[bid]] == 1])
        for z in sorted(set(range(v)).difference(fixed)):
            if not any(len(fixed.intersection(blocks[bid])) > 1
                       for bid in point_blocks[z] if bid != line_of[z]):
                return False
            fixed.add(z)
        return True

    # depth-first, one level per choice: its untried images, the trail mark
    # they undo to, the hub, its star, the index of the star's next block,
    # and the block whose image is chosen, or -1 for the hub's own image
    levels: list[tuple[Iterator[int], int, int, list[int], int, int]] = []

    def walk(hub: int, todo: list[int], i: int) -> None:
        """Map the blocks todo[i:] through the hub, then each free point
        through the star of a mapped point joined to it, until the candidate
        is complete, dead, or at a choice, which becomes a level."""
        while True:
            h = img[hub] * v
            while i < len(todo):
                bid = todo[i]
                i += 1
                blk = blocks[bid]
                mapped = list(map(image_of, blk))
                free = mapped.count(-1)
                if not free:
                    continue
                s = sig(bid)
                # τ(blk) joins τ(hub) to the image of another point of blk: a
                # mapped one if there is one, else some free point of its c-line
                if len(blk) - free > 1:
                    zs = [next(w for y, w in zip(blk, mapped) if w != -1 and y != hub)]
                else:
                    zs = [z for z in blocks[line_of[blk[0] if blk[0] != hub else blk[1]]]
                          if pre[z] == -1]
                es = [e for z in zs if (e := pair_block[h + z]) >= 0 and sig(e) == s]
                if len(es) != 1:  # a choice, dead if there is no image
                    levels.append((iter(es), len(trail), hub, todo, i, bid))
                    return
                if not fill(bid, es[0]):
                    return
            if -1 not in img:
                results.append(tuple(img))
                return
            z = img.index(-1)
            # a mapped point joined to z maps z through its star
            hub = next((x for bid in point_blocks[z] if bid != line_of[z]
                        for x in blocks[bid] if img[x] != -1), -1)
            if hub == -1:  # z is the hub: try every free point of its c-line
                ws = [w for w in blocks[line_of[z]] if pre[w] == -1
                      and not (w == z and not trail and only_identity_fixes(z))]
                levels.append((iter(ws), len(trail), z, star(z), 0, -1))
                return
            todo, i = star(hub), 0

    walk(c, [], 0)
    while levels:  # the next untried image of the top level, backing up when it runs out
        untried, mark, hub, todo, i, bid = levels[-1]
        undo(mark)
        w = next(untried, None)
        if w is None:
            levels.pop()
        elif bid == -1:
            img[hub] = w
            pre[w] = hub
            trail.append(hub)
            walk(hub, todo, i)
        elif fill(bid, w) and agrees(bid):  # checked against the blocks it meets
            walk(hub, todo, i)
    return results


def translations_at(U: Unital, c: int) -> list[tuple[Perm, int]]:
    """The group of all translations with center c, as (translation, order)
    pairs in ascending order, identity left out.

    Exhaustive: the star construction (see the module docstring) builds each
    candidate from one point's image and the c-lines its blocks meet,
    branching where a block has several possible images, and keeps each
    candidate other than the identity that ``is_translation`` accepts.  It
    reads block images off the pair table, so a point sharing no block with
    c, or a pair of points on two blocks, is a ``ValueError``, checked in
    that order and the first before the table is built.
    """
    v = U.v
    if not 0 <= c < v:
        raise ValueError(f"center {c} out of range")
    joined = {c}.union(*map(U.blocks.__getitem__, U.point_blocks[c]))
    if len(joined) < v:
        raise ValueError(f"point {min(set(range(v)) - joined)} shares no block with center {c}")
    double = U.doubly_covered_pair
    if double is not None:
        raise ValueError(f"pair {double} lies on more than one block")
    ident = identity_perm(v)
    return sorted((p, perm_order(p)) for p in _search_translations(U, c)
                  if p != ident and is_translation(U, p, c))


class TranslationAtlas:
    """Complete per-center translation data for one unital: each center's
    (translation, order) pairs in ascending order, identity omitted.

    ``build_atlas`` stores the pairs of the centers it searched; every other
    center c has a forest edge ``edges[c]`` = (parent, generator) and gets
    its pairs from its parent's when first read (``group``).  An atlas made
    from a full table has no edges: every center counts as searched."""

    def __init__(self, unital: Unital, groups: Sequence[Optional[Sequence[tuple[Perm, int]]]],
                 edges: Optional[dict[int, tuple[int, Perm]]] = None):
        self.unital = unital
        self._groups = list(groups)  # None at a center with an edge until it is built
        self.edges = edges or {}  # in forest order: each center after its parent
        # the orders of each center's translations, carried along the forest
        self.orders = [None if g is None else tuple(n for _, n in g) for g in self._groups]
        for y, (x, _) in self.edges.items():
            self.orders[y] = self.orders[x]

    def group(self, c: int) -> Sequence[tuple[Perm, int]]:
        """c's (translation, order) pairs.  A center not yet built gets
        {gσg⁻¹ : σ at its parent} for its edge's generator g, after its
        ancestors, and each gσg⁻¹ is checked on the center's pencil."""
        path = [c]
        while self._groups[path[-1]] is None:
            path.append(self.edges[path[-1]][0])
        for y in reversed(path[:-1]):
            x, g = self.edges[y]
            group = sorted((conjugate(sigma, g), n) for sigma, n in self._groups[x])
            for p, _ in group:
                if not _fixes_pencil(self.unital, p, y):
                    raise RuntimeError(
                        f"transport produced a non-translation at center {y}; this is a bug"
                    )
            self._groups[y] = group
        return self._groups[c]

    @cached_property
    def searched(self) -> list[tuple[int, Perm, int]]:
        """(center, translation, order) at the centers without an edge: the
        translations every other one was conjugated from, and by."""
        return [(c, p, n) for c, group in enumerate(self._groups)
                if c not in self.edges for p, n in group]

    def generators(self, n: int) -> list[Perm]:
        """Permutations generating T[n].  When every translation has order n
        these are the searched ones, since the others are their conjugates
        by products of them; otherwise all order-n translations."""
        if list(self.centers_by_order) == [n]:
            return [p for _, p, _ in self.searched]
        return [p for _, p in self.translations_of_order(n)]

    @cached_property
    def centers_by_order(self) -> dict[int, frozenset[int]]:
        """Order n ↦ the set of centers admitting an order-n translation,
        in ascending order of n."""
        acc: dict[int, set[int]] = {}
        for c, orders in enumerate(self.orders):
            for n in orders:
                acc.setdefault(n, set()).add(c)
        return {n: frozenset(s) for n, s in sorted(acc.items())}

    @cached_property
    def trivial_centers(self) -> frozenset[int]:
        return frozenset(c for c, orders in enumerate(self.orders) if not orders)

    @cached_property
    def least_primes(self) -> frozenset[int]:
        return frozenset(smallest_prime_factor(n) for n in self.centers_by_order)

    def centers_of_order(self, n: int) -> frozenset[int]:
        """The centers admitting an order-n translation; ``ValueError`` if none."""
        centers = self.centers_by_order.get(n)
        if not centers:
            raise ValueError(f"no translations of order {n}")
        return centers

    def translations_of_order(self, n: int) -> list[tuple[int, Perm]]:
        """(center, permutation) pairs for all order-n translations."""
        return [(c, p) for c in range(self.unital.v) for p, m in self.group(c) if m == n]

    def group_for(self, n: int) -> PermGroup:
        """T[n]: the group generated by all order-n translations, on ``generators(n)``."""
        return PermGroup(self.generators(n), degree=self.unital.v)


def build_atlas(U: Unital) -> TranslationAtlas:
    """The translation group at every center, identity omitted.

    Searches one point per orbit of the group generated by the translations
    found so far, in label order, with ``translations_at``, which verifies
    each candidate in full.  After each search the Schreier forest of that
    group is extended by BFS from every covered point.  A point it reaches
    keeps its edge (parent, generator) and its parent's orders, and its
    translations are built when first read (``TranslationAtlas.group``).
    """
    v = U.v
    groups: list[Optional[Sequence[tuple[Perm, int]]]] = [None] * v
    edges: dict[int, tuple[int, Perm]] = {}  # covered point -> (parent, generator)
    order: list[int] = []  # covered points, each after its parent
    gens: list[Perm] = []

    def cover(x: int, g: Perm) -> None:
        y = g[x]
        if groups[y] is None and y not in edges:
            edges[y] = (x, g)
            order.append(y)

    for c in range(v):
        if c in edges:
            continue
        groups[c] = translations_at(U, c)
        old_points, old_gens = len(order), len(gens)
        order.append(c)
        gens.extend(p for p, _ in groups[c])
        # Points covered before this search only lack the new generators;
        # every point covered from here on is taken through all of them.
        for x in order[:old_points]:
            for g in gens[old_gens:]:
                cover(x, g)
        i = old_points
        while i < len(order):
            for g in gens:
                cover(order[i], g)
            i += 1
    return TranslationAtlas(unital=U, groups=groups, edges=edges)


# -- lemma-level checks ---------------------------------------------------------


class TransitivityReport(NamedTuple):
    """Three facts about p-translations: the group they generate is
    transitive on its center set; for each block meeting the center set
    twice, the translations centered on that block act transitively on the
    block's centers; center sets collapse to their minimal prime."""

    p: int
    center_set_size: int
    group_transitive_on_centers: bool
    blocks_checked: int
    block_transitivity_ok: bool
    block_failures: tuple
    divisor_collapse_ok: bool
    divisor_failures: tuple[tuple[str, ...], ...]

    @property
    def ok(self) -> bool:
        return (
            self.group_transitive_on_centers
            and self.block_transitivity_ok
            and self.divisor_collapse_ok
        )


def translation_transitivity_check(atlas: TranslationAtlas, p: int) -> TransitivityReport:
    """Whether T[p] is transitive on its center set, and the translations at
    the centers of each block holding two or more on those centers.  With a
    forest and every translation of order p, one block per orbit of T[p] is
    checked, since g ∈ T[p] conjugates the translations at a block's centers
    onto those at its image's; if one fails, every block is."""
    U = atlas.unital
    omega_p = atlas.centers_of_order(p)
    gens = atlas.generators(p)
    transitive = orbit(gens, min(omega_p)) >= omega_p

    meeting: dict[int, list[int]] = {}  # block id -> its centers, where it has two or more
    for bid, blk in enumerate(U.blocks):
        inside = sorted(omega_p.intersection(blk))
        if len(inside) > 1:
            meeting[bid] = inside

    def fails(bid: int) -> bool:
        inside = meeting[bid]
        block_gens = [sigma for c in inside for sigma, n in atlas.group(c) if n == p]
        return not orbit(block_gens, inside[0]) >= set(inside)

    todo = meeting
    if atlas.edges and list(atlas.centers_by_order) == [p]:
        # T[p] preserves Ω_p, so the blocks meeting it twice are whole orbits
        if not any(bid in meeting and fails(bid) for bid in block_orbit_reps(U, gens)):
            todo = {}
    block_failures = [(bid, tuple(inside)) for bid, inside in todo.items() if fails(bid)]

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
        blocks_checked=len(meeting),
        block_transitivity_ok=not block_failures,
        block_failures=tuple(block_failures),
        divisor_collapse_ok=not divisor_failures,
        divisor_failures=tuple(divisor_failures),
    )


class CongruenceReport(NamedTuple):
    """Cycle-structure and counting congruences for order-n translations."""

    n: int
    center_set_size: int
    size_congruent_one: bool
    translations_checked: int
    cycle_structure_ok: bool
    failures: tuple[tuple[str, ...], ...]

    @property
    def ok(self) -> bool:
        return self.size_congruent_one and self.cycle_structure_ok


def _congruence_failures(pairs, omega_n: frozenset[int], n: int) -> list[tuple]:
    """(center, rule, witness) for each (center, translation) pair breaking a rule."""
    failures = []
    for c, sigma in pairs:
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
    return failures


def orbit_congruence_check(atlas: TranslationAtlas, n: int) -> CongruenceReport:
    """Every order-n translation must move points in cycles of length
    exactly n, each cycle lying entirely inside or outside the center set,
    and the center set size must be ≡ 1 (mod n).  If the searched
    translations pass and each maps the center set onto itself, so do their
    conjugates, every other translation: gσg⁻¹ fixes g(Fix σ) and has the
    g-images of σ's cycles.  Otherwise every translation is tested."""
    omega_n = atlas.centers_of_order(n)
    failures = _congruence_failures(
        [(c, sigma) for c, sigma, m in atlas.searched if m == n], omega_n, n)
    if failures or not all(omega_n.issuperset(map(sigma.__getitem__, omega_n))
                           for _, sigma, _ in atlas.searched):
        failures = _congruence_failures(atlas.translations_of_order(n), omega_n, n)
    return CongruenceReport(
        n=n,
        center_set_size=len(omega_n),
        size_congruent_one=len(omega_n) % n == 1,
        translations_checked=sum(orders.count(n) for orders in atlas.orders),
        cycle_structure_ok=not failures,
        failures=tuple(tuple(map(str, f)) for f in failures),
    )
