"""Translations of a unital and everything derived from them.

A translation with center c is an automorphism fixing c and fixing every
block through c setwise.  ``translations_at`` enumerates the full group for
one center by exhaustive backtracking.  ``build_atlas`` collects these
groups for every center: it searches one point per orbit of the group
generated by the translations found so far, transports the result to the
rest of the orbit by conjugation, and checks each transported translation
on its center's pencil only.  The atlas then gives the center sets of each
translation order, the points with only the trivial translation, the minimal
primes of the orders present, and the groups generated by all translations
of a given order.

Search layout per center.  Every non-center point must stay inside its own
pencil block (the block joining it to the center), so its candidate images
start as that block minus the center.  Once two points of any block have
images, the whole block's image is forced (the block joining the two image
points) and its remaining points are constrained to it; two blocks meet in
at most one point, so these forced constraints almost always collapse the
search after two well-chosen assignments.  A non-center point is never
offered itself as an image: a translation with an extra fixed point is the
identity, so the nontrivial translations are exactly the fixed-point-free
completions.  Every permutation found is re-verified against the definition.

Transport.  If g is an automorphism with g(c) = c', then σ ↦ gσg⁻¹ maps the
translations with center c onto those with center c'.  Every translation is
an automorphism, so the translations found so far generate a group whose
orbits can be covered from one searched point each; a Schreier forest
records, for every other point, the generator that reached it.  Every
generator is a searched, fully verified translation, so by induction along
the forest a transported translation is a product of automorphisms and an
automorphism itself.  At run time it is only checked to fix its center c'
and each of the q² blocks through c' (q²(q+1) lookups, against the b(q+1)
of ``is_translation``, which the tests apply to every atlas entry).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .incidence import Unital, carries_blocks
from .permgroup import (
    Perm,
    PermGroup,
    conjugate,
    fixed_points,
    identity_perm,
    orbit,
    perm_cycles,
    perm_order,
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
    pi = tuple(perm)
    v = U.v
    if len(pi) != v or sorted(pi) != list(range(v)):
        raise ValueError("not a permutation of the point set")
    return _fixes_pencil(U, pi, c) and carries_blocks(U, pi, U)


def _fixes_pencil(U: Unital, pi: Perm, c: int) -> bool:
    """pi fixes c and maps each block through c into itself."""
    block_sets = U.block_sets
    image_of = pi.__getitem__
    return pi[c] == c and all(block_sets[bid].issuperset(map(image_of, U.blocks[bid]))
                              for bid in U.pencil(c))


def _search_translations(U: Unital, c: int) -> list[Perm]:
    """The fixed-point-free translation candidates at center c; they still
    need the re-verification that ``translations_at`` gives them."""
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
    results: list[Perm] = []

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


def translations_at(U: Unital, c: int) -> list[Perm]:
    """The group of all translations with center c, identity included.

    Exhaustive search; every permutation it finds is re-verified against the
    definition (the identity is added, not found).  The search confines each
    point to its block through c, so a point without one is a ``ValueError``.
    """
    v = U.v
    if not 0 <= c < v:
        raise ValueError(f"center {c} out of range")
    for x in range(v):
        if x != c and U.pair_table[c * v + x] == -1:
            raise ValueError(f"point {x} shares no block with center {c}")
    ident = identity_perm(U.v)
    group = set(_search_translations(U, c))
    for p in group:
        if not is_translation(U, p, c):
            raise RuntimeError(
                f"search produced a non-translation at center {c}; this is a bug"
            )
    group.add(ident)
    return sorted(group)


@dataclass(frozen=True)
class TranslationAtlas:
    """Complete per-center translation data for one unital."""

    unital: Unital
    nontrivial: tuple[tuple[Perm, ...], ...]  # per center, identity omitted

    @cached_property
    def perm_orders(self) -> tuple[tuple[int, ...], ...]:
        """The order of each translation in ``nontrivial``, in the same layout."""
        return tuple(tuple(map(perm_order, perms)) for perms in self.nontrivial)

    @cached_property
    def centers_by_order(self) -> dict[int, frozenset[int]]:
        """Order n ↦ the set of centers admitting an order-n translation."""
        acc: dict[int, set[int]] = {}
        for c, orders in enumerate(self.perm_orders):
            for n in orders:
                acc.setdefault(n, set()).add(c)
        return {n: frozenset(s) for n, s in sorted(acc.items())}

    @cached_property
    def trivial_centers(self) -> frozenset[int]:
        return frozenset(c for c, perms in enumerate(self.nontrivial) if not perms)

    @cached_property
    def least_primes(self) -> frozenset[int]:
        return frozenset(smallest_prime_factor(n) for n in self.centers_by_order)

    @cached_property
    def orders(self) -> tuple[int, ...]:
        return tuple(sorted(self.centers_by_order))

    def centers_of_order(self, n: int) -> frozenset[int]:
        """The centers admitting an order-n translation; ``ValueError`` if none."""
        centers = self.centers_by_order.get(n)
        if not centers:
            raise ValueError(f"no translations of order {n}")
        return centers

    def translations_of_order(self, n: int) -> list[tuple[int, Perm]]:
        """(center, permutation) pairs for all order-n translations."""
        return [(c, p)
                for c, (perms, orders) in enumerate(zip(self.nontrivial, self.perm_orders))
                for p, m in zip(perms, orders) if m == n]

    def group_for(self, n: int) -> PermGroup:
        """T[n]: the group generated by all order-n translations."""
        gens = [p for _, p in self.translations_of_order(n)]
        return PermGroup(gens, degree=self.unital.v)

    def group_order(self, c: int) -> int:
        return len(self.nontrivial[c]) + 1


def build_atlas(U: Unital, threads: int = 1) -> TranslationAtlas:
    """The translation group at every center, identity omitted.

    Searches one point per orbit of the group generated by the translations
    found so far, in label order.  After each search the Schreier forest of
    that group is extended by BFS from every covered point, and every point
    it reaches is covered.  A covered point c' = g(c) gets
    T(c') = {gσg⁻¹ : σ ∈ T(c)}, conjugated along the forest edge that reached
    it.  The searched translations are verified in full by
    ``translations_at``; gσg⁻¹ is then an automorphism by construction (see
    the module docstring), so it is only checked to fix c' and each block
    through c'.  A transport that fails this raises ``RuntimeError``.

    ``threads`` must be at least 1 and has no other effect: the search runs
    in this process, since a process pool lost to one worker on every
    measured design once the orbits prune the searches.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    v = U.v
    ident = identity_perm(v)
    per_center: list[Optional[tuple[Perm, ...]]] = [None] * v
    edge: list[Optional[tuple[int, Perm]]] = [None] * v  # point -> (parent, generator)
    covered = [False] * v
    order: list[int] = []  # covered points, each after its parent
    gens: list[Perm] = []

    def cover(x: int, g: Perm) -> None:
        y = g[x]
        if not covered[y]:
            covered[y] = True
            edge[y] = (x, g)
            order.append(y)

    for c in range(v):
        if covered[c]:
            continue
        perms = tuple(p for p in translations_at(U, c) if p != ident)
        per_center[c] = perms
        covered[c] = True
        old_points, old_gens = len(order), len(gens)
        order.append(c)
        gens.extend(perms)
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

    for y in order:
        if edge[y] is None:  # searched
            continue
        x, g = edge[y]
        perms = sorted(conjugate(sigma, g) for sigma in per_center[x])
        for p in perms:
            if not _fixes_pencil(U, p, y):
                raise RuntimeError(
                    f"transport produced a non-translation at center {y}; this is a bug"
                )
        per_center[y] = tuple(perms)
    return TranslationAtlas(unital=U, nontrivial=tuple(per_center))


# -- lemma-level checks ---------------------------------------------------------


@dataclass(frozen=True)
class TransitivityReport:
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
    U = atlas.unital
    omega_p = atlas.centers_of_order(p)

    pairs = atlas.translations_of_order(p)
    transitive = orbit([sigma for _, sigma in pairs], min(omega_p)) >= omega_p
    by_center: dict[int, list[Perm]] = {}
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


@dataclass(frozen=True)
class CongruenceReport:
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


def orbit_congruence_check(atlas: TranslationAtlas, n: int) -> CongruenceReport:
    """Every order-n translation must move points in cycles of length
    exactly n, each cycle lying entirely inside or outside the center set,
    and the center set size must be ≡ 1 (mod n)."""
    omega_n = atlas.centers_of_order(n)
    failures = []
    checked = 0
    for c, sigma in atlas.translations_of_order(n):
        checked += 1
        if set(fixed_points(sigma)) != {c}:
            failures.append((c, "fixed points", fixed_points(sigma)))
            continue
        for cyc in perm_cycles(sigma):
            if len(cyc) != n:
                failures.append((c, "cycle length", cyc))
                break
            inside = sum(1 for x in cyc if x in omega_n)
            if inside not in (0, len(cyc)):
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
