"""Permutation groups via a deterministic Schreier–Sims stabilizer chain.

Permutations are tuples of images: ``p[i]`` is where point i goes, and
``compose(p, q)`` applies p first, then q.  Group questions are answered
from the chain's order and from orbits: the kernel of an action on an
invariant set is |G| divided by the order of ``restrict_group`` there (the
first isomorphism theorem), and G is 2-transitive when the ordered pairs of
distinct points form one orbit of its generators.
Everything is deterministic: no randomized sifting, fixed iteration orders.
"""

from __future__ import annotations

from math import lcm, prod
from typing import Iterable, NamedTuple, Optional, Sequence

Perm = tuple[int, ...]

ENUMERATION_LIMIT = 1_000_000


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple([q[x] for x in p])


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def conjugate(p: Perm, by: Perm) -> Perm:
    """by^-1 · p · by (apply inverse(by), then p, then by), in one pass:
    the image of by[x] is by[p[x]]."""
    out = [0] * len(p)
    for bx, px in zip(by, p):
        out[bx] = by[px]
    return tuple(out)


def perm_cycles(p: Perm) -> list[tuple[int, ...]]:
    """Cycles of length >= 2, each starting at its least point, sorted."""
    seen = [False] * len(p)
    cycles = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        cycles.append(tuple(cyc))
    return cycles


def perm_order(p: Perm) -> int:
    order = 1
    for cyc in perm_cycles(p):
        order = lcm(order, len(cyc))
    return order


def fixed_points(p: Perm) -> tuple[int, ...]:
    return tuple(i for i, x in enumerate(p) if x == i)


def validate_perm(p: Sequence[int], degree: int) -> Perm:
    t = tuple(p)
    n = len(t)
    if n != degree:
        raise ValueError(f"permutation degree {n} != expected {degree}")
    if sorted(t) != list(range(n)):
        raise ValueError("not a permutation: images are not 0..n-1 exactly once")
    return t


def restrict_perm(p: Perm, points: Iterable[int]) -> Optional[Perm]:
    """p on an invariant point set, the i-th least point of ``points``
    renamed i; None when p does not map the points into themselves."""
    pts = sorted(set(points))
    index = {x: i for i, x in enumerate(pts)}
    try:
        return tuple([index[p[x]] for x in pts])
    except KeyError:
        return None


def orbit(generators: Sequence[Perm], x: int) -> frozenset[int]:
    """The orbit of x under the group the permutations generate (BFS)."""
    seen = {x}
    queue = [x]
    for pt in queue:
        for g in generators:
            y = g[pt]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


class PermGroup:
    """⟨generators⟩ with a stabilizer chain."""

    def __init__(self, generators: Iterable[Sequence[int]], degree: int):
        self.degree = degree
        ident = identity_perm(degree)
        self._identity = ident
        cleaned = sorted({validate_perm(g, degree) for g in generators} - {ident})
        self.generators: tuple[Perm, ...] = tuple(cleaned)
        self._base: list[int] = []
        self._gens_at: list[list[Perm]] = []
        self._transversal: list[dict[int, Perm]] = []
        for g in self.generators:
            self._add(g)

    # -- chain construction -------------------------------------------------

    def _sift(self, g: Perm, start: int = 0) -> tuple[Perm, int]:
        for i in range(start, len(self._base)):
            t = g[self._base[i]]
            u = self._transversal[i].get(t)
            if u is None:
                return g, i
            g = compose(g, inverse(u))
        return g, len(self._base)

    def _extend_base(self, moved: int) -> None:
        self._base.append(moved)
        self._gens_at.append([])
        self._transversal.append({moved: self._identity})

    def _add(self, g: Perm) -> None:
        h, i = self._sift(g)
        if h == self._identity:
            return
        if i == len(self._base):
            self._extend_base(min(x for x in range(self.degree) if h[x] != x))
        for j in range(i + 1):
            self._gens_at[j].append(h)
        self._close()

    def _orbit_pass(self, i: int) -> None:
        """Rebuild the basic orbit and transversal at level i (BFS, fixed order)."""
        gens = self._gens_at[i]
        b = self._base[i]
        trans = {b: self._identity}
        queue = [b]
        while queue:
            nxt = []
            for pt in queue:
                u = trans[pt]
                for s in gens:
                    x = s[pt]
                    if x not in trans:
                        trans[x] = compose(u, s)
                        nxt.append(x)
            queue = nxt
        self._transversal[i] = trans

    def _close(self) -> None:
        """Sims's closure: verify the Schreier condition from the deepest level up."""
        i = len(self._base) - 1
        while i >= 0:
            self._orbit_pass(i)
            trans = self._transversal[i]
            added_at = None
            for t in list(trans):
                u_t = trans[t]
                for s in self._gens_at[i]:
                    x = s[t]
                    g = compose(compose(u_t, s), inverse(trans[x]))
                    if g == self._identity:
                        continue
                    h, j = self._sift(g, i + 1)
                    if h == self._identity:
                        continue
                    if j == len(self._base):
                        self._extend_base(min(y for y in range(self.degree) if h[y] != y))
                    for l in range(i + 1, j + 1):
                        self._gens_at[l].append(h)
                    added_at = j
                    break
                if added_at is not None:
                    break
            if added_at is not None:
                i = added_at
            else:
                i -= 1

    # -- queries --------------------------------------------------------------

    def order(self) -> int:
        return prod(map(len, self._transversal))

    def __contains__(self, p) -> bool:
        g = validate_perm(p, self.degree)
        h, _ = self._sift(g)
        return h == self._identity

    def elements(self) -> list[Perm]:
        """All elements, by transversal products, up to ``ENUMERATION_LIMIT``."""
        if self.order() > ENUMERATION_LIMIT:
            raise ValueError(f"group order {self.order()} exceeds enumeration limit "
                             f"{ENUMERATION_LIMIT}")
        elems = [self._identity]
        for i in range(len(self._base) - 1, -1, -1):
            reps = [self._transversal[i][t] for t in sorted(self._transversal[i])]
            elems = [compose(h, u) for u in reps for h in elems]
        return elems


def restrict_group(G: PermGroup, points: Iterable[int]) -> Optional[PermGroup]:
    """G on an invariant point set, renamed as ``restrict_perm`` does, else None."""
    pts = sorted(set(points))
    gens = [restrict_perm(g, pts) for g in G.generators]
    if None in gens:
        return None
    return PermGroup(gens, degree=len(pts))


def is_transitive(G: PermGroup) -> bool:
    return len(orbit(G.generators, 0)) == G.degree


def is_two_transitive(G: PermGroup) -> bool:
    """Do the ordered pairs of distinct points form one orbit?  The pair
    action has n² points, the pair (a, b) being a·n + b."""
    n = G.degree
    if n < 2:
        raise ValueError("two-transitivity needs at least two points")
    pair_gens = [tuple([g[i // n] * n + g[i % n] for i in range(n * n)]) for g in G.generators]
    return len(orbit(pair_gens, 1)) == n * (n - 1)


# -- structure checks ----------------------------------------------------------


class DihedralReport(NamedTuple):
    """Outcome of the generalized-dihedral decomposition G = ⟨τ⟩M."""

    ok: bool
    reason: Optional[str] = None
    m_order: Optional[int] = None
    m_abelian: Optional[bool] = None
    m_regular: Optional[bool] = None
    tau_conjugation_semiregular: Optional[bool] = None
    equivalences_agree: Optional[bool] = None
    coset_is_conjugacy_class: Optional[bool] = None
    coset_all_involutions: Optional[bool] = None
    tau_inverts_m: Optional[bool] = None


def generalized_dihedral_check(G: PermGroup, tau: Sequence[int]) -> DihedralReport:
    """Decompose G as ⟨τ⟩M with M the products of two involutions.

    Checks that M is an odd-order subgroup of index 2 inverted by τ, that the
    coset τM is exactly the conjugacy class of τ under M and consists of
    involutions, and evaluates three conditions whose equivalence is expected
    in that situation: M abelian, M regular on the domain, and conjugation by
    τ fixing no nontrivial element of M.
    """
    t = validate_perm(tau, G.degree)
    ident = identity_perm(G.degree)
    if t == ident or compose(t, t) != ident:
        raise ValueError("tau must be an involution")
    if t not in G:
        raise ValueError("tau does not belong to the group")
    elems = G.elements()
    involutions = [g for g in elems if g != ident and compose(g, g) == ident]
    if not involutions:
        return DihedralReport(False, "group has no involutions")
    M = {compose(a, b) for a in involutions for b in involutions}
    closed = all(compose(a, b) in M for a in M for b in M)
    if not closed:
        return DihedralReport(False, "products of involutions do not form a subgroup")
    m_order = len(M)
    if m_order % 2 == 0:
        return DihedralReport(False, f"subgroup of involution products has even order {m_order}",
                              m_order=m_order)
    if len(elems) != 2 * m_order:
        return DihedralReport(
            False,
            f"subgroup of involution products has index {len(elems) / m_order:g}, expected 2",
            m_order=m_order)

    tau_inverts = all(compose(compose(t, m), t) == inverse(m) for m in M)
    coset = {compose(t, m) for m in M}
    conj_class = {compose(compose(inverse(m), t), m) for m in M}
    coset_is_class = coset == conj_class
    coset_all_inv = all(compose(g, g) == ident and g != ident for g in coset)

    m_abelian = all(compose(a, b) == compose(b, a) for a in M for b in M)
    orbit0 = {m[0] for m in M}
    m_regular = len(orbit0) == G.degree and m_order == G.degree
    tau_semiregular = all(compose(compose(t, m), t) != m for m in M if m != ident)
    agree = m_abelian == m_regular == tau_semiregular

    return DihedralReport(
        ok=tau_inverts and coset_is_class and coset_all_inv,
        reason=None,
        m_order=m_order,
        m_abelian=m_abelian,
        m_regular=m_regular,
        tau_conjugation_semiregular=tau_semiregular,
        equivalences_agree=agree,
        coset_is_conjugacy_class=coset_is_class,
        coset_all_involutions=coset_all_inv,
        tau_inverts_m=tau_inverts,
    )
