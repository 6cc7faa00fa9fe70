"""Independent reference constructions used as oracles by several test files.

Everything here is built from first principles (affine geometry over GF(3),
explicit matrix groups) without touching the code paths under test.
"""

from unitals.incidence import Unital


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


def is_translation_raw(U: Unital, perm, c: int) -> bool:
    """The definition, with every block image looked up as a sorted tuple:
    an automorphism fixing c and each block through c setwise."""
    pi = tuple(perm)
    if len(pi) != U.v or sorted(pi) != list(range(U.v)):
        raise ValueError("not a permutation of the point set")
    if pi[c] != c:
        return False
    blocks = set(U.blocks)
    for blk in U.blocks:
        if tuple(sorted(pi[x] for x in blk)) not in blocks:
            return False
    for bid in U.pencil(c):
        blk = U.blocks[bid]
        if frozenset(pi[x] for x in blk) != frozenset(blk):
            return False
    return True
