"""Arithmetic in small finite fields GF(p^e).

Elements are encoded as integers in ``range(p**e)``: the base-p digits of the
integer are the coefficients (low degree first) of the residue polynomial
modulo a fixed monic modulus.  The modulus is the lexicographically least
primitive polynomial of degree e over GF(p), found by brute force, so the
residue class of x is always a generator of the multiplicative group.  That
makes discrete-log tables available for multiplication, inversion, powers and
Frobenius maps; addition works digit-wise (XOR when p = 2).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

# Every accepted field of odd characteristic gets a full addition table.
MAX_FIELD_SIZE = 2048


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(n: int) -> tuple[int, int]:
    """Return (p, k) with n = p**k, or raise ValueError."""
    if n < 2:
        raise ValueError(f"{n} is not a prime power")
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            m = n
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError(f"{n} is not a prime power")
            return p, k
        p += 1
    return n, 1  # n itself is prime


def _mul_by_x(vec: list[int], mod_low: tuple[int, ...], p: int) -> list[int]:
    """Multiply a residue polynomial by x modulo x^e + ... + mod_low."""
    e = len(vec)
    head = vec[e - 1]
    out = [0] * e
    for i in range(e - 1, 0, -1):
        out[i] = (vec[i - 1] - head * mod_low[i]) % p
    out[0] = (-head * mod_low[0]) % p
    return out


def _x_is_primitive(p: int, e: int, mod_low: tuple[int, ...]) -> bool:
    """True iff x has multiplicative order exactly p^e - 1 mod the candidate.

    Walks the powers of x directly.  Reaching 1 early means a proper divisor
    order; reaching 0 means x is a zero divisor.  Either way: not primitive.
    A full-order x also certifies the modulus irreducible, since a residue
    ring with zero divisors has fewer than p^e - 1 units.
    """
    target = p**e - 1
    one = [1] + [0] * (e - 1)
    if e == 1:
        vec = [(-mod_low[0]) % p]
    else:
        vec = [0] * e
        vec[1] = 1
    if not any(vec):
        return False
    for k in range(1, target + 1):
        if vec == one:
            return k == target
        vec = _mul_by_x(vec, mod_low, p)
    return False


def _find_modulus(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically least primitive modulus, low-degree coefficients first."""
    for low in product(range(p), repeat=e):
        if low[0] == 0:
            continue  # divisible by x, never primitive
        if _x_is_primitive(p, e, low):
            return tuple(low) + (1,)
    raise ArithmeticError(f"no primitive polynomial of degree {e} over GF({p})")


class Field:
    """GF(p^e) with table-driven arithmetic on int-encoded elements."""

    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        if p**e > MAX_FIELD_SIZE:
            raise ValueError(f"field size {p}^{e} exceeds limit {MAX_FIELD_SIZE}")
        self.p = p
        self.e = e
        self.order = p**e
        self.modulus = _find_modulus(p, e)
        self._build_tables()
        self.one = 1

    def _build_tables(self) -> None:
        p, e, n = self.p, self.e, self.order
        mod_low = self.modulus[:e]
        exp = [0] * (n - 1)
        log = [-1] * n
        vec = [1] + [0] * (e - 1)
        for k in range(n - 1):
            enc = 0
            for i in range(e - 1, -1, -1):
                enc = enc * p + vec[i]
            exp[k] = enc
            log[enc] = k
            vec = _mul_by_x(vec, mod_low, p)
        self._exp = exp
        self._log = log
        if p == 2:
            self._add_table = None
            self._neg_table = None
        else:
            self._neg_table = [self.from_coeffs([(-c) % p for c in self.coeffs(a)]) for a in range(n)]
            tbl = []
            for a in range(n):
                ca = self.coeffs(a)
                row = [0] * n
                for b in range(n):
                    cb = self.coeffs(b)
                    row[b] = self.from_coeffs([(x + y) % p for x, y in zip(ca, cb)])
                tbl.append(row)
            self._add_table = tbl

    # -- encoding ---------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Base-p digits of the encoding = polynomial coefficients, low first."""
        p = self.p
        out = []
        for _ in range(self.e):
            a, r = divmod(a, p)
            out.append(r)
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        cs = list(cs)
        if len(cs) != self.e:
            raise ValueError(f"expected {self.e} coefficients")
        enc = 0
        for c in reversed(cs):
            enc = enc * self.p + (c % self.p)
        return enc

    # -- raw arithmetic on int encodings ----------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self._add_table[a][b]

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return self._neg_table[a]

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self._neg_table[b])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[-self._log[a] % (self.order - 1)]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero")
        if a == 0:
            return 0
        return self._exp[(self._log[a] - self._log[b]) % (self.order - 1)]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k > 0:
                return 0
            if k == 0:
                return 1
            raise ZeroDivisionError("negative power of zero")
        return self._exp[(self._log[a] * k) % (self.order - 1)]

    def frobenius(self, a: int, k: int = 1) -> int:
        """a ↦ a^(p^k), the k-fold Frobenius automorphism."""
        return self.pow(a, self.p ** (k % self.e))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"


@lru_cache(maxsize=None)
def make_field(p: int, e: int = 1) -> Field:
    """Shared, immutable Field instance for GF(p^e)."""
    return Field(p, e)
