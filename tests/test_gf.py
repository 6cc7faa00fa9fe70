import pytest
from hypothesis import given, strategies as st

from unitals import gf
from unitals.gf import (
    is_prime,
    make_field,
    prime_power,
)

# Minimal-polynomial coefficients are pinned: the builder picks the
# lexicographically least primitive polynomial (low degree first), so these
# values must never drift or every serialized coordinate changes meaning.
# Over a prime field the modulus x + a makes x the generator -a: 2 in GF(3),
# 3 in GF(5).
FROZEN_MODULI = {
    (3, 1): (1, 1),
    (5, 1): (2, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (3, 2): (2, 1, 1),
    (3, 3): (1, 0, 2, 1),
    (5, 2): (2, 1, 1),
}


@pytest.mark.parametrize("p,e", sorted(FROZEN_MODULI))
def test_modulus_frozen(p, e):
    assert make_field(p, e).modulus == FROZEN_MODULI[(p, e)]


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(25) == (5, 2)
    assert prime_power(7) == (7, 1)
    with pytest.raises(ValueError):
        prime_power(12)
    with pytest.raises(ValueError):
        prime_power(1)


def test_field_above_the_size_limit_is_refused_before_any_table(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(gf, "_find_modulus", unreachable)
    monkeypatch.setattr(gf.Field, "_build_tables", unreachable)
    with pytest.raises(ValueError, match="^field size 3\\^7 exceeds limit 2048$"):
        make_field(3, 7)


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@pytest.fixture(scope="module", params=[(2, 3), (3, 2), (5, 2)])
def field(request):
    return make_field(*request.param)


@given(data=st.data())
def test_field_axioms(field, data):
    n = field.order
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    F = field
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == 0
    if b:
        assert F.mul(F.div(a, b), b) == a


@given(data=st.data())
def test_frobenius_is_field_automorphism(field, data):
    F = field
    a = data.draw(st.integers(0, F.order - 1))
    b = data.draw(st.integers(0, F.order - 1))
    fa, fb = F.frobenius(a, 1), F.frobenius(b, 1)
    assert F.frobenius(F.add(a, b), 1) == F.add(fa, fb)
    assert F.frobenius(F.mul(a, b), 1) == F.mul(fa, fb)
    # order e: iterating e times is the identity
    x = a
    for _ in range(F.e):
        x = F.frobenius(x, 1)
    assert x == a
    assert F.frobenius(a, F.e) == a


def test_frobenius_fixes_prime_field():
    F = make_field(3, 3)
    # the prime field is {0, 1, 1+1}
    two = F.add(1, 1)
    for a in (0, 1, two):
        assert F.frobenius(a, 1) == a


def test_pow_matches_repeated_multiplication():
    F = make_field(3, 2)
    for a in range(1, F.order):
        acc = 1
        for k in range(1, 6):
            acc = F.mul(acc, a)
            assert F.pow(a, k) == acc
    assert F.pow(0, 0) == 1
    assert F.pow(0, 5) == 0


def test_class_of_x_has_full_order():
    for p, e in [(2, 2), (3, 2), (2, 3)]:
        F = make_field(p, e)
        g = F.from_coeffs([0, 1] + [0] * (e - 2))  # the residue class of x
        seen = set()
        x = 1
        for _ in range(F.order - 1):
            seen.add(x)
            x = F.mul(x, g)
        assert len(seen) == F.order - 1


def test_coeffs_roundtrip():
    F = make_field(3, 3)
    for a in range(F.order):
        assert F.from_coeffs(F.coeffs(a)) == a

