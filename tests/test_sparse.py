import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from superns.grassmann import GradedPoly, GrassmannElement, ParamSpec, QQi
from superns.sparse import add_scaled, add_term, add_terms, binom, scaled

SPEC = ParamSpec([("a", 0, True), ("m", 1, True), ("c", 0, False)], 3)


def _grassmann(v):
    return GrassmannElement.monomial(3, [1, 2], v) + GrassmannElement.scalar(3, 2 * v)


def _poly(v):
    return GradedPoly.symbol(SPEC, "a", v) + GradedPoly.symbol(SPEC, "c", 3 * v)


# each ring: a nonzero value maker and its zero
RINGS = {
    "Fraction": (Fraction, Fraction(0)),
    "QQi": (lambda v: QQi(v, -v), QQi(0)),
    "GrassmannElement": (_grassmann, GrassmannElement(3)),
    "GradedPoly": (_poly, GradedPoly(SPEC)),
}


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_add_term_keeps_no_zero(ring):
    make, zero = RINGS[ring]
    acc = {}
    add_term(acc, "k", make(Fraction(3, 2)))
    assert acc == {"k": make(Fraction(3, 2))}
    add_term(acc, "k", make(Fraction(1, 2)))
    assert acc == {"k": make(2)}
    add_term(acc, "k", make(-2))
    assert acc == {}
    add_term(acc, "z", zero)
    assert acc == {}
    add_term(acc, "k", make(1))
    add_term(acc, "k", zero)
    assert acc == {"k": make(1)}


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_add_terms_cancels_and_leaves_operands(ring):
    make, _ = RINGS[ring]
    a = {1: make(1), 2: make(5)}
    b = {1: make(-1), 3: make(7)}
    assert add_terms(a, b) == {2: make(5), 3: make(7)}
    assert a == {1: make(1), 2: make(5)} and b == {1: make(-1), 3: make(7)}


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_add_scaled_accumulates_in_place_and_keeps_no_zero(ring):
    make, _ = RINGS[ring]
    acc = {1: make(2), 2: make(5)}
    vec = {1: make(1), 3: make(7)}
    assert add_scaled(acc, vec, -2) is None
    assert acc == {2: make(5), 3: make(-14)}
    assert vec == {1: make(1), 3: make(7)}
    add_scaled(acc, vec, 0)
    assert acc == {2: make(5), 3: make(-14)}
    add_scaled(acc, {2: make(-5)}, 1)
    assert acc == {3: make(-14)}


class LeftOnly:
    """A coefficient that multiplies only from the left: c * x raises."""

    def __init__(self, v):
        self.v = v

    def __mul__(self, c):
        return self.v * c


def test_add_scaled_multiplies_the_coefficient_of_vec_first():
    acc = {}
    add_scaled(acc, {"k": LeftOnly(Fraction(3, 2))}, 4)
    assert acc == {"k": 6}


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_scaled_allocates_and_leaves_the_operand(ring):
    make, _ = RINGS[ring]
    vec = {1: make(1), 3: make(Fraction(7, 2))}
    out = scaled(vec, -2)
    assert out == {1: make(-2), 3: make(-7)}
    assert out is not vec
    assert scaled(vec, 0) == {} and scaled(vec, Fraction(0)) == {}
    assert scaled({}, 5) == {}
    assert vec == {1: make(1), 3: make(Fraction(7, 2))}


def test_scaled_drops_a_zero_product():
    """Grassmann coefficients have zero divisors: g * g is zero."""
    g = GrassmannElement.generator(3, 1)
    one = GrassmannElement.scalar(3, 1)
    assert scaled({1: g, 2: one + g}, g) == {2: g}


def test_scaled_multiplies_the_coefficient_of_vec_first():
    assert scaled({"k": LeftOnly(Fraction(3, 2))}, 4) == {"k": 6}


@given(st.integers(0, 40), st.integers(0, 45))
def test_binom_matches_math_comb(n, k):
    assert binom(n, k) == math.comb(n, k)


@settings(max_examples=200)
@given(st.integers(-7, 7), st.integers(1, 3), st.integers(0, 6))
def test_binom_matches_sympy_for_rational_n(p, q, k):
    expected = sympy.binomial(sympy.Rational(p, q), k)
    got = binom(Fraction(p, q), k)
    assert got == Fraction(int(expected.p), int(expected.q))
    assert type(got) is Fraction


def product_binom(n, k):
    """The Fraction product formula binom used before its integer path."""
    n = Fraction(n)
    out = Fraction(1)
    for i in range(k):
        out *= (n - i) / (i + 1)
    return out


@given(st.integers(-15, 15), st.integers(0, 20))
def test_binom_integer_path_matches_the_product_formula(n, k):
    want = product_binom(n, k)
    for arg in (n, Fraction(n, 1)):
        got = binom(arg, k)
        assert got == want
        assert type(got) is Fraction


@pytest.mark.parametrize("n", [3, -3, Fraction(3), Fraction(1, 2)])
def test_binom_rejects_negative_k_on_every_path(n):
    with pytest.raises(ValueError):
        binom(n, -1)
