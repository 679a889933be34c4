import os
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superns import grassmann
from superns.grassmann import (
    DimensionMismatch,
    GradedPoly,
    GrassmannElement,
    GrassmannError,
    NotExact,
    NotInvertible,
    ParamSpec,
    QQi,
    as_qqi,
    as_rational,
)

SEED = int(os.environ.get("SUPERNS_SEED", "20240901"))
HALF = Fraction(1, 2)


def G(L=4):
    return [GrassmannElement.generator(L, i) for i in range(1, L + 1)]


def scalar(v, L=4):
    return GrassmannElement.scalar(L, v)


def random_element(rng, L, max_terms=4, odd_only=False, even_only=False):
    e = GrassmannElement(L, {})
    for _ in range(rng.randint(1, max_terms)):
        size = rng.randint(0, L)
        if odd_only:
            size = size | 1
            if size > L:
                continue
        if even_only:
            size = size & ~1
        idx = rng.sample(range(1, L + 1), size)
        coeff = QQi(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        e = e + GrassmannElement.monomial(L, sorted(idx), coeff)
    return e


def test_generator_product_is_ordered_monomial():
    z = G()
    assert z[0] * z[1] == GrassmannElement.monomial(4, [1, 2])


def test_generators_anticommute():
    z = G()
    assert z[1] * z[0] == -GrassmannElement.monomial(4, [1, 2])
    assert (z[0] * z[0]).is_zero()


def test_distributive_expansion():
    z = G()
    lhs = (scalar(1) + z[0]) * (scalar(1) + z[1])
    expected = scalar(1) + z[0] + z[1] + GrassmannElement.monomial(4, [1, 2])
    assert lhs == expected


def test_split_body_soul():
    z = G()
    a = scalar(3) + z[0] * z[1]
    body, soul = a.split()
    assert body == QQi(3)
    assert soul == z[0] * z[1]
    assert GrassmannElement(4).split()[0] == QQi(0)
    assert z[0].split() == (QQi(0), z[0])


def test_soul_nilpotent():
    rng = random.Random(SEED)
    for _ in range(20):
        a = random_element(rng, 4)
        s = a.soul()
        p = s
        for _ in range(4):
            p = p * s
        assert p.is_zero()


def test_inverse_identity_scalar_and_soul():
    z = G()
    assert scalar(1) ** -1 == scalar(1)
    assert scalar(2) ** -1 == scalar(Fraction(1, 2))
    a = scalar(1) + z[0] * z[1]
    assert a ** -1 == scalar(1) - z[0] * z[1]


def test_inverse_times_input_is_one():
    rng = random.Random(SEED + 1)
    for _ in range(25):
        a = random_element(rng, 6)
        if not a.body():
            a = a + 1
        assert a * a ** -1 == scalar(1, 6)


def test_zero_body_not_invertible():
    z = G()
    with pytest.raises(NotInvertible):
        (z[0] * z[1]) ** -1


def test_sqrt_branches_of_one():
    assert scalar(1) ** HALF == scalar(1)
    assert -(scalar(1) ** HALF) == scalar(-1)


def test_sqrt_with_soul():
    z = G()
    a = scalar(4) + z[0] * z[1]
    r = a ** HALF
    assert r == scalar(2) + z[0] * z[1] * QQi(Fraction(1, 4))
    assert r * r == a


def test_sqrt_principal_branch_of_minus_one():
    assert scalar(-1) ** HALF == scalar(QQi(0, 1))


def test_sqrt_squares_back_randomized():
    rng = random.Random(SEED + 2)
    squares = [1, 4, Fraction(9, 4), QQi(0, 2), QQi(3, 4), QQi(-4), Fraction(25, 16)]
    for _ in range(25):
        body = rng.choice(squares)
        a = scalar(body, 6) + random_element(rng, 6, even_only=True).soul()
        for branch in (1, -1):
            r = a ** HALF if branch > 0 else -(a ** HALF)
            assert r * r == a


def test_sqrt_rejects_odd_and_bodyless():
    z = G()
    with pytest.raises(Exception):
        z[0] ** HALF
    with pytest.raises(NotInvertible):
        (z[0] * z[1]) ** HALF


def test_sqrt_inexact_raises():
    with pytest.raises(NotExact):
        scalar(2) ** HALF


# -- the one power: x ** n for n in ½ℤ -----------------------------------

_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_NONZERO_QQI = st.builds(QQi, _SMALL, _SMALL).filter(bool)
_HALVES = st.integers(-6, 6).map(lambda k: Fraction(k, 2))


@st.composite
def elements(draw, parity=None, body=None):
    """A Grassmann element on L <= 6 generators: up to four soul terms of
    the given parity (any parity for None) plus the given body."""
    L = draw(st.integers(1, 6))
    soul = draw(st.dictionaries(st.integers(1, 2 ** L - 1), _NONZERO_QQI, max_size=4))
    terms = {m: c for m, c in soul.items()
             if parity is None or bin(m).count("1") % 2 == parity}
    if body:
        terms[0] = body
    return GrassmannElement(L, terms)


@st.composite
def even_with_square_body(draw):
    """An even element whose body r*r has an exact principal root."""
    r = draw(_NONZERO_QQI)
    return draw(elements(parity=0, body=r * r))


def plain_product(x, n):
    out = GrassmannElement.scalar(x.L, 1)
    for _ in range(n):
        out = out * x
    return out


@settings(max_examples=100, deadline=None)
@given(even_with_square_body(), _HALVES, _HALVES)
def test_power_adds_exponents_over_half_integers(x, m, n):
    assert x ** (m + n) == x ** m * x ** n


@settings(max_examples=60, deadline=None)
@given(even_with_square_body())
def test_half_power_is_the_principal_square_root(x):
    r = x ** HALF
    assert r * r == x
    root = as_qqi(r.body())
    assert root.re > 0 or (root.re == 0 and root.im > 0)
    assert x * x ** -1 == 1
    assert x ** -HALF * r == 1


@settings(max_examples=50, deadline=None)
@given(elements(parity=1).filter(bool), st.integers(-2, 4))
def test_integer_powers_of_odd_elements(x, n):
    """An odd element squares to zero and has no inverse."""
    if n < 0:
        with pytest.raises(NotInvertible):
            x ** n
    else:
        assert x ** n == (1 if n == 0 else x if n == 1 else 0)


@settings(max_examples=60, deadline=None)
@given(elements(body=QQi(Fraction(3, 2), -1)), st.integers(-3, 4))
def test_integer_powers_of_mixed_elements(x, n):
    if n >= 0:
        assert x ** n == plain_product(x, n)
    else:
        assert x ** n * plain_product(x, -n) == 1
    assert x ** -1 * x == 1


@settings(max_examples=50, deadline=None)
@given(elements(parity=1).filter(bool))
def test_half_power_of_an_odd_element_raises(x):
    with pytest.raises(GrassmannError):
        x ** HALF


@settings(max_examples=50, deadline=None)
@given(elements(parity=0), st.sampled_from([-1, HALF, -HALF, Fraction(-3, 2)]))
def test_zero_body_has_no_negative_or_half_power(x, n):
    with pytest.raises(NotInvertible):
        x ** n


def test_a_mixed_element_has_no_half_power():
    z = G()
    with pytest.raises(GrassmannError):
        (scalar(4) + z[0]) ** HALF


def test_power_outside_half_integers_raises():
    with pytest.raises(GrassmannError):
        scalar(8) ** Fraction(1, 3)


def test_substitute_takes_alpha_powers_through_the_one_power():
    spec = sewing_spec()
    z = G()
    a0 = scalar(4) + z[0] * z[1]
    for half in (-3, -2, 1, 4):
        got = GradedPoly.alpha(spec, half).substitute({}, a0)
        assert got == a0 ** Fraction(half, 2)
    assert GradedPoly.alpha(spec, -1).substitute({}, a0) * a0 ** HALF == 1


def test_graded_commutativity_randomized():
    rng = random.Random(SEED + 3)
    for _ in range(30):
        L = rng.randint(2, 8)
        a = random_element(rng, L, odd_only=rng.random() < 0.5)
        b = random_element(rng, L, odd_only=rng.random() < 0.5)
        pa, pb = a.parity(), b.parity()
        if pa is None or pb is None:
            continue
        sign = -1 if (pa and pb) else 1
        assert a * b == (b * a) * sign


def test_associativity_randomized():
    rng = random.Random(SEED + 4)
    for _ in range(20):
        L = rng.randint(2, 6)
        a, b, c = (random_element(rng, L) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_dimension_mismatch():
    """Every ring mismatch raises the one DimensionMismatch, in a sum and in
    a product: Grassmann elements on different generator counts, and a
    Grassmann element against a sewing polynomial."""
    for x, y in ((scalar(1, 3), scalar(1, 4)),
                 (G(3)[0], GradedPoly.symbol(sewing_spec(), "A1"))):
        for op in (lambda a, b: a + b, lambda a, b: a * b):
            with pytest.raises(DimensionMismatch):
                op(x, y)
            with pytest.raises(DimensionMismatch):
                op(y, x)


def test_duplicate_symbol_names_raise():
    with pytest.raises(GrassmannError, match="duplicate"):
        ParamSpec([("x", 0, True), ("y", 1, False), ("x", 1, False)], 2)


@pytest.mark.parametrize("parts", [(0.1,), (1, 0.5), (0.5, 0), (2.0,), (0, 1.0), ("1/2",)],
                         ids=["re", "im", "re-with-int-im", "integral-re", "integral-im", "str"])
def test_qqi_takes_only_exact_parts(parts):
    """QQi(0.1) would store 3602879701896397/36028797018963968: a float part
    raises, like as_qqi and GrassmannElement.scalar, and so does anything
    else that is not an int or a Fraction."""
    with pytest.raises(TypeError):
        QQi(*parts)
    assert QQi(1, Fraction(1, 2)) == QQi(Fraction(1), Fraction(1, 2))


@pytest.mark.parametrize("value", [1 + 0j, 2j, 0j, 1.0], ids=["one", "i", "zero", "float"])
def test_scalar_entry_points_refuse_a_float_complex(value):
    """A Python complex has float parts, so it is refused like a float: a
    Gaussian rational enters as a QQi."""
    spec = ParamSpec([("x", 0, True)], 1)
    for enter in (as_qqi, as_rational, lambda v: GrassmannElement.scalar(2, v),
                  lambda v: GradedPoly.scalar(spec, v)):
        with pytest.raises(TypeError):
            enter(value)
    assert GrassmannElement.scalar(2, QQi(0, 1)).body() == QQi(0, 1)


# -- the canonical coefficient domain of GrassmannElement --------------------

_GAUSSIAN = st.one_of(st.integers(-3, 3), _SMALL, st.builds(QQi, _SMALL, _SMALL))


def canonical(x):
    """Every coefficient is an int, a Fraction that is not integral, or a
    QQi off the real axis."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               or (type(c) is QQi and c.im != 0) for c in x.terms.values())


@st.composite
def entered(draw, L):
    """An element on L generators summed from monomials with Gaussian
    coefficients, so every value enters through the scalar entry points."""
    x = GrassmannElement(L)
    for mask, c in draw(st.dictionaries(st.integers(0, 2 ** L - 1), _GAUSSIAN,
                                        max_size=5)).items():
        x = x + GrassmannElement.monomial(L, [i + 1 for i in range(L) if mask >> i & 1], c)
    return x


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_grassmann_coefficients_stay_canonical(data):
    L = data.draw(st.integers(1, 5))
    x, y = data.draw(entered(L)), data.draw(entered(L))
    c = data.draw(_GAUSSIAN)
    r = data.draw(_GAUSSIAN.filter(bool))
    n = data.draw(_HALVES)
    # an even element whose body r*r has an exact root, so every x ** n exists
    even = GrassmannElement(L, {m: v for m, v in x.terms.items()
                                if m and bin(m).count("1") % 2 == 0}) + r * r
    results = [x, x + y, x - y, x * y, y * x, x * c, c * x, x + c, c - x, -x,
               x.parity_twist(), x ** data.draw(st.integers(0, 3)), even ** n,
               even ** n * even ** -n]
    for v in results:
        assert canonical(v), v.terms
    assert even ** n * even ** -n == 1


def test_equal_scalars_are_equal_and_hash_alike():
    values = [scalar(2), scalar(Fraction(2)), scalar(QQi(2)), scalar(QQi(Fraction(4, 2), 0)),
              scalar(QQi(1, 1)) + scalar(QQi(1, -1)), scalar(Fraction(1, 2)) * 4]
    assert all(v == values[0] for v in values)
    assert len({hash(v) for v in values}) == 1
    assert all(v.terms == {0: 2} and type(v.terms[0]) is int for v in values)


def test_a_real_qqi_hashes_like_its_rational():
    """QQi on the real axis equals its rational, so it must hash alike."""
    assert hash(QQi(2)) == hash(2) and len({QQi(2), 2}) == 1
    half = Fraction(1, 2)
    assert hash(QQi(half)) == hash(half) and len({QQi(half), half}) == 1
    assert len({QQi(half, 1), QQi(Fraction(2, 4), 1)}) == 1
    assert len({QQi(half, 1), half}) == 2


def test_i_squared_stores_the_int_minus_one():
    i = scalar(QQi(0, 1), 3)
    assert (i * i).terms == {0: -1} and type((i * i).terms[0]) is int
    z = G(3)
    assert type((z[0] * i * (z[1] * i)).terms[0b11]) is int
    assert type((scalar(QQi(1, 1), 3) + QQi(1, -1)).body()) is int


# -- GradedPoly ---------------------------------------------------------


def sewing_spec(cap=3):
    symbols = []
    for j in (1, 2, 3):
        symbols.append((f"A{j}", 0, True))
        symbols.append((f"B{j}", 0, True))
        symbols.append((f"M{2*j-1}/2", 1, True))
        symbols.append((f"N{2*j-1}/2", 1, True))
    symbols.append(("c", 0, False))
    return ParamSpec(symbols, cap)


def test_odd_symbol_squares_to_zero():
    spec = sewing_spec()
    m = GradedPoly.symbol(spec, "M3/2")
    assert (m * m).is_zero()


def test_even_symbols_commute():
    spec = sewing_spec()
    a = GradedPoly.symbol(spec, "A1")
    b = GradedPoly.symbol(spec, "B2")
    assert a * b == b * a


def test_odd_symbols_anticommute():
    spec = sewing_spec()
    n = GradedPoly.symbol(spec, "N3/2")
    m = GradedPoly.symbol(spec, "M3/2")
    assert n * m == -(m * n)


def test_degree_cap_idempotent():
    spec = sewing_spec(cap=2)
    a = GradedPoly.symbol(spec, "A1") + GradedPoly.scalar(spec, 1)
    p = a
    for _ in range(4):
        p = p * a
    assert p == p.truncate()
    # multiplying then truncating equals truncating then multiplying
    q = a * a
    assert (q * a).truncate(2) == (q.truncate(2) * a).truncate(2)


def test_poly_mul_associative_randomized():
    rng = random.Random(SEED + 5)
    spec = sewing_spec()
    names = list(spec.names)
    for _ in range(15):
        polys = []
        for _ in range(3):
            p = GradedPoly.scalar(spec, rng.randint(-2, 2))
            for _ in range(rng.randint(1, 3)):
                p = p + GradedPoly.symbol(spec, rng.choice(names), rng.randint(-3, 3))
            polys.append(p)
        a, b, c = polys
        assert (a * b) * c == a * (b * c)


def test_uncapped_symbol_survives_powers():
    spec = sewing_spec(cap=2)
    c = GradedPoly.symbol(spec, "c")
    p = (c * c) * (c * c)
    assert not p.is_zero()


def test_alpha_exponent_tracking():
    spec = sewing_spec()
    p = GradedPoly.alpha(spec, -3)  # alpha0^(-3/2)
    q = GradedPoly.alpha(spec, 1)
    assert p * q == GradedPoly.alpha(spec, -2)


def test_substitute_grassmann_values():
    spec = sewing_spec()
    L = 4
    z = G(L)
    p = GradedPoly.symbol(spec, "A1") * GradedPoly.symbol(spec, "B1")
    vals = {"A1": z[0] * z[1], "B1": z[2] * z[3]}
    got = p.substitute(vals)
    assert got == z[0] * z[1] * z[2] * z[3]


def test_schema_mismatch_rejected():
    """Two polynomials over specs with the same symbols at different caps
    are different rings: a sum or a product of them raises
    DimensionMismatch, in either order."""
    x = GradedPoly.scalar(sewing_spec(3), 1)
    y = GradedPoly.scalar(sewing_spec(2), 1)
    for op in (lambda a, b: a + b, lambda a, b: a * b):
        with pytest.raises(DimensionMismatch):
            op(x, y)
        with pytest.raises(DimensionMismatch):
            op(y, x)


@pytest.mark.parametrize("cap", [0, 1, 2])
def test_symbol_respects_the_degree_cap(cap):
    """A capped symbol over the cap is 0, as every product would make it:
    each symbol equals itself times 1, and at cap 0 only c survives."""
    spec = sewing_spec(cap)
    one = GradedPoly.scalar(spec, 1)
    for name in spec.names:
        x = GradedPoly.symbol(spec, name)
        assert x == x * 1 == x * one == one * x, name
        assert bool(x) is (cap > 0 or name == "c"), name


def test_an_exponent_that_outgrows_its_field_raises():
    """c is uncapped, so its exponent is bounded only by its field: a
    product that carries into the guard bit raises rather than spilling
    into the next field.  Negative control: the raw key sum is not the key
    of the product."""
    spec = sewing_spec()
    ic = spec.index["c"]
    c = p = GradedPoly.symbol(spec, "c")
    for _ in range(14):
        p = p * p
    assert p.terms == {spec.key(((ic, 2 ** 14),)): 1}
    assert (p * c).terms == {spec.key(((ic, 2 ** 14 + 1),)): 1}
    with pytest.raises(GrassmannError, match="outgrows"):
        p * p
    with pytest.raises(GrassmannError, match="outgrows"):
        spec.key(((ic, 2 ** 15),))
    assert spec.exponents(spec.key(((ic, 2 ** 15 - 1),))) == ((ic, 2 ** 15 - 1),)
    k = next(iter(p.terms))
    assert spec.exponents(k + k) != ((ic, 2 ** 15),)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=5, max_size=5),
       st.lists(st.booleans(), min_size=5, max_size=5), st.integers(0, 4),
       st.lists(st.integers(0, 3), min_size=5, max_size=5), st.integers(-5, 5),
       st.lists(st.integers(0, 3), min_size=5, max_size=5), st.integers(-5, 5))
def test_keys_read_back_and_add_under_products(parity, capped, cap, e1, a1, e2, a2):
    """key() and the readers agree on every field, and the key of a
    product of two monomials is the sum of their keys."""
    spec = ParamSpec([(f"x{i}", parity[i], capped[i]) for i in range(5)], cap)

    def key(exps, a):
        return spec.key([(i, e) for i, e in enumerate(exps) if e], a)

    def valid(exps):
        return (all(e <= 1 for e, p in zip(exps, parity) if p)
                and sum(e for e, cp in zip(exps, capped) if cp) <= cap)

    for exps, a in ((e1, a1), (e2, a2)):
        k = key(exps, a)
        assert (k is None) is not valid(exps)
        if k is not None:
            assert spec.exponents(k) == tuple((i, e) for i, e in enumerate(exps) if e)
            assert spec.alpha(k) == a
            assert spec.degree(k) == sum(e for e, cp in zip(exps, capped) if cp)
            assert spec.odd(k) == sum(e for e, p in zip(exps, parity) if p) % 2
    both = [x + y for x, y in zip(e1, e2)]
    if valid(e1) and valid(e2) and valid(both):
        assert key(both, a1 + a2) == key(e1, a1) + key(e2, a2)


def test_a_grassmann_mask_is_the_key_of_an_odd_spec():
    """Over uncapped odd symbols z1..zL a term key is the Grassmann bitmask,
    and the graded product is the Grassmann product term for term."""
    L = 4
    spec = ParamSpec([(f"z{i}", 1, False) for i in range(1, L + 1)], 2)
    for mask in range(1 << L):
        assert spec.key([(i, 1) for i in range(L) if mask >> i & 1]) == mask
    rng = random.Random(SEED + 11)
    for _ in range(20):
        x, y = ({m: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for m in
                 rng.sample(range(1 << L), 3)} for _ in range(2))
        x, y = ({m: as_rational(c) for m, c in t.items() if c} for t in (x, y))
        got = GradedPoly(spec, x) * GradedPoly(spec, y)
        assert got.terms == (GrassmannElement(L, x) * GrassmannElement(L, y)).terms


_RATIONAL = st.one_of(st.integers(-3, 3), _SMALL)


@st.composite
def rational_terms(draw, L):
    """A terms dict on L generators: drawn masks, rational coefficients in
    canonical form, no zero."""
    raw = draw(st.dictionaries(st.integers(0, 2 ** L - 1), _RATIONAL, max_size=5))
    return {m: as_rational(c) for m, c in raw.items() if c}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_grassmann_element_is_a_graded_poly_over_its_spec(data):
    """On rational coefficients a GrassmannElement(L) computes exactly what
    a plain GradedPoly over its spec (z1..zL, uncapped and odd, at cap 0)
    computes, key for key, and each keeps its own type.  Negative control:
    only the Grassmann ring admits a Gaussian scalar."""
    L = data.draw(st.integers(0, 5))
    x, y = data.draw(rational_terms(L)), data.draw(rational_terms(L))
    c = data.draw(_RATIONAL)
    gx, gy = GrassmannElement(L, x), GrassmannElement(L, y)
    spec = gx.spec
    assert spec is gy.spec and spec == ParamSpec([(f"z{i}", 1, False) for i in range(1, L + 1)], 0)
    assert spec.layout == (2 ** L - 1, 1 << L, 0, 0)
    px, py = GradedPoly(spec, x), GradedPoly(spec, y)
    for g, p in ((gx + gy, px + py), (gx * gy, px * py), (gx - gy, px - py), (-gx, -px),
                 (gx.parity_twist(), px.parity_twist()), (gx * c, px * c), (c * gx, c * px),
                 (gx + c, px + c), (c - gx, c - px)):
        assert type(g) is GrassmannElement and type(p) is GradedPoly
        assert g.terms == p.terms
    assert gx.parity() == px.parity() and gy.parity() == py.parity()
    assert (gx == gy) == (px == py) and (gx == c) == (px == c) and gx == px
    i = QQi(0, 1)
    assert gx * i * i == -gx and (gx + i) - i == gx and gx * 0 + i == i
    with pytest.raises(NotExact):
        px + i
    with pytest.raises(NotExact):
        px * i
    assert not px == i and px != i


# -- the Grassmann product kernel against a bubble-sort reference ------------


def naive_grassmann_product(x, y) -> dict:
    """The terms of x*y from first principles: concatenate the letters of
    two monomials, drop the pair if a letter repeats, bubble-sort them with
    a sign flip per swap, and sum the coefficient products as QQi."""
    out = {}
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            seq = [i for i in range(x.L) if ma >> i & 1] + [i for i in range(y.L) if mb >> i & 1]
            if len(set(seq)) < len(seq):
                continue
            sign = 1
            for s in range(len(seq)):
                for t in range(len(seq) - 1 - s):
                    if seq[t] > seq[t + 1]:
                        sign = -sign
                        seq[t], seq[t + 1] = seq[t + 1], seq[t]
            mask = sum(1 << i for i in seq)
            out[mask] = out.get(mask, QQi(0)) + as_qqi(ca) * as_qqi(cb) * sign
    return {m: as_rational(c) for m, c in out.items() if c}


_ADD_PRODUCT = grassmann.add_product


def first_denominator_kernel(out, a, b, layout):
    """add_product with the cross-multiplication lost: every product adds
    its numerator over the first denominator its slot saw."""
    for ma, ca in a.items():
        for mb, cb in b.items():
            step = {}
            _ADD_PRODUCT(step, {ma: ca}, {mb: cb}, layout)
            for m, (n, d) in step.items():
                out.setdefault(m, [0, d])[0] += n


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.tuples(entered(n), entered(n)), min_size=1, max_size=3)))
def test_grassmann_kernel_matches_the_bubble_sort_reference(pairs):
    """GrassmannElement.__mul__ equals the reference product, and
    add_product summing several products into one accumulator, then
    settle, equals the sum of the reference products, in canonical form."""
    L = pairs[0][0].L
    acc, want = {}, GrassmannElement(L)
    for x, y in pairs:
        assert (x * y).terms == naive_grassmann_product(x, y)
        grassmann.add_product(acc, x.terms, y.terms, x.spec.layout)
        want = want + GrassmannElement(L, naive_grassmann_product(x, y))
    got = GrassmannElement(L, grassmann.settle(acc))
    assert got.terms == want.terms and canonical(got)


def _unlike_denominators():
    """(1/2 + z1/4)(z1z2/3 + z2): on z1z2 the products (1/2)(1/3) and
    (1/4)(1) meet with denominators 6 and 4."""
    z1, z2 = G(2)
    return scalar(HALF, 2) + Fraction(1, 4) * z1, Fraction(1, 3) * z1 * z2 + z2


def test_kernel_sums_unlike_denominators_onto_their_lcm():
    x, y = _unlike_denominators()
    acc = {}
    grassmann.add_product(acc, x.terms, y.terms, x.spec.layout)
    assert acc == {0b11: [5, 12], 0b10: [1, 2]}
    assert (x * y).terms == naive_grassmann_product(x, y) == {0b11: Fraction(5, 12),
                                                              0b10: HALF}


def test_kernel_sums_gaussian_numerators_to_a_rational():
    """(i + z1)((2 - i) + z1) has z1 coefficient i + (2 - i) = 2, an int,
    and (i + z1/2)((1 - 2i) + z1) has i + (1/2)(1 - 2i) = 1/2, summed over
    unlike denominators: imaginary parts that cancel leave a coefficient in
    as_rational's form."""
    z1 = G(1)[0]
    x, y = scalar(QQi(0, 1), 1) + z1, scalar(QQi(2, -1), 1) + z1
    assert (x * y).terms == naive_grassmann_product(x, y) == {0: QQi(1, 2), 1: 2}
    assert type((x * y).terms[1]) is int
    x, y = scalar(QQi(0, 1), 1) + HALF * z1, scalar(QQi(1, -2), 1) + z1
    assert (x * y).terms == naive_grassmann_product(x, y) == {0: QQi(2, 1), 1: HALF}
    # a single product on the real axis: i * i and (i/2)(i/2) are rational
    for x, want in ((scalar(QQi(0, 1), 1), -1), (scalar(QQi(0, HALF), 1), Fraction(-1, 4))):
        assert (x * x).terms == {0: want} and type((x * x).terms[0]) is type(want)


def test_kernel_reference_sees_a_lost_denominator_and_a_dropped_sign(monkeypatch):
    """Negative controls: a kernel that keeps a slot's first denominator,
    and one whose Koszul sign is always +1, no longer match the reference."""
    x, y = _unlike_denominators()
    z1, z2 = G(2)
    assert (z2 * z1).terms == naive_grassmann_product(z2, z1) == {0b11: -1}
    with monkeypatch.context() as m:
        m.setattr(grassmann, "add_product", first_denominator_kernel)
        assert (x * y).terms != naive_grassmann_product(x, y)
    monkeypatch.setattr(grassmann, "_merge_sign", lambda a, b: 1)
    assert (z2 * z1).terms != naive_grassmann_product(z2, z1)


# -- the packed-key product against a naive product ------------------------


def naive_product(p, q):
    """p*q from first principles: concatenate the letters of two monomials,
    bubble-sort them with a sign flip per swap of two odd letters, then
    drop odd squares and terms over the degree cap.  Keys are read and
    built only through the spec's exponents, alpha and key."""
    spec = p.spec
    out = {}
    for k1, c1 in p.terms.items():
        for k2, c2 in q.terms.items():
            m1, m2 = spec.exponents(k1), spec.exponents(k2)
            seq = [i for i, e in m1 for _ in range(e)] + [i for i, e in m2 for _ in range(e)]
            sign = 1
            for x in range(len(seq)):
                for y in range(len(seq) - 1 - x):
                    if seq[y] > seq[y + 1]:
                        if spec.parity[seq[y]] and spec.parity[seq[y + 1]]:
                            sign = -sign
                        seq[y], seq[y + 1] = seq[y + 1], seq[y]
            counts = Counter(seq)
            if any(spec.parity[i] and e > 1 for i, e in counts.items()):
                continue
            if sum(e for i, e in counts.items() if spec.capped[i]) > spec.degree_cap:
                continue
            key = spec.key(sorted(counts.items()), spec.alpha(k1) + spec.alpha(k2))
            out[key] = out.get(key, QQi(0)) + c1 * c2 * sign
    return {k: v for k, v in out.items() if v}


def naive_twist(p):
    """parity_twist from first principles: negate every term with an odd
    number of odd letters."""
    return {k: -c if sum(e for i, e in p.spec.exponents(k) if p.spec.parity[i]) % 2 else c
            for k, c in p.terms.items()}


NSYM = 5
# one term: exponent of each symbol (odd symbols keep only the low bit),
# alpha0 half-exponent, coefficient numerator and denominator
_POLY_TERM = st.tuples(st.lists(st.integers(0, 2), min_size=NSYM, max_size=NSYM),
                       st.integers(-2, 2), st.integers(-3, 3), st.integers(1, 3))
_PARITIES = st.lists(st.integers(0, 1), min_size=NSYM, max_size=NSYM)
_CAPPED = st.lists(st.booleans(), min_size=NSYM, max_size=NSYM)


def spec_of(parity, capped, cap):
    return ParamSpec([(f"x{i}", parity[i], capped[i]) for i in range(NSYM)], cap)


def raw_key(spec, exps, a):
    """The key of a raw term, odd exponents cut to their low bit; None
    when it is over the degree cap, and so 0 in the ring."""
    return spec.key([(i, e & 1 if spec.parity[i] else e) for i, e in enumerate(exps)], a)


def poly_of(spec, raw):
    terms = {}
    for exps, a, num, den in raw:
        key = raw_key(spec, exps, a)
        if key is not None:
            terms[key] = terms.get(key, QQi(0)) + QQi(Fraction(num, den))
    return GradedPoly(spec, {k: v for k, v in terms.items() if v})


@settings(max_examples=150, deadline=None)
@given(_PARITIES, _CAPPED, st.integers(0, 4),
       st.lists(_POLY_TERM, max_size=6), st.lists(_POLY_TERM, max_size=6))
def test_packed_product_matches_naive_product(parity, capped, cap, raw_p, raw_q):
    spec = spec_of(parity, capped, cap)
    p, q = poly_of(spec, raw_p), poly_of(spec, raw_q)
    assert (p * q).terms == naive_product(p, q)
    assert (q * p).terms == naive_product(q, p)


@settings(max_examples=100, deadline=None)
@given(_PARITIES, _PARITIES, st.integers(0, 3), st.integers(0, 3),
       st.lists(_POLY_TERM, max_size=5), st.lists(_POLY_TERM, max_size=5))
def test_specs_with_the_same_symbols_keep_their_own_products(par1, par2, cap1, cap2,
                                                             raw_p, raw_q):
    """Same symbol names, different parities or caps, and so different key
    layouts: each ring multiplies and twists by its own."""
    capped = [True] * NSYM
    s1, s2 = spec_of(par1, capped, cap1), spec_of(par2, capped, cap2)
    # odd exponents above 1 are not elements, so keep exponents at most 1
    raw_p = [([e & 1 for e in ex], *rest) for ex, *rest in raw_p]
    raw_q = [([e & 1 for e in ex], *rest) for ex, *rest in raw_q]
    for spec in (s1, s2, s1):
        p, q = poly_of(spec, raw_p), poly_of(spec, raw_q)
        assert (p * q).terms == naive_product(p, q)
        assert p.parity_twist().terms == naive_twist(p)


def ring_laws_hold(p, q, r) -> bool:
    """(pq)r = p(qr), p(q + r) = pq + pr and (q + r)p = qp + rp."""
    return ((p * q) * r == p * (q * r) and p * (q + r) == p * q + p * r
            and (q + r) * p == q * p + r * p)


def supercommute(p, q) -> bool:
    """pq = (-1)^(|p||q|) qp for homogeneous p and q."""
    return p * q == (q * p) * (-1 if p.parity() == q.parity() == 1 else 1)


def homogeneous(p, odd: int):
    """The terms of p of parity odd."""
    return GradedPoly(p.spec, {k: c for k, c in p.terms.items() if p.spec.odd(k) == odd})


# a term of at most two letters, so that products often survive the cap
_SHORT_TERM = st.tuples(
    st.dictionaries(st.integers(0, NSYM - 1), st.integers(1, 2), max_size=2).map(
        lambda d: [d.get(i, 0) for i in range(NSYM)]),
    st.integers(-2, 2), st.integers(-3, 3), st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(_PARITIES, _CAPPED, st.integers(0, 4), st.lists(_SHORT_TERM, max_size=4),
       st.lists(_SHORT_TERM, max_size=4), st.lists(_SHORT_TERM, max_size=4))
def test_graded_poly_ring_laws(parity, capped, cap, raw_p, raw_q, raw_r):
    """Associativity and both distributive laws under the degree cap, and
    supercommutativity of the homogeneous parts of p and of q + r."""
    spec = spec_of(parity, capped, cap)
    p, q, r = (poly_of(spec, raw) for raw in (raw_p, raw_q, raw_r))
    assert ring_laws_hold(p, q, r)
    for a in (0, 1):
        for b in (0, 1):
            assert supercommute(homogeneous(p, a), homogeneous(q + r, b))


def test_graded_ring_laws_see_a_dropped_koszul_sign(monkeypatch):
    """Negative control: with _merge_sign +1, odd symbols commute.
    Supercommutativity catches that; associativity alone would not."""
    monkeypatch.setattr(grassmann, "_merge_sign", lambda a, b: 1)
    spec = spec_of([1, 1, 1, 0, 0], [True] * NSYM, 4)
    x = [GradedPoly.symbol(spec, f"x{i}") for i in range(NSYM)]
    p, q, r = x[0] + x[3], x[1] * x[4] + x[2], x[2] * x[3] - x[0] * x[1]
    assert ring_laws_hold(p, q, r)
    assert not supercommute(x[0], x[1])


_FRAC = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(max_examples=200, deadline=None)
@given(_FRAC, _FRAC, _FRAC, _FRAC, st.sampled_from(["rr", "rc", "cr", "cc"]))
def test_qqi_product_is_the_four_product_formula(a, b, c, d, kind):
    if kind[0] == "r":
        b = Fraction(0)
    if kind[1] == "r":
        d = Fraction(0)
    got = QQi(a, b) * QQi(c, d)
    assert isinstance(got.re, Fraction) and isinstance(got.im, Fraction)
    assert (got.re, got.im) == (a * c - b * d, a * d + b * c)
    assert QQi(c, d) * QQi(a, b) == got


# -- the rational coefficient domain of GradedPoly ---------------------------


def rational_poly_of(spec, raw):
    """poly_of with rational coefficients, summed through GradedPoly.__add__."""
    out = GradedPoly(spec)
    for exps, a, num, den in raw:
        key = raw_key(spec, exps, a)
        if num and key is not None:
            out = out + GradedPoly(spec, {key: as_rational(Fraction(num, den))})
    return out


def in_domain(p):
    """Every coefficient is an int or a Fraction that is not integral."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in p.terms.values())


def accumulated(spec, pairs) -> dict:
    """The terms of the sum of p * q over pairs, from one add_product
    accumulator on the spec's layout, settled once."""
    acc = {}
    for p, q in pairs:
        grassmann.add_product(acc, p.terms, q.terms, spec.layout)
    return grassmann.settle(acc)


def reference_sum(spec, pairs) -> dict:
    """The sum of naive_product(p, q) over pairs, through GradedPoly.__add__."""
    out = GradedPoly(spec)
    for p, q in pairs:
        out = out + GradedPoly(spec, naive_product(p, q))
    return out.terms


def _graded_unlike_denominators():
    """(1/2 + x/4)(x/3 + 1) + (x/3)(x + y) at cap 1, x even and y odd: on x
    the products (1/2)(1/3) and (1/4)(1) meet with denominators 6 and 4,
    and x^2 and x y are over the cap."""
    spec = ParamSpec([("x", 0, True), ("y", 1, True)], 1)
    x, y = GradedPoly.symbol(spec, "x"), GradedPoly.symbol(spec, "y")
    return spec, [(HALF + Fraction(1, 4) * x, Fraction(1, 3) * x + 1),
                  (Fraction(1, 3) * x, x + y)]


def test_graded_kernel_sums_unlike_denominators_onto_their_lcm(monkeypatch):
    """Several graded products in one accumulator equal the sum of the
    bubble-sort references.  Negative control: a kernel that keeps a slot's
    first denominator no longer matches, in the accumulator or in __mul__."""
    spec, pairs = _graded_unlike_denominators()
    x = spec.key(((0, 1),))
    want = reference_sum(spec, pairs)
    assert accumulated(spec, pairs) == want == {0: HALF, x: Fraction(5, 12)}
    monkeypatch.setattr(grassmann, "add_product", first_denominator_kernel)
    assert accumulated(spec, pairs) != want
    p, q = pairs[0]
    assert (p * q).terms != naive_product(p, q)


_ONE, _X0 = [0] * NSYM, [1] + [0] * (NSYM - 1)


@settings(max_examples=100, deadline=None)
@given(_PARITIES, _CAPPED, st.integers(0, 4),
       st.lists(st.tuples(st.lists(_POLY_TERM, max_size=5), st.lists(_POLY_TERM, max_size=5)),
                min_size=1, max_size=3))
@example([0, 1, 0, 1, 0], [True, False, True, False, True], 2,
         [([(_ONE, 0, 1, 2), (_X0, 0, 1, 3)], [(_ONE, 0, 1, 1), (_X0, 0, 1, 1)])])
def test_graded_kernel_matches_the_bubble_sort_reference(parity, capped, cap, raw_pairs):
    """add_product summing several GradedPoly products with mixed
    denominators into one accumulator under the degree cap, then settle,
    equals the sum of the reference products, in the ring's canonical form.
    The explicit example, (1/2 + x0/3)(1 + x0), meets denominators 2 and 3
    on x0, so a kernel that loses the cross-multiplication always fails."""
    spec = spec_of(parity, capped, cap)
    pairs = [(rational_poly_of(spec, rp), rational_poly_of(spec, rq)) for rp, rq in raw_pairs]
    got = GradedPoly(spec, accumulated(spec, pairs))
    assert got.terms == reference_sum(spec, pairs) and in_domain(got)


@settings(max_examples=100, deadline=None)
@given(_PARITIES, _CAPPED, st.integers(0, 4), st.lists(_POLY_TERM, max_size=6),
       st.lists(_POLY_TERM, max_size=6), _FRAC.filter(bool))
def test_graded_poly_coefficients_are_ints_or_non_integral_fractions(
        parity, capped, cap, raw_p, raw_q, x):
    spec = spec_of(parity, capped, cap)
    p, q = rational_poly_of(spec, raw_p), rational_poly_of(spec, raw_q)
    results = [p, q, p + q, p - q, p * q, q * p, p * x, x * p, p * 2, -q,
               p + x, p - 1, p.parity_twist(), (p * q).degree_part(1),
               p.coefficient({"x0": 1}), (p * q).coefficient({"x1": 0})]
    assert all(in_domain(r) for r in results)
    # value for value, the same product as the bubble-sort reference
    assert (p * q).terms == naive_product(p, q)
    assert (q * p).terms == naive_product(q, p)


def test_graded_poly_scalars_must_be_rational():
    spec = sewing_spec()
    with pytest.raises(NotExact):
        GradedPoly.scalar(spec, QQi(0, 1))
    with pytest.raises(NotExact):
        GradedPoly.symbol(spec, "A1") * QQi(1, 1)
    # a Gaussian rational on the real axis is its real part
    p = GradedPoly.scalar(spec, QQi(Fraction(6, 3)))
    assert p.terms == {0: 2} and type(p.terms[0]) is int
    half = GradedPoly.symbol(spec, "A1", QQi(Fraction(1, 2)))
    assert type((half * 2).terms[spec.key(((0, 1),))]) is int


def test_graded_poly_is_unequal_to_a_scalar_outside_the_ring():
    """As for GrassmannElement, == with a non-real QQi is False, not an
    error; a QQi on the real axis still compares by value."""
    spec = sewing_spec()
    for p in (GradedPoly(spec), GradedPoly.scalar(spec, 1), GradedPoly.symbol(spec, "A1")):
        for z in (QQi(0, 1), QQi(1, 1)):
            assert not p == z and p != z
            assert not z == p and z != p
            assert (p == z) == (scalar(1) == z)
    assert GradedPoly.scalar(spec, 2) == QQi(2) and not GradedPoly.scalar(spec, 2) != QQi(2)
    assert GradedPoly(spec) == QQi(0) and GradedPoly.scalar(spec, 2) != QQi(3)
