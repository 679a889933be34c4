import hashlib
import os
import random
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superns import grassmann, superseries
from superns.grassmann import (DimensionMismatch, GrassmannElement, NotInvertible, QQi, as_qqi,
                               as_rational)
from superns.superseries import (
    CoordData,
    DiffOp,
    DomainError,
    InfCoordData,
    SFun,
    ShapeError,
    SuperSeries,
    TruncationError,
    ss_compose,
    ss_evaluate,
    ss_exp_infinity,
    ss_exp_zero,
    ss_extract_zero,
    ss_from_components,
    ss_invert,
    ss_is_superconformal,
    _sum_left,
)
from superns.sparse import add_term
from test_grassmann import _GAUSSIAN, canonical, first_denominator_kernel, naive_grassmann_product

SEED = int(os.environ.get("SUPERNS_SEED", "20240901"))
L = 6
HALF = Fraction(1, 2)


def scalar(v):
    return GrassmannElement.scalar(L, v)


def gen(i):
    return GrassmannElement.generator(L, i)


def soul_even(rng):
    i, j = rng.sample(range(1, L + 1), 2)
    return GrassmannElement.monomial(L, sorted([i, j]), rng.randint(1, 3))


def soul_odd(rng):
    ix = rng.sample(range(1, L + 1), rng.choice([1, 3]))
    return GrassmannElement.monomial(L, sorted(ix), Fraction(rng.randint(1, 4), rng.randint(1, 3)))


def random_coord_data(rng, jmax=4):
    a0 = scalar(rng.choice([1, 4, Fraction(9, 4)])) + soul_even(rng)
    A = {j: soul_even(rng) * rng.randint(-2, 2) for j in rng.sample(range(1, jmax + 1), 2)}
    M = {j: soul_odd(rng) for j in rng.sample(range(1, jmax + 1), 2)}
    return CoordData(L, a0, A, M, branch=1)


def random_inf_data(rng, jmax=4):
    B = {j: soul_even(rng) * rng.randint(-2, 2) for j in rng.sample(range(1, jmax + 1), 2)}
    N = {j: soul_odd(rng) for j in rng.sample(range(1, jmax + 1), 2)}
    return InfCoordData(L, B, N)


# -- equality ---------------------------------------------------------


def test_sfun_equality_ignores_windows():
    """== compares L and terms only: a series equals its restrictions."""
    F = SFun(L, {(1, 0): scalar(2), (0, 1): gen(1), (3, 0): gen(1) * gen(2)})
    for lo, hi in ((None, 3), (-4, None), (0, 5)):
        G = F.with_window(lo, hi)
        assert (G.lo, G.hi) == (lo, hi) != (F.lo, F.hi)
        assert G == F and F == G
    assert F.with_window(None, 2) != F


# -- product ------------------------------------------------------------


def test_product_of_series_with_no_known_terms_keeps_a_window():
    """A series with no terms and a high edge 1 may have terms from order 2
    up, so the product of two is unknown only from order 4 up: exact on
    (None, 3].  Mirrored, tails at orders <= -2 leave the product exact on
    [-3, None)."""
    P = SFun(L, {}, hi=1) * SFun(L, {}, hi=1)
    assert (P.lo, P.hi, P.terms) == (None, 3, {})
    P = SFun(L, {}, lo=-1) * SFun(L, {}, lo=-1)
    assert (P.lo, P.hi, P.terms) == (-3, None, {})
    tail = SFun.z_power(L, 2, 3) + SFun.theta_term(L, 2, gen(1))
    assert min(n for n, _ in (tail * tail).terms) == 4


_RING_SIZE_CASES = {
    "mul": lambda f, g: f * g,
    "scale_left": lambda f, g: f.scale_left(g.coeff(0, 0) if g.terms else GrassmannElement(g.L)),
    "add": lambda f, g: f + g,
}


@pytest.mark.parametrize("op", sorted(_RING_SIZE_CASES))
@pytest.mark.parametrize("left, right", [(True, True), (True, False), (False, True),
                                         (False, False)],
                         ids=["both-known", "right-empty", "left-empty", "both-empty"])
def test_mismatched_ring_sizes_raise(op, left, right):
    """Series on 2 and on 3 Grassmann generators do not combine, also when
    either has no terms: z1 on L=2 times z2 on L=3 is no L=2 z1z2."""
    f = SFun.const(2, GrassmannElement.generator(2, 1)) if left else SFun(2, {})
    g = SFun.const(3, GrassmannElement.generator(3, 2)) if right else SFun(3, {})
    with pytest.raises(DimensionMismatch):
        _RING_SIZE_CASES[op](f, g)


# -- the fused product against the per-pair product --------------------------

_COEFF = st.one_of(_GAUSSIAN, st.just(QQi(0, 1))).filter(bool)


@st.composite
def coefficients(draw, n):
    """A nonzero element on n generators summed from monomials of either
    parity with Gaussian coefficients, the inversion's i among them."""
    x = GrassmannElement(n)
    for mask, c in draw(st.dictionaries(st.integers(0, 2 ** n - 1), _COEFF,
                                        min_size=1, max_size=3)).items():
        x = x + GrassmannElement.monomial(n, [i + 1 for i in range(n) if mask >> i & 1], c)
    return x


@st.composite
def windowed(draw, n, edge):
    """A series on n generators with orders -3..3 in both theta sectors and
    a window with the given edge ("lo", "hi" or None; "any" draws it)."""
    if edge == "any":
        edge = draw(st.sampled_from([None, "lo", "hi"]))
    lo = draw(st.integers(-4, 1)) if edge == "lo" else None
    hi = draw(st.integers(-1, 4)) if edge == "hi" else None
    terms = draw(st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(0, 1)),
                                 coefficients(n), min_size=1, max_size=4))
    return SFun(n, terms, lo, hi)


def twist(c: GrassmannElement) -> GrassmannElement:
    """c with its odd part negated: the sign c picks up passing theta."""
    return GrassmannElement(c.L, {m: -v if bin(m).count("1") % 2 else v
                                  for m, v in c.terms.items()})


def product_window(f: SFun, g: SFun):
    """(lo, hi) of f * g: a product is unknown where an unknown tail of one
    factor meets a possible term of the other."""
    inf = float("inf")

    def span(F):
        orders = [n for n, _ in F.terms]
        low = -inf if F.lo is not None else min(
            orders, default=inf if F.hi is None else F.hi + 1)
        high = inf if F.hi is not None else max(
            orders, default=-inf if F.lo is None else F.lo - 1)
        return low, high

    (fl, fh), (gl, gh) = span(f), span(g)
    hi = min(inf if f.hi is None else f.hi + gl, inf if g.hi is None else g.hi + fl)
    lo = max(-inf if f.lo is None else f.lo + gh, -inf if g.lo is None else g.lo + fh)
    return (None if lo == -inf else lo), (None if hi == inf else hi)


def per_pair_product(f: SFun, g: SFun) -> dict:
    """The terms of f * g, one GrassmannElement product per term pair,
    summed with GrassmannElement +, inside product_window(f, g)."""
    lo, hi = product_window(f, g)
    out = {}
    for (n1, e1), c1 in f.terms.items():
        for (n2, e2), c2 in g.terms.items():
            n = n1 + n2
            if (e1 and e2) or (lo is not None and n < lo) or (hi is not None and n > hi):
                continue
            key = (n, e1 | e2)
            v = (twist(c1) if e2 and not e1 else c1) * c2
            out[key] = out.get(key, GrassmannElement(f.L)) + v
    return {key: c for key, c in out.items() if c}


def fused_matches_per_pair(f: SFun, g: SFun, s: GrassmannElement) -> bool:
    lo, hi = product_window(f, g)
    if lo is not None and hi is not None and lo > hi:
        with pytest.raises(TruncationError):
            f * g
        prod_ok = True
    else:
        P = f * g
        prod_ok = (P.terms, P.lo, P.hi) == (per_pair_product(f, g), lo, hi)
        assert all(canonical(c) for c in P.terms.values())
    S = f.scale_left(s)
    want = {(n, e): (twist(s) if e else s) * c for (n, e), c in f.terms.items()}
    assert all(canonical(c) for c in S.terms.values())
    scale_ok = (S.terms, S.lo, S.hi) == ({k: c for k, c in want.items() if c}, f.lo, f.hi)
    return prod_ok and scale_ok


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(windowed(n, "any"), windowed(n, "any"), coefficients(n))))
def test_fused_product_matches_the_per_pair_product(fgs):
    """f * g and f.scale_left(s) sum each output coefficient in one mask
    dict; they equal the products formed pair by pair, twist included, in
    terms and window, and keep every coefficient canonical."""
    assert fused_matches_per_pair(*fgs)


def test_per_pair_reference_sees_a_dropped_twist(monkeypatch):
    """Negative control: with the theta-crossing twist dropped from the
    series code, an odd left coefficient against a theta term, and an odd
    scale past theta, no longer match the reference."""
    f = SFun(L, {(1, 0): gen(1), (0, 1): gen(2)})
    g = SFun(L, {(2, 1): gen(3)})
    assert fused_matches_per_pair(f, g, gen(4))
    monkeypatch.setattr(GrassmannElement, "parity_twist", lambda self: self)
    P, S = f * g, f.scale_left(gen(4))
    assert P.terms != per_pair_product(f, g)
    assert S.coeff(0, 1) != twist(gen(4)) * gen(2)


def reference_product(f: SFun, g: SFun) -> dict:
    """The terms of f * g from the bubble-sort Grassmann reference: each
    term pair's product, twist included, summed as QQi inside
    product_window(f, g)."""
    lo, hi = product_window(f, g)
    out = {}
    for (n1, e1), c1 in f.terms.items():
        for (n2, e2), c2 in g.terms.items():
            n = n1 + n2
            if (e1 and e2) or (lo is not None and n < lo) or (hi is not None and n > hi):
                continue
            slot = out.setdefault((n, e1 | e2), {})
            for m, v in naive_grassmann_product(twist(c1) if e2 and not e1 else c1, c2).items():
                slot[m] = slot.get(m, QQi(0)) + v
    terms = {key: {m: as_rational(v) for m, v in slot.items() if v} for key, slot in out.items()}
    return {key: GrassmannElement(f.L, t) for key, t in terms.items() if t}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(windowed(n, "any"), windowed(n, "any"))))
def test_series_product_matches_the_bubble_sort_reference(fg):
    """SFun.__mul__ equals the product summed from the Grassmann reference."""
    f, g = fg
    lo, hi = product_window(f, g)
    assume(lo is None or hi is None or lo <= hi)
    assert (f * g).terms == reference_product(f, g)


def test_series_reference_sees_a_lost_denominator_and_a_dropped_sign(monkeypatch):
    """Negative controls for SFun.__mul__: a kernel that keeps a slot's
    first denominator, and one whose Koszul sign is always +1, no longer
    match the reference.  In (1/2 + z/4)(z/3 + 1), (1/2)(1/3) and (1/4)(1)
    meet at order 1 from two add_product calls, over denominators 6 and 4."""
    f = SFun(L, {(0, 0): scalar(HALF), (1, 0): scalar(Fraction(1, 4))})
    g = SFun(L, {(1, 0): scalar(Fraction(1, 3)), (0, 0): scalar(1)})
    odd = SFun(L, {(0, 0): gen(2)}), SFun(L, {(1, 0): gen(1)})
    assert (f * g).coeff(1, 0) == scalar(Fraction(5, 12))
    assert (f * g).terms == reference_product(f, g)
    assert (odd[0] * odd[1]).terms == reference_product(*odd) == {(1, 0): -(gen(1) * gen(2))}
    with monkeypatch.context() as m:
        m.setattr(superseries, "add_product", first_denominator_kernel)
        assert (f * g).terms != reference_product(f, g)
    monkeypatch.setattr(grassmann, "_merge_sign", lambda a, b: 1)
    assert (odd[0] * odd[1]).terms != reference_product(*odd)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(coefficients(n), st.integers(-2, 2), st.integers(0, 1),
                       windowed(n, None)), min_size=1, max_size=3),
    st.booleans(), st.one_of(st.none(), st.integers(-4, 2)),
    st.one_of(st.none(), st.integers(-2, 4)))))
def test_sum_left_stores_no_zero_and_nothing_outside_its_window(args):
    """_sum_left stores its result without SFun's filter, so it must hold
    no zero coefficient, Grassmann or series, and no order outside [lo, hi]:
    also when a part cancels against its negative."""
    parts, cancel, lo, hi = args
    if cancel:
        c, n, e, F = parts[0]
        parts = parts + [(-c, n, e, F)]
    S = _sum_left(parts[0][0].L, parts, lo, hi)
    assert (S.lo, S.hi) == (lo, hi)
    assert all(c.terms and all(c.terms.values()) for c in S.terms.values())
    assert all((lo is None or lo <= n) and (hi is None or n <= hi) for n, _ in S.terms)
    if cancel and len(parts) == 2:
        assert not S.terms


# -- ring laws of series products, on the common window ------------------------


def agree_on_common_window(p: SFun, q: SFun) -> bool:
    """p and q have equal coefficients at every order both windows hold."""
    lo = max((w for w in (p.lo, q.lo) if w is not None), default=None)
    hi = min((w for w in (p.hi, q.hi) if w is not None), default=None)
    orders = {n for n, _ in p.terms} | {n for n, _ in q.terms}
    return all(p.coeff(n, e) == q.coeff(n, e) for n in orders for e in (0, 1)
               if (lo is None or lo <= n) and (hi is None or n <= hi))


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 4), st.sampled_from([None, "lo", "hi"])).flatmap(
    lambda ne: st.tuples(*(windowed(*ne) for _ in range(3)),
                         coefficients(ne[0]), coefficients(ne[0]))))
def test_series_products_obey_the_ring_laws(fghst):
    """(fg)h = f(gh), f(g + h) = fg + fh and (g + h)f = gf + hf on the
    common window of the two sides, for operands that share one kind of
    window edge (so no product window is empty), and the left scale is an
    action: f.scale_left(st) = f.scale_left(t).scale_left(s)."""
    f, g, h, s, t = fghst
    assert agree_on_common_window((f * g) * h, f * (g * h))
    assert agree_on_common_window(f * (g + h), f * g + f * h)
    assert agree_on_common_window((g + h) * f, g * f + h * f)
    lhs, rhs = f.scale_left(s * t), f.scale_left(t).scale_left(s)
    assert (lhs.terms, lhs.lo, lhs.hi) == (rhs.terms, rhs.lo, rhs.hi)


# -- D operator ---------------------------------------------------------


def test_D_on_theta_and_z():
    th = SFun.theta_term(L, 0)
    assert th.D() == SFun.const(L, 1)
    z = SFun.z_power(L, 1)
    assert z.D() == SFun.theta_term(L, 0)


@pytest.mark.parametrize("n", range(-6, 7))
def test_D_squared_is_ddz_on_basis(n):
    for e in (0, 1):
        F = SFun(L, {(n, e): scalar(1)})
        assert F.D().D() == F.d_z()


# -- superderivations on windowed series ------------------------------------

# (z-order, theta exponent, Grassmann mask on 2 generators, numerator, denominator)
_TERM = st.tuples(st.integers(-6, 6), st.integers(0, 1), st.integers(0, 3),
                  st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(st.integers(-7, 7), st.lists(_TERM, max_size=14), st.integers(-6, 6),
       st.integers(0, 9))
def test_diffop_window_is_exact(g, raw, lo, width):
    """Cutting F to a window and then applying the operator agrees with
    applying it to the uncut F at every order of the reported window."""
    F_full = SFun.zero(2)
    for k, e, mask, p, q in raw:
        F_full = F_full + SFun(2, {(k, e): GrassmannElement(2, {mask: QQi(Fraction(p, q))})})
    op = DiffOp(g)
    got = op.apply(F_full.with_window(lo, lo + width))
    want = op.apply(F_full)
    for k in {k for k, _ in got.terms} | {k for k, _ in want.terms}:
        if (got.lo is None or got.lo <= k) and (got.hi is None or k <= got.hi):
            for e in (0, 1):
                assert got.coeff(k, e) == want.coeff(k, e)


@pytest.mark.parametrize("g", [1.5, Fraction(1, 2), "L", True],
                         ids=["float", "Fraction", "kind_string", "bool"])
def test_diffop_takes_only_an_int_generator(g):
    """DiffOp reads nsalg's encoding, the int 2n of L(n) or G(n): a float,
    a Fraction, a kind string or a bool is rejected."""
    with pytest.raises(ValueError):
        DiffOp(g)


# -- composition and inversion ------------------------------------------


def test_power_runs_the_nilpotent_part_out():
    """The souls of f sit below its leading z^2 term, so the expansion of f^n
    runs through the longest nilpotent tail L allows; it must end exactly."""
    pairs = gen(1) * gen(2) + gen(3) * gen(4) + gen(5) * gen(6)
    f = (SFun.z_power(L, 2, scalar(4)) + SFun.z_power(L, 1, pairs)
         + SFun.theta_term(L, 2, scalar(3)) + SFun.theta_term(L, 1, gen(2)))
    one = SFun.const(L, 1)
    for n in (1, 2, 3):
        assert f.power(-n) * f.power(n) == one, n
    root = f.power(HALF)
    assert root * root == f
    assert f.power(-HALF) * root == one


# -- powers of series with souls, on the window they report ------------------

LS = 4  # Grassmann generators of the drawn series: at most two even souls multiply


@st.composite
def soul_series(draw, endless):
    """f = c z^k + even souls and odd theta terms around k; when endless, a
    theta-free term with a body above k makes (1 + u)^n an infinite series,
    otherwise every term but the leading one is nilpotent."""
    k = draw(st.sampled_from([-2, 0, 2]))
    lead = GrassmannElement.scalar(LS, draw(st.sampled_from([1, 4, Fraction(9, 4)])))
    f = SFun(LS, {(k, 0): lead})
    pair = st.lists(st.integers(1, LS), min_size=2, max_size=2, unique=True)
    odd = st.lists(st.integers(1, LS), min_size=1, max_size=3, unique=True).filter(
        lambda ix: len(ix) % 2)
    coeff = st.sampled_from([-2, -1, Fraction(1, 2), 1, 3])
    for m, ix, c in draw(st.lists(st.tuples(st.integers(k - 2, k + 4), pair, coeff),
                                  max_size=3)):
        f = f + SFun(LS, {(m, 0): GrassmannElement.monomial(LS, sorted(ix), c)})
    for m, ix, c in draw(st.lists(st.tuples(st.integers(k - 2, k + 4), odd, coeff),
                                  max_size=3)):
        f = f + SFun(LS, {(m, 1): GrassmannElement.monomial(LS, sorted(ix), c)})
    if endless:
        for m, c in draw(st.lists(st.tuples(st.integers(k + 1, k + 3), coeff),
                                  min_size=1, max_size=2)):
            f = f + SFun(LS, {(m, 0): GrassmannElement.scalar(LS, c)})
    return f


def equal_on_window(got: SFun, want: SFun) -> bool:
    """got and want agree at every order of got's window."""
    orders = {m for m, _ in got.terms} | {m for m, _ in want.terms}
    return all(got.coeff(m, e) == want.coeff(m, e) for m in orders for e in (0, 1)
               if (got.lo is None or got.lo <= m) and (got.hi is None or m <= got.hi))


def power_laws_hold(f: SFun, clip) -> bool:
    """f^(-n) f^n = 1 for n = 1, 2, 3, (f^½)² = f and f^(-½) f^½ = 1, each
    on the window of its left side."""
    one = SFun.const(f.L, 1)
    laws = [(f.power(-n, clip) * f.power(n), one) for n in (1, 2, 3)]
    root = f.power(HALF, clip)
    laws += [(root * root, f), (f.power(-HALF, clip) * root, one)]
    return all(equal_on_window(got, want) for got, want in laws)


def test_power_window_ends_where_the_input_is_unknown():
    """4z^-2 known through order -1 agrees with 4z^-2 + 8z, whose -½ power
    is ½z - ½z^4: the ½z of 4z^-2 is exact only through order 2."""
    f = SFun(2, {(-2, 0): GrassmannElement.scalar(2, 4)}, hi=-1)
    got = f.power(-HALF, 5)
    assert got.terms == {(1, 0): GrassmannElement.scalar(2, HALF)}
    assert got.hi is not None and got.hi <= 2


def test_power_refuses_a_low_edge():
    f = SFun.z_power(L, 2, scalar(4)).with_window(-3, None)
    for n in (-1, HALF):
        with pytest.raises(TruncationError):
            f.power(n, 6)


def test_endless_power_needs_a_clip():
    f = SFun.z_power(L, 0, scalar(1)) + SFun.z_power(L, 1, scalar(1))
    with pytest.raises(TruncationError):
        f.power(-1)
    assert f.power(-1, 3).hi == 3


@settings(max_examples=60, deadline=None)
@given(st.booleans().flatmap(soul_series), st.integers(0, 6),
       st.sampled_from([None, 3, 6, 10]), st.sampled_from([-2, -1, -HALF, HALF]))
def test_power_of_a_cut_series_is_exact_on_its_window(f, h, clip, n):
    """Cutting f at a high edge and then taking the power agrees with the
    power of the uncut f at every order of the reported window, which the
    unknown tail bounds."""
    k = f.leading_invertible_order()
    cut = f.with_window(None, k + h)
    try:
        got = cut.power(n, clip)
    except TruncationError:
        assert clip is None
        return
    assert got.hi is not None
    assert equal_on_window(got, f.power(n, 30))


@settings(max_examples=40, deadline=None)
@given(soul_series(endless=False))
def test_power_laws_with_a_nilpotent_tail_need_no_clip(f):
    assert power_laws_hold(f, None)


@settings(max_examples=40, deadline=None)
@given(soul_series(endless=True), st.sampled_from([3, 6]))
def test_power_laws_on_the_clipped_window(f, clip):
    assert power_laws_hold(f, clip)


@pytest.mark.parametrize("clip", [None, 6])
def test_power_laws_catch_a_wrong_binomial(monkeypatch, clip):
    """Negative control: C(n, 2) off by one breaks the laws."""
    import superns.superseries as ss

    f = (SFun(LS, {(0, 0): GrassmannElement.scalar(LS, 4)})
         + SFun(LS, {(1, 0): GrassmannElement.monomial(LS, [1, 2], 1)})
         + SFun(LS, {(2, 0): GrassmannElement.monomial(LS, [3, 4], 1)})
         + SFun(LS, {(1, 1): GrassmannElement.monomial(LS, [1], 1)}))
    if clip is not None:
        f = f + SFun(LS, {(1, 0): GrassmannElement.scalar(LS, 2)})
    assert power_laws_hold(f, clip)
    binom = ss.binom
    monkeypatch.setattr(ss, "binom", lambda n, p: binom(n, p) + (p == 2))
    assert not power_laws_hold(f, clip)


def test_compose_with_identity():
    rng = random.Random(SEED)
    H = ss_exp_zero(random_coord_data(rng), (-12, 12))
    K = ss_compose(H, SuperSeries.identity(L), clip=(-12, 12))
    for (n, e), c in H.ev.terms.items():
        assert K.ev.coeff(n, e) == c
    for (n, e), c in H.od.terms.items():
        assert K.od.coeff(n, e) == c


@pytest.mark.parametrize("lo", [-6, -2, 0, 3])
def test_compose_applies_only_the_high_clip_edge(lo):
    """clip=(lo, hi) and clip=(None, hi) give the same series, window and
    all, also where terms sit below lo."""
    rng = random.Random(SEED + 7)
    I = SuperSeries.inversion(L)
    H = ss_exp_zero(random_coord_data(rng, jmax=3), (-10, 10))
    below = 0
    for H1, H2 in ((H, I), (I, H), (H, ss_invert(H, (-10, 10)))):
        got = ss_compose(H1, H2, clip=(lo, 5))
        want = ss_compose(H1, H2, clip=(None, 5))
        for g, w in ((got.ev, want.ev), (got.od, want.od)):
            assert (g.terms, g.lo, g.hi) == (w.terms, w.lo, w.hi)
            below += sum(1 for k, _ in g.terms if k < lo)
    if lo >= 0:
        assert below > 0


def test_compose_climbs_positive_powers_without_power(monkeypatch):
    """Z^n for n > 0 is the rung above Z^(n-1); a series of orders >= 0
    composes without one call to SFun.power, and exactly."""
    rng = random.Random(SEED + 11)
    H = ss_exp_zero(random_coord_data(rng, jmax=3), (-10, 10))
    K = ss_invert(H, (-10, 10))

    def refuse(self, n, clip_hi=None):
        raise AssertionError(f"SFun.power({n}) called")

    monkeypatch.setattr(SFun, "power", refuse)
    E = ss_compose(H, K, clip=(-5, 5))
    assert E.ev.terms == {(1, 0): scalar(1)}
    assert E.od.terms == {(0, 1): scalar(1)}


def test_inversion_squared_is_theta_flip():
    I = SuperSeries.inversion(L)
    J = ss_compose(I, I)
    assert J == SuperSeries.theta_flip(L)
    assert ss_compose(J, J) == SuperSeries.identity(L)


def test_invert_identity():
    K = ss_invert(SuperSeries.identity(L), (-8, 8))
    assert K.ev.coeff(1, 0) == scalar(1)
    assert K.od.coeff(0, 1) == scalar(1)
    assert len(K.ev.terms) == 1 and len(K.od.terms) == 1


def test_invert_scaling():
    a = scalar(4)
    H = SuperSeries(L, SFun.z_power(L, 1, a), SFun.theta_term(L, 0, scalar(2)))
    K = ss_invert(H, (-8, 8))
    assert K.ev.coeff(1, 0) == scalar(Fraction(1, 4))
    assert K.od.coeff(0, 1) == scalar(Fraction(1, 2))
    E = ss_compose(H, K, clip=(-6, 6))
    assert E.ev.coeff(1, 0) == scalar(1)
    assert E.od.coeff(0, 1) == scalar(1)


def test_invert_inversion_map():
    I = SuperSeries.inversion(L)
    K = ss_invert(I, (-8, 8))
    assert K.ev.coeff(-1, 0) == scalar(1)
    assert K.od.coeff(-1, 1) == scalar(QQi(0, -1))
    # composition back to the identity on a safe window
    E = ss_compose(I, K, clip=(-4, 4))
    assert E.ev.coeff(1, 0) == scalar(1)
    assert E.od.coeff(0, 1) == scalar(1)
    assert all(c.is_zero() for k, c in E.ev.terms.items() if k != (1, 0))


def test_invert_random_flow_roundtrip():
    rng = random.Random(SEED + 1)
    for _ in range(5):
        H = ss_exp_zero(random_coord_data(rng, jmax=3), (-10, 10))
        K = ss_invert(H, (-10, 10))
        E = ss_compose(H, K, clip=(-5, 5))
        assert E.ev.coeff(1, 0) == scalar(1)
        for (n, e), c in E.ev.terms.items():
            assert ((n, e) == (1, 0)) == (not c.is_zero()) or not c
        for (n, e), c in E.od.terms.items():
            if (n, e) != (0, 1):
                assert not c


@st.composite
def souls_at_infinity(draw):
    """InfCoordData on 2..4 generators whose values are souls at indices
    j <= L: B an even monomial, N an odd one, either family possibly empty."""
    n = draw(st.integers(2, 4))

    def soul(sizes):
        k = draw(st.sampled_from([k for k in sizes if k <= n]))
        ix = draw(st.sets(st.integers(1, n), min_size=k, max_size=k))
        v = draw(st.integers(-3, 3).filter(bool)) * Fraction(1, draw(st.integers(1, 3)))
        return GrassmannElement.monomial(n, sorted(ix), v)

    js = st.sets(st.integers(1, n), max_size=2)
    return InfCoordData(n, {j: soul((2, 4)) for j in draw(js)},
                        {j: soul((1, 3)) for j in draw(js)})


@settings(max_examples=30, deadline=None)
@given(souls_at_infinity(), st.sampled_from(["ev", "od"]), st.integers(0, 2),
       st.integers(-2, 2).filter(bool))
def test_invert_maps_with_souls_at_infinity(data, sector, order, planted):
    """K = ss_invert(H) for H = ss_exp_infinity of soul data: H o K is the
    identity on the window, K carries Gaussian coefficients (from the
    base point's i theta / z), and a term planted in K breaks the identity."""
    n = data.L
    H = ss_exp_infinity(data, (-6, 6))
    K = ss_invert(H, (-6, 6))
    one = GrassmannElement.scalar(n, 1)
    E = ss_compose(H, K, clip=(-4, 4))
    assert E.ev.terms == {(1, 0): one} and E.od.terms == {(0, 1): one}
    assert all(F.lo is None and F.hi >= 4 for F in (E.ev, E.od))
    assert any(type(v) is QQi for F in (K.ev, K.od) for c in F.terms.values()
               for v in c.terms.values())
    plant = (SFun.z_power if sector == "ev" else SFun.theta_term)(n, order, planted)
    ev, od = (K.ev + plant, K.od) if sector == "ev" else (K.ev, K.od + plant)
    E = ss_compose(H, SuperSeries(n, ev, od), clip=(-4, 4))
    assert E.ev.terms != {(1, 0): one} or E.od.terms != {(0, 1): one}


# -- superconformality ----------------------------------------------------


def test_identity_is_superconformal():
    ok, _ = ss_is_superconformal(SuperSeries.identity(L))
    assert ok


def test_inversion_is_superconformal():
    ok, _ = ss_is_superconformal(SuperSeries.inversion(L))
    assert ok


def test_bad_scaling_fails_with_residual():
    H = SuperSeries(L, SFun.z_power(L, 1), SFun.theta_term(L, 0, scalar(2)))
    ok, residual = ss_is_superconformal(H)
    assert not ok
    assert residual.coeff(0, 1) == scalar(-3)


def test_compose_preserves_superconformal():
    rng = random.Random(SEED + 2)
    for _ in range(5):
        H1 = ss_exp_zero(random_coord_data(rng, jmax=3), (-12, 12))
        H2 = ss_exp_zero(random_coord_data(rng, jmax=3), (-12, 12))
        K = ss_compose(H1, H2, clip=(-6, 6))
        ok, residual = ss_is_superconformal(K)
        assert ok, residual


# -- from_components -------------------------------------------------------


def test_from_components_identity():
    H = ss_from_components(SFun.z_power(L, 1), SFun.zero(L), 1, (-8, 8))
    assert H.ev.coeff(1, 0) == scalar(1)
    assert H.od.coeff(0, 1) == scalar(1)


def test_from_components_scaling():
    H = ss_from_components(SFun.z_power(L, 1, scalar(4)), SFun.zero(L), 1, (-8, 8))
    assert H.ev.coeff(1, 0) == scalar(4)
    assert H.od.coeff(0, 1) == scalar(2)


def test_from_components_constant_odd():
    mu = gen(1)
    H = ss_from_components(SFun.z_power(L, 1), SFun.const(L, 1).scale_left(mu), 1, (-8, 8))
    # (z + theta*mu, mu + theta)
    assert H.ev.coeff(1, 0) == scalar(1)
    assert H.ev.coeff(0, 1) == mu
    assert H.od.coeff(0, 0) == mu
    assert H.od.coeff(0, 1) == scalar(1)
    ok, residual = ss_is_superconformal(H)
    assert ok, residual


def test_from_components_always_superconformal():
    rng = random.Random(SEED + 3)
    for _ in range(5):
        f = SFun.z_power(L, 1, scalar(rng.choice([1, 4])) + soul_even(rng))
        for n in range(2, 5):
            f = f + SFun.z_power(L, n, soul_even(rng) * rng.randint(-2, 2))
        psi = SFun.zero(L)
        for n in range(1, 4):
            psi = psi + SFun.z_power(L, n, soul_odd(rng))
        H = ss_from_components(f, psi, rng.choice([1, -1]), (-10, 10))
        ok, residual = ss_is_superconformal(H)
        assert ok, residual


def test_from_components_takes_theta_free_components():
    f, psi = SFun.z_power(L, 1), SFun.const(L, gen(1))
    for bad_f, bad_psi in ((f + SFun.theta_term(L, 1, gen(2)), psi),
                           (f, psi + SFun.theta_term(L, 0))):
        with pytest.raises(DomainError):
            ss_from_components(bad_f, bad_psi)


# -- coordinate data -----------------------------------------------------------


# family name -> (data built from one family's values, the family's parity)
_FAMILIES = {
    "A": (lambda values: CoordData(L, scalar(1), A=values), 0),
    "M": (lambda values: CoordData(L, scalar(1), M=values), 1),
    "B": (lambda values: InfCoordData(L, B=values), 0),
    "N": (lambda values: InfCoordData(L, N=values), 1),
}


@pytest.mark.parametrize("name", sorted(_FAMILIES))
def test_coordinate_families_check_index_and_parity(name):
    """A family is keyed by j >= 1 and holds values of its own parity; a
    mixed value has neither parity, and a zero has both but still needs a
    valid index."""
    build, parity = _FAMILIES[name]
    even, odd = gen(1) * gen(2) + 3, gen(3) + gen(1) * gen(2) * gen(4)
    right, wrong = (odd, even) if parity else (even, odd)
    assert getattr(build({1: right, 4: right}), name) == {1: right, 4: right}
    kind = "odd" if parity else "even"
    for values, j in (({0: right}, 0), ({-2: right}, -2), ({1: right, 2: wrong}, 2),
                      ({3: gen(1) + gen(1) * gen(2)}, 3), ({0: GrassmannElement(L)}, 0)):
        with pytest.raises(DomainError, match=re.escape(f"{name}[{j}] must be {kind} with j >= 1")):
            build(values)


def test_coordinate_data_checks_a0_and_the_one_tube_constraint():
    for a0 in (GrassmannElement(L), gen(1) * gen(2)):
        with pytest.raises(DomainError, match="a0 needs a nonzero body"):
            CoordData(L, a0)
    for B, N in (({1: gen(1) * gen(2)}, None), (None, {1: gen(3)})):
        with pytest.raises(DomainError, match="one-tube constraint"):
            InfCoordData(L, B, N, sk0_constraint=True)
    InfCoordData(L, {2: gen(1) * gen(2)}, {3: gen(3)}, sk0_constraint=True)


def test_coordinate_data_drops_zero_values():
    """The families store no zero, like every sparse dict of the package:
    data equal up to explicit zeros compare equal, repr shows no zero, the
    flows see the same terms, and a zero B_1 or N_1/2 meets the one-tube
    constraint."""
    zero = GrassmannElement(L)
    for name, (build, _) in _FAMILIES.items():
        assert getattr(build({1: zero, 3: zero}), name) == {}
    c = CoordData(L, scalar(4), {1: zero, 2: gen(1) * gen(2)}, {3: zero, 1: gen(3)})
    assert (c.A, c.M) == ({2: gen(1) * gen(2)}, {1: gen(3)})
    bare = CoordData(L, scalar(4), {2: gen(1) * gen(2)}, {1: gen(3)})
    assert c == bare and repr(c) == repr(bare)
    assert c != CoordData(L, scalar(4), {2: gen(1) * gen(2)}, {1: gen(3)}, branch=-1)
    assert ss_exp_zero(c) == ss_exp_zero(bare)
    inf = InfCoordData(L, {1: zero}, {2: zero, 1: gen(4)})
    assert (inf.B, inf.N) == ({}, {1: gen(4)})
    assert inf == InfCoordData(L, N={1: gen(4)}) != InfCoordData(L)
    assert ss_exp_infinity(inf) == ss_exp_infinity(InfCoordData(L, N={1: gen(4)}))
    one_tube = InfCoordData(L, {1: zero, 2: gen(1) * gen(2)}, {1: zero}, sk0_constraint=True)
    assert (one_tube.B, one_tube.N) == ({2: gen(1) * gen(2)}, {})


# -- exponential flows -----------------------------------------------------


def test_exp_zero_trivial():
    H = ss_exp_zero(CoordData(L, scalar(1)), (-12, 12))
    assert H.ev == SFun.z_power(L, 1).with_window(None, 12)
    assert H.od.coeff(0, 1) == scalar(1)


def test_exp_zero_scaling_rule():
    H = ss_exp_zero(CoordData(L, scalar(4)), (-12, 12))
    assert H.ev.coeff(1, 0) == scalar(4)
    assert H.od.coeff(0, 1) == scalar(2)


def test_exp_zero_is_superconformal_and_shaped():
    rng = random.Random(SEED + 4)
    for _ in range(8):
        H = ss_exp_zero(random_coord_data(rng), (-12, 12))
        ok, residual = ss_is_superconformal(H)
        assert ok, residual
        assert all(n >= 1 for (n, e) in H.ev.terms)
        assert all(n >= 1 or (n, e) == (0, 1) for (n, e) in H.od.terms)


def test_exp_zero_negative_branch_is_theta_flip_postcomposition():
    rng = random.Random(SEED + 5)
    c = random_coord_data(rng)
    plus = ss_exp_zero(c, (-12, 12))
    minus = ss_exp_zero(CoordData(L, c.a0, c.A, c.M, -1), (-12, 12))
    assert minus == plus.negate_theta_output()
    ok, _ = ss_is_superconformal(minus)
    assert ok


def test_exp_infinity_trivial():
    H = ss_exp_infinity(InfCoordData(L), (-12, 12))
    assert H == SuperSeries.inversion(L)


def test_exp_infinity_leading_coefficients():
    rng = random.Random(SEED + 6)
    for _ in range(8):
        H = ss_exp_infinity(random_inf_data(rng), (-12, 12))
        assert H.ev.coeff(-1, 0) == scalar(1)
        assert H.od.coeff(-1, 1) == scalar(QQi(0, 1))
        # displayed shape: zt has orders <= -1, tht theta-free part orders <= -1
        assert all(n <= -1 for (n, e) in H.ev.terms)
        assert all(n <= -1 or (n, e) == (0, 0) for (n, e) in H.od.terms)


def test_exp_infinity_superconformal():
    rng = random.Random(SEED + 7)
    for _ in range(8):
        H = ss_exp_infinity(random_inf_data(rng), (-12, 12))
        ok, residual = ss_is_superconformal(H)
        assert ok, residual


@pytest.mark.parametrize("empty", [True, False])
def test_flow_maps_keep_half_open_windows(empty):
    """At zero the flows only raise orders, so ss_exp_zero is exact on
    (None, hi); at infinity they only lower them, so ss_exp_infinity is
    exact on (lo, None).  Compared directly, since == ignores windows."""
    rng = random.Random(SEED + 12)
    for lo, hi in ((-12, 12), (-5, 3)):
        for branch in (1, -1):
            c = random_coord_data(rng)
            c = CoordData(L, c.a0, {} if empty else c.A, {} if empty else c.M, branch)
            H = ss_exp_zero(c, (lo, hi))
            for F in (H.ev, H.od):
                assert (F.lo, F.hi) == (None, hi)
                assert F.terms and all(n <= hi for n, _ in F.terms)
        c = InfCoordData(L) if empty else random_inf_data(rng)
        H = ss_exp_infinity(c, (lo, hi))
        for F in (H.ev, H.od):
            assert (F.lo, F.hi) == (lo, None)
            assert F.terms and all(n >= lo for n, _ in F.terms)
        if empty:
            I = SuperSeries.inversion(L)
            assert (H.ev.terms, H.od.terms) == (I.ev.terms, I.od.terms)


# -- extraction round trip --------------------------------------------------


def test_extract_identity():
    c = ss_extract_zero(SuperSeries.identity(L))
    assert c.a0 == scalar(1)
    assert not c.A and not c.M
    assert c.branch == 1


def test_extract_scaling():
    H = ss_exp_zero(CoordData(L, scalar(4)), (-12, 12))
    c = ss_extract_zero(H)
    assert c.a0 == scalar(4)
    assert not c.A and not c.M


def test_extract_roundtrip_randomized():
    rng = random.Random(SEED + 8)
    for _ in range(8):
        c = random_coord_data(rng)
        H = ss_exp_zero(c, (-12, 12))
        got = ss_extract_zero(H)
        assert got == c


def test_extract_builds_one_flow_per_nonzero_coordinate(monkeypatch):
    """The read-off rebuilds the flow only after it reads a nonzero
    coordinate, and confirms against the last one it built."""
    import superns.superseries as ss

    exp_zero = ss.ss_exp_zero
    calls = []

    def counted(c, window=ss.DEFAULT_WINDOW):
        calls.append(window)
        return exp_zero(c, window)

    monkeypatch.setattr(ss, "ss_exp_zero", counted)
    rng = random.Random(SEED + 13)
    for _ in range(6):
        c = random_coord_data(rng)
        H = exp_zero(c, (-12, 12))
        calls.clear()
        assert ss_extract_zero(H) == c
        nonzero = sum(1 for v in (*c.A.values(), *c.M.values()) if v)
        assert len(calls) == 1 + nonzero <= 5
        assert set(calls) == {(0, 12)}


def test_extract_negative_branch():
    rng = random.Random(SEED + 9)
    base = random_coord_data(rng)
    c = CoordData(L, base.a0, base.A, base.M, -1)
    H = ss_exp_zero(c, (-12, 12))
    got = ss_extract_zero(H)
    assert got.branch == -1
    assert got == c


def test_round_trip_frees_its_series_without_the_cyclic_collector():
    """A reference cycle, such as a recursive closure over ss_compose's
    power memo, keeps every series it reaches alive until the cyclic
    collector runs, which raises peak memory."""
    import gc

    c = random_coord_data(random.Random(SEED + 14))
    gc.collect()
    gc.disable()
    try:
        H = ss_exp_zero(c, (-12, 12))
        K = ss_invert(H, (-10, 10))
        ss_compose(H, K, clip=(-5, 5))
        ss_extract_zero(H)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_extract_rejects_non_superconformal():
    H = SuperSeries(L, SFun.z_power(L, 1), SFun.theta_term(L, 0, scalar(2)))
    with pytest.raises(ShapeError):
        ss_extract_zero(H)



def _flow_with_odd_window(hi):
    """The flow of M_3 = theta_1 with tht known only up to z^hi."""
    H = ss_exp_zero(CoordData(L, scalar(1), {}, {3: gen(1)}), (-12, 12))
    return H.ev, H.od.with_window(None, hi)


# superconformal maps that ss_extract_zero refuses, one per raise after the
# superconformal test; in the last two a coefficient the read-off needs lies
# outside tht's window: its theta term, or the z^3 slot of M_3's flow
_MISSHAPEN = {
    "translation": (lambda: SFun.z_power(L, 1) + SFun.const(L, 1), lambda: SFun.theta_term(L, 0),
                    ShapeError, "series does not vanish at zero"),
    "odd-constant": (lambda: SFun.zero(L), lambda: SFun.const(L, gen(1)),
                     ShapeError, "odd component has the wrong leading shape"),
    "odd-pole": (lambda: SFun.zero(L), lambda: SFun.z_power(L, -1, gen(1)),
                 ShapeError, "odd component has the wrong leading shape"),
    "zero-body": (lambda: SFun.zero(L), lambda: SFun.z_power(L, 1, gen(1)),
                  NotInvertible, "leading coefficient has zero body"),
    "hidden-theta": (lambda: SFun.z_power(L, 1, 4), lambda: SFun(L, {}, None, -1),
                     TruncationError, "order 0 lies outside the window"),
    "cut-odd-flow": (lambda: _flow_with_odd_window(2)[0], lambda: _flow_with_odd_window(2)[1],
                     TruncationError, "order 3 lies outside the window"),
}


def test_extract_reads_the_odd_flow_inside_its_window():
    """Control for the cut-odd-flow case: with tht known as far as zt (the
    read-off reads tht up to z^hi), it recovers M_3."""
    ev, od = _flow_with_odd_window(12)
    assert ev.hi == od.hi == 12
    assert ss_extract_zero(SuperSeries(L, ev, od)) == CoordData(L, scalar(1), {}, {3: gen(1)})


# -- extraction of composed maps, whose coordinates reach the window top ------

L2 = 2
_BODY = st.sampled_from([Fraction(1), Fraction(4), Fraction(9, 4)])
_NONZERO = st.fractions(min_value=-2, max_value=2, max_denominator=5).filter(bool)
_BRANCH = st.sampled_from([1, -1])


def composed_map(d1, d2, hi):
    """exp_zero(c1) o exp_zero(c2) on the window (-hi, hi), over L2
    generators: c1 = (a0; A1, A2; M1 = m z1; branch) and c2 = (a0; A1;
    M2 = m z2; branch) from the tuples d1 and d2."""
    one = GrassmannElement.scalar(L2, 1)
    z1, z2 = (GrassmannElement.generator(L2, i) for i in (1, 2))
    (a1, x1, x2, m1, b1), (a2, y1, m2, b2) = d1, d2
    c1 = CoordData(L2, one * a1, {1: one * x1, 2: one * x2}, {1: z1 * m1}, b1)
    c2 = CoordData(L2, one * a2, {1: one * y1}, {2: z2 * m2}, b2)
    return ss_compose(ss_exp_zero(c1, (-hi, hi)), ss_exp_zero(c2, (-hi, hi)), clip=(-hi, hi))


def reproduces(c, H, hi) -> bool:
    """ss_exp_zero(c) equals H on every slot of orders 0..hi."""
    back = ss_exp_zero(c, (-hi, hi))
    return all({k: v for k, v in f.terms.items() if 0 <= k[0] <= hi}
               == {k: v for k, v in g.terms.items() if 0 <= k[0] <= hi}
               for f, g in ((back.ev, H.ev), (back.od, H.od)))


# the composed map of the extract defect: its coordinates fill every order
REPRODUCER = ((Fraction(9, 4), HALF, Fraction(1, 3), 1, 1), (Fraction(4), Fraction(1, 5), 1, 1))


@settings(max_examples=15, deadline=None)
@given(st.tuples(_BODY, _NONZERO, _NONZERO, _NONZERO, _BRANCH),
       st.tuples(_BODY, _NONZERO, _NONZERO, _BRANCH), st.sampled_from([4, 6]))
def test_extract_reads_a_composed_map_up_to_the_window_top(d1, d2, hi):
    """A composition of two superconformal maps is one, with coordinates
    up to the window top: M_hi shows only in tht's z^hi slot and A_hi only
    in its theta z^hi slot.  The read-off recovers data that reproduce the
    map on the window, on the branch b1 * b2."""
    H = composed_map(d1, d2, hi)
    assert ss_is_superconformal(H)[0]
    c = ss_extract_zero(H)
    assert c.branch == d1[-1] * d2[-1]
    assert c.a0 == GrassmannElement.scalar(L2, d1[0] * d2[0])
    assert reproduces(c, H, hi)
    assert ss_extract_zero(ss_exp_zero(c, (-hi, hi))) == c


@pytest.mark.parametrize("hi", [4, 8, 12])
def test_extract_needs_both_reads_at_the_window_top(hi):
    """On the defect's composed map: the data extracted reproduce it, and
    each read at the window top is needed.  Negative controls: without
    M_hi, without A_hi, or with A_hi read against zt's response -a0 in place
    of tht's -sqrt(a0) (hi + 1)/2, the data miss the map's top slots."""
    H = composed_map(*REPRODUCER, hi)
    c = ss_extract_zero(H)
    assert c.M[hi] and c.A[hi] and reproduces(c, H, hi)
    a0, A, M = c.a0, dict(c.A), dict(c.M)
    wrong = c.A[hi] * a0 ** HALF * Fraction(hi + 1, 2) * a0 ** -1
    for A_, M_ in (({**A}, {j: v for j, v in M.items() if j != hi}),
                   ({j: v for j, v in A.items() if j != hi}, {**M}),
                   ({**A, hi: wrong}, {**M})):
        assert not reproduces(CoordData(L2, a0, A_, M_, c.branch), H, hi)


@pytest.mark.parametrize("case", sorted(_MISSHAPEN))
def test_extract_rejects_superconformal_maps_of_the_wrong_shape(case):
    ev, od, error, message = _MISSHAPEN[case]
    H = SuperSeries(L, ev(), od())
    assert ss_is_superconformal(H)[0]
    with pytest.raises(error, match=message):
        ss_extract_zero(H)

# -- evaluation ---------------------------------------------------------------


def test_evaluate_identity():
    z0 = scalar(2) + gen(1) * gen(2)
    th0 = gen(3)
    got = ss_evaluate(SuperSeries.identity(L), z0, th0)
    assert got == (z0, th0)


def test_evaluate_square_with_soul():
    H = SuperSeries(L, SFun.z_power(L, 2), SFun.theta_term(L, 0))
    z0 = scalar(1) + gen(1) * gen(2)
    v, _ = ss_evaluate(H, z0, GrassmannElement(L))
    assert v == scalar(1) + gen(1) * gen(2) * 2


def test_evaluate_inversion_at_two():
    v, t = ss_evaluate(SuperSeries.inversion(L), scalar(2), GrassmannElement(L))
    assert v == scalar(Fraction(1, 2))
    assert t.is_zero()


def test_evaluate_checks_the_parity_of_its_point():
    """z must be even and theta odd or zero; a mixed value is neither."""
    H = SuperSeries.identity(L)
    for z0, th0 in ((gen(1), gen(2)), (scalar(2) + gen(1), gen(2)),
                    (scalar(2), gen(1) * gen(2)), (scalar(2), scalar(1) + gen(1))):
        with pytest.raises(DomainError):
            ss_evaluate(H, z0, th0)
    assert ss_evaluate(H, scalar(2), GrassmannElement(L)) == (scalar(2), GrassmannElement(L))


def polynomial_map(rng, lead) -> SuperSeries:
    """A map with no window: even zt = lead z + orders 0..2 with souls and
    odd coefficients on theta, odd tht = odd souls + theta (1 + even souls)."""
    ev = (SFun.z_power(L, 1, lead) + SFun.z_power(L, 2, soul_even(rng))
          + SFun.theta_term(L, 0, soul_odd(rng)) + SFun.theta_term(L, 1, soul_odd(rng)))
    od = (SFun.const(L, soul_odd(rng)) + SFun.z_power(L, 1, soul_odd(rng))
          + SFun.theta_term(L, 0, scalar(1) + soul_even(rng))
          + SFun.theta_term(L, 2, soul_even(rng)))
    return SuperSeries(L, ev, od)


def test_evaluation_commutes_with_composition():
    """Evaluating H1 o H2 at a point is evaluating H1 at the value of H2
    there: theta c z^n takes the value theta0 c z0^n on both sides, with
    theta0 on the left of an odd c."""
    rng = random.Random(SEED + 13)
    for _ in range(4):
        H1 = polynomial_map(rng, scalar(1) + soul_even(rng))
        H2 = polynomial_map(rng, scalar(rng.choice([2, 3])))
        z0, th0 = scalar(rng.choice([1, 2, 3])) + soul_even(rng), soul_odd(rng)
        K = ss_compose(H1, H2)
        assert (K.ev.lo, K.ev.hi, K.od.lo, K.od.hi) == (None,) * 4
        assert ss_evaluate(K, z0, th0) == ss_evaluate(H1, *ss_evaluate(H2, z0, th0))


def test_evaluate_refuses_a_windowed_series():
    """A windowed series has an unknown tail, so it has no value to give."""
    rng = random.Random(SEED)
    H = ss_exp_zero(random_coord_data(rng), (-12, 12))
    with pytest.raises(TruncationError):
        ss_evaluate(H, scalar(1) + gen(1) * gen(2), gen(3))


# -- sympy oracle for soul-free series ------------------------------------------

Z = sympy.Symbol("z", positive=True)
_SQUARES = [1, 4, Fraction(9, 4), Fraction(1, 16)]


def body_series(coeffs: dict) -> SFun:
    """The soul-free theta-free series sum c z^n on no window."""
    return SFun(L, {(n, 0): scalar(c) for n, c in coeffs.items()})


def rational(q):
    q = Fraction(q)
    return sympy.Rational(q.numerator, q.denominator)


def sympy_poly(coeffs: dict):
    return sum(rational(c) * Z ** n for n, c in coeffs.items())


def assert_matches_sympy(got: SFun, expr):
    """got's theta-free part equals the Laurent expansion of expr on got's
    window, and got has no theta part and no soul.  A series with no high
    edge is compared through order 8 and through its own top order."""
    hi = got.hi if got.hi is not None else max([8] + [n for n, _ in got.terms])
    want: dict = {}
    for term in sympy.Add.make_args(sympy.expand(sympy.series(expr, Z, 0, hi + 1).removeO())):
        c, n = term.as_coeff_exponent(Z)
        assert c.is_Rational and n.is_Integer, term
        add_term(want, int(n), QQi(Fraction(int(c.p), int(c.q))))
    for (n, e), c in got.terms.items():
        assert e == 0 and c.soul().is_zero()
    for n in {n for n, _ in got.terms} | set(want):
        if (got.lo is None or got.lo <= n) and n <= hi:
            assert got.coeff(n, 0).body() == want.get(n, QQi(0)), n


@st.composite
def soul_free_coeffs(draw, lead_orders=(0, 2, -2)):
    """A perfect-square leading coefficient at an even order plus a few
    higher rational terms."""
    k = draw(st.sampled_from(lead_orders))
    coeffs = {k: draw(st.sampled_from(_SQUARES))}
    for n in draw(st.lists(st.integers(k + 1, k + 4), max_size=3, unique=True)):
        coeffs[n] = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
    return coeffs


@settings(max_examples=30, deadline=None)
@given(soul_free_coeffs(), st.sampled_from([-2, -1, -HALF, HALF, Fraction(3, 2)]))
def test_power_matches_sympy_on_soul_free_series(coeffs, n):
    got = body_series(coeffs).power(n, 8)
    expr = sympy_poly(coeffs) ** rational(n)
    assert_matches_sympy(got, expr)


@settings(max_examples=10, deadline=None)
@given(soul_free_coeffs(lead_orders=(1,)))
def test_inverse_of_a_soul_free_map_matches_sympy_composition(coeffs):
    """g, the theta-free part of the inverse's even component, solves
    f(g(z)) = z on its window, with the composition done in sympy."""
    window = (-6, 6)
    f = body_series(coeffs).with_window(None, window[1])
    g = ss_invert(ss_from_components(f, SFun.zero(L), window=window), window).ev
    g_expr = sympy_poly({n: as_qqi(c.body()).re for (n, e), c in g.terms.items() if e == 0})
    f_of_g = sympy_poly(coeffs).subs(Z, g_expr)
    got = SFun(L, {(1, 0): scalar(1)}, g.lo, g.hi)
    assert_matches_sympy(got, f_of_g)


@settings(max_examples=15, deadline=None)
@given(soul_free_coeffs(lead_orders=(1,)))
def test_from_components_is_exact_through_the_window_edge(coeffs):
    """With psi = 0 the map is (f, theta r), r*r = f': r matches sympy's
    sqrt(f') through window[1], where an endless root is cut."""
    window = (-6, 6)
    od = ss_from_components(body_series(coeffs), SFun.zero(L), window=window).od
    assert all(e for _, e in od.terms)
    endless = any(n > 1 and c for n, c in coeffs.items())
    assert od.hi == (window[1] if endless else None)
    r = SFun(L, {(n, 0): c for (n, _), c in od.terms.items()}, od.lo, od.hi)
    assert_matches_sympy(r, sympy.sqrt(sympy.diff(sympy_poly(coeffs), Z)))


def test_inverse_of_a_polynomial_map_with_no_high_edge_stops(monkeypatch):
    """f = 4z + z^2/2 - z^4 carries no window.  The inversion reads its
    residual through the window's high edge only, so every iterate it
    composes stays inside the window (reading the orders above it made each
    round about 25 times dearer than the one before, without end), and
    f(g(z)) = z there."""
    import superns.superseries as ss

    coeffs = {1: 4, 2: HALF, 4: -1}
    window = (-6, 6)
    f = body_series(coeffs)
    assert f.hi is None
    compose = ss.ss_compose

    def bounded(H1, H2, clip=None):
        assert all(n <= window[1] for n, _ in H2.ev.terms), sorted(H2.ev.terms)
        return compose(H1, H2, clip)

    monkeypatch.setattr(ss, "ss_compose", bounded)
    g = ss_invert(ss_from_components(f, SFun.zero(L), window=window), window).ev
    assert g.hi == window[1]
    g_expr = sympy_poly({n: as_qqi(c.body()).re for (n, e), c in g.terms.items() if e == 0})
    got = SFun(L, {(1, 0): scalar(1)}, g.lo, g.hi)
    assert_matches_sympy(got, sympy_poly(coeffs).subs(Z, g_expr))


# -- pinned outputs of the series paths no benchmark workload runs ---------------

PIN_SEED = 29  # fixed, not SUPERNS_SEED: the digests below belong to these inputs
LP = 4  # generators of the pinned power and product operands


def pin_canon(x) -> str:
    """An outcome as a string that does not depend on dict order: a map as
    its two components, a series as its window and terms, a raise as its
    class name.  == ignores windows, so a moved edge shows only here."""
    if isinstance(x, str):
        return x
    if isinstance(x, SuperSeries):
        return pin_canon(x.ev) + "|" + pin_canon(x.od)
    terms = sorted((n, e, sorted((m, f"({v.re},{v.im})" if isinstance(v, QQi) else str(v))
                                 for m, v in c.terms.items()))
                   for (n, e), c in x.terms.items())
    return f"[{x.lo},{x.hi}]{terms}"


def outcome(make) -> str:
    try:
        return pin_canon(make())
    except ValueError as exc:
        return type(exc).__name__


def pin_coeff(rng, odd):
    ix = rng.sample(range(1, LP + 1), rng.choice([1, 3]) if odd else 2)
    return GrassmannElement.monomial(LP, sorted(ix),
                                     Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2)))


def pin_series(rng, lo=None, hi=None, endless=False):
    """c z^k plus a few soul terms near k, an endless one a body above k,
    with edges lo, hi taken relative to k."""
    k = rng.choice([-2, -1, 0, 1, 2])
    f = SFun(LP, {(k, 0): GrassmannElement.scalar(LP, rng.choice([1, 4, Fraction(9, 4)]))})
    for _ in range(rng.randint(1, 3)):
        e = rng.randint(0, 1)
        f = f + SFun(LP, {(rng.randint(k - 1, k + 3), e): pin_coeff(rng, e)})
    if endless:
        f = f + SFun.z_power(LP, k + rng.randint(1, 2),
                             GrassmannElement.scalar(LP, rng.choice([-1, HALF, 2])))
    return f.with_window(None if lo is None else k + lo, None if hi is None else k + hi)


def pinned_outcomes() -> dict:
    rng = random.Random(PIN_SEED)
    out = {}
    series = [pin_series(rng, hi=rng.choice([None, 1, 3]), endless=rng.random() < 0.5)
              for _ in range(8)]
    out["power"] = [outcome(lambda: f.power(n, 6))
                    for f in series for n in (-2, -1, -HALF, HALF, 3)]
    Hz = [ss_exp_zero(random_coord_data(rng, jmax=3), (-6, 6)) for _ in range(3)]
    Hi = [ss_exp_infinity(random_inf_data(rng, jmax=3), (-6, 6)) for _ in range(3)]
    out["exp"] = [pin_canon(H) for H in Hz + Hi]
    out["invert"] = [outcome(lambda: ss_invert(H, (-6, 6))) for H in Hi]
    I = SuperSeries.inversion(L)
    pairs = list(zip(Hz, Hi)) + list(zip(Hi, Hz))
    pairs += [(H, K) for H in (Hz[0], Hi[0]) for K in (I, ss_invert(H, (-6, 6)))]
    pairs += [(K, H) for H, K in pairs[-4:]]
    out["compose"] = [outcome(lambda: ss_compose(a, b, clip=(-4, 4))) for a, b in pairs]
    comps = []
    for _ in range(4):
        f = SFun.z_power(L, 1, scalar(rng.choice([1, 4])) + soul_even(rng))
        psi = SFun.zero(L)
        for n in range(1, 4):
            f = f + SFun.z_power(L, n + 1, soul_even(rng) * rng.randint(-2, 2))
            psi = psi + SFun.z_power(L, n - 1, soul_odd(rng))
        comps.append((f.with_window(None, rng.choice([None, 5])), psi, rng.choice([1, -1])))
    out["components"] = [outcome(lambda: ss_from_components(f, psi, b, (-6, 6)))
                         for f, psi, b in comps]
    edges = [(None, None), (-1, None), (None, 2)]
    ops = [(pin_series(rng, *rng.choice(edges)), pin_series(rng, *rng.choice(edges)),
            pin_coeff(rng, rng.randint(0, 1)) + GrassmannElement.scalar(LP, rng.randint(1, 3)))
           for _ in range(12)]
    out["product"] = [outcome(lambda: f * g) for f, g, _ in ops]
    out["scale"] = [outcome(lambda: f.scale_left(s)) for f, _, s in ops]
    return out


PINNED = {
    "power": "aab6d6702ecb5891",
    "exp": "2fc521ec8f82046b",
    "invert": "1f3a8ef117c21f7c",
    "compose": "2d00ee4d461cfaee",
    "components": "48d963b44d8471be",
    "product": "706addcd449fc404",
    "scale": "16e75a630d8a9203",
}


def test_series_paths_match_their_pinned_digests():
    """Powers, both flows, the inversion of a map at infinity, composition
    both ways, maps from components, products and left scales of windowed
    operands keep their terms, windows and raised classes on fixed inputs.
    Most outcomes are values, so the digests pin arithmetic, not raises."""
    out = pinned_outcomes()
    got = {path: hashlib.sha256("\n".join(v).encode()).hexdigest()[:16]
           for path, v in out.items()}
    assert got == PINNED
    for path, v in out.items():
        raised = sum(1 for x in v if not x.startswith("["))
        assert 2 * raised < len(v), (path, raised)
