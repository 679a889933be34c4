import itertools
import random
from fractions import Fraction

import pytest
import sympy

from superns.grassmann import GradedPoly, GrassmannElement, ParamSpec, QQi
from superns.nsalg import (
    C_GEN,
    G,
    L,
    VermaModule,
    bracket_constants,
    gen_name,
    gen_parity,
    gen_rank,
    gen_weight,
    ns_bracket,
    word_level,
)
from superns.sparse import add_scaled, add_term, add_terms, scaled
from superns.superseries import DiffOp, SFun

SPEC = ParamSpec([("c", 0, False), ("h", 0, False)], 4)
HALF = Fraction(1, 2)


def single(g, coeff=1):
    """The algebra element coeff * g as {generator: GradedPoly}."""
    p = coeff if isinstance(coeff, GradedPoly) else GradedPoly.scalar(SPEC, coeff)
    return {g: p} if p else {}


def c_poly():
    return GradedPoly.symbol(SPEC, "c")


def h_poly():
    return GradedPoly.symbol(SPEC, "h")


def test_bracket_L1_Lm1():
    out = ns_bracket(single(L(1)), single(L(-1)))
    assert out == single(L(0), 2)


def test_bracket_L2_Lm2_central_term():
    out = ns_bracket(single(L(2)), single(L(-2)))
    assert out == add_terms(single(L(0), 4), single(C_GEN, Fraction(1, 2)))


def test_bracket_G_half_G_minus_half():
    out = ns_bracket(single(G(HALF)), single(G(-HALF)))
    assert out == single(L(0), 2)


def test_bracket_G_L_relation():
    # [G(1/2), L(-1)] = G(-1/2)
    out = ns_bracket(single(G(HALF)), single(L(-1)))
    assert out == single(G(-HALF))


def test_bracket_central_element_vanishes():
    assert ns_bracket(single(C_GEN), single(L(3))) == {}


def _all_gens(rng):
    gens = [L(n) for n in rng]
    gens += [G(n + HALF) for n in rng]
    return gens


def test_super_jacobi_identity():
    gens = _all_gens(range(-4, 5))
    rnd = random.Random(7)
    triples = [tuple(rnd.choice(gens) for _ in range(3)) for _ in range(120)]
    for a, b, c in triples:
        A, B, C = single(a), single(b), single(c)
        lhs = ns_bracket(A, ns_bracket(B, C))
        m1 = ns_bracket(ns_bracket(A, B), C)
        m2 = ns_bracket(B, ns_bracket(A, C))
        sign = -1 if (gen_parity(a) and gen_parity(b)) else 1
        assert lhs == add_terms(m1, scaled(m2, sign)), tuple(map(gen_name, (a, b, c)))


def test_graded_antisymmetry():
    gens = _all_gens(range(-3, 4))
    for a, b in itertools.product(gens, repeat=2):
        ab = ns_bracket(single(a), single(b))
        ba = ns_bracket(single(b), single(a))
        sign = -1 if (gen_parity(a) and gen_parity(b)) else 1
        assert ab == scaled(ba, -sign), (gen_name(a), gen_name(b))


# -- differential operator representation ------------------------------


# odd symbols for the coefficients of odd generators, realized as the
# generators of a Grassmann algebra
ODD = ParamSpec([(f"e{i}", 1, False) for i in range(1, 5)], 4)
GRASS = {f"e{i}": GrassmannElement.generator(4, i) for i in range(1, 5)}


def realize(X: dict) -> list:
    """An algebra element over ODD as [(Grassmann coefficient, DiffOp)],
    its central term skipped, as the representation has c = 0."""
    return [(p.substitute(GRASS), DiffOp(g)) for g, p in X.items() if g != C_GEN]


def element_parity(X: dict) -> int:
    (parity,) = {(gen_parity(g) + p.parity()) & 1 for g, p in X.items()}
    return parity


def diffop_commutator_matches(X: dict, Y: dict, target: dict) -> bool:
    """Check the supercommutator [X, Y] = target on the basis monomials
    theta^e z^k, |k| <= 5, for homogeneous elements over ODD: a term p*g
    acts as F -> p * DiffOp(g)(F), p multiplied in from the left with
    SFun.scale_left, so an odd p passes an odd DiffOp with a sign."""
    sign = -1 if (element_parity(X) and element_parity(Y)) else 1

    def act(ops, F):
        out = SFun.zero(F.L)
        for coeff, op in ops:
            out = out + op.apply(F).scale_left(coeff)
        return out

    x_ops, y_ops, ops = realize(X), realize(Y), realize(target)
    for k in range(-5, 6):
        for e in (0, 1):
            F = SFun(4, {(k, e): GrassmannElement.scalar(4, 1)})
            lhs = act(x_ops, act(y_ops, F)) - act(y_ops, act(x_ops, F)).scale_left(sign)
            if lhs != act(ops, F):
                return False
    return True


def even_element(rnd, names) -> dict:
    """A random even element over ODD: three terms of doubled index in
    [-7, 7], an odd generator carrying one odd symbol of names, an even one
    a rational or the product of both symbols."""
    X: dict = {}
    for _ in range(3):
        g = rnd.randrange(-7, 8)
        c = rnd.choice([1, -2, Fraction(1, 3)])
        if g & 1:
            p = GradedPoly.symbol(ODD, rnd.choice(names), c)
        elif rnd.random() < 0.5:
            p = GradedPoly.scalar(ODD, c)
        else:
            p = GradedPoly.symbol(ODD, names[0], c) * GradedPoly.symbol(ODD, names[1])
        add_term(X, g, p)
    return X


def test_diffop_L_minus_one_on_z():
    op = DiffOp(L(-1))
    F = SFun(0, {(1, 0): GrassmannElement.scalar(0, 1)})
    out = op.apply(F)
    assert out.coeff(0, 0) == GrassmannElement.scalar(0, -1)
    assert len(out.terms) == 1


def test_diffop_G_minus_half_actions():
    op = DiffOp(G(-HALF))
    theta = SFun(0, {(0, 1): GrassmannElement.scalar(0, 1)})
    assert op.apply(theta).coeff(0, 0) == GrassmannElement.scalar(0, -1)
    z = SFun(0, {(1, 0): GrassmannElement.scalar(0, 1)})
    assert op.apply(z).coeff(0, 1) == GrassmannElement.scalar(0, 1)


def test_representation_c_zero():
    """The superderivations represent the bracket at c = 0: for every pair
    of generators a, b of doubled index in [-7, 7] (L-L, L-G, G-L and G-G),
    [DiffOp(a), DiffOp(b)] realizes ns_bracket(a, b); and for 40 pairs of
    even elements whose odd generators carry odd symbols, the commutator
    realizes ns_bracket with its Koszul sign."""
    one = GradedPoly.scalar(ODD, 1)
    for a, b in itertools.product(range(-7, 8), repeat=2):
        X, Y = {a: one}, {b: one}
        assert diffop_commutator_matches(X, Y, ns_bracket(X, Y)), (a, b)
    rnd = random.Random(11)
    odd_pairs = 0
    for _ in range(40):
        X, Y = even_element(rnd, ("e1", "e2")), even_element(rnd, ("e3", "e4"))
        odd_pairs += any(a & 1 and b & 1 for a in X for b in Y)
        assert diffop_commutator_matches(X, Y, ns_bracket(X, Y)), (X, Y)
    assert odd_pairs >= 10


def test_representation_sees_a_dropped_koszul_sign():
    """Negative control: the bracket of two even elements with the sign of
    an odd coefficient passing an odd generator left out is not realized."""
    e1, e3 = GradedPoly.symbol(ODD, "e1"), GradedPoly.symbol(ODD, "e3")
    X, Y = {G(HALF): e1}, {G(-HALF): e3}
    unsigned: dict = {}
    for a, p in X.items():
        for b, q in Y.items():
            add_scaled(unsigned, bracket_constants(a, b), p * q)
    assert unsigned == scaled(ns_bracket(X, Y), -1)
    assert diffop_commutator_matches(X, Y, ns_bracket(X, Y))
    assert not diffop_commutator_matches(X, Y, unsigned)


# -- PBW normal ordering: the oracle for the Verma action --------------------


def normal_order(word, coeff=1) -> dict:
    """Rewrite a generator word to PBW order by repeated bracket insertion:
    {PBW word: GradedPoly}.  Equal odd generators square to the bracket
    half, L(2r)."""
    if not isinstance(coeff, GradedPoly):
        coeff = GradedPoly.scalar(SPEC, coeff)
    pending = [(tuple(word), coeff)]
    done: dict = {}
    while pending:
        w, p = pending.pop()
        if not p:
            continue
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            ra, rb = gen_rank(a), gen_rank(b)
            if ra > rb or (ra == rb and gen_parity(a)):
                head, tail = w[:i], w[i + 2:]
                if a == b:
                    # G(r)G(r) = L(2r): half the symmetric bracket, never central
                    pending.append((head + (2 * a,) + tail, p))
                    break
                sign = -1 if (gen_parity(a) and gen_parity(b)) else 1
                pending.append((head + (b, a) + tail, p * sign))
                for g, q in bracket_constants(a, b).items():
                    pending.append((head + (g,) + tail, p * q))
                break
        else:  # no pair out of order: w is a PBW word
            add_term(done, w, p)
    return done


def scalars(terms) -> dict:
    return {w: GradedPoly.scalar(SPEC, c) for w, c in terms.items()}


def test_normal_order_L1_Lm1():
    out = normal_order((L(1), L(-1)))
    assert out == scalars({(L(-1), L(1)): 1, (L(0),): 2})


def test_normal_order_G_half_G_minus_half():
    out = normal_order((G(HALF), G(-HALF)))
    assert out == scalars({(G(-HALF), G(HALF)): -1, (L(0),): 2})


def test_normal_order_fixed_point():
    w = (G(-Fraction(3, 2)), L(-1), L(0), L(2))
    assert normal_order(w) == scalars({w: 1})


def test_normal_order_idempotent():
    out = normal_order((L(2), L(-1), G(HALF)))
    again: dict = {}
    for w, p in out.items():
        for w2, q in normal_order(w, p).items():
            add_term(again, w2, q)
    assert again == out


def test_normal_order_odd_square():
    assert normal_order((G(HALF), G(HALF))) == scalars({(L(1),): 1})


@pytest.mark.parametrize("n", [Fraction(3, 2), 1.5, Fraction(-1, 2)])
def test_L_rejects_a_non_integral_index(n):
    with pytest.raises(ValueError):
        L(n)


def test_a_generator_is_its_doubled_index():
    """The encoding contract: L(n) is the int 2n, G(r) the int 2r, parity
    is the low bit and the weight shift -g/2; gen_rank is the PBW order."""
    assert L(Fraction(4, 2)) == L(2) == 4
    assert type(L(Fraction(4, 2))) is int and type(G(Fraction(3, 2))) is int
    assert G(-HALF) == -1 and G(Fraction(3, 2)) == 3
    assert [gen_parity(g) for g in (L(0), L(-3), G(-Fraction(5, 2)), C_GEN)] == [0, 0, 1, 0]
    assert ([gen_weight(g) for g in (L(0), L(-3), G(-Fraction(5, 2)), C_GEN)]
            == [0, 3, Fraction(5, 2), 0])
    modes = sorted([L(n) for n in range(-2, 3)] + [G(r) for r in (-1.5, -0.5, 0.5, 1.5)]
                   + [C_GEN], key=gen_rank)
    assert [gen_name(g) for g in modes] == ["G(-3/2)", "G(-1/2)", "L(-2)", "L(-1)", "L(0)",
                                            "c", "L(1)", "L(2)", "G(1/2)", "G(3/2)"]
    assert modes == [G(-1.5), G(-0.5), L(-2), L(-1), L(0), C_GEN, L(1), L(2), G(0.5), G(1.5)]


# -- Verma modules --------------------------------------------------------


def formal_verma(cap=4):
    return VermaModule(SPEC, c_poly(), h_poly(), cap)


def act(M, g, vec: dict) -> dict:
    """g applied to a word-keyed vector (word -> GradedPoly) through
    apply_gen, which acts by basis position."""
    out: dict = {}
    for w, p in vec.items():
        for j, q in M.apply_gen(g, M.position[w]).items():
            add_term(out, M.basis[j], q * p)
    return out


def act_word(M, gens, vec: dict) -> dict:
    """The word gens applied to vec, rightmost generator first."""
    for g in reversed(gens):
        vec = act(M, g, vec)
    return vec


def max_raise(word) -> Fraction:
    """Highest intermediate weight gain when the word acts right-to-left.

    A column of level l is acted on exactly by the truncated module iff
    l + max_raise(word) stays within the weight cap.
    """
    running = peak = Fraction(0)
    for g in reversed(word):
        running += gen_weight(g)
        peak = max(peak, running)
    return peak


def verma_act(X: dict, M) -> dict:
    """Matrix of X {PBW word: GradedPoly} on the weight-truncated basis:
    maps column word to the image vector (word -> GradedPoly)."""
    out = {}
    for col in M.basis:
        img: dict = {}
        for word, p in X.items():
            add_scaled(img, act_word(M, word, {col: M.one}), p)
        out[col] = img
    return out


def test_basis_levels():
    M = formal_verma(2)
    levels = sorted(word_level(w) for w in M.basis)
    # level 0: 1; 1/2: G(-1/2); 1: L(-1); 3/2: G(-3/2), L(-1)G(-1/2);
    # 2: L(-2), L(-1)^2, G(-3/2)G(-1/2)
    assert levels.count(Fraction(0)) == 1
    assert levels.count(HALF) == 1
    assert levels.count(Fraction(1)) == 1
    assert levels.count(Fraction(3, 2)) == 2
    assert levels.count(Fraction(2)) == 3


def test_L0_diagonal_with_weights():
    M = formal_verma(3)
    for w in M.basis:
        out = act(M, L(0), {w: M.one})
        assert set(out) <= {w}
        expected = h_poly() + GradedPoly.scalar(SPEC, word_level(w))
        assert out.get(w, GradedPoly(SPEC)) == expected


def test_annihilation_of_highest_weight():
    M = formal_verma(3)
    hw = {(): M.one}
    for g in (L(1), L(2), G(HALF), G(Fraction(3, 2))):
        assert act(M, g, hw) == {}


def test_L1_Lm1_on_highest_weight():
    M = formal_verma(3)
    hw = {(): M.one}
    out = act(M, L(1), act(M, L(-1), hw))
    assert out == {(): h_poly() * 2}


def test_G_half_G_minus_half_on_highest_weight():
    M = formal_verma(3)
    hw = {(): M.one}
    out = act(M, G(HALF), act(M, G(-HALF), hw))
    assert out == {(): h_poly() * 2}


def test_L2_Lm2_on_highest_weight():
    M = formal_verma(3)
    hw = {(): M.one}
    out = act(M, L(2), act(M, L(-2), hw))
    expected = h_poly() * 4 + c_poly() * QQi(Fraction(1, 2))
    assert out == {(): expected}


def test_raising_weight_bookkeeping():
    M = formal_verma(4)
    hw = {(): M.one}
    for g, lift in ((L(-1), 1), (L(-3), 3), (G(-HALF), HALF), (G(-Fraction(5, 2)), Fraction(5, 2))):
        vec = act(M, g, hw)
        (w, _), = vec.items()
        assert word_level(w) == lift


def test_verma_act_preserved_by_normal_order():
    M = formal_verma(4)
    words = [(L(1), L(-1)), (G(HALF), G(-HALF)), (L(2), L(-2)),
             (G(Fraction(3, 2)), L(-1), G(-HALF))]
    for w in words:
        ordered = normal_order(w)
        md = verma_act({w: M.one}, M)
        mo = verma_act(ordered, M)
        # compare only columns the truncated module sees completely
        margin = max([max_raise(w)] + [max_raise(u) for u in ordered])
        cols = [col for col in M.basis if word_level(col) + margin <= M.cap]
        assert cols, w
        for col in cols:
            assert md[col] == mo[col], (w, col)


# -- the position-keyed action as a representation --------------------------

# every generator of doubled index -4..4, and c
REP_GENS = list(range(-4, 5)) + [C_GEN]


def act_at(M, g, vec: dict) -> dict:
    """g applied to a position-keyed vector through apply_gen."""
    out: dict = {}
    for i, p in vec.items():
        add_scaled(out, M.apply_gen(g, i), p)
    return out


def representation_failures(M) -> tuple:
    """Check a(b.v) - (-1)^(|a||b|) b(a.v) = sum [a, b]_g g.v for every
    pair a, b of REP_GENS and every basis vector v that the truncated
    module sees completely: its level plus the highest intermediate lift
    max(0, w(a), w(b), w(a) + w(b)) stays within the cap.  Returns (number
    of checks, failing (a, b, position) triples)."""
    checks, failures = 0, []
    for a, b in itertools.product(REP_GENS, repeat=2):
        wa, wb = gen_weight(a), gen_weight(b)
        margin = max(0, wa, wb, wa + wb)
        sign = -1 if gen_parity(a) and gen_parity(b) else 1
        for i, level2 in enumerate(M.levels2):
            if Fraction(level2, 2) + margin > M.cap:
                continue
            v = {i: M.one}
            lhs = act_at(M, a, act_at(M, b, v))
            add_scaled(lhs, act_at(M, b, act_at(M, a, v)), -sign)
            rhs: dict = {}
            for g, q in bracket_constants(a, b).items():
                add_scaled(rhs, act_at(M, g, v), q)
            checks += 1
            if lhs != rhs:
                failures.append((a, b, i))
    return checks, failures


def test_position_keyed_action_is_a_representation():
    """Independent of how apply_gen recurses: at formal c and h and cap 3,
    the action by basis position represents the bracket table on every
    vector it sees completely."""
    M = formal_verma(3)
    checks, failures = representation_failures(M)
    assert checks > 900 and not failures


def test_representation_check_sees_a_scaled_row():
    """Negative control: one memo row, L(-1) on the highest-weight vector,
    scaled by 2 makes [L(1), L(-1)] = 2 L(0) fail there."""
    M = formal_verma(3)
    assert not representation_failures(M)[1]
    key = (L(-1), 0)
    M._memo[key] = {j: p * 2 for j, p in M._memo[key].items()}
    assert (L(1), L(-1), 0) in representation_failures(M)[1]


@pytest.mark.parametrize("formal_c", [False, True])
def test_verma_rows_store_no_zero_at_h_zero(formal_c):
    """sparse's invariant holds in the module's memo: at h = 0, with c = 0
    or formal, no row that the generators of doubled index -4..4 and c
    fill on any position holds a zero coefficient; the diagonal rows on
    the highest-weight vector are empty where their value is 0."""
    zero = GradedPoly(SPEC)
    M = VermaModule(SPEC, c_poly() if formal_c else zero, zero, 3)
    for g in REP_GENS:
        for i in range(len(M.basis)):
            M.apply_gen(g, i)
    assert all(p for row in M._memo.values() for p in row.values())
    assert M.apply_gen(L(0), 0) == {}
    assert M.apply_gen(C_GEN, 0) == ({0: c_poly()} if formal_c else {})
    assert M.apply_gen(L(0), 1) == {1: GradedPoly.scalar(SPEC, HALF)}


# -- the NS Kac determinant as an oracle for the Verma action ----------------

KAC_LEVELS = (HALF, Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3))


def _dagger(g):
    """L(n)^dagger = L(-n), G(r)^dagger = G(-r): the doubled index negates."""
    return -g


def _ns_partitions(level) -> int:
    """Dimension of a Neveu-Schwarz Verma module at this level: the
    coefficient of q^level in prod_k (1 + q^(k - 1/2)) / (1 - q^k)."""
    n2 = int(2 * level)
    counts = [1] + [0] * n2
    for part2 in range(1, n2 + 1):
        if part2 % 2:  # G(-part2/2): each odd part at most once
            for m in range(n2, part2 - 1, -1):
                counts[m] += counts[m - part2]
        else:
            for m in range(part2, n2 + 1):
                counts[m] += counts[m - part2]
    return counts[n2]


def _kac_ratio(t, level):
    """det of the Shapovalov form at level, divided by the Kac product
    prod (h - h_rs)^p_NS(level - rs/2) over r, s >= 1 of equal parity with
    rs/2 <= level, at c = 15/2 - 3(t + 1/t)."""
    t = Fraction(t)
    c = Fraction(15, 2) - 3 * (t + 1 / t)
    M = VermaModule(SPEC, GradedPoly.scalar(SPEC, c), h_poly(), level)
    h = sympy.Symbol("h")
    ih = SPEC.index["h"]

    def to_sympy(p):
        out = sympy.Integer(0)
        for key, coeff in p.terms.items():
            power = dict(SPEC.exponents(key)).get(ih, 0)
            out += sympy.Rational(coeff.numerator, coeff.denominator) * h ** power
        return out

    words = [w for w in M.basis if word_level(w) == level]
    assert len(words) == _ns_partitions(level)
    gram = sympy.Matrix([[to_sympy(act_word(M, tuple(_dagger(g) for g in reversed(u)),
                                            {v: M.one}).get((), GradedPoly(SPEC)))
                          for v in words] for u in words])
    det = sympy.expand(gram.det())
    product = sympy.Integer(1)
    for r in range(1, int(2 * level) + 1):
        for s in range(1, int(2 * level) + 1):
            if (r - s) % 2 == 0 and Fraction(r * s, 2) <= level:
                h_rs = (Fraction(r * r - 1, 8) * t - Fraction(r * s - 1, 4)
                        + Fraction(s * s - 1, 8) / t)
                exponent = _ns_partitions(level - Fraction(r * s, 2))
                product *= (h - sympy.Rational(h_rs.numerator, h_rs.denominator)) ** exponent
    return sympy.cancel(det / product), h


def _is_nonzero_constant(ratio, h) -> bool:
    return ratio != 0 and not ratio.has(h)


@pytest.mark.parametrize("t", [3, Fraction(3, 2)])
def test_shapovalov_determinant_matches_the_kac_formula(t):
    """Oracle: the Gram determinant of the formal-h Verma module at c(t) is
    the Kac product times a constant that depends only on the level (c = -5/2
    at t = 3, c = 1 at t = 3/2).  t = 2 would give c = 0, where no central
    term is seen."""
    constants = {}
    for level in KAC_LEVELS:
        ratio, h = _kac_ratio(t, level)
        assert _is_nonzero_constant(ratio, h), (t, level, ratio)
        constants[level] = ratio
    assert constants == {HALF: 2, Fraction(1): 2, Fraction(3, 2): 8, Fraction(2): 128,
                         Fraction(5, 2): 1024, Fraction(3): 73728}


def test_kac_oracle_sees_a_wrong_odd_central_term(monkeypatch):
    """Negative control: with the central term of [G(r), G(-r)] scaled by
    3/2, the determinant leaves the Kac form from level 3/2 on, where that
    term first enters (at r = 1/2 it vanishes)."""
    from superns import nsalg

    bracket = nsalg.bracket_constants

    def skewed(a, b):
        out = bracket(a, b)
        if gen_parity(a) and gen_parity(b) and C_GEN in out:
            out = {**out, C_GEN: out[C_GEN] * Fraction(3, 2)}
        return out

    monkeypatch.setattr(nsalg, "bracket_constants", skewed)
    verdicts = {level: _is_nonzero_constant(*_kac_ratio(3, level)) for level in KAC_LEVELS}
    assert verdicts == {HALF: True, Fraction(1): True, Fraction(3, 2): False,
                        Fraction(2): False, Fraction(5, 2): False, Fraction(3): False}
