"""The Neveu-Schwarz Lie superalgebra and its weight-truncated Verma modules.

A generator is the int of its doubled index: L(n) is 2n and G(r) is 2r, so
g & 1 is its parity and -g/2 its L(0)-weight shift; the central element c
is the sentinel C_GEN.  gen_name prints a generator.  Coefficients live in
a GradedPoly ring so the central charge and highest weight can stay formal.
An algebra element is a plain sparse dict {generator: GradedPoly} (the
invariant of superns.sparse: no zero value), so sums and multiples are
sparse.add_terms and sparse.scaled.  bracket_constants is the bracket
table, with rational structure constants; ns_bracket is the superbracket
of two such dicts; VermaModule.apply_gen is the action on a basis
position, kept in one memo, which the sewing solver reads as its rows.
"""

from __future__ import annotations

from fractions import Fraction

from .grassmann import GradedPoly, ParamSpec
from .sparse import add_scaled


def L(n) -> int:
    i = int(n)
    if i != n:
        raise ValueError(f"L index must be an integer, got {n}")
    return 2 * i


def G(r) -> int:
    r = Fraction(r)
    if r.denominator != 2:
        raise ValueError(f"G index must be half-odd, got {r}")
    return r.numerator


C_GEN = "c"


def gen_parity(g) -> int:
    return 0 if g == C_GEN else g & 1


def gen_weight(g) -> Fraction:
    """L(0)-eigenvalue shift: L(-j) raises by j, G(-r) by r."""
    return Fraction(0 if g == C_GEN else -g, 2)


def gen_rank(g):
    """Total PBW order: raising block (G then L, magnitude decreasing),
    diagonal L(0) and c, lowering block mirrored."""
    if g == C_GEN:
        return (1, 1, 0)
    if g < 0:
        return (0, 1 - (g & 1), g)
    return (2, g & 1, g) if g else (1, 0, 0)


def gen_name(g) -> str:
    if g == C_GEN:
        return "c"
    return f"G({Fraction(g, 2)})" if g & 1 else f"L({g // 2})"


def bracket_constants(a, b) -> dict:
    """The superbracket [a, b] of two basis generators as {generator:
    rational}, no zero stored: the one bracket table, which ns_bracket, the
    Verma action and the sewing solver's adjoint action all read."""
    if a == C_GEN or b == C_GEN:
        return {}
    if not a & 1 and not b & 1:
        # [L(m), L(n)] = (m - n) L(m + n) + (m^3 - m)/12 c, the last at m + n = 0
        m, n = a // 2, b // 2
        out = {a + b: m - n} if m != n else {}
        if a + b == 0 and (cc := Fraction(m ** 3 - m, 12)):
            out[C_GEN] = cc
        return out
    if not a & 1:
        return {g: -v for g, v in bracket_constants(b, a).items()}
    if not b & 1:
        # [G(r), L(n)] = (r - n/2) G(r + n)
        coeff = Fraction(2 * a - b, 4)
        return {a + b: coeff} if coeff else {}
    # [G(r), G(s)] = 2 L(r + s) + (r^2 - 1/4)/3 c, the last at r + s = 0
    out = {a + b: 2}
    if a + b == 0 and (cc := Fraction(a * a - 1, 12)):
        out[C_GEN] = cc
    return out


def ns_bracket(X: dict, Y: dict) -> dict:
    """The bilinear superbracket of two algebra elements {generator:
    GradedPoly}; an odd coefficient of Y picks up a Koszul sign as it moves
    past an odd generator of X.  Raises ValueError on a coefficient of
    mixed parity."""
    out: dict = {}
    for a, p in X.items():
        for b, q in Y.items():
            qp = q.parity()
            if qp is None:
                raise ValueError("coefficient of mixed parity in bracket")
            add_scaled(out, bracket_constants(a, b),
                       -(p * q) if qp and gen_parity(a) else p * q)
    return out


# ----------------------------------------------------------------------
# weight-truncated Verma modules
# ----------------------------------------------------------------------


def word_level(word) -> Fraction:
    return Fraction(-sum(word), 2)


class VermaModule:
    """Verma module with (possibly formal) central charge and highest weight.

    Basis: PBW raising words of level <= weight_cap applied to the
    highest-weight vector, sorted by (level, word), so the highest-weight
    vector is position 0; position maps a basis word to its index and
    levels2[i] is twice the level of basis[i], an int as the generators
    are.  The module acts by position: apply_gen(g, i) is the action of any
    generator on basis[i] as {position: GradedPoly}, computed by bracket
    recursion and kept in the one memo, which the sewing solver reads as
    its rows.  A suffix of a PBW basis word is a basis word, so the
    recursion meets positions only; a raising generator that extends a word
    keeps it exactly when the result is a basis word.  The memo holds only
    positions and ring elements, never the module, so a module is freed by
    reference counting alone.
    """

    def __init__(self, spec: ParamSpec, c_value: GradedPoly, h_value: GradedPoly,
                 weight_cap):
        self.spec = spec
        self.c_value = c_value
        self.h_value = h_value
        self.cap = Fraction(weight_cap)
        self.one = GradedPoly.scalar(spec, 1)
        self._memo: dict = {}
        # the raising generators in PBW order, each word's doubled level on
        # the stack beside it; an explicit stack, as a closure that calls
        # itself would be a reference cycle holding the module until the
        # cyclic collector runs
        cap2 = int(2 * self.cap)
        gens = sorted(range(-1, -cap2 - 1, -1), key=gen_rank)
        words = []
        stack = [(0, (), 0)]
        while stack:
            level2, word, start = stack.pop()
            words.append((level2, word))
            for i in range(start, len(gens)):
                g = gens[i]
                if level2 - g <= cap2:
                    stack.append((level2 - g, word + (g,), i + (g & 1)))
        words.sort()
        self.levels2 = [level2 for level2, _ in words]
        self.basis = [word for _, word in words]
        self.position = {w: i for i, w in enumerate(self.basis)}

    def apply_gen(self, g, i: int) -> dict:
        """g on basis[i] as {position: GradedPoly}, memoized; no value is
        zero, so h = 0 or c = 0 gives an empty row."""
        key = (g, i)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        word, position = self.basis[i], self.position
        if g == C_GEN:
            out = {i: self.c_value} if self.c_value else {}
        elif g < 0 and (not word or gen_rank(g) <= gen_rank(word[0])):
            if word and g == word[0] and g & 1:
                # odd square: G(r) G(r) rest = L(2r) rest
                out = self.apply_gen(2 * g, position[word[1:]])
            else:
                j = position.get((g,) + word)
                out = {} if j is None else {j: self.one}
        elif not word:
            out = {i: self.h_value} if g == 0 and self.h_value else {}
        else:
            b, rest = word[0], position[word[1:]]
            odd = g & 1 and b & 1
            out = {}
            for j, p in self.apply_gen(g, rest).items():
                add_scaled(out, self.apply_gen(b, j), -p if odd else p)
            for g2, q in bracket_constants(g, b).items():
                add_scaled(out, self.apply_gen(g2, rest), q)
        self._memo[key] = out
        return out
