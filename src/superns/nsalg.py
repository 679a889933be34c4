"""The Neveu-Schwarz Lie superalgebra and its weight-truncated Verma modules.

Generators are tagged tuples: ("L", n) with integer n, ("G", r) with
half-odd-integer r (a Fraction), and ("c",).  Coefficients live in a
GradedPoly ring so the central charge and highest weight can stay formal.
bracket_constants is the bracket table, with rational structure constants;
ns_bracket is the superbracket on NSExpression; VermaModule.apply_gen is
the action on a basis word, which the sewing solver reads by basis
position through VermaModule.row.
"""

from __future__ import annotations

from fractions import Fraction

from .grassmann import GradedPoly, ParamSpec
from .sparse import add_scaled, add_terms

HALF = Fraction(1, 2)


def L(n):
    i = int(n)
    if i != n:
        raise ValueError(f"L index must be an integer, got {n}")
    return ("L", i)


def G(r):
    r = Fraction(r)
    if r.denominator != 2:
        raise ValueError(f"G index must be half-odd, got {r}")
    return ("G", r)


C_GEN = ("c",)


def gen_parity(g) -> int:
    return 1 if g[0] == "G" else 0


def gen_weight(g) -> Fraction:
    """L(0)-eigenvalue shift: L(-j) raises by j, G(-r) by r."""
    if g[0] == "c":
        return Fraction(0)
    return Fraction(-g[1])


def gen_rank(g):
    """Total PBW order: raising block (G then L, magnitude decreasing),
    diagonal L(0) and c, lowering block mirrored."""
    if g[0] == "c":
        return (1, 1, Fraction(0))
    idx = Fraction(g[1])
    if idx < 0:
        return (0, 0 if g[0] == "G" else 1, idx)
    if idx == 0:
        return (1, 0, Fraction(0))
    return (2, 0 if g[0] == "L" else 1, idx)


class NSExpression:
    """Finite combination of basis generators with GradedPoly coefficients.

    terms stores no zero coefficient (the invariant of superns.sparse).
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec: ParamSpec, terms=None):
        self.spec = spec
        self.terms = {}
        if terms:
            for g, p in terms.items():
                if p:
                    self.terms[g] = p

    @classmethod
    def single(cls, spec: ParamSpec, g, coeff=1) -> "NSExpression":
        p = coeff if isinstance(coeff, GradedPoly) else GradedPoly.scalar(spec, coeff)
        return cls(spec, {g: p})

    def __add__(self, other):
        return NSExpression(self.spec, add_terms(self.terms, other.terms))

    def __neg__(self):
        return NSExpression(self.spec, {g: -p for g, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, coeff) -> "NSExpression":
        p = coeff if isinstance(coeff, GradedPoly) else GradedPoly.scalar(self.spec, coeff)
        return NSExpression(self.spec, {g: p * q for g, q in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, NSExpression) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({p!r})*{g}" for g, p in sorted(self.terms.items(),
                                                            key=lambda t: gen_rank(t[0])))


def bracket_constants(a, b) -> dict:
    """The superbracket [a, b] of two basis generators as {generator:
    rational}: the one bracket table, which NSExpression, the Verma action
    and the sewing solver's adjoint action all read."""
    if a[0] == "c" or b[0] == "c":
        return {}
    if a[0] == "L" and b[0] == "L":
        m, n = a[1], b[1]
        out = {L(m + n): m - n} if m != n else {}
        if m + n == 0 and (cc := Fraction(m ** 3 - m, 12)):
            out[C_GEN] = cc
        return out
    if a[0] == "G" and b[0] == "L":
        r, n = a[1], b[1]
        coeff = r - Fraction(n, 2)
        return {G(r + n): coeff} if coeff else {}
    if a[0] == "L" and b[0] == "G":
        return {g: -v for g, v in bracket_constants(b, a).items()}
    # G with G: symmetric bracket
    r, s = a[1], b[1]
    out = {L(r + s): 2}
    if r + s == 0 and (cc := (r * r - Fraction(1, 4)) / 3):
        out[C_GEN] = cc
    return out


def _basis_bracket(spec: ParamSpec, a, b) -> NSExpression:
    return NSExpression(spec, {g: GradedPoly.scalar(spec, v)
                               for g, v in bracket_constants(a, b).items()})


def ns_bracket(X: NSExpression, Y: NSExpression) -> NSExpression:
    """Bilinear superbracket; odd coefficients pick up Koszul signs when
    they move past odd generators."""
    spec = X.spec
    out = NSExpression(spec)
    for a, p in X.terms.items():
        for b, q in Y.terms.items():
            qp = q.parity()
            if qp is None:
                raise ValueError("coefficient of mixed parity in bracket")
            sign = -1 if (qp and gen_parity(a)) else 1
            coeff = p * q
            if sign < 0:
                coeff = -coeff
            br = _basis_bracket(spec, a, b)
            out = out + br.scaled(coeff)
    return out


# ----------------------------------------------------------------------
# weight-truncated Verma modules
# ----------------------------------------------------------------------


def word_level(word) -> Fraction:
    return sum((gen_weight(g) for g in word), Fraction(0))


class VermaModule:
    """Verma module with (possibly formal) central charge and highest weight.

    Basis: PBW raising words of level <= weight_cap applied to the
    highest-weight vector, sorted by (level, word), so the highest-weight
    vector is position 0; position maps a basis word to its index and
    levels[i] is the level of basis[i].  apply_gen computes the action of
    any generator on a word by bracket recursion and memoizes it.  table(g)
    is the action of g by basis position, the form the sewing solver uses:
    a list whose row i is None until row(g, i) fills it, then maps position
    -> GradedPoly.  row is the one place a word becomes a position.  Tables
    hold only positions and ring elements, never the module, so a module is
    freed by reference counting alone.
    """

    def __init__(self, spec: ParamSpec, c_value: GradedPoly, h_value: GradedPoly,
                 weight_cap):
        self.spec = spec
        self.c_value = c_value
        self.h_value = h_value
        self.cap = Fraction(weight_cap)
        self.one = GradedPoly.scalar(spec, 1)
        self._memo: dict = {}
        self.basis = self._enumerate_basis()
        self.position = {w: i for i, w in enumerate(self.basis)}
        self.levels = [word_level(w) for w in self.basis]
        self._tables: dict = {}

    def _raising_gens(self):
        gens = []
        j = 1
        while j <= self.cap:
            gens.append(L(-j))
            j += 1
        r = HALF
        while r <= self.cap:
            gens.append(G(-r))
            r += 1
        return sorted(gens, key=gen_rank)

    def _enumerate_basis(self):
        # an explicit stack: a closure that calls itself would be a reference
        # cycle holding the module until the cyclic collector runs
        gens = self._raising_gens()
        out = []
        stack = [((), Fraction(0), 0)]
        while stack:
            word, level, start = stack.pop()
            out.append(word)
            for i in range(start, len(gens)):
                g = gens[i]
                lv = level + gen_weight(g)
                if lv <= self.cap:
                    stack.append((word + (g,), lv, i if g[0] == "L" else i + 1))
        return sorted(out, key=lambda w: (word_level(w), w))

    def apply_gen(self, g, word) -> dict:
        key = (g, word)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out: dict = {}
        if g == C_GEN:
            out = {word: self.c_value}
        elif not word:
            kind, idx = g[0], g[1]
            if idx > 0:
                out = {}
            elif kind == "L" and idx == 0:
                out = {(): self.h_value}
            elif word_level((g,)) <= self.cap:
                out = {(g,): self.one}
        else:
            b, rest = word[0], word[1:]
            if gen_weight(g) > 0 and gen_rank(g) <= gen_rank(b):
                if g == b and g[0] == "G":
                    # odd square: g g rest = L(2r) rest
                    out = self.apply_gen(L(int(2 * g[1])), rest)
                else:
                    new = (g,) + word
                    out = {new: self.one} if word_level(new) <= self.cap else {}
            else:
                sign = -1 if (gen_parity(g) and gen_parity(b)) else 1
                acc: dict = {}
                inner = self.apply_gen(g, rest)
                for w2, p in inner.items():
                    add_scaled(acc, self.apply_gen(b, w2), p if sign > 0 else -p)
                for g2, q in bracket_constants(g, b).items():
                    add_scaled(acc, self.apply_gen(g2, rest), q)
                out = acc
        self._memo[key] = out
        return out

    def table(self, g) -> list:
        """The action of g by basis position; rows are filled by row()."""
        t = self._tables.get(g)
        if t is None:
            t = self._tables[g] = [None] * len(self.basis)
        return t

    def row(self, g, i: int) -> dict:
        """table(g)[i]: apply_gen(g, basis[i]) keyed by position, filled on
        first use."""
        t = self.table(g)
        r = t[i]
        if r is None:
            position = self.position
            r = t[i] = {position[w]: p
                        for w, p in self.apply_gen(g, self.basis[i]).items()}
        return r
