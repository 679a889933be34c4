"""Exact arithmetic in finite-generator Grassmann algebras and graded
polynomial rings.

GrassmannElement lives in the algebra on anticommuting generators z1..zL
over the Gaussian rationals, because a body can be complex (a square root
of a negative, the inversion's i*theta/z).  Terms are keyed by bitmasks
(bit i-1 set means zi is a factor), so the empty mask holds the body and
every other mask is soul.  add_product is the one loop that multiplies
such terms dicts, out += a * b.  GrassmannElement.__mul__ calls it, and so
does superseries._sum_left, through which every superfunction product,
scale, power, composition and flow step sums straight into one mask dict
per output coefficient.

One power serves every exponent in ½ℤ: x ** n is the terminating series
b^n Σ_k C(n, k) (s/b)^k in the body b and soul s, so an inverse is x ** -1
and a square root x ** Fraction(1, 2) (principal body root).  No other
code expands a soul series.

GradedPoly, the coefficient ring of the Neveu-Schwarz and sewing layers,
is over the rationals.  Both rings store a coefficient in one canonical
form (see as_rational): an int when it is integral, a Fraction when it is
rational, and a QQi only when its imaginary part is nonzero, which
GradedPoly refuses.  All operations are pure; elements are immutable by
convention.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .sparse import add_term, add_terms


class GrassmannError(ValueError):
    pass


class DimensionMismatch(GrassmannError):
    pass


class NotInvertible(GrassmannError):
    pass


class NotExact(GrassmannError):
    """Raised when a result (e.g. a square root) leaves the exact field."""


_FZERO = Fraction(0)


class QQi:
    """A Gaussian rational re + im*i with exact Fraction parts, built from
    ints and Fractions only (a float part raises TypeError).

    A sum whose imaginary part cancels is its real part in as_rational's
    form, so sums in sparse.add_term keep the canonical coefficient form;
    a product stays a QQi (add_product normalizes Grassmann products).
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else _exact_part(re)
        self.im = im if isinstance(im, Fraction) else _exact_part(im)

    def __add__(self, other):
        if not isinstance(other, (QQi, int, Fraction)):
            return NotImplemented  # a ring element adds the scalar itself
        other = as_qqi(other)
        im = self.im + other.im
        return QQi(self.re + other.re, im) if im else as_rational(self.re + other.re)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return as_qqi(other) - self

    def __mul__(self, other):
        if not isinstance(other, (QQi, int, Fraction)):
            return NotImplemented
        other = as_qqi(other)
        if not self.im and not other.im:
            # real * real: one Fraction product
            return QQi(self.re * other.re, _FZERO)
        return QQi(self.re * other.re - self.im * other.im,
                   self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_qqi(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero in QQi")
        return QQi((self.re * other.re + self.im * other.im) / d,
                   (self.im * other.re - self.re * other.im) / d)

    def __rtruediv__(self, other):
        return as_qqi(other) / self

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.re == other and self.im == 0
        if isinstance(other, QQi):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        # a QQi on the real axis equals its rational, so it hashes alike
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __pow__(self, n: int):
        if n < 0:
            return (QQi(1) / self) ** (-n)
        out = QQi(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"

    def sqrt(self):
        """Principal square root, exact or NotExact.

        Principal means the argument of the result lies in (-pi/2, pi/2],
        matching the branch cut arg in (-pi, pi].
        """
        if not self:
            return QQi(0)
        if self.im == 0:
            if self.re > 0:
                return QQi(_frac_sqrt(self.re))
            return QQi(0, _frac_sqrt(-self.re))
        # solve (a+bi)^2 = re+im*i:  a^2 = (|q|+re)/2, b = im/(2a)
        mod2 = self.abs2()
        mod = _frac_sqrt(mod2)
        a2 = (mod + self.re) / 2
        a = _frac_sqrt(a2)
        if a == 0:
            raise NotExact(f"no exact square root for {self!r}")
        b = self.im / (2 * a)
        # principal branch: real part > 0 (a > 0 already by _frac_sqrt)
        return QQi(a, b)


def _exact_part(x) -> Fraction:
    """An int part of a QQi as a Fraction; anything else, a float above
    all, is refused rather than read as its binary value."""
    if not isinstance(x, int):
        raise TypeError(f"a QQi part is an int or a Fraction, not {type(x).__name__}")
    return Fraction(x)


Rational = int | Fraction
Scalar = int | Fraction | QQi


def as_qqi(x) -> QQi:
    if isinstance(x, QQi):
        return x
    if isinstance(x, (int, Fraction)):
        return QQi(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to QQi")


def as_rational(x) -> Scalar:
    """x as a ring coefficient in its canonical form: an int when integral,
    a Fraction when rational, and a QQi only when its imaginary part is
    nonzero (GradedPoly refuses that case, see _real).

    Canonical forms of equal values are equal and hash alike, so terms
    dicts compare and hash by value.
    """
    t = type(x)
    if t is int:
        return x
    if t is not Fraction:
        if t is not QQi:
            x = as_qqi(x)
        if x.im:
            return x
        x = x.re
    return x.numerator if x.denominator == 1 else x


def _real(x) -> Rational:
    """as_rational(x) for a GradedPoly coefficient, which must be rational."""
    v = as_rational(x)
    if type(v) is QQi:
        raise NotExact(f"graded polynomials have rational coefficients, not {v!r}")
    return v


def _frac_sqrt(q: Fraction) -> Fraction:
    if q < 0:
        raise NotExact(f"negative radicand {q}")
    pn = _isqrt_exact(q.numerator)
    pd = _isqrt_exact(q.denominator)
    return Fraction(pn, pd)


def _isqrt_exact(n: int) -> int:
    import math

    r = math.isqrt(n)
    if r * r != n:
        raise NotExact(f"{n} is not a perfect square")
    return r


def _merge_sign(a: int, b: int) -> int:
    """Parity sign from sorting the concatenation of index sets a, b.

    Counts pairs (i in a, j in b) with i > j; each is one transposition.
    """
    n = 0
    while b:
        low = b & -b
        n += (a & -(low << 1)).bit_count()  # generators of a above this bit of b
        b ^= low
    return -1 if n & 1 else 1


def add_product(out: dict, a: dict, b: dict) -> None:
    """out += a * b in place, for Grassmann terms dicts {mask: coeff}.

    The one loop that multiplies Grassmann monomials: a pair of masks that
    share a generator gives nothing, any other pair its coefficient product
    in as_rational's form with the Koszul sign of _merge_sign, accumulated
    through add_term.  Products of elements and sums of superfunction
    products (superseries._sum_left) both accumulate here, so a sum of many
    products never builds an element per product.
    """
    for ma, ca in a.items():
        for mb, cb in b.items():
            if ma & mb:
                continue
            c = ca * cb
            if type(c) is not int:
                c = as_rational(c)
            if ma and _merge_sign(ma, mb) < 0:
                c = -c
            add_term(out, ma | mb, c)


def _scaled(terms: dict, v) -> dict:
    """terms * v for a nonzero scalar v, each product in canonical form."""
    return {m: p if type(p := c * v) is int else as_rational(p) for m, c in terms.items()}


class GrassmannElement:
    """A finite linear combination of products of generators over the
    Gaussian rationals.

    terms maps bitmask -> coefficient in as_rational's canonical form and
    stores no zero (the invariant of superns.sparse).  Scalars enter through
    as_rational, products and powers are stored in that form, and sums keep
    it through add_term.  num_generators bounds the admissible bits.
    """

    __slots__ = ("L", "terms")

    def __init__(self, num_generators: int, terms: dict[int, Scalar] | None = None):
        self.L = num_generators
        self.terms = terms if terms is not None else {}

    # -- constructors -------------------------------------------------

    @classmethod
    def scalar(cls, L: int, value) -> "GrassmannElement":
        v = as_rational(value)
        return cls(L, {0: v} if v else {})

    @classmethod
    def generator(cls, L: int, i: int) -> "GrassmannElement":
        if not 1 <= i <= L:
            raise GrassmannError(f"generator index {i} outside 1..{L}")
        return cls(L, {1 << (i - 1): 1})

    @classmethod
    def monomial(cls, L: int, indices: Iterable[int], coeff=1) -> "GrassmannElement":
        mask = 0
        for i in indices:
            if not 1 <= i <= L:
                raise GrassmannError(f"generator index {i} outside 1..{L}")
            bit = 1 << (i - 1)
            if mask & bit:
                return cls(L, {})
            mask |= bit
        v = as_rational(coeff)
        return cls(L, {mask: v} if v else {})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def body(self) -> Scalar:
        return self.terms.get(0, 0)

    def soul(self) -> "GrassmannElement":
        return GrassmannElement(self.L, {m: c for m, c in self.terms.items() if m})

    def split(self) -> tuple[Scalar, "GrassmannElement"]:
        return self.body(), self.soul()

    def parity(self) -> int | None:
        """0 for even (the zero element included), 1 for odd, None for mixed."""
        if not self.terms:
            return 0
        ps = {m.bit_count() & 1 for m in self.terms}
        return ps.pop() if len(ps) == 1 else None

    def parity_twist(self) -> "GrassmannElement":
        """even part minus odd part (the sign picked up passing one odd symbol)."""
        return GrassmannElement(
            self.L,
            {m: -c if m.bit_count() & 1 else c for m, c in self.terms.items()})

    # -- ring operations ----------------------------------------------

    def _check(self, other: "GrassmannElement"):
        if self.L != other.L:
            raise DimensionMismatch(f"generator counts differ: {self.L} vs {other.L}")

    def __add__(self, other):
        # GrassmannElement first: Fraction is an ABC, so testing it costs more
        if not isinstance(other, GrassmannElement):
            other = GrassmannElement.scalar(self.L, other)
        self._check(other)
        return GrassmannElement(self.L, add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return GrassmannElement(self.L, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, GrassmannElement):
            v = as_rational(other)
            return GrassmannElement(self.L, _scaled(self.terms, v) if v else {})
        self._check(other)
        out: dict[int, Scalar] = {}
        add_product(out, self.terms, other.terms)
        return GrassmannElement(self.L, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, GrassmannElement):
            if not isinstance(other, (int, Fraction, QQi)):
                return NotImplemented
            other = GrassmannElement.scalar(self.L, other)
        return self.L == other.L and self.terms == other.terms

    def __hash__(self):
        return hash((self.L, frozenset(self.terms.items())))

    def __pow__(self, n):
        """self ** n for n in ½ℤ: the one body/soul power series.

        With body b and soul s, (b + s)^n = b^n Σ_k C(n, k) u^k, u = s/b.
        The scalar b commutes with s and u is nilpotent, so the sum ends by
        k = L.  A half-odd n needs an even element and takes the principal
        root of b (QQi.sqrt); a negative or half-odd n needs b != 0.  With
        b = 0 and integer n >= 0 the power is the plain product.
        """
        n = Fraction(n)
        if n.denominator > 2:
            raise GrassmannError(f"power {n} is not a half-integer")
        b, s = self.split()
        if not b:
            if n.denominator == 1 and n >= 0:
                out = GrassmannElement.scalar(self.L, 1)
                for _ in range(n.numerator):
                    out = out * self
                return out
            raise NotInvertible(f"zero body has no power {n}")
        if n.denominator == 2 and self.parity() != 0:
            raise GrassmannError("a half-odd power needs an even element")
        base = as_rational(as_qqi(b).sqrt()) if n.denominator == 2 else b
        if type(base) is int:
            base = Fraction(base)  # an int to a negative power is a float
        lead = as_rational(base ** n.numerator)
        u = s * (Fraction(1) / b)
        acc = {0: lead}
        term, coeff, k = u, n, 1
        while coeff and term:
            acc = add_terms(acc, _scaled(term.terms, lead * coeff))
            k += 1
            coeff = coeff * (n - k + 1) / k
            term = term * u
        return GrassmannElement(self.L, acc)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            if m == 0:
                parts.append(str(c))
            else:
                gens = "".join(f"z{i+1}" for i in range(self.L) if m >> i & 1)
                parts.append(f"{c}*{gens}")
        return " + ".join(parts)


# ----------------------------------------------------------------------
# Graded polynomial ring with a distinguished Laurent symbol
# ----------------------------------------------------------------------


class SchemaMismatch(GrassmannError):
    pass


class ParamSpec:
    """Declaration of the formal symbols of a GradedPoly ring.

    Each symbol carries a parity (0 even, 1 odd) and a capped flag; the
    total degree of capped symbols in any monomial is bounded by
    degree_cap.  Uncapped symbols (central charge, highest weight) are
    exempt from truncation.  The distinguished Laurent symbol alpha0 is
    tracked separately with half-integer exponents.

    Three memos belong to this instance, so they are freed with the spec
    and never shared between two problems' rings: _merges[m1][m2] is
    GradedPoly._mul_mono(m1, m2) for GradedPoly._product, and _odd and
    _degree hold odd() and degree() of each monomial seen.
    """

    __slots__ = ("names", "parity", "capped", "index", "degree_cap",
                 "_merges", "_odd", "_degree")

    def __init__(self, symbols: list[tuple[str, int, bool]], degree_cap: int):
        self.names = tuple(s[0] for s in symbols)
        self.parity = tuple(s[1] for s in symbols)
        self.capped = tuple(s[2] for s in symbols)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.degree_cap = degree_cap
        self._merges: dict = {}
        self._odd: dict = {}
        self._degree: dict = {}
        if len(self.index) != len(self.names):
            raise SchemaMismatch("duplicate symbol names")

    def __eq__(self, other):
        return (isinstance(other, ParamSpec)
                and self.names == other.names
                and self.parity == other.parity
                and self.capped == other.capped
                and self.degree_cap == other.degree_cap)

    def __hash__(self):
        return hash((self.names, self.parity, self.capped, self.degree_cap))

    def degree(self, mono: Monomial) -> int:
        """The total degree of the capped symbols of mono."""
        d = self._degree.get(mono)
        if d is None:
            cap = self.capped
            d = self._degree[mono] = sum(e for i, e in mono if cap[i])
        return d

    def odd(self, mono: Monomial) -> int:
        """The parity of mono: 1 when it holds an odd number of odd letters."""
        o = self._odd.get(mono)
        if o is None:
            par = self.parity
            o = self._odd[mono] = sum(e * par[i] for i, e in mono) & 1
        return o


# a monomial is a tuple of (symbol_index, exponent), sorted by index;
# a term key is (monomial, alpha0_half_exponent)
Monomial = tuple[tuple[int, int], ...]
TermKey = tuple[Monomial, int]
_UNSEEN = object()
_SCALAR = ((), 0)  # the term key of a scalar: no symbol, alpha0^0


class GradedPoly:
    """Sparse polynomial over the rationals in graded symbols times alpha0^(k/2).

    terms maps (monomial, alpha0 half-exponent) -> coefficient and stores no
    zero (the invariant of superns.sparse).  A coefficient is an int when it
    is integral and a Fraction otherwise: never Fraction(n, 1), never a QQi.
    Scalars enter through _real, sums keep the form through add_term, and
    products and scalar multiples store integral results as ints.  Odd
    symbols square to zero and anticommute (Koszul signs); capped symbols
    are truncated at spec.degree_cap total degree.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec: ParamSpec, terms: dict[TermKey, Rational] | None = None):
        self.spec = spec
        self.terms = terms if terms is not None else {}

    @classmethod
    def scalar(cls, spec: ParamSpec, value) -> "GradedPoly":
        v = _real(value)
        return cls(spec, {_SCALAR: v} if v else {})

    @classmethod
    def symbol(cls, spec: ParamSpec, name: str, coeff=1) -> "GradedPoly":
        i = spec.index[name]
        v = _real(coeff)
        return cls(spec, {(((i, 1),), 0): v} if v else {})

    @classmethod
    def alpha(cls, spec: ParamSpec, half_exponent: int) -> "GradedPoly":
        return cls(spec, {((), half_exponent): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def parity(self) -> int | None:
        if not self.terms:
            return 0
        ps = {self.spec.odd(m) for m, _ in self.terms}
        return ps.pop() if len(ps) == 1 else None

    def parity_twist(self) -> "GradedPoly":
        """even part minus odd part (sign from passing one odd symbol)."""
        odd = self.spec.odd
        return GradedPoly(self.spec, {k: -c if odd(k[0]) else c for k, c in self.terms.items()})

    def _check(self, other: "GradedPoly"):
        if self.spec is not other.spec and self.spec != other.spec:
            raise SchemaMismatch("incompatible parameter tables")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            other = GradedPoly.scalar(self.spec, other)
        self._check(other)
        return GradedPoly(self.spec, add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return GradedPoly(self.spec, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            other = GradedPoly.scalar(self.spec, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _mul_mono(self, m1: Monomial, m2: Monomial) -> tuple[Monomial, int] | None:
        """Merge two monomials; returns (monomial, sign), or None if it dies
        as an odd square or over the degree cap."""
        par = self.spec.parity
        odd1 = sum(1 << i for i, e in m1 if par[i])
        odd2 = sum(1 << i for i, e in m2 if par[i])  # odd letters as bitmasks
        if odd1 & odd2:
            return None  # odd square
        sign = _merge_sign(odd1, odd2)
        d: dict[int, int] = {}
        for i, e in m1:
            d[i] = d.get(i, 0) + e
        for i, e in m2:
            d[i] = d.get(i, 0) + e
        mono = tuple(sorted(d.items()))
        if self.spec.degree(mono) > self.spec.degree_cap:
            return None
        return mono, sign

    def __mul__(self, other):
        # GradedPoly first: Fraction is an ABC, so testing it costs more
        if not isinstance(other, GradedPoly):
            v = _real(other)
            return GradedPoly(self.spec, _scaled(self.terms, v) if v else {})
        self._check(other)
        return GradedPoly(self.spec, self._product({}, self.terms, other.terms))

    def _product(self, out: dict, terms1: dict, terms2: dict) -> dict:
        """out += terms1 * terms2, in place, for terms dicts of this ring.

        The one product loop: each monomial pair is merged once per ring
        (spec._merges) and each product is stored in canonical form.
        """
        merges = self.spec._merges
        others = terms2.items()
        for (m1, a1), c1 in terms1.items():
            row = merges.get(m1)
            if row is None:
                row = merges[m1] = {}
            for (m2, a2), c2 in others:
                merged = row.get(m2, _UNSEEN)
                if merged is _UNSEEN:
                    merged = row[m2] = self._mul_mono(m1, m2)
                if merged is None:
                    continue
                mono, sign = merged
                c = c1 * c2
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                add_term(out, (mono, a1 + a2), -c if sign < 0 else c)
        return out

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        """A scalar outside the ring (a QQi off the real axis) is unequal."""
        if isinstance(other, (int, Fraction, QQi)):
            other = as_rational(other)
            if type(other) is QQi:
                return False
            other = GradedPoly.scalar(self.spec, other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.spec == other.spec and self.terms == other.terms

    def __hash__(self):
        return hash((self.spec, frozenset(self.terms.items())))

    def truncate(self, cap: int | None = None) -> "GradedPoly":
        cap = self.spec.degree_cap if cap is None else cap
        return GradedPoly(
            self.spec,
            {k: c for k, c in self.terms.items() if self.spec.degree(k[0]) <= cap})

    def degree_part(self, d: int) -> "GradedPoly":
        """Terms whose capped-symbol total degree is exactly d."""
        return GradedPoly(
            self.spec,
            {k: c for k, c in self.terms.items() if self.spec.degree(k[0]) == d})

    def coefficient(self, assignments: dict[str, int]) -> "GradedPoly":
        """Extract the coefficient of prod(sym^exp); other symbols untouched."""
        idx = {self.spec.index[n]: e for n, e in assignments.items()}
        out: dict[TermKey, Rational] = {}
        for (mono, a), c in self.terms.items():
            d = dict(mono)
            if all(d.get(i, 0) == e for i, e in idx.items()):
                rest = tuple((i, e) for i, e in mono if i not in idx)
                out[(rest, a)] = c
        return GradedPoly(self.spec, out)

    def substitute(self, values: dict[str, GrassmannElement],
                   alpha_value: GrassmannElement | None = None) -> GrassmannElement:
        """Evaluate at Grassmann values; symbols not listed must be absent.

        alpha0^(a/2) is alpha_value ** (a/2), so alpha0 needs an invertible
        value, even with an exact principal square root when half-exponents
        occur.
        """
        some = next(iter(values.values()), None)
        if some is None and alpha_value is None:
            raise GrassmannError("no values supplied")
        L = some.L if some is not None else alpha_value.L
        total = GrassmannElement(L, {})
        for (mono, a), c in self.terms.items():
            acc = GrassmannElement.scalar(L, c)
            for i, e in mono:
                name = self.spec.names[i]
                if name not in values:
                    raise GrassmannError(f"no value for symbol {name}")
                acc = acc * (values[name] ** e)
            if a != 0:
                if alpha_value is None:
                    raise GrassmannError("alpha0 exponent present but no value")
                acc = acc * alpha_value ** Fraction(a, 2)
            total = total + acc
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.spec.names
        parts = []
        for (mono, a) in sorted(self.terms, key=lambda k: (len(k[0]), k)):
            c = self.terms[(mono, a)]
            bits = [str(c)]
            if a:
                bits.append(f"a0^({a}/2)" if a % 2 else f"a0^{a//2}")
            for i, e in mono:
                bits.append(names[i] if e == 1 else f"{names[i]}^{e}")
            parts.append("*".join(bits))
        return " + ".join(parts)
