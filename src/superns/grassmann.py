"""Exact arithmetic in finite-generator Grassmann algebras and graded
polynomial rings.

GrassmannElement lives in the algebra on anticommuting generators z1..zL
over the Gaussian rationals, because a body can be complex (a square root
of a negative, the inversion's i*theta/z).  Terms are keyed by bitmasks
(bit i-1 set means zi is a factor), so the empty mask holds the body and
every other mask is soul.  add_product is the one loop that multiplies
such terms dicts, out += a * b, into slots {mask: [num, den]} that
settle makes one coefficient each.  GrassmannElement.__mul__ calls both,
and so does superseries._sum_left, through which every superfunction
product, scale, power, composition and flow step sums straight into one
accumulator per output coefficient.

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
from math import gcd
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
    a product stays a QQi (settle normalizes Grassmann products).
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
    """out += a * b in place, for Grassmann terms dicts a, b {mask: coeff}
    and an accumulator out {mask: [num, den]}, which settle turns into terms.

    The one loop that multiplies Grassmann monomials.  Each coefficient is
    read as a numerator over a positive int denominator: a Fraction as its
    two ints, an int or a QQi over 1 (b's per pair, not split into a list
    first: an operand here holds one to three terms).  A pair of masks that
    share a generator gives nothing, any other pair its numerator product,
    with the Koszul sign of _merge_sign, over its denominator product.  That
    adds into the mask's slot by a plain += when the denominators agree and
    otherwise by cross-multiplication onto their lcm, so a slot's
    denominator is the lcm of its products'.  Products of elements
    (GrassmannElement.__mul__) and sums of superfunction products
    (superseries._sum_left) both accumulate here.
    """
    for ma, na in a.items():
        na, da = (na.numerator, na.denominator) if type(na) is Fraction else (na, 1)
        for mb, nb in b.items():
            if ma & mb:
                continue
            nb, db = (nb.numerator, nb.denominator) if type(nb) is Fraction else (nb, 1)
            n, d = na * nb, da * db
            if ma and _merge_sign(ma, mb) < 0:
                n = -n
            m = ma | mb
            slot = out.get(m)
            if slot is None:
                out[m] = [n, d]
            elif slot[1] == d:
                slot[0] += n
            else:
                g = gcd(slot[1], d)
                slot[0] = slot[0] * (d // g) + n * (slot[1] // g)
                slot[1] = slot[1] // g * d


def settle(acc: dict) -> dict:
    """The terms dict of an add_product accumulator: each nonzero slot
    [num, den] as one coefficient in as_rational's form, each zero dropped."""
    return {m: as_rational(n if d == 1 else Fraction(n, d) if type(n) is int else n / d)
            for m, (n, d) in acc.items() if n}


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
        """self * other: an element product sums its pairs of terms in one
        add_product accumulator and settles each coefficient once."""
        if not isinstance(other, GrassmannElement):
            v = as_rational(other)
            return GrassmannElement(self.L, _scaled(self.terms, v) if v else {})
        self._check(other)
        acc: dict[int, list] = {}
        add_product(acc, self.terms, other.terms)
        return GrassmannElement(self.L, settle(acc))

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
    """The formal symbols of a GradedPoly ring and the layout of its keys.

    Each symbol carries a parity (0 even, 1 odd) and a capped flag; the
    total degree of capped symbols in any monomial is bounded by
    degree_cap.  Uncapped symbols (central charge, highest weight) are
    exempt from truncation.  The distinguished Laurent symbol alpha0 is
    tracked separately with half-integer exponents.

    A term key is one int, a packed monomial (Monagan & Pearce, ISSAC
    2009).  From the low bits up: one bit per odd symbol, in symbol order
    (so a Grassmann mask is the key of a spec of uncapped odd symbols); per
    even symbol, a field for exponents up to degree_cap, or below
    2^_UNCAPPED_BITS when uncapped, under a guard bit; the capped degree,
    with room for the sum of two; and the signed alpha0 half-exponent on
    top.  A product's key is the sum of its factors'.  Other modules build
    keys by key() and read them by degree, odd, alpha and exponents.
    """

    __slots__ = ("names", "parity", "capped", "index", "degree_cap", "_declared", "_shift",
                 "_mask", "_odd_bits", "_guards", "_degree_shift", "_degree_bits", "_alpha_shift")

    def __init__(self, symbols: list[tuple[str, int, bool]], degree_cap: int):
        self.names = tuple(s[0] for s in symbols)
        self.parity = tuple(s[1] for s in symbols)
        self.capped = tuple(s[2] for s in symbols)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.degree_cap = degree_cap
        self._declared = (self.names, self.parity, self.capped, degree_cap)
        if len(self.index) != len(self.names):
            raise SchemaMismatch("duplicate symbol names")
        cap_bits = degree_cap.bit_length()
        shift, mask, odd, pos = [], [], 0, sum(self.parity)
        for p, capped in zip(self.parity, self.capped):
            w = 1 if p else cap_bits if capped else _UNCAPPED_BITS
            shift.append(odd if p else pos)
            mask.append((1 << w) - 1)
            odd, pos = (odd + 1, pos) if p else (odd, pos + w + 1)
        self._shift, self._mask, self._odd_bits = tuple(shift), tuple(mask), (1 << odd) - 1
        self._guards = sum(m + 1 << s for s, m, p in zip(shift, mask, self.parity) if not p)
        self._degree_shift, self._alpha_shift = pos, pos + cap_bits + 1
        self._degree_bits = ((2 << cap_bits) - 1) << pos

    def __eq__(self, other):
        return isinstance(other, ParamSpec) and self._declared == other._declared

    def __hash__(self):
        return hash(self._declared)

    def key(self, exponents=(), alpha: int = 0) -> int | None:
        """The key of alpha0^(alpha/2) times symbol i to the power e for each
        pair (i, e) of exponents; None for a monomial that is 0 in the ring,
        an odd square or over the cap.  An uncapped exponent that outgrows
        its field raises GrassmannError."""
        k = degree = 0
        for i, e in exponents:
            if e & ~self._mask[i]:
                if self.parity[i] or self.capped[i]:
                    return None
                raise GrassmannError(f"exponent {e} of {self.names[i]} outgrows its field")
            k += e << self._shift[i]
            degree += e if self.capped[i] else 0
        if degree > self.degree_cap:
            return None
        return k + (degree << self._degree_shift) + (alpha << self._alpha_shift)

    def degree(self, key: int) -> int:
        """The total degree of the capped symbols of key."""
        return (key & self._degree_bits) >> self._degree_shift

    def odd(self, key: int) -> int:
        """The parity of key: 1 when it holds an odd number of odd letters."""
        return (key & self._odd_bits).bit_count() & 1

    def alpha(self, key: int) -> int:
        """The alpha0 half-exponent of key."""
        return key >> self._alpha_shift

    def exponents(self, key: int) -> tuple[tuple[int, int], ...]:
        """The (symbol index, exponent) pairs of key, nonzero and by index."""
        return tuple((i, e) for i, (s, m) in enumerate(zip(self._shift, self._mask))
                     if (e := key >> s & m))


_UNCAPPED_BITS = 15
_SCALAR = 0  # the term key of a scalar: no symbol, alpha0^0


class GradedPoly:
    """Sparse polynomial over the rationals in graded symbols times alpha0^(k/2).

    terms maps a term key (see ParamSpec) -> coefficient and stores no zero
    (the invariant of superns.sparse).  A coefficient is an int when it is
    integral and a Fraction otherwise: never Fraction(n, 1), never a QQi.
    Scalars enter through _real, sums keep the form through add_term, and
    products and scalar multiples store integral results as ints.  Odd
    symbols square to zero and anticommute (Koszul signs); capped symbols
    are truncated at spec.degree_cap total degree.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec: ParamSpec, terms: dict[int, Rational] | None = None):
        self.spec = spec
        self.terms = terms if terms is not None else {}

    @classmethod
    def scalar(cls, spec: ParamSpec, value) -> "GradedPoly":
        v = _real(value)
        return cls(spec, {_SCALAR: v} if v else {})

    @classmethod
    def symbol(cls, spec: ParamSpec, name: str, coeff=1) -> "GradedPoly":
        k = spec.key(((spec.index[name], 1),))  # None for a capped symbol at cap 0
        v = _real(coeff)
        return cls(spec, {k: v} if v and k is not None else {})

    @classmethod
    def alpha(cls, spec: ParamSpec, half_exponent: int) -> "GradedPoly":
        return cls(spec, {spec.key((), half_exponent): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def parity(self) -> int | None:
        ps = {self.spec.odd(k) for k in self.terms} or {0}
        return ps.pop() if len(ps) == 1 else None

    def parity_twist(self) -> "GradedPoly":
        """even part minus odd part (sign from passing one odd symbol)."""
        odd = self.spec.odd
        return GradedPoly(self.spec, {k: -c if odd(k) else c for k, c in self.terms.items()})

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
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # GradedPoly first: Fraction is an ABC, so testing it costs more
        if not isinstance(other, GradedPoly):
            v = _real(other)
            return GradedPoly(self.spec, _scaled(self.terms, v) if v else {})
        self._check(other)
        return GradedPoly(self.spec, self._product({}, self.terms, other.terms))

    def _product(self, out: dict, terms1: dict, terms2: dict) -> dict:
        """out += terms1 * terms2, in place, for terms dicts of this ring.

        The one product loop: a pair of keys multiplies to their sum, with
        the Koszul sign of _merge_sign on the odd bits, and gives nothing as
        an odd square (a shared odd bit) or over the degree cap.  A carry
        into a guard bit raises GrassmannError.  Products are canonical.
        """
        spec = self.spec
        odd, degree, guards = spec._odd_bits, spec._degree_bits, spec._guards
        cap = spec.degree_cap << spec._degree_shift
        others = terms2.items()
        for k1, c1 in terms1.items():
            o1 = k1 & odd
            for k2, c2 in others:
                if o1 & k2:
                    continue
                k = k1 + k2
                if k & degree > cap:
                    continue
                if k & guards:
                    raise GrassmannError(f"an exponent of {spec.exponents(k1)} outgrows its field")
                c = c1 * c2
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                if o1 and _merge_sign(o1, k2 & odd) < 0:
                    c = -c
                add_term(out, k, c)
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
        degree = self.spec.degree
        return GradedPoly(self.spec, {k: c for k, c in self.terms.items() if degree(k) <= cap})

    def degree_part(self, d: int) -> "GradedPoly":
        """Terms whose capped-symbol total degree is exactly d."""
        degree = self.spec.degree
        return GradedPoly(self.spec, {k: c for k, c in self.terms.items() if degree(k) == d})

    def coefficient(self, assignments: dict[str, int]) -> "GradedPoly":
        """Extract the coefficient of prod(sym^exp); other symbols untouched."""
        spec = self.spec
        fixed = {spec.index[n]: e for n, e in assignments.items()}
        want = {(i, e) for i, e in fixed.items() if e}
        drop = spec.key(want)  # keys are linear in the exponents
        return GradedPoly(spec, {k - drop: c for k, c in self.terms.items()
                                 if {(i, e) for i, e in spec.exponents(k) if i in fixed} == want})

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
        spec, total = self.spec, GrassmannElement(L, {})
        for k, c in self.terms.items():
            acc = GrassmannElement.scalar(L, c)
            for i, e in spec.exponents(k):
                name = spec.names[i]
                if name not in values:
                    raise GrassmannError(f"no value for symbol {name}")
                acc = acc * (values[name] ** e)
            if a := spec.alpha(k):
                if alpha_value is None:
                    raise GrassmannError("alpha0 exponent present but no value")
                acc = acc * alpha_value ** Fraction(a, 2)
            total = total + acc
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        spec, parts = self.spec, []
        terms = [(spec.exponents(k), spec.alpha(k), c) for k, c in self.terms.items()]
        for mono, a, c in sorted(terms, key=lambda t: (len(t[0]), t[0], t[1])):
            bits = [str(c)]
            if a:
                bits.append(f"a0^({a}/2)" if a % 2 else f"a0^{a//2}")
            for i, e in mono:
                bits.append(spec.names[i] if e == 1 else f"{spec.names[i]}^{e}")
            parts.append("*".join(bits))
        return " + ".join(parts)
