"""Exact arithmetic in one supercommutative ring class and its Grassmann
subclass.

GradedPoly is a sparse polynomial in graded symbols (even ones, capped
or not, and odd ones, which square to zero and anticommute) times powers
of a Laurent symbol alpha0, keyed by a ParamSpec's packed monomials.  It
is the coefficient ring of the Neveu-Schwarz and sewing layers, over the
rationals.  GrassmannElement, the algebra on anticommuting generators
z1..zL of the superfunction layer, is the same ring over the spec of L
uncapped odd symbols at cap 0, whose keys are generator masks; only its
coefficient domain differs, the Gaussian rationals, because a body can be
complex (a square root of a negative, the inversion's i*theta/z).  Every
ring operation is written once, in GradedPoly.

add_product is the one loop that multiplies terms dicts, out += a * b on
the spec's key layout, into slots {key: [num, den]} that settle makes one
coefficient each.  GradedPoly.__mul__ calls the two, and so do
superseries._sum_left, through which every superfunction product, scale,
power, composition and flow step sums, and sewing._exp_graded, each
round of the sewing exponentials.

One power serves every exponent in ½ℤ: x ** n is the terminating series
b^n Σ_k C(n, k) (s/b)^k in the body b and soul s, so an inverse is x ** -1
and a square root x ** Fraction(1, 2) (principal body root).  No other
code expands a soul series.

Every coefficient is stored in one canonical form (see as_rational): an
int when it is integral, a Fraction when it is rational, and a QQi only
when its imaginary part is nonzero, which GradedPoly refuses.  All
operations are pure; elements are immutable by convention.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable

from .sparse import add_terms, scaled


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


def add_product(out: dict, a: dict, b: dict, layout: tuple) -> None:
    """out += a * b in place, for terms dicts a, b of one ring and an
    accumulator out {key: [num, den]}, which settle turns into terms.

    The one loop that multiplies terms.  layout is the ring's spec.layout,
    (odd bits, degree bits, cap, guard bits).  A pair of keys multiplies
    to their sum; it gives nothing as an odd square (a shared odd bit) or
    over the cap, and a carry into a guard bit raises GrassmannError.  Each
    coefficient is read as a numerator over a positive int denominator: a
    Fraction as its two ints, an int or a QQi over 1 (b's per pair, not
    split into a list first: a Grassmann operand here holds one to three
    terms).  A pair's numerator product, with the Koszul sign of
    _merge_sign on the odd bits, adds into the key's slot by a plain +=
    when the denominators agree and otherwise by cross-multiplication onto
    their lcm, the slot's new denominator.
    """
    odd, degree, cap, guards = layout
    for ka, na in a.items():
        oa = ka & odd
        na, da = (na.numerator, na.denominator) if type(na) is Fraction else (na, 1)
        for kb, nb in b.items():
            if oa & kb:
                continue
            k = ka + kb
            if k & degree > cap:
                continue
            if k & guards:
                raise GrassmannError(f"an exponent of the product of keys {ka:#x} and {kb:#x} "
                                     "outgrows its field")
            nb, db = (nb.numerator, nb.denominator) if type(nb) is Fraction else (nb, 1)
            n, d = na * nb, da * db
            if oa and (ob := kb & odd) and _merge_sign(oa, ob) < 0:
                n = -n
            slot = out.get(k)
            if slot is None:
                out[k] = [n, d]
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


# ----------------------------------------------------------------------
# The supercommutative ring: graded symbols and a Laurent symbol
# ----------------------------------------------------------------------


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
    top.  A product's key is the sum of its factors'.  layout holds the odd
    bits, the degree bits, the cap in the degree field and the guard bits,
    which add_product multiplies keys by.  Other modules build keys by
    key(), read them by degree, odd, alpha and exponents, and pass layout
    on to add_product.
    """

    __slots__ = ("names", "parity", "capped", "index", "degree_cap", "layout", "_declared",
                 "_shift", "_mask", "_odd_bits", "_degree_shift", "_degree_bits", "_alpha_shift")

    def __init__(self, symbols: list[tuple[str, int, bool]], degree_cap: int):
        self.names = tuple(s[0] for s in symbols)
        self.parity = tuple(s[1] for s in symbols)
        self.capped = tuple(s[2] for s in symbols)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.degree_cap = degree_cap
        self._declared = (self.names, self.parity, self.capped, degree_cap)
        if len(self.index) != len(self.names):
            raise GrassmannError("duplicate symbol names")
        cap_bits = degree_cap.bit_length()
        shift, mask, odd, pos = [], [], 0, sum(self.parity)
        for p, capped in zip(self.parity, self.capped):
            w = 1 if p else cap_bits if capped else _UNCAPPED_BITS
            shift.append(odd if p else pos)
            mask.append((1 << w) - 1)
            odd, pos = (odd + 1, pos) if p else (odd, pos + w + 1)
        self._shift, self._mask, self._odd_bits = tuple(shift), tuple(mask), (1 << odd) - 1
        guards = sum(m + 1 << s for s, m, p in zip(shift, mask, self.parity) if not p)
        self._degree_shift, self._alpha_shift = pos, pos + cap_bits + 1
        self._degree_bits = ((2 << cap_bits) - 1) << pos
        self.layout = (self._odd_bits, self._degree_bits, degree_cap << pos, guards)

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
    """Sparse polynomial in graded symbols times alpha0^(k/2), the one
    supercommutative ring class: every ring operation is defined here.

    terms maps a term key (see ParamSpec) -> coefficient and stores no zero
    (the invariant of superns.sparse).  A coefficient is in the canonical
    form of the class's coefficient domain, _coeff: here _real, an int when
    it is integral and a Fraction otherwise, never Fraction(n, 1), never a
    QQi.  Scalars enter through _coeff, sums keep the form through
    add_term, and products and scalar multiples store integral results as
    ints.  Odd symbols square to zero and anticommute (Koszul signs);
    capped symbols are truncated at spec.degree_cap total degree.  Operands
    over different specs raise DimensionMismatch.  Results are built by
    _like, so a subclass (GrassmannElement) gets its own type back.
    """

    __slots__ = ("spec", "terms")
    _coeff = staticmethod(_real)

    def __init__(self, spec: ParamSpec, terms: dict[int, Rational] | None = None):
        self.spec = spec
        self.terms = terms if terms is not None else {}

    def _like(self, terms: dict) -> "GradedPoly":
        return GradedPoly(self.spec, terms)

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
        """0 for even (the zero element included), 1 for odd, None for mixed."""
        odd = self.spec.layout[0]
        ps = {(k & odd).bit_count() & 1 for k in self.terms} or {0}
        return ps.pop() if len(ps) == 1 else None

    def parity_twist(self) -> "GradedPoly":
        """even part minus odd part (the sign picked up passing one odd symbol)."""
        odd = self.spec.layout[0]
        return self._like({k: -c if (k & odd).bit_count() & 1 else c
                           for k, c in self.terms.items()})

    def _check(self, other: "GradedPoly"):
        if self.spec is not other.spec and self.spec != other.spec:
            raise DimensionMismatch(f"rings differ: {self.spec.names} at cap {self.spec.degree_cap}"
                                    f" vs {other.spec.names} at cap {other.spec.degree_cap}")

    def __add__(self, other):
        # GradedPoly first: Fraction is an ABC, so testing it costs more
        if isinstance(other, GradedPoly):
            self._check(other)
            terms = other.terms
        else:
            v = self._coeff(other)
            terms = {_SCALAR: v} if v else {}
        return self._like(add_terms(self.terms, terms))

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """self * other: a product sums its pairs of terms in one add_product
        accumulator on the spec's layout and settles each coefficient once."""
        if isinstance(other, GradedPoly):
            self._check(other)
        else:
            v = self._coeff(other)
            if type(v) is not QQi:  # a real multiple of a canonical term is canonical
                return self._like(scaled(self.terms, v))
            other = self._like({_SCALAR: v})  # i * i is -1: settle makes it rational
        acc: dict[int, list] = {}
        add_product(acc, self.terms, other.terms, self.spec.layout)
        return self._like(settle(acc))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        """A scalar outside the coefficient domain (a QQi off the real axis,
        for GradedPoly) is unequal."""
        if isinstance(other, GradedPoly):
            return self.spec == other.spec and self.terms == other.terms
        if isinstance(other, (int, Fraction, QQi)):
            v = as_rational(other)
            return self.terms == ({_SCALAR: v} if v else {})
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, frozenset(self.terms.items())))

    def truncate(self, cap: int | None = None) -> "GradedPoly":
        cap = self.spec.degree_cap if cap is None else cap
        degree = self.spec.degree
        return self._like({k: c for k, c in self.terms.items() if degree(k) <= cap})

    def degree_part(self, d: int) -> "GradedPoly":
        """Terms whose capped-symbol total degree is exactly d."""
        degree = self.spec.degree
        return self._like({k: c for k, c in self.terms.items() if degree(k) == d})

    def coefficient(self, assignments: dict[str, int]) -> "GradedPoly":
        """Extract the coefficient of prod(sym^exp); other symbols untouched."""
        spec = self.spec
        fixed = {spec.index[n]: e for n, e in assignments.items()}
        want = {(i, e) for i, e in fixed.items() if e}
        drop = spec.key(want)  # keys are linear in the exponents
        return self._like({k - drop: c for k, c in self.terms.items()
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


# ----------------------------------------------------------------------
# The Grassmann algebra on L odd generators
# ----------------------------------------------------------------------


_SPECS: dict[int, ParamSpec] = {}  # L -> the spec of z1..zL, built once per L


def _odd_spec(L: int) -> ParamSpec:
    spec = _SPECS[L] = ParamSpec([(f"z{i}", 1, False) for i in range(1, L + 1)], 0)
    return spec


class GrassmannElement(GradedPoly):
    """An element of the Grassmann algebra on z1..zL over the Gaussian
    rationals: a GradedPoly over the spec of L uncapped odd symbols at cap 0.

    A key is a generator mask (bit i-1 set means zi is a factor), so the
    empty mask holds the body and every other mask is soul.  The
    coefficient domain is as_rational's: an int, a Fraction, or a QQi off
    the real axis.  The ring operations are GradedPoly's; __add__,
    __radd__ and __mul__ are bound here as well, as the same functions, so
    a tracer can wrap this ring's entries apart from GradedPoly's.
    """

    __slots__ = ("L",)
    _coeff = staticmethod(as_rational)

    def __init__(self, L: int, terms: dict[int, Scalar] | None = None):
        self.L = L
        self.spec = _SPECS.get(L) or _odd_spec(L)
        self.terms = terms if terms is not None else {}

    def _like(self, terms: dict) -> "GrassmannElement":
        return GrassmannElement(self.L, terms)

    __add__ = __radd__ = GradedPoly.__add__
    __mul__ = GradedPoly.__mul__

    @classmethod
    def scalar(cls, L: int, value) -> "GrassmannElement":
        v = as_rational(value)
        return cls(L, {_SCALAR: v} if v else {})

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

    def body(self) -> Scalar:
        return self.terms.get(_SCALAR, 0)

    def soul(self) -> "GrassmannElement":
        return self._like({m: c for m, c in self.terms.items() if m})

    def split(self) -> tuple[Scalar, "GrassmannElement"]:
        return self.body(), self.soul()

    def __pow__(self, n):
        """self ** n for n in ½ℤ: the one body/soul power series.

        With body b and soul s, (b + s)^n = b^n Σ_k C(n, k) u^k, u = s/b.
        The scalar b commutes with s and u is nilpotent, so the sum ends by
        k = L; its terms are scaled by the rational C(n, k), and b^n comes
        last, by __mul__.  A half-odd n needs an even element and takes the
        principal root of b (QQi.sqrt); a negative or half-odd n needs
        b != 0.  With b = 0 and integer n >= 0 the power is the plain product.
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
        u = s * (Fraction(1) / b)
        acc = {0: 1}
        term, coeff, k = u, n, 1
        while coeff and term:
            acc = add_terms(acc, scaled(term.terms, coeff))
            k += 1
            coeff = coeff * (n - k + 1) / k
            term = term * u
        return self._like(acc) * base ** n.numerator
