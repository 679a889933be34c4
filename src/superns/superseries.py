"""Formal (1,1)-variable superfunction calculus.

A map H(z, theta) = (zt, tht) is stored as a pair of SFun components,
each a finite Laurent table p(z) + theta*q(z) with Grassmann
coefficients and theta written on the left.  The module provides the
square-root derivative D, composition and inversion, the superconformal
test D zt = tht * D tht, and the exponential coordinate flows that
parametrize superconformal maps vanishing at zero and at infinity.

Window convention: every SFun is exact on [lo, hi] (None meaning
unbounded); coefficients outside that range are unknown, not zero.
Operations compute the largest window they can guarantee and raise
TruncationError when it becomes empty.  SFun.power cuts its result at
clip_hi only when it dropped a term above it, and raises on a series
with a low edge.

Every sum of products is one _sum_left call: SFun.__mul__, scale_left,
SFun.power's binomial sum, ss_compose's substitution and the flows' steps
list their products as parts c z^n theta^e F, and _sum_left sums every
contribution to an output coefficient in one grassmann.add_product
accumulator of int numerators over int denominators, on the layout of
the Grassmann ring's spec, settles it once and builds one
GrassmannElement per nonzero output.  Sums, products and left
scales of series on different numbers of Grassmann generators raise
DimensionMismatch.

Coordinate data keep the sparse invariant too: each family of CoordData
(A, M at zero) and InfCoordData (B, N at infinity) maps j >= 1 to a
nonzero value of the family's parity, checked by one _family, which drops
zeros.  One _flow_terms turns the families of either end into the flow's
derivations, L(±j) for an even value and G(±(j - 1/2)) for an odd one.
"""

from __future__ import annotations

from fractions import Fraction

from .grassmann import (DimensionMismatch, GrassmannElement, NotInvertible, QQi, add_product,
                        settle)
from .sparse import add_term, add_terms, binom

HALF = Fraction(1, 2)
DEFAULT_WINDOW = (-12, 12)
# iteration guards: on a finite window both loops end exactly, far sooner
INVERT_MAX_ROUNDS = 200
FLOW_MAX_STEPS = 2000


class TruncationError(ValueError):
    pass


class DomainError(ValueError):
    pass


class ShapeError(ValueError):
    """Input series does not have the required leading shape."""


def _max_lo(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _min_hi(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class SFun:
    """One component of a (1,1)-variable map: p(z) + theta*q(z).

    terms maps (z_order, theta_exponent) -> GrassmannElement and stores
    no zero (the invariant of superns.sparse); the constructor drops zero
    coefficients and those outside the window (_sum_left, which forms
    neither, stores its terms directly).
    """

    __slots__ = ("L", "terms", "lo", "hi")

    def __init__(self, L: int, terms=None, lo=None, hi=None):
        self.L = L
        self.terms = {}
        self.lo = lo
        self.hi = hi
        if terms:
            for (n, e), c in terms.items():
                if not c:
                    continue
                if lo is not None and n < lo:
                    continue
                if hi is not None and n > hi:
                    continue
                self.terms[(n, e)] = c

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, L: int) -> "SFun":
        return cls(L)

    @classmethod
    def const(cls, L: int, value) -> "SFun":
        c = value if isinstance(value, GrassmannElement) else GrassmannElement.scalar(L, value)
        return cls(L, {(0, 0): c})

    @classmethod
    def z_power(cls, L: int, n: int, coeff=1) -> "SFun":
        c = coeff if isinstance(coeff, GrassmannElement) else GrassmannElement.scalar(L, coeff)
        return cls(L, {(n, 0): c})

    @classmethod
    def theta_term(cls, L: int, n: int, coeff=1) -> "SFun":
        c = coeff if isinstance(coeff, GrassmannElement) else GrassmannElement.scalar(L, coeff)
        return cls(L, {(n, 1): c})

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, n: int, e: int) -> GrassmannElement:
        return self.terms.get((n, e), GrassmannElement(self.L))

    def __eq__(self, other):
        """Compares L and terms; the windows lo, hi are not compared."""
        if not isinstance(other, SFun):
            return NotImplemented
        return self.L == other.L and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (n, e) in sorted(self.terms):
            c = self.terms[(n, e)]
            t = "theta*" if e else ""
            bits.append(f"{t}({c!r})*z^{n}")
        w = f" on [{self.lo},{self.hi}]" if (self.lo is not None or self.hi is not None) else ""
        return " + ".join(bits) + w

    # -- linear operations ----------------------------------------------

    def with_window(self, lo, hi) -> "SFun":
        return SFun(self.L, self.terms, _max_lo(self.lo, lo), _min_hi(self.hi, hi))

    def _check(self, L: int):
        if self.L != L:
            raise DimensionMismatch(f"generator counts differ: {self.L} vs {L}")

    def __add__(self, other: "SFun") -> "SFun":
        self._check(other.L)
        return SFun(self.L, add_terms(self.terms, other.terms),
                    _max_lo(self.lo, other.lo), _min_hi(self.hi, other.hi))

    def __neg__(self) -> "SFun":
        return SFun(self.L, {k: -c for k, c in self.terms.items()}, self.lo, self.hi)

    def __sub__(self, other: "SFun") -> "SFun":
        return self + (-other)

    def scale_left(self, s) -> "SFun":
        """Multiply by a GrassmannElement or scalar written to the left of
        theta: the one part (s, 0, 0, self) of _sum_left, on self's window."""
        if not isinstance(s, GrassmannElement):
            s = GrassmannElement.scalar(self.L, s)
        return _sum_left(self.L, [(s, 0, 0, self)], self.lo, self.hi)

    def shift(self, d: int) -> "SFun":
        lo = None if self.lo is None else self.lo + d
        hi = None if self.hi is None else self.hi + d
        return SFun(self.L, {(n + d, e): c for (n, e), c in self.terms.items()}, lo, hi)

    # -- product ---------------------------------------------------------

    def __mul__(self, other: "SFun") -> "SFun":
        """The product on _product_window(self, other): each left term
        (n, e), c is the part (c, n, e, other) of _sum_left."""
        if not isinstance(other, SFun):
            return NotImplemented
        self._check(other.L)
        lo, hi = _product_window(self, other)
        return _sum_left(self.L, [(c, n, e, other) for (n, e), c in self.terms.items()],
                         lo, hi)

    # -- calculus ---------------------------------------------------------

    def d_z(self) -> "SFun":
        lo = None if self.lo is None else self.lo - 1
        hi = None if self.hi is None else self.hi - 1
        out = {}
        for (n, e), c in self.terms.items():
            if n == 0:
                continue
            out[(n - 1, e)] = c * n
        return SFun(self.L, out, lo, hi)

    def D(self) -> "SFun":
        """D = d/dtheta + theta d/dz, so D(D(F)) = dF/dz."""
        out = {}
        for (n, e), c in self.terms.items():
            if e == 1:
                add_term(out, (n, 0), c)
            elif n:
                add_term(out, (n - 1, 1), c * n)
        hi = None if self.hi is None else self.hi - 1
        return SFun(self.L, out, self.lo, hi)

    # -- powers of an even-valued component --------------------------------

    def leading_invertible_order(self) -> int:
        """Lowest z-order whose theta-free coefficient has a nonzero body."""
        orders = [n for (n, e), c in self.terms.items() if e == 0 and c.body()]
        if not orders:
            raise NotInvertible("no invertible leading coefficient")
        return min(orders)

    def power(self, n, clip_hi=None) -> "SFun":
        """self**n for n in ½ℤ via leading-term factoring.

        An integer n >= 0 is the plain product.  Otherwise, with ck z^k the
        leading invertible term, self**n = ck**n z^(kn) (1 + u)^n for
        u = (self - ck z^k) / (ck z^k): every Grassmann power, ck**n and the
        ck**-1 in u, is the one GrassmannElement power, so a half-odd n
        takes the principal root of ck's body.  (1 + u)^n is summed as
        sum_p C(n, p) u^p with u^p = u^(p-1) * u, so the products carry the
        windows, in one _sum_left over the parts (ck**n C(n, p), kn, 0, u^p);
        the high edge of the zero u^p that ends the sum bounds it too, so an
        unknown high tail of self bounds the result.  Only a theta-free term of u at
        positive order with a nonzero body makes the sum endless; then
        clip_hi is required, terms of u^p above clip_hi - kn + _reach_down(u)
        are dropped, and the result is cut at clip_hi exactly when one was.
        A series with a low edge raises.
        """
        n = Fraction(n)
        if n.denominator == 1 and n >= 0:
            out = SFun.const(self.L, 1)
            for _ in range(int(n)):
                out = out * self
            return out
        if self.lo is not None:
            raise TruncationError("power of a series with a low edge")
        k = self.leading_invertible_order()
        ck = self.terms[(k, 0)]
        kn = k * n
        if kn.denominator != 1:
            raise DomainError("odd leading order under a half-integer power")
        kn = int(kn)
        rest = SFun(self.L, {key: c for key, c in self.terms.items() if key != (k, 0)},
                    None, self.hi)
        u = rest.scale_left(ck ** -1).shift(-k)
        top = None
        if any(m > 0 and not e and c.body() for (m, e), c in u.terms.items()):
            if clip_hi is None:
                raise TruncationError("unbounded expansion needs a window")
            top = clip_hi - kn + _reach_down(u)
        ckn = ck ** n
        up = SFun.const(self.L, 1)
        parts = [(ckn, kn, 0, up)]
        hi = None  # the high edge of the sum of the u^p, before the shift by kn
        p = 0
        while not up.is_zero():
            p += 1
            up = up * u
            if top is not None and any(m > top for m, _ in up.terms):
                hi = _min_hi(hi, clip_hi - kn)
                up = SFun(self.L, {key: c for key, c in up.terms.items() if key[0] <= top},
                          None, up.hi)
            hi = _min_hi(hi, up.hi)
            parts.append((ckn * binom(n, p), kn, 0, up))
        return _sum_left(self.L, parts, None, None if hi is None else hi + kn)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, z: GrassmannElement, theta: GrassmannElement) -> GrassmannElement:
        """Exact evaluation, each z^n the Grassmann power z ** n.

        Only a series with no unknown tail has a value: on a windowed series
        (lo or hi set) this raises TruncationError.
        """
        if self.lo is not None or self.hi is not None:
            raise TruncationError(
                f"cannot evaluate a series known only on [{self.lo}, {self.hi}]")
        if not z.body() and any(n < 0 for n, _ in self.terms):
            raise DomainError("evaluation at zero body with negative orders")
        powers: dict[int, GrassmannElement] = {}
        total = GrassmannElement(z.L)
        for (n, e), c in self.terms.items():
            zn = powers.get(n)
            if zn is None:
                zn = powers[n] = z ** n
            term = c * zn
            if e:
                term = theta * term
            total = total + term
        return total


def _product_window(f: SFun, g: SFun) -> tuple:
    """(lo, hi) of f * g, None where unbounded: the product is unknown
    where an unknown tail of one factor meets a possible term of the other.
    Raises TruncationError when the window is empty."""
    inf = float("inf")

    def support(F):
        """(smin, smax) as floats: orders where F's terms may exist.  With
        no terms the unknown tail bounds them: a high edge leaves terms
        possible from hi + 1 up, a low edge from lo - 1 down."""
        smin = -inf if F.lo is not None else min(
            (n for n, _ in F.terms), default=inf if F.hi is None else F.hi + 1)
        smax = inf if F.hi is not None else max(
            (n for n, _ in F.terms), default=-inf if F.lo is None else F.lo - 1)
        return smin, smax

    (fmin, fmax), (gmin, gmax) = support(f), support(g)
    hi = min(inf if f.hi is None else f.hi + gmin, inf if g.hi is None else g.hi + fmin)
    lo = max(-inf if f.lo is None else f.lo + gmax, -inf if g.lo is None else g.lo + fmax)
    if lo > hi:
        raise TruncationError("product window is empty")
    return (None if lo == -inf else int(lo)), (None if hi == inf else int(hi))


def _sum_left(L: int, parts, lo, hi) -> SFun:
    """The SFun on [lo, hi] summing c z^n theta^e F over parts (c, n, e, F),
    c a GrassmannElement written to the left of theta.

    The one place superseries multiplies coefficients: every contribution
    to an output coefficient is summed in one {mask: [num, den]}
    accumulator by add_product on c's spec.layout, the Grassmann ring's,
    settle forms each coefficient once, and one GrassmannElement is built
    per nonzero output.  Orders outside [lo, hi] are never accumulated and
    settle drops zeros, so the result is stored as built, without SFun's
    filter.  c passes a theta
    term of F as its parity twist, formed only when F has one; theta^e
    meets a theta term of F in theta^2 = 0.  A part whose c and F differ in
    generator count raises DimensionMismatch.
    """
    acc: dict = {}
    for c, n, e, F in parts:
        F._check(c.L)
        a, at, layout = c.terms, None, c.spec.layout
        for (m, f), x in F.terms.items():
            if f:
                if e:
                    continue
                if at is None:
                    at = c.parity_twist().terms
            m += n
            if lo is not None and m < lo or hi is not None and m > hi:
                continue
            add_product(acc.setdefault((m, e | f), {}), at if f else a, x.terms, layout)
    out = SFun(L, None, lo, hi)
    out.terms = {key: GrassmannElement(L, v) for key, slots in acc.items() if (v := settle(slots))}
    return out


def _reach_down(u: SFun) -> int:
    """How far below order 0 a product of u's terms can reach.

    u is a series scaled to leading term 1 at order 0 (SFun.power's u), so
    its terms below order 0 are nilpotent: a nonzero product holds at most
    L + 1 of them (L souls and one theta), each at least d below order 0.
    """
    d = max(0, -min((m for m, _ in u.terms), default=0))
    return d * (u.L + 1)


class SuperSeries:
    """A formal map H(z,theta) = (zt, tht) with even zt and odd tht."""

    __slots__ = ("L", "ev", "od")

    def __init__(self, L: int, ev: SFun, od: SFun):
        self.L = L
        self.ev = ev
        self.od = od

    @classmethod
    def identity(cls, L: int) -> "SuperSeries":
        return cls(L, SFun.z_power(L, 1), SFun.theta_term(L, 0))

    @classmethod
    def inversion(cls, L: int) -> "SuperSeries":
        """I(z,theta) = (1/z, i*theta/z), the sewing boundary involution."""
        return cls(L, SFun.z_power(L, -1),
                   SFun.theta_term(L, -1, GrassmannElement.scalar(L, QQi(0, 1))))

    @classmethod
    def theta_flip(cls, L: int) -> "SuperSeries":
        """J(z,theta) = (z, -theta)."""
        return cls(L, SFun.z_power(L, 1), SFun.theta_term(L, 0, -1))

    def __eq__(self, other):
        if not isinstance(other, SuperSeries):
            return NotImplemented
        return self.ev == other.ev and self.od == other.od

    def __repr__(self):
        return f"SuperSeries(zt={self.ev!r}, tht={self.od!r})"

    def negate_theta_output(self) -> "SuperSeries":
        """Postcompose with J: (zt, tht) -> (zt, -tht)."""
        return SuperSeries(self.L, self.ev, -self.od)


# ----------------------------------------------------------------------
# spec operations
# ----------------------------------------------------------------------


def ss_is_superconformal(H: SuperSeries) -> tuple[bool, SFun]:
    """Test D zt = tht * D tht; returns (flag, residual on its window)."""
    residual = H.ev.D() - H.od * H.od.D()
    return residual.is_zero(), residual


def ss_compose(H1: SuperSeries, H2: SuperSeries,
               clip: tuple[int, int] | None = None) -> SuperSeries:
    """Substitute H2 into H1 componentwise.

    Only the high edge clip[1] is applied: it caps the z-orders of the
    negative powers of H2.ev (SFun.power's clip_hi).  The low edge
    clip[0] is not read, so terms below it are computed and kept;
    clip=(lo, hi) gives the same result as clip=(None, hi).  H1's unknown
    tails bound the result through _reach_down of H2.ev shifted to order
    0, whose terms below 0 are those of SFun.power's u.
    """
    hi = clip[1] if clip is not None else None
    Z, T = H2.ev, H2.od
    k = Z.leading_invertible_order()
    zpows: dict[int, SFun] = {0: SFun.const(Z.L, 1)}

    def zp(n: int) -> SFun:
        if n not in zpows:
            if n < 0:
                zpows[n] = Z.power(n, hi)
            # Z^n, n > 0, is the rung above Z^(n-1): SFun.power's own product
            for m in range(max(zpows) + 1, n + 1):
                zpows[m] = zpows[m - 1] * Z
        return zpows[n]

    reach = _reach_down(Z.shift(-k))
    umax = max(0, max((n - k for (n, e) in Z.terms), default=0))

    def subst(C: SFun) -> SFun:
        # theta^e c z^n -> T^e c Z^n; for e = 1 the parts are T's terms
        # against c Z^n, on the window of that product
        parts = []
        a = b = None
        for (n, e), c in sorted(C.terms.items()):
            Zn = zp(n)
            if e:
                Zn = Zn.scale_left(c)
                window = _product_window(T, Zn)
                parts += [(t, m, f, Zn) for (m, f), t in T.terms.items()]
            else:
                window = Zn.lo, Zn.hi
                parts.append((c, 0, 0, Zn))
            a, b = _max_lo(a, window[0]), _min_hi(b, window[1])
        # contamination from H1's unknown tails fed through powers of Z
        if k > 0:
            if C.lo is not None:
                raise TruncationError(
                    "cannot compose an unknown low tail into a regular target")
            if C.hi is not None:
                b = _min_hi(b, k * (C.hi + 1) - 1 - reach)
        else:
            if C.hi is not None:
                if k + umax >= 0:
                    raise TruncationError(
                        "cannot compose an unknown high tail into this target")
                a = _max_lo(a, (C.hi + 1) * (k + umax) + 1)
            if C.lo is not None:
                b = _min_hi(b, k * (C.lo - 1) - 1 - reach)
        if (a is not None and b is not None and a > b):
            raise TruncationError("composition window is empty")
        return _sum_left(H1.L, parts, a, b)

    if k == 0:
        raise TruncationError("composition target has order-zero leading term")
    return SuperSeries(H1.L, subst(H1.ev), subst(H1.od))


def ss_invert(H: SuperSeries, window: tuple[int, int] = DEFAULT_WINDOW) -> SuperSeries:
    """Compositional inverse: ss_compose(H, result) = id on the window.

    Maps with leading order +1 are inverted by a linear-step iteration;
    leading order -1 is routed through the closed-form inversion I.
    """
    lo, hi = window
    k = H.ev.leading_invertible_order()
    if k == -1:
        G = ss_compose(H, SuperSeries.inversion(H.L), clip=window)
        Ginv = ss_invert(G, window)
        return ss_compose(SuperSeries.inversion(H.L), Ginv, clip=window)
    if k != 1:
        raise NotInvertible(f"leading order {k} is not invertible")
    a = H.ev.coeff(1, 0)
    b = H.od.coeff(0, 1)
    q0 = H.od.coeff(0, 0)
    # linear part at the origin: zt ~ a z + (theta z ... higher), tht ~ q0 + b theta
    if not a.body() or not b.body():
        raise NotInvertible("degenerate linear part")
    ainv = a ** -1
    binv = b ** -1
    K = SuperSeries(H.L, SFun.z_power(H.L, 1, ainv),
                    SFun.theta_term(H.L, 0, binv) + SFun.const(H.L, -(binv * q0)))
    ident = SuperSeries.identity(H.L)
    for _ in range(INVERT_MAX_ROUNDS):
        E = ss_compose(H, K, clip=window)
        # a map with no high edge leaves none on the residual: read it through
        # the window's, or the orders above it feed back and grow every round
        rev, rod = (F if F.hi is not None else F.with_window(None, hi)
                    for F in (E.ev - ident.ev, E.od - ident.od))
        if rev.is_zero() and rod.is_zero():
            return K
        dv = rev.scale_left(ainv)
        do = rod.scale_left(binv)
        K = SuperSeries(H.L, K.ev - dv, K.od - do)
    raise NotInvertible("inverse iteration did not terminate")


def ss_from_components(f: SFun, psi: SFun, branch: int = 1,
                       window: tuple[int, int] = DEFAULT_WINDOW) -> SuperSeries:
    """Superconformal map built from an even f and odd psi.

    Returns (f + theta*psi*r, psi + theta*r) with r*r = f' + psi*psi',
    the branch choosing the sign of the leading body root.
    """
    L = f.L
    if any(e for (_, e) in f.terms) or any(e for (_, e) in psi.terms):
        raise DomainError("components must be theta-free (1,0)-functions")
    S = f.d_z() + psi * psi.d_z()
    r = S.power(HALF, window[1])
    if branch <= 0:
        r = -r
    theta = SFun.theta_term(L, 0)
    return SuperSeries(L, f + theta * (psi * r), psi + theta * r)


# -- coordinate data ----------------------------------------------------


class CoordData:
    """Local superconformal coordinate data vanishing at zero.

    a0 even with nonzero body; A maps j >= 1 to even values (weight-j flow);
    M maps j >= 1 to the odd value attached to the half-index j - 1/2.  A
    and M store no zero: the constructor drops zero values (_family).
    """

    __slots__ = ("L", "a0", "A", "M", "branch")

    def __init__(self, L: int, a0: GrassmannElement, A=None, M=None, branch: int = 1):
        self.L = L
        self.a0 = a0
        self.branch = branch
        if not a0.body():
            raise DomainError("a0 needs a nonzero body")
        self.A = _family("A", A, 0)
        self.M = _family("M", M, 1)

    def __eq__(self, other):
        return (isinstance(other, CoordData) and self.a0 == other.a0
                and self.A == other.A and self.M == other.M
                and self.branch == other.branch)

    def __repr__(self):
        return f"CoordData(a0={self.a0!r}, A={self.A!r}, M={self.M!r}, branch={self.branch:+d})"


class InfCoordData:
    """Coordinate data vanishing at infinity: (B, N) families, j >= 1, B
    even and N odd, storing no zero like CoordData's."""

    __slots__ = ("L", "B", "N", "sk0_constraint")

    def __init__(self, L: int, B=None, N=None, sk0_constraint: bool = False):
        self.L = L
        self.B = _family("B", B, 0)
        self.N = _family("N", N, 1)
        self.sk0_constraint = sk0_constraint
        if sk0_constraint and (1 in self.B or 1 in self.N):
            raise DomainError("one-tube constraint needs (B_1, N_1/2) = (0, 0)")

    def __eq__(self, other):
        return isinstance(other, InfCoordData) and self.B == other.B and self.N == other.N

    def __repr__(self):
        return f"InfCoordData(B={self.B!r}, N={self.N!r})"


def _family(name: str, values, parity: int) -> dict:
    """The nonzero values of one coordinate family, after checking that
    every key is j >= 1 and every nonzero value has the family's parity."""
    out = {}
    for j, v in (values or {}).items():
        if j < 1 or (v and v.parity() != parity):
            raise DomainError(f"{name}[{j}] must be {'odd' if parity else 'even'} with j >= 1")
        if v:
            out[j] = v
    return out


# -- the superderivations and their flows --------------------------------


class DiffOp:
    """One of the displayed superderivations on the span of theta^e z^k,
    named by nsalg's generator encoding: the int g = 2n is L(n) for even g
    and G(n) for odd g, so a sewing family's generator drives it directly.

    L(n) moves both sectors by n.  G(r) is odd and exchanges the sectors:
    theta-free orders go into the theta sector by r - 1/2 and theta orders
    out of it by r + 1/2, because theta itself has weight 1/2; hence two
    shifts, g >> 1 and (g + 1) >> 1, which are equal for L.
    """

    def __init__(self, g: int):
        if type(g) is not int:
            raise ValueError(f"generator must be an int doubled index, got {g!r}")
        self.g = g
        # apply's per-operator constants: the order shifts out of the
        # theta-free and out of the theta sector, and L(n)'s theta-sector
        # offset (n + 1)/2
        self._shift0, self._shift1 = g >> 1, (g + 1) >> 1
        self._half = Fraction(g + 2, 4)

    def apply(self, F: SFun) -> SFun:
        """The derivation applied to F, exact on F's window moved by the
        shifts: the low edge by the larger, the high edge by the smaller."""
        out = {}
        s0, s1 = self._shift0, self._shift1
        if not self.g & 1:
            half = self._half
            for (k, e), c in F.terms.items():
                if e:
                    add_term(out, (k + s1, 1), c * (-(k + half)))
                elif k:
                    add_term(out, (k + s0, 0), c * (-k))
        else:
            for (k, e), c in F.terms.items():
                if e:
                    add_term(out, (k + s1, 0), -c)
                elif k:
                    add_term(out, (k + s0, 1), c * k)
        lo = None if F.lo is None else F.lo + max(s0, s1)
        hi = None if F.hi is None else F.hi + min(s0, s1)
        return SFun(F.L, out, lo, hi)


def _apply_flow(H: SuperSeries, terms: list, window) -> SuperSeries:
    """exp of a sum of coefficient-weighted derivations, applied to H.

    terms is a list of (DiffOp, coeff); every listed derivation must move
    z-orders in one direction (all indices positive at zero, all negative
    at infinity), so window truncation plus nilpotency of the odd
    coefficients terminates the series exactly.
    """
    lo, hi = window

    def X(F, w):  # w times the combined derivation of F, on the window
        parts = [(coeff * w, 0, 0, op.apply(F)) for op, coeff in terms]
        a, b = lo, hi
        for *_, G in parts:
            a, b = _max_lo(a, G.lo), _min_hi(b, G.hi)
        return _sum_left(H.L, parts, a, b)

    cur = (H.ev.with_window(lo, hi), H.od.with_window(lo, hi))
    acc = cur
    for k in range(1, FLOW_MAX_STEPS + 1):
        w = Fraction(1, k)
        cur = (X(cur[0], w), X(cur[1], w))
        if cur[0].is_zero() and cur[1].is_zero():
            return SuperSeries(H.L, acc[0], acc[1])
        acc = (acc[0] + cur[0], acc[1] + cur[1])
    raise TruncationError("flow exponential did not terminate on the window")


def _flow_terms(side: int, evens: dict, odds: dict) -> list:
    """The (DiffOp, coeff) terms of the flow at zero (side 1) or at infinity
    (side -1): the even value at j drives L(side j), DiffOp(side 2j), the
    odd one G(side (j - 1/2)), DiffOp(side (2j - 1)), evens first, each in
    increasing j; at infinity every coefficient is negated."""
    return [(DiffOp(side * (2 * j - odd)), v if side > 0 else -v)
            for odd, family in enumerate((evens, odds)) for j, v in sorted(family.items())]


def ss_exp_zero(c: CoordData, window: tuple[int, int] = DEFAULT_WINDOW) -> SuperSeries:
    """Superconformal map vanishing at zero from its flow coordinates.

    First the scaling (z, theta) -> (a0 z, sqrt(a0) theta), then the single
    exponential of the combined weight-j flows, truncated to the window.
    The negative branch postcomposes with the theta flip.
    """
    lo, hi = window
    if hi < 1 or (lo is not None and lo > 0):
        raise TruncationError("window cannot hold the leading terms at zero")
    L = c.L
    root = c.a0 ** HALF
    base = SuperSeries(L, SFun.z_power(L, 1, c.a0), SFun.theta_term(L, 0, root))
    # flows only raise orders: exact below
    H = _apply_flow(base, _flow_terms(1, c.A, c.M), (None, hi))
    if c.branch < 0:
        H = H.negate_theta_output()
    return H


def ss_exp_infinity(c: InfCoordData, window: tuple[int, int] = DEFAULT_WINDOW) -> SuperSeries:
    """Superconformal map vanishing at infinity from its flow coordinates.

    The exponential of minus the combined weight-(-j) flows applied to the
    base point (1/z, i theta / z).
    """
    lo, hi = window
    if lo > -1:
        raise TruncationError("window cannot hold the leading terms at infinity")
    # flows only lower orders: exact above
    return _apply_flow(SuperSeries.inversion(c.L), _flow_terms(-1, c.B, c.N), (lo, None))


def _known(f: SFun, n: int, e: int) -> GrassmannElement:
    """f's coefficient of z^n theta^e, which f's window must hold: outside
    it the coefficient is unknown, not zero."""
    if (f.lo is not None and n < f.lo) or (f.hi is not None and n > f.hi):
        raise TruncationError(f"order {n} lies outside the window [{f.lo}, {f.hi}]")
    return f.coeff(n, e)


def ss_extract_zero(H: SuperSeries) -> CoordData:
    """Order-by-order read-off inverting ss_exp_zero on H's window.

    The unknowns are solved in increasing flow order, interleaving the odd
    family at half-integer steps; each step is a linear read against the
    invertible leading coefficient; the flow is rebuilt after each nonzero read.
    A read outside a component's window raises TruncationError.
    """
    L = H.L
    ok, residual = ss_is_superconformal(H)
    if not ok:
        raise ShapeError(f"input is not superconformal; residual {residual!r}")
    for (n, e) in H.ev.terms:
        if n < 1:
            raise ShapeError("series does not vanish at zero")
    for (n, e) in H.od.terms:
        if n < 0 or (n == 0 and e == 0):
            raise ShapeError("odd component has the wrong leading shape")
    a0 = _known(H.ev, 1, 0)
    if not a0.body():
        raise NotInvertible("leading coefficient has zero body")
    root = a0 ** HALF
    g0 = _known(H.od, 0, 1)
    if g0 == root:
        branch = 1
        W = H
    elif g0 == -root:
        branch = -1
        W = H.negate_theta_output()
    else:
        raise ShapeError("leading theta coefficient is not a branch of sqrt(a0)")
    hi = H.ev.hi
    if hi is None:
        hi = DEFAULT_WINDOW[1]
    a0_inv = a0 ** -1
    root_inv = a0 ** -HALF
    A: dict[int, GrassmannElement] = {}
    M: dict[int, GrassmannElement] = {}

    def flow():
        return ss_exp_zero(CoordData(L, a0, A, M, 1), (0, hi))

    cur = flow()
    for j in range(1, hi + 1):
        # odd unknown at half step j - 1/2: read the theta-free slot z^j of tht
        r = _known(W.od, j, 0) - _known(cur.od, j, 0)
        if r:
            M[j] = -(r * root_inv)  # responds as -sqrt(a0) * M_(j-1/2)
            cur = flow()
        # even unknown at step j: slot z^(j+1) of zt responds as -a0 * A_j; at
        # the window top, past which that slot lies, read slot theta z^j of
        # tht, which responds as -sqrt(a0) * (j + 1)/2 * A_j
        r, inv = ((_known(W.ev, j + 1, 0) - _known(cur.ev, j + 1, 0), a0_inv) if j < hi
                  else (_known(W.od, j, 1) - _known(cur.od, j, 1), root_inv * Fraction(2, j + 1)))
        if r:
            A[j] = -(r * inv)
            cur = flow()
    # cur, the flow of the final (A, M), must reproduce W on the window
    for want, got, name in ((W.ev, cur.ev, "zt"), (W.od, cur.od, "tht")):
        for (n, e), c in want.terms.items():
            if 0 <= n <= hi and got.coeff(n, e) != c:
                raise ShapeError(f"read-off failed to reproduce slot z^{n} of {name}")
    return CoordData(L, a0, A, M, branch)


def ss_evaluate(H: SuperSeries, z: GrassmannElement,
                theta: GrassmannElement) -> tuple[GrassmannElement, GrassmannElement]:
    if theta and theta.parity() != 1:
        raise DomainError("theta value must be odd")
    if z.parity() not in (0,):
        raise DomainError("z value must be even")
    return H.ev.evaluate(z, theta), H.od.evaluate(z, theta)
