"""Moduli of superspheres with tubes and the sewing factorization series.

The central solver rewrites

    exp(-sum A_j L(j) - sum M G(j-1/2)) a0^(-L(0)) exp(-sum B_j L(-j) - sum N G(-j+1/2))

into raising * lowering * diagonal * central form, degree by degree in the
formal families, by matching matrix elements on a weight-truncated Verma
module with formal central charge and highest weight.  Raising a state
past the weight cap loses information, so every solved coefficient is
kept only for parameter monomials whose raising peak stays under the cap;
the consistency check trusts exactly the same monomials.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .grassmann import (
    GradedPoly,
    GrassmannElement,
    ParamSpec,
    QQi,
)
from .nsalg import (
    G,
    L,
    VermaModule,
    gen_parity,
)
from .sparse import add_term
from .superseries import (
    CoordData,
    InfCoordData,
    SuperSeries,
    ss_compose,
    ss_exp_infinity,
    ss_exp_zero,
    ss_invert,
)

HALF = Fraction(1, 2)


class SewingError(ValueError):
    pass


class NotSewable(SewingError):
    pass


# ----------------------------------------------------------------------
# moduli elements
# ----------------------------------------------------------------------


class ModuliElement:
    """A point of the moduli space of superspheres with 1 + n tubes.

    punctures holds the n - 1 movable punctures (z_i, theta_i); the last
    puncture sits at zero and the negatively oriented one at infinity.
    infinity carries the coordinate data there, local the data at each of
    the n positively oriented punctures.
    """

    def __init__(self, L_gen: int, n: int, punctures, infinity: InfCoordData,
                 local, branch: int = 1):
        self.L = L_gen
        self.n = n
        self.punctures = list(punctures)
        self.infinity = infinity
        self.local = list(local)
        self.branch = branch
        if n < 0:
            raise SewingError("puncture count must be nonnegative")
        if n > 0 and len(self.punctures) != n - 1:
            raise SewingError(f"expected {n - 1} movable punctures, got {len(self.punctures)}")
        if len(self.local) != n:
            raise SewingError(f"expected {n} local coordinates, got {len(self.local)}")
        if n == 0 and not infinity.sk0_constraint:
            raise SewingError("one-tube elements need the constrained infinity data")
        bodies = [z.body() for z, _ in self.punctures]
        if any(not b for b in bodies):
            raise SewingError("puncture bodies must be nonzero")
        seen = set()
        for b in bodies:
            key = (b.re, b.im)
            if key in seen:
                raise SewingError("puncture bodies must be pairwise distinct")
            seen.add(key)

    def __eq__(self, other):
        return (isinstance(other, ModuliElement)
                and self.n == other.n
                and self.punctures == other.punctures
                and self.infinity == other.infinity
                and self.local == other.local
                and self.branch == other.branch)

    def __repr__(self):
        return (f"ModuliElement(n={self.n}, branch={self.branch:+d}, "
                f"punctures={self.punctures!r})")


def sk_permute(sigma, Q: ModuliElement) -> ModuliElement:
    """Simultaneous permutation of the movable punctures and their data.

    sigma is a tuple with sigma[i] = image of position i (0-based) on
    1..n-1.
    """
    m = Q.n - 1
    if sorted(sigma) != list(range(m)):
        raise SewingError(f"not a permutation of {m} letters: {sigma}")
    punctures = [None] * m
    local = list(Q.local)
    for i in range(m):
        punctures[sigma[i]] = Q.punctures[i]
        local[sigma[i]] = Q.local[i]
    return ModuliElement(Q.L, Q.n, punctures, Q.infinity, local, Q.branch)


def sk_J(Q: ModuliElement) -> ModuliElement:
    """Negate the odd puncture components and flip the structure flag."""
    punctures = [(z, -t) for z, t in Q.punctures]
    return ModuliElement(Q.L, Q.n, punctures, Q.infinity, list(Q.local), -Q.branch)


def sw_can_sew(Q1: ModuliElement, i: int, Q2: ModuliElement) -> bool:
    """Body-level disc check for sewing the i-th tube of Q1 to Q2's 0-th.

    Linearized criterion.  The i-th local disc of radius r pulls back to a
    disc of body radius roughly r/|a0| around z_i, which must stay clear of
    the other punctures of Q1; the matching region of Q2 is the outside of
    the body radius r, which must contain only Q2's puncture at infinity.
    Such an r exists when |a0|^2 d^2 > max|q|^2, with d the clearance on
    the first factor and q ranging over Q2's movable punctures.  Souls are
    ignored.
    """
    if not 1 <= i <= Q1.n:
        raise SewingError(f"puncture index {i} outside 1..{Q1.n}")
    if Q2.n < 1:
        raise SewingError("the second factor needs a zero-th tube partner")
    # body position of the i-th puncture (the n-th sits at zero)
    pos = [z.body() for z, _ in Q1.punctures] + [QQi(0)]
    zi = pos[i - 1]
    others = [p for k, p in enumerate(pos) if k != i - 1]
    d2 = None
    for p in others:
        dd = (p - zi).abs2()
        d2 = dd if d2 is None else min(d2, dd)
    if d2 is None:
        d2 = Fraction(1)
    a2 = Q1.local[i - 1].a0.body().abs2()
    crowd = max((z.body().abs2() for z, _ in Q2.punctures), default=Fraction(0))
    return bool(a2 * d2 > crowd)


def sw_boundary_map(local_i: SuperSeries, inf_0: SuperSeries,
                    window=(-8, 8)) -> SuperSeries:
    """The tube identification local_i o I o inf_0^(-1)."""
    I = SuperSeries.inversion(local_i.L)
    inner = ss_compose(I, ss_invert(inf_0, window), clip=window)
    return ss_compose(local_i, inner, clip=window)


# ----------------------------------------------------------------------
# the factorization series
# ----------------------------------------------------------------------


class SewingSeries:
    """Solved (Psi, Gamma) data over a GradedPoly ring.

    psi maps slot index k to its series: integer k for the even family,
    half-odd k for the odd one, 0 for the diagonal; negative k is the
    raising block.  Every stored coefficient is restricted to parameter
    monomials certifiable at the weight cap.
    """

    def __init__(self, spec: ParamSpec, psi: dict, gamma: GradedPoly,
                 degree_cap: int, weight_cap):
        self.spec = spec
        self.psi = psi
        self.gamma = gamma
        self.degree_cap = degree_cap
        self.weight_cap = Fraction(weight_cap)


def solver_spec(A_sup, M_sup, B_sup, N_sup, degree_cap: int) -> ParamSpec:
    symbols = []
    for j in sorted(A_sup):
        symbols.append((f"A{j}", 0, True))
    for j in sorted(M_sup):
        symbols.append((f"M{j}", 1, True))
    for j in sorted(B_sup):
        symbols.append((f"B{j}", 0, True))
    for j in sorted(N_sup):
        symbols.append((f"N{j}", 1, True))
    symbols.append(("c", 0, False))
    symbols.append(("h", 0, False))
    return ParamSpec(symbols, degree_cap)


def _raise_peak(spec: ParamSpec, mono) -> Fraction:
    """Weight the raising side of a parameter monomial can reach.

    It is never negative and adds up under multiplication; the central
    charge, the highest weight, the lowering symbols and alpha0 have peak 0.
    """
    peak = Fraction(0)
    for i, e in mono:
        name = spec.names[i]
        if name.startswith("B"):
            peak += int(name[1:]) * e
        elif name.startswith("N"):
            peak += (Fraction(int(name[1:])) - HALF) * e
    return peak


class _Peaks(dict):
    """Twice the raising peak of each monomial of one ring, memoized.

    Peaks are half-integers, so the doubled ones are ints.  One instance
    serves one factorization: a memo keyed by monomial alone is only
    right for the ring whose symbol names it was filled from.
    """

    def __init__(self, spec: ParamSpec):
        super().__init__()
        self.spec = spec

    def __missing__(self, mono):
        out = self[mono] = int(2 * _raise_peak(self.spec, mono))
        return out


def _within(p: GradedPoly, limit: int, peaks: _Peaks) -> GradedPoly:
    """The terms of p whose doubled raising peak is at most limit."""
    return GradedPoly(p.spec, {k: c for k, c in p.terms.items() if peaks[k[0]] <= limit})


def _trust_filter(p: GradedPoly, level, cap, peaks: _Peaks) -> GradedPoly:
    """The terms of p certified at a column of this level: level + peak <= cap."""
    return _within(p, math.floor(2 * (cap - level)), peaks)


def _whole(p: GradedPoly) -> GradedPoly:
    """The filter that keeps every term."""
    return p


def _exp_apply(module: VermaModule, terms, vec: dict, degree_cap: int, keep=_whole) -> dict:
    """exp(sum coeff*gen) applied to vec, truncated by the parameter cap.

    An odd gen meets the vector's polynomial entries parity-twisted (the
    Koszul sign of moving it past them).  keep filters each product
    coeff * entry; the matrix elements of gen have raising peak 0, so
    their products need no second pass.  Every coeff has capped degree
    >= 1, so the k-th power of the exponent dies past the cap at
    k = degree_cap + 1 at the latest; a series still alive then raises
    instead of being cut.
    """
    terms = [(g, gen_parity(g), keep(p)) for g, p in terms]
    acc = dict(vec)
    cur = vec
    for k in range(1, degree_cap + 2):
        nxt: dict = {}
        twisted = None
        for g, odd, p in terms:
            src = cur
            if odd:
                if twisted is None:
                    twisted = {w: q.parity_twist() for w, q in cur.items()}
                src = twisted
            for w, q in src.items():
                pre = keep(p * q)
                if not pre:
                    continue
                for w2, r in module.apply_gen(g, w).items():
                    add_term(nxt, w2, pre * r)
        if k > 1:
            inv_k = QQi(Fraction(1, k))
            nxt = {w: q * inv_k for w, q in nxt.items()}
        cur = nxt
        if not cur:
            return acc
        for w, q in cur.items():
            add_term(acc, w, q)
    raise SewingError(f"exponential series still nonzero after {degree_cap + 1} rounds")


def _alpha_reduce(module: VermaModule, vec: dict) -> dict:
    """Multiply each component by alpha0^(-level), the reduced diagonal."""
    out = {}
    for w, q in vec.items():
        half_exp = -int(2 * module.level(w))
        out[w] = q * GradedPoly.alpha(module.spec, half_exp)
    return out


def _diag_exp(module: VermaModule, vec: dict, series: GradedPoly,
              weight_shift: bool, degree_cap: int, keep=_whole) -> dict:
    """exp(series * L(0)) (weight_shift) or exp(series * c) applied to vec."""
    spec = module.spec
    series = keep(series)
    out = {}
    for w, q in vec.items():
        if weight_shift:
            eig = GradedPoly.symbol(spec, "h") + GradedPoly.scalar(spec, module.level(w))
        else:
            eig = GradedPoly.symbol(spec, "c")
        x = series * eig
        scal = GradedPoly.scalar(spec, 1)
        term = GradedPoly.scalar(spec, 1)
        for k in range(1, degree_cap + 1):
            term = keep(term * x) * QQi(Fraction(1, k))
            if not term:
                break
            scal = scal + term
        val = keep(q * scal)
        if val:
            out[w] = val
    return out


class _Factorization:
    """Shared machinery for the left side, the ansatz, and the reads."""

    def __init__(self, A_sup, M_sup, B_sup, N_sup, D: int, W):
        self.spec = solver_spec(A_sup, M_sup, B_sup, N_sup, D)
        self.D = D
        self.W = Fraction(W)
        self.peaks = _Peaks(self.spec)
        cval = GradedPoly.symbol(self.spec, "c")
        hval = GradedPoly.symbol(self.spec, "h")
        self.module = VermaModule(self.spec, cval, hval, self.W)
        self.low_terms = []
        for j in sorted(A_sup):
            self.low_terms.append((L(j), -GradedPoly.symbol(self.spec, f"A{j}")))
        for j in sorted(M_sup):
            self.low_terms.append((G(j - HALF), -GradedPoly.symbol(self.spec, f"M{j}")))
        self.raise_terms = []
        for j in sorted(B_sup):
            self.raise_terms.append((L(-j), -GradedPoly.symbol(self.spec, f"B{j}")))
        for j in sorted(N_sup):
            self.raise_terms.append((G(-(j - HALF)), -GradedPoly.symbol(self.spec, f"N{j}")))

    def _keeper(self, level):
        """The trust filter of a column at level; no filter for level None.

        Peaks add up under multiplication and are never negative, so a term
        over the column's budget only feeds terms over it: dropping it early
        leaves every certified coefficient of lhs and rhs unchanged.
        """
        if level is None:
            return _whole
        peaks, limit = self.peaks, math.floor(2 * (self.W - level))
        return lambda p: _within(p, limit, peaks)

    def lhs(self, vec: dict, level=None) -> dict:
        """The left side on vec; given a level, only its certified terms."""
        keep = self._keeper(level)
        out = _exp_apply(self.module, self.raise_terms, vec, self.D, keep)
        out = _alpha_reduce(self.module, out)
        out = _exp_apply(self.module, self.low_terms, out, self.D, keep)
        return out

    def rhs(self, psi: dict, gamma: GradedPoly, vec: dict, level=None) -> dict:
        """The ansatz side on vec; given a level, only its certified terms."""
        spec, module = self.spec, self.module
        keep = self._keeper(level)
        out = _diag_exp(module, vec, gamma, False, self.D, keep)
        out = _alpha_reduce(module, out)
        psi0 = psi.get(Fraction(0), GradedPoly(spec))
        out = _diag_exp(module, out, psi0, True, self.D, keep)
        low = []
        raise_ = []
        for k, p in psi.items():
            if k == 0 or not p:
                continue
            gen = L(int(k)) if k.denominator == 1 else G(k)
            if k > 0:
                low.append((gen, p))
            else:
                raise_.append((gen, p))
        out = _exp_apply(module, low, out, self.D, keep)
        out = _exp_apply(module, raise_, out, self.D, keep)
        return out


def sw_solve(A_sup, M_sup, B_sup, N_sup, D: int = 3, W=6) -> SewingSeries:
    """Solve the factorization order by order in total parameter degree.

    A_sup/M_sup/B_sup/N_sup are the index supports (j >= 1) of the four
    formal families.  Returns the unique (Psi, Gamma) with every
    coefficient restricted to the parameter monomials certifiable at
    weight cap W.
    """
    fact = _Factorization(A_sup, M_sup, B_sup, N_sup, D, W)
    spec, module = fact.spec, fact.module
    W = fact.W
    zero = GradedPoly(spec)
    psi: dict = {Fraction(0): zero}
    slots = []
    j = 1
    while j <= W:
        slots.append(Fraction(j))
        j += 1
    r = HALF
    while r <= W:
        slots.append(r)
        r += 1
    for k in list(slots):
        psi.setdefault(k, zero)
        psi.setdefault(-k, zero)
    gamma = zero
    hw = module.highest_weight_vector()
    read_cols = {}
    for k in slots:
        read_cols[k] = L(-int(k)) if k.denominator == 1 else G(-k)
    lhs_hw = fact.lhs(hw)
    lhs_cols = {k: fact.lhs({(read_cols[k],): module.one}) for k in slots}
    for d in range(1, fact.D + 1):
        rhs_hw = fact.rhs(psi, gamma, hw)
        # raising slots from the highest-weight column
        for k in slots:
            word = (read_cols[k],)
            res = (lhs_hw.get(word, zero) - rhs_hw.get(word, zero)).degree_part(d)
            if res:
                _assert_ch_free(res)
                psi[-k] = psi[-k] + _trust_filter(res, 0, W, fact.peaks)
        # diagonal block: h reads psi0, c reads gamma
        res = (lhs_hw.get((), zero) - rhs_hw.get((), zero)).degree_part(d)
        if res:
            h_lin = res.coefficient({"h": 1, "c": 0})
            c_lin = res.coefficient({"h": 0, "c": 1})
            psi[Fraction(0)] = psi[Fraction(0)] + _trust_filter(h_lin, 0, W, fact.peaks)
            gamma = gamma + _trust_filter(c_lin, 0, W, fact.peaks)
            leftover = res - h_lin * GradedPoly.symbol(spec, "h") \
                - c_lin * GradedPoly.symbol(spec, "c")
            if leftover:
                raise SewingError(
                    f"diagonal read at degree {d} has unexpected terms: {leftover!r}")
        # lowering slots from singly-raised columns
        for k in slots:
            rhs_col = fact.rhs(psi, gamma, {(read_cols[k],): module.one})
            res = (lhs_cols[k].get((), zero) - rhs_col.get((), zero)).degree_part(d)
            if res:
                h_lin = res.coefficient({"h": 1, "c": 0})
                if k.denominator == 1:
                    sol = h_lin * QQi(Fraction(1, 2 * int(k)))
                else:
                    sol = h_lin * QQi(HALF)
                # undo the alpha0^(-k) the reduced diagonal put on the column
                sol = sol * GradedPoly.alpha(spec, int(2 * k))
                psi[k] = psi[k] + _trust_filter(sol, k, W, fact.peaks)
    return SewingSeries(spec, {k: p for k, p in psi.items()}, gamma, fact.D, W)


def _assert_ch_free(p: GradedPoly):
    idx_c = p.spec.index["c"]
    idx_h = p.spec.index["h"]
    for (mono, _), _c in p.terms.items():
        dd = dict(mono)
        if dd.get(idx_c) or dd.get(idx_h):
            raise SewingError(f"raising read produced (c,h)-dependent terms: {p!r}")


def sw_consistency_check(series: SewingSeries, A_sup, M_sup, B_sup, N_sup) -> bool:
    """Back-substitute: both sides must agree on every certified monomial.

    For each basis column of level l, a parameter monomial is certified
    when l plus its raising peak stays within the weight cap; both sides
    are compared there exactly, on all output coordinates.  Terms that
    cannot feed a certified monomial are dropped while the sides are
    built (see _Factorization._keeper).
    """
    fact = _Factorization(A_sup, M_sup, B_sup, N_sup,
                          series.degree_cap, series.weight_cap)
    module = fact.module
    zero = GradedPoly(fact.spec)
    for col in module.basis:
        lvl = module.level(col)
        vec = {col: module.one}
        lhs = fact.lhs(vec, lvl)
        rhs = fact.rhs(series.psi, series.gamma, vec, lvl)
        words = set(lhs) | set(rhs)
        for w in words:
            diff = lhs.get(w, zero) - rhs.get(w, zero)
            if _trust_filter(diff, lvl, fact.W, fact.peaks):
                return False
    return True


def sw_gamma2(A_sup, M_sup, B_sup, N_sup, D: int = 3) -> GradedPoly:
    """Closed-form degree-2 part of Gamma: the cross terms of matching index."""
    spec = solver_spec(A_sup, M_sup, B_sup, N_sup, D)
    out = GradedPoly(spec)
    for j in sorted(set(A_sup) & set(B_sup)):
        coeff = Fraction(j ** 3 - j, 12)
        if coeff:
            term = GradedPoly.symbol(spec, f"A{j}") * GradedPoly.symbol(spec, f"B{j}")
            out = out + term * QQi(coeff) * GradedPoly.alpha(spec, -2 * j)
    for j in sorted(set(M_sup) & set(N_sup)):
        coeff = Fraction(j * j - j, 3)
        if coeff:
            term = GradedPoly.symbol(spec, f"N{j}") * GradedPoly.symbol(spec, f"M{j}")
            out = out + term * QQi(coeff) * GradedPoly.alpha(spec, 1 - 2 * j)
    return out


def sw_t_series(local_i: CoordData, inf_0: InfCoordData, partials: int,
                D: int = 3, W=6) -> list:
    """Partial sums at t = 1 of Gamma with alpha0 -> a0/t.

    The substitution alpha0^(-e) -> t^e a0^(-e) grades Gamma by powers of
    t^(1/2); at the truncation the series is a polynomial, so the partial
    sums stabilize exactly at the last one.
    """
    A_sup = sorted(j for j, v in local_i.A.items() if v)
    M_sup = sorted(j for j, v in local_i.M.items() if v)
    B_sup = sorted(j for j, v in inf_0.B.items() if v)
    N_sup = sorted(j for j, v in inf_0.N.items() if v)
    series = sw_solve(A_sup, M_sup, B_sup, N_sup, D, W)
    Lg = local_i.L
    values = {}
    for j in A_sup:
        values[f"A{j}"] = local_i.A[j]
    for j in M_sup:
        values[f"M{j}"] = local_i.M[j]
    for j in B_sup:
        values[f"B{j}"] = inf_0.B[j]
    for j in N_sup:
        values[f"N{j}"] = inf_0.N[j]
    by_t: dict[Fraction, GrassmannElement] = {}
    a0 = local_i.a0
    root = None
    inv = a0.inverse()
    for (mono, a), c in series.gamma.terms.items():
        # alpha0^(a/2) evaluated at a0/t contributes t^(-a/2) a0^(a/2)
        acc = GrassmannElement.scalar(Lg, c)
        for idx, e in mono:
            acc = acc * (values[series.spec.names[idx]] ** e)
        if a % 2:
            if root is None:
                root = a0.sqrt(1)
            acc = acc * (root ** a if a > 0 else root.inverse() ** (-a))
        elif a:
            acc = acc * (a0 ** (a // 2) if a > 0 else inv ** (-a // 2))
        tpow = Fraction(-a, 2)
        cur = by_t.get(tpow)
        by_t[tpow] = acc if cur is None else cur + acc
    sums = []
    total = GrassmannElement(Lg)
    for tpow in sorted(by_t):
        total = total + by_t[tpow]
        sums.append(total)
    out = []
    for k in range(partials):
        out.append(sums[k] if k < len(sums) else total)
    return out
