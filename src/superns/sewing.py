"""Moduli of superspheres with tubes and the sewing factorization series.

The central solver rewrites

    exp(-sum A_j L(j) - sum M G(j-1/2)) a0^(-L(0)) exp(-sum B_j L(-j) - sum N G(-j+1/2))

into the ansatz

    exp(sum Psi_(-k) X(-k)) exp(sum Psi_k X(k)) exp(Psi_0 L(0)) a0^(-L(0)) exp(Gamma c)

(X(k) is L(k) or G(k)), degree by degree in the formal families.  The
reduced diagonal a0^(-L(0)) is conjugated to the right end of both sides,
which takes X(n) to a0^n X(n) on its way, so the solver's raising terms
are a0^-j B_j and a0^(1/2-j) N_j.  There it acts first, on a state of
level l as a0^-l on both sides alike, so the solver leaves it out: the
states it reads, the highest-weight vector and L(0), have level 0.

Raising a state past the weight cap loses information.  A parameter
monomial's raising peak is the weight its symbols can lift a state by:
each power of B_j or N_j adds the weight of its raising generator, every
other symbol adds 0.  A coefficient read from a column of level l is kept
only on monomials with l + peak <= W.

Both solve and check read the sides in two forms, the algebraic half of
Huang's reading of sewing as conjugation in the Virasoro/NS group: the
highest-weight column of a weight-truncated Verma module with formal
central charge and highest weight, and the conjugate Ad(L(0)) =
X L(0) X^-1 of the left side X and of the ansatz, each a nested
exp(ad Z) run by the same kernel over the adjoint action.  The column
gives the raising slots, Psi_0 and Gamma; the X(k) coordinates of
Ad(L(0)) give every lowering slot.  The check compares both forms again
at full degree, which certifies every column (see sw_consistency_check),
on the module, left column and left conjugate of the solve's
_Factorization, which the series holds.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .grassmann import (
    _SCALAR,
    GradedPoly,
    GrassmannElement,
    ParamSpec,
    _scaled,
    as_qqi,
    as_rational,
)
from .nsalg import (
    C_GEN,
    L,
    VermaModule,
    bracket_constants,
    gen_parity,
    gen_weight,
)
from .sparse import add_scaled, add_term, add_terms
from .superseries import (
    CoordData,
    InfCoordData,
    SuperSeries,
    ss_compose,
    ss_invert,
)


class SewingError(ValueError):
    pass


# ----------------------------------------------------------------------
# moduli elements
# ----------------------------------------------------------------------


class ModuliElement:
    """A point of the moduli space of superspheres with 1 + n tubes.

    punctures holds the n - 1 movable punctures (z_i, theta_i), none when
    n is 0; the last puncture sits at zero and the negatively oriented one
    at infinity.  infinity carries the coordinate data there, local the
    data at each of the n positively oriented punctures.
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
        movable = max(n - 1, 0)
        if len(self.punctures) != movable:
            raise SewingError(f"expected {movable} movable punctures, got {len(self.punctures)}")
        if len(self.local) != n:
            raise SewingError(f"expected {n} local coordinates, got {len(self.local)}")
        if n == 0 and not infinity.sk0_constraint:
            raise SewingError("one-tube elements need the constrained infinity data")
        # bodies are canonical coefficients, so equal ones hash alike
        bodies = [z.body() for z, _ in self.punctures]
        if any(not b for b in bodies):
            raise SewingError("puncture bodies must be nonzero")
        if len(set(bodies)) < len(bodies):
            raise SewingError("puncture bodies must be pairwise distinct")

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
    pos = [z.body() for z, _ in Q1.punctures] + [0]
    zi = pos[i - 1]
    others = [p for k, p in enumerate(pos) if k != i - 1]
    d2 = min((as_qqi(p - zi).abs2() for p in others), default=1)
    a2 = as_qqi(Q1.local[i - 1].a0.body()).abs2()
    crowd = max((as_qqi(z.body()).abs2() for z, _ in Q2.punctures), default=0)
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
    monomials certifiable at the weight cap.  fact is the _Factorization
    the solve built, module and all, which the consistency check reuses.
    """

    def __init__(self, fact: "_Factorization", psi: dict, gamma: GradedPoly):
        self.fact = fact
        self.spec = fact.spec
        self.psi = psi
        self.gamma = gamma


def _families(A_sup, M_sup, B_sup, N_sup) -> list:
    """(name, generator) of each formal symbol, in the ring's order.

    A_j and M_j multiply the lowering L(j) and G(j - 1/2), B_j and N_j the
    raising L(-j) and G(-j + 1/2), each named by its doubled index as in
    nsalg; a symbol has its generator's parity and, per power,
    max(0, weight of its generator) as raising peak.
    """
    return ([(f"A{j}", 2 * j) for j in sorted(A_sup)]
            + [(f"M{j}", 2 * j - 1) for j in sorted(M_sup)]
            + [(f"B{j}", -2 * j) for j in sorted(B_sup)]
            + [(f"N{j}", 1 - 2 * j) for j in sorted(N_sup)])


def solver_spec(A_sup, M_sup, B_sup, N_sup, degree_cap: int) -> ParamSpec:
    symbols = [(name, gen_parity(g), True)
               for name, g in _families(A_sup, M_sup, B_sup, N_sup)]
    return ParamSpec(symbols + [("c", 0, False), ("h", 0, False)], degree_cap)


def _graded(vec: dict, keep) -> dict:
    """{position: GradedPoly} as a graded vector: (position, capped degree,
    doubled raising peak, 0 without a budget) -> terms dict."""
    out: dict = {}
    for i, q in vec.items():
        degree = q.spec.degree
        for key, c in q.terms.items():
            out.setdefault((i, degree(key), keep[0](key) if keep else 0), {})[key] = c
    return out


def _exp_graded(action, terms, vec: dict, degree_cap: int, keep) -> dict:
    """exp(sum coeff*gen) applied to a graded vector, truncated by the
    parameter cap and, given a trust budget keep = (peak2, limit, lift), by
    it.  action is the Verma module or the adjoint action (_Adjoint): each
    acts by position through a memoized apply_gen(gen, i) -> {position:
    value}.  A value is a GradedPoly, which a product is multiplied by, or
    a canonical rational, which it is scaled by, as is a one-term scalar
    GradedPoly: within the cap that product is the scaling.

    Each coeff is split by (degree, peak) once.  A part of degree dp meets
    an entry of degree dq only when dp + dq <= degree_cap, and only when
    their peaks sum within the limit: products over either bound would be
    dropped, so they are never formed (degrees and peaks add, and peaks are
    never negative).  Given a lift, an output at position j is kept only
    when its peak plus lift[j] is within the limit too.  The matrix
    elements of gen have degree 0 and peak 0, so p * q * element lands
    where p * q does.  An odd gen meets the entries parity-twisted (the
    Koszul sign of moving it past them).  Every coeff has capped degree
    >= 1, so the k-th power of the exponent dies past the cap at
    k = degree_cap + 1 at the latest; a series still alive then raises
    instead of being cut.  An entry at position i fetches the row
    action.apply_gen(gen, i) when a part first reaches it, before any
    product, so an empty row costs none.  Parts emptied by cancellation are
    dropped from the result.
    """
    spec, product = action.spec, action.one._product
    limit, lift = (keep[1], keep[2]) if keep else (0, None)
    blocks = []  # (gen, odd, [((degree, peak), terms)] by degree)
    for g, p in terms:
        action.one._check(p)
        parts: dict = {}
        for (_, d, pk), t in _graded({0: p}, keep).items():
            if pk <= limit:
                parts[(d, pk)] = t
        if parts:
            blocks.append((g, gen_parity(g), sorted(parts.items())))
    cur, acc = vec, dict(vec)
    for k in range(1, degree_cap + 2):
        nxt: dict = {}
        for (i, dq, pq), qt in cur.items():
            twisted = None
            for g, odd, parts in blocks:
                row = None
                for (dp, pp), pt in parts:
                    if dp + dq > degree_cap:
                        break
                    pk = pp + pq
                    if pk > limit:
                        continue
                    if row is None:
                        row = action.apply_gen(g, i)
                    if not row:
                        break
                    if odd and twisted is None:
                        twisted = {key: -c if spec.odd(key) else c for key, c in qt.items()}
                    pre = product({}, pt, twisted if odd else qt)
                    if not pre:
                        continue
                    for j, r in row.items():
                        if lift is not None and pk + lift[j] > limit:
                            continue
                        key = (j, dp + dq, pk)
                        if type(r) is GradedPoly:
                            rt = r.terms
                            if len(rt) != 1 or _SCALAR not in rt:
                                product(nxt.setdefault(key, {}), pre, rt)
                                continue
                            r = rt[_SCALAR]
                        tgt = nxt.get(key)
                        if tgt is None:
                            nxt[key] = _scaled(pre, r)
                        else:  # tgt += pre * r, in canonical form
                            for m, c in pre.items():
                                c = c * r
                                add_term(tgt, m, c if type(c) is int else as_rational(c))
        cur = {key: t for key, t in nxt.items() if t}
        if not cur:
            return {key: t for key, t in acc.items() if t}
        for key, t in cur.items():
            if k > 1:  # 1/k in place, keeping the coefficient form
                for kk, c in t.items():
                    if type(c) is int:
                        t[kk] = Fraction(c, k) if c % k else c // k
                    else:
                        c = c / k
                        t[kk] = c.numerator if c.denominator == 1 else c
            acc[key] = add_terms(acc[key], t) if key in acc else t
    raise SewingError(f"exponential series still nonzero after {degree_cap + 1} rounds")


class _ByPosition(dict):
    """An attribute of each adjoint position j, rule(j) computed on first
    read and kept; c, at C_GEN, has 0."""

    def __init__(self, rule):
        super().__init__({C_GEN: 0})
        self.rule = rule

    def __missing__(self, j):
        v = self[j] = self.rule(j)
        return v


class _Adjoint:
    """The NS algebra acting on itself by the superbracket, in the form
    _exp_graded reads.

    A generator is its own position: nsalg's int doubled index, X(n) at 2n,
    and c at C_GEN.  That is the k2 of vosa.jacobi_check, which the layer
    rule keeps vosa from importing.  apply_gen(g, j) is [g, X] for the X at
    position j, the structure constants of nsalg.bracket_constants as
    canonical rationals, memoized as the Verma module's rows are, which
    _exp_graded scales a part by.  lift[j] is max(j, 0): a lowering X(n)
    kills every state below level n.
    """

    def __init__(self, spec: ParamSpec):
        self.spec = spec
        self.one = GradedPoly.scalar(spec, 1)
        self.lift = _ByPosition(lambda j: max(j, 0))
        self._memo: dict = {}

    def apply_gen(self, g, j) -> dict:
        key = (g, j)
        r = self._memo.get(key)
        if r is None:
            r = self._memo[key] = {h: as_rational(v) for h, v in bracket_constants(g, j).items()}
        return r


class _Factorization:
    """Shared machinery for the left side, the ansatz, and the reads."""

    def __init__(self, A_sup, M_sup, B_sup, N_sup, D: int, W):
        families = _families(A_sup, M_sup, B_sup, N_sup)
        self.spec = spec = solver_spec(A_sup, M_sup, B_sup, N_sup, D)
        self.D = D
        self.W = Fraction(W)
        self.module = VermaModule(spec, GradedPoly.symbol(spec, "c"),
                                  GradedPoly.symbol(spec, "h"), self.W)
        self.adjoint = _Adjoint(spec)
        self.left_conjugate = None  # Ad(L(0)) of the left side, built once at full D
        terms = [(g, -GradedPoly.symbol(spec, name)) for name, g in families]
        self.low_terms = [(g, p) for g, p in terms if g > 0]
        # a0^(-L(0)) moved right of the raising exponential takes X(g/2) to
        # alpha0^(g/2) X(g/2): B_j -> alpha0^-j B_j, N_j -> alpha0^(1/2-j) N_j
        self.raise_terms = [(g, p * GradedPoly.alpha(spec, g)) for g, p in terms if g < 0]
        # twice each symbol's raising peak (c and h come last, with 0); the
        # memo of term peaks is this ring's alone
        doubled = [max(0, -g) for _, g in families] + [0, 0]
        self._peak2 = functools.cache(lambda k: sum(doubled[i] * e for i, e in spec.exponents(k)))
        # the left side on the highest-weight column, level-0 budget; solve and check read it
        self.left_column = self.lhs({0: self.module.one}, 0)

    def _keeper(self, level, lift=None):
        """The trust budget of a column of this level: (peak2, limit, lift),
        which keeps a monomial m when peak2(m) <= limit; None for level None.
        Given the adjoint lift, the budget of a conjugate Ad(g) of a
        generator g of this level: a term m X at position j is visible when
        peak2(m) + lift[j] <= limit.

        Peaks add up under multiplication and are never negative, so a term
        over the column's budget only feeds terms over it: dropping it early
        leaves every certified coefficient of lhs and rhs unchanged.
        """
        if level is None:
            return None
        return self._peak2, math.floor(2 * (self.W - level)), lift

    def trusted(self, p: GradedPoly, level) -> GradedPoly:
        """The terms of p certified at a column of this level: level + peak <= W."""
        peak2, limit, _ = self._keeper(level)
        return GradedPoly(p.spec, {k: c for k, c in p.terms.items() if peak2(k) <= limit})

    def lhs(self, vec: dict, level=None) -> dict:
        """The left side on vec {position: GradedPoly}, as a graded vector;
        given a level, only its certified terms."""
        keep = self._keeper(level)
        return self._left(self.module, _graded(vec, keep), keep)

    def _left(self, action, vec: dict, keep) -> dict:
        """The left side's stages on a graded vector: raising exponential,
        with the reduced diagonal conjugated into its terms, then lowering
        exponential."""
        out = _exp_graded(action, self.raise_terms, vec, self.D, keep)
        return _exp_graded(action, self.low_terms, out, self.D, keep)

    def rhs(self, psi: dict, gamma: GradedPoly, vec: dict, level=None) -> dict:
        """The ansatz side on vec, as lhs."""
        keep = self._keeper(level)
        return self._ansatz(self.module, psi, gamma, _graded(vec, keep), self.D, keep)

    def _ansatz(self, action, psi: dict, gamma: GradedPoly, vec: dict, cap: int,
                keep=None) -> dict:
        """The ansatz stages on a graded vector, cut at capped degree cap;
        degrees add, so its parts are the full side's of degree <= cap."""
        low, raise_ = [], []
        for k, p in psi.items():
            if k and p:
                (low if k > 0 else raise_).append((int(2 * k), p))
        out = _exp_graded(action, [(C_GEN, gamma)], vec, cap, keep)
        out = _exp_graded(action, [(L(0), psi[Fraction(0)])], out, cap, keep)
        out = _exp_graded(action, low, out, cap, keep)
        return _exp_graded(action, raise_, out, cap, keep)

    def conjugates(self, psi: dict, gamma: GradedPoly, cap: int) -> tuple:
        """The visible terms of Ad(L(0)) = X L(0) X^-1 for the left side X
        and for the ansatz cut at capped degree cap, as graded vectors over
        the adjoint action.

        Each side runs its stages on L(0) as nested exp(ad Z), as lhs and
        rhs run them on a column; Gamma c is central, so its stage is the
        identity.  The left one does not depend on Psi: it is built once,
        at full D, and kept in left_conjugate, so the solve's D reads and
        the check share one.
        """
        adj = self.adjoint
        keep = self._keeper(0, adj.lift)
        vec = _graded({L(0): adj.one}, keep)
        if self.left_conjugate is None:
            self.left_conjugate = self._left(adj, vec, keep)
        return self.left_conjugate, self._ansatz(adj, psi, gamma, vec, cap, keep)


def sw_solve(A_sup, M_sup, B_sup, N_sup, D: int = 3, W=6) -> SewingSeries:
    """Solve the factorization order by order in total parameter degree.

    A_sup/M_sup/B_sup/N_sup are the index supports (j >= 1) of the four
    formal families.  Returns the unique (Psi, Gamma) with every
    coefficient restricted to the parameter monomials certifiable at
    weight cap W.  Step d reads degree d only, off the ansatz cut at
    degree d: the raising slots, Psi_0 and Gamma off the highest-weight
    column, and every lowering slot psi_k off the X(k) coordinate of
    Ad(L(0)).  There psi_k enters degree d only as [psi_k X(k), L(0)] =
    k psi_k X(k), since the diagonal stages commute with L(0) and further
    brackets raise the degree; m X(k) is visible exactly when it is
    certified at level k, so the read needs no trust filter.
    """
    fact = _Factorization(A_sup, M_sup, B_sup, N_sup, D, W)
    spec, module = fact.spec, fact.module
    zero = GradedPoly(spec)
    # the one-letter columns by level k: column i holds the letter psi[-k] scales
    cols = {gen_weight(w[0]): i for i, w in enumerate(module.basis) if len(w) == 1}
    psi: dict = {Fraction(0): zero}
    for k in cols:
        psi[k] = psi[-k] = zero
    gamma = zero

    def at_degree(side, d):  # the degree-d terms by position, over every peak
        out: dict = {}
        for (j, dj, _), t in side.items():
            if dj == d:
                out.setdefault(j, {}).update(t)
        return out

    def read(lhs, rhs, i):  # lhs - rhs at position i
        out = dict(lhs.get(i, ()))
        add_scaled(out, rhs.get(i, {}), -1)
        return GradedPoly(spec, out)

    # the highest-weight vector: the empty word, first in the level-sorted basis
    hw = {0: module.one}
    lhs_hw = fact.left_column
    for d in range(1, fact.D + 1):
        rhs_hw = fact._ansatz(module, psi, gamma, _graded(hw, None), d)
        lhs_d, rhs_d = at_degree(lhs_hw, d), at_degree(rhs_hw, d)
        # raising slots from the highest-weight column
        for k, i in cols.items():
            res = read(lhs_d, rhs_d, i)
            if res:
                _assert_ch_free(res)
                psi[-k] = psi[-k] + fact.trusted(res, 0)
        # diagonal block: h reads psi0, c reads gamma
        res = read(lhs_d, rhs_d, 0)
        if res:
            h_lin = res.coefficient({"h": 1, "c": 0})
            c_lin = res.coefficient({"h": 0, "c": 1})
            psi[Fraction(0)] = psi[Fraction(0)] + fact.trusted(h_lin, 0)
            gamma = gamma + fact.trusted(c_lin, 0)
            leftover = res - h_lin * GradedPoly.symbol(spec, "h") \
                - c_lin * GradedPoly.symbol(spec, "c")
            if leftover:
                raise SewingError(
                    f"diagonal read at degree {d} has unexpected terms: {leftover!r}")
        # lowering slots from Ad(L(0)): X(k) sits at adjoint position 2k
        left, right = (at_degree(side, d) for side in fact.conjugates(psi, gamma, d))
        for k in cols:
            res = read(left, right, int(2 * k))
            if res:
                psi[k] = psi[k] + res * (1 / k)
    return SewingSeries(fact, psi, gamma)


def _assert_ch_free(p: GradedPoly):
    if p.coefficient({"c": 0, "h": 0}) != p:
        raise SewingError(f"raising read produced (c,h)-dependent terms: {p!r}")


def sw_consistency_check(series: SewingSeries, A_sup, M_sup, B_sup, N_sup) -> bool:
    """Back-substitute: both sides must agree on every certified monomial.

    A certificate on one conjugate: both sides must agree on the certified
    terms of the highest-weight column, and on the visible terms of
    Ad(L(0)) (conjugates, at full D), m X(n) with peak(m) + max(n, 0) <= W.

    Sound, in truncated form, with X the left side and Y the ansatz.  Grade
    m X(n) by peak(m) + n.  X's exponent terms have grade >= 0 and brackets
    add grades, so every raising term m X(n) of Ad_X(L(0)) has
    peak(m) >= -n: no visible coordinate lies beyond level W.  A slot term
    of Y of negative grade would show, at its lowest degree, as a visible
    term of Ad_Y(L(0)) that X lacks.  So once the conjugates agree, both
    sides live in the grade >= 0 algebra, where the invisible terms span an
    ideal J (each side drops them as soon as they are formed), and
    Z = Y^-1 X has Ad_Z L(0) = L(0) mod J.  ad L(0) acts on X(n) by -n, so
    its centralizer is span{L(0), c}, and by induction on degree
    log Z = a L(0) + b c mod J.  On a column of level l, J reaches only
    terms of peak > W - l, since a lowering X(n) kills every state below
    level n, so Z scales the column's certified terms by
    e^(a (h + l) + b c).  On the highest-weight column that is 1, and h
    and c are formal, so a and b have no term of peak <= W: every
    certified column coefficient agrees.  The terms the solve left out of
    Psi (raising and diagonal terms of peak > W, lowering psi_k terms of
    peak > W - k) lie in J, so true solutions pass.
    The check runs on the series' own module: supports that name another
    ring raise SewingError.
    """
    fact, psi, gamma = series.fact, series.psi, series.gamma
    if solver_spec(A_sup, M_sup, B_sup, N_sup, fact.D) != fact.spec:
        raise SewingError("the supports name another ring than the series'")
    if fact.left_column != fact.rhs(psi, gamma, {0: fact.module.one}, 0):
        return False
    left, right = fact.conjugates(psi, gamma, fact.D)
    return left == right


def sw_gamma2(A_sup, M_sup, B_sup, N_sup, D: int = 3) -> GradedPoly:
    """Closed-form degree-2 part of Gamma: the cross terms of matching index."""
    spec = solver_spec(A_sup, M_sup, B_sup, N_sup, D)
    out = GradedPoly(spec)
    for j in sorted(set(A_sup) & set(B_sup)):
        coeff = Fraction(j ** 3 - j, 12)
        if coeff:
            term = GradedPoly.symbol(spec, f"A{j}") * GradedPoly.symbol(spec, f"B{j}")
            out = out + term * coeff * GradedPoly.alpha(spec, -2 * j)
    for j in sorted(set(M_sup) & set(N_sup)):
        coeff = Fraction(j * j - j, 3)
        if coeff:
            term = GradedPoly.symbol(spec, f"N{j}") * GradedPoly.symbol(spec, f"M{j}")
            out = out + term * coeff * GradedPoly.alpha(spec, 1 - 2 * j)
    return out


def sw_t_series(local_i: CoordData, inf_0: InfCoordData, partials: int,
                D: int = 3, W=6) -> list:
    """Partial sums at t = 1 of Gamma with alpha0 -> a0/t.

    The substitution alpha0^(-e) -> t^e a0^(-e) grades Gamma by powers of
    t^(1/2); at the truncation the series is a polynomial, so the partial
    sums stabilize exactly at the last one.
    """
    sources = (local_i.A, local_i.M, inf_0.B, inf_0.N)
    sups = [sorted(src) for src in sources]
    series = sw_solve(*sups, D, W)
    given = [src[j] for src, sup in zip(sources, sups) for j in sup]
    values = {name: v for (name, _), v in zip(_families(*sups), given)}
    # alpha0^(a/2) at a0/t is t^(-a/2) a0^(a/2): one t-power per alpha0 exponent
    by_alpha: dict[int, dict] = {}
    for key, c in series.gamma.terms.items():
        by_alpha.setdefault(series.spec.alpha(key), {})[key] = c
    sums = []
    total = GrassmannElement(local_i.L)
    for a in sorted(by_alpha, reverse=True):
        total = total + GradedPoly(series.spec, by_alpha[a]).substitute(values, local_i.a0)
        sums.append(total)
    return [sums[k] if k < len(sums) else total for k in range(partials)]
