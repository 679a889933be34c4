"""Vertex operator superalgebras with odd formal variables, at a weight cap.

The concrete instance is the free boson tensor free fermion Fock space
with the odd superconformal vector built from the two weight-creating
modes.  Vertex operators of composite states come from the standard
field-product recursion; every axiom checker below expands the defining
identities independently, so construction and verification stay separate
routes.

Conventions: a vertex operator is written sum v_n x^(-n-1) plus
phi sum v_(n-1/2) x^(-n-1); a mode n in (1/2)Z is keyed by the doubled int
k2 = 2n, even in the x sector and odd in the phi sector, and a Fock state's
fermion part r by the odd int 2r.  The binomial
(x - y)^n always expands in nonnegative powers of the second variable.
"""

from __future__ import annotations

import collections
import functools
import itertools
from fractions import Fraction

from .sparse import add_scaled, add_terms, binom, scaled

HALF = Fraction(1, 2)


def _k2(k) -> int:
    """The doubled int key 2k of a mode index k in (1/2)Z, given as an int
    or a Fraction; any other k, a bool or a float among them, raises
    ValueError instead of being read at a converted key."""
    if type(k) is bool or not isinstance(k, (int, Fraction)):
        raise ValueError(f"{k!r} is not an int or a Fraction")
    if (k2 := int(2 * k)) != 2 * k:
        raise ValueError(f"{k!r} is not in (1/2)Z")
    return k2


@functools.cache
def signed_binom(n: int, k: int) -> int:
    """(-1)^k C(n, k) for an int n and k >= 0, as an int."""
    out = binom(n, k).numerator
    return -out if k & 1 else out


# ----------------------------------------------------------------------
# Fock space of one free boson and one free fermion
# ----------------------------------------------------------------------


class FockSpace:
    """Basis states (boson partition, doubled fermion parts), weight capped.

    Boson parts are positive integers in weakly decreasing order; a fermion
    part r is stored as the odd int 2r, the parts distinct and decreasing.
    The state is the corresponding product of creation modes on the vacuum,
    fermions leftmost-largest.  weights2 and cap2 are the doubled weights
    and cap; weights is derived from weights2.  The cap is an int or a
    Fraction in (1/2)Z, at least 0; any other cap raises ValueError.
    """

    def __init__(self, weight_cap):
        # read like a mode index, so that cap2 is exactly twice cap; a
        # negative cap would leave no vacuum
        self.cap2 = cap2 = _k2(weight_cap)
        if cap2 < 0:
            raise ValueError(f"weight cap {weight_cap!r} is negative")
        self.cap = Fraction(cap2, 2)
        bosons = self._boson_partitions(cap2 >> 1)
        self.states = sorted(((b, f) for f in self._fermion_subsets(cap2) for b in bosons
                              if 2 * sum(b) + sum(f) <= cap2),
                             key=lambda s: (2 * sum(s[0]) + sum(s[1]), s))
        self.index = {s: i for i, s in enumerate(self.states)}
        self.weights2 = [2 * sum(b) + sum(f) for b, f in self.states]
        self.weights = [Fraction(w2, 2) for w2 in self.weights2]
        self.signs = [len(f) & 1 for _, f in self.states]
        self._acts: dict = {}

    @staticmethod
    def _boson_partitions(cap: int):
        # an explicit stack: a closure that calls itself would be a reference
        # cycle left for the cyclic collector after every call
        out = []
        stack = [((), cap, cap)]
        while stack:
            prefix, largest, left = stack.pop()
            out.append(prefix)
            for part in range(min(largest, left), 0, -1):
                stack.append((prefix + (part,), part, left - part))
        return out

    @staticmethod
    def _fermion_subsets(cap2: int):
        parts = range(1, cap2 + 1, 2)
        return [combo[::-1] for size in range(len(parts) + 1)
                for combo in itertools.combinations(parts, size) if sum(combo) <= cap2]

    def vacuum(self) -> int:
        return self.index[((), ())]

    # -- free mode actions ------------------------------------------------

    def boson_act(self, m: int, idx: int) -> dict:
        """alpha_m on a basis state; [alpha_m, alpha_n] = m delta_{m+n,0}."""
        b, f = self.states[idx]
        if m == 0:
            return {}
        if m < 0:
            part = -m
            nb = tuple(sorted(b + (part,), reverse=True))
            key = (nb, f)
            tgt = self.index.get(key)
            return {} if tgt is None else {tgt: 1}
        if m not in b:
            return {}
        mult = b.count(m)
        nb = list(b)
        nb.remove(m)
        tgt = self.index.get((tuple(nb), f))
        return {} if tgt is None else {tgt: m * mult}

    def gen_act(self, odd: int, m: int, idx: int) -> dict:
        """alpha_m (odd = 0) or psi_(m+1/2) (odd = 1) on a basis state, memoized."""
        key = (odd, m, idx)
        hit = self._acts.get(key)
        if hit is None:
            hit = self._acts[key] = (self.fermion_act(2 * m + 1, idx) if odd
                                     else self.boson_act(m, idx))
        return hit

    def fermion_act(self, r2: int, idx: int) -> dict:
        """psi_r on a basis state, r2 = 2r odd; {psi_r, psi_s} = delta_{r+s,0}."""
        b, f = self.states[idx]
        create = r2 < 0
        part = -r2 if create else r2
        if (part in f) == create:  # a part is created if absent, removed if present
            return {}
        nf = tuple(sorted(f + (part,), reverse=True)) if create else tuple(x for x in f if x != r2)
        tgt = self.index.get((b, nf))
        bigger = sum(1 for s in f if s > part)
        return {} if tgt is None else {tgt: -1 if bigger & 1 else 1}


class VertexData:
    """A weight-truncated vertex operator superalgebra with odd variables.

    Modes are keyed by the doubled int k2 = 2k from the override dict to
    mode_apply_vec: even k2 reads the x sector, odd k2 the phi sector
    (populated as the modes of the G(-1/2)-image, the odd-variable dressing
    of the underlying structure).  mode_col, mode_apply, with_override,
    G_apply and L_apply take k itself, an int or a Fraction, and convert it
    once with _k2, which rejects a k outside (1/2)Z.  Overrides support automorphisms and
    mutation tests without copying the recursion caches.  Mode columns have
    int coefficients.

    Cache rule: copies share only _xmode_cache, the x-sector recursion,
    which depends on the Fock space alone.  _gimg_cache (G(-1/2) images)
    and _phi_cache (the columns at odd k2) read tau and start empty in
    each copy.  Neither holds an override: _x_col, which builds both, reads
    the recursion alone, and _k2_col reads overrides first.
    """

    def __init__(self, space: FockSpace, tau_vec: dict, central_charge=None,
                 has_odd: bool = True):
        self.space = space
        self.tau = dict(tau_vec)
        self.cc = central_charge
        self.has_odd = has_odd
        self._xmode_cache: dict = {}
        self._gimg_cache: dict = {}
        self._phi_cache: dict = {}
        self._overrides: dict = {}

    # -- structure ----------------------------------------------------------

    def vacuum_index(self) -> int:
        return self.space.vacuum()

    def weight(self, i: int) -> Fraction:
        return self.space.weights[i]

    def sign(self, i: int) -> int:
        return self.space.signs[i]

    def dim(self) -> int:
        return len(self.space.states)

    def basis_indices(self, max_weight=None):
        if max_weight is None:
            return range(self.dim())
        mw = Fraction(max_weight)
        return [i for i in range(self.dim()) if self.space.weights[i] <= mw]

    def copy(self) -> "VertexData":
        out = VertexData(self.space, self.tau, self.cc, self.has_odd)
        out._xmode_cache = self._xmode_cache
        out._overrides = dict(self._overrides)
        return out

    # -- raw x-sector modes of basis states (field-product recursion) -------

    def _xmode_col(self, v_idx: int, n: int, col: int) -> dict:
        """The column v_(n) col of the x-sector recursion, memoized.

        v_(n) col has doubled weight weights2[v] + weights2[col] - 2n - 2;
        outside [0, cap2] no basis state has that weight, so the column is
        {} and the recursion stops there.  That is exact: the free actions
        are graded, every intermediate of _product_mode_col weighs at most
        the output, and no override is read here."""
        key = (v_idx, n, col)
        hit = self._xmode_cache.get(key)
        if hit is not None:
            return hit
        space = self.space
        b, f = space.states[v_idx]
        if not 0 <= space.weights2[v_idx] + space.weights2[col] - 2 * n - 2 <= space.cap2:
            out = {}
        elif not b and not f:
            out = {col: 1} if n == -1 else {}
        elif b:
            # peel alpha_(-k): v = boson_(-k) v'
            k = b[0]
            rest = space.index[(b[1:], f)]
            out = self._product_mode_col(0, -k, rest, n, col)
        else:
            # peel psi_(-r): v = psi_(-r) v', the field's x mode -(r + 1/2)
            rest = space.index[(b, f[1:])]
            out = self._product_mode_col(1, -((f[0] + 1) >> 1), rest, n, col)
        self._xmode_cache[key] = out
        return out

    def _product_mode_col(self, odd: int, p: int, w_idx: int, m: int, col: int) -> dict:
        """(gen_(p) w)_(m) column via the field-product expansion, p < 0, gen
        the boson (odd = 0) or the fermion (odd = 1).  x_(n) kills a state of
        weight h once n + 1 > wt(x) + h: both sums stop there (doubled ints).
        Term 1's w_(m+j) col weighs j - p less than the output, and term 2
        reads w on gen_(j) col, at most col's weight: so an output inside the
        cap needs no column outside it, and _xmode_col's graded exit loses
        nothing."""
        space = self.space
        act = space.gen_act
        col2 = space.weights2[col]
        out: dict = {}
        # term 1: gen_(p-j) w_(m+j)
        for j in range((col2 + space.weights2[w_idx]) // 2 - m):
            cb = signed_binom(p, j)
            for mid, c in self._xmode_col(w_idx, m + j, col).items():
                add_scaled(out, act(odd, p - j, mid), c * cb)
        # term 2: -(-1)^(p + sgn) w_(p+m-j) gen_(j)
        sign = 1 if (p + odd * space.signs[w_idx]) & 1 else -1
        for j in range((col2 + 2 - odd) // 2):
            cb = sign * signed_binom(p, j)
            for mid, c in act(odd, j, col).items():
                add_scaled(out, self._xmode_col(w_idx, p + m - j, mid), c * cb)
        return out

    # -- public mode application --------------------------------------------

    def mode_col(self, v_idx: int, k, col: int) -> dict:
        """One column of the mode matrix of a basis state at the key k in
        (1/2)Z, an int or a Fraction: 1, Fraction(1) and Fraction(2, 2) all
        read the doubled key 2."""
        return self._k2_col(v_idx, _k2(k), col)

    def _k2_col(self, v_idx: int, k2: int, col: int) -> dict:
        """The mode column at the doubled key k2, overrides applied."""
        if self._overrides:
            ov = self._overrides.get((v_idx, k2, col))
            if ov is not None:
                return ov
        if not k2 & 1:
            return self._xmode_col(v_idx, k2 >> 1, col)
        if not self.has_odd:
            return {}
        # the phi mode k is the x mode k + 1/2 of the G(-1/2) image
        key = (v_idx, (k2 + 1) >> 1, col)
        hit = self._phi_cache.get(key)
        if hit is None:
            hit = self._phi_cache[key] = self._x_col(self._g_minus_half_image(v_idx),
                                                     key[1], col)
        return hit

    def _x_col(self, v_vec: dict, n: int, col: int) -> dict:
        """Integer mode n of the vector v_vec on one column, from the x-sector
        recursion alone: no override is read."""
        out: dict = {}
        for v_idx, cv in v_vec.items():
            add_scaled(out, self._xmode_col(v_idx, n, col), cv)
        return out

    def _g_minus_half_image(self, v_idx: int) -> dict:
        hit = self._gimg_cache.get(v_idx)
        if hit is None:
            hit = self._gimg_cache[v_idx] = self._x_col(self.tau, 0, v_idx)
        return hit

    def mode_apply_vec(self, v_vec: dict, k2: int, vec: dict) -> dict:
        """Mode k2 / 2 of a vector v applied to a vector, linear in both
        slots; k2 is the doubled int key."""
        col_of = self._k2_col
        out: dict = {}
        for v_idx, cv in v_vec.items():
            for col, cw in vec.items():
                add_scaled(out, col_of(v_idx, k2, col), cv * cw)
        return out

    def mode_apply(self, v_idx: int, k, vec: dict) -> dict:
        return self.mode_apply_vec({v_idx: 1}, _k2(k), vec)

    # -- Neveu-Schwarz modes from tau ----------------------------------------

    def G_apply(self, r, vec: dict) -> dict:
        r2 = _k2(r)
        if not r2 & 1:
            raise ValueError("G index must be half-odd")
        return self.mode_apply_vec(self.tau, r2 + 1, vec)

    def L_apply(self, n: int, vec: dict) -> dict:
        n2 = _k2(n)
        if n2 & 1:
            raise ValueError("L index must be an integer")
        return scaled(self._L2_apply(n2, vec), HALF)

    def _L2_apply(self, n2: int, vec: dict) -> dict:
        """2L(n) applied to vec, n2 = 2n: int columns give int coefficients."""
        g, tau = self.mode_apply_vec, self.tau
        if self.has_odd:
            return g(tau, n2 + 1, vec)
        # without odd variables: 2L(n) = {G(-1/2), G(n+1/2)}, never central
        return add_terms(g(tau, 0, g(tau, n2 + 2, vec)), g(tau, n2 + 2, g(tau, 0, vec)))

    def compute_central_charge(self) -> Fraction:
        """Read c from [2L(2), 2L(-2)] = 16 L(0) + 2c on the vacuum."""
        vac = self.vacuum_index()
        down = self._L2_apply(4, self._L2_apply(-4, {vac: 1}))
        return Fraction(down.get(vac, 0), 2)

    def with_override(self, v_idx: int, k, col: int, column: dict) -> "VertexData":
        out = self.copy()
        out._overrides[(v_idx, _k2(k), col)] = dict(column)
        return out


def fixture_boson_fermion(weight_cap) -> VertexData:
    """The free boson-fermion instance, superconformal vector included.

    The odd weight-3/2 state built from the two creation modes serves as
    tau; the central charge is computed from the bracket, not asserted.
    """
    space = FockSpace(weight_cap)
    if space.cap < 2:
        raise ValueError("weight cap too small to hold the superconformal vector")
    tau_idx = space.index[((1,), (1,))]
    V = VertexData(space, {tau_idx: 1}, None, has_odd=True)
    V.cc = V.compute_central_charge()
    return V


# ----------------------------------------------------------------------
# functors between the flavors and the sign automorphism
# ----------------------------------------------------------------------


def convert_F1(V: VertexData) -> VertexData:
    """Forget the odd-variable modes."""
    out = V.copy()
    out.has_odd = False
    return out


def convert_F2(V: VertexData) -> VertexData:
    """Dress with odd variables: the phi modes become modes of the
    G(-1/2)-image."""
    out = V.copy()
    out.has_odd = True
    return out


def automorphism_J(V: VertexData) -> VertexData:
    """The sign automorphism: negate tau, keeping V's flavor.

    With odd variables the phi modes are the modes of the tau-derived
    odd-derivation image, so negating tau flips exactly them and fixes the
    x sector; without odd variables only tau changes.
    """
    out = V.copy()
    out.tau = scaled(V.tau, -1)
    return out


# ----------------------------------------------------------------------
# the Jacobi identity checker
# ----------------------------------------------------------------------


JACOBI_WINDOW = 2  # |exponent| bound on x0, x1 and x2 in the matched monomials
JACOBI_FAILURES = 4  # failing bins collected before the check returns


def jacobi_check(V: VertexData, u: int, v: int) -> dict:
    """Expand all three terms of the odd-variable Jacobi identity and match
    coefficients of x0^a x1^b x2^c in each phi sector.

    The inputs w are the basis states of weight <= min(cap, 2); a, b and c
    run over [-JACOBI_WINDOW, JACOBI_WINDOW].  Bins are asserted only where
    every internal sum provably stays inside the weight cap; the rest are
    counted as skipped.  That test is one bound on each of a, b and c plus
    tests on the phi powers, so for each w and (e1, e2) the asserted bins
    form a box A x B x C: checked is the sum of the box volumes and skipped
    the rest of the window.

    The two left-hand terms are one expansion of
    delta((x1 - x2 - phi1 phi2)/x0) applied to "x_(.) y_(.) w", once with
    (x, y) = (u, v) and once, subtracted, with the roles exchanged; the
    local kernel ordered() runs both, and uv_sum() runs the right-hand
    term.  Each walks its k-sum once per box row and adds every nonzero
    product straight into its bin, so a bin no product reaches costs
    nothing.

    All arithmetic on indices is on integers: a mode key k in (1/2)Z is
    carried as the doubled int k2 = 2k from the memos below through
    mode_apply_vec to the override and column reads, weights and the cap
    are doubled for the soundness test, and the signed binomials
    (-1)^k C(n, k) are ints.

    Each k-sum forms only its nonzero products.  It stops at the last k
    whose signed binomial is nonzero, up to the largest cut over the box's
    rows, and skips a k whose memoized inner vector (y_(.) w, or u_(.) v
    in term 3) is zero.  That test reads the columns themselves, overrides
    included, not a grading bound, so it skips exactly the products that
    are zero in any VertexData, and every column read is one that the sums
    over every k of every asserted bin read.

    A bin fails when its sum is nonzero.  Failures are taken in the order
    w, a, b, c, then (e1, e2) in (0, 0), (1, 0), (0, 1), (1, 1); the check
    returns at the (JACOBI_FAILURES + 1)-th, reporting the first
    JACOBI_FAILURES and the bins checked and skipped up to that one in
    this order.
    """
    cap2 = V.space.cap2
    eu, ev = V.sign(u), V.sign(v)
    wtu2, wtv2 = V.space.weights2[u], V.space.weights2[v]
    wt2_of = {u: wtu2, v: wtv2}
    rng = range(-JACOBI_WINDOW, JACOBI_WINDOW + 1)
    phis = ((0, 0), (1, 0), (0, 1), (1, 1))
    checked = skipped = 0
    failures = []
    apply = V.mode_apply_vec

    def upto(top2):
        """The exponents e of the window with 2e <= top2, in ascending order."""
        return range(-JACOBI_WINDOW, min(JACOBI_WINDOW, top2 // 2) + 1)

    @functools.cache
    def inner_uv(kj2):
        return apply({u: 1}, kj2, {v: 1})

    for w in V.basis_indices(min(V.space.cap, 2)):
        wt2 = V.space.weights2[w]
        wvec = {w: 1}

        @functools.cache
        def on_w(x, kx2):
            return apply({x: 1}, kx2, wvec)

        @functools.cache
        def nested(x, kx2, y, ky2):
            base = on_w(y, ky2)
            return apply({x: 1}, kx2, base) if base else {}

        @functools.cache
        def outer(kj2, km2):
            base = inner_uv(kj2)
            return apply(base, km2, wvec) if base else {}

        def ordered(x, y, rows, bxs, cys, ex, ey, swap):
            """Add f signed_binom(m, k) x_(m-k-bx-1-ex/2) y_(k-cy-1-ey/2) w,
            for every k below the binomial's cut, into bin (a, bx, cy), or
            (a, cy, bx) when swap, for each row (a, m, f) and each bx, cy:
            x's modes go with the outer variable pair (power bx, phi power
            ex), y's with the inner one (cy, ey).  The delta expansion's
            main part has m = n = -a - 1; its phi1 phi2 part is the same sum
            at m = n - 1, with ex = ey = 0."""
            for cy in cys:
                kmax = (wt2 + wt2_of[y] + 2 * cy + 4) // 2 + 1
                cut = [(a, m, f, kmax if m < 0 else min(kmax, m + 1)) for a, m, f in rows]
                base2 = -2 * cy - 2 - ey
                for k in range(max(kb for *_, kb in cut)):
                    ky2 = base2 + 2 * k
                    if not on_w(y, ky2):
                        continue
                    for a, m, f, kb in cut:
                        if k >= kb:
                            continue
                        coeff = signed_binom(m, k) * f
                        kx2 = 2 * (m - k - 1) - ex
                        for bx in bxs:
                            if prod := nested(x, kx2 - 2 * bx, y, ky2):
                                add_scaled(box[(a, cy, bx) if swap else (a, bx, cy)],
                                           prod, coeff)

        def uv_sum(rows, bs, cs, ej, em, f):
            """Add f signed_binom(b + k, k) (u_(k-a-1-ej/2) v)_(-b-c-2-k-em/2) w,
            for every k below the binomial's cut, into bin (a, b, c); f None
            weighs by b + k + 1 instead, for the phi1 phi2 part."""
            for a in rows:
                kmax3 = (wtu2 + wtv2 + 2 * a + 4) // 2 + 1
                # the signed binomial (-1)^k C(b + k, k) vanishes from k = -b
                # on when b < 0
                cut = [(b, kmax3 if b >= 0 else min(kmax3, -b)) for b in bs]
                base2 = -2 * a - 2 - ej
                for k in range(max(kb for _, kb in cut)):
                    kj2 = base2 + 2 * k
                    if not inner_uv(kj2):
                        continue
                    for b, kb in cut:
                        if k >= kb:
                            continue
                        coeff = signed_binom(b + k, k) * (b + k + 1 if f is None else f)
                        if not coeff:  # only the phi1 phi2 part's weight, at b + k = -1
                            continue
                        km2 = 2 * (-b - k - 2) - em
                        for c in cs:
                            if prod := outer(kj2, km2 - 2 * c):
                                add_scaled(box[a, b, c], prod, coeff)

        boxes = []
        failing = {}
        for ei, (e1, e2) in enumerate(phis):
            # every internal vector, including the odd-derivation images
            # backing the phi modes, must stay inside the weight cap; the
            # iterate's phi1 - phi2 feeds u's half modes into both phi
            # sectors, so any phi at all needs the u image
            A = upto(cap2 - wtu2 - wtv2 - e1 - e2)
            B = upto(cap2 - wt2 - wtu2 - e1)
            C = upto(cap2 - wt2 - wtv2 - e2)
            if (e1 or e2) and wtu2 + 1 > cap2 or e2 and wtv2 + 1 > cap2:
                A = range(0)
            boxes.append((A, B, C))
            if not (A and B and C):
                continue
            box = collections.defaultdict(dict)
            # term 1, then term 2 subtracted, each with its phi1 phi2 part
            ordered(u, v, [(a, -a - 1, -1 if e2 and (eu + e1) & 1 else 1) for a in A],
                    B, C, e1, e2, False)
            if e1 and e2:
                ordered(u, v, [(a, -a - 2, a + 1) for a in A if a != -1], B, C, 0, 0, False)
            s2b = {a: -1 if (eu * ev - a - 1) & 1 else 1 for a in A}
            ordered(v, u, [(a, -a - 1, s2b[a] if e1 and ev else -s2b[a]) for a in A],
                    C, B, e2, e1, True)
            if e1 and e2:
                ordered(v, u, [(a, -a - 2, (a + 1) * s2b[a]) for a in A if a != -1],
                        C, B, 0, 0, True)
            # term 3, subtracted as the right side
            uv_sum(A, B, C, e1, e2, -1)
            if e2 and not e1:
                uv_sum(A, B, C, 1, 0, 1)
            if e1 and e2:
                uv_sum(A, B, C, 0, 2, None)
            failing.update(((a, b, c, ei), acc) for (a, b, c), acc in box.items() if acc)

        for a, b, c, ei in sorted(failing):
            if len(failures) < JACOBI_FAILURES:
                failures.append({"u": u, "v": v, "input": w, "monomial": (a, b, c, *phis[ei]),
                                 "residual": failing[a, b, c, ei]})
                continue
            # count the bins of w up to this one, in the order above
            order = list(itertools.product(rng, rng, rng, range(len(phis))))
            seen = order[:order.index((a, b, c, ei)) + 1]
            sound = sum(1 for a, b, c, ei in seen
                        if a in boxes[ei][0] and b in boxes[ei][1] and c in boxes[ei][2])
            return {"passed": False, "checked": checked + sound,
                    "skipped": skipped + len(seen) - sound, "failures": failures}
        volume = sum(len(A) * len(B) * len(C) for A, B, C in boxes)
        checked += volume
        skipped += len(phis) * len(rng) ** 3 - volume
    return {"passed": not failures, "checked": checked, "skipped": skipped,
            "failures": failures}


# ----------------------------------------------------------------------
# consequence identities and structural checks
# ----------------------------------------------------------------------


def _bracket_g_half(V: VertexData, v: int, n, vec: dict) -> dict:
    """[G(-1/2), v_n] applied to vec, with the Koszul sign of v."""
    sgn = -1 if V.sign(v) else 1
    out = V.G_apply(-HALF, V.mode_apply(v, n, vec))
    add_scaled(out, V.mode_apply(v, n, V.G_apply(-HALF, vec)), -sgn)
    return out


def consequence_checks(V: VertexData) -> dict:
    """The displayed mode identities tying phi modes, G(-1/2) and L(-1),
    for every basis state v and mode key n in [-3, 3].

    Each identity is checked matrix-exactly on columns whose intermediate
    vectors stay inside the cap, so the assertions are complete where made.
    """
    cap2, weights2 = V.space.cap2, V.space.weights2
    report = {"eq_phi_modes": True, "eq_x_derivative": True,
              "eq_g_bracket": True, "eq_phi_axiom": True, "witnesses": []}

    def fail(name, v, n, w):
        report[name] = False
        if len(report["witnesses"]) < 8:
            report["witnesses"].append((name, v, n, w))

    for v in V.basis_indices():
        wtv2 = weights2[v]
        gv_ok = wtv2 + 1 <= cap2
        lv_ok = wtv2 + 2 <= cap2  # implies gv_ok
        gv = V._g_minus_half_image(v) if gv_ok else None
        lv = V.L_apply(-1, {v: 1}) if lv_ok else None
        for n in range(-3, 4):
            for w in V.basis_indices():
                wt2 = weights2[w]
                wvec = {w: 1}
                # [G(-1/2), v_n] w and -n v_(n-1) w each serve two identities
                bracket = (_bracket_g_half(V, v, n, wvec)
                           if gv_ok and wt2 + 1 <= cap2 and wt2 + wtv2 - 2 * n - 2 <= cap2
                           else None)
                deriv = (scaled(V.mode_apply(v, n - 1, wvec), -n)
                         if lv_ok else None)
                if bracket is not None and V.mode_apply_vec({v: 1}, 2 * n - 1, wvec) != bracket:
                    fail("eq_phi_modes", v, n, w)
                if deriv is not None and V.mode_apply_vec(lv, 2 * n, wvec) != deriv:
                    fail("eq_x_derivative", v, n, w)
                if bracket is not None and V.mode_apply_vec(gv, 2 * n, wvec) != bracket:
                    fail("eq_g_bracket", v, n, w)
                # odd part of the phi axiom: d/dx of the x sector equals the
                # phi modes of the G(-1/2) image
                if deriv is not None and V.mode_apply_vec(gv, 2 * n - 1, wvec) != deriv:
                    fail("eq_phi_axiom", v, n, w)
    report["passed"] = all(report[k] for k in
                           ("eq_phi_modes", "eq_x_derivative", "eq_g_bracket",
                            "eq_phi_axiom"))
    return report


def vacuum_checks(V: VertexData) -> dict:
    """Y(1,(x,phi)) = 1 and the creation property."""
    vac = V.vacuum_index()
    report = {"vacuum_field": True, "creation": True, "witnesses": []}
    for col in V.basis_indices():
        for n in range(-3, 3):
            got = V.mode_col(vac, n, col)
            want = {col: 1} if n == -1 else {}
            if got != want:
                report["vacuum_field"] = False
                report["witnesses"].append(("vacuum_field", n, col))
        got = V.mode_col(vac, -HALF, col)
        if got:
            report["vacuum_field"] = False
            report["witnesses"].append(("vacuum_field", -HALF, col))
    for v in V.basis_indices():
        for k in range(V.space.cap2 + 2):
            for key in (k, k - HALF):
                if V.mode_col(v, key, vac):
                    report["creation"] = False
                    report["witnesses"].append(("creation", v, key))
        got = V.mode_col(v, -1, vac)
        if got != {v: 1}:
            report["creation"] = False
            report["witnesses"].append(("creation_constant", v))
    report["passed"] = report["vacuum_field"] and report["creation"]
    return report


def _column_lift(V: VertexData) -> int:
    """Extra doubled weight an L_apply passes through: without odd variables
    2L(n) = {G(-1/2), G(n+1/2)} lifts its input by 1/2 on the way."""
    return 0 if V.has_odd else 1


def grading_check(V: VertexData) -> dict:
    """2L(0) acts by the doubled weight on every column whose intermediates
    fit; a witness carries the 2L(0) column."""
    report = {"passed": True, "witnesses": []}
    for w, wt2 in enumerate(V.space.weights2):
        if wt2 + _column_lift(V) > V.space.cap2:
            continue
        got = V._L2_apply(0, {w: 1})
        want = {w: wt2} if wt2 else {}
        if got != want:
            report["passed"] = False
            report["witnesses"].append(("weight", w, got))
    return report


def ns_modes_check(V: VertexData) -> dict:
    """The three displayed bracket relations on the tau modes, with the
    module's own central charge, for mode indices m, n in [-2, 2].  Columns
    are restricted so that both operator orders stay inside the weight cap.

    Indices are doubled ints k2 = 2k: odd k2 is G(k2/2) and even k2 is
    2L(k2/2), so every column has int coefficients and each relation is
    checked scaled by 4 (LL), 2 (GL) or 1 (GG), the central terms at
    m + n = 0 and r + s = 0 only:
        [2L(m), 2L(n)] = 2(m - n) 2L(m+n) + (m^3 - m)/3 c,
        [G(r), 2L(n)] = (2r - n) G(r+n),
        {G(r), G(s)} = 2L(r+s) + (4r^2 - 1)/12 c.
    Each basis column is computed once per call, and both operator orders
    are summed from these columns straight into one side, with no memo of
    the composites; the column memo lives only in this call, because copies
    of V share their caches and may carry other overrides."""
    cap2, weights2 = V.space.cap2, V.space.weights2
    lift2 = _column_lift(V)
    cc = V.cc if V.cc is not None else V.compute_central_charge()
    report = {"passed": True, "witnesses": [], "central_charge": cc}

    @functools.cache
    def column(k2, i):
        if k2 & 1:
            return V.mode_apply_vec(V.tau, k2 + 1, {i: 1})
        return V._L2_apply(k2, {i: 1})

    def check(name, s2, t2, sign, rhs_k2, coeff, central):
        # both operator orders applied; raising intermediates must fit
        top2 = cap2 - max(0, -s2, -t2, -s2 - t2) - lift2
        for w in V.basis_indices():
            if weights2[w] > top2:
                continue
            lhs: dict = {}
            for i, ci in column(t2, w).items():
                add_scaled(lhs, column(s2, i), ci)
            for i, ci in column(s2, w).items():
                add_scaled(lhs, column(t2, i), sign * ci)
            rhs = scaled(column(rhs_k2, w), coeff)
            if central:
                add_scaled(rhs, {w: 1}, central)
            if lhs != rhs:
                report["passed"] = False
                if len(report["witnesses"]) < 8:
                    report["witnesses"].append((name, Fraction(s2, 2), Fraction(t2, 2), w))

    for m in range(-2, 3):
        for n in range(-2, 3):
            m2, n2 = 2 * m, 2 * n
            r2, s2 = m2 + 1, n2 - 1
            c0 = cc if m + n == 0 else 0
            check("LL", m2, n2, -1, m2 + n2, 2 * (m - n), Fraction(m ** 3 - m, 3) * c0)
            check("GL", r2, n2, -1, r2 + n2, r2 - n, 0)
            check("GG", r2, s2, 1, m2 + n2, 1, Fraction(m * m + m, 3) * c0)
    return report
