"""Vertex operator superalgebras with odd formal variables, at a weight cap.

The concrete instance is the free boson tensor free fermion Fock space
with the odd superconformal vector built from the two weight-creating
modes.  Vertex operators of composite states come from the standard
field-product recursion; every axiom checker below expands the defining
identities independently, so construction and verification stay separate
routes.

Conventions: a vertex operator is written sum v_n x^(-n-1) plus
phi sum v_(n-1/2) x^(-n-1); modes are keyed by n in (1/2)Z with integer
keys in the x sector and half-odd keys in the phi sector.  The binomial
(x - y)^n always expands in nonnegative powers of the second variable.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .sparse import add_term, binom

HALF = Fraction(1, 2)


def vec_scale(vec: dict, c) -> dict:
    if not c:
        return {}
    return {k: v * c for k, v in vec.items()}


def vec_sum(*vecs) -> dict:
    out: dict = {}
    for v in vecs:
        for k, c in v.items():
            add_term(out, k, c)
    return out


# ----------------------------------------------------------------------
# Fock space of one free boson and one free fermion
# ----------------------------------------------------------------------


class FockSpace:
    """Basis states (boson partition, fermion half-odd parts), weight capped.

    Boson parts are positive integers in weakly decreasing order; fermion
    parts are distinct half-odd fractions in decreasing order.  The state
    is the corresponding product of creation modes on the vacuum, fermions
    leftmost-largest.
    """

    def __init__(self, weight_cap):
        self.cap = Fraction(weight_cap)
        self.states = []
        self.index = {}
        bosons = self._boson_partitions(self.cap)
        fermions = self._fermion_subsets(self.cap)
        for f in fermions:
            wf = sum(f, Fraction(0))
            for b in bosons:
                if sum(b) + wf <= self.cap:
                    self.states.append((b, f))
        self.states.sort(key=lambda s: (sum(s[0]) + sum(s[1], Fraction(0)), s))
        self.index = {s: i for i, s in enumerate(self.states)}
        self.weights = [sum(b) + sum(f, Fraction(0)) for b, f in self.states]
        self.signs = [len(f) & 1 for _, f in self.states]

    @staticmethod
    def _boson_partitions(cap):
        out = [()]
        def rec(prefix, largest, left):
            for part in range(min(largest, int(left)), 0, -1):
                nxt = prefix + (part,)
                out.append(nxt)
                rec(nxt, part, left - part)
        rec((), int(cap), cap)
        return out

    @staticmethod
    def _fermion_subsets(cap):
        parts = []
        r = HALF
        while r <= cap:
            parts.append(r)
            r += 1
        out = []
        for size in range(len(parts) + 1):
            for combo in itertools.combinations(parts, size):
                if sum(combo, Fraction(0)) <= cap:
                    out.append(tuple(sorted(combo, reverse=True)))
        return out

    def vacuum(self) -> int:
        return self.index[((), ())]

    def weight_of(self, vec: dict):
        ws = {self.weights[i] for i in vec}
        if len(ws) == 1:
            return ws.pop()
        return None

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
            return {} if tgt is None else {tgt: Fraction(1)}
        if m not in b:
            return {}
        mult = b.count(m)
        nb = list(b)
        nb.remove(m)
        tgt = self.index.get((tuple(nb), f))
        return {} if tgt is None else {tgt: Fraction(m * mult)}

    def fermion_act(self, r: Fraction, idx: int) -> dict:
        """psi_r on a basis state; {psi_r, psi_s} = delta_{r+s,0}."""
        b, f = self.states[idx]
        if r < 0:
            part = -r
            if part in f:
                return {}
            bigger = sum(1 for s in f if s > part)
            nf = tuple(sorted(f + (part,), reverse=True))
            tgt = self.index.get((b, nf))
            if tgt is None:
                return {}
            return {tgt: Fraction(-1) ** bigger}
        if r not in f:
            return {}
        bigger = sum(1 for s in f if s > r)
        nf = tuple(x for x in f if x != r)
        tgt = self.index.get((b, nf))
        if tgt is None:
            return {}
        return {tgt: Fraction(-1) ** bigger}


class VertexData:
    """A weight-truncated vertex operator superalgebra with odd variables.

    modes are served through mode_apply: integer keys read the x sector,
    half-odd keys the phi sector (populated as the modes of the
    G(-1/2)-image, the odd-variable dressing of the underlying structure).
    Overrides support automorphisms and mutation tests without copying
    the recursion caches.
    """

    def __init__(self, space: FockSpace, tau_vec: dict, central_charge=None,
                 has_odd: bool = True):
        self.space = space
        self.tau = dict(tau_vec)
        self.cc = central_charge
        self.has_odd = has_odd
        self._xmode_cache: dict = {}
        self._gimg_cache: dict = {}
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

    def copy(self, share_tau_caches: bool = True) -> "VertexData":
        out = VertexData(self.space, self.tau, self.cc, self.has_odd)
        out._xmode_cache = self._xmode_cache  # tau-independent, safe to share
        if share_tau_caches:
            out._gimg_cache = self._gimg_cache
        out._overrides = dict(self._overrides)
        return out

    # -- raw x-sector modes of basis states (field-product recursion) -------

    def _gen_mode(self, which: str, m: int, col: int) -> dict:
        if which == "boson":
            return self.space.boson_act(m, col)
        return self.space.fermion_act(m + HALF, col)

    def _xmode_col(self, v_idx: int, n: int, col: int) -> dict:
        key = (v_idx, n, col)
        hit = self._xmode_cache.get(key)
        if hit is not None:
            return hit
        space = self.space
        b, f = space.states[v_idx]
        if not b and not f:
            out = {col: Fraction(1)} if n == -1 else {}
        elif b:
            # peel alpha_(-k): v = boson_(-k) v'
            k = b[0]
            rest = space.index[(b[1:], f)]
            out = self._product_mode_col("boson", -k, 0, rest, n, col)
        else:
            r = f[0]
            rest = space.index[(b, f[1:])]
            out = self._product_mode_col("fermion", -int(r + HALF), 1, rest, n, col)
        self._xmode_cache[key] = out
        return out

    def _product_mode_col(self, gen: str, p: int, gen_sign: int, w_idx: int,
                          m: int, col: int) -> dict:
        """(gen_(p) w)_(m) column via the field-product expansion."""
        space = self.space
        col_wt = space.weights[col]
        w_wt = space.weights[w_idx]
        w_sign = space.signs[w_idx]
        gen_wt = 1 if gen == "boson" else HALF
        out: dict = {}
        # term 1: gen_(p-j) w_(m+j), terminates when w_(m+j) annihilates
        j = 0
        while True:
            if col_wt + w_wt - (m + j) - 1 < 0:
                break
            cb = binom(p, j).numerator * (-1 if j & 1 else 1)
            if cb:
                inner = self._xmode_col(w_idx, m + j, col)
                for mid, c in inner.items():
                    for row, c2 in self._gen_mode(gen, p - j, mid).items():
                        add_term(out, row, c2 * c * cb)
            j += 1
        # term 2: -(-1)^(p + sgn) w_(p+m-j) gen_(j)
        sign = -1 if (p + gen_sign * w_sign) & 1 else 1
        j = 0
        while True:
            if col_wt + gen_wt - j - 1 < 0:
                break
            cb = binom(p, j).numerator * (-1 if j & 1 else 1)
            if cb:
                inner = self._gen_mode(gen, j, col)
                for mid, c in inner.items():
                    for row, c2 in self._xmode_col(w_idx, p + m - j, mid).items():
                        add_term(out, row, -sign * c2 * c * cb)
            j += 1
        return out

    # -- public mode application --------------------------------------------

    def mode_col(self, v_idx: int, k, col: int) -> dict:
        """One column of the mode matrix of a basis state, overrides applied."""
        k = Fraction(k)
        ov = self._overrides.get((v_idx, k, col))
        if ov is not None:
            return ov
        if k.denominator == 1:
            return self._xmode_col(v_idx, int(k), col)
        if not self.has_odd:
            return {}
        gv = self._g_minus_half_image(v_idx)
        return self.mode_apply_vec(gv, k + HALF, {col: Fraction(1)}, raw=True)

    def _g_minus_half_image(self, v_idx: int) -> dict:
        hit = self._gimg_cache.get(v_idx)
        if hit is None:
            hit = self.mode_apply_vec(self.tau, 0, {v_idx: Fraction(1)}, raw=True)
            self._gimg_cache[v_idx] = hit
        return hit

    def mode_apply_vec(self, v_vec: dict, k, vec: dict, raw: bool = False) -> dict:
        """Mode of a vector v applied to a vector, linear in both slots."""
        k = Fraction(k)
        out: dict = {}
        for v_idx, cv in v_vec.items():
            for col, cw in vec.items():
                if raw and k.denominator == 1:
                    colv = self._xmode_col(v_idx, int(k), col)
                else:
                    colv = self.mode_col(v_idx, k, col)
                for row, c in colv.items():
                    add_term(out, row, c * cv * cw)
        return out

    def mode_apply(self, v_idx: int, k, vec: dict) -> dict:
        return self.mode_apply_vec({v_idx: Fraction(1)}, k, vec)

    # -- Neveu-Schwarz modes from tau ----------------------------------------

    def G_apply(self, r, vec: dict) -> dict:
        r = Fraction(r)
        if r.denominator != 2:
            raise ValueError("G index must be half-odd")
        return self.mode_apply_vec(self.tau, r + HALF, vec)

    def L_apply(self, n: int, vec: dict) -> dict:
        if self.has_odd:
            out = self.mode_apply_vec(self.tau, Fraction(n) + HALF, vec)
            return vec_scale(out, HALF)
        # without odd variables: 2L(n) = {G(-1/2), G(n+1/2)}, never central
        a = self.G_apply(-HALF, self.G_apply(n + HALF, vec))
        b = self.G_apply(n + HALF, self.G_apply(-HALF, vec))
        return vec_scale(vec_sum(a, b), HALF)

    def compute_central_charge(self) -> Fraction:
        """Read c from [L(2), L(-2)] = 4 L(0) + c/2 on the vacuum."""
        vac = {self.vacuum_index(): Fraction(1)}
        up = self.L_apply(-2, vac)
        down = self.L_apply(2, up)
        val = down.get(self.vacuum_index(), Fraction(0))
        return 2 * val

    def with_override(self, v_idx: int, k, col: int, column: dict) -> "VertexData":
        out = self.copy()
        out._overrides[(v_idx, Fraction(k), col)] = dict(column)
        return out


def fixture_boson_fermion(weight_cap) -> VertexData:
    """The free boson-fermion instance, superconformal vector included.

    The odd weight-3/2 state built from the two creation modes serves as
    tau; the central charge is computed from the bracket, not asserted.
    """
    cap = Fraction(weight_cap)
    if cap < 2:
        raise ValueError("weight cap too small to hold the superconformal vector")
    space = FockSpace(cap)
    tau_idx = space.index[((1,), (HALF,))]
    V = VertexData(space, {tau_idx: Fraction(1)}, None, has_odd=True)
    V.cc = V.compute_central_charge()
    return V


# ----------------------------------------------------------------------
# functors between the flavors and the sign automorphisms
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


def automorphism_J(V: VertexData, flavor: str = "with") -> VertexData:
    """The sign automorphisms: both negate tau.

    With odd variables the phi modes are the modes of the tau-derived
    odd-derivation image, so negating tau flips exactly them and fixes the
    x sector; without odd variables only tau changes.
    """
    if flavor not in ("with", "without"):
        raise ValueError("flavor must be 'with' or 'without'")
    out = V.copy(share_tau_caches=False)
    out.tau = vec_scale(V.tau, Fraction(-1))
    out.has_odd = flavor == "with"
    return out


# ----------------------------------------------------------------------
# odd-variable formal delta calculus
# ----------------------------------------------------------------------


class DeltaSeries:
    """Coefficient table over monomials x0^a x1^b x2^c phi1^e1 phi2^e2.

    Only exponents inside the per-variable window are stored; the series
    they represent are exact there.
    """

    def __init__(self, window: int, terms=None):
        self.window = window
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if c and all(abs(e) <= window for e in key[:3]):
                    self.terms[key] = c

    def coeff(self, a, b, c, e1=0, e2=0) -> Fraction:
        return self.terms.get((a, b, c, e1, e2), Fraction(0))

    def __eq__(self, other):
        return isinstance(other, DeltaSeries) and self.terms == other.terms


def delta_expand(variant: str, window: int = 12) -> DeltaSeries:
    """Expansion tables for the displayed delta identities.

    variants: "direct" expands delta((x1 - x2 - phi1 phi2)/x0) by the
    binomial route; "split" builds delta((x1 - x2)/x0) minus
    phi1 phi2 x0^(-1) delta'((x1 - x2)/x0).  Both agree coefficientwise.
    """
    terms: dict = {}
    W = window
    if variant == "direct":
        # sum_n x0^(-n) (x1 - (x2 + phi1 phi2))^n
        for n in range(-W, W + 1):
            a = -n
            if abs(a) > W:
                continue
            for k in range(0, 3 * W + 2):
                cb = binom(n, k) * (-1) ** k
                if not cb:
                    if n >= 0 and k > n:
                        break
                    continue
                b = n - k
                if abs(b) > W:
                    continue
                # (x2 + phi1 phi2)^k = x2^k + k phi1 phi2 x2^(k-1)
                if abs(k) <= W:
                    add_term(terms, (a, b, k, 0, 0), cb)
                if k >= 1 and abs(k - 1) <= W:
                    add_term(terms, (a, b, k - 1, 1, 1), cb * k)
        return DeltaSeries(W, terms)
    if variant == "split":
        for n in range(-W, W + 1):
            a = -n
            if abs(a) > W:
                continue
            for k in range(0, 3 * W + 2):
                cb = binom(n, k) * (-1) ** k
                if cb:
                    b = n - k
                    if abs(b) <= W and abs(k) <= W:
                        add_term(terms, (a, b, k, 0, 0), cb)
                elif n >= 0 and k > n:
                    break
        # - phi1 phi2 x0^(-1) delta'((x1-x2)/x0): delta'(y) = sum n y^(n-1)
        for n in range(-W - 1, W + 2):
            if n == 0:
                continue
            a = -(n - 1) - 1
            if abs(a) > W:
                continue
            for k in range(0, 3 * W + 2):
                cb = binom(n - 1, k) * (-1) ** k
                if not cb:
                    if n - 1 >= 0 and k > n - 1:
                        break
                    continue
                b = n - 1 - k
                if abs(b) > W or abs(k) > W:
                    continue
                add_term(terms, (a, b, k, 1, 1), -Fraction(n) * cb)
        return DeltaSeries(W, terms)
    raise ValueError(f"unknown variant {variant!r}")


# ----------------------------------------------------------------------
# the Jacobi identity checker
# ----------------------------------------------------------------------


def jacobi_check(V: VertexData, u: int, v: int, inputs=None, window: int = 2,
                 collect_failures: int = 4) -> dict:
    """Expand all three terms of the odd-variable Jacobi identity and match
    coefficients of x0^a x1^b x2^c in each phi sector.

    Bins are asserted only where every internal sum provably stays inside
    the weight cap; the rest are counted as skipped.

    All arithmetic on indices is on integers: a mode key k in (1/2)Z is
    carried as the doubled int k2 = 2k (the memos below are keyed by it, and
    it becomes Fraction(k2, 2) only when a mode is applied, which is where
    the Fraction-keyed overrides are read), weights and the cap are doubled
    for the soundness test, and the signed binomials (-1)^k C(n, k) are
    ints.
    """
    cap2 = int(2 * V.space.cap)
    eu, ev = V.sign(u), V.sign(v)
    wtu2, wtv2 = int(2 * V.weight(u)), int(2 * V.weight(v))
    if inputs is None:
        inputs = V.basis_indices(min(V.space.cap, 2))
    rng = range(-window, window + 1)
    checked = skipped = 0
    failures = []

    @functools.cache
    def signed_binom(n, k):
        """(-1)^k C(n, k) as an int."""
        out = binom(n, k).numerator
        return -out if k & 1 else out

    @functools.cache
    def inner_uv(kj2):
        return V.mode_apply(u, Fraction(kj2, 2), {v: Fraction(1)})

    for w in inputs:
        wt2 = int(2 * V.weight(w))
        wvec = {w: Fraction(1)}

        @functools.cache
        def vw(kv2):
            return V.mode_apply(v, Fraction(kv2, 2), wvec)

        @functools.cache
        def u_of_vw(ku2, kv2):
            base = vw(kv2)
            return V.mode_apply(u, Fraction(ku2, 2), base) if base else {}

        @functools.cache
        def uw(ku2):
            return V.mode_apply(u, Fraction(ku2, 2), wvec)

        @functools.cache
        def v_of_uw(kv2, ku2):
            base = uw(ku2)
            return V.mode_apply(v, Fraction(kv2, 2), base) if base else {}

        @functools.cache
        def outer(kj2, km2):
            base = inner_uv(kj2)
            return V.mode_apply_vec(base, Fraction(km2, 2), wvec) if base else {}

        for a, b, c in itertools.product(rng, rng, rng):
            n = -a - 1
            for e1, e2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
                # every internal vector, including the odd-derivation images
                # backing the phi modes, must stay inside the weight cap;
                # the iterate's phi1 - phi2 feeds u's half modes into both
                # phi sectors, so any phi at all needs the u image
                sound = (wt2 + wtv2 + 2 * c + e2 <= cap2
                         and wt2 + wtu2 + 2 * b + e1 <= cap2
                         and wtu2 + wtv2 + 2 * a + e1 + e2 <= cap2)
                if e1 or e2:
                    sound = sound and wtu2 + 1 <= cap2
                if e2:
                    sound = sound and wtv2 + 1 <= cap2
                if not sound:
                    skipped += 1
                    continue
                acc: dict = {}
                # term 1
                s1 = -1 if e2 and (eu + e1) & 1 else 1
                for k in range((wt2 + wtv2 + 2 * c + 4) // 2 + 1):
                    cb = signed_binom(n, k)
                    if cb:
                        vec = u_of_vw(2 * (n - k - b - 1) - e1, 2 * (k - c - 1) - e2)
                        for key, val in vec.items():
                            add_term(acc, key, val * cb * s1)
                    if e1 and e2 and n:
                        cb2 = signed_binom(n - 1, k)
                        if cb2:
                            vec = u_of_vw(2 * (n - k - b - 2), 2 * (k - c - 1))
                            for key, val in vec.items():
                                add_term(acc, key, -n * cb2 * val)
                # term 2 (subtracted)
                s2b = -1 if (eu * ev + n) & 1 else 1
                s2 = -s2b if e1 and ev else s2b
                for k in range((wt2 + wtu2 + 2 * b + 4) // 2 + 1):
                    cb = signed_binom(n, k)
                    if cb:
                        vec = v_of_uw(2 * (n - k - c - 1) - e2, 2 * (k - b - 1) - e1)
                        for key, val in vec.items():
                            add_term(acc, key, -val * cb * s2)
                    if e1 and e2 and n:
                        cb2 = signed_binom(n - 1, k)
                        if cb2:
                            vec = v_of_uw(2 * (n - k - c - 2), 2 * (k - b - 1))
                            for key, val in vec.items():
                                add_term(acc, key, -n * cb2 * val * s2b)
                # term 3 (subtracted as the right side)
                for k in range((wtu2 + wtv2 + 2 * a + 4) // 2 + 1):
                    j2 = 2 * (k - a - 1)
                    nn = b + k
                    mm2 = 2 * (-nn - c - 2)
                    cb = signed_binom(nn, k)
                    if not cb:
                        continue
                    vec = outer(j2 - e1, mm2 - e2)
                    if e2 and not e1:
                        vec = vec_sum(vec, vec_scale(outer(j2 - 1, mm2), -1))
                    for key, val in vec.items():
                        add_term(acc, key, -val * cb)
                    if e1 and e2 and nn != -1:
                        # the phi1 phi2 part at nn + 1, whose signed
                        # binomial (-1)^k C(nn + 1 - 1, k) is cb again
                        for key, val in outer(j2, mm2 - 2).items():
                            add_term(acc, key, (nn + 1) * cb * val)
                checked += 1
                if acc:
                    if len(failures) < collect_failures:
                        failures.append({"u": u, "v": v, "input": w,
                                         "monomial": (a, b, c, e1, e2),
                                         "residual": dict(acc)})
                    else:
                        return {"passed": False, "checked": checked,
                                "skipped": skipped, "failures": failures}
    return {"passed": not failures, "checked": checked, "skipped": skipped,
            "failures": failures}


# ----------------------------------------------------------------------
# consequence identities and structural checks
# ----------------------------------------------------------------------


def _bracket_g_half(V: VertexData, v: int, n, vec: dict) -> dict:
    """[G(-1/2), v_n] applied to vec, with the Koszul sign of v."""
    sgn = Fraction(-1) ** V.sign(v)
    first = V.G_apply(-HALF, V.mode_apply(v, n, vec))
    second = V.mode_apply(v, n, V.G_apply(-HALF, vec))
    return vec_sum(first, vec_scale(second, -sgn))


def consequence_checks(V: VertexData, max_weight=None, key_range=None) -> dict:
    """The displayed mode identities tying phi modes, G(-1/2) and L(-1).

    Each identity is checked matrix-exactly on columns whose intermediate
    vectors stay inside the cap, so the assertions are complete where made.
    """
    cap = V.space.cap
    mw = cap if max_weight is None else Fraction(max_weight)
    report = {"eq_phi_modes": True, "eq_x_derivative": True,
              "eq_g_bracket": True, "eq_phi_axiom": True, "witnesses": []}
    if key_range is None:
        key_range = range(-3, 4)

    def fail(name, v, n, w):
        report[name] = False
        if len(report["witnesses"]) < 8:
            report["witnesses"].append((name, v, n, w))

    for v in V.basis_indices(mw):
        wtv = V.weight(v)
        gv_ok = wtv + HALF <= cap
        lv_ok = wtv + 1 <= cap
        gv = V._g_minus_half_image(v) if gv_ok else None
        lv = V.L_apply(-1, {v: Fraction(1)}) if lv_ok else None
        for n in key_range:
            for w in V.basis_indices():
                wt = V.weight(w)
                wvec = {w: Fraction(1)}
                bracket_ok = wt + HALF <= cap and wt + wtv - n - 1 <= cap
                if gv_ok and bracket_ok:
                    lhs = V.mode_apply(v, Fraction(n) - HALF, wvec)
                    rhs = _bracket_g_half(V, v, n, wvec)
                    if vec_sum(lhs, vec_scale(rhs, Fraction(-1))):
                        fail("eq_phi_modes", v, n, w)
                if lv_ok:
                    lhs = vec_scale(V.mode_apply(v, n - 1, wvec), Fraction(-n))
                    rhs = V.mode_apply_vec(lv, n, wvec)
                    if vec_sum(lhs, vec_scale(rhs, Fraction(-1))):
                        fail("eq_x_derivative", v, n, w)
                if gv_ok and bracket_ok:
                    lhs = _bracket_g_half(V, v, n, wvec)
                    rhs = V.mode_apply_vec(gv, n, wvec)
                    if vec_sum(lhs, vec_scale(rhs, Fraction(-1))):
                        fail("eq_g_bracket", v, n, w)
                if gv_ok and wtv + 1 <= cap:
                    # odd part of the phi axiom: d/dx of the x sector equals
                    # the phi modes of the G(-1/2) image
                    lhs = vec_scale(V.mode_apply(v, n - 1, wvec), Fraction(-n))
                    rhs = V.mode_apply_vec(gv, Fraction(n) - HALF, wvec)
                    if vec_sum(lhs, vec_scale(rhs, Fraction(-1))):
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
            want = {col: Fraction(1)} if n == -1 else {}
            if got != want:
                report["vacuum_field"] = False
                report["witnesses"].append(("vacuum_field", n, col))
        got = V.mode_col(vac, -HALF, col)
        if got:
            report["vacuum_field"] = False
            report["witnesses"].append(("vacuum_field", -HALF, col))
    for v in V.basis_indices():
        wtv = V.weight(v)
        k = Fraction(0)
        while k <= 2 * V.space.cap + 1:
            for key in (k, k - HALF):
                if V.mode_col(v, key, vac):
                    report["creation"] = False
                    report["witnesses"].append(("creation", v, key))
            k += 1
        got = V.mode_col(v, -1, vac)
        if got != {v: Fraction(1)}:
            report["creation"] = False
            report["witnesses"].append(("creation_constant", v))
    report["passed"] = report["vacuum_field"] and report["creation"]
    return report


def _column_lift(V: VertexData):
    """Extra weight an L_apply passes through: without odd variables
    2L(n) = {G(-1/2), G(n+1/2)} lifts its input by 1/2 on the way."""
    return Fraction(0) if V.has_odd else HALF


def grading_check(V: VertexData) -> dict:
    """L(0) acts by the weight on every column whose intermediates fit."""
    report = {"passed": True, "witnesses": []}
    for w in V.basis_indices(V.space.cap - _column_lift(V)):
        got = V.L_apply(0, {w: Fraction(1)})
        want = {w: V.weight(w)} if V.weight(w) else {}
        if got != want:
            report["passed"] = False
            report["witnesses"].append(("weight", w, got))
    return report


def ns_modes_check(V: VertexData, index_bound: int = 2) -> dict:
    """The three displayed bracket relations on the tau modes, with the
    module's own central charge.  Columns are restricted so that both
    operator orders stay inside the weight cap.

    L(n) and G(r) act through their basis columns, each computed once per
    call; the memo lives only in this call, because copies of V share
    their caches and may carry other overrides."""
    cap = V.space.cap
    cc = V.cc if V.cc is not None else V.compute_central_charge()
    report = {"passed": True, "witnesses": [], "central_charge": cc}

    @functools.cache
    def column(kind, idx, i):
        apply = V.L_apply if kind == "L" else V.G_apply
        return apply(idx, {i: Fraction(1)})

    def act(kind, idx, vec):
        out: dict = {}
        for i, ci in vec.items():
            for row, c in column(kind, idx, i).items():
                add_term(out, row, c * ci)
        return out

    L = functools.partial(act, "L")
    G = functools.partial(act, "G")

    def safe_columns(s1, s2):
        # both operator orders applied; raising intermediates must fit
        lift = max(Fraction(0), -s1, -s2, -s1 - s2) + _column_lift(V)
        return [w for w in V.basis_indices() if V.weight(w) + lift <= cap]

    def record(name, m, n, w):
        report["passed"] = False
        if len(report["witnesses"]) < 8:
            report["witnesses"].append((name, m, n, w))

    rng = [Fraction(k) for k in range(-index_bound, index_bound + 1)]
    for m in rng:
        for n in rng:
            for w in safe_columns(m, n):
                wvec = {w: Fraction(1)}
                lhs = vec_sum(L(int(m), L(int(n), wvec)),
                              vec_scale(L(int(n), L(int(m), wvec)), Fraction(-1)))
                rhs = vec_scale(L(int(m + n), wvec), m - n)
                if m + n == 0:
                    central = Fraction(int(m) ** 3 - int(m), 12) * cc
                    rhs = vec_sum(rhs, vec_scale(wvec, central))
                if vec_sum(lhs, vec_scale(rhs, Fraction(-1))):
                    record("LL", m, n, w)
            r = m + HALF
            for w in safe_columns(r, n):
                wvec = {w: Fraction(1)}
                lhs = vec_sum(G(r, L(int(n), wvec)),
                              vec_scale(L(int(n), G(r, wvec)), Fraction(-1)))
                rhs = vec_scale(G(r + n, wvec), r - Fraction(n) / 2)
                if vec_sum(lhs, vec_scale(rhs, Fraction(-1))):
                    record("GL", r, n, w)
            r, s = m + HALF, n - HALF
            for w in safe_columns(r, s):
                wvec = {w: Fraction(1)}
                lhs = vec_sum(G(r, G(s, wvec)), G(s, G(r, wvec)))
                rhs = vec_scale(L(int(m + n), wvec), 2)
                if r + s == 0:
                    central = (m * m + m) / 3 * cc
                    rhs = vec_sum(rhs, vec_scale(wvec, central))
                if vec_sum(lhs, vec_scale(rhs, Fraction(-1))):
                    record("GG", r, s, w)
    return report
