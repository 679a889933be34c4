import functools
import gc
import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superns.sparse import add_scaled, add_term, binom
from superns.vosa import (
    JACOBI_FAILURES,
    JACOBI_WINDOW,
    FockSpace,
    VertexData,
    automorphism_J,
    consequence_checks,
    convert_F1,
    convert_F2,
    fixture_boson_fermion,
    grading_check,
    jacobi_check,
    ns_modes_check,
    signed_binom,
    vacuum_checks,
)

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def V():
    return fixture_boson_fermion(Fraction(5, 2))


def tau_index(V):
    (tau,) = V.tau
    return tau


def test_central_charge(V):
    assert V.cc == Fraction(3, 2)


def test_axiom_checks_pass(V):
    assert vacuum_checks(V)["passed"]
    assert grading_check(V)["passed"]
    assert ns_modes_check(V)["passed"]
    assert consequence_checks(V)["passed"]


def test_jacobi_tau_tau(V):
    tau = tau_index(V)
    report = jacobi_check(V, tau, tau)
    assert report["passed"]
    assert (report["checked"], report["skipped"]) == (305, 3695)


# (passed, checked, skipped) of jacobi_check(V, u, v) at cap 5/2 for every
# pair of states of weight <= 3/2: 0 = vacuum, 1 = psi(-1/2), 2 = alpha(-1),
# 3 = psi(-3/2), 4 = tau = alpha(-1) psi(-1/2)
JACOBI_TABLE = {
    (0, 0): (True, 2153, 1847), (0, 1): (True, 1680, 2320), (0, 2): (True, 1258, 2742),
    (0, 3): (True, 903, 3097), (0, 4): (True, 903, 3097), (1, 0): (True, 1680, 2320),
    (1, 1): (True, 1293, 2707), (1, 2): (True, 954, 3046), (1, 3): (True, 669, 3331),
    (1, 4): (True, 669, 3331), (2, 0): (True, 1258, 2742), (2, 1): (True, 954, 3046),
    (2, 2): (True, 687, 3313), (2, 3): (True, 469, 3531), (2, 4): (True, 469, 3531),
    (3, 0): (True, 903, 3097), (3, 1): (True, 669, 3331), (3, 2): (True, 469, 3531),
    (3, 3): (True, 305, 3695), (3, 4): (True, 305, 3695), (4, 0): (True, 903, 3097),
    (4, 1): (True, 669, 3331), (4, 2): (True, 469, 3531), (4, 3): (True, 305, 3695),
    (4, 4): (True, 305, 3695),
}


# the same at cap 7/2, the cap of the vosa_jacobi benchmark workload
JACOBI_TABLE_7_2 = {
    (0, 0): (True, 3270, 730), (0, 1): (True, 3010, 990), (0, 2): (True, 2575, 1425),
    (0, 3): (True, 2003, 1997), (0, 4): (True, 2003, 1997), (1, 0): (True, 3010, 990),
    (1, 1): (True, 2655, 1345), (1, 2): (True, 2138, 1862), (1, 3): (True, 1642, 2358),
    (1, 4): (True, 1642, 2358), (2, 0): (True, 2575, 1425), (2, 1): (True, 2138, 1862),
    (2, 2): (True, 1702, 2298), (2, 3): (True, 1288, 2712), (2, 4): (True, 1288, 2712),
    (3, 0): (True, 2003, 1997), (3, 1): (True, 1642, 2358), (3, 2): (True, 1288, 2712),
    (3, 3): (True, 952, 3048), (3, 4): (True, 952, 3048), (4, 0): (True, 2003, 1997),
    (4, 1): (True, 1642, 2358), (4, 2): (True, 1288, 2712), (4, 3): (True, 952, 3048),
    (4, 4): (True, 952, 3048),
}


def small_pair_table(X):
    """(passed, checked, skipped) of jacobi_check(X, u, v) for every pair of
    states of weight <= 3/2, which are the first five at any cap >= 3/2."""
    small = X.basis_indices(Fraction(3, 2))
    assert [X.space.states[i] for i in small] == [
        ((), ()), ((), (1,)), ((1,), ()), ((), (3,)), ((1,), (1,))]
    got = {}
    for u in small:
        for v in small:
            report = jacobi_check(X, u, v)
            got[u, v] = (report["passed"], report["checked"], report["skipped"])
    return got


def test_jacobi_table_of_all_small_pairs(V):
    assert small_pair_table(V) == JACOBI_TABLE


def test_jacobi_table_at_the_benchmark_cap():
    assert small_pair_table(fixture_boson_fermion(Fraction(7, 2))) == JACOBI_TABLE_7_2


def recording_reads(X):
    """Record every (state, doubled key k2, column) that X's column read
    serves; every mode applied goes through that read."""
    reads = set()
    k2_col = X._k2_col

    def record(v_idx, k2, col):
        assert type(k2) is int
        reads.add((v_idx, k2, col))
        return k2_col(v_idx, k2, col)

    X._k2_col = record
    return reads


@pytest.mark.parametrize("key", [Fraction(1), HALF], ids=["integer", "half_odd"])
def test_planted_mode_column_of_u_fails_jacobi(V, key):
    """A wrong column of u at an integer key and at a half-odd key is read by
    an asserted bin and fails the check; the half-odd one in a phi sector."""
    tau = tau_index(V)
    col = V.space.index[((1,), ())]
    column = dict(V.mode_col(tau, key, col))
    column[col] = column.get(col, 0) + 1
    bad = V.with_override(tau, key, col, column)
    reads = recording_reads(bad)
    report = jacobi_check(bad, tau, tau)
    assert (tau, int(2 * key), col) in reads
    assert not report["passed"] and report["failures"]
    if key.denominator == 2:
        assert any(f["monomial"][3] or f["monomial"][4] for f in report["failures"])


# (distinct columns, digest of the sorted (state, k2, column) reads) that
# jacobi_check(u, v) reads at cap 5/2 when every k-sum runs its full range
JACOBI_READS = {
    (4, 4): (336, "b425cdef2b2dd0d4"),  # (tau, tau)
    (4, 1): (617, "14656d68a87dcae6"),  # (tau, psi(-1/2))
    (2, 3): (335, "70b3bddfe9e00c71"),  # (alpha(-1), psi(-3/2))
}

# the same at cap 7/2, the cap of the vosa_jacobi benchmark workload
JACOBI_READS_7_2 = {
    (4, 4): (1170, "a2d20d352c57ab7e"),
    (4, 1): (1658, "1f7ce9126894c0d5"),
    (2, 3): (933, "fe7d12cc06449289"),
}


def full_sum_reads(X, pair):
    """(count, digest) of the columns jacobi_check(X, *pair) reads."""
    X = X.copy()
    reads = recording_reads(X)
    assert jacobi_check(X, *pair)["passed"]
    digest = hashlib.sha256("\n".join(map(repr, sorted(reads))).encode()).hexdigest()[:16]
    return len(reads), digest


@pytest.mark.parametrize("pair", list(JACOBI_READS), ids=str)
def test_jacobi_reads_the_columns_of_the_full_sums(V, pair):
    """The k-sums skip only zero products: they read exactly the columns the
    sums over every k of every asserted bin read.  A sum that skips a live k
    or forms a product the full sums do not form reads another set."""
    assert full_sum_reads(V, pair) == JACOBI_READS[pair]


@pytest.mark.parametrize("pair", list(JACOBI_READS_7_2), ids=str)
def test_jacobi_reads_at_the_benchmark_cap(pair):
    assert full_sum_reads(fixture_at(Fraction(7, 2)), pair) == JACOBI_READS_7_2[pair]


# the 8 of the 108 mutants below that no asserted bin of jacobi_check(tau, tau)
# reads at cap 5/2: (key, column), columns as indices of FockSpace(5/2).states
JACOBI_SURVIVORS = ({(Fraction(-2), col) for col in (3, 7, 8, 10)}
                    | {(Fraction(-3, 2), col) for col in (5, 6, 8, 10)})


def test_jacobi_mutation_score(V):
    """+1 on the diagonal of one column of tau, at every key in -2, -3/2, ..., 2
    and every column: exactly the pinned 100 of the 108 mutants fail, so the
    expansion kernels catch the same planted defects."""
    tau = tau_index(V)
    mutants = [(Fraction(k2, 2), col) for k2 in range(-4, 5) for col in V.basis_indices()]
    assert len(mutants) == 108
    survivors = set()
    for key, col in mutants:
        column = dict(V.mode_col(tau, key, col))
        add_term(column, col, Fraction(1))
        if jacobi_check(V.with_override(tau, key, col, column), tau, tau)["passed"]:
            survivors.add((key, col))
    assert survivors == JACOBI_SURVIVORS


def reference_jacobi(V, u, v, term2_sign=1):
    """jacobi_check's report, gathered bin by bin: every bin of the window
    is visited in the order w, a, b, c, (e1, e2), tested for soundness and,
    when sound, summed from its own k-sums, each over its full range with
    no cut and no live list.  term2_sign=-1 adds term 2 instead of
    subtracting it, a planted defect."""
    cap2 = V.space.cap2
    eu, ev = V.sign(u), V.sign(v)
    wtu2, wtv2 = V.space.weights2[u], V.space.weights2[v]
    wt2_of = {u: wtu2, v: wtv2}
    rng = range(-JACOBI_WINDOW, JACOBI_WINDOW + 1)
    checked = skipped = 0
    failures = []
    apply = V.mode_apply_vec
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
            base = apply({u: 1}, kj2, {v: 1})
            return apply(base, km2, wvec) if base else {}

        def ordered(acc, x, y, bx, cy, ex, ey, sign, pp_sign):
            kmax = (wt2 + wt2_of[y] + 2 * cy + 4) // 2 + 1
            for k in range(kmax):
                add_scaled(acc, nested(x, 2 * (n - k - bx - 1) - ex, y, 2 * (k - cy - 1) - ey),
                           signed_binom(n, k) * sign)
            if ex and ey and n:
                for k in range(kmax):
                    add_scaled(acc, nested(x, 2 * (n - k - bx - 2), y, 2 * (k - cy - 1)),
                               -n * signed_binom(n - 1, k) * pp_sign)

        for a, b, c in itertools.product(rng, rng, rng):
            n = -a - 1
            for e1, e2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
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
                ordered(acc, u, v, b, c, e1, e2, -1 if e2 and (eu + e1) & 1 else 1, 1)
                s2b = (-1 if (eu * ev + n) & 1 else 1) * term2_sign
                ordered(acc, v, u, c, b, e2, e1, s2b if e1 and ev else -s2b, s2b)
                mm2 = 2 * (-b - c - 2)
                ks = range((wtu2 + wtv2 + 2 * a + 4) // 2 + 1)
                for k in ks:
                    add_scaled(acc, outer(2 * (k - a - 1) - e1, mm2 - 2 * k - e2),
                               -signed_binom(b + k, k))
                for k in ks if e2 and not e1 else ():
                    add_scaled(acc, outer(2 * (k - a) - 3, mm2 - 2 * k), signed_binom(b + k, k))
                for k in ks if e1 and e2 else ():
                    add_scaled(acc, outer(2 * (k - a - 1), mm2 - 2 * k - 2),
                               (b + k + 1) * signed_binom(b + k, k))
                checked += 1
                if acc:
                    if len(failures) < JACOBI_FAILURES:
                        failures.append({"u": u, "v": v, "input": w,
                                         "monomial": (a, b, c, e1, e2), "residual": acc})
                    else:
                        return {"passed": False, "checked": checked,
                                "skipped": skipped, "failures": failures}
    return {"passed": not failures, "checked": checked, "skipped": skipped,
            "failures": failures}


@functools.cache
def fixture_at(cap):
    return fixture_boson_fermion(cap)


@settings(max_examples=60, deadline=None)
@given(cap=st.sampled_from([Fraction(5, 2), Fraction(7, 2)]),
       pair=st.tuples(st.integers(0, 4), st.integers(0, 4)),
       plant=st.integers(0, 4), k2=st.integers(-8, 8),
       row=st.integers(0, 11), col=st.integers(0, 11), bump=st.integers(-2, 2))
@example(cap=Fraction(5, 2), pair=(4, 4), plant=4, k2=2, row=2, col=2, bump=1)
def test_jacobi_check_matches_the_per_bin_reference(cap, pair, plant, k2, row, col, bump):
    """jacobi_check, which adds each product into its bin, reports what the
    bin-by-bin gather reports: verdict, counts and failures with their
    residuals, in the same order, also where it returns early.  The column
    of a small state at key k2/2 gets bump added at one row; bump 0 keeps V
    as it is.  The explicit example fails more than JACOBI_FAILURES bins."""
    X = fixture_at(cap)
    column = dict(X._k2_col(plant, k2, col))
    add_term(column, row, bump)
    X = X.with_override(plant, Fraction(k2, 2), col, column)
    report = jacobi_check(X, *pair)
    # repr: the residuals' key order is compared too
    assert repr(report) == repr(reference_jacobi(X, *pair))


def test_reference_jacobi_returns_early_on_the_example():
    """The explicit example above reaches the early return."""
    X = fixture_at(Fraction(5, 2))
    column = dict(X._k2_col(4, 2, 2))
    add_term(column, 2, 1)
    report = reference_jacobi(X.with_override(4, 1, 2, column), 4, 4)
    assert len(report["failures"]) == JACOBI_FAILURES
    assert report["checked"] + report["skipped"] < 500 * len(X.basis_indices(2))


@settings(max_examples=10, deadline=None)
@given(pair=st.tuples(st.integers(0, 4), st.integers(0, 4)))
def test_reference_with_term_2_flipped_disagrees(V, pair):
    """Negative control for the oracle: with term 2 added instead of
    subtracted, the reference fails where jacobi_check passes."""
    assert jacobi_check(V, *pair)["passed"]
    assert not reference_jacobi(V, *pair, term2_sign=-1)["passed"]


def test_fock_states_keep_the_half_odd_order():
    """A fermion part r is stored as 2r, and r -> 2r is monotone: index for
    index, the states of FockSpace(7/2) are the states with half-odd parts
    of weight <= 7/2, sorted by (weight, state), with every part doubled, and
    weights is their weight."""
    cap = Fraction(7, 2)
    halves = [Fraction(r2, 2) for r2 in range(1, 8, 2)]
    partitions = [(), (1,), (1, 1), (1, 1, 1), (2,), (2, 1), (3,)]
    old = [(b, f[::-1]) for b in partitions for size in range(len(halves) + 1)
           for f in itertools.combinations(halves, size) if sum(b) + sum(f) <= cap]
    old.sort(key=lambda s: (sum(s[0]) + sum(s[1]), s))
    space = FockSpace(cap)
    assert space.states == [(b, tuple(int(2 * r) for r in f)) for b, f in old]
    assert space.weights == [sum(b) + sum(f) for b, f in old]


@pytest.mark.parametrize("cap", [Fraction(7, 3), 3.4, Fraction(-1, 2), True], ids=repr)
def test_fock_space_rejects_a_cap_it_would_cut(cap):
    """A cap outside (1/2)Z would keep cap but cut cap2 (7/3 to 4), a float
    would be kept at its binary value, a negative cap would build no vacuum,
    and a bool is not a weight: each raises instead, also through the
    fixture."""
    for build in (FockSpace, fixture_boson_fermion):
        with pytest.raises(ValueError, match="negative|not an int or a Fraction|not in"):
            build(cap)


def test_fock_space_leaves_no_reference_cycles():
    """Building the basis leaves nothing for the cyclic collector, so a run
    that builds many spaces does not wait on it."""
    assert sorted(FockSpace._boson_partitions(3)) == [
        (), (1,), (1, 1), (1, 1, 1), (2,), (2, 1), (3,)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        FockSpace(Fraction(7, 2))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_xmode_recursion_does_not_depend_on_the_cap():
    """Every x-sector column v_(n) col of FockSpace(7/2), n in -8..7, is the
    cap-9/2 column mapped back by state where its weight fits the cap, and
    {} above it: the recursion neither loses nor invents a term at the cap."""
    small = VertexData(FockSpace(Fraction(7, 2)), {})
    big = VertexData(FockSpace(Fraction(9, 2)), {})
    lo, hi = small.space, big.space
    up = [hi.index[s] for s in lo.states]
    for v, col in itertools.product(range(len(lo.states)), repeat=2):
        for n in range(-8, 8):
            got = small._xmode_col(v, n, col)
            if lo.weights2[v] + lo.weights2[col] - 2 * n - 2 > lo.cap2:
                assert got == {}, (v, n, col)
                continue
            want = big._xmode_col(up[v], n, up[col])
            assert got == {lo.index[hi.states[i]]: c for i, c in want.items()}, (v, n, col)


def test_mode_layer_is_integral():
    """After both checkers on a fresh V at cap 7/2, every coefficient of the
    x-sector recursion is an int, and so is every free mode action on every
    basis state and every G(r) and 2L(n) column, the columns ns_modes_check
    works on."""
    X = fixture_boson_fermion(Fraction(7, 2))
    tau = tau_index(X)
    assert ns_modes_check(X)["passed"]
    assert jacobi_check(X, tau, tau)["passed"]
    coeffs = [c for col in X._xmode_cache.values() for c in col.values()]
    assert coeffs and all(type(c) is int for c in coeffs)
    ns_cols = [X._L2_apply(k2, {i: 1}) if k2 % 2 == 0 else X.G_apply(Fraction(k2, 2), {i: 1})
               for k2 in range(-8, 9) for i in X.basis_indices()]
    coeffs = [c for col in ns_cols for c in col.values()]
    assert coeffs and all(type(c) is int for c in coeffs)
    space, acts = X.space, []
    for i in range(len(space.states)):
        for m in range(-4, 5):
            acts += [space.boson_act(m, i), space.fermion_act(2 * m + 1, i)]
    coeffs = [c for act in acts for c in act.values()]
    assert coeffs and all(type(c) is int for c in coeffs)


# -- the odd-variable delta calculus, the oracle for jacobi_check's bins -------


def delta_table(variant, window):
    """Coefficients of delta((x1 - x2 - phi1 phi2)/x0) = sum_n x0^(-n)
    (x1 - x2 - phi1 phi2)^n, keyed (a, b, c, e1, e2) for the monomial
    x0^a x1^b x2^c phi1^e1 phi2^e2, every exponent of x in [-window, window].

    "direct" expands the binomial in x1 and x2 + phi1 phi2, whose k-th power
    is x2^k + k phi1 phi2 x2^(k-1); "split" is delta((x1 - x2)/x0) minus
    phi1 phi2 x0^(-1) delta'((x1 - x2)/x0), with delta'(y) = sum_n n y^(n-1).
    """
    W = window
    terms = {}
    for n in range(-W - 1, W + 2):
        for k in range(2 * W + 3):  # past 2W + 2, x1^(n - k) is below the window
            cb = binom(n, k) * (-1) ** k
            add_term(terms, (-n, n - k, k, 0, 0), cb)
            if variant == "direct":
                add_term(terms, (-n, n - k, k - 1, 1, 1), k * cb)
            else:
                add_term(terms, (-n, n - 1 - k, k, 1, 1), -n * binom(n - 1, k) * (-1) ** k)
    return {key: c for key, c in terms.items() if all(abs(e) <= W for e in key[:3])}


def test_delta_direct_equals_split():
    direct = delta_table("direct", 6)
    assert direct and any(key[3] for key in direct)
    assert direct == delta_table("split", 6)


def test_jacobi_bin_coefficients_match_the_delta_table():
    """jacobi_check's ordered() weighs x_(.) y_(.) w in the bin of x0^(-n) by
    signed_binom(n, k) at x1^(n-k) x2^k and by -n signed_binom(n-1, k) at
    phi1 phi2 x1^(n-1-k) x2^k: exactly the delta table, key for key."""
    W = 6
    want = {}
    for n in range(-W, W + 1):
        for k in range(W + 1):
            if abs(n - k) <= W:
                add_term(want, (-n, n - k, k, 0, 0), signed_binom(n, k))
            if abs(n - 1 - k) <= W:
                add_term(want, (-n, n - 1 - k, k, 1, 1), -n * signed_binom(n - 1, k))
    assert delta_table("direct", W) == want


ONE = [1, Fraction(1), Fraction(2, 2)]


@pytest.mark.parametrize("key", ONE, ids=["int", "Fraction", "Fraction_2_2"])
def test_override_is_read_with_either_key_type(V, key):
    """with_override, mode_col and mode_apply all key by the doubled int 2k:
    an override planted at 1, Fraction(1) or Fraction(2, 2) is read at
    each of them, by mode_col and by mode_apply.  A key outside (1/2)Z
    (1/4, 1/3, 0.25) raises in all five converters, and L_apply and G_apply
    also reject a key of the other kind."""
    tau = tau_index(V)
    col = V.space.index[((1,), ())]
    column = dict(V.mode_col(tau, 1, col))
    add_term(column, col, 1)
    bad = V.with_override(tau, key, col, column)
    assert V.mode_col(tau, 1, col) != column
    assert list(bad._overrides) == [(tau, 2, col)]
    for read in ONE:
        assert bad.mode_col(tau, read, col) == column
        assert bad.mode_apply(tau, read, {col: 1}) == column
    # a key outside (1/2)Z is rejected by every converter, not truncated
    for off in (Fraction(1, 4), Fraction(1, 3), 0.25):
        for convert in (lambda: bad.mode_col(tau, off, col),
                        lambda: bad.mode_apply(tau, off, {col: 1}),
                        lambda: bad.with_override(tau, off, col, column),
                        lambda: bad.G_apply(off, {col: 1}),
                        lambda: bad.L_apply(off, {col: 1})):
            with pytest.raises(ValueError):
                convert()
    with pytest.raises(ValueError):
        bad.L_apply(HALF, {col: 1})
    with pytest.raises(ValueError):
        bad.G_apply(key, {col: 1})


@pytest.mark.parametrize("key", [True, False, 1.5, 1.0, 2.0], ids=repr)
def test_mode_key_of_another_type_is_rejected(V, key):
    """A mode key is an int or a Fraction: a bool is not read as 0 or 1 and
    a float is not read at its value, by any of the five converters."""
    tau = tau_index(V)
    col = V.space.index[((1,), ())]
    for convert in (lambda: V.mode_col(tau, key, col),
                    lambda: V.mode_apply(tau, key, {col: 1}),
                    lambda: V.with_override(tau, key, col, {}),
                    lambda: V.G_apply(key, {col: 1}),
                    lambda: V.L_apply(key, {col: 1})):
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            convert()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k2=st.integers(-8, 8))
def test_mode_col_reads_the_doubled_key(V, data, k2):
    """For every basis v and column, mode_col at k = k2/2 serves the column
    at the doubled key k2, whether k is given as an int or as a Fraction;
    k2/2 + 1/4 and k2/2 + 1/3 raise."""
    v = data.draw(st.sampled_from(V.basis_indices()), label="v")
    col = data.draw(st.sampled_from(V.basis_indices()), label="col")
    want = V._k2_col(v, k2, col)
    assert V.mode_col(v, Fraction(k2, 2), col) == want
    assert V.mode_apply(v, Fraction(k2, 2), {col: 1}) == want
    if k2 % 2 == 0:
        assert V.mode_col(v, k2 // 2, col) == want
    for off in (Fraction(1, 4), Fraction(1, 3)):
        with pytest.raises(ValueError):
            V.mode_col(v, Fraction(k2, 2) + off, col)


def test_planted_mode_column_fails_every_consequence_identity(V):
    """Negative control for consequence_checks: one wrong column of tau at
    key 1 breaks all four displayed mode identities."""
    tau = tau_index(V)
    col = V.space.index[((1,), ())]
    column = dict(V.mode_col(tau, Fraction(1), col))
    column[col] = column.get(col, 0) + 1
    report = consequence_checks(V.with_override(tau, Fraction(1), col, column))
    assert not report["passed"]
    assert not any(report[k] for k in ("eq_phi_modes", "eq_x_derivative",
                                       "eq_g_bracket", "eq_phi_axiom"))


# plant -> (v, key, col) of the wrong column, the flag it breaks and its
# witness, given the vacuum and a = alpha(-1) vac
_VACUUM_PLANTS = {
    "vacuum-x-mode": lambda vac, a: ((vac, 0, a), "vacuum_field", ("vacuum_field", 0, a)),
    "vacuum-identity": lambda vac, a: ((vac, -1, a), "vacuum_field", ("vacuum_field", -1, a)),
    "vacuum-phi-mode": lambda vac, a: ((vac, -HALF, a), "vacuum_field",
                                       ("vacuum_field", -HALF, a)),
    "creation-k=0": lambda vac, a: ((a, 0, vac), "creation", ("creation", a, 0)),
    "creation-k=3/2": lambda vac, a: ((a, Fraction(3, 2), vac), "creation",
                                      ("creation", a, Fraction(3, 2))),
    "creation-constant": lambda vac, a: ((a, -1, vac), "creation", ("creation_constant", a)),
}


@pytest.mark.parametrize("plant", sorted(_VACUUM_PLANTS))
def test_planted_vacuum_column_fails_vacuum_checks(V, plant):
    """Negative control for vacuum_checks: a wrong column of the vacuum's
    modes breaks vacuum_field alone, and a nonzero v_(k) vac at k >= 0, or
    v_(-1) vac other than v, breaks creation alone, each with one witness."""
    (v, key, col), flag, witness = _VACUUM_PLANTS[plant](V.vacuum_index(),
                                                        V.space.index[((1,), ())])
    column = dict(V.mode_col(v, key, col))
    column[col] = column.get(col, 0) + 1
    report = vacuum_checks(V.with_override(v, key, col, column))
    assert not report["passed"] and not report[flag]
    assert report[({"vacuum_field", "creation"} - {flag}).pop()]
    assert report["witnesses"] == [witness]


def test_planted_G_half_column_is_caught(V):
    vac = V.vacuum_index()
    bad = V.with_override(tau_index(V), HALF, vac, {vac: Fraction(1)})
    assert not grading_check(bad)["passed"]
    assert not ns_modes_check(bad)["passed"]


def test_planted_top_weight_column_is_checked(V):
    """V's own L(0) columns reach the weight cap: a wrong L(0) on any
    top-weight state is seen there by both checks."""
    tau = tau_index(V)
    top = [w for w in V.basis_indices() if V.weight(w) == V.space.cap]
    assert top
    for w in top:
        column = dict(V.mode_col(tau, HALF, w))  # 2 L(0) on w
        column[w] += 2
        bad = V.with_override(tau, HALF, w, column)
        grading = grading_check(bad)
        assert [wit[1] for wit in grading["witnesses"]] == [w]
        modes = ns_modes_check(bad)
        assert not modes["passed"]
        assert w in [wit[3] for wit in modes["witnesses"]]


def test_planted_G_column_without_odd_variables_is_caught(V):
    """Without odd variables L(n) is {G(-1/2), G(n+1/2)}/2, so a wrong G(1/2)
    column breaks the LL relation through the G∘G route too."""
    F = convert_F1(V)
    col = V.space.index[((1,), ())]
    column = dict(F.mode_col(tau_index(V), 1, col))  # G(1/2) on alpha(-1)
    column[col] = column.get(col, 0) + 1
    bad = F.with_override(tau_index(V), 1, col, column)
    assert ns_modes_check(F)["passed"]
    report = ns_modes_check(bad)
    assert not report["passed"]
    assert "LL" in [wit[0] for wit in report["witnesses"]]


# HEAD's witnesses for a wrong central charge at cap 7/2: the central term
# enters only at m + n = 0, first in LL at (-2, 2), then in GG at (-3/2, 3/2)
WRONG_C_WITNESSES = ([("LL", Fraction(-2), Fraction(2), w) for w in range(5)]
                     + [("GG", Fraction(-3, 2), Fraction(3, 2), w) for w in range(3)])


@pytest.mark.parametrize("cc", [Fraction(1), Fraction(3, 2) + Fraction(1, 12)],
                         ids=["one", "off_by_1_12"])
def test_wrong_central_charge_fails_ns_modes_check(cc):
    """Negative control for the central term, which the checker carries
    scaled by 4 in LL and by 1 in GG: any other c than the module's fails,
    at the same witnesses as the unscaled relations."""
    X = fixture_boson_fermion(Fraction(7, 2))
    assert ns_modes_check(X)["passed"]
    X = fixture_boson_fermion(Fraction(7, 2))
    X.cc = cc
    report = ns_modes_check(X)
    assert not report["passed"]
    assert report["central_charge"] == cc
    assert report["witnesses"] == WRONG_C_WITNESSES


# the 41 of the 108 mutants below that ns_modes_check(V) passes at cap 5/2,
# (key, column) with columns as indices of FockSpace(5/2).states: a lowering
# key applied to a column of low weight, which no asserted relation reads;
# and the sha256 prefix of the repr of all 108 witness lists, in mutant order
NS_MODES_SURVIVORS = ({(Fraction(-2), col) for col in range(1, 12)}
                      | {(Fraction(-3, 2), col) for col in range(2, 12)}
                      | {(Fraction(-1), col) for col in range(3, 12)}
                      | {(Fraction(-1, 2), col) for col in range(5, 12)}
                      | {(Fraction(0), col) for col in range(8, 12)})
NS_MODES_WITNESSES = "8b1742c734bfffb0"


def test_ns_modes_mutation_score(V):
    """+1 on the diagonal of one column of tau, at every key in -2, -3/2,
    ..., 2 and every column: exactly the pinned 41 of the 108 mutants pass,
    and every failing one keeps its witnesses.  A check that applies only
    one operator order of a relation fails it."""
    tau = tau_index(V)
    mutants = [(Fraction(k2, 2), col) for k2 in range(-4, 5) for col in V.basis_indices()]
    assert len(mutants) == 108
    survivors, witnesses = set(), []
    for key, col in mutants:
        column = dict(V.mode_col(tau, key, col))
        add_term(column, col, Fraction(1))
        report = ns_modes_check(V.with_override(tau, key, col, column))
        if report["passed"]:
            survivors.add((key, col))
        witnesses.append(report["witnesses"])
    assert survivors == NS_MODES_SURVIVORS
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest()[:16] == NS_MODES_WITNESSES


def test_ns_modes_check_memo_does_not_leak_between_calls():
    """A mutant shares its parent's caches: checking one first must not
    change the other's verdict, in either order."""
    def pair():
        X = fixture_boson_fermion(Fraction(5, 2))
        tau, vac = tau_index(X), X.vacuum_index()
        return X, X.with_override(tau, HALF, vac, {vac: Fraction(1)})

    good, bad = pair()
    want_good, want_bad = ns_modes_check(good), ns_modes_check(bad)
    assert want_good["passed"] and not want_bad["passed"]
    good, bad = pair()
    assert ns_modes_check(bad) == want_bad
    assert ns_modes_check(good) == want_good
    assert ns_modes_check(bad) == want_bad


# -- the flavor functors and the sign automorphism J --------------------------

KEYS = [Fraction(k) for k in range(-3, 4)] + [Fraction(k) - HALF for k in range(-3, 4)]


def mode_columns(X, keys=KEYS):
    """Every mode column of every basis state of X at the given keys."""
    cols = X.basis_indices()
    return {(v, k, col): X.mode_col(v, k, col) for v in cols for k in keys for col in cols}


def is_phi(key):
    return key[1].denominator == 2


def test_F2_of_F1_reproduces_every_mode_column(V):
    assert mode_columns(convert_F2(convert_F1(V))) == mode_columns(V)


def test_F1_has_no_phi_modes(V):
    assert any(c for key, c in mode_columns(V).items() if is_phi(key))
    assert not any(c for key, c in mode_columns(convert_F1(V)).items() if is_phi(key))


def test_J_negates_exactly_the_half_odd_modes(V):
    J = automorphism_J(V)
    assert J.tau == {tau_index(V): Fraction(-1)}
    for key, want in mode_columns(V).items():
        sign = -1 if is_phi(key) else 1
        assert J.mode_col(*key) == {row: sign * c for row, c in want.items()}, key


def test_half_odd_memo_belongs_to_one_copy():
    """Negative control for the half-odd column memo, which reads tau: with
    every half-odd column of X memoized first, J(X) still negates them, X
    keeps its own, and an override copy reads its planted column.  A memo
    that copies shared would hand J the columns of X."""
    X = fixture_boson_fermion(Fraction(5, 2))
    keys = [Fraction(k) - HALF for k in range(-3, 4)]
    want = mode_columns(X, keys)
    assert any(want.values())
    J = automorphism_J(X)
    assert mode_columns(J, keys) == {key: {row: -c for row, c in col.items()}
                                     for key, col in want.items()}
    assert mode_columns(X, keys) == want
    tau, col = tau_index(X), X.space.index[((1,), ())]
    planted = dict(want[tau, HALF, col])
    add_term(planted, col, 1)
    bad = X.with_override(tau, HALF, col, planted)
    assert planted != want[tau, HALF, col]
    assert bad.mode_col(tau, HALF, col) == planted
    assert X.mode_col(tau, HALF, col) == want[tau, HALF, col]


def test_J_is_an_involution(V):
    """J keeps the flavor, with or without odd variables, and JJ = 1."""
    for X in (V, convert_F1(V)):
        J = automorphism_J(X)
        assert J.has_odd == X.has_odd
        JJ = automorphism_J(J)
        assert (JJ.tau, JJ.has_odd) == (X.tau, X.has_odd)
        assert mode_columns(JJ) == mode_columns(X)


def test_J_passes_the_axiom_checks(V):
    J = automorphism_J(V)
    assert vacuum_checks(J)["passed"]
    assert grading_check(J)["passed"]
    assert ns_modes_check(J)["passed"]
    assert consequence_checks(J)["passed"]
    tau = tau_index(J)
    report = jacobi_check(J, tau, tau)
    assert report["passed"] and report["checked"] > 0


@pytest.mark.parametrize("cap", [Fraction(5, 2), Fraction(3), Fraction(7, 2)])
def test_checks_pass_without_odd_variables(cap):
    """Without odd variables L(n) passes through G(-1/2): the checkers'
    columns leave room for that lift."""
    V = fixture_boson_fermion(cap)
    for X in (convert_F1(V), automorphism_J(convert_F1(V))):
        assert not X.has_odd
        assert grading_check(X)["passed"]
        assert ns_modes_check(X)["passed"]
