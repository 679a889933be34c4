from fractions import Fraction

import pytest

from superns.vosa import (
    automorphism_J,
    consequence_checks,
    convert_F1,
    convert_F2,
    delta_expand,
    fixture_boson_fermion,
    grading_check,
    jacobi_check,
    ns_modes_check,
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


def test_delta_direct_equals_split():
    assert delta_expand("direct", 6) == delta_expand("split", 6)


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


def test_J_is_an_involution(V):
    JJ = automorphism_J(automorphism_J(V))
    assert (JJ.tau, JJ.has_odd) == (V.tau, V.has_odd)
    assert mode_columns(JJ) == mode_columns(V)


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
    for X in (convert_F1(V), automorphism_J(V, "without")):
        assert not X.has_odd
        assert grading_check(X)["passed"]
        assert ns_modes_check(X)["passed"]
