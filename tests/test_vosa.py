from fractions import Fraction

import pytest

from superns.vosa import (
    consequence_checks,
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
