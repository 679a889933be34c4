"""Seeded inputs, operations and correctness gates of the benchmark workloads.

Each workload turns a seed into a pool of inputs and runs one operation per
input.  Every operation builds its own VermaModule or VertexData, because
users pay for those memo caches on every problem.  A gate checks each answer
against an oracle that does not share the code path under test, and every
output is reduced to a digest that does not depend on dict order, so two
commits can be compared bit for bit.

The layers are called through their module attributes (``sewing.sw_solve``,
not a name imported from it), so the tracer can wrap them at run time.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from superns import sewing, superseries, vosa
from superns.grassmann import GradedPoly, GrassmannElement, QQi
from superns.superseries import CoordData, SFun, SuperSeries

# -- sizes -------------------------------------------------------------------

SEW_D, SEW_W = 3, 5
SS_L, SS_JMAX = 6, 4
SS_EXP_WINDOW = (-12, 12)
SS_INV_WINDOW = (-10, 10)
SS_CLIP = (-5, 5)
VOSA_CAP = Fraction(7, 2)
VOSA_PAIR_WEIGHT = Fraction(3, 2)
VOSA_C = Fraction(3, 2)


class GateError(AssertionError):
    """An operation returned, but its answer is wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[random.Random], list]
    run: Callable[[Any], Any]
    gate: Callable[[Any, Any], None]
    describe: Callable[[Any], Any]
    known_failure: Callable[[Any, BaseException], bool]
    payload: Callable[[Any], Any]
    counts: Callable[[Any], dict]
    # operations in the digest and in the traced run; the timed loop runs
    # at least this many whatever --seconds says
    fixed_ops: int
    # the timed loop stops only after a multiple of this many operations
    round_ops: int
    size: dict


def never(inp, exc) -> bool:
    return False


def no_counts(out) -> dict:
    return {}


def whole(out):
    return out


# -- canonical digests --------------------------------------------------------


def canon(x) -> str:
    """A string for x that does not depend on dict or set order."""
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return repr(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, QQi):
        return f"({canon(x.re)},{canon(x.im)})"
    if isinstance(x, GrassmannElement):
        return f"E{x.L}" + canon(x.terms)
    if isinstance(x, GradedPoly):
        return "P" + canon(x.terms)
    if isinstance(x, SFun):
        return f"S[{x.lo},{x.hi}]" + canon(x.terms)
    if isinstance(x, SuperSeries):
        return "H(" + canon(x.ev) + "," + canon(x.od) + ")"
    if isinstance(x, CoordData):
        return "C" + canon((x.a0, x.A, x.M, x.branch))
    if isinstance(x, dict):
        return "{" + ",".join(sorted(canon(k) + ":" + canon(v) for k, v in x.items())) + "}"
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(canon(v) for v in x) + ")"
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(x) -> str:
    return hashlib.sha256(canon(x).encode()).hexdigest()


# -- finite input families ---------------------------------------------------


def stratified_rounds(rng: random.Random, family_file: str, rounds: int = 4) -> list:
    """Rounds of draws from a finite input family listed in cost order.

    The family file lists every input once, ordered by the work it took on
    the defining commit.  Consecutive groups of stratum_size inputs are the
    strata; each round takes one uniform draw from every stratum, in a
    seeded order.  Every input keeps the same chance to be drawn as under a
    uniform draw, but each round holds every cost class once, so a run's
    figures barely depend on the seed.  The timed loop only stops at the end
    of a round.
    """
    family = json.loads((Path(__file__).parent / family_file).read_text())
    order = [tuple(p) for p in family["order"]]
    k = family["stratum_size"]
    strata = [order[i:i + k] for i in range(0, len(order), k)]
    out = []
    for _ in range(rounds):
        for j in rng.sample(range(len(strata)), len(strata)):
            out.append(rng.choice(strata[j]))
    return out


# -- sew_solve_check ----------------------------------------------------------


def sew_inputs(rng: random.Random) -> list:
    """Problems of the family the randomized solver test draws from.

    That test draws uniformly from the 144 problems; stratified_rounds
    keeps each problem's chance.
    """
    return stratified_rounds(rng, "sew_family.json")


def sew_solve(problem):
    return sewing.sw_solve(*problem, D=SEW_D, W=SEW_W)


def sew_check(problem, series) -> dict:
    return {"series": series,
            "consistent": sewing.sw_consistency_check(series, *problem)}


def sew_run(problem) -> dict:
    return sew_check(problem, sew_solve(problem))


def sew_gate(problem, out):
    if out["consistent"] is not True:
        raise GateError("sw_consistency_check is not True")
    if out["series"].gamma.degree_part(2) != sewing.sw_gamma2(*problem, D=SEW_D):
        raise GateError("degree-2 part of gamma differs from sw_gamma2")


def sew_known_failure(problem, exc) -> bool:
    # sw_solve calls _assert_ch_free on monomials that _trust_filter would
    # discard; it raises exactly when 3 is in both A and B
    A, _, B, _ = problem
    return isinstance(exc, sewing.SewingError) and 3 in A and 3 in B


def sew_digest_payload(out):
    s = out["series"]
    return (s.psi, s.gamma, out["consistent"])


def sew_counts(out) -> dict:
    s = out["series"]
    return {"sewing.certified_terms":
            sum(len(p.terms) for p in s.psi.values()) + len(s.gamma.terms)}


# -- ss_roundtrip -------------------------------------------------------------


def _scalar(v):
    return GrassmannElement.scalar(SS_L, v)


def _soul_even(rng):
    i, j = rng.sample(range(1, SS_L + 1), 2)
    return GrassmannElement.monomial(SS_L, sorted([i, j]), rng.randint(1, 3))


def _soul_odd(rng):
    ix = rng.sample(range(1, SS_L + 1), rng.choice([1, 3]))
    return GrassmannElement.monomial(SS_L, sorted(ix),
                                     Fraction(rng.randint(1, 4), rng.randint(1, 3)))


def ss_inputs(rng: random.Random) -> list:
    """Coordinate data drawn like random_coord_data in the series tests."""
    out = []
    for _ in range(512):
        a0 = _scalar(rng.choice([1, 4, Fraction(9, 4)])) + _soul_even(rng)
        A = {j: _soul_even(rng) * rng.randint(-2, 2)
             for j in rng.sample(range(1, SS_JMAX + 1), 2)}
        M = {j: _soul_odd(rng) for j in rng.sample(range(1, SS_JMAX + 1), 2)}
        out.append(CoordData(SS_L, a0, A, M, branch=1))
    return out


def ss_run(cd: CoordData) -> dict:
    H = superseries.ss_exp_zero(cd, SS_EXP_WINDOW)
    K = superseries.ss_invert(H, SS_INV_WINDOW)
    E = superseries.ss_compose(H, K, clip=SS_CLIP)
    back = superseries.ss_extract_zero(H)
    return {"H": H, "K": K, "E": E, "back": back}


def ss_gate(cd: CoordData, out):
    one = _scalar(1)
    E = out["E"]
    if E.ev.terms != {(1, 0): one} or E.od.terms != {(0, 1): one}:
        raise GateError("ss_compose(H, ss_invert(H)) is not the identity")
    if out["back"] != cd:
        raise GateError("ss_extract_zero(ss_exp_zero(c)) differs from c")


# -- vosa_jacobi --------------------------------------------------------------


def vosa_inputs(rng: random.Random) -> list:
    """Pairs (u, v) of basis states of weight at most VOSA_PAIR_WEIGHT.

    The 25 pairs are indices into FockSpace(VOSA_CAP).states; they are drawn
    by stratified_rounds, so each pair keeps the chance of a uniform draw.
    """
    return stratified_rounds(rng, "vosa_pairs.json", rounds=16)


def vosa_fixture():
    return vosa.fixture_boson_fermion(VOSA_CAP)


def vosa_check(V, pair) -> dict:
    u, v = pair
    return {"c": V.cc, "modes": vosa.ns_modes_check(V),
            "jacobi": vosa.jacobi_check(V, u, v),
            "xmode_entries": len(V._xmode_cache)}


def vosa_run(pair) -> dict:
    return vosa_check(vosa_fixture(), pair)


def vosa_gate(pair, out):
    if out["c"] != VOSA_C:
        raise GateError(f"central charge {out['c']} is not {VOSA_C}")
    if not out["modes"]["passed"]:
        raise GateError("ns_modes_check failed")
    jac = out["jacobi"]
    if not jac["passed"]:
        raise GateError("jacobi_check failed")
    if jac["checked"] <= 0:
        raise GateError("jacobi_check asserted no bins")


def vosa_digest_payload(out):
    jac = out["jacobi"]
    return (out["c"], out["modes"]["passed"], out["modes"]["witnesses"],
            jac["passed"], jac["checked"], jac["skipped"])


def vosa_counts(out) -> dict:
    jac = out["jacobi"]
    return {"vosa.jacobi_check.checked": jac["checked"],
            "vosa.jacobi_check.skipped": jac["skipped"],
            "vosa.xmode_cache.entries": out["xmode_entries"]}


WORKLOADS = {
    "sew_solve_check": Workload(
        name="sew_solve_check", make_inputs=sew_inputs, run=sew_run, gate=sew_gate,
        describe=lambda p: {"A": p[0], "M": p[1], "B": p[2], "N": p[3]},
        known_failure=sew_known_failure, payload=sew_digest_payload,
        counts=sew_counts, fixed_ops=12, round_ops=24,
        size={"D": SEW_D, "W": SEW_W}),
    "ss_roundtrip": Workload(
        name="ss_roundtrip", make_inputs=ss_inputs, run=ss_run, gate=ss_gate,
        describe=repr, known_failure=never, payload=whole, counts=no_counts,
        fixed_ops=100, round_ops=1,
        size={"L": SS_L, "j_max": SS_JMAX, "exp_window": SS_EXP_WINDOW,
              "invert_window": SS_INV_WINDOW, "clip": SS_CLIP}),
    "vosa_jacobi": Workload(
        name="vosa_jacobi", make_inputs=vosa_inputs, run=vosa_run, gate=vosa_gate,
        describe=lambda p: {"u": p[0], "v": p[1]}, known_failure=never,
        payload=vosa_digest_payload, counts=vosa_counts, fixed_ops=15, round_ops=5,
        size={"cap": str(VOSA_CAP), "pair_weight": str(VOSA_PAIR_WEIGHT),
              "jacobi_window": 2}),
}
