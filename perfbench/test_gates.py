"""Negative controls for the benchmark: planted failures must show.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from superns.grassmann import QQi  # noqa: E402
from superns.vosa import FockSpace  # noqa: E402
from workloads import (  # noqa: E402
    VOSA_CAP,
    VOSA_PAIR_WEIGHT,
    WORKLOADS,
    GateError,
    canon,
    sew_check,
    sew_gate,
    sew_solve,
    vosa_check,
    vosa_fixture,
    vosa_gate,
)


def test_planted_raise_is_counted_not_dropped():
    def planted(x):
        if x == 2:
            raise RuntimeError("planted")
        return x

    w = replace(WORKLOADS["vosa_jacobi"], run=planted, gate=lambda i, o: None,
                payload=lambda o: o, counts=lambda o: {}, describe=lambda x: x,
                fixed_ops=4, round_ops=1)
    records = run.timed_loop(w, [0, 1, 2, 3], seconds=0)
    result = run.outcome(records)
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert result["failures"][0]["input"] == 2
    assert result["failures"][0]["error"] == "RuntimeError"
    assert result["correct"] is False  # an unknown raise is not a known defect
    _, raw = run.end_to_end(records, setup_s=1.0)
    assert raw["fail_share"] == 0.25


def test_known_sewing_defect_is_classified_and_counted():
    w = WORKLOADS["sew_solve_check"]
    problem = ([3], [1], [3], [1])
    record = run.attempt(w, 0, problem)
    assert record.failure["error"] == "SewingError"
    assert record.failure["known"] is True
    assert run.outcome([record])["failed"] == 1


def test_wrong_gamma_coefficient_is_caught():
    problem = ([2], [1], [2], [1])
    series = sew_solve(problem)
    sew_gate(problem, sew_check(problem, series))  # the honest answer passes
    key = next(iter(series.gamma.degree_part(2).terms))
    series.gamma.terms[key] = series.gamma.terms[key] + QQi(1)
    with pytest.raises(GateError):
        sew_gate(problem, sew_check(problem, series))


def test_wrong_vertex_operator_column_is_caught():
    pair = (4, 4)
    V = vosa_fixture()
    vosa_gate(pair, vosa_check(V, pair))  # the honest answer passes
    vac = V.vacuum_index()
    tau = next(iter(V.tau))
    # L(0) is half of tau's mode at key 1/2; make it move the vacuum
    bad = V.with_override(tau, Fraction(1, 2), vac, {vac: Fraction(1)})
    with pytest.raises(GateError):
        vosa_gate(pair, vosa_check(bad, pair))


def _family(name):
    family = json.loads((HERE / name).read_text())
    return [tuple(map(_frozen, p)) for p in family["order"]], family["stratum_size"]


def _frozen(x):
    return tuple(x) if isinstance(x, list) else x


def test_sewing_strata_cover_the_family_once():
    order, k = _family("sew_family.json")
    subsets = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
    assert sorted(order) == sorted((A, M, B, N) for A in subsets for M in [(1,), (2,)]
                                   for B in subsets for N in [(1,), (2,)])
    assert len(order) == k * WORKLOADS["sew_solve_check"].round_ops
    # the known failures fill whole strata, so every round holds the same number
    fails = [3 in A and 3 in B for A, _, B, _ in order]
    assert all(len(set(fails[i:i + k])) == 1 for i in range(0, len(order), k))


def test_vosa_strata_cover_every_low_weight_pair_once():
    order, k = _family("vosa_pairs.json")
    space = FockSpace(VOSA_CAP)
    low = [i for i, w in enumerate(space.weights) if w <= VOSA_PAIR_WEIGHT]
    assert sorted(order) == [(u, v) for u in low for v in low]
    assert len(order) == k * WORKLOADS["vosa_jacobi"].round_ops


def test_inputs_depend_only_on_the_seed():
    for w in WORKLOADS.values():
        a = w.make_inputs(random.Random(5))
        assert canon(a) == canon(w.make_inputs(random.Random(5)))
        assert canon(a) != canon(w.make_inputs(random.Random(6)))


def test_canon_ignores_dict_order():
    assert canon({1: Fraction(1, 2), 2: 3}) == canon({2: 3, 1: Fraction(1, 2)})


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
