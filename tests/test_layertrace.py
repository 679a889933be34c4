"""The benchmark's layer tracer must find every name it patches.

perfbench/layertrace.py wraps functions and methods of the superns modules
by name at run time, so renaming one of them breaks ``--trace 1`` runs.
"""

import importlib.util
from pathlib import Path

from superns import sewing
from superns.grassmann import GrassmannElement
from superns.superseries import CoordData, ss_exp_zero, ss_extract_zero

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_patch_point_and_uninstall_restores_it():
    tracer = load_layertrace().Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert saved
        for owner, attr, orig in saved:
            assert owner.__dict__[attr] is not orig, (owner, attr)
        problem = ([1], [], [1], [])
        assert sewing.sw_consistency_check(sewing.sw_solve(*problem, D=1, W=1), *problem)
        for name in ("sewing.sw_solve", "sewing.sw_consistency_check",
                     "sewing.Factorization.lhs", "sewing.Factorization.rhs",
                     "grassmann.GradedPoly.mul", "nsalg.VermaModule.apply_gen"):
            assert tracer.counts[name + ".calls"] > 0, name
    finally:
        tracer.uninstall()
    for owner, attr, orig in saved:
        assert owner.__dict__[attr] is orig, (owner, attr)


def test_apply_gen_misses_count_the_module_memo():
    """The tracer counts a miss when apply_gen's (generator, position) key is
    not yet in the module's memo, so over one solve and its check, which
    share one module, the misses are exactly the memo's rows; the calls
    also count every row the kernel reads back."""
    tracer = load_layertrace().Tracer()
    problem = ([1, 2], [1], [2], [1])
    try:
        tracer.install()
        series = sewing.sw_solve(*problem, D=2, W=3)
        assert sewing.sw_consistency_check(series, *problem)
    finally:
        tracer.uninstall()
    misses = tracer.counts["nsalg.VermaModule.apply_gen.misses"]
    assert misses == len(series.fact.module._memo) > 0
    assert tracer.counts["nsalg.VermaModule.apply_gen.calls"] > misses


def test_the_two_rings_count_apart():
    """GrassmannElement binds GradedPoly's __add__, __radd__ and __mul__ as
    its own entries, so the tracer counts each ring under its own name: a
    series round trip multiplies Grassmann elements and adds no graded
    polynomial, and a sewing solve multiplies graded polynomials and no
    Grassmann element."""
    tracer = load_layertrace().Tracer()
    try:
        tracer.install()
        z1, z2 = GrassmannElement.generator(2, 1), GrassmannElement.generator(2, 2)
        c = CoordData(2, GrassmannElement.scalar(2, 4) + z1 * z2, {1: z1 * z2 * 3}, {2: z2})
        assert ss_extract_zero(ss_exp_zero(c, (-4, 4))) == c
        ring = dict(tracer.counts)
        sewing.sw_solve([1], [], [1], [], D=1, W=1)
    finally:
        tracer.uninstall()
    assert ring["grassmann.GrassmannElement.mul.calls"] > 0
    assert ring.get("grassmann.GradedPoly.add.calls", 0) == 0
    sew = {k: tracer.counts[k] - ring.get(k, 0) for k in tracer.counts}
    assert sew["grassmann.GradedPoly.mul.calls"] > 0
    assert sew.get("grassmann.GrassmannElement.mul.calls", 0) == 0
