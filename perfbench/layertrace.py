"""Run-time wrappers that time and count calls into the superns layers.

Nothing under src/ is edited: ``install`` replaces module functions and
class methods with wrappers and ``uninstall`` puts the originals back.
A wrapper pushes a frame on one span stack, so

* ``time_s`` is the inclusive time of the outermost call of a name
  (recursive calls of the same name are not counted twice);
* ``self_s`` is a span's duration minus the time its child spans cover;
* ``pairs`` sums |a|*|b| over the term counts of a product's operands, and
  ``yield`` is output terms over pairs.

QQi only gets call counters, since timing each of its calls would swamp it.
Spans of the coarse entry points are kept in memory with their parent and
operation index and written out by the caller when the run ends; the hot
kernels are aggregated only.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

from superns import grassmann, nsalg, sewing, superseries, vosa


def _terms(x) -> int:
    return len(x.terms) if hasattr(x, "terms") else 1


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.stack: list = []        # frames [name, child_seconds]
        self.depth: Counter = Counter()
        self.spans: list = []        # (op, name, parent, start, end)
        self.op = None
        self._saved: list = []

    # -- wrappers ---------------------------------------------------------

    def timed(self, name, fn, record=False, before=None, after=None):
        """Wrap fn in a span called name.

        before(args) runs ahead of the call and after(args, result) once it
        returns; both add their own counts.
        """
        counts, stack, depth, spans = self.counts, self.stack, self.depth, self.spans
        calls, time_s, self_s = name + ".calls", name + ".time_s", name + ".self_s"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if before is not None:
                before(args)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                depth[name] -= 1
                if not depth[name]:
                    counts[time_s] += dur
                counts[self_s] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if record:
                    spans.append((self.op, name, parent, t0, t1))
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def counted(self, name, fn):
        counts, calls = self.counts, name + ".calls"

        def wrapper(*args):
            counts[calls] += 1
            return fn(*args)

        return wrapper

    def product_stats(self, name):
        """after-hook recording pairs and output terms of a binary product."""
        counts, pairs, out_terms = self.counts, name + ".pairs", name + ".out_terms"

        def after(args, out):
            counts[pairs] += _terms(args[0]) * _terms(args[1])
            counts[out_terms] += _terms(out)

        return after

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        c = self.counts
        qqi = grassmann.QQi
        add = self.counted("grassmann.QQi.add", qqi.__add__)
        mul = self.counted("grassmann.QQi.mul", qqi.__mul__)
        for attr, w in (("__add__", add), ("__radd__", add),
                        ("__mul__", mul), ("__rmul__", mul)):
            self._patch(qqi, attr, w)

        gp = grassmann.GradedPoly
        name = "grassmann.GradedPoly.mul"
        self._patch(gp, "__mul__", self.timed(name, gp.__mul__,
                                              after=self.product_stats(name)))
        gp_add = self.timed("grassmann.GradedPoly.add", gp.__add__)
        self._patch(gp, "__add__", gp_add)
        self._patch(gp, "__radd__", gp_add)

        ge = grassmann.GrassmannElement
        name = "grassmann.GrassmannElement.mul"
        self._patch(ge, "__mul__", self.timed(name, ge.__mul__,
                                              after=self.product_stats(name)))

        sf = superseries.SFun
        name = "superseries.SFun.mul"
        self._patch(sf, "__mul__", self.timed(name, sf.__mul__,
                                              after=self.product_stats(name)))
        self._patch(sf, "power", self.timed("superseries.SFun.power", sf.power))

        def invert_round(args):
            if self.depth["superseries.ss_invert"]:
                c["superseries.ss_invert.rounds"] += 1

        for fname in ("ss_compose", "ss_invert", "ss_exp_zero", "ss_extract_zero"):
            self._patch(superseries, fname, self.timed(
                f"superseries.{fname}", getattr(superseries, fname), record=True,
                before=invert_round if fname == "ss_compose" else None))

        vm = nsalg.VermaModule

        def memo_miss(args):
            module, g, word = args
            if (g, word) not in module._memo:
                c["nsalg.VermaModule.apply_gen.misses"] += 1

        def basis_size(args, out):
            c["nsalg.VermaModule.basis_size"] += len(args[0].basis)

        self._patch(vm, "apply_gen", self.timed("nsalg.VermaModule.apply_gen",
                                                vm.apply_gen, before=memo_miss))
        self._patch(vm, "__init__", self.timed("nsalg.VermaModule.init", vm.__init__,
                                               after=basis_size))

        for fname in ("sw_solve", "sw_consistency_check"):
            self._patch(sewing, fname, self.timed(f"sewing.{fname}",
                                                  getattr(sewing, fname), record=True))
        fact = sewing._Factorization
        for meth in ("lhs", "rhs"):
            self._patch(fact, meth, self.timed(f"sewing.Factorization.{meth}",
                                               getattr(fact, meth), record=True))

        for fname in ("jacobi_check", "ns_modes_check"):
            self._patch(vosa, fname, self.timed(f"vosa.{fname}",
                                                getattr(vosa, fname), record=True))
        vd = vosa.VertexData
        self._patch(vd, "mode_apply_vec", self.timed("vosa.VertexData.mode_apply_vec",
                                                     vd.mode_apply_vec))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def op_span(self, index, fn, *args):
        """Run fn(*args) as the root span of operation index."""
        self.op = index
        return self.timed("op", fn, record=True)(*args)
