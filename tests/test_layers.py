"""The package's layer order, read from each module's import statements.

sparse is the bottom; grassmann holds the coefficient rings on it;
superseries and nsalg each stand on those two alone, and sewing stacks on
all of them; vosa works on int-keyed dicts of int coefficients (Fraction
only where a mode or the central charge is halved) and so uses nothing
but sparse, which keeps it an independent control for the ring kernels.
"""

import ast
from pathlib import Path

import pytest

import superns
from superns.grassmann import GradedPoly, GrassmannElement, ParamSpec

PKG = Path(superns.__file__).parent

# module -> the package modules it may import
ALLOWED = {
    "sparse": set(),
    "grassmann": {"sparse"},
    "superseries": {"sparse", "grassmann"},
    "nsalg": {"sparse", "grassmann"},
    "sewing": {"sparse", "grassmann", "superseries", "nsalg"},
    "vosa": {"sparse"},
}


def _tree(name):
    return ast.parse((PKG / f"{name}.py").read_text())


def package_imports(name) -> set:
    out = set()
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = node.module.split(".") if node.module else []
            elif node.module and node.module.split(".")[0] == "superns":
                parts = node.module.split(".")[1:]
            else:
                continue
            out.update(parts[:1] or [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "superns":
                    out.update(parts[1:2])
    return out


def test_every_module_has_a_layer():
    modules = {p.stem for p in PKG.glob("*.py") if p.stem != "__init__"}
    assert modules == set(ALLOWED)


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_imports_respect_the_layers(name):
    assert package_imports(name) <= ALLOWED[name]


def test_one_accumulator_and_one_binom():
    for name in ALLOWED:
        tree = _tree(name)
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        # no ring class has a scaled method either, nor grassmann a _scaled
        # helper: a multiple is sparse.scaled
        shared = defined & {"add_term", "add_terms", "add_scaled", "scaled", "_scaled", "binom",
                            "_vec_add", "vec_sum", "vec_scale"}
        assert not shared or name == "sparse", (name, shared)
    # vosa accumulates only through add_scaled, never term by term
    imported = {a.name for node in ast.walk(_tree("vosa"))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert "add_scaled" in imported and "add_term" not in imported


def test_ns_elements_are_plain_dicts():
    """A Neveu-Schwarz algebra element is a sparse dict {generator:
    GradedPoly}, with no wrapper class: VermaModule is the only class nsalg
    defines, and nsalg takes only add_scaled from sparse."""
    tree = _tree("nsalg")
    assert [node.name for node in tree.body if isinstance(node, ast.ClassDef)] == ["VermaModule"]
    assert [a.name for node in tree.body if isinstance(node, ast.ImportFrom)
            and node.module == "sparse" for a in node.names] == ["add_scaled"]


def test_one_soul_series():
    """The body/soul power series lives in GrassmannElement.__pow__ alone:
    no inverse or sqrt beside it, no zpow or SFun.sqrt in superseries, no
    delta-function tables in vosa (they are a test oracle), no binomial
    coefficient elsewhere in grassmann, and SFun.power sums its series in
    u with one binomial call, not a double sum over a split of u."""
    tree = _tree("grassmann")
    element = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "GrassmannElement")
    methods = {node.name: node for node in element.body if isinstance(node, ast.FunctionDef)}
    assert "__pow__" in methods
    assert not {"inverse", "sqrt"} & set(methods)
    defined = {node.name for node in ast.walk(_tree("superseries"))
               if isinstance(node, ast.FunctionDef)}
    assert "zpow" not in defined
    sfun = next(node for node in _tree("superseries").body
                if isinstance(node, ast.ClassDef) and node.name == "SFun")
    sfun_methods = {node.name: node for node in sfun.body if isinstance(node, ast.FunctionDef)}
    assert "power" in sfun_methods and "sqrt" not in sfun_methods
    assert sum(1 for node in ast.walk(sfun_methods["power"])
               if isinstance(node, ast.Call) and "binom" in _names(node.func)) == 1
    vosa = {node.name for node in ast.walk(_tree("vosa"))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not {"DeltaSeries", "delta_expand"} & vosa
    inside = {id(node) for node in ast.walk(methods["__pow__"])}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and "binom" in _names(node.func):
            assert id(node) in inside, node.lineno


def test_one_graded_product_loop():
    """grassmann.add_product is the one loop that multiplies graded terms,
    by adding their packed keys: no GradedPoly._product beside it, and no
    monomial merge (_mul_mono) or merge memo (_merges) is left.  No helper
    re-normalizes a finished product (grassmann._integral) and sewing keeps
    no pass-through filter (_whole).  Only grassmann reads the key layout
    (ParamSpec's private fields); other modules pass its public layout on."""
    for name in ALLOWED:
        tree = _tree(name)
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not defined & {"_integral", "_whole", "_mul_mono", "_product"}, name
        attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "_merges" not in attrs, name
        if name != "grassmann":
            assert not attrs & {a for a in ParamSpec.__slots__ if a.startswith("_")}, name
    # sewing reads term keys through ParamSpec's accessors, never by index
    for node in ast.walk(_tree("sewing")):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            assert node.value.id not in {"key", "k", "mono"}, node.lineno


def _functions(tree, names) -> dict:
    return {node.name: node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in names}


def _qualified(module) -> dict:
    """id of every node inside a module-level function or a method -> its
    name, Class.method for a method."""
    out = {}
    for top in module.body:
        if isinstance(top, ast.FunctionDef):
            out |= {id(n): top.name for n in ast.walk(top)}
        elif isinstance(top, ast.ClassDef):
            for fn in top.body:
                if isinstance(fn, ast.FunctionDef):
                    out |= {id(n): f"{top.name}.{fn.name}" for n in ast.walk(fn)}
    return out


def test_one_grassmann_product_loop():
    """grassmann.add_product is the one loop that multiplies monomials, on
    any spec's layout: _merge_sign is called only there.
    superseries multiplies coefficients in one function: add_product and
    parity_twist are called inside it alone, SFun.__mul__, scale_left,
    SFun.power, ss_compose and _apply_flow all sum their products through
    it, and __mul__ and scale_left multiply nothing themselves.  settle, which
    forms the coefficients of add_product's accumulator, is defined in
    grassmann and called only by the one ring product, GradedPoly.__mul__,
    which GrassmannElement inherits, by that one superseries function,
    _sum_left, and by sewing's _exp_graded."""
    owners = set()
    for name in ALLOWED:
        tree = _tree(name)
        inside = {}
        for fname, fn in _functions(tree, {"add_product"}).items():
            inside |= {id(n): fname for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "_merge_sign" in _names(node.func):
                assert id(node) in inside, (name, node.lineno)
                owners.add((name, inside[id(node)]))
    assert owners == {("grassmann", "add_product")}
    tree = _tree("superseries")
    kernels = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for n in ast.walk(fn) if isinstance(n, ast.Call)
               and _names(n.func) & {"add_product", "parity_twist"}}
    assert len(kernels) == 1, kernels
    kernel = kernels.pop()
    assert "_from_masks" not in {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    sfun = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "SFun")
    callers = _functions(sfun, {"__mul__", "scale_left", "power"})
    callers |= _functions(tree, {"ss_compose", "_apply_flow"})
    assert len(callers) == 5
    for fname, fn in callers.items():
        assert kernel in _names(fn), fname
    for fname in ("__mul__", "scale_left"):
        products = [n.lineno for n in ast.walk(callers[fname])
                    if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Mult)]
        assert not products, (fname, products)
    found = set()
    for name in ALLOWED:
        module = _tree(name)
        defined = {n.name for n in ast.walk(module) if isinstance(n, ast.FunctionDef)}
        assert ("settle" in defined) == (name == "grassmann"), name
        inside = _qualified(module)
        for node in ast.walk(module):
            if isinstance(node, ast.Call) and "settle" in _names(node.func):
                assert id(node) in inside, (name, node.lineno)
                found.add((name, inside[id(node)]))
    assert found == {("grassmann", "GradedPoly.__mul__"), ("superseries", kernel),
                     ("sewing", "_exp_graded")}
    assert kernel == "_sum_left"


# what GrassmannElement adds to GradedPoly: its constructors by generator
# count, the body/soul split and the soul series
GRASSMANN_METHODS = {"__init__", "_like", "scalar", "generator", "monomial", "body", "soul",
                     "split", "__pow__"}


def test_a_grassmann_element_is_a_graded_poly():
    """GrassmannElement subclasses GradedPoly and defines only the methods
    that need its generator count; its coefficient domain is the class
    attribute _coeff, and its ring operations are GradedPoly's own
    functions, bound under its name so a tracer can wrap each ring apart."""
    cls = next(node for node in _tree("grassmann").body
               if isinstance(node, ast.ClassDef) and node.name == "GrassmannElement")
    assert _names(cls.bases[0]) == {"GradedPoly"} and len(cls.bases) == 1
    methods = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    assert methods == GRASSMANN_METHODS
    bound = {t.id for node in cls.body if isinstance(node, ast.Assign) for t in node.targets}
    assert bound == {"__slots__", "_coeff", "__add__", "__radd__", "__mul__"}
    for name in ("__add__", "__radd__", "__mul__"):
        assert GrassmannElement.__dict__[name] is GradedPoly.__dict__[name], name
    assert GradedPoly.__dict__["__radd__"] is GradedPoly.__dict__["__add__"]


# sewing's solver: the functions and the class whose arithmetic is on GradedPoly
SOLVER = {"_exp_graded", "_Adjoint", "_Factorization", "sw_solve",
          "sw_consistency_check", "sw_gamma2"}
GAUSSIAN = {"QQi", "as_qqi"}


def _names(node) -> set:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.asname or n.name)
    return out


def _solver_nodes() -> list:
    return [node for node in _tree("sewing").body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in SOLVER]


def test_graded_layers_use_no_gaussian_rationals():
    """QQi stays where a Grassmann body can be complex: nsalg and the sewing
    solver work on GradedPoly's rational coefficients only."""
    assert not _names(_tree("nsalg")) & GAUSSIAN
    solver = _solver_nodes()
    assert {node.name for node in solver} == SOLVER
    for node in solver:
        assert not _names(node) & GAUSSIAN, node.name


def test_series_name_i_only_in_the_inversion():
    """superseries works on canonical coefficients: i enters only through
    SuperSeries.inversion, the boundary involution (1/z, i*theta/z), and no
    scalar is wrapped as a Gaussian rational."""
    tree = _tree("superseries")
    assert "as_qqi" not in _names(tree)
    series = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "SuperSeries")
    inversion = next(node for node in series.body
                     if isinstance(node, ast.FunctionDef) and node.name == "inversion")
    inside = {id(n) for n in ast.walk(inversion)}
    uses = [n.lineno for n in ast.walk(tree) if id(n) not in inside
            and "QQi" in _names(n) and isinstance(n, (ast.Name, ast.Attribute))]
    assert not uses
    assert "QQi" in _names(inversion)


def test_solver_vectors_never_pass_through_words():
    """The solver keys vectors by basis position from end to end, and the
    Verma module acts by position too: no word -> position boundary remains
    at action time, and no solver function reads the module's position map."""
    solver = _solver_nodes()
    assert {node.name for node in solver} == SOLVER
    for node in solver:
        reads = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        assert "position" not in reads, node.name


# the Fock basis of doubled fermion parts, the free mode actions, the
# x-sector recursion and the doubled-key mode path from the column read to
# 2L(n), which run on ints
INTEGRAL = {"FockSpace": {"_fermion_subsets", "boson_act", "gen_act", "fermion_act"},
            "VertexData": {"_xmode_col", "_product_mode_col", "_k2_col",
                           "mode_apply_vec", "_L2_apply"}}


def test_vosa_mode_layer_builds_no_fraction():
    """No Fraction is built in the Fock basis's fermion parts, the free mode
    actions, the field-product recursion of the x sector or on the
    doubled-key mode path: their keys and coefficients are ints."""
    found = set()
    for cls in _tree("vosa").body:
        if isinstance(cls, ast.ClassDef) and cls.name in INTEGRAL:
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name in INTEGRAL[cls.name]:
                    found.add(node.name)
                    calls = [n.lineno for n in ast.walk(node)
                             if isinstance(n, ast.Call) and "Fraction" in _names(n.func)]
                    assert not calls, (node.name, calls)
    assert found == set().union(*INTEGRAL.values())


def test_diffop_takes_nsalg_generators():
    """Every DiffOp built in the package is named by an int generator of
    nsalg's encoding, never by a kind string."""
    calls = [(name, node) for name in ALLOWED for node in ast.walk(_tree(name))
             if isinstance(node, ast.Call) and "DiffOp" in _names(node.func)]
    assert calls
    for name, node in calls:
        args = node.args + [k.value for k in node.keywords]
        assert len(args) == 1, (name, node.lineno)
        strings = [n for a in args for n in ast.walk(a)
                   if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        assert not strings, (name, node.lineno)


def test_one_flow_term_builder():
    """superseries builds a DiffOp only in _flow_terms, so the rule from a
    coordinate family to its generator (L(±j) for an even value at j,
    G(±(j - 1/2)) for an odd one) is written once for both ends, and both
    flow maps take their terms from it."""
    tree = _tree("superseries")
    builder = _functions(tree, {"_flow_terms"})["_flow_terms"]
    inside = {id(n) for n in ast.walk(builder)}
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and "DiffOp" in _names(n.func)]
    assert calls
    assert all(id(n) in inside for n in calls), [n.lineno for n in calls if id(n) not in inside]
    for fname, fn in _functions(tree, {"ss_exp_zero", "ss_exp_infinity"}).items():
        assert "_flow_terms" in _names(fn), fname
