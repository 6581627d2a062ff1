"""Source checks that need no linter: unread locals and parameters, field
branches, cocycles expressed one at a time and top-level names that
nothing reaches.

The scan is stdlib ``ast`` only.  A local is a name a function assigns
(also by tuple unpacking, a loop or ``with ... as``); it is unread when no
expression of that function, or of a scope nested in it that does not
bind the name itself, reads it.  A parameter is unread in the same sense.
Names starting with ``_`` are exempt, and so are ``self``, ``cls`` and the
parameters of ``@scenario`` functions, which the registry passes to every
scenario (``seed``, ``budget``) whether it uses them or not.
"""

import ast
import importlib.util
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "charp"

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
SCOPES = FUNCS + (ast.ClassDef, ast.ListComp, ast.SetComp, ast.DictComp,
                  ast.GeneratorExp)

LOOPS = (ast.For, ast.AsyncFor, ast.While)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

# `.is_field` lines allowed outside rings.py and linalg.py: none; linalg
# alone picks the elimination of a ring family (solver, quotient)
IS_FIELD_LINES = 0


def _params(scope):
    if not isinstance(scope, FUNCS):
        return set()
    a = scope.args
    return {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs +
            [a.vararg, a.kwarg] if x is not None}


def _is_scenario(func):
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) ==
               "scenario" for d in func.decorator_list)


def _free_reads(scope, unread, unread_params):
    """Names `scope` reads from outside; appends its unread locals and
    parameters."""
    stores, reads, declared = {}, set(), set()
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, SCOPES):
            reads |= _free_reads(node, unread, unread_params)
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                stores.setdefault(node.id, node.lineno)
            else:
                reads.add(node.id)
        todo.extend(ast.iter_child_nodes(node))
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        unread.extend((line, scope.name, name)
                      for name, line in stores.items()
                      if not name.startswith("_")
                      and name not in reads | declared)
        if not _is_scenario(scope):
            unread_params.extend(
                (scope.lineno, scope.name, name)
                for name in _params(scope) - reads - {"self", "cls"}
                if not name.startswith("_"))
    if isinstance(scope, ast.ClassDef):
        return reads
    return reads - set(stores) - _params(scope) - declared


def _unread(path):
    unread, unread_params = [], []
    _free_reads(ast.parse(path.read_text()), unread, unread_params)
    return [[f"{path.name}:{line} {name} in {fn}()"
             for line, fn, name in sorted(found)]
            for found in (unread, unread_params)]


def unread_locals(path):
    return _unread(path)[0]


def unread_params(path):
    return _unread(path)[1]


def test_no_unread_locals():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in unread_locals(path)]
    assert found == []


def test_no_unread_params():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in unread_params(path)]
    assert found == []


def test_scan_finds_unread_tuple_and_loop_locals(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "def f(xs):\n"
        "    a, b = xs\n"
        "    for i, v in enumerate(xs):\n"
        "        print(v)\n"
        "    _, c = xs\n"
        "    return [b for b in c]\n"
        "def g(n):\n"
        "    total = 0\n"
        "    def inner():\n"
        "        return total + n\n"
        "    return inner\n")
    assert unread_locals(mod) == ["m.py:2 a in f()", "m.py:2 b in f()",
                                  "m.py:3 i in f()"]


def test_scan_finds_unread_params(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "def f(a, b, _c, *args, d=1, **kw):\n"
        "    def inner(b):\n"
        "        return b + d\n"
        "    return inner(a)\n"
        "class K:\n"
        "    def m(self, x):\n"
        "        return 0\n"
        "@scenario('s', defaults={})\n"
        "def _s(p, seed, budget):\n"
        "    return p\n")
    assert unread_params(mod) == ["m.py:1 args in f()", "m.py:1 b in f()",
                                  "m.py:1 kw in f()", "m.py:6 x in m()"]


def test_is_field_branches_stay_few():
    lines = [f"{path.name}:{k}"
             for path in sorted(SRC.glob("*.py"))
             if path.name not in ("rings.py", "linalg.py")
             for k, line in enumerate(path.read_text().splitlines(), 1)
             if ".is_field" in line]
    assert len(lines) <= IS_FIELD_LINES, lines


def entries_reads(path):
    """Lines that read an ``.entries`` attribute: the entry format of a
    ``Mat`` stays behind ``linalg``, as ``.is_field`` does."""
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "entries"]


def test_only_linalg_reads_entries():
    hits = [hit for path in sorted(SRC.glob("*.py"))
            if path.name != "linalg.py" for hit in entries_reads(path)]
    assert not hits, hits


def test_scan_finds_entries_reads(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def f(d):\n"
                    "    # the entries of d\n"
                    "    r, c, v = d.entries\n"
                    "    return len(d.data), g(d).entries[2]\n")
    assert entries_reads(path) == ["mod.py:3", "mod.py:4"]


def express_in_loops(path):
    """Lines of `.express(` calls that a loop or comprehension repeats;
    ``CohomologySlice.express`` takes all columns of a matrix at once."""
    hits = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, LOOPS):
            repeated = node.body + node.orelse
        elif isinstance(node, COMPREHENSIONS):
            repeated = [node]
        else:
            continue
        hits.update(f"{path.name}:{sub.lineno}"
                    for part in repeated for sub in ast.walk(part)
                    if isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "express")
    return sorted(hits)


def test_no_express_in_loops():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in express_in_loops(path)]
    assert found == []


def test_scan_finds_express_in_loops_and_comprehensions(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "def f(h, vs, m):\n"
        "    x = h.express(m)\n"
        "    for v in vs:\n"
        "        print(h.express(v))\n"
        "    ys = [h.express(v) for v in vs]\n"
        "    while vs:\n"
        "        vs = (lambda: h.express(vs.pop()))()\n"
        "    return x, ys, {k: h.express(k) for k in vs}\n")
    assert express_in_loops(mod) == ["m.py:4", "m.py:5", "m.py:7",
                                     "m.py:8"]


# doldkan finds N^n by selecting nondegenerate columns, never by elimination
ELIMINATION = {"echelon", "solver", "free_kernel_basis", "kernel_basis",
               "diagonalize", "quotient"}


def imported_names(path):
    """Every name a module imports, by `import` or `from ... import`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1]
                         for alias in node.names)
    return names


def test_doldkan_imports_no_elimination():
    assert imported_names(SRC / "doldkan.py") & ELIMINATION == set()


# cosalg realises a cocycle by the explicit projector and a forward
# substitution
def test_cosalg_imports_no_elimination():
    assert imported_names(SRC / "cosalg.py") & ELIMINATION == set()


# multisets and subsets are enumerated once, by doldkan.multiset_levels and
# monomials; everything else ranks or reads them
def test_no_itertools_enumeration_of_multisets_or_subsets():
    assert {path.name for path in SRC.glob("*.py")
            if imported_names(path) & {"combinations",
                                       "combinations_with_replacement"}} \
        == set()


def test_scan_finds_imported_elimination(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "from .linalg import Mat, solver\n"
        "def f(m):\n"
        "    from .linalg import free_kernel_basis as fkb\n"
        "    import charp.linalg.echelon\n"
        "    return fkb(m)\n")
    assert imported_names(mod) & ELIMINATION == {
        "solver", "free_kernel_basis", "echelon"}


# rings._product_dtype alone knows when a float32 or float64 product of
# codes is exact
FLOAT_NAMES = {"float32", "float64"}
FLOAT_BOUNDS = {"2 ** 24", "2 ** 53"}


def float_bound_lines(path):
    """Lines whose code (not comments) names float32 or float64 or computes
    2 ** 24 or 2 ** 53."""
    hits = set()
    for node in ast.walk(ast.parse(path.read_text())):
        names = {getattr(node, "id", None), getattr(node, "attr", None),
                 getattr(node, "value", None)}
        if names & FLOAT_NAMES or isinstance(node, ast.BinOp) and \
                ast.unparse(node) in FLOAT_BOUNDS:
            hits.add(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(hits)]


def test_float_bound_only_in_rings():
    found = [hit for path in sorted(SRC.glob("*.py"))
             if path.name != "rings.py" for hit in float_bound_lines(path)]
    assert found == []


def test_scan_finds_float_bound(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "import numpy as np\n"
        "# a float64 product is exact below 2 ** 53\n"
        "def f(a, m):\n"
        "    ok = a.shape[1] * (m - 1) ** 2 < 2**53\n"
        "    b = a.astype(np.float64)\n"
        "    return ok, b.astype('float64'), \"float64 in a docstring\"\n"
        "# float32 is exact below 2 ** 24\n"
        "def g(a, m):\n"
        "    ok = a.shape[1] * (m - 1) ** 2 < 2 **24\n"
        "    return ok, a.astype(np.float32), a.astype('float32')\n")
    assert float_bound_lines(mod) == ["m.py:4", "m.py:5", "m.py:6",
                                      "m.py:9", "m.py:10"]


# the natural maps, the surjection operators and the nerve's structure maps
# are index maps and the Dold-Kan projector is applied as a product of
# factors: no src/ code builds them densely, and doldkan/cosalg densify only
# in CosimplicialModule.s and its coface twin d
DENSE_BUILDERS = re.compile(
    r"\b(norm_matrix|restriction_matrix|delta_matrix|psi_matrix|"
    r"multiset_multiplicity_factorials|normalization_projector)\b|"
    r"\bdef operator\b")


def dense_builder_lines(path):
    return [f"{path.name}:{k}"
            for k, line in enumerate(path.read_text().splitlines(), 1)
            if DENSE_BUILDERS.search(line)]


def _inside(tree, allowed):
    """ids of the nodes inside the top-level functions and methods named
    in ``allowed`` ("name" or "Class.name")."""
    defs = [(node.name, node) for node in tree.body
            if isinstance(node, ast.FunctionDef)]
    defs += [(f"{cls.name}.{fn.name}", fn) for cls in tree.body
             if isinstance(cls, ast.ClassDef) for fn in cls.body
             if isinstance(fn, ast.FunctionDef)]
    return {id(sub) for name, fn in defs if name in allowed
            for sub in ast.walk(fn)}


def calls_outside(path, wanted, allowed):
    """Lines of the calls ``wanted`` accepts outside ``allowed``."""
    tree = ast.parse(path.read_text())
    skip = _inside(tree, allowed)
    return sorted(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and wanted(node)
                  and id(node) not in skip)


def _callee(call):
    return getattr(call.func, "attr", getattr(call.func, "id", None))


def dense_calls(path):
    """Lines of `.dense()` calls outside CosimplicialModule.s and d."""
    return calls_outside(
        path, lambda c: isinstance(c.func, ast.Attribute)
        and _callee(c) == "dense",
        {"CosimplicialModule.s", "CosimplicialModule.d"})


def test_no_dense_natural_maps_or_operators():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in dense_builder_lines(path)]
    found += [hit for name in ("doldkan.py", "cosalg.py")
              for hit in dense_calls(SRC / name)]
    assert found == []


def test_scan_finds_dense_builders_and_calls(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "from .doldkan import norm_matrix\n"
        "class CosimplicialModule:\n"
        "    def s(self, n, j):\n"
        "        return self.codegens[(n, j)].dense()\n"
        "    def d(self, n, i):\n"
        "        return self.cofaces[(n, i)].dense()\n"
        "    def operator(self, alpha, m, n):\n"
        "        return self.s(m, 0).dense()\n"
        "def _psi_matrix(n):\n"
        "    return delta_matrix(n).dense()\n")
    assert dense_builder_lines(mod) == ["m.py:1", "m.py:7", "m.py:10"]
    assert dense_calls(mod) == ["m.py:10", "m.py:8"]


# every coface is an index map, summed by coface_sum; only the check of a
# cosimplicial map against its Dold-Kan source reads the dense form d(n, i)
DENSE_COFACE_READERS = {"validate_cosimplicial_map"}

# the functor powers of a whole matrix that only a dense coface needed, and
# the epi-mono factorization its C.d blocks were read through, are test
# oracles (tests/helpers.py): no src/ code defines or calls them
TEST_ORACLES = {"power_matrix", "div_power_matrix", "epi_mono_factor"}

# a coface or codegeneracy is an IndexMap by construction: only IndexMap,
# the constructor that enforces it and conormalize_map (whose level maps
# may be Mats) test for one
INDEX_MAP_TESTERS = {"IndexMap.__eq__", "IndexMap.__matmul__",
                     "CosimplicialModule.__init__", "conormalize_map"}


def dense_coface_calls(path):
    """Lines of two-argument `.d(n, i)` calls outside the identity checks."""
    return calls_outside(
        path, lambda c: isinstance(c.func, ast.Attribute)
        and _callee(c) == "d" and len(c.args) == 2, DENSE_COFACE_READERS)


def oracle_lines(path):
    """Lines that define or call one of the TEST_ORACLES."""
    return sorted(f"{path.name}:{node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.FunctionDef)
                  and node.name in TEST_ORACLES
                  or isinstance(node, ast.Call)
                  and _callee(node) in TEST_ORACLES)


def index_map_tests(path):
    """Lines of `isinstance(..., IndexMap)` calls outside INDEX_MAP_TESTERS."""
    return calls_outside(
        path, lambda c: _callee(c) == "isinstance" and len(c.args) == 2
        and "IndexMap" in ast.unparse(c.args[1]), INDEX_MAP_TESTERS)


def test_no_dense_cofaces_or_functor_power_matrices():
    found = [hit for name in ("doldkan.py", "cosalg.py")
             for hit in dense_coface_calls(SRC / name)]
    found += [hit for path in sorted(SRC.glob("*.py"))
              for hit in oracle_lines(path) + index_map_tests(path)]
    assert found == []


def test_scan_finds_dense_cofaces_and_power_matrices(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "from . import doldkan\n"
        "class CosimplicialModule:\n"
        "    def validate(self):\n"
        "        return self.d(2, 0) @ self.d(1, 0)\n"
        "    def coboundary(self, n):\n"
        "        return self.d(n + 1, 0), self.d(n)\n"
        "def validate_cosimplicial_map(DK, X):\n"
        "    return X @ DK.d(1, 0)\n"
        "def conormalize(A, top=None, functor=None):\n"
        "    def power(m):\n"
        "        return power_matrix(A.ring, functor, m)\n"
        "    return power\n"
        "def d_gamma(A, F):\n"
        "    return doldkan.power_matrix(A.ring, F, A.module.d(2, 1))\n"
        "def twin(A, F):\n"
        "    return sym_power_matrix(A.ring, A.d(0), 2)\n"
        "def epi_mono_factor(alpha):\n"
        "    return div_power_matrix(None, alpha, 2)\n"
        "def coface_sum(maps):\n"
        "    return [isinstance(m, (Mat, IndexMap)) for m in maps]\n"
        "def conormalize_map(m):\n"
        "    return isinstance(m, IndexMap) or isinstance(m, Mat)\n")
    assert dense_coface_calls(mod) == ["m.py:14", "m.py:4", "m.py:4",
                                       "m.py:6"]
    assert oracle_lines(mod) == ["m.py:11", "m.py:14", "m.py:17",
                                      "m.py:18"]
    assert index_map_tests(mod) == ["m.py:20"]


# N^n of a functor power is read off the codegeneracies of its base
# module: no codegeneracy is raised to a functor
def _reads_codegens(node):
    return any(getattr(sub, "attr", None) == "codegens"
               for sub in ast.walk(node))


def codegeneracy_power_calls(path):
    """Lines of `index_power` calls with an argument that reads
    `.codegens`, or inside a loop or comprehension that iterates over it."""
    spans = [(node.lineno, node.end_lineno)
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.For) and _reads_codegens(node.iter)
             or isinstance(node, COMPREHENSIONS) and any(
                 _reads_codegens(g.iter) for g in node.generators)]
    return calls_outside(
        path, lambda c: _callee(c) == "index_power" and (
            any(_reads_codegens(a)
                for a in c.args + [k.value for k in c.keywords])
            or any(lo <= c.lineno <= hi for lo, hi in spans)), set())


def test_no_codegeneracy_is_raised_to_a_functor():
    assert [hit for path in sorted(SRC.glob("*.py"))
            for hit in codegeneracy_power_calls(path)] == []


def test_scan_finds_codegeneracy_powers(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "from .doldkan import index_power\n"
        "def levelwise(F, A):\n"
        "    cofaces = [index_power(F, m) for m in A.cofaces.values()]\n"
        "    codegens = {k: index_power(F, m)\n"
        "                for k, m in A.codegens.items()}\n"
        "    return cofaces, codegens\n"
        "def one(F, A, n):\n"
        "    for j in range(n):\n"
        "        index_power(F, A.cofaces[(n, j)])\n"
        "    return doldkan.index_power(functor=F, s=A.codegens[(n, 0)])\n"
        "def each(F, A):\n"
        "    for m in A.codegens.values():\n"
        "        yield index_power(F, m)\n")
    assert codegeneracy_power_calls(mod) == ["m.py:10", "m.py:13", "m.py:4"]


# names through which a module could draw at random
RANDOM_NAMES = {"random", "secrets", "numpy.random", "default_rng",
                "RandomState", "Generator", "shuffle", "permutation",
                "choice", "randint", "randrange", "rand", "randn",
                "urandom"}


def test_linalg_draws_nothing_at_random():
    """Elimination is deterministic: the tall front end of ``echelon``
    picks evenly spaced rows, and no name in linalg.py reaches a random
    source."""
    names = set()
    for node in ast.walk(ast.parse((SRC / "linalg.py").read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {a.name for a in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert not names & RANDOM_NAMES, names & RANDOM_NAMES


# every top-level name in src/charp is read by src code besides its
# definition, or is reached from outside src: the console script
# (pyproject's [project.scripts]), the API the README names and every name
# perfbench/spans.py rebinds (read from its TARGETS); @scenario functions
# are reached through the registry
ENTRY_POINTS = {"cli.main", "scenarios.run", "scenarios.run_all",
                "rings.ring_make", "extclass.AlphaClass"}
SPANS = SRC.parent.parent / "perfbench" / "spans.py"


def _spans_targets(path):
    """The TARGETS list of a spans file, read without importing charp."""
    spec = importlib.util.spec_from_file_location("spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def span_targets(path):
    """"module.attribute.path" of every TARGETS entry of a spans file."""
    return {f"{mod}.{attr}" for _, mod, attr, _ in _spans_targets(path)}


def _top_level(tree):
    """(name, node) of each module-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            yield from ((t.id, node) for t in node.targets
                        if isinstance(t, ast.Name))


def _parse_all(src):
    return {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}


def defined_names(src):
    """"module.name" (and "module.Class.method") of every top-level
    definition in a source directory."""
    names = set()
    for mod, tree in _parse_all(src).items():
        for name, node in _top_level(tree):
            names.add(f"{mod}.{name}")
            if isinstance(node, ast.ClassDef):
                names.update(f"{mod}.{name}.{sub.name}" for sub in node.body
                             if isinstance(sub, ast.FunctionDef))
    return names


def unreached_names(src, allowed=frozenset()):
    """Top-level names of a source directory that no code there reads
    besides their definition: no load of the name in its own module, no
    ``from .module import name`` and no ``module.name`` in another."""
    trees = _parse_all(src)
    read = set(allowed)
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(f"{mod}.{node.id}")
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                read.update(f"{node.module or '__init__'}.{a.name}"
                            for a in node.names)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in trees:
                read.add(f"{node.value.id}.{node.attr}")
    return sorted(f"{mod}.{name}" for mod, tree in trees.items()
                  for name, node in _top_level(tree)
                  if f"{mod}.{name}" not in read and not (
                      isinstance(node, ast.FunctionDef)
                      and _is_scenario(node)))


def test_every_top_level_name_is_reached():
    allowed = ENTRY_POINTS | {".".join(t.split(".")[:2])
                              for t in span_targets(SPANS)}
    assert unreached_names(SRC, allowed) == []


def test_entry_points_exist():
    assert sorted(ENTRY_POINTS - defined_names(SRC)) == []


def test_span_targets_resolve_in_charp():
    # each target as the tracer looks it up: a method in its class's own
    # __dict__, a function as a module attribute; a rename or a move to a
    # base class fails here, not only in a traced benchmark run
    assert {"extclass.AlphaClass.__init__", "rings.ZModPE.varray",
            "rings.PolyQuotient.vmatmul", "linalg.echelon"} <= \
        span_targets(SPANS)
    missing = []
    for _, mod, path, _ in _spans_targets(SPANS):
        module = importlib.import_module(f"charp.{mod}")
        owner, _, attr = path.rpartition(".")
        names = vars(getattr(module, owner)) if owner else vars(module)
        if not callable(names.get(attr)):
            missing.append(f"{mod}.{path}")
    assert missing == []


def test_scan_finds_unreached_names(tmp_path):
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n"
        "UNUSED = 4\n"
        "def helper(x):\n"
        "    return x + LIMIT\n"
        "def public(x):\n"
        "    return helper(x)\n"
        "def orphan():\n"
        "    return 0\n"
        "class K:\n"
        "    def m(self):\n"
        "        return 1\n"
        "@scenario('s', defaults={})\n"
        "def _s(seed, budget):\n"
        "    return {}, {}\n")
    (tmp_path / "b.py").write_text(
        "from .a import public\n"
        "from . import a\n"
        "def entry():\n"
        "    return public(1), a.K()\n")
    assert unreached_names(tmp_path) == ["a.UNUSED", "a.orphan",
                                         "b.entry"]
    assert unreached_names(tmp_path, {"b.entry"}) == ["a.UNUSED",
                                                      "a.orphan"]
    assert defined_names(tmp_path) >= {"a.K.m", "a.LIMIT", "b.entry"}


# a complex builds each cohomology slice once, in CochainComplex.slice, and
# keeps it; nothing else keeps slices or their solvers
SLICE_CACHES = {"_slices", "_solvers"}


def slice_builds(path):
    """Lines of `CohomologySlice(` calls outside CochainComplex.slice."""
    return calls_outside(path, lambda c: _callee(c) == "CohomologySlice",
                         {"CochainComplex.slice"})


def slice_caches(path):
    """Lines that set a `_slices` or `_solvers` attribute."""
    return sorted(f"{path.name}:{node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)
                  and node.attr in SLICE_CACHES)


def test_one_slice_cache():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in slice_builds(path) + slice_caches(path)]
    assert found == []


def test_scan_finds_slice_builds_and_caches(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "from . import complexes\n"
        "class CochainComplex:\n"
        "    def slice(self, i):\n"
        "        return CohomologySlice(self, i)\n"
        "class Engine:\n"
        "    def __init__(self, C):\n"
        "        self._slices = {0: CohomologySlice(C, 0)}\n"
        "        self._solvers, self.n = {}, 0\n"
        "def slice_at(C, i):\n"
        "    return complexes.CohomologySlice(C, i)\n")
    assert slice_builds(mod) == ["m.py:10", "m.py:7"]
    assert slice_caches(mod) == ["m.py:7", "m.py:8"]


def bare_unique_calls(path):
    """Lines of `np.unique` calls without a `return_*` argument: numpy
    answers those through `np.ma.is_masked`, so the first one in a process
    imports numpy.ma (about 6 ms) inside whatever scenario makes it."""
    return calls_outside(
        path, lambda c: isinstance(c.func, ast.Attribute)
        and _callee(c) == "unique"
        and not any((k.arg or "").startswith("return_") for k in c.keywords),
        set())


def test_no_bare_np_unique():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in bare_unique_calls(path)]
    assert found == []


def test_scan_finds_bare_np_unique(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "import numpy as np\n"
        "def f(a):\n"
        "    u, of = np.unique(a, return_inverse=True)\n"
        "    return np.unique(a).size, np.unique(a, axis=0), u, of\n"
        "def g(a):\n"
        "    return np.unique(a, return_index=True)\n")
    assert bare_unique_calls(mod) == ["m.py:4", "m.py:4"]


# a subquotient is one elimination: linalg.quotient alone reduces a
# stacked [B | Z], and its callers read generators and coordinates from it
STACKED_SOLVERS = {"solver", "echelon", "diagonalize"}


def stacked_solves(path):
    """Lines of `solver`, `echelon` or `diagonalize` calls outside
    linalg.quotient whose argument is built with `.hstack(`, directly or
    through a name assigned from one."""
    tree = ast.parse(path.read_text())

    def stacked(node, names=frozenset()):
        return any(isinstance(sub, ast.Call) and _callee(sub) == "hstack"
                   or isinstance(sub, ast.Name) and sub.id in names
                   for sub in ast.walk(node))

    names = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and stacked(node.value) for t in node.targets
             if isinstance(t, ast.Name)}
    return calls_outside(
        path, lambda c: _callee(c) in STACKED_SOLVERS
        and any(stacked(arg, names) for arg in c.args), {"quotient"})


def test_stacked_solves_only_in_quotient():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in stacked_solves(path)]
    assert found == []


def test_scan_finds_stacked_solves(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "import numpy as np\n"
        "def quotient(Z, B):\n"
        "    return echelon(B.hstack(Z), transform=False)\n"
        "class Slice:\n"
        "    def __init__(self, B, Z):\n"
        "        self.im = solver(B)\n"
        "        self.ex = solver(B.hstack(Z))\n"
        "def project(ring, B, Q):\n"
        "    M = Mat(ring, np.hstack([B.data, Q.data]))\n"
        "    return linalg.diagonalize(M), echelon(Q, False)\n")
    assert stacked_solves(mod) == ["m.py:10", "m.py:7"]
