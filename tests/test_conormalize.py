"""Conormalization by selecting nondegenerate columns, checked against the
dense elimination path; functor powers of matrices and index maps,
checked against scalar and dense oracles; codegeneracies as index maps;
the memory preflight of the derived powers."""

import json
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from hypothesis import example, given, seed, settings, strategies as st

from helpers import (coface_sum_oracle, dense_conormalize, dense_dk_map,
                     direct_sum,
                     div_power_matrix, index_map_from_mat, module_complex,
                     natural_map, nondegenerate_oracle, power_matrix,
                     power_oracle, two_term)

from charp import doldkan
from charp.complexes import CochainComplex, shifted_module
from charp.config import DEFAULT, Budget, BudgetExceeded
from charp.doldkan import (CosimplicialModule, IndexMap, PolyFunctor,
                           coface_sum, conormalize, conormalize_map, derived_power,
                           dold_kan, ext_power_matrix, index_power,
                           nondegenerate, sym_power_matrix)
from charp.doldkan import codegeneracy_tuple, coface_tuple
from charp.linalg import Mat
from charp.rings import (galois_field, galois_ring, integers_mod,
                         prime_field, ring_make)

RINGS = [prime_field(2), prime_field(3), galois_field(3, 2),
         integers_mod(3, 2), galois_ring(2, 2, 2)]
FUNCTORS = [("sym", 2), ("div", 2), ("ext", 2), ("sym", 3)]


def complex_with_differential(ring, seed):
    """[R^2 -d-> R^2] (+) R[-1] with a random nonzero d."""
    rng = random.Random(seed)
    d = Mat.zeros(ring, 2, 2)
    while d.is_zero():
        d = Mat(ring, [[ring.random(rng) for _ in range(2)]
                       for _ in range(2)])
    return direct_sum(two_term(ring, d, 0), module_complex(ring, 1, 1))


def dk_graded(ring):
    """DK of the graded module R^2 (+) R^3[-1], the ranks of
    :func:`complex_with_differential`, 3 levels."""
    return dold_kan(CochainComplex(ring, 0, [2, 3], [Mat.zeros(ring, 3, 2)]),
                    3)


@pytest.mark.parametrize("spec", RINGS, ids=str)
def test_conormalize_matches_dense_oracle(spec):
    ring = ring_make(spec)
    A = dk_graded(ring)
    for kind, arity in FUNCTORS:
        F = PolyFunctor(kind, arity)
        cn = conormalize(A, functor=F)
        bases, diffs = dense_conormalize(F, A)
        assert not all(X.is_zero() for X in diffs)
        assert len(cn.sel) == len(bases)
        for n, basis in enumerate(bases):
            ident = Mat.identity(ring, basis.rows)
            assert ident.submatrix(range(basis.rows), cn.sel[n]) == basis
        for n, X in enumerate(diffs):
            assert cn.complex.d(n) == X


@pytest.mark.parametrize("kind", ["nerve", "functor-power"])
def test_conormalize_up_to_top_is_a_prefix(kind):
    from charp.cosalg import NerveAlgebra
    from charp.groups import cyclic_group
    ring = ring_make(prime_field(3))
    if kind == "nerve":
        A, F = NerveAlgebra(cyclic_group(3), ring, 4).module, None
    else:
        A, F = dold_kan(shifted_module(ring, 2, 1), 4), PolyFunctor("sym", 2)
    whole = conormalize(A, functor=F)
    for top in range(A.L + 1):
        part = conormalize(A, top, F)
        assert part.complex.ranks == whole.complex.ranks[:top + 1]
        assert len(part.sel) == top + 1 and all(
            np.array_equal(a, b) for a, b in zip(part.sel, whole.sel))
        assert all(part.complex.d(n) == whole.complex.d(n)
                   for n in range(top))
    # a top past the last level keeps every level
    assert conormalize(A, A.L + 2, F).complex.ranks == whole.complex.ranks


def counting_index_power(monkeypatch):
    """Patch doldkan.index_power to record the map of every call."""
    calls = []

    def counted(functor, s):
        calls.append(s)
        return index_power(functor, s)
    monkeypatch.setattr(doldkan, "index_power", counted)
    return calls


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_derived_power_raises_each_coface_once_and_no_codegeneracy(
        monkeypatch, bound):
    calls = counting_index_power(monkeypatch)
    C = shifted_module(ring_make(prime_field(3)), 2, 1)
    derived_power(PolyFunctor("sym", 3), C, bound)
    # L(L + 3) / 2 cofaces for L = bound + 1; raising the L(L + 1) / 2
    # codegeneracies too would make L(L + 2)
    L = bound + 1
    assert len(calls) == L * (L + 3) // 2


def test_conormalize_raises_only_the_cofaces_up_to_top(monkeypatch):
    calls = counting_index_power(monkeypatch)
    A = dold_kan(shifted_module(ring_make(prime_field(3)), 2, 1), 4)
    for top in range(A.L):
        calls.clear()
        conormalize(A, top, PolyFunctor("div", 2))
        assert [id(m) for m in calls] == [
            id(A.cofaces[(n, i)]) for n in range(1, top + 1)
            for i in range(n + 1)]


def random_sparse_matrix(ring, rng):
    rows, cols = rng.randrange(0, 5), rng.randrange(0, 5)
    density = rng.random()
    data = [[ring.random(rng) if rng.random() < density else ring.zero
             for _ in range(cols)] for _ in range(rows)]
    return Mat(ring, np.array(data, dtype=np.int64).reshape(rows, cols))


POWERS = {"sym": sym_power_matrix, "div": div_power_matrix,
          "ext": ext_power_matrix}


@pytest.mark.parametrize("spec", RINGS, ids=str)
def test_selected_power_matrices_match_scalar_oracle(spec):
    ring = ring_make(spec)
    rng = random.Random(11)
    for _ in range(8):
        f = random_sparse_matrix(ring, rng)
        for kind, power in POWERS.items():
            for arity in range(4):
                full = power_oracle(ring, kind, f, arity)
                assert np.array_equal(power(ring, f, arity).data, full), \
                    (kind, arity)


SELECTED_RINGS = [prime_field(5), galois_field(3, 2), integers_mod(3, 2),
                  galois_ring(2, 2, 2)]


@seed(3035)
@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_selected_sym_power_columns_match_the_scalar_oracle(data):
    """sym_power_matrix(..., cols) is the scalar oracle's Sym^n on those
    columns, over every row: no columns, every column, or a scattered
    subset, of random matrices with zero entries."""
    ring = ring_make(data.draw(st.sampled_from(SELECTED_RINGS), label="ring"))
    rows = data.draw(st.integers(0, 4), label="rows")
    cols = data.draw(st.integers(0, 4), label="cols")
    n = data.draw(st.integers(0, 4), label="n")
    entries = data.draw(st.lists(
        st.sampled_from([ring.zero] + list(ring.elements())),
        min_size=rows * cols, max_size=rows * cols), label="entries")
    f = Mat(ring, np.array(entries, dtype=np.int64).reshape(rows, cols))
    full = power_oracle(ring, "sym", f, n)
    width = full.shape[1]
    kind = data.draw(st.sampled_from(["none", "every", "scattered"]))
    sel = {"none": np.arange(0), "every": np.arange(width),
           "scattered": data.draw(subsets(width), label="sel")}[kind]
    got = sym_power_matrix(ring, f, n, cols=sel)
    assert got.data.shape == (full.shape[0], len(sel))
    assert np.array_equal(got.data, full[:, sel])


def random_index_map(ring, rows, cols, rng):
    """A partial injection rows -> cols with random unit coefficients."""
    units = [a for a in ring.elements() if ring.is_unit(a)]
    targets = rng.sample(range(cols), min(rows, cols))
    idx = np.array([targets[r] if r < len(targets) and rng.random() < 0.8
                    else -1 for r in range(rows)], dtype=np.int64)
    rng.shuffle(idx)
    coef = np.array([rng.choice(units) for _ in range(rows)],
                    dtype=np.int64)
    return IndexMap(ring, idx, coef, cols)


@pytest.mark.parametrize("spec", RINGS, ids=str)
def test_index_power_matches_power_matrix(spec):
    ring = ring_make(spec)
    rng = random.Random(7)
    maps = [random_index_map(ring, rng.randrange(0, 5), rng.randrange(0, 6),
                             rng) for _ in range(12)]
    A = dk_graded(ring)
    maps += list(A.codegens.values()) + list(A.cofaces.values())
    # rows 0 and 1 read column 0: Sym^2 takes a 2, Lambda^2 vanishes there
    maps.append(IndexMap(ring, np.array([0, 0, 1]),
                         np.full(3, ring.one, dtype=np.int64), 2))
    for m in maps:
        for kind in ("sym", "div", "ext"):
            for arity in range(4):
                F = PolyFunctor(kind, arity)
                assert index_power(F, m).dense() == \
                    power_matrix(ring, F, m.dense()), (kind, arity)


@seed(2043)
@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_index_power_of_any_index_map_matches_power_matrix(data):
    """Rows may read one column together, with zero and non-unit
    coefficients: Sym takes the multinomial factors, Lambda vanishes."""
    ring = ring_make(data.draw(st.sampled_from(RINGS), label="ring"))
    rows = data.draw(st.integers(0, 5), label="rows")
    cols = data.draw(st.integers(0, 3), label="cols")
    idx = data.draw(st.lists(st.integers(-1, cols - 1), min_size=rows,
                             max_size=rows), label="idx")
    coef = data.draw(st.lists(st.sampled_from(ring.elements()),
                              min_size=rows, max_size=rows), label="coef")
    m = IndexMap(ring, np.array(idx, dtype=np.int64),
                 np.array(coef, dtype=np.int64), cols)
    F = PolyFunctor(data.draw(st.sampled_from(["sym", "div", "ext"])),
                    data.draw(st.integers(0, 4), label="arity"))
    assert index_power(F, m).dense() == power_matrix(ring, F, m.dense())


def zero_differential_complexes():
    mixed = ring_make(prime_field(3))
    return [shifted_module(ring_make(spec), rank, deg)
            for spec in (prime_field(2), prime_field(3), integers_mod(3, 2),
                         galois_field(2, 2))
            for rank, deg in ((1, 1), (2, 1), (1, 2))] + [
        CochainComplex(mixed, 0, [1, 2, 1], [Mat.zeros(mixed, 2, 1),
                                             Mat.zeros(mixed, 1, 2)])]


ZERO_DIFFERENTIAL = zero_differential_complexes()
# (kind, index): dold_kan of a zero-differential complex, :func:`dk_graded`
# over RINGS[index], the nerve module
SELECTION_MODULES = ([("zero", k) for k in range(len(ZERO_DIFFERENTIAL))] +
                     [("graded", k) for k in range(len(RINGS))] +
                     [("nerve", 0)])


@lru_cache(maxsize=None)
def selection_module(kind, k):
    if kind == "zero":
        return dold_kan(ZERO_DIFFERENTIAL[k], 4)
    if kind == "graded":
        return dk_graded(ring_make(RINGS[k]))
    from charp.cosalg import NerveAlgebra
    from charp.groups import cyclic_group
    return NerveAlgebra(cyclic_group(3), ring_make(prime_field(3)), 3).module


@seed(2029)
@settings(max_examples=300, deadline=None, database=None)
@given(module=st.sampled_from(SELECTION_MODULES),
       kind=st.sampled_from(["sym", "div", "ext"]),
       arity=st.integers(0, 4))
# F_2[-2]: levels 0 and 1 have rank 0; arity 0 keeps only N^0
@example(module=("zero", 2), kind="sym", arity=0)
@example(module=("zero", 2), kind="ext", arity=2)
def test_nondegenerate_matches_codegeneracy_power_oracle(module, kind,
                                                         arity):
    """N^n of F(A) read off A's codegeneracies is the set of columns that
    no codegeneracy raised to F reads."""
    A = selection_module(*module)
    F = PolyFunctor(kind, arity)
    for n in range(A.L + 1):
        got = nondegenerate(A, n, F)
        assert np.array_equal(got, nondegenerate_oracle(A, n, F)), n
        if arity == 0 and n:
            assert got.size == 0


@pytest.mark.parametrize("C", ZERO_DIFFERENTIAL, ids=repr)
def test_dold_kan_of_a_zero_differential_has_index_map_cofaces(C):
    A = dold_kan(C, 4)
    for (n, i), m in A.cofaces.items():
        assert isinstance(m, IndexMap)
        assert m.dense() == dense_dk_map(C, coface_tuple(n, i), n - 1, n)
    for (n, j), m in A.codegens.items():
        assert m.dense() == dense_dk_map(C, codegeneracy_tuple(n, j),
                                         n + 1, n)


@pytest.mark.parametrize("spec", RINGS, ids=str)
def test_dold_kan_refuses_a_nonzero_differential(spec):
    C = complex_with_differential(ring_make(spec), 5)
    with pytest.raises(ValueError, match="zero differential"):
        dold_kan(C, 3)


def test_index_map_roundtrips_through_dense():
    ring = ring_make(integers_mod(3, 2))
    m = random_index_map(ring, 5, 7, random.Random(3))
    back = index_map_from_mat(m.dense())
    assert np.array_equal(back.idx, m.idx)
    assert np.array_equal(back.coef, m.coef) and back.cols == m.cols


COFACE_RINGS = [prime_field(2), prime_field(5), galois_field(2, 2),
                integers_mod(3, 2), galois_ring(2, 2, 2)]
RESTRICT = "conormalized differential does not restrict"


def subsets(n):
    return st.lists(st.booleans(), min_size=n, max_size=n).map(np.flatnonzero)


@seed(2034)
@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_coface_sum_matches_dense_oracle(data):
    """Index maps with zero rows and zero coefficients, and repeated maps
    (a copy in an even place and one in an odd place cancel), on all
    columns or a selection, on all rows or a selection: the entries are the
    dense scatter's nonzeros, and a nonzero row outside the selection
    raises the conormalize message."""
    ring = ring_make(data.draw(st.sampled_from(COFACE_RINGS), label="ring"))
    height = data.draw(st.integers(0, 6), label="height")
    width = data.draw(st.integers(0, 4), label="width")
    maps = []
    for _ in range(data.draw(st.integers(1, 5), label="maps")):
        if maps and data.draw(st.booleans(), label="repeat"):
            maps.append(maps[-1])
            continue
        idx = data.draw(st.lists(st.integers(-1, width - 1), min_size=height,
                                 max_size=height), label="idx")
        coef = data.draw(st.lists(st.sampled_from(ring.elements()),
                                  min_size=height, max_size=height),
                         label="coef")
        maps.append(IndexMap(ring, np.array(idx, dtype=np.int64),
                             np.array(coef, dtype=np.int64), width))
    cols = data.draw(st.just(slice(None)) | subsets(width), label="cols")
    rows = data.draw(st.none() | subsets(height), label="rows")
    try:
        want = coface_sum_oracle(maps, cols, rows, RESTRICT)
    except ValueError:
        with pytest.raises(ValueError) as err:
            coface_sum(maps, cols, rows, RESTRICT)
        assert str(err.value) == RESTRICT
        return
    got = coface_sum(maps, cols, rows, RESTRICT)
    assert got.entries is not None and got.shape == want.shape
    assert got.entries[0].size == np.count_nonzero(want.data != ring.zero)
    assert got == want


def one_codegeneracy_module(ring, codegen):
    """Levels 0, 1 with the given s^0 (level 1 -> level 0), a matrix read
    as an index map, and zero cofaces."""
    rank0, rank1 = codegen.rows, codegen.cols
    zero = index_map_from_mat(Mat.zeros(ring, rank1, rank0))
    cofaces = {(1, i): zero for i in range(2)}
    return CosimplicialModule(ring, [rank0, rank1], cofaces,
                              {(0, 0): index_map_from_mat(codegen)},
                              check=False)


@pytest.mark.parametrize("rows, match", [
    ([[1, 1]], "two nonzeros"),
    ([[3, 0]], "non-unit"),
    ([[1], [1]], "not injective"),
])
def test_cosimplicial_module_refuses_non_index_codegeneracies(rows, match):
    ring = ring_make(integers_mod(3, 2))
    with pytest.raises(ValueError, match=match):
        one_codegeneracy_module(ring, Mat(ring, rows))


def test_index_map_takes_any_coefficient_and_the_module_checks_units():
    ring = ring_make(integers_mod(3, 2))
    # a zero coefficient becomes an idx -1 row; a non-unit one is kept
    m = IndexMap(ring, np.array([2, 0, 1]), np.array([3, 0, 1]), 3)
    assert list(m.idx) == [2, -1, 1] and list(m.coef) == [3, 0, 1]
    assert m.dense() == Mat(ring, [[0, 0, 3], [0, 0, 0], [0, 1, 0]])
    f = random_index_map(ring, 3, 4, random.Random(5))
    assert (m @ f).dense() == m.dense() @ f.dense()
    Z = Mat(ring, np.arange(12).reshape(3, 4))
    assert m @ Z == m.dense() @ Z and f @ Z.transpose() == \
        f.dense() @ Z.transpose()
    # a map with no columns reads nothing: every product row is zero
    empty = IndexMap(ring, np.full(2, -1), np.zeros(2, dtype=np.int64), 0)
    assert empty @ Mat.zeros(ring, 0, 3) == Mat.zeros(ring, 2, 3)
    assert (empty @ random_index_map(ring, 0, 3, random.Random(1))).dense() \
        == Mat.zeros(ring, 2, 3)
    zero = index_map_from_mat(Mat.zeros(ring, 3, 3))
    cofaces = {(1, i): zero for i in range(2)}
    for codegen, match in (
            (m, "non-unit"),
            (IndexMap(ring, np.array([2, 2, 1]), np.ones(3, dtype=np.int64),
                      3), "not injective"),
    ):
        with pytest.raises(ValueError, match=match):
            CosimplicialModule(ring, [3, 3], cofaces, {(0, 0): codegen},
                               check=False)
    with pytest.raises(ValueError, match="two nonzeros"):
        one_codegeneracy_module(ring, Mat(ring, [[1, 1]]))


def test_cosimplicial_module_refuses_structure_maps_that_are_not_index_maps():
    ring = ring_make(prime_field(3))
    ident, dense = IndexMap.identity(ring, 2), Mat.identity(ring, 2)
    for cofaces, codegens, kind in (
            ({(1, 0): dense, (1, 1): ident}, {(0, 0): ident}, "coface"),
            ({(1, i): ident for i in range(2)}, {(0, 0): dense},
             "codegeneracy")):
        with pytest.raises(TypeError, match=f"every {kind} must be an "
                                            "IndexMap"):
            CosimplicialModule(ring, [2, 2], cofaces, codegens)
    CosimplicialModule(ring, [2, 2], {(1, i): ident for i in range(2)},
                       {(0, 0): ident})


@pytest.mark.parametrize("broken, message", [
    ("coface", "coface identity fails at level 3: d^1 d^0"),
    ("codegeneracy", "codegeneracy identity at 1"),
    ("mixed", "mixed identity fails: s^0 d^0 level 0")])
def test_validate_refuses_a_broken_identity(broken, message):
    # DK of R (+) R[-1], levels 0..3; each break keeps the identities
    # checked before its own
    ring = ring_make(prime_field(3))
    A = dold_kan(CochainComplex(ring, 0, [1, 1], [Mat.zeros(ring, 1, 1)]), 3)
    cofaces, codegens = dict(A.cofaces), dict(A.codegens)
    if broken == "coface":
        cofaces[2, 0], cofaces[2, 1] = A.cofaces[2, 1], A.cofaces[2, 0]
    elif broken == "codegeneracy":
        codegens[1, 0], codegens[1, 1] = A.codegens[1, 1], A.codegens[1, 0]
    else:
        # a unit coefficient 2 in place of 1: s^0 d^i is no longer 1
        s = A.codegens[0, 0]
        codegens[0, 0] = IndexMap(ring, s.idx, ring.vscale(2, s.coef), s.cols)
    CosimplicialModule(ring, A.ranks, cofaces, codegens, check=False)
    with pytest.raises(ValueError) as err:
        CosimplicialModule(ring, A.ranks, cofaces, codegens)
    assert str(err.value) == message
    A.validate()


def test_cosimplicial_module_accepts_unit_partial_injection():
    ring = ring_make(integers_mod(3, 2))
    A = one_codegeneracy_module(ring, Mat(ring, [[0, 0, 8], [2, 0, 0]]))
    assert A.s(0, 0) == Mat(ring, [[0, 0, 8], [2, 0, 0]])
    assert list(conormalize(A).sel[1]) == [1]


def test_conormalize_map_refuses_leak_into_degenerate_rows():
    ring = ring_make(prime_field(3))
    src = conormalize(dold_kan(shifted_module(ring, 1, 1), 2))
    # level 1 of DK(R (+) R[-1]): the degenerate block (0, (0, 0)), then
    # the nondegenerate block (1, (0, 1))
    C = direct_sum(module_complex(ring, 1, 0), shifted_module(ring, 1, 1))
    tgt = conormalize(dold_kan(C, 2))
    assert list(tgt.sel[1]) == [1]
    ok = conormalize_map(src, tgt, [None, Mat(ring, [[0], [1]]), None])
    assert ok.component(1) == Mat(ring, [[1]])
    with pytest.raises(ValueError, match="does not preserve"):
        conormalize_map(src, tgt, [None, Mat(ring, [[1], [1]]), None])
    # the same levels as index maps, selected through idx
    ok = conormalize_map(src, tgt, [None, index_map_from_mat(
        Mat(ring, [[0], [2]])), None])
    assert ok.component(1) == Mat(ring, [[2]])
    with pytest.raises(ValueError, match="does not preserve"):
        conormalize_map(src, tgt, [None, index_map_from_mat(
            Mat(ring, [[1], [1]])), None])


def test_conormalize_map_reads_a_mat_of_the_selected_columns():
    # level 1 of DK(R (+) R[-1]) has the degenerate column 0 and the
    # nondegenerate column 1: a one-column Mat is that column already
    ring = ring_make(prime_field(3))
    C = direct_sum(module_complex(ring, 1, 0), shifted_module(ring, 1, 1))
    cn = conormalize(dold_kan(C, 2))
    assert list(cn.sel[1]) == [1]
    full = conormalize_map(cn, cn, [None, Mat(ring, [[1, 0], [0, 2]]), None])
    pre = conormalize_map(cn, cn, [None, Mat(ring, [[0], [2]]), None])
    assert full.component(1) == pre.component(1) == Mat(ring, [[2]])
    # a selected column that reaches the degenerate row still leaks
    for m in ([[1], [2]], [[2, 1], [0, 2]]):
        with pytest.raises(ValueError, match="does not preserve"):
            conormalize_map(cn, cn, [None, Mat(ring, m), None])
    # a leak from a column that is not selected is not read
    ok = conormalize_map(cn, cn, [None, Mat(ring, [[1, 0], [1, 2]]), None])
    assert ok.component(1) == Mat(ring, [[2]])


def test_conormalize_of_a_functor_power_builds_no_dense_coface_sum():
    # the Sym^3 input of sym-cohomology --p 3 --dim 6: its last coface sum
    # is 2,600 x 216 (4.3 MiB if dense), with no row in N^4
    A = dold_kan(shifted_module(ring_make(prime_field(3)), 6), 4)
    tracemalloc.start()
    try:
        cx = conormalize(A, functor=PolyFunctor("sym", 3)).complex
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(d.entries is not None for d in cx.diffs)
    assert peak <= 2e6


def largest_coface(functor, C, bound):
    """The largest coface sum conormalize builds: level n + 1 by N^n, with
    N^n counted by the nondegenerate selection."""
    A = dold_kan(C, bound + 1)
    return max(functor.dim(A.rank(n + 1)) *
               len(nondegenerate(A, n, functor)) for n in range(A.L))


@pytest.mark.parametrize("kind", ["sym", "div", "ext"])
def test_preflight_boundary(kind):
    ring = ring_make(prime_field(3))
    C = shifted_module(ring, 2, 1)
    F = PolyFunctor(kind, 2)
    cells = largest_coface(F, C, 2)
    assert cells == {"sym": 84, "div": 84, "ext": 60}[kind]
    # the preflight reads the level ranks off C: also in several degrees
    mixed = CochainComplex(ring, 0, [1, 2, 1],
                           [Mat.zeros(ring, 2, 1), Mat.zeros(ring, 1, 2)])
    for D, D_cells in ((C, cells), (mixed, largest_coface(F, mixed, 2))):
        exact = Budget(DEFAULT, max_cells=D_cells)
        short = Budget(DEFAULT, max_cells=D_cells - 1)
        assert derived_power(F, D, 2, budget=exact).ranks
        with pytest.raises(BudgetExceeded, match=f"{D_cells}-cell"):
            derived_power(F, D, 2, budget=short)
    if kind == "sym":
        sym = largest_coface(PolyFunctor("sym", 3), C, 3)
        natural_map("N", 3, C, 3, budget=Budget(DEFAULT, max_cells=sym))
        with pytest.raises(BudgetExceeded):
            natural_map("N", 3, C, 3, budget=Budget(DEFAULT,
                                                    max_cells=sym - 1))


def _limit_memory(gib):
    def limit():
        cap = int(gib * (1 << 30))
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    return limit


def _capped_cli(gib, profile, *args, timeout=120):
    # one BLAS thread keeps the import itself well under the cap on
    # machines with many cores
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-m", "charp.cli", "--profile", profile, "run",
         *args, "--json"], capture_output=True, text=True, timeout=timeout,
        env=env, preexec_fn=_limit_memory(gib))
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.mark.parametrize("profile, args, cells", [
    ("fast", ("sym-cohomology", "--p", "7", "--dim", "2"), 44651520),
    ("fast", ("sym-cohomology", "--p", "7", "--dim", "3"), 7768486440),
    ("full", ("sym-cohomology", "--p", "7", "--dim", "3"), 7768486440),
    # the largest de Rham weight is refused before any weight is built
    ("fast", ("cartier", "--p", "7"), 105210105),
    # the Sym^p side is refused before the de Rham side is built
    ("fast", ("omega-trunc-vs-symp", "--p", "7"), 572981854044600),
], ids=["p7-dim2-fast", "p7-dim3-fast", "p7-dim3-full", "cartier-p7-fast",
        "omega-trunc-p7-fast"])
def test_oversized_derived_powers_are_skipped(profile, args, cells):
    # a child capped at 1 GiB: a missing preflight fails the test instead
    # of allocating gigabytes
    rep = _capped_cli(1, profile, *args)
    assert rep["skipped"] is True
    assert f"{cells}-cell" in rep["skip_reason"]
    assert rep["runtime_ms"] < 1000


@pytest.mark.parametrize("profile, args, passes", [
    ("fast", ("steenrod-p0", "--p", "7"), True),
    # 101^4 level coordinates are within the full budget, the index maps
    # and the dense level 3 by level 2 coface are not
    ("full", ("steenrod-p1", "--p", "101"), False),
], ids=["steenrod-p0-p7", "steenrod-p1-p101-full"])
def test_nerve_stretch_fits_in_three_gibibytes(profile, args, passes):
    rep = _capped_cli(3, profile, *args, timeout=60)
    assert rep["pass"] is passes and rep["skipped"] is not passes
    if not passes:
        assert "nerve algebra needs" in rep["skip_reason"]


def test_p5_stretch_fits_in_half_a_gibibyte():
    # the cofaces are raised on the N^n columns only: a dense coface
    # power of this run would need about 700 MB
    rep = _capped_cli(0.5, "full", "sym-cohomology", "--p", "5", "--dim",
                      "2")
    assert rep["pass"] is True and rep["skipped"] is False


def test_decalage_p5_dim3_peaks_below_70_mb():
    # with dense coface sums this run peaked at about 103 MB; the child
    # reports the resident peak of its own address space, VmHWM: its
    # ru_maxrss would count the pages of the parent it had at fork, and
    # RUSAGE_CHILDREN keeps the session's largest child
    code = ("import sys\n"
            "from charp.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "with open('/proc/self/status') as status:\n"
            "    print(next(line for line in status\n"
            "               if line.startswith('VmHWM:')), file=sys.stderr)\n"
            "sys.exit(code)\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", code, "--profile", "fast", "run", "decalage",
         "--p", "5", "--dim", "3", "--json"], capture_output=True,
        text=True, timeout=120, env=env, preexec_fn=_limit_memory(1))
    assert out.returncode == 0, out.stderr
    rep = json.loads(out.stdout)
    assert rep["pass"] is True and rep["skipped"] is False
    assert int(out.stderr.split()[-2]) <= 70 * 1024      # "VmHWM: n kB"
