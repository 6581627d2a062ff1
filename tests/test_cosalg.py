import random
import tracemalloc

import numpy as np
import pytest

from charp.complexes import bockstein, cohomology_dims
from charp import cosalg, linalg
from charp.config import DEFAULT, Budget, BudgetExceeded
from charp.complexes import CochainComplex
from charp.cosalg import (CosimplicialAlgebra, HClass, NerveAlgebra,
                          algebra_bockstein_check,
                          cosimplicial_map_from_cocycle,
                          frobenius_level_matrix, steenrod,
                          universal_classes, witt_bockstein)
from charp.gcoh import BarEngine
from charp.groups import ElementaryAbelian, cyclic_group, semidirect_product
from charp.doldkan import (CosimplicialModule, IndexMap, coface_sum,
                           conormalize, dold_kan)
from charp.linalg import Mat, ModuleStructure, free_kernel_basis
from charp.rings import galois_ring, integers_mod, prime_field, ring_make

from helpers import (algebra_bockstein_oracle, cocycle_map_oracle,
                     dense_nerve_maps, direct_product, frobenius_map,
                     normalization_projector, reduce_mod_p,
                     reference_bockstein, trivial_module, validate_algebra)


def test_nerve_trivial_group():
    F = ring_make(prime_field(3))
    G = cyclic_group(1)
    A = NerveAlgebra(G, F, 3)
    cx = conormalize(A.module).complex
    assert cohomology_dims(cx)[:3] == [1, 0, 0]


@pytest.mark.parametrize("p", [2, 3])
def test_nerve_cyclic_dims(p):
    F = ring_make(prime_field(p))
    A = NerveAlgebra(cyclic_group(p), F, 4)
    cx = conormalize(A.module).complex
    assert cohomology_dims(cx)[:4] == [1, 1, 1, 1]


def test_nerve_c2_over_z4():
    # oracle: the two-periodic resolution gives Z/4, then alternating
    # ker(2)/0 = Z/2 and Z/4 / im(2) = Z/2 (H^1 = Hom(C_2, Z/4) = Z/2)
    Z4 = ring_make(integers_mod(2, 2))
    A = NerveAlgebra(cyclic_group(2), Z4, 4)
    cx = conormalize(A.module).complex
    structures = [cx.slice(i).structure for i in range(4)]
    assert structures[0] == ModuleStructure(2, 2, [2])   # Z/4
    assert structures[1] == ModuleStructure(2, 2, [1])   # Z/2
    assert structures[2] == ModuleStructure(2, 2, [1])   # Z/2
    assert structures[3] == ModuleStructure(2, 2, [1])   # Z/2
    # cross-check against the periodic engine over Z/4
    from charp.gcoh import PeriodicEngine
    eng = PeriodicEngine(ElementaryAbelian(2, 1), Z4,
                         [Mat.identity(Z4, 1)], 3)
    assert [eng.complex.slice(i).structure for i in range(4)] == structures


def test_nerve_normalized_complex_refuses_leak_into_degenerate_rows():
    F = ring_make(prime_field(3))
    A = NerveAlgebra(cyclic_group(3), F, 3)
    sel = conormalize(A.module, 2).sel
    assert list(sel[1]) == [1, 2]      # level 1 tuple (e) is degenerate
    assert np.array_equal(A.include_normalized(1, [1, 2]), [0, 1, 2])
    # d^0 at level 1 no longer reads () on (e): the coboundary of the
    # constant 1 is -1 there and 0 on the nondegenerate tuples
    A.module.cofaces[(1, 0)].idx[0] = -1
    with pytest.raises(ValueError, match="does not restrict"):
        conormalize(A.module, 2)


def test_nerve_budget():
    F = ring_make(prime_field(2))
    from charp.config import Budget, _FAST
    tiny = Budget(_FAST)
    tiny["max_cells"] = 5
    with pytest.raises(BudgetExceeded):
        NerveAlgebra(cyclic_group(3), F, 4, budget=tiny)


def test_nerve_cosimplicial_algebra_axioms():
    # validate multiplication and ring-map axioms on a small nerve
    F = ring_make(prime_field(3))
    A = NerveAlgebra(cyclic_group(3), F, 3)
    validate_algebra(A, 2)


@pytest.mark.parametrize("group_fn,order", [
    (lambda: cyclic_group(2), 2), (lambda: cyclic_group(3), 3),
    (lambda: cyclic_group(4), 4), (lambda: ElementaryAbelian(2, 2), 4),
    (lambda: cyclic_group(5), 5), (lambda: cyclic_group(6), 6),
    (lambda: semidirect_product(
        cyclic_group(2), cyclic_group(3),
        {0: np.arange(3), 1: np.array([0, 2, 1])}), 6),
    (lambda: ElementaryAbelian(3, 2), 9),
])
def test_bar_vs_nerve_dims(group_fn, order):
    # the conormalized nerve equals the normalized bar complex
    for p in (2, 3):
        F = ring_make(prime_field(p))
        G = group_fn()
        assert G.order == order
        D = 3 if (G.order - 1) ** 4 < 10 ** 5 else 2
        A = NerveAlgebra(G, F, D + 1)
        nerve_dims = cohomology_dims(conormalize(A.module).complex)[:D + 1]
        bar = BarEngine(G, trivial_module(G, F), D)
        assert nerve_dims == bar.dims(), (order, p)


def _constant_f4_algebra(L):
    """The constant cosimplicial algebra with level F_4 as an F_2-algebra."""
    F2 = ring_make(prime_field(2))
    ident = IndexMap.identity(F2, 2)
    cofaces = {(n, i): ident for n in range(1, L + 1) for i in range(n + 1)}
    codegens = {(n, j): ident for n in range(L) for j in range(n + 1)}
    module = CosimplicialModule(F2, [2] * (L + 1), cofaces, codegens)
    # multiplication of F_4 in the basis {1, x}: x^2 = x + 1
    mult = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1,
            (1, 1, 0): 1, (1, 1, 1): 1}
    units = [np.array([1, 0], dtype=np.int64)] * (L + 1)
    A = CosimplicialAlgebra(module, mult_tensors=[mult] * (L + 1),
                            units=units)
    validate_algebra(A, min(2, L))
    return A


def test_frobenius_chain_map_on_constant_f4_algebra():
    # Frobenius is x -> x^2, a chain map after the twist; not the identity
    F2 = ring_make(prime_field(2))
    L = 2
    A = _constant_f4_algebra(L)
    module = A.module
    m = frobenius_level_matrix(A, 0)
    assert m == Mat(F2, [[1, 1], [0, 1]])   # 1 -> 1, x -> x + 1
    for n in range(L):
        for i in range(n + 2):
            lhs = module.d(n + 1, i) @ frobenius_level_matrix(A, n)
            rhs = frobenius_level_matrix(A, n + 1) @ \
                module.d(n + 1, i).frobenius_entries()
            assert (lhs - rhs).is_zero()


def test_operations_on_constant_f4_algebra():
    # an algebra that is not a nerve: N^0 is the whole level 0, H^0 = F_4
    A = _constant_f4_algebra(2)
    F2 = A.ring
    full = CochainComplex(F2, 0, [2, 2, 2],
                          [A.module.coboundary(n, slice(None))
                           for n in range(2)])
    phi = frobenius_level_matrix(A, 0)
    for x in ([1, 0], [0, 1], [1, 1]):
        x = HClass(A, 0, x)
        p0 = steenrod(A, x, 0)
        assert p0.degree == 0 and np.array_equal(
            p0.vec, F2.vmatmul(phi.data, x.vec[:, None])[:, 0])
        p1, wb = steenrod(A, x, 1), witt_bockstein(A, x)
        assert p1.degree == wb.degree == 1
        assert full.slice(1).classes_equal(p1.vec, wb.vec)
    fm = frobenius_map(A)
    assert fm.component(0) == phi and fm.source.ranks == [2, 0, 0]


def test_frobenius_identity_on_h0():
    F = ring_make(prime_field(3))
    A = NerveAlgebra(cyclic_group(3), F, 3)
    m = frobenius_level_matrix(A, 0)
    assert m == Mat.identity(F, 1)


@pytest.mark.parametrize("p", [2, 3])
def test_steenrod_p0_identity(p):
    F = ring_make(prime_field(p))
    A = NerveAlgebra(cyclic_group(p), F, 5)
    cx = conormalize(A.module, 4).complex
    full = A.full_complex(3)
    for i in (1, 2, 3):
        x = HClass(A, i, cx.slice(i).gens.data[:, 0])
        out = steenrod(A, x, 0)
        xf = A.include_normalized(i, x.vec)
        assert full.slice(i).classes_equal(out.vec, xf), (p, i)


@pytest.mark.parametrize("p", [2, 3])
def test_steenrod_p1_is_bockstein(p):
    F = ring_make(prime_field(p))
    Z2 = ring_make(integers_mod(p, 2))
    A = NerveAlgebra(cyclic_group(p), F, 4)
    A2 = NerveAlgebra(cyclic_group(p), Z2, 4)
    cx = conormalize(A.module, 3).complex
    for i in (1, 2):
        full = A.full_complex(i + 1)
        h = cx.slice(i)
        x = HClass(A, i, h.gens.data[:, 0])
        p1 = steenrod(A, x, 1)
        xf = A.include_normalized(i, x.vec)
        bock = reference_bockstein(A2.full_complex(i + 1).d(i), xf)
        sl = full.slice(i + 1)
        assert any(sl.classes_equal(p1.vec,
                                    F.vscale(F.from_int(lam), bock))
                   for lam in range(1, p)), (p, i)


def test_steenrod_p1_on_h0_is_zero():
    for p in (2, 3):
        F = ring_make(prime_field(p))
        A = NerveAlgebra(cyclic_group(p), F, 3)
        full = A.full_complex(1)
        x0 = HClass(A, 0, np.array([F.one], dtype=np.int64))
        out = steenrod(A, x0, 1)
        assert full.slice(1).is_coboundary(out.vec)


def test_steenrod_representative_independent():
    p = 3
    F = ring_make(prime_field(p))
    A = NerveAlgebra(cyclic_group(p), F, 4)
    cx = conormalize(A.module, 3).complex
    full = A.full_complex(2)
    x = cx.slice(1).gens.data[:, 0]
    base = steenrod(A, HClass(A, 1, x), 1)
    rng = random.Random(7)
    d0 = cx.d(0)
    checked = 0
    for _ in range(20):
        coeffs = np.array([F.random(rng) for _ in range(cx.rank(0))],
                          dtype=np.int64)
        x2 = F.vadd(x, F.vmatmul(d0.data, coeffs[:, None])[:, 0])
        out = steenrod(A, HClass(A, 1, x2), 1)
        assert full.slice(2).classes_equal(base.vec, out.vec)
        checked += 1
    assert checked == 20


def test_steenrod_additive():
    p = 3
    F = ring_make(prime_field(p))
    G = direct_product(cyclic_group(3), cyclic_group(3))
    A = NerveAlgebra(G, F, 4)
    cx = conormalize(A.module, 3).complex
    full = A.full_complex(2)
    h1 = cx.slice(1)
    assert h1.gens.cols == 2
    sl2 = full.slice(2)
    vals = {}
    for j in range(h1.gens.cols):
        vals[j] = steenrod(A, HClass(A, 1, h1.gens.data[:, j]), 1)
    both = F.vadd(h1.gens.data[:, 0], h1.gens.data[:, 1])
    out = steenrod(A, HClass(A, 1, both), 1)
    assert sl2.classes_equal(out.vec, F.vadd(vals[0].vec, vals[1].vec))


@pytest.mark.parametrize("p", [2, 3])
def test_witt_bockstein_equals_p1(p):
    F = ring_make(prime_field(p))
    A = NerveAlgebra(cyclic_group(p), F, 4)
    cx = conormalize(A.module, 3).complex
    for i in (1, 2):
        full = A.full_complex(i + 1)
        h = cx.slice(i)
        for j in range(h.gens.cols):
            x = HClass(A, i, h.gens.data[:, j])
            assert full.slice(i + 1).classes_equal(
                steenrod(A, x, 1).vec, witt_bockstein(A, x).vec)


def test_witt_bockstein_squares_to_zero():
    for p in (2, 3):
        F = ring_make(prime_field(p))
        A = NerveAlgebra(cyclic_group(p), F, 4)
        conorm = conormalize(A.module, A.L - 1)
        full = A.full_complex(3)
        x = HClass(A, 1, conorm.complex.slice(1).gens.data[:, 0])
        b = witt_bockstein(A, x)
        b2 = witt_bockstein(A, HClass(A, 2, b.vec[conorm.sel[2]]))
        assert full.slice(3).is_coboundary(b2.vec)


def test_witt_bockstein_vanishes_on_liftable():
    # the product nerve of the trivial group with a rank-one torus-like
    # factor has integrally liftable classes in degree 0
    F = ring_make(prime_field(3))
    A = NerveAlgebra(cyclic_group(3), F, 3)
    full = A.full_complex(1)
    x0 = HClass(A, 0, np.array([F.one], dtype=np.int64))
    out = witt_bockstein(A, x0)
    assert full.slice(1).is_coboundary(out.vec)


@pytest.mark.parametrize("p", [2, 3])
def test_algebra_bockstein_nerve(p):
    F = ring_make(prime_field(p))
    A = NerveAlgebra(cyclic_group(p), F, 4)
    A3 = NerveAlgebra(cyclic_group(p), ring_make(integers_mod(p, 3)), 3)
    cx = conormalize(A.module, 3).complex
    full = A.full_complex(2)
    x = A.include_normalized(1, cx.slice(1).gens.data[:, 0])
    lhs, rhs = algebra_bockstein_check(A3, x, 1)
    sl = full.slice(2)
    minus = F.from_int(-1)
    assert sl.classes_equal(lhs, F.vscale(minus, rhs))
    assert not sl.is_coboundary(lhs)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_algebra_bockstein_matches_oracle(p):
    # every H^0 and H^1 generator of the nerve of C_p gives the oracle's
    # arrays; a seeded non-cocycle fails the norm solve on both paths
    F = ring_make(prime_field(p))
    A = NerveAlgebra(cyclic_group(p), F, 3)
    A3 = NerveAlgebra(cyclic_group(p), ring_make(integers_mod(p, 3)), 2)
    cx = conormalize(A.module, 2).complex
    for i in (0, 1):
        gens = cx.slice(i).gens
        for c in range(gens.cols):
            x = A.include_normalized(i, gens.data[:, c])
            got = algebra_bockstein_check(A3, x, i)
            want = algebra_bockstein_oracle(A3, x, i)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
    rng = np.random.default_rng(p)
    full = A.full_complex(1)
    x = rng.integers(0, p, A.rank(1))
    while full.is_cocycle(1, x):
        x = rng.integers(0, p, A.rank(1))
    for check in (algebra_bockstein_check, algebra_bockstein_oracle):
        with pytest.raises(AssertionError, match="norm solve fails"):
            check(A3, x, 1)


def test_algebra_bockstein_multiplies_coface_sums_as_entries(monkeypatch):
    # d_Gamma and the coboundary that the Bockstein lifts are coface sums
    # over Z/27; each multiplies one vector without building its dense array
    F = ring_make(prime_field(3))
    A = NerveAlgebra(cyclic_group(3), F, 3)
    A3 = NerveAlgebra(cyclic_group(3), ring_make(integers_mod(3, 3)), 2)
    x = A.include_normalized(
        1, conormalize(A.module, 2).complex.slice(1).gens.data[:, 0])
    want = algebra_bockstein_oracle(A3, x, 1)
    densify, sums = linalg._Entries.__getattr__, []

    def refuse(self, name):
        if name == "data":
            raise AssertionError(f"{self.shape} coface sum made dense")
        return densify(self, name)

    def spy(*args):
        sums.append(coface_sum(*args))
        return sums[-1]

    monkeypatch.setattr(linalg._Entries, "__getattr__", refuse)
    monkeypatch.setattr(cosalg, "coface_sum", spy)
    got = algebra_bockstein_check(A3, x, 1)
    assert [d.entries is not None for d in sums] == [True]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("spec", [integers_mod(2, 2), galois_ring(2, 3, 2)])
def test_algebra_bockstein_refuses_other_rings(spec):
    A = NerveAlgebra(cyclic_group(2), ring_make(spec), 2)
    with pytest.raises(ValueError, match="Z/p\\^3 model"):
        algebra_bockstein_check(A, np.zeros(1, dtype=np.int64), 0)


@pytest.mark.parametrize("key, value, message", [
    ("max_level", 3, "needs 4 cosimplicial levels"),
    ("max_cells", 10, "cell coface")], ids=["max_level", "max_cells"])
def test_steenrod_refuses_over_budget_before_building(
        monkeypatch, key, value, message):
    F = ring_make(prime_field(3))
    A = NerveAlgebra(cyclic_group(3), F, 4)
    cx = conormalize(A.module, 3).complex
    x = HClass(A, 2, cx.slice(2).gens.data[:, 0])

    def built(*_args):
        raise AssertionError("Dold-Kan levels were built")

    monkeypatch.setattr(cosalg, "universal_classes", built)
    monkeypatch.setattr(cosalg, "dold_kan", built)
    with pytest.raises(BudgetExceeded, match=message):
        steenrod(A, x, 1, budget=Budget(DEFAULT, **{key: value}))


def test_nerve_refuses_dense_cofaces_over_budget():
    # C_101 to level 4: 528,606,024 index-map entries and the dense
    # 101^3 x 101^2 coface that full_complex reads
    F = ring_make(prime_field(101))
    full = Budget(DEFAULT, max_cells=120_000_000)
    with pytest.raises(BudgetExceeded, match="needs 11038706525 cells"):
        NerveAlgebra(cyclic_group(101), F, 4, budget=full)
    # C_7 to level 5 needs 951,462 (the dense cofaces were 246,307,628)
    NerveAlgebra(cyclic_group(7), ring_make(prime_field(7)), 5)


def test_nerve_builds_in_little_memory():
    # the dense cofaces of this nerve traced 94 MiB
    G, F = cyclic_group(5), ring_make(prime_field(5))
    tracemalloc.start()
    try:
        NerveAlgebra(G, F, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20, peak


# S3 is not abelian: a face that multiplied its digits the other way
# round would show
@pytest.mark.parametrize("name, L", [
    ("C2", 4), ("C3", 4), ("C5", 4), ("C3xC3", 3), ("S3", 3)])
def test_nerve_maps_match_dense_oracle(name, L):
    # every structure map is an index map whose dense form and whose
    # product with a seeded block of columns agree with the tuple builder
    A = _nerve(name, L)
    module, ring = A.module, A.ring
    cofaces, codegens = dense_nerve_maps(A.G, ring, L)
    rng = np.random.default_rng(13)
    for stored, oracle, dense in ((module.cofaces, cofaces, module.d),
                                  (module.codegens, codegens, module.s)):
        assert stored.keys() == oracle.keys()
        for key, m in stored.items():
            assert isinstance(m, IndexMap), key
            assert dense(*key) == oracle[key], key
            Z = Mat(ring, rng.integers(0, ring.size, (m.cols, 3)))
            assert m @ Z == oracle[key] @ Z, key


def _nerve(name, L):
    G, p = {"C2": (cyclic_group(2), 2), "C3": (cyclic_group(3), 3),
            "C5": (cyclic_group(5), 5),
            "C3xC3": (direct_product(cyclic_group(3), cyclic_group(3)), 3),
            "S3": (semidirect_product(cyclic_group(2), cyclic_group(3), {
                0: np.arange(3), 1: np.array([0, 2, 1])}), 3)}[name]
    return NerveAlgebra(G, ring_make(prime_field(p)), L)


def _dense_factor_product(module, k, order):
    """prod_j (1 - d^j s^(j-1)) on level k, the factors taken in ``order``
    (the first one applied first), with dense cofaces and codegeneracies."""
    ring = module.ring
    ident = Mat.identity(ring, module.rank(k))
    out = ident
    for j in order:
        out = (ident - module.d(k, j) @ module.s(k - 1, j - 1)) @ out
    return out


@pytest.mark.parametrize("name, levels", [
    ("C2", (1, 2, 3, 4)), ("C3", (1, 2, 3, 4)), ("C3xC3", (1, 2, 3))])
def test_dold_kan_projector_is_the_factor_product(name, levels):
    A = _nerve(name, max(levels))
    module = A.module
    for k in levels:
        K, proj = normalization_projector(module, k)
        oracle = K @ proj
        ident = Mat.identity(module.ring, module.rank(k)).data
        assert np.array_equal(
            cosalg._project(module, k, ident, slice(None)), oracle.data)
        assert _dense_factor_product(module, k, range(1, k + 1)) == oracle
        if k >= 2:
            assert _dense_factor_product(module, k,
                                         range(k, 0, -1)) != oracle


def _random_cocycle(rng, d):
    """A seeded combination of a kernel basis of d, all coefficients units."""
    ring = d.ring
    z = free_kernel_basis(d)
    coeffs = rng.integers(1, ring.p, z.cols).astype(np.int64)
    return ring.vmatmul(z.data, coeffs[:, None])[:, 0]


def _assert_maps_match_oracle(module, i, x):
    new = cosimplicial_map_from_cocycle(module, i, x, i + 2)
    old = cocycle_map_oracle(module, i, x, i + 2)
    assert len(new) == len(old) == i + 3
    for n, (a, b) in enumerate(zip(new, old)):
        assert a.data.shape == b.data.shape and np.array_equal(
            a.data, b.data), (i, n)


# C3xC3 stops at i = 1: at i = 2 the oracle inverts a 6561-square level
@pytest.mark.parametrize("name, L, max_i", [
    ("C2", 5, 3), ("C3", 5, 3), ("C5", 4, 2), ("C3xC3", 4, 1)])
def test_cocycle_map_matches_dense_oracle_on_nerves(name, L, max_i):
    rng = np.random.default_rng(11)
    A = _nerve(name, L)
    cx = conormalize(A.module).complex
    for i in range(max_i + 1):
        x = A.include_normalized(i, _random_cocycle(rng, cx.d(i)))
        assert np.any(x != A.ring.zero)
        _assert_maps_match_oracle(A.module, i, x)


def test_cocycle_map_matches_dense_oracle_on_dold_kan():
    F = ring_make(prime_field(3))
    C = CochainComplex(F, 0, [2, 3, 1], [Mat.zeros(F, 3, 2),
                                         Mat.zeros(F, 1, 3)])
    A = dold_kan(C, 4)
    conorm = conormalize(A)
    rng = np.random.default_rng(5)
    for i in range(3):
        x = np.full(A.rank(i), F.zero, dtype=np.int64)
        x[conorm.sel[i]] = _random_cocycle(rng, conorm.complex.d(i))
        assert np.any(x != F.zero)
        _assert_maps_match_oracle(A, i, x)


def test_universal_classes_cached_and_nonzero():
    U, p0, p1 = universal_classes(3, 1)
    assert U.complex.is_cocycle(1, p0)
    assert not U.complex.slice(2).is_coboundary(p1)
    U2, p0b, _ = universal_classes(3, 1)
    assert U2 is U and np.array_equal(p0, p0b)


@pytest.mark.parametrize("p", [2, 3])
def test_frobenius_identity_on_nerve(p):
    F = ring_make(prime_field(p))
    A = NerveAlgebra(cyclic_group(p), F, 3)
    # F_p-valued functions: x^p = x on every level
    for n in range(A.L + 1):
        assert frobenius_level_matrix(A, n) == Mat.identity(F, A.rank(n))


def test_frobenius_map_complexmap():
    for p in (2, 3):
        F = ring_make(prime_field(p))
        A = NerveAlgebra(cyclic_group(p), F, 3)
        fm = frobenius_map(A)
        fm.validate()
        for i in fm.source.degrees():
            assert fm.component(i) == Mat.identity(F, fm.source.rank(i))
    with pytest.raises(ValueError):
        frobenius_map(NerveAlgebra(cyclic_group(2),
                                   ring_make(integers_mod(2, 2)), 3))


def _module_elements(ring, gens_mat, slice_):
    """All elements of a small cohomology module, as class representatives."""
    from itertools import product
    cols = gens_mat.cols
    reps = []
    for coeffs in product(range(ring.size), repeat=cols):
        vec = np.full(gens_mat.rows, ring.zero, dtype=np.int64)
        for j, c in enumerate(coeffs):
            vec = ring.vadd(vec, ring.vscale(int(c),
                                             gens_mat.data[:, j]))
        reps.append(vec)
    return reps


@pytest.mark.parametrize("p", [2, 3])
def test_six_term_exactness_of_bockstein_les(p):
    # 0 -> C/p -> C -> C/p -> 0 for C the Z/p^2 nerve complex of C_p:
    # the six-term segments around the connecting map are exact,
    # checked by brute enumeration of the (tiny) cohomology modules
    from charp.rings import lift_up, coerce_down
    Z2 = ring_make(integers_mod(p, 2))
    F = ring_make(prime_field(p))
    A2 = NerveAlgebra(cyclic_group(p), Z2, 4)
    C = conormalize(A2.module).complex
    red = reduce_mod_p(C)
    for i in (1, 2):
        h_red_i = red.slice(i)
        h_red_i1 = red.slice(i + 1)
        h_mid_i = C.slice(i)
        # maps: pi_* (reduce), delta (connecting), iota_* (multiply by p)
        mid_elements = _module_elements(Z2, h_mid_i.gens, h_mid_i)
        pi_image = []
        for y in mid_elements:
            if not C.is_cocycle(i, y):
                continue
            pi_image.append(np.array(
                [coerce_down(Z2, F, int(c)) for c in y], dtype=np.int64))
        ker_delta = []
        im_delta = []
        for x in _module_elements(F, h_red_i.gens, h_red_i):
            b = bockstein(C.d(i), x)
            im_delta.append(b)
            if h_red_i1.is_coboundary(b):
                ker_delta.append(x)
        # exactness at H^i(C''): ker(delta) == image of pi_*
        for x in ker_delta:
            assert any(h_red_i.classes_equal(x, z) for z in pi_image)
        for z in pi_image:
            b = bockstein(C.d(i), z)
            assert h_red_i1.is_coboundary(b)
        # exactness at H^(i+1)(C'): ker(iota_*) == im(delta)
        for x in _module_elements(F, h_red_i1.gens, h_red_i1):
            lifted = np.array([lift_up(F, Z2, int(c)) for c in x],
                              dtype=np.int64)
            px = Z2.vscale(Z2.from_int(p), lifted)
            in_ker = C.slice(i + 1).is_coboundary(px)
            in_im = any(h_red_i1.classes_equal(x, b) for b in im_delta)
            assert in_ker == in_im, (p, i)
