import tracemalloc

import numpy as np
import pytest

from charp.complexes import bockstein
from charp.gcoh import (BarEngine, KoszulEngine, PeriodicEngine, bar_faces,
                        invariant_subspace, _integer_inverse)
from charp import groups, linalg
from charp.groups import (ElementaryAbelian, GModule, cyclic_group,
                          matrix_group, semidirect_product, sl2_group)
from charp.linalg import Mat, rank
from charp.config import Budget, BudgetExceeded, _FAST
from charp.rings import (galois_field, galois_ring, integers_mod,
                         prime_field, ring_make)
from charp.scenarios import _v_twist_gen_mats, _v_twist_pairs

from helpers import (bar_differential_oracle, closure_action_matrix,
                     closure_cocycle_from_function, closure_evaluator,
                     direct_product, element_actions_oracle, element_order,
                     matrix_group_oracle, phi_rows_oracle, stacked,
                     trivial_module)


def test_cyclic_and_products():
    C6 = cyclic_group(6)
    assert C6.order == 6 and element_order(C6, 1) == 6
    C2xC3 = direct_product(cyclic_group(2), cyclic_group(3))
    assert C2xC3.order == 6
    orders = sorted(element_order(C2xC3, g) for g in C2xC3.elements())
    assert orders == sorted(element_order(C6, g) for g in C6.elements())


def test_elementary_abelian():
    A = ElementaryAbelian(3, 2)
    assert A.order == 9
    for g in A.generators:
        assert element_order(A, g) == 3
    perm = A.automorphism_from_matrix([[0, 1], [1, 0]])
    assert perm[A.from_vector((1, 0))] == A.from_vector((0, 1))


@pytest.mark.parametrize("p, m", [(2, 3), (3, 2), (5, 1)])
def test_elementary_abelian_table_and_automorphisms_by_coordinates(p, m):
    A = ElementaryAbelian(p, m)
    vecs = [A.vector(g) for g in A.elements()]
    assert sorted(vecs) == sorted(set(vecs)) and len(vecs) == p ** m
    for a in A.elements():
        for b in A.elements():
            assert A.vector(A.mul(a, b)) == tuple(
                (x + y) % p for x, y in zip(vecs[a], vecs[b]))
    assert [A.vector(g) for g in A.generators] == \
        [tuple(int(k == j) for k in range(m)) for j in range(m)]
    mat = np.random.default_rng(p).integers(0, p, (m, m))
    perm = A.automorphism_from_matrix(mat)
    assert [A.vector(perm[g]) for g in A.elements()] == \
        [tuple(int(x) % p for x in mat @ np.array(v)) for v in vecs]


@pytest.mark.parametrize("n", [5, 101])
def test_validate_checks_associativity(n):
    # full check for n <= 100, seeded spot check above
    G = cyclic_group(n)
    G.validate()
    a, b = np.ix_(range(n), range(n))
    G.table = (2 * a + b) % n       # (ab)c = 4a+2b+c, a(bc) = 2a+2b+c
    with pytest.raises(ValueError, match="associativity fails"):
        G.validate()


def test_validate_checks_every_triple_one_row_at_a_time():
    # order 81 and 100 take the full check: one changed cell in the last
    # row breaks a few triples, and only those
    for G in (ElementaryAbelian(3, 4), cyclic_group(100)):
        n = G.order
        G.table[n - 1, [1, 2]] = G.table[n - 1, [2, 1]]
        with pytest.raises(ValueError, match=r"^associativity fails$"):
            G.validate()
    # two n x n arrays at a time, not two n^3 index arrays (8.1 MiB)
    tracemalloc.start()
    try:
        ElementaryAbelian(3, 4).validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6


def test_semidirect_s3():
    C2, C3 = cyclic_group(2), cyclic_group(3)
    inv = np.array([C3.inv(a) for a in C3.elements()])
    S3 = semidirect_product(C2, C3, {0: np.arange(3), 1: inv})
    assert S3.order == 6
    assert sorted(element_order(S3, g) for g in S3.elements()) == \
        [1, 2, 2, 2, 3, 3]


def test_sl2_f4():
    F4 = ring_make(galois_field(2, 2))
    G = sl2_group(F4)
    assert G.order == 60
    # perfect group: the abelianization is trivial; sanity via orders
    assert max(element_order(G, g) for g in G.elements()) == 5


def _elementary_gens(ring, n):
    """The elementary matrices 1 + a E_ij (i != j, a a nonzero element)."""
    gens = []
    for i in range(n):
        for j in range(n):
            for a in (a for a in ring.elements() if a != ring.zero):
                if i != j:
                    g = Mat.identity(ring, n)
                    g.data[i, j] = a
                    gens.append(g)
    return gens


@pytest.mark.parametrize("case", ["SL2(F4)", "SL2(F3)", "U(F4)", "F7^x",
                                  "U3(F2)", "U(Z/9)", "U(GR(4,2))"])
def test_matrix_group_matches_tuple_oracle(case):
    F4 = ring_make(galois_field(2, 2))
    ring, gens = {
        "SL2(F4)": (F4, _elementary_gens(F4, 2)),
        "SL2(F3)": (ring_make(prime_field(3)),
                    _elementary_gens(ring_make(prime_field(3)), 2)),
        "U(F4)": (F4, [Mat(F4, [[F4.one, F4.one], [F4.zero, F4.one]])]),
        # 1 x 1 matrices: every product has inner dimension 1
        "F7^x": (ring_make(prime_field(7)), [Mat(ring_make(prime_field(7)),
                                                 [[3]])]),
        "U3(F2)": (ring_make(prime_field(2)),
                   [Mat(ring_make(prime_field(2)),
                        [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
                    Mat(ring_make(prime_field(2)),
                        [[1, 0, 0], [0, 1, 1], [0, 0, 1]])]),
        "U(Z/9)": (ring_make(integers_mod(3, 2)),
                   [Mat(ring_make(integers_mod(3, 2)), [[1, 1], [0, 1]])]),
        "U(GR(4,2))": (ring_make(galois_ring(2, 2, 2)),
                       [Mat(ring_make(galois_ring(2, 2, 2)),
                            [[1, 2], [0, 1]]),
                        Mat(ring_make(galois_ring(2, 2, 2)),
                            [[1, 0], [5, 1]])]),
    }[case]
    G = matrix_group(ring, gens)
    elems, table, gen_idx = matrix_group_oracle(ring, gens)
    assert np.array_equal(G.table, table)
    assert G.labels == elems and G.matrices is G.labels
    assert G.generators == gen_idx
    known = {"SL2(F4)": 60, "SL2(F3)": 24, "U(F4)": 2, "F7^x": 6,
             "U3(F2)": 8, "U(Z/9)": 9}
    assert case not in known or G.order == known[case]


def test_group_tables_refused_over_budget(monkeypatch):
    small = Budget(_FAST, max_group_order=59)
    with pytest.raises(BudgetExceeded, match="order 59049 over budget 59"):
        ElementaryAbelian(3, 10, small)
    with pytest.raises(BudgetExceeded, match="table needs 81 cells"):
        ElementaryAbelian(3, 2, Budget(_FAST, max_cells=80))
    assert ElementaryAbelian(3, 2, Budget(_FAST, max_cells=81)).order == 9
    # cyclic groups and semidirect products refuse before any table
    with pytest.raises(BudgetExceeded, match="order 7919 over budget 59"):
        cyclic_group(7919, small)
    C2, C30 = cyclic_group(2), cyclic_group(30, small)
    with pytest.raises(BudgetExceeded, match="order 60 over budget 59"):
        semidirect_product(C2, C30, [np.arange(30)] * 2, small)
    assert semidirect_product(C2, C30, [np.arange(30)] * 2,
                              Budget(_FAST, max_group_order=60)).order == 60
    with pytest.raises(BudgetExceeded, match="table needs 3600 cells"):
        cyclic_group(60, Budget(_FAST, max_cells=3599))
    # matrix_group keeps its signature and checks the default budget as
    # its closure grows
    F4 = ring_make(galois_field(2, 2))
    monkeypatch.setattr(groups, "DEFAULT", small)
    with pytest.raises(BudgetExceeded, match="order 60 over budget 59"):
        sl2_group(F4)
    monkeypatch.setattr(groups, "DEFAULT", Budget(_FAST, max_group_order=60))
    assert sl2_group(F4).order == 60


def test_product_tables_follow_their_definitions():
    for n in (1, 2, 7, 12):
        a, b = np.ix_(range(n), range(n))
        assert np.array_equal(cyclic_group(n).table, (a + b) % n)
    C2, C3, C7 = cyclic_group(2), cyclic_group(3), cyclic_group(7)
    S3 = semidirect_product(C2, C3, {0: np.arange(3), 1: [0, 2, 1]})
    # C3 acting on C7 through a -> 2^h a, an automorphism of order 3
    act = [[pow(2, h, 7) * a % 7 for a in range(7)] for h in range(3)]
    for H, A, act_ in ((C2, C3, {0: [0, 1, 2], 1: [0, 2, 1]}), (C3, C7, act)):
        G, m = semidirect_product(H, A, act_), A.order
        for h1, a1, h2, a2 in np.ndindex(H.order, m, H.order, m):
            assert G.mul(h1 * m + a1, h2 * m + a2) == \
                H.mul(h1, h2) * m + A.mul(act_[H.inv(h2)][a1], a2)
    D = direct_product(S3, C2)
    for a, b, c, d in np.ndindex(6, 2, 6, 2):
        assert D.mul(2 * a + b, 2 * c + d) == 2 * S3.mul(a, c) + C2.mul(b, d)
    assert D.labels is None
    D2 = direct_product(C3, C2)
    assert D2.labels == [(a, b) for a in range(3) for b in range(2)]


def test_gmodule_validation():
    G = cyclic_group(3)
    F = ring_make(prime_field(3))
    bad = [Mat.identity(F, 1), Mat(F, [[2]]), Mat(F, [[2]])]
    with pytest.raises(ValueError):
        GModule(G, F, bad)


def test_bar_trivial_group_and_hom():
    F = ring_make(prime_field(2))
    G = cyclic_group(1)
    M = trivial_module(G, F, rank=3)
    eng = BarEngine(G, M, 3)
    assert eng.dims() == [3, 0, 0, 0]
    # H^1((Z/2)^2, F_2 trivial) = Hom(G, F_2) has dim 2
    A = ElementaryAbelian(2, 2)
    eng2 = BarEngine(A, trivial_module(A, F), 1)
    assert eng2.dims()[1] == 2


def _bar_case(name):
    """(group, module) of each bar differential oracle case."""
    F3 = ring_make(prime_field(3))
    if name == "trivial":
        G = cyclic_group(1)
        return G, trivial_module(G, F3, rank=2)
    if name == "S3-sign-F3":
        C3 = ElementaryAbelian(3, 1)
        G = semidirect_product(cyclic_group(2), C3,
                               {0: np.arange(3), 1: [0, 2, 1]})
        return G, GModule.from_function(
            G, F3, lambda g: Mat(F3, [[1 if g < 3 else 2]]))
    if name == "SL2(F3)":
        # trivial coefficients: d^2 has 23^3 rows already
        G = matrix_group(F3, [Mat(F3, [[1, 1], [0, 1]]),
                              Mat(F3, [[1, 0], [1, 1]])])
        return G, trivial_module(G, F3)
    if name == "C4-on-Z/9":
        Z9 = ring_make(integers_mod(3, 2))
        G, rot = cyclic_group(4), Mat(Z9, [[0, 8], [1, 0]])
        mats = [Mat.identity(Z9, 2)]
        for _ in range(3):
            mats.append(mats[-1] @ rot)
        return G, GModule(G, Z9, mats)
    GR = ring_make(galois_ring(2, 2, 2))
    G = matrix_group(GR, [Mat(GR, [[1, 2], [0, 1]]),
                          Mat(GR, [[1, 0], [5, 1]])])
    return G, GModule(G, GR, G.matrices)


@pytest.mark.parametrize("name", ["trivial", "S3-sign-F3", "SL2(F3)",
                                  "C4-on-Z/9", "U(GR(4,2))"])
def test_bar_differential_matches_tuple_oracle(name):
    G, M = _bar_case(name)
    eng = BarEngine(G, M, 2)
    for k in range(3):
        assert np.array_equal(eng.complex.d(k).data,
                              bar_differential_oracle(G, M, k).data), k


def test_bar_differential_is_entries_of_its_faces():
    # d^1 of SL_2(F_4) is an entry matrix in row order: each tuple's r rows
    # hold at most (k + 2) r^2 nonzeros, one r x r block per face
    F4 = ring_make(galois_field(2, 2))
    G = sl2_group(F4)
    M = GModule(G, F4, G.matrices, check=False)
    d = BarEngine(G, M, 1).complex.d(1)
    assert d.entries is not None and d.shape == (59 ** 2 * 2, 59 * 2)
    i = d.entries[0]
    assert np.all(np.diff(i) >= 0)
    assert np.bincount(i // 2, minlength=59 ** 2).max() <= (1 + 2) * 2 * 2
    assert np.array_equal(d.data, bar_differential_oracle(G, M, 1).data)


def test_bar_cohomology_builds_no_dense_differential(monkeypatch):
    # H^1 of SL_2(F_4) on F_4^2: d^1 (6962 x 118, 6.6 MB if dense) is read
    # from its entries; d^0 (118 x 2), the image side of the slice, is read
    # dense by its transformed solver
    F4 = ring_make(galois_field(2, 2))
    densify = linalg._Entries.__getattr__

    def refuse(self, name):
        if name == "data" and self.shape != (59 * 2, 2):
            raise AssertionError(f"{self.shape} differential made dense")
        return densify(self, name)

    monkeypatch.setattr(linalg._Entries, "__getattr__", refuse)
    tracemalloc.start()
    try:
        G = sl2_group(F4)
        eng = BarEngine(G, GModule(G, F4, G.matrices, check=False), 1)
        sl = eng.complex.slice(1)
        gens, coords = sl.gens.data, sl.express(sl.gens.data)
        cocycles = eng.complex.is_cocycle(1, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sl.dim() == 1 and cocycles
    assert np.array_equal(coords, Mat.identity(F4, 1).data)
    assert peak <= 3e6


@pytest.mark.parametrize("p, m, ring, u", [
    (3, 2, prime_field(3), [[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
    (2, 3, galois_field(2, 2), [[1, 1], [0, 1]]),
    (3, 2, integers_mod(3, 2), [[1, 3], [0, 1]])])
def test_periodic_element_actions_match_products(p, m, ring, u):
    R = ring_make(ring)
    A = ElementaryAbelian(p, m)
    # commuting unipotents of order p: u, the identity, u again
    gen_mats = [Mat(R, u), Mat.identity(R, len(u)), Mat(R, u)][:m]
    eng = PeriodicEngine(A, R, gen_mats, 1)
    assert np.array_equal(eng._act, element_actions_oracle(A, R, gen_mats))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cyclic_cohomology_bar_vs_periodic(p):
    F = ring_make(prime_field(p))
    G = cyclic_group(p)
    bar = BarEngine(G, trivial_module(G, F), 3)
    A = ElementaryAbelian(p, 1)
    eng = PeriodicEngine(A, F, [Mat.identity(F, 1)], 3)
    assert bar.dims() == eng.dims() == [1, 1, 1, 1]


def test_bar_budget_exceeded():
    F = ring_make(prime_field(2))
    A = ElementaryAbelian(2, 2)
    from charp.config import Budget, _FAST
    tiny = Budget(_FAST)
    tiny["max_cells"] = 10
    with pytest.raises(BudgetExceeded):
        BarEngine(A, trivial_module(A, F), 2, budget=tiny)


def test_periodic_engine_nontrivial_action():
    # C_3 acting on F_3^2 by a unipotent: dims match the bar engine
    F = ring_make(prime_field(3))
    A = ElementaryAbelian(3, 1)
    u = Mat(F, [[1, 1], [0, 1]])
    eng = PeriodicEngine(A, F, [u], 3)
    G = cyclic_group(3)
    mats = [Mat.identity(F, 2)]
    for _ in range(2):
        mats.append(mats[-1] @ u)
    bar = BarEngine(G, GModule(G, F, mats), 3)
    assert eng.dims() == bar.dims()


def test_periodic_transport_roundtrip_and_action():
    F = ring_make(prime_field(3))
    A = ElementaryAbelian(3, 2)
    eng = PeriodicEngine(A, F, [Mat.identity(F, 1)] * 2, 3)
    for n in (1, 2):
        sl = eng.complex.slice(n)
        for j in range(sl.gens.cols):
            vec = sl.gens.data[:, j]
            back = eng.cocycle_from_function(
                n, lambda T: eng.evaluate(n, vec, T))
            assert sl.classes_equal(vec, back)
        # all generators at once, as (r, k) blocks
        backs = eng.cocycle_from_function(
            n, lambda T: eng.evaluate(n, sl.gens.data, T))
        assert backs.shape == sl.gens.data.shape
        assert all(sl.classes_equal(sl.gens.data[:, j], backs[:, j])
                   for j in range(sl.gens.cols))
    swap = A.automorphism_from_matrix([[0, 1], [1, 0]])
    m, = eng.action_matrix(2, [(swap, Mat.identity(F, 1))])
    assert (m @ m) == Mat.identity(F, m.rows)


def test_koszul_engine():
    F9 = ring_make(galois_field(3, 2))
    eng = KoszulEngine(F9, [Mat.identity(F9, 1)] * 3)
    assert eng.dims() == [1, 3, 3, 1]
    lam = F9.from_coeffs([0, 1])
    eng2 = KoszulEngine(F9, [Mat(F9, [[lam]]), Mat.identity(F9, 1)])
    assert eng2.dims() == [0, 0, 0]
    with pytest.raises(ValueError):
        KoszulEngine(F9, [Mat(F9, [[F9.zero]])])
    # a det-1 automorphism whose float determinant is not +-1
    phi = [[1, 10 ** 8], [10 ** 8, 10 ** 16 + 1]]
    inv = _integer_inverse(np.array(phi, dtype=np.int64))
    assert [[sum(phi[i][k] * int(inv[k, j]) for k in range(2))
             for j in range(2)] for i in range(2)] == [[1, 0], [0, 1]]


def test_koszul_group_cocycle_encoding():
    # 1-cocycles of Z^2 from generator values, with a nontrivial action
    F4 = ring_make(galois_field(2, 2))
    B1 = Mat(F4, [[F4.one, F4.one], [F4.zero, F4.one]])
    eng = KoszulEngine(F4, [B1, Mat.identity(F4, 2)])
    # coboundary values: c(e_j) = (rho(e_j) - 1) m
    m = np.array([F4.from_coeffs([0, 1]), F4.one], dtype=np.int64)
    vals = [F4.vsub(F4.vmatmul(B1.data, m[:, None])[:, 0], m),
            np.zeros(2, dtype=np.int64)]
    vec = eng.cocycle_from_values(vals)
    assert eng.complex.slice(1).is_coboundary(vec)
    with pytest.raises(ValueError):
        eng.cocycle_from_values([np.array([F4.one, F4.zero]),
                                 np.array([F4.one, F4.one])])


def test_invariant_subspace_prime_to_p_check():
    F = ring_make(prime_field(2))
    A = ElementaryAbelian(2, 1)
    eng = PeriodicEngine(A, F, [Mat.identity(F, 1)], 2)
    pairs = [(np.arange(2), Mat.identity(F, 1))] * 2
    with pytest.raises(ValueError):
        invariant_subspace(eng, 1, pairs)


def test_semidirect_exhaustive_small():
    # (Z/3)^2 x| C_2 (inversion) over F_3, degrees <= 2
    F = ring_make(prime_field(3))
    A = ElementaryAbelian(3, 2)
    inv_perm = np.array([A.inv(a) for a in A.elements()], dtype=np.int64)
    C2 = cyclic_group(2)
    G = semidirect_product(C2, A, {0: np.arange(9), 1: inv_perm})
    assert G.order == 18
    bar = BarEngine(G, trivial_module(G, F), 2)
    eng = PeriodicEngine(A, F, [Mat.identity(F, 1)] * 2, 2)
    pairs = [(np.arange(9), Mat.identity(F, 1)),
             (inv_perm, Mat.identity(F, 1))]
    dims_inv = [invariant_subspace(eng, i, pairs)[0] for i in range(3)]
    assert bar.dims() == dims_inv


@pytest.mark.parametrize("p", [2, 3])
def test_group_bockstein_cyclic(p):
    F = ring_make(prime_field(p))
    Z = ring_make(integers_mod(p, 2))
    A = ElementaryAbelian(p, 1)
    eng = PeriodicEngine(A, F, [Mat.identity(F, 1)], 3)
    lifted = PeriodicEngine(A, Z, [Mat.identity(Z, 1)], 3)
    z = eng.complex.slice(1).gens.data[:, 0]
    b = bockstein(lifted.complex.d(1), z)
    assert not eng.complex.slice(2).is_coboundary(b)
    b2 = bockstein(lifted.complex.d(2), b)
    assert eng.complex.slice(3).is_coboundary(b2)


def test_bockstein_zero_on_liftable():
    # a class lifting to the GR coefficients has vanishing Bockstein:
    # H^1(Z^2, trivial GR) classes reduce to liftable F_4 classes
    F4 = ring_make(galois_field(2, 2))
    GR = ring_make(galois_ring(2, 2, 2))
    eng = KoszulEngine(F4, [Mat.identity(F4, 1)] * 2)
    lifted = KoszulEngine(GR, [Mat.identity(GR, 1)] * 2)
    z = eng.complex.slice(1).gens.data[:, 0]
    b = bockstein(lifted.complex.d(1), z)
    assert eng.complex.slice(2).is_coboundary(b)


def test_action_matrix_refuses_incompatible_pairs():
    # C_3 acting on F_3^2 by a unipotent u0; a u that does not commute
    # with u0 sends the invariant e_1 out of H^0
    F = ring_make(prime_field(3))
    u0 = Mat(F, [[1, 1], [0, 1]])
    u = Mat(F, [[1, 0], [1, 1]])
    per = PeriodicEngine(ElementaryAbelian(3, 1), F, [u0], 1)
    assert per.complex.slice(0).gens.cols == 1
    assert per.action_matrix(0, [(np.arange(3), Mat.identity(F, 2))]) == \
        [Mat.identity(F, 1)]
    # one incompatible pair among compatible ones is refused
    with pytest.raises(ValueError, match="incompatible"):
        per.action_matrix(0, [(np.arange(3), Mat.identity(F, 2)),
                              (np.arange(3), u)])


def test_inversion_on_c3_bar_and_periodic_agree():
    # inversion acts on H^n(C_3, F_3) by -1, -1, +1 in degrees 1, 2, 3
    F = ring_make(prime_field(3))
    G, A = cyclic_group(3), ElementaryAbelian(3, 1)
    bar = BarEngine(G, trivial_module(G, F), 3)
    per = PeriodicEngine(A, F, [Mat.identity(F, 1)], 3)
    one = Mat.identity(F, 1)
    for n, expected in ((1, 2), (2, 2), (3, 1)):
        # the bar side through the tuple-by-tuple oracle
        mats = [closure_action_matrix(bar, n, [G.inv(a) for a in G.elements()],
                                      one),
                per.action_matrix(n, [([A.inv(a) for a in A.elements()],
                                       one)])[0]]
        traces = [F.sum(int(m.data[k, k]) for k in range(m.rows))
                  for m in mats]
        ranks = [rank(m - Mat.identity(F, m.rows)) for m in mats]
        assert traces == [expected] * 2
        assert ranks[0] == ranks[1] == (0 if expected == 1 else 1)


def _trivial_periodic(ring, m):
    """(Z/3)^m acting trivially on one copy of the ring, with inversion and
    multiplication by -1 as (perm, u) pairs."""
    A = ElementaryAbelian(3, m)
    one = Mat.identity(ring, 1)
    pairs = [([A.inv(a) for a in A.elements()], one),
             (np.arange(A.order), one.scale(ring.from_int(-1)))]
    return A, PeriodicEngine(A, ring, [one] * m, 3), pairs


def _transport_case(name):
    """(periodic engine, degrees, (perm, u) pairs)."""
    F = ring_make(prime_field(3))
    if name == "trivial-(Z/3)^2":
        A, eng, pairs = _trivial_periodic(F, 2)
        swap = A.automorphism_from_matrix([[0, 1], [1, 0]])
        pairs.append((swap, Mat.identity(F, 1)))
        return eng, (0, 1, 2, 3), pairs
    if name == "Z/9-lift":
        _, eng, pairs = _trivial_periodic(ring_make(integers_mod(3, 2)), 1)
        return eng, (0, 1, 2, 3), pairs
    if name == "unipotent-C3":
        A = ElementaryAbelian(3, 1)
        u0 = Mat(F, [[1, 1], [0, 1]])
        # diag(1, -1) conjugates u0 to its inverse
        pairs = [(np.arange(3), u0), ([A.inv(a) for a in A.elements()],
                                      Mat(F, [[1, 0], [0, 2]]))]
        return PeriodicEngine(A, F, [u0], 3), (0, 1, 2, 3), pairs
    F9 = ring_make(galois_field(3, 2))
    A = ElementaryAbelian(3, 4)
    pairs = _v_twist_pairs(3, A, F9)
    return (PeriodicEngine(A, F9, _v_twist_gen_mats(3, A, F9), 2), (2,),
            [pairs[k] for k in (0, 5, 11)])


@pytest.mark.parametrize("name", ["trivial-(Z/3)^2", "unipotent-C3",
                                  "Z/9-lift", "F_9-twist-(Z/3)^4"])
def test_transport_matches_closure_oracle(name):
    eng, degrees, pairs = _transport_case(name)
    for n in degrees:
        gens = eng.complex.slice(n).gens.data
        ev = closure_evaluator(eng, n, gens)
        # (r, k) blocks and single columns; degenerate tuples included
        assert np.array_equal(eng.cocycle_from_function(n, stacked(ev)),
                              closure_cocycle_from_function(eng, n, ev))
        ev0 = closure_evaluator(eng, n, gens[:, 0])
        assert np.array_equal(eng.cocycle_from_function(n, stacked(ev0)),
                              closure_cocycle_from_function(eng, n, ev0))
        tuples = [tuple((3 * i + 2 * j) % eng.A.order for j in range(n))
                  for i in range(5)]
        assert np.array_equal(eng.evaluate(n, gens, tuples),
                              np.concatenate([ev(*t) for t in tuples]))
        # all pairs at once, and each alone
        oracle = [closure_action_matrix(eng, n, perm, u)
                  for perm, u in pairs]
        assert eng.action_matrix(n, pairs) == oracle
        assert [eng.action_matrix(n, [pair])[0] for pair in pairs] == oracle


@pytest.mark.parametrize("name", ["trivial-(Z/3)^2", "unipotent-C3",
                                  "Z/9-lift", "F_9-twist-(Z/3)^4"])
def test_phi_rows_are_built_once_per_tuple(name):
    eng, degrees, _ = _transport_case(name)
    seen = set()
    for n in degrees:
        T, _ = eng._psi_matrix(n)
        T = [tuple(t) for t in T]
        other = [tuple((3 * i + 2 * j) % eng.A.order for j in range(n))
                 for i in range(5)]
        # repeated tuples, and the same lists again from the row cache
        for tuples in (T + T[::-1], other, T, []):
            assert np.array_equal(eng._phi_rows(n, tuples),
                                  phi_rows_oracle(eng, n, tuples))
            seen |= set(tuples)
        assert eng._phi_rows(n, []).shape == (0, len(eng.ws[n]) * eng.rank)
    assert set(eng._phi_rows_memo) == seen


def test_periodic_action_matrix_products_do_not_grow_with_degree():
    # (u on each block) . P_n . Phi_n rows for all pairs at once: a fixed
    # number of products, however many bar tuples T_n holds and however
    # many pairs there are
    F = ring_make(prime_field(3))
    A = ElementaryAbelian(3, 2)
    eng = PeriodicEngine(A, F, [Mat.identity(F, 1)] * 2, 3)
    one = Mat.identity(F, 1)
    pairs = [(A.automorphism_from_matrix(m), u) for m, u in (
        ([[0, 1], [1, 0]], one), ([[1, 0], [0, 1]], one),
        ([[2, 0], [0, 2]], one.scale(2)), ([[1, 1], [0, 1]], one))]
    calls = []

    def counting(name):
        op = getattr(F, name)

        def wrapped(a, b):
            calls.append(name)
            return op(a, b)
        return wrapped

    counts = {}
    F.vmatmul, F.vmul = counting("vmatmul"), counting("vmul")
    try:
        for n in (1, 2, 3):
            # builds the slice, P_n and the Phi_n rows of every pair
            eng.action_matrix(n, pairs)
            for k in (1, 2, 4):
                calls.clear()
                eng.action_matrix(n, pairs[:k])
                counts[n, k] = sorted(calls)
    finally:
        del F.vmatmul, F.vmul
    assert len(eng._psi_matrix(3)[0]) > len(eng._psi_matrix(1)[0])
    assert len(set(map(tuple, counts.values()))) == 1, counts
    # Phi_n rows, P_n, the cocycle check and the express; u is 1 x 1
    assert counts[1, 1] == ["vmatmul"] * 4 + ["vmul"], counts[1, 1]


def test_bar_faces_in_sign_order():
    def mul(a, b):
        return f"{a}{b}"
    assert bar_faces(mul, ("a", "b", "c")) == [
        ("b", "c"), ("ab", "c"), ("a", "bc"), ("a", "b")]
    assert bar_faces(mul, ("a",)) == [(), ()]
