import random

import numpy as np
import pytest

from charp import extclass
from charp.config import DEFAULT, Budget, BudgetExceeded
from charp.extclass import (AlphaClass, HyperextClass, derived_sym_model,
                            omega_model, symmetric_square_extension)
from charp.complexes import bockstein
from charp.gcoh import BarEngine, PeriodicEngine
from charp.groups import ElementaryAbelian, GModule, matrix_group, sl2_group
from charp.linalg import Mat, kron, solver
from charp.rings import (galois_field, galois_ring, prime_field, ring_make)
from charp.tower import SolvableTower

from helpers import (actions_from_generators_oracle, induced_actions_oracle,
                     splitting_cocycle_oracle, staircase_oracle,
                     trivial_module)


def a3_f9_module():
    F9 = ring_make(galois_field(3, 2, (1, 0, 1)))
    A = ElementaryAbelian(3, 4)

    def act(aidx):
        vec = A.vector(aidx)
        a2 = F9.from_coeffs([vec[0], vec[1]])
        a3 = F9.from_coeffs([vec[2], vec[3]])
        return Mat(F9, [[F9.one, a2, a3],
                        [F9.zero, F9.one, F9.zero],
                        [F9.zero, F9.zero, F9.one]])
    return F9, A, GModule.from_function(A, F9, act, check=False)


def test_trivial_group_class_vanishes():
    # over the trivial group every complex of vector spaces splits
    F9, _, _ = ring_make(galois_field(3, 2)), None, None
    F9 = ring_make(galois_field(3, 2))
    A1 = ElementaryAbelian(3, 1)
    triv = trivial_module(A1, F9, rank=3)
    ec = omega_model(A1, triv, 3)
    hy = HyperextClass(ec, A1, rng=random.Random(0))
    gen_mats = [hy.hom_action(g) for g in A1.generators]
    eng = PeriodicEngine(A1, F9, gen_mats, 3)
    vec = eng.cocycle_from_function(2, hy.vec_evaluator())
    assert eng.complex.slice(2).is_coboundary(vec)


def test_hyperext_requires_two_cohomologies():
    F9, A, V = a3_f9_module()
    from charp.doldkan import de_rham_weight_complex
    from charp.extclass import EquivariantComplex, actions_from_generators
    from charp.doldkan import sym_power_matrix, ext_power_matrix
    from charp.linalg import kron
    C = de_rham_weight_complex(F9, 3, 3, upto=2)  # three cohomologies
    gens = {}
    for i in range(3):
        gens[i] = {}
        for j, gidx in enumerate(A.generators):
            act = V.act(gidx)
            gens[i][j] = kron(sym_power_matrix(F9, act, 3 - i),
                              ext_power_matrix(F9, act, i))
    ec = EquivariantComplex(C, actions_from_generators(A, gens))
    with pytest.raises(ValueError):
        HyperextClass(ec, A)


def _weight_generator_actions(ring, V, p):
    """{i: {j: S^(p-i) (x) Lambda^i of generator j}} for i < p."""
    return {i: {j: kron(extclass.sym_power_matrix(ring, V.act(g), p - i),
                        extclass.ext_power_matrix(ring, V.act(g), i))
                for j, g in enumerate(V.group.generators)}
            for i in range(p)}


@pytest.mark.parametrize("case", ["A3(F9)", "SL2(F3)"])
def test_actions_from_generators_match_per_element_oracle(case):
    F9, A, V = a3_f9_module()
    if case == "SL2(F3)":
        # nonabelian, reached through two generators
        A = matrix_group(F9, [Mat(F9, [[1, 1], [0, 1]]),
                              Mat(F9, [[1, 0], [1, 1]])])
        V = GModule(A, F9, A.matrices, check=False)
    gens = _weight_generator_actions(F9, V, 3)
    full = extclass.actions_from_generators(A, gens)
    oracle = actions_from_generators_oracle(A, gens)
    assert len(full[0]) == A.order
    # the same elements in the same discovery order, the same matrices
    assert [list(d.items()) for d in full.values()] == \
        [list(d.items()) for d in oracle.values()]


@pytest.mark.parametrize("model", ["omega", "derived"])
def test_induced_actions_match_per_element_oracle(model):
    F9, A, V = a3_f9_module()
    ec = omega_model(A, V, 3) if model == "omega" else \
        derived_sym_model(A, V, 3)
    hy = HyperextClass(ec, A, rng=random.Random(0))
    assert hy.rho_A == induced_actions_oracle(hy, hy.a_slice, hy.a)
    assert hy.rho_B == induced_actions_oracle(hy, hy.b_slice, hy.b)


@pytest.mark.parametrize("model", ["omega", "derived"])
def test_batched_staircase_matches_per_tuple_oracle(model):
    # the engine's tuples, then degenerate, repeated and random ones
    F9, A, V = a3_f9_module()
    ec = omega_model(A, V, 3) if model == "omega" else \
        derived_sym_model(A, V, 3)
    hy = HyperextClass(ec, A, rng=random.Random(2))
    eng = PeriodicEngine(A, F9, [hy.hom_action(g) for g in A.generators], 3)
    rng = random.Random(7)
    T = list(eng._psi_matrix(2)[0])
    tuples = T + [(0, 0), (0, 5), (5, 0), T[3], T[0]] + [
        tuple(rng.randrange(A.order) for _ in range(2)) for _ in range(12)]
    fn, r = hy.vec_evaluator(), hy.hom_rank()
    want = [staircase_oracle(hy, t) for t in tuples]
    assert any(np.any(w != F9.zero) for w in want)
    assert np.array_equal(fn(tuples), np.concatenate(want))
    assert np.array_equal(fn(tuples[5:6]), want[5])
    assert fn(tuples).shape == (len(tuples) * r,)
    with pytest.raises(ValueError, match="tuple length"):
        fn([(0, 1, 2)])


@pytest.mark.parametrize("model", ["omega", "derived"])
def test_batched_staircase_twists_by_rho_B(model):
    # a group of order 54 in GL_3(F_3) whose determinant is not 1, so
    # rho_B(g)^-1 = det(g)^-1 on B = Lambda^3 V is not the identity
    F = ring_make(prime_field(3))
    G = matrix_group(F, [Mat(F, [[2, 0, 0], [0, 1, 0], [0, 0, 1]]),
                         Mat(F, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])])
    V = GModule(G, F, G.matrices, check=False)
    builder = omega_model if model == "omega" else derived_sym_model
    hy = HyperextClass(builder(G, V, 3), G, rng=random.Random(1))
    assert hy.rho_B[G.generators[0]] == Mat(F, [[2]])
    rng = random.Random(9)
    tuples = [tuple(rng.randrange(G.order) for _ in range(2))
              for _ in range(40)]
    want = [staircase_oracle(hy, t) for t in tuples]
    assert sum(np.any(w != F.zero) for w in want) >= 20
    assert np.array_equal(hy.vec_evaluator()(tuples), np.concatenate(want))


def test_batched_staircase_of_four_degrees_matches_per_tuple_oracle():
    # p = 5: the class has degree 4, so three lifts run before the last
    # express; Z/5 acts on F_5^5 by a unipotent matrix
    F = ring_make(prime_field(5))
    A = ElementaryAbelian(5, 1)
    J = Mat(F, [[1, 1, 2, 0, 3], [0, 1, 1, 4, 0], [0, 0, 1, 1, 2],
                [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]])
    powers = [Mat.identity(F, 5)]
    for _ in range(4):
        powers.append(powers[-1] @ J)
    hy = HyperextClass(omega_model(A, GModule(A, F, powers), 5), A,
                       rng=random.Random(0))
    assert hy.degree == 4
    rng = random.Random(3)
    tuples = [(0, 0, 0, 0), (1, 0, 2, 0)] + [
        tuple(rng.randrange(5) for _ in range(4)) for _ in range(12)]
    want = [staircase_oracle(hy, t) for t in tuples]
    assert sum(np.any(w != F.zero) for w in want) >= 4
    assert np.array_equal(hy.vec_evaluator()(tuples), np.concatenate(want))
    hy.spot_check_cocycle(random.Random(1))


def test_extension_cocycle_matches_per_element_oracle():
    # every element of SL_2(F_4), twice, in a shuffled order; the actions
    # built from the generators are the per-element functor matrices
    F4 = ring_make(galois_field(2, 2))
    G = sl2_group(F4)
    V = GModule(G, F4, G.matrices, check=False)
    ext = symmetric_square_extension(G, V)
    for g in G.elements():
        assert ext.rho_K[g] == V.act(g).frobenius_entries()
        assert ext.rho_E[g] == extclass.sym_power_matrix(F4, V.act(g), 2)
        assert ext.rho_Q[g] == extclass.ext_power_matrix(F4, V.act(g), 2)
    elems = list(G.elements()) * 2
    random.Random(4).shuffle(elems)
    want = [splitting_cocycle_oracle(ext, g) for g in elems]
    assert sum(np.any(w != F4.zero) for w in want) > G.order
    assert np.array_equal(ext.vec_evaluator()([(g,) for g in elems]),
                          np.concatenate(want))


def test_derived_sym_model_builds_level_maps_on_nondegenerate_columns(
        monkeypatch):
    # Sym^3 of the DK levels of F_9^3[-1]: levels 1..4 have 10, 56, 165
    # and 364 monomials, of which 10, 36, 27 and 0 span N^n; level 0 and
    # level 4 get no map
    _, A, V = a3_f9_module()
    shapes, real = [], extclass.sym_power_matrix

    def spy(ring, f, n, cols=None):
        out = real(ring, f, n, cols=cols)
        shapes.append(out.data.shape)
        return out

    monkeypatch.setattr(extclass, "sym_power_matrix", spy)
    derived_sym_model(A, V, 3)
    assert shapes == [(10, 10), (56, 36), (165, 27)] * len(A.generators)


def test_alpha_p3_models_nonzero_and_choice_independent():
    F9, A, V = a3_f9_module()
    ec = omega_model(A, V, 3)
    vecs = []
    eng = None
    for seed in range(10):
        hy = HyperextClass(ec, A, rng=random.Random(seed))
        if eng is None:
            gen_mats = [hy.hom_action(g) for g in A.generators]
            eng = PeriodicEngine(A, F9, gen_mats, 3)
        hy.spot_check_cocycle(random.Random(100 + seed))
        vecs.append(eng.cocycle_from_function(2, hy.vec_evaluator()))
    sl = eng.complex.slice(2)
    assert not sl.is_coboundary(vecs[0])
    for v in vecs[1:]:
        assert sl.classes_equal(vecs[0], v)


def test_alpha_cross_model_agreement():
    # both chain models give a nonzero class, inside a one-dimensional
    # invariant line (the assertable form of unit-proportionality)
    F9, A, V = a3_f9_module()
    flags = {}
    for name, builder in (("omega", omega_model),
                          ("derived", derived_sym_model)):
        ec = builder(A, V, 3)
        hy = HyperextClass(ec, A, rng=random.Random(1))
        gen_mats = [hy.hom_action(g) for g in A.generators]
        eng = PeriodicEngine(A, F9, gen_mats, 3)
        vec = eng.cocycle_from_function(2, hy.vec_evaluator())
        flags[name] = not eng.complex.slice(2).is_coboundary(vec)
    assert flags["omega"] and flags["derived"]


@pytest.mark.parametrize("key, value, message", [
    ("max_level", 3, "needs 4 cosimplicial levels"),
    ("max_cells", 10, "cell coface")], ids=["max_level", "max_cells"])
def test_derived_sym_model_refuses_over_budget_before_building(
        monkeypatch, key, value, message):
    _, A, V = a3_f9_module()

    def built(*_args, **_kwargs):
        raise AssertionError("a functor power was built")

    monkeypatch.setattr(extclass, "conormalize", built)
    with pytest.raises(BudgetExceeded, match=message):
        derived_sym_model(A, V, 3, budget=Budget(DEFAULT, **{key: value}))


def test_alpha_p2_sl2():
    F4 = ring_make(galois_field(2, 2))
    G = sl2_group(F4)
    V = GModule(G, F4, G.matrices, check=False)
    ext = symmetric_square_extension(G, V)
    fn = ext.vec_evaluator()
    hom = GModule(V.group, F4, [m.frobenius_entries() for m in V.mats],
                  check=False)
    eng = BarEngine(G, hom, 1)
    vec = eng.cocycle_from_function(1, fn)
    assert eng.complex.is_cocycle(1, vec)
    assert not eng.complex.slice(1).is_coboundary(vec)


def test_alpha_p2_restriction_to_u2_f2():
    F4 = ring_make(galois_field(2, 2))
    U = matrix_group(F4, [Mat(F4, [[F4.one, F4.one], [F4.zero, F4.one]])])
    V = GModule(U, F4, U.matrices, check=False)
    ext = symmetric_square_extension(U, V)
    fn = ext.vec_evaluator()
    hom = GModule(V.group, F4, [m.frobenius_entries() for m in V.mats],
                  check=False)
    eng = BarEngine(U, hom, 1)
    vec = eng.cocycle_from_function(1, fn)
    assert eng.complex.slice(1).is_coboundary(vec)


def f4_torus():
    """The diagonal torus of GL_2(F_4), on which Lambda^2 V = det is not
    trivial."""
    F4 = ring_make(galois_field(2, 2))
    x = F4.from_coeffs([0, 1])
    T = matrix_group(F4, [Mat(F4, [[x, F4.zero], [F4.zero, F4.one]]),
                          Mat(F4, [[F4.one, F4.zero], [F4.zero, x]])])
    return F4, T, GModule(T, F4, T.matrices, check=False)


@pytest.mark.parametrize("group", ["SL2(F4)", "torus(F4)"])
def test_extension_hom_action_reads_the_table_inverse(group):
    if group == "SL2(F4)":
        F4 = ring_make(galois_field(2, 2))
        G = sl2_group(F4)
        V = GModule(G, F4, G.matrices, check=False)
    else:
        F4, G, V = f4_torus()
        assert G.order == 9
    ext = symmetric_square_extension(G, V)
    for g in G.elements():
        assert ext.hom_action(g) == kron(
            ext.rho_K[g], solver(ext.rho_Q[g]).inverse().transpose())
    if group == "torus(F4)":
        assert any(not (ext.rho_Q[g] - Mat.identity(F4, 1)).is_zero()
                   for g in G.elements())


def test_symmetric_square_extension_rejects_odd_p():
    F9 = ring_make(galois_field(3, 2))
    A1 = ElementaryAbelian(3, 1)
    with pytest.raises(ValueError):
        symmetric_square_extension(A1, trivial_module(A1, F9, rank=2))


# ---------------------------------------------------------------------------
# the integer-ring tower

def tower_setup():
    F4 = ring_make(galois_field(2, 2, (1, 1, 1)))
    GR = ring_make(galois_ring(2, 2, 2, (3, 3, 1)))
    Q = np.array([[1, 1], [1, 2]])
    return F4, GR, Q


def test_tower_trivial_module_dims():
    F2 = ring_make(prime_field(2))
    _, _, Q = tower_setup()
    I1 = Mat.identity(F2, 1)
    tw = SolvableTower(F2, [I1, I1], Q, I1, I1, maxdeg=2)
    # H^0 = F_2; H^1 = Hom(Gamma^ab, F_2) is 2-dimensional since Q - 1 is
    # unimodular on the lattice part
    assert tw.dims()[:2] == [1, 2]


def test_tower_kunneth_against_koszul():
    # with trivial u and w the tower computes H(C_2 x Z x Z^2)
    F2 = ring_make(prime_field(2))
    I1 = Mat.identity(F2, 1)
    tw = SolvableTower(F2, [I1, I1], np.eye(2, dtype=np.int64), I1, I1,
                       maxdeg=2)
    # H(Z^3, F_2) dims (1,3,3); times H(C_2) (all 1): partial sums
    # H^0 = 1, H^1 = 3+1 = 4, H^2 = 3+3+1 = 7
    assert tw.dims() == [1, 4, 7]


def test_tower_nontrivial_character_vanishes():
    F4, _, Q = tower_setup()
    x = F4.from_coeffs([0, 1])
    I1 = Mat.identity(F4, 1)
    tw = SolvableTower(F4, [I1, I1], Q, Mat(F4, [[x]]), I1, maxdeg=1)
    assert tw.complex.slice(0).dim() == 0


def test_tower_coboundary_encoding():
    F4, _, Q = tower_setup()
    x = F4.from_coeffs([0, 1])
    e1 = Mat(F4, [[1, 1], [0, 1]])
    e2 = Mat(F4, [[F4.one, F4.mul(x, x)], [F4.zero, F4.one]])
    um = Mat(F4, [[F4.mul(x, x), F4.zero], [F4.zero, x]])
    wm = Mat.identity(F4, 2)
    tw = SolvableTower(F4, [e1, e2], Q, um, wm, maxdeg=2)
    rng = random.Random(0)
    for _ in range(10):
        m = np.array([F4.random(rng) for _ in range(2)], dtype=np.int64)
        vals = [F4.vsub(F4.vmatmul(g.data, m[:, None])[:, 0], m)
                for g in (e1, e2)]
        cu = F4.vsub(F4.vmatmul(um.data, m[:, None])[:, 0], m)
        cw = F4.vsub(F4.vmatmul(wm.data, m[:, None])[:, 0], m)
        enc = tw.encode_one_cocycle(vals, cu, cw)
        assert np.array_equal(enc,
                              F4.vmatmul(tw.complex.d(0).data,
                                         m[:, None])[:, 0])
        assert tw.complex.slice(1).is_coboundary(enc)


def test_tower_bockstein_squares_to_zero():
    # beta^2 = 0 on the trivial-module tower over GR
    F4, GR, Q = tower_setup()
    I1f, I1g = Mat.identity(F4, 1), Mat.identity(GR, 1)
    tw = SolvableTower(F4, [I1f, I1f], Q, I1f, I1f, maxdeg=3)
    twl = SolvableTower(GR, [I1g, I1g], Q, I1g, I1g, maxdeg=3)
    sl1 = tw.complex.slice(1)
    z = sl1.gens.data[:, 0]
    b = bockstein(twl.complex.d(1), z)
    assert tw.complex.is_cocycle(2, b)
    b2 = bockstein(twl.complex.d(2), b)
    assert tw.complex.slice(3).is_coboundary(b2)


def test_alpha_class_entry_point():
    F9, A, V = a3_f9_module()
    alpha = AlphaClass(A, V, lambda hact: PeriodicEngine(
        A, F9, [hact(g) for g in A.generators], 3),
        rng=random.Random(3))
    assert alpha.nonzero and alpha.models_agree and alpha.degree == 2
    assert list(alpha.flags) == ["omega", "derived"]
    assert alpha.flags["derived"] == (True, False)
    # p = 2 on the bar complex: nonzero over SL_2(F_4), zero on U_2(F_2)
    # and on the torus, whose order is odd
    F4 = ring_make(galois_field(2, 2))
    for G, nonzero in ((sl2_group(F4), True),
                       (matrix_group(F4, [Mat(F4, [[F4.one, F4.one],
                                                   [F4.zero, F4.one]])]),
                        False),
                       (f4_torus()[1], False)):
        V = GModule(G, F4, G.matrices, check=False)
        alpha2 = AlphaClass(G, V, lambda hact, G=G: BarEngine(
            G, GModule.from_function(G, F4, hact, check=False), 1))
        assert list(alpha2.flags) == ["extension"] and alpha2.degree == 1
        assert alpha2.is_cocycle and alpha2.models_agree
        assert alpha2.nonzero == nonzero == (not alpha2.is_coboundary)


def test_alpha_class_reports_model_disagreement(monkeypatch):
    # a derived model that carries the trivial module's (zero) class: the
    # disagreement is reported, and the class is the omega model's
    F9, A, V = a3_f9_module()
    monkeypatch.setattr(extclass, "derived_sym_model",
                        lambda G, _V, p: omega_model(
                            G, trivial_module(G, F9, rank=3), p))
    alpha = AlphaClass(A, V, lambda hact: PeriodicEngine(
        A, F9, [hact(g) for g in A.generators], 3))
    assert alpha.flags["omega"] == (True, False)
    assert alpha.flags["derived"] == (True, True)
    assert alpha.nonzero and not alpha.models_agree
    # trivial group: zero
    A1 = ElementaryAbelian(3, 1)
    triv = trivial_module(A1, F9, rank=3)
    alpha0 = AlphaClass(A1, triv, lambda hact: PeriodicEngine(
        A1, F9, [hact(g) for g in A1.generators], 3))
    assert not alpha0.nonzero
    with pytest.raises(ValueError):
        AlphaClass(A, trivial_module(A, F9, rank=2),
                   lambda hact: None)
