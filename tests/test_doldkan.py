import random
from collections import Counter
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, prod

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import helpers
from helpers import (NATURAL_MATRICES, de_rham_oracle, dense_operator,
                     hsp_truncated_dims, module_complex, natural_map,
                     power_matrix, universal_classes_oracle)

from charp.complexes import (CochainComplex, cohomology_dims, cone,
                             shifted_module)
from charp.config import DEFAULT, Budget, BudgetExceeded
from charp.cosalg import NerveAlgebra, universal_classes
from charp.doldkan import (Conormalized, PolyFunctor, _binom_table,
                           _entry_product, _lex_rank, _sym_rank, conormalize,
                           conormalize_map, de_rham_weight_complex,
                           derived_power, dold_kan, monomials,
                           multiset_levels, natural_level_map, norm_factors,
                           surjections)
from charp.gcoh import _multi_indices
from charp.groups import cyclic_group
from charp.linalg import Mat, ModuleStructure, diagonalize, rank
from charp.rings import (galois_field, galois_ring, integers_mod,
                         prime_field, ring_make)


def level(name, ring, d, n):
    """The natural map on rank d, arity n, as a dense Mat."""
    return natural_level_map(name, ring, d, n).dense()


def rand_mat(ring, rows, cols, rng):
    return Mat(ring, [[ring.random(rng) for _ in range(cols)]
                      for _ in range(rows)])


def rand_graded_module(ring, rng, maxdeg=3, maxrank=3):
    """A graded module (zero differential) in degrees [0, maxdeg], not
    zero in every degree."""
    ranks = [rng.randrange(0, maxrank + 1) for _ in range(maxdeg + 1)]
    if all(r == 0 for r in ranks):
        ranks[rng.randrange(0, maxdeg + 1)] = 1
    return CochainComplex(ring, 0, ranks, [Mat.zeros(ring, b, a)
                                           for a, b in zip(ranks, ranks[1:])])


def test_surjection_counts():
    assert len(surjections(4, 1)) == 4
    assert len(surjections(5, 2)) == comb(5, 2)
    assert surjections(2, 1) == ((0, 0, 1), (0, 1, 1))


@seed(2031)
@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(0, 7), st.integers(0, 6), st.sampled_from(["sym", "ext"]))
def test_monomials_match_itertools(d, n, kind):
    mono = monomials(kind, d, n)
    enum = combinations if kind == "ext" else combinations_with_replacement
    assert mono.dtype == np.int64 and mono.shape[1] == n
    assert list(map(tuple, mono.tolist())) == list(enum(range(d), n))
    assert not mono.flags.writeable
    rank = _lex_rank(mono, d) if kind == "ext" else _sym_rank(mono, d)
    assert np.array_equal(rank, np.arange(len(mono)))
    # the level links rebuild the rows, last element first
    rows, back = np.arange(len(mono)), np.empty_like(mono)
    links = list(multiset_levels(d, n, strict=kind == "ext"))
    for j in range(n - 1, -1, -1):
        parent, nxt = links[j]
        back[:, j] = nxt[rows]
        rows = parent[rows]
    assert np.array_equal(back, mono)
    # the enumerations read from monomials, against their oracles
    assert surjections(d, n) == helpers.surjections(d, n)
    if d:
        assert _multi_indices(d, n) == helpers.multi_indices(d, n)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_norm_factors_match_counter_oracle(d):
    # n >= 34 is where a rank among the n-subsets of range(2n - 1), the
    # old pattern key, left int64
    for n in range(41):
        factors, of = norm_factors(d, n)
        want, keys = [], []
        for mono in combinations_with_replacement(range(d), n):
            mults = Counter(mono).values()
            want.append(prod(map(factorial, mults)))
            # a pattern is the sorted row of positions 1..m in each run
            keys.append(tuple(sorted(k for m in mults
                                     for k in range(1, m + 1))))
        assert [factors[k] for k in of.tolist()] == want, (d, n)
        patterns = sorted(set(keys))
        assert of.tolist() == [patterns.index(k) for k in keys], (d, n)
        assert of.dtype == np.int64 and not of.flags.writeable


def test_binom_table_refuses_int64_overflow():
    assert _binom_table(66, 33)[66, 33] == comb(66, 33)   # < 2^63
    with pytest.raises(ValueError, match="int64"):
        _binom_table(67, 34)          # comb(67, 34) >= 2^63


def test_dk_constant_module():
    R = ring_make(prime_field(3))
    A = dold_kan(module_complex(R, 2, 0), 4)
    assert A.ranks == [2, 2, 2, 2, 2]


def test_dk_shifted_line_ranks():
    R = ring_make(prime_field(2))
    A = dold_kan(shifted_module(R, 1, 1), 5)
    assert A.ranks == [0, 1, 2, 3, 4, 5]
    B = dold_kan(shifted_module(R, 3, 2), 4)
    assert B.ranks == [0, 0, 3, 3 * comb(3, 2), 3 * comb(4, 2)]


@pytest.mark.parametrize("spec", [prime_field(2), prime_field(3),
                                  integers_mod(3, 2)])
def test_dk_roundtrip_random(spec):
    ring = ring_make(spec)
    rng = random.Random(31)
    for _ in range(12):
        C = rand_graded_module(ring, rng)
        L = C.hi + 2
        A = dold_kan(C, L)     # validates the cosimplicial identities
        cn = conormalize(A)
        got = cn.complex
        for i in range(0, C.hi + 1):
            assert got.rank(i) == C.rank(i)
        for i in range(C.hi + 1, got.hi + 1):
            assert got.rank(i) == 0
        assert all(got.d(i).is_zero() for i in range(got.hi))
        if ring.is_field:
            for i in range(0, C.hi + 1):
                assert got.slice(i).dim() == C.slice(i).dim()
        else:
            for i in range(0, C.hi + 1):
                assert got.slice(i).structure == C.slice(i).structure


def test_dk_conormalize_shifted_line():
    R = ring_make(prime_field(5))
    cn = conormalize(dold_kan(shifted_module(R, 1, 1), 4))
    assert cn.complex.ranks[:2] == [0, 1]
    assert all(r == 0 for r in cn.complex.ranks[2:])


def test_dk_negative_degree_rejected():
    R = ring_make(prime_field(2))
    C = CochainComplex(R, -1, [1, 1], [Mat.zeros(R, 1, 1)])
    with pytest.raises(ValueError):
        dold_kan(C, 2)


def test_functor_dims():
    F = PolyFunctor("sym", 2)
    assert F.dim(2) == 3
    assert PolyFunctor("ext", 2).dim(2) == 1
    assert PolyFunctor("div", 2).dim(2) == 3


@pytest.mark.parametrize("kind", ["sym", "div", "ext"])
@pytest.mark.parametrize("n", [2, 3])
def test_functor_law_random(kind, n):
    R = ring_make(prime_field(5))
    rng = random.Random(n)
    F = PolyFunctor(kind, n)
    for _ in range(20):
        a, b, c = (rng.randrange(1, 4) for _ in range(3))
        f = rand_mat(R, b, a, rng)
        g = rand_mat(R, c, b, rng)
        lhs = power_matrix(R, F, g @ f)
        rhs = power_matrix(R, F, g) @ power_matrix(R, F, f)
        assert lhs == rhs
        ident = power_matrix(R, F, Mat.identity(R, a))
        assert ident == Mat.identity(R, F.dim(a))


def test_psi_naturality():
    # psi o Div^p(f) = F*(f) o psi for random f over F_p and F_9
    for spec in (prime_field(3), galois_field(3, 2)):
        R = ring_make(spec)
        rng = random.Random(17)
        p = R.p
        for _ in range(20):
            a, b = rng.randrange(1, 4), rng.randrange(1, 4)
            f = rand_mat(R, b, a, rng)
            lhs = level("Psi", R, b, p) @ \
                power_matrix(R, PolyFunctor("div", p), f)
            rhs = f.frobenius_entries() @ level("Psi", R, a, p)
            assert lhs == rhs


def test_delta_psi_composition_is_restriction():
    for p in (2, 3):
        R = ring_make(prime_field(p))
        for d in (1, 2, 3):
            comp = level("Delta", R, d, p) @ level("Psi", R, d, p)
            assert comp == level("r", R, d, p)


def test_norm_restriction_factorials():
    for p in (2, 3):
        for d in (1, 2, 3):
            R = ring_make(integers_mod(p, 3))  # char p^3 sees p! exactly
            nr = level("r", R, d, p) @ level("N", R, d, p)
            expect = Mat.identity(R, nr.rows).scale(
                R.from_int(factorial(p)))
            assert nr == expect


def test_four_term_exactness():
    # 0 -> F*M -> S^p M -> Div^p M -> F*M -> 0 over F_p, ranks <= 3
    for p in (2, 3):
        R = ring_make(prime_field(p))
        for d in (1, 2, 3):
            Dl = level("Delta", R, d, p)
            N = level("N", R, d, p)
            Ps = level("Psi", R, d, p)
            assert (N @ Dl).is_zero() and (Ps @ N).is_zero()
            rk_delta, rk_norm, rk_psi = rank(Dl), rank(N), rank(Ps)
            sym_dim = comb(d + p - 1, p)
            assert rk_delta == d
            assert rk_norm == sym_dim - d
            assert rk_psi == d
            # ker = im at each spot by dimension count
            assert sym_dim - rk_norm == rk_delta
            assert sym_dim - rk_psi == rk_norm


def test_norm_cokernel_over_zp2():
    for p in (2, 3):
        R = ring_make(integers_mod(p, 2))
        for d in (1, 2, 3):
            N = level("N", R, d, p)
            structure = diagonalize(N).cokernel()
            assert structure == ModuleStructure(p, 2, [1] * d)


def test_cone_of_norm_is_frobenius_twists():
    # cone(N_p : S^p M -> Div^p M), M free rank d in degree 0 over F_p:
    # H^-1 = H^0 = F*M
    for p in (2, 3):
        R = ring_make(prime_field(p))
        for d in (1, 2, 3):
            nm = natural_map("N", p, module_complex(R, d, 0), 0)
            c = cone(nm)
            assert c.slice(-1).dim() == d
            assert c.slice(0).dim() == d


@pytest.mark.parametrize("p,d,n", [(2, 1, 2), (2, 3, 2), (3, 2, 2),
                                   (3, 3, 3), (3, 4, 3)])
def test_decalage(p, d, n):
    R = ring_make(prime_field(p))
    G = derived_power(PolyFunctor("div", n), shifted_module(R, d, 1), n)
    dims = {i: v for i, v in zip(G.degrees(), cohomology_dims(G))
            if v and i <= n}
    assert dims == ({n: comb(d, n)} if comb(d, n) else {})


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_symmetric_power_cohomology(p, d):
    R = ring_make(prime_field(p))
    S = derived_power(PolyFunctor("sym", p), shifted_module(R, d, 1), p)
    dims = {i: v for i, v in zip(S.degrees(), cohomology_dims(S))
            if v and i <= p}
    if p == 2:
        expect = {1: d, 2: comb(d + 1, 2)}
    else:
        expect = {1: d, 2: d}
        if comb(d, p):
            expect[p] = comb(d, p)
    assert dims == expect


@pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                 (3, 3)])
def test_sym_matches_hsp_oracle(p, d):
    R = ring_make(prime_field(p))
    S = derived_power(PolyFunctor("sym", p), shifted_module(R, d, 1), p)
    got = [S.slice(j).dim() for j in range(1, p + 1)]
    assert got == hsp_truncated_dims(p, d)


def test_derived_power_stable_under_level_increase():
    R = ring_make(prime_field(2))
    C = shifted_module(R, 2, 1)
    a = derived_power(PolyFunctor("sym", 2), C, 2)
    b = derived_power(PolyFunctor("sym", 2), C, 3)
    for i in range(0, 3):
        assert a.slice(i).dim() == b.slice(i).dim()


def test_derived_power_budget():
    R = ring_make(prime_field(2))
    with pytest.raises(BudgetExceeded):
        derived_power(PolyFunctor("sym", 2), shifted_module(R, 1, 1), 99)


def test_norm_then_restriction_is_p_factorial_on_derived():
    # r_p o N_p = p! id levelwise; in char p with n = p this is zero
    for p in (2, 3):
        R = ring_make(prime_field(p))
        C = shifted_module(R, 2, 1)
        N = natural_map("N", p, C, p)
        r = natural_map("r", p, C, p)
        for i in range(0, p + 1):
            compo = r.component(i) @ N.component(i)
            assert compo.is_zero()


def test_delta_psi_on_derived_powers():
    for p in (2, 3):
        R = ring_make(prime_field(p))
        C = shifted_module(R, 2, 1)
        Dl = natural_map("Delta", p, C, p)
        Ps = natural_map("Psi", p, C, p)
        # Delta o Psi = r as complex maps
        r = natural_map("r", p, C, p)
        for i in range(0, p + 1):
            lhs = Dl.component(i) @ Ps.component(i)
            assert lhs == r.component(i)


def test_delta_psi_need_char_p():
    R = ring_make(integers_mod(2, 2))
    with pytest.raises(ValueError):
        natural_map("Delta", 2, module_complex(R, 1, 0), 0)


def test_omega_complex_small():
    # Omega^bullet_2 over F_2, dim V = 2: ranks 3,4,1 and H dims (2,2,0)
    R = ring_make(prime_field(2))
    W = de_rham_weight_complex(R, 2, 2)
    assert W.ranks == [3, 4, 1]
    assert cohomology_dims(W) == [2, 2, 0]


def test_omega_differential_by_hand_and_entrywise():
    # dim V = 2, weight 2 over Z/9: d(x_a x_b) = x_b dx_a + x_a dx_b, and
    # d(x_a dx_b) = dx_a ^ dx_b (a sign -1 = 8 when a > b)
    R = ring_make(integers_mod(3, 2))
    W = de_rham_weight_complex(R, 2, 2)
    assert W.ranks == [3, 4, 1]
    # columns x0^2, x0x1, x1^2; rows x0 dx0, x0 dx1, x1 dx0, x1 dx1
    assert W.d(0) == Mat(R, [[2, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 2]])
    # columns x0 dx0, x0 dx1, x1 dx0, x1 dx1; row dx0 ^ dx1
    assert W.d(1) == Mat(R, [[0, 1, 8, 0]])
    # larger cases against the entry-by-entry construction
    for spec in (integers_mod(3, 2), galois_field(3, 2)):
        R = ring_make(spec)
        for d, n in [(3, 3), (4, 2), (3, 5)]:
            W = de_rham_weight_complex(R, d, n)
            for i in range(n):
                assert W.d(i) == de_rham_oracle(R, d, n, i)


def test_de_rham_preflight_refuses_before_building(monkeypatch):
    import charp.doldkan as dk
    R = ring_make(prime_field(3))
    # weight 3 on rank 3: ranks 10, 18, 9, 1, largest differential 18 x 10
    assert de_rham_weight_complex(
        R, 3, 3, budget=Budget(DEFAULT, max_cells=180)).ranks == [10, 18, 9, 1]
    monkeypatch.setattr(dk, "monomials", None)
    with pytest.raises(BudgetExceeded, match="180-cell"):
        de_rham_weight_complex(R, 3, 3, budget=Budget(DEFAULT, max_cells=179))
    assert de_rham_weight_complex(
        R, 3, 3, upto=0, budget=Budget(DEFAULT, max_cells=0)).ranks == [10]
    # ranks with a million digits are refused without being computed, and
    # the message does not claim a cell count it never computed
    with pytest.raises(BudgetExceeded,
                       match=f"more than {DEFAULT.max_cells} cells"):
        de_rham_weight_complex(R, 10 ** 6, 10 ** 6 + 2)
    # ranks 66, 121, 55: rank 66 alone is over the budget and is capped
    # there, so the 66 x 121 cells are not claimed
    with pytest.raises(BudgetExceeded, match="more than 65 cells"):
        de_rham_weight_complex(R, 11, 2, budget=Budget(DEFAULT, max_cells=65))


def _entries(M):
    """(rows, cols, values) of the nonzero cells of a Mat."""
    r, c = np.nonzero(M.data != M.ring.zero)
    return r, c, M.data[r, c]


@pytest.mark.parametrize("spec", [prime_field(5), galois_field(3, 2)],
                         ids=repr)
def test_entry_product_equals_dense_matmul(spec):
    # the d.d check of the de Rham builder multiplies entries; the dense @
    # is its oracle, on random sparse matrices and on built differentials
    R = ring_make(spec)
    rng = random.Random(53)

    def product(left, right):
        out = Mat.zeros(R, left.rows, right.cols)
        r, c, v = _entry_product(R, _entries(left), _entries(right))
        out.data[r, c] = v
        return out

    for _ in range(30):
        a, b, c = (rng.randint(1, 9) for _ in range(3))
        A, B = (Mat(R, [[R.random(rng) if rng.random() < 0.4 else R.zero
                         for _ in range(cols)] for _ in range(rows)])
                for rows, cols in ((a, b), (b, c)))
        assert product(A, B) == A @ B
    for d, n in [(3, 3), (4, 4), (5, 7)]:
        W = de_rham_weight_complex(R, d, n)
        for right, left in zip(W.diffs, W.diffs[1:]):
            assert (left @ right).is_zero()
            assert product(left, right) == left @ right


@pytest.mark.parametrize("spec", [prime_field(5), galois_field(3, 2)],
                         ids=repr)
def test_de_rham_checks_d_squared_on_entries(spec, monkeypatch):
    import charp.doldkan as dk
    R = ring_make(spec)
    real = dk._wedge_plan

    def flipped(d, i):
        # in d(x^m dx_J), J one index, the first sign of dx_0 ^ dx_J
        # negated
        if i != 1:
            return real(d, i)
        plan = list(real(d, i))
        b, sign, wedge = plan[0]
        plan[0] = (b, np.concatenate(([-sign[0]], sign[1:])), wedge)
        return tuple(plan)

    # the check makes no dense product
    monkeypatch.setattr(Mat, "__matmul__", None)
    assert de_rham_weight_complex(R, 3, 4).ranks == [15, 30, 18, 3, 0]
    monkeypatch.setattr(dk, "_wedge_plan", flipped)
    with pytest.raises(ValueError, match="d.d != 0"):
        de_rham_weight_complex(R, 3, 4)


def test_omega_acyclic_when_p_does_not_divide():
    for p in (2, 3):
        R = ring_make(prime_field(p))
        for n in range(1, p + 3):
            if n % p == 0:
                continue
            W = de_rham_weight_complex(R, p, n)
            assert all(v == 0 for v in cohomology_dims(W)), (p, n)


def test_omega_cartier_at_p():
    # H^i(Omega_p) = Lambda^i V' (x) S^(1-i) V': dims (p, p, 0, ...)
    for p in (2, 3):
        R = ring_make(prime_field(p))
        W = de_rham_weight_complex(R, p, p)
        dims = cohomology_dims(W)
        assert dims[0] == p and dims[1] == p
        assert all(v == 0 for v in dims[2:])


def test_omega_truncated_vs_symmetric_power():
    # Omega^{<=p-1}_p[-1] has the cohomology of S^p(V[-1]) (dim V = p)
    for p in (2, 3):
        R = ring_make(prime_field(p))
        W = de_rham_weight_complex(R, p, p, upto=p - 1)
        wd = cohomology_dims(W)
        S = derived_power(PolyFunctor("sym", p), shifted_module(R, p, 1), p)
        sd = [S.slice(j).dim() for j in range(1, p + 1)]
        assert wd == sd


def test_norm_restriction_naturality_random_maps():
    # N and r commute with Sym/Div of 50 random module maps
    rng = random.Random(23)
    checked = 0
    for p in (2, 3):
        R = ring_make(prime_field(p))
        while checked < 25 * (p - 1):
            a, b = rng.randrange(1, 4), rng.randrange(1, 4)
            f = rand_mat(R, b, a, rng)
            symf = power_matrix(R, PolyFunctor("sym", p), f)
            divf = power_matrix(R, PolyFunctor("div", p), f)
            assert level("N", R, b, p) @ symf == divf @ level("N", R, a, p)
            assert level("r", R, b, p) @ divf == \
                symf @ level("r", R, a, p)
            # Delta and psi naturality through the Frobenius twist
            ff = f.frobenius_entries()
            assert symf @ level("Delta", R, a, p) == \
                level("Delta", R, b, p) @ ff
            assert level("Psi", R, b, p) @ divf == \
                ff @ level("Psi", R, a, p)
            checked += 1


FIELDS = [prime_field(2), prime_field(3), galois_field(3, 2)]
LOCAL_RINGS = [integers_mod(3, 2), galois_ring(2, 2, 2)]


def natural_cases():
    """(ring spec, name): all four maps over F_2, F_3, F_9; N and r also
    over Z/9 and GR(4,2)."""
    return [(spec, name) for spec in FIELDS
            for name in ("N", "r", "Delta", "Psi")] + \
        [(spec, name) for spec in LOCAL_RINGS for name in ("N", "r")]


# the maps of four-term-exact (p = 23, dim 2) and norm-cokernel-zp2
# (p = 23, dim 3): 23! > 2^63
LARGE_ARITY_CASES = [(prime_field(23), name)
                     for name in ("N", "r", "Delta", "Psi")] + \
    [(integers_mod(23, 2), name) for name in ("N", "r")]


@pytest.mark.parametrize("spec, name", natural_cases() + LARGE_ARITY_CASES,
                         ids=str)
def test_natural_level_maps_equal_dense_oracle(spec, name):
    R = ring_make(spec)
    arities = [R.p] if name in ("Delta", "Psi") else [0, 1, 2, 3, 4, 23]
    for n in arities:
        for d in range(5 if n < 23 else 4):
            assert level(name, R, d, n) == \
                NATURAL_MATRICES[name](R, d, n), (n, d)


@pytest.mark.parametrize("name", ["N", "r", "Delta", "Psi"])
def test_natural_level_map_refuses_an_oversized_sym_table(name):
    # Sym^3 on rank 4: comb(6, 3) = 20 monomials of 3 cells each
    R = ring_make(prime_field(3))
    at = natural_level_map(name, R, 4, 3, Budget(DEFAULT, max_cells=60))
    assert at.dense() == NATURAL_MATRICES[name](R, 4, 3)
    with pytest.raises(BudgetExceeded, match="a 60-cell monomial table"):
        natural_level_map(name, R, 4, 3, Budget(DEFAULT, max_cells=59))
    # past the budget the count is not finished: rank 10^6 has 1.7e17
    with pytest.raises(BudgetExceeded, match="more than 59 cells"):
        natural_level_map(name, R, 10 ** 6, 3, Budget(DEFAULT,
                                                      max_cells=59))


@pytest.mark.parametrize("spec, name", natural_cases(), ids=str)
def test_natural_map_equals_dense_oracle(spec, name):
    # the index-map levels, selected through idx, against the dense levels
    # sliced by the Mat path of conormalize_map
    R = ring_make(spec)
    n = R.p if name in ("Delta", "Psi") else 3
    for C in (shifted_module(R, 2, 1), module_complex(R, 2, 0)):
        got = natural_map(name, n, C, 2)
        A = dold_kan(C, 3)
        sym = conormalize(A, functor=PolyFunctor("sym", n))
        div = conormalize(A, functor=PolyFunctor("div", n))
        dk = conormalize(A)
        mats = [NATURAL_MATRICES[name](R, A.rank(m), n) for m in range(4)]
        if name == "N":
            want = conormalize_map(sym, div, mats)
        elif name == "r":
            want = conormalize_map(div, sym, mats)
        elif name == "Delta":
            want = conormalize_map(dk, sym, mats, twist_source=True)
        else:
            twisted = Conormalized(dk.complex.twist(), dk.sel)
            want = conormalize_map(div, twisted, mats)
        for i in range(4):
            assert got.component(i) == want.component(i), i


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("i", [1, 2, 3])
def test_universal_classes_equal_dense_oracle(p, i):
    U, p0, p1 = universal_classes(p, i)
    U_, p0_, p1_ = universal_classes_oracle(p, i)
    assert [list(s) for s in U.sel] == [list(s) for s in U_.sel]
    assert np.array_equal(p0, p0_) and np.array_equal(p1, p1_)


def test_surjection_operators_equal_dense_oracle():
    # every surjection [n] ->> [k] on a Dold-Kan module over Z/9 and on a
    # nerve algebra of C_3
    R = ring_make(integers_mod(3, 2))
    C = CochainComplex(R, 0, [1, 2, 1],
                       [Mat.zeros(R, 2, 1), Mat.zeros(R, 1, 2)])
    F3 = ring_make(prime_field(3))
    for module in (dold_kan(C, 4), NerveAlgebra(cyclic_group(3), F3,
                                                4).module):
        for n in range(module.L + 1):
            for k in range(n + 1):
                for sigma in surjections(n, k):
                    assert module.surjection(sigma).dense() == \
                        dense_operator(module, sigma, n, k)
