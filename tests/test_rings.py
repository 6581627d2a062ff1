import random

import numpy as np
import pytest

from charp.rings import (RingConstructionError, NotAUnitError, ring_make,
                         prime_field, galois_field, integers_mod, galois_ring,
                         coerce_down, lift_up, _matmul_mod)


def axioms(ring, trials=200, seed=0):
    rng = random.Random(seed)
    xs = list(ring.elements()) if ring.size <= 32 else \
        [ring.random(rng) for _ in range(trials)]
    for _ in range(trials):
        a, b, c = (rng.choice(xs) for _ in range(3))
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, ring.add(b, c)) == \
            ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.add(a, ring.neg(a)) == ring.zero
        assert ring.mul(a, ring.one) == a


@pytest.mark.parametrize("spec", [
    prime_field(2), prime_field(5), integers_mod(2, 2), integers_mod(3, 2),
    galois_field(2, 2), galois_field(3, 2), galois_ring(2, 2, 2),
    galois_ring(3, 2, 2),
])
def test_ring_axioms(spec):
    axioms(ring_make(spec))


def test_f4_multiplication():
    # F_4 = F_2[x]/(x^2+x+1): x * (x+1) = x^2 + x = 1
    F4 = ring_make(galois_field(2, 2, (1, 1, 1)))
    x = F4.from_coeffs([0, 1])
    x1 = F4.from_coeffs([1, 1])
    assert F4.mul(x, x1) == F4.one
    # every nonzero element invertible, Frobenius bijective of order r
    seen = set()
    for a in F4.elements():
        if a != F4.zero:
            assert F4.mul(a, F4.inv(a)) == F4.one
        fa = F4.frobenius(a)
        seen.add(fa)
        assert F4.frobenius(fa) == a
    assert len(seen) == 4


def test_reducible_modulus_rejected():
    with pytest.raises(RingConstructionError):
        galois_field(2, 2, (0, 0, 1))  # x^2
    with pytest.raises(RingConstructionError):
        galois_field(3, 2, (2, 0, 1))  # x^2 - 1 = (x-1)(x+1)
    with pytest.raises(RingConstructionError):
        galois_ring(2, 2, 2, (0, 1, 1))  # x^2 + x reducible mod 2


def test_inversion_error_names_element():
    R = ring_make(integers_mod(3, 2))
    with pytest.raises(NotAUnitError):
        R.inv(3)
    GR = ring_make(galois_ring(2, 2, 2))
    with pytest.raises(NotAUnitError):
        GR.inv(GR.from_coeffs([2, 2]))


def test_galois_ring_reduce_mod_p_is_ring_map():
    # check the homomorphism property on all 16 elements of GR(4,2)
    GR = ring_make(galois_ring(2, 2, 2, (1, 1, 1)))
    GF = GR.residue_ring()
    assert GF.spec.kind == "galois_field" and GF.size == 4
    els = list(GR.elements())
    hit = set()
    for a in els:
        hit.add(GR.reduce_mod_p(a))
        for b in els:
            assert GR.reduce_mod_p(GR.add(a, b)) == \
                GF.add(GR.reduce_mod_p(a), GR.reduce_mod_p(b))
            assert GR.reduce_mod_p(GR.mul(a, b)) == \
                GF.mul(GR.reduce_mod_p(a), GR.reduce_mod_p(b))
    assert hit == set(GF.elements())  # surjective


def test_frobenius_f9():
    # F_9 = F_3[x]/(x^2+1): x -> x^3 = -x, and frobenius^2 = id, exhaustively
    F9 = ring_make(galois_field(3, 2, (1, 0, 1)))
    x = F9.from_coeffs([0, 1])
    assert F9.frobenius(x) == F9.neg(x)
    for a in F9.elements():
        assert F9.frobenius(a) == F9.pow(a, 3)
        assert F9.frobenius(F9.frobenius(a)) == a


def test_galois_ring_frobenius_is_automorphism():
    GR = ring_make(galois_ring(3, 2, 2, (1, 0, 1)))
    rng = random.Random(1)
    for _ in range(100):
        a, b = GR.random(rng), GR.random(rng)
        assert GR.frobenius(GR.mul(a, b)) == \
            GR.mul(GR.frobenius(a), GR.frobenius(b))
        assert GR.frobenius(GR.add(a, b)) == \
            GR.add(GR.frobenius(a), GR.frobenius(b))
        assert GR.frobenius(GR.frobenius(a)) == a
    # reduces to x -> x^p on the residue field
    for a in list(GR.elements())[:30]:
        assert GR.reduce_mod_p(GR.frobenius(a)) == \
            GR.residue_ring().pow(GR.reduce_mod_p(a), 3)


def test_vector_ops_match_scalar():
    rng = random.Random(7)
    for spec in (prime_field(3), integers_mod(2, 3), galois_field(2, 2),
                 galois_ring(3, 2, 2)):
        R = ring_make(spec)
        a = np.array([R.random(rng) for _ in range(20)], dtype=np.int64)
        b = np.array([R.random(rng) for _ in range(20)], dtype=np.int64)
        va, vm = R.vadd(a, b), R.vmul(a, b)
        for i in range(20):
            assert int(va[i]) == R.add(int(a[i]), int(b[i]))
            assert int(vm[i]) == R.mul(int(a[i]), int(b[i]))
        A = a.reshape(4, 5)
        B = b.reshape(5, 4)
        P = R.vmatmul(A, B)
        for i in range(4):
            for j in range(4):
                acc = R.zero
                for k in range(5):
                    acc = R.add(acc, R.mul(int(A[i, k]), int(B[k, j])))
                assert acc == int(P[i, j])
        O = R.vouter(a[:4], b[:5])
        for i in range(4):
            for j in range(5):
                assert int(O[i, j]) == R.mul(int(a[i]), int(b[j]))


def test_coerce_down_and_lift():
    Z9, Z3 = ring_make(integers_mod(3, 2)), ring_make(prime_field(3))
    assert coerce_down(Z9, Z3, 7) == 1
    assert lift_up(Z3, Z9, 2) == 2
    GR = ring_make(galois_ring(2, 3, 2))
    GR2 = ring_make(galois_ring(2, 2, 2))
    a = GR.from_coeffs([5, 7])
    assert GR2.coeffs(coerce_down(GR, GR2, a)) == [1, 3]


def test_zmod_refuses_moduli_where_int64_wraps():
    # (p-1)^2 >= 2^63: one product of two codes would wrap in vmul
    with pytest.raises(RingConstructionError):
        ring_make(prime_field(4294967311))
    with pytest.raises(RingConstructionError):
        ring_make(integers_mod(65537, 4))
    F = ring_make(prime_field(2 ** 31 - 1))
    top = np.array([F.m - 1], dtype=np.int64)
    assert int(F.vmul(top, top)[0]) == 1


def test_poly_quotient_refuses_rings_where_int64_wraps():
    # size >= 2^63: codes wrap (from_coeffs([0, 2**31]) gave -2^63)
    with pytest.raises(RingConstructionError):
        ring_make(galois_ring(2, 32, 2))
    # size < 2^63 but r (m-1)^2 >= 2^63: a convolution sum wraps
    assert (11 ** 9) ** 2 < 2 ** 63 <= 2 * (11 ** 9 - 1) ** 2
    with pytest.raises(RingConstructionError):
        ring_make(galois_ring(11, 9, 2))
    R = ring_make(galois_ring(3, 19, 2))
    top = R.from_coeffs([0, R.m - 1])
    assert top > 0 and R.coeffs(top) == [0, R.m - 1]


@pytest.mark.parametrize("spec", [galois_ring(3, 19, 2), galois_ring(5, 13, 2),
                                  galois_field(37, 2)])
def test_poly_quotient_vmatmul_matches_scalar_ops_at_large_moduli(spec):
    R = ring_make(spec)
    rng = random.Random(3)
    top = R.from_coeffs([R.m - 1] * R.r)
    for rows, inner, cols in ((1, 8, 1), (3, 40, 2)):
        a = np.array([[top if rng.random() < 0.5 else R.random(rng)
                       for _ in range(inner)] for _ in range(rows)],
                     dtype=np.int64)
        b = np.array([[top if rng.random() < 0.5 else R.random(rng)
                       for _ in range(cols)] for _ in range(inner)],
                     dtype=np.int64)
        got = R.vmatmul(a, b)
        for i in range(rows):
            for j in range(cols):
                want = R.sum(R.mul(int(a[i, k]), int(b[k, j]))
                             for k in range(inner))
                assert int(got[i, j]) == want, (rows, inner, cols, i, j)


# 4 * 2047^2 < 2^24 <= 5 * 2047^2 and 2 * (2^26 - 1)^2 < 2^53 <= 3 * (2^26 - 1)^2:
# each pair sits on both sides of one float bound.  Row 0 times column 0
# sums the largest terms; above a bound that sum is odd, so a float
# product past its bound would round it and miss it mod the even m.
@pytest.mark.parametrize("m, inner", [(2048, 4), (2048, 5),
                                      (2 ** 26, 2), (2 ** 26, 3)])
def test_matmul_mod_on_both_sides_of_the_float_bounds(m, inner):
    rng = np.random.default_rng(inner)
    a = rng.integers(0, m, (3, inner))
    b = rng.integers(0, m, (inner, 4))
    a[0] = b[:, 0] = m - 1
    expect = [[sum(int(x) * int(y) for x, y in zip(row, col)) % m
               for col in b.T] for row in a]
    assert _matmul_mod(a, b, m).tolist() == expect
