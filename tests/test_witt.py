import random
from itertools import product

import pytest

from charp.rings import (galois_field, integers_mod, prime_field, ring_make)
from charp.witt import integer_witt, witt_ring


@pytest.mark.parametrize("base", [prime_field(2), prime_field(3),
                                  galois_field(2, 2)])
def test_witt_addition_assoc_comm_exhaustive_small(base):
    B = ring_make(base)
    W = witt_ring(base)
    els = [W.pack((a, b)) for a in B.elements() for b in B.elements()]
    if len(els) > 16:
        els = els[:16]
    for x, y in product(els, repeat=2):
        assert W.add(x, y) == W.add(y, x)
    for x, y, z in product(els[:8], repeat=3):
        assert W.add(W.add(x, y), z) == W.add(x, W.add(y, z))


@pytest.mark.parametrize("base", [integers_mod(3, 2), galois_field(3, 2),
                                  prime_field(5)])
def test_witt_addition_random_triples(base):
    B = ring_make(base)
    W = witt_ring(base)
    rng = random.Random(0)
    for _ in range(1000):
        x = W.pack((B.random(rng), B.random(rng)))
        y = W.pack((B.random(rng), B.random(rng)))
        z = W.pack((B.random(rng), B.random(rng)))
        assert W.add(x, y) == W.add(y, x)
        assert W.add(W.add(x, y), z) == W.add(x, W.add(y, z))
        assert W.unpack(W.add(x, W.neg(x))) == (B.zero, B.zero)


def test_witt_ring_distributivity():
    W = witt_ring(integers_mod(2, 2))
    rng = random.Random(4)
    for _ in range(300):
        a, b, c = (W.random(rng) for _ in range(3))
        assert W.mul(a, W.add(b, c)) == W.add(W.mul(a, b), W.mul(a, c))
        assert W.mul(a, b) == W.mul(b, a)
        assert W.mul(W.mul(a, b), c) == W.mul(a, W.mul(b, c))


def test_ghost_of_verschiebung():
    # ghost(V(a)) = (0, p*a0)
    for base in (prime_field(3), integers_mod(2, 2), galois_field(3, 2)):
        B = ring_make(base)
        W = witt_ring(base)
        rng = random.Random(1)
        for _ in range(200):
            a = (B.random(rng), B.random(rng))
            g = W.ghost(W.verschiebung(W.pack(a)))
            assert g == (B.zero, B.mul(B.from_int(B.p), a[0]))


def test_teichmuller_multiplicative():
    for base in (prime_field(2), prime_field(3), galois_field(2, 2)):
        B = ring_make(base)
        W = witt_ring(base)
        for x in B.elements():
            for y in B.elements():
                assert W.mul(W.teichmuller(x), W.teichmuller(y)) == \
                    W.teichmuller(B.mul(x, y))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_witt_identity_p_squared_is_V_p(p):
    # p^2 = V(p) in W_2(Z/p^2) (the n = 2 case of p^n = V(p^(n-1)))
    B = ring_make(integers_mod(p, 2))
    W = witt_ring(integers_mod(p, 2))
    p_one = W.from_int(p)
    lhs = W.mul(p_one, p_one)
    p_base = B.from_int(p)
    rhs = W.verschiebung(W.pack((p_base, B.zero)))
    assert lhs == rhs


def test_ghost_additive_over_integer_lifts():
    # ghost(x + y) = ghost(x) + ghost(y) computed in Z, then reduced
    for p, e in ((2, 2), (3, 2), (5, 2)):
        B = ring_make(integers_mod(p, e))
        WZ = integer_witt(p)
        W = witt_ring(integers_mod(p, e))
        rng = random.Random(9)
        for _ in range(200):
            x = (rng.randrange(1000), rng.randrange(1000))
            y = (rng.randrange(1000), rng.randrange(1000))
            s = WZ.add(x, y)
            gs = WZ.ghost(s)
            gx, gy = WZ.ghost(x), WZ.ghost(y)
            assert gs == (gx[0] + gy[0], gx[1] + gy[1])
            # reduction commutes with the Witt sum
            xr = (B.from_int(x[0]), B.from_int(x[1]))
            yr = (B.from_int(y[0]), B.from_int(y[1]))
            assert W.unpack(W.add(W.pack(xr), W.pack(yr))) == \
                (B.from_int(s[0]), B.from_int(s[1]))


def test_ghost_is_ring_hom_over_torsion_free_base():
    WZ = integer_witt(3)
    rng = random.Random(2)
    for _ in range(200):
        x = (rng.randrange(-50, 50), rng.randrange(-50, 50))
        y = (rng.randrange(-50, 50), rng.randrange(-50, 50))
        gx, gy = WZ.ghost(x), WZ.ghost(y)
        gm = WZ.ghost(WZ.mul(x, y))
        assert gm == (gx[0] * gy[0], gx[1] * gy[1])


def test_w2_of_fq_is_the_galois_ring():
    # W_2(F_4) and GR(4, 2) are isomorphic via (a0, a1) -> t(a0) + 2 t(a1)
    # with t the Teichmuller lift (the fixed point of x -> x^q)
    from charp.rings import galois_field, galois_ring, ring_make
    F4 = ring_make(galois_field(2, 2, (1, 1, 1)))
    GR = ring_make(galois_ring(2, 2, 2, (3, 3, 1)))
    W = witt_ring(F4.spec)

    def teich(a):
        t = GR.lift_residue(a)
        for _ in range(3):
            t = GR.pow(t, 4)
        assert GR.reduce_mod_p(t) == a
        return t

    def iso(pair):
        # (a0, a1) -> t(a0) + 2 t(a1^(1/p)): the Verschiebung coordinate
        # carries an inverse Frobenius (for r = 2 that is frobenius once)
        return GR.add(teich(pair[0]),
                      GR.mul(GR.from_int(2), teich(F4.frobenius(pair[1]))))

    images = {iso(W.unpack(x)) for x in W.elements()}
    assert len(images) == 16          # bijective
    for x in W.elements():
        for y in W.elements():
            assert iso(W.unpack(W.add(x, y))) == \
                GR.add(iso(W.unpack(x)), iso(W.unpack(y)))
            assert iso(W.unpack(W.mul(x, y))) == \
                GR.mul(iso(W.unpack(x)), iso(W.unpack(y)))


@pytest.mark.parametrize("W", [witt_ring(integers_mod(3, 2)),
                               witt_ring(galois_field(2, 2)),
                               integer_witt(3)], ids=["Z/9", "F_4", "Z"])
def test_from_int_is_repeated_addition(W):
    for n in range(-12, 13):
        acc = W.zero
        step = W.one if n >= 0 else W.neg(W.one)
        for _ in range(abs(n)):
            acc = W.add(acc, step)
        assert W.from_int(n) == acc, n


def test_witt_identity_scenario_at_large_p():
    from charp import scenarios
    assert scenarios.run("witt-identity", {"p": 1009})["pass"]
