import gc
import random
import weakref

import numpy as np
import pytest

from charp import linalg
from charp.complexes import (CochainComplex, ComplexMap, bockstein,
                             cohomology_dims, cone, truncate_ge,
                             truncate_le)
from charp.linalg import Mat, ModuleStructure, kernel_basis
from charp.rings import (galois_field, galois_ring, integers_mod, prime_field,
                         ring_make)

from helpers import (SliceOracle, direct_sum, module_complex, reduce_mod_p,
                     reference_bockstein, shift, tensor, two_term)


def rand_mat(ring, rows, cols, rng):
    return Mat(ring, np.array([ring.random(rng) for _ in range(rows * cols)],
                              dtype=np.int64).reshape(rows, cols))


def rand_complex(ring, rng, maxdeg=3, maxrank=3):
    """Direct sum of point modules and two-term pieces at random degrees."""
    parts = []
    for _ in range(rng.randrange(1, 4)):
        deg = rng.randrange(0, maxdeg)
        if rng.random() < 0.4:
            parts.append(module_complex(ring, rng.randrange(1, maxrank + 1),
                                        deg))
        else:
            parts.append(two_term(
                ring, rand_mat(ring, rng.randrange(1, maxrank + 1),
                               rng.randrange(1, maxrank + 1), rng), deg))
    acc = parts[0]
    for p in parts[1:]:
        acc = direct_sum(acc, p)
    return acc


def test_identity_two_term_acyclic():
    for spec in (prime_field(3), integers_mod(2, 2)):
        R = ring_make(spec)
        C = two_term(R, Mat.identity(R, 2))
        assert C.slice(0).dim() == 0
        assert C.slice(1).dim() == 0


def test_mult_by_p_over_zp2():
    for p in (2, 3):
        R = ring_make(integers_mod(p, 2))
        C = two_term(R, Mat(R, [[p]]))
        h0, h1 = C.slice(0), C.slice(1)
        assert h0.structure == ModuleStructure(p, 2, [1])
        assert h1.structure == ModuleStructure(p, 2, [1])


def test_shift_and_cone_identity():
    R = ring_make(prime_field(5))
    rng = random.Random(0)
    C = rand_complex(R, rng)
    S = shift(C, 2)
    for i in S.degrees():
        assert S.slice(i).dim() == \
            (C.slice(i - 2).dim() if C.lo <= i - 2 <= C.hi else 0)
    cid = cone(ComplexMap(C, C, {i: Mat.identity(R, C.rank(i))
                                 for i in C.degrees()}))
    assert all(d == 0 for d in cohomology_dims(cid))


def test_cone_of_zero_map():
    R = ring_make(prime_field(3))
    C = module_complex(R, 2, 0)
    D = module_complex(R, 3, 0)
    z = ComplexMap(C, D, {0: Mat.zeros(R, 3, 2)})
    cz = cone(z)
    # cone of 0 is C[1] (+) D
    assert cz.slice(-1).dim() == 2
    assert cz.slice(0).dim() == 3


def test_validate_treats_a_missing_component_as_zero(monkeypatch):
    R = ring_make(prime_field(5))
    C = two_term(R, Mat(R, [[1], [2]]))
    D = two_term(R, Mat(R, [[3]]))
    # no zero block stands in for a missing component
    monkeypatch.setattr(Mat, "zeros", None)
    # degree 0 missing: f^1 d_C alone must vanish, and [1 0] d_C does not
    with pytest.raises(ValueError, match="map does not commute with d"):
        ComplexMap(C, D, {1: Mat(R, [[1, 0]])})
    # degree 1 missing: d_D f^0 alone must vanish, and 3 * [1] does not
    with pytest.raises(ValueError, match="map does not commute with d"):
        ComplexMap(C, D, {0: Mat(R, [[1]])})
    # [2 4] kills the image [1 2] of d_C: with f^0 missing, it commutes
    ComplexMap(C, D, {1: Mat(R, [[2, 4]])})
    # no component at all: every degree is skipped
    ComplexMap(C, D, {})


@pytest.mark.parametrize("spec", [prime_field(2), prime_field(3),
                                  galois_field(2, 2)])
def test_kunneth_random(spec):
    R = ring_make(spec)
    rng = random.Random(13)
    for _ in range(10):
        C = rand_complex(R, rng)
        D = rand_complex(R, rng)
        T = tensor(C, D)
        hc = {i: C.slice(i).dim() for i in C.degrees()}
        hd = {j: D.slice(j).dim() for j in D.degrees()}
        for n in T.degrees():
            expect = sum(hc.get(i, 0) * hd.get(n - i, 0)
                         for i in C.degrees())
            assert T.slice(n).dim() == expect


def test_euler_characteristic_matches_cohomology():
    R = ring_make(prime_field(3))
    rng = random.Random(7)
    for _ in range(20):
        C = rand_complex(R, rng)
        chi_ranks = sum((-1) ** i * C.rank(i) for i in C.degrees())
        chi_h = sum((-1) ** i * C.slice(i).dim() for i in C.degrees())
        assert chi_ranks == chi_h


def test_truncations_field():
    R = ring_make(prime_field(2))
    rng = random.Random(3)
    for _ in range(10):
        C = rand_complex(R, rng)
        for n in range(C.lo, C.hi + 1):
            tle, K, restrict = truncate_le(C, n)
            for i in tle.degrees():
                assert tle.slice(i).dim() == C.slice(i).dim()
            assert tle.hi <= n
            if n == C.hi:
                assert (tle, K, restrict) == (C, None, None)
            else:
                # restrict gives coordinates over the kernel basis K
                assert restrict(K) == Mat.identity(R, K.cols)
                if n > C.lo:
                    assert restrict(C.d(n - 1)) == tle.d(n - 1)
            tge, Q, project = truncate_ge(C, n)
            for i in range(n, C.hi + 1):
                got = tge.slice(i).dim() if i <= tge.hi else 0
                assert got == C.slice(i).dim()
            if n > C.lo:
                # project is a left inverse of the section Q
                assert project(Q) == Mat.identity(R, Q.cols)


def test_one_elimination_per_subquotient(monkeypatch):
    # a slice reduces d^(i-1) (its image solver), d^i (its kernel) and
    # [d^(i-1) | Z] (generators and express); truncate_ge reduces
    # d^(n-1) (its image) and [B | I] (complement and projection)
    calls = []
    echelon = linalg.echelon

    def counted(mat, *args, **kwargs):
        calls.append(mat.data.shape)
        return echelon(mat, *args, **kwargs)

    monkeypatch.setattr(linalg, "echelon", counted)
    R = ring_make(prime_field(5))
    rng = random.Random(11)
    for _ in range(8):
        C = rand_complex(R, rng)
        for i in range(C.lo - 1, C.hi + 2):
            calls.clear()
            C.slice(i)
            assert len(calls) == 3, (i, calls)
        for n in range(C.lo + 1, C.hi + 1):
            calls.clear()
            truncate_ge(C, n)
            assert len(calls) == 2, (n, calls)


def test_slice_refuses_an_image_outside_the_kernel():
    # over a local ring the quotient's presentation is the one check that
    # im d^0 lies in ker d^1: here d^1 d^0 = 3 != 0 over Z/9
    R = ring_make(integers_mod(3, 2))
    C = CochainComplex(R, 0, [1, 1, 1], [Mat(R, [[1]]), Mat(R, [[3]])],
                       check=False)
    with pytest.raises(AssertionError, match="image not inside kernel"):
        C.slice(1)


@pytest.mark.parametrize("spec", [prime_field(3), galois_field(2, 2),
                                  galois_field(3, 2), integers_mod(3, 2),
                                  galois_ring(2, 2, 2)])
def test_slice_matches_per_family_oracle(spec):
    R = ring_make(spec)
    rng = random.Random(17)
    for _ in range(12):
        C = rand_complex(R, rng)
        for i in range(C.lo - 1, C.hi + 2):
            h, ref = C.slice(i), SliceOracle(C, i)
            assert h.gens == ref.gens
            assert h.structure == ref.structure
            # random cocycles: generators plus coboundaries
            d_in = C.d(i - 1)
            gc = rand_mat(R, h.gens.cols, 4, rng)
            bc = rand_mat(R, d_in.cols, 4, rng)
            cocycles = (h.gens @ gc + d_in @ bc).data
            assert np.array_equal(h.express(cocycles),
                                  ref.express(cocycles))
            vecs = np.hstack([cocycles, (d_in @ bc).data,
                              rand_mat(R, C.rank(i), 2, rng).data])
            for v in vecs.T:
                assert h.is_coboundary(v) == ref.is_coboundary(v)


@pytest.mark.parametrize("spec", [prime_field(3), integers_mod(3, 2)])
def test_slices_kept_frozen_and_freed_with_their_complex(spec):
    R = ring_make(spec)
    rng = random.Random(3)
    for _ in range(4):
        C = rand_complex(R, rng)
        slices = [C.slice(i) for i in range(C.lo - 1, C.hi + 2)]
        assert all(C.slice(i) is h for i, h in
                   zip(range(C.lo - 1, C.hi + 2), slices))
        # outside the degree range H^i is zero, as README promises
        assert slices[0].dim() == slices[-1].dim() == 0
        for i in range(C.lo, C.hi):
            with pytest.raises(ValueError):
                C.d(i).data[...] = R.one
        # a slice holds no reference to its complex: no cycle, so the
        # complex dies at its last reference, without the cyclic collector
        ref = weakref.ref(C)
        gc.disable()
        try:
            del C
            assert ref() is None
        finally:
            gc.enable()


@pytest.mark.parametrize("refused", [lambda C: truncate_ge(C, 1),
                                     cohomology_dims],
                         ids=["truncate_ge", "cohomology_dims"])
def test_field_only_constructions_refuse_a_local_ring(refused):
    R = ring_make(integers_mod(3, 2))
    C = two_term(R, Mat(R, [[3, 1], [0, 3]]))
    with pytest.raises(TypeError):
        refused(C)


def test_truncate_le_zp2_free_kernel():
    R = ring_make(integers_mod(3, 2))
    # d = [[1,0],[0,3]] has non-free kernel at degree 0? kernel of the
    # matrix [[1,0],[0,3]] is {(0, x) : 3x = 0} = 0 (+) 3Z/9, not free
    C = two_term(R, Mat(R, [[1, 0], [0, 3]]))
    with pytest.raises(ValueError):
        truncate_le(C, 0)
    # identity differential has zero kernel: fine
    C2 = two_term(R, Mat.identity(R, 2))
    t, K, restrict = truncate_le(C2, 0)
    assert t.ranks == [0]
    assert K.cols == 0 and restrict(K) == Mat.zeros(R, 0, 0)


def test_mod_p_bockstein_nonzero_and_squares_to_zero():
    for p in (2, 3):
        R = ring_make(integers_mod(p, 2))
        # periodic complex [R --0--> R --p--> R --0--> R]: mod-p reduction
        # has H^i = Z/p everywhere; the Bockstein alternates 0 / iso
        C = CochainComplex(R, 0, [1, 1, 1, 1],
                           [Mat(R, [[0]]), Mat(R, [[p]]), Mat(R, [[0]])])
        red = reduce_mod_p(C)
        h1 = red.slice(1)
        assert h1.dim() == 1
        z = h1.gens.data[:, 0]
        b1 = bockstein(C.d(1), z)
        h2 = red.slice(2)
        assert not h2.is_coboundary(b1)
        # beta o beta = 0
        b2 = bockstein(C.d(2), b1)
        assert red.slice(3).is_coboundary(b2)


def _lifted_complex(name):
    """A free complex over Z/p^e or GR(4, 2) whose reduction has classes
    that do not lift: nerve complexes of C_p, and the Koszul complex of
    Z^2 acting unipotently on GR(4, 2)^2."""
    from charp.cosalg import NerveAlgebra
    from charp.doldkan import conormalize
    from charp.gcoh import KoszulEngine
    from charp.groups import cyclic_group
    if name == "GR(4,2)":
        GR = ring_make(galois_ring(2, 2, 2))
        gens = [Mat(GR, [[GR.one, a], [GR.zero, GR.one]])
                for a in (GR.one, GR.from_coeffs([0, 1]))]
        return KoszulEngine(GR, gens).complex
    p, e = {"Z/4": (2, 2), "Z/9": (3, 2), "Z/27": (3, 3)}[name]
    R = ring_make(integers_mod(p, e))
    return conormalize(NerveAlgebra(cyclic_group(p), R, 4).module).complex


@pytest.mark.parametrize("name", ["Z/4", "Z/9", "Z/27", "GR(4,2)"])
def test_bockstein_matches_reference(name):
    C = _lifted_complex(name)
    R = C.ring
    res = R.residue_ring()
    rng = random.Random(11)
    outputs = []
    for i in range(C.lo, C.hi):
        d_red = Mat(res, C.d(i).map_entries(R.reduce_mod_p).data)
        K = kernel_basis(d_red)
        for _ in range(4):
            coeffs = np.array([res.random(rng) for _ in range(K.cols)],
                              dtype=np.int64)
            z = res.vmatmul(K.data, coeffs[:, None])[:, 0]
            out = bockstein(C.d(i), z)
            assert np.array_equal(out, reference_bockstein(C.d(i), z)), i
            outputs.append(out)
    assert any(np.any(out != res.zero) for out in outputs)


def test_bockstein_refuses_non_cocycles_and_fields():
    Z4 = ring_make(integers_mod(2, 2))
    d = Mat(Z4, [[1, 2]])
    z = np.array([1, 0], dtype=np.int64)    # d(lift z) = 1: not a cocycle
    with pytest.raises(ValueError):
        bockstein(d, z)
    with pytest.raises(ValueError):
        reference_bockstein(d, z)
    F2 = ring_make(prime_field(2))
    with pytest.raises(ValueError):
        bockstein(Mat(F2, [[1]]), np.array([0], dtype=np.int64))


def test_induced_on_h_functorial():
    # the matrix of H^i(f), read off by express on the images of the
    # generators, is functorial: identity to identity, f f to its square
    R = ring_make(prime_field(3))
    rng = random.Random(9)
    C = rand_complex(R, rng)
    two = R.from_int(2)

    def induced(component, i):
        h = C.slice(i)
        return Mat(R, h.express((component @ h.gens).data))

    for i in C.degrees():
        ident = Mat.identity(R, C.rank(i))
        f = ident.scale(two)
        h = C.slice(i)
        assert induced(ident, i) == Mat.identity(R, h.gens.cols)
        assert induced(f @ f, i) == induced(f, i) @ induced(f, i)


@pytest.mark.parametrize("spec", [prime_field(3), integers_mod(3, 2),
                                  galois_field(2, 2)])
def test_express_matrix_equals_columnwise(spec):
    R = ring_make(spec)
    rng = random.Random(5)
    for _ in range(6):
        C = rand_complex(R, rng)
        for i in C.degrees():
            h = C.slice(i)
            d_in = C.d(i - 1)
            # cocycles: generator combinations plus coboundaries
            Z = h.gens @ rand_cols(R, h.gens.cols, rng) + \
                d_in @ rand_cols(R, d_in.cols, rng)
            X = h.express(Z.data)
            assert X.shape == (h.gens.cols, 4)
            for j in range(4):
                assert np.array_equal(X[:, j], h.express(Z.data[:, j]))
            assert h.express(Z.data[:, :0]).shape == (h.gens.cols, 0)
            assert C.is_cocycle(i, Z.data) and C.is_cocycle(i, Z.data[:, :0])


def rand_cols(ring, rows, rng):
    """A random rows x 4 matrix (rows may be 0)."""
    return Mat(ring, np.array([ring.random(rng) for _ in range(rows * 4)],
                              dtype=np.int64).reshape(rows, 4))


def test_express_matrix_zero_generators_and_non_classes():
    for spec in (prime_field(3), integers_mod(3, 2)):
        R = ring_make(spec)
        C = two_term(R, Mat.identity(R, 2))        # acyclic
        h0 = C.slice(0)
        assert h0.gens.cols == 0
        Z = np.zeros((2, 3), dtype=np.int64)
        assert h0.express(Z).shape == (0, 3)
        assert h0.express(Z[:, 0]).shape == (0,)
        assert h0.express(Z[:, :0]).shape == (0, 0)
        # columns that are not cocycles are refused, as a block too
        B = np.array([[0, 2, 1], [0, 1, 0]], dtype=np.int64)
        assert not C.is_cocycle(0, B) and C.is_cocycle(0, B[:, :1])
        for bad in (B, B[:, 1]):
            with pytest.raises(ValueError):
                h0.express(bad)
        h1 = C.slice(1)                     # all coboundaries
        X = h1.express(B)
        for j in range(3):
            assert np.array_equal(X[:, j], h1.express(B[:, j]))
