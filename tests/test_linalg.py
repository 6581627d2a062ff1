import random
import tracemalloc

import numpy as np
import pytest

from charp import linalg
from charp.complexes import cohomology_dims
from charp.doldkan import de_rham_weight_complex
from charp.linalg import (Mat, ModuleStructure, diagonalize, echelon,
                          free_kernel_basis, image_basis, is_invertible,
                          kernel_basis, rank, solver)
from charp.rings import (NotAUnitError, galois_field, galois_ring,
                         integers_mod, prime_field, ring_make)


def random_mat(ring, rows, cols, rng):
    return Mat(ring, np.array([[ring.random(rng) for _ in range(cols)]
                               for _ in range(rows)], dtype=np.int64))


def solve(s, b):
    """One solution of A x = b from a solver of A (a one-column
    ``solve_mat``), or None."""
    X = s.solve_mat(Mat(s.ring, np.asarray(b, dtype=np.int64)[:, None]))
    return None if X is None else X.data[:, 0]


def test_echelon_identity_and_zero():
    F = ring_make(prime_field(5))
    assert rank(Mat.identity(F, 4)) == 4
    assert kernel_basis(Mat.identity(F, 4)).cols == 0
    Z = Mat.zeros(F, 2, 3)
    assert rank(Z) == 0
    assert kernel_basis(Z).cols == 3


def test_echelon_f4_dependent_rows():
    # over F_4: [[x,1],[x^2,x]] has rank 1 (second row = x * first)
    F4 = ring_make(galois_field(2, 2, (1, 1, 1)))
    x = F4.from_coeffs([0, 1])
    x2 = F4.from_coeffs([1, 1])  # x^2 = x + 1
    m = Mat(F4, [[x, F4.one], [x2, x]])
    assert rank(m) == 1


@pytest.mark.parametrize("spec", [prime_field(2), prime_field(3),
                                  galois_field(2, 2), galois_field(3, 2)])
def test_echelon_random_properties(spec):
    ring = ring_make(spec)
    rng = random.Random(11)
    for _ in range(25):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        m = random_mat(ring, rows, cols, rng)
        ech = echelon(m)
        K = ech.kernel_gens()
        assert ech.rank + K.cols == cols
        if K.cols:
            assert (m @ K).is_zero()
        # image basis columns really span the column space
        im = image_basis(m)
        assert im.cols == ech.rank
        # RREF = T @ m
        assert Mat(ring, ech.R) == Mat(ring, ring.vmatmul(ech.T, m.data))


def test_solve_and_inverse():
    F = ring_make(prime_field(7))
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(1, 5)
        m = random_mat(F, n, n, rng)
        if rank(m) < n:
            continue
        inv = solver(m).inverse()
        assert (m @ inv) == Mat.identity(F, n)
        b = np.array([F.random(rng) for _ in range(n)], dtype=np.int64)
        x = solve(solver(m), b)
        assert np.array_equal(F.vmatmul(m.data, x[:, None])[:, 0], b)


def test_diagonalize_p_over_zp2():
    Z4 = ring_make(integers_mod(2, 2))
    d = diagonalize(Mat(Z4, [[2]]))
    assert d.cokernel() == ModuleStructure(2, 2, [1])
    d = diagonalize(Mat.identity(Z4, 3))
    assert d.cokernel().is_zero()


def test_diagonalize_smith_form_22():
    # [[2,2],[0,2]] over Z/4 has Smith form diag(2,2): cokernel (Z/2)^2
    Z4 = ring_make(integers_mod(2, 2))
    m = Mat(Z4, [[2, 2], [0, 2]])
    d = diagonalize(m)
    assert d.exps == [1, 1]
    assert d.cokernel() == ModuleStructure(2, 2, [1, 1])


@pytest.mark.parametrize("spec", [integers_mod(2, 2), integers_mod(3, 2),
                                  integers_mod(2, 3), galois_ring(2, 2, 2),
                                  galois_ring(3, 2, 2)])
def test_diagonalize_random(spec):
    ring = ring_make(spec)
    rng = random.Random(5)
    for _ in range(25):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        m = random_mat(ring, rows, cols, rng)
        d = diagonalize(m)
        # U m V = D exactly, with U and V invertible
        D = Mat(ring, ring.vmatmul(ring.vmatmul(d.U.data, m.data), d.V.data))
        diag = Mat.zeros(ring, rows, cols)
        for i, a in enumerate(d.exps):
            diag.data[i, i] = ring.from_int(ring.p ** a) if a < ring.e \
                else ring.zero
        assert D == diag
        assert sorted(d.exps) == list(d.exps)
        # invertibility: det-free check via a two-sided solve
        for M in (d.U, d.V):
            n = M.rows
            found = _local_inverse_exists(ring, M)
            assert found
        # kernel generators really die
        K = d.kernel_gens()
        if K.cols:
            assert (m @ K).is_zero()
        # solve consistency on random images
        x = np.array([ring.random(rng) for _ in range(cols)], dtype=np.int64)
        b = ring.vmatmul(m.data, x[:, None])[:, 0]
        y = solve(d, b)
        assert y is not None
        assert np.array_equal(ring.vmatmul(m.data, y[:, None])[:, 0], b)


def _local_inverse_exists(ring, M):
    # A square matrix over a local ring is invertible iff its reduction
    # mod p is invertible.
    res = ring.residue_ring()
    red = Mat(res, np.vectorize(ring.reduce_mod_p)(M.data)) if M.rows else \
        Mat.zeros(res, 0, 0)
    return rank(red) == M.rows


def test_kernel_over_zp2_nonfree():
    Z4 = ring_make(integers_mod(2, 2))
    m = Mat(Z4, [[2]])
    K = diagonalize(m).kernel_gens()
    # kernel of multiplication by 2 on Z/4 is generated by 2
    assert K.cols == 1 and int(K.data[0, 0]) == 2


def _rank_reference(data, m):
    """Rank mod a prime m by Gaussian elimination on Python ints."""
    rows = [[int(v) % m for v in row] for row in data]
    rk = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rk, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = pow(rows[rk][c], -1, m)
        prow = [v * inv % m for v in rows[rk]]
        rows[rk] = prow
        for i in range(rk + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(a - f * b) % m for a, b in zip(rows[i], prow)]
        rk += 1
    return rk


@pytest.mark.parametrize("m", [10007, 1000003, 12000017, 2 ** 31 - 1])
def test_rank_large_prime_matches_reference(m):
    # 200x200 of rank 150 is past the blocked-path threshold; the blocked
    # path once scaled unreduced rows and overflowed int64 for large m
    F = ring_make(prime_field(m))
    rng = np.random.default_rng(m)
    B = rng.integers(0, m, size=(200, 150), dtype=np.int64)
    C = rng.integers(0, m, size=(150, 200), dtype=np.int64)
    A = Mat(F, F.vmatmul(B, C))
    expected = _rank_reference(A.data.tolist(), m)
    assert rank(A) == expected
    ech = echelon(A)
    assert ech.rank == expected
    assert Mat(F, ech.R) == Mat(F, F.vmatmul(ech.T, A.data))


SOLVER_SPECS = [prime_field(2), prime_field(5), galois_field(2, 2),
                galois_field(3, 2), integers_mod(2, 2), integers_mod(3, 3),
                galois_ring(2, 2, 2)]


def _apply(ring, A, x):
    return ring.vmatmul(A.data, np.asarray(x, dtype=np.int64)[:, None])[:, 0]


@pytest.mark.parametrize("spec", SOLVER_SPECS)
def test_solver_properties(spec):
    ring = ring_make(spec)
    rng = random.Random(17)
    for _ in range(30):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        A = random_mat(ring, rows, cols, rng)
        s = solver(A)
        x0 = np.array([ring.random(rng) for _ in range(cols)], dtype=np.int64)
        b = _apply(ring, A, x0)
        x = solve(s, b)
        assert x is not None and np.array_equal(_apply(ring, A, x), b)
        X0 = random_mat(ring, cols, 3, rng)
        B = A @ X0
        assert A @ s.solve_mat(B) == B
        # in_image agrees with solvability on arbitrary right-hand sides
        c = np.array([ring.random(rng) for _ in range(rows)], dtype=np.int64)
        y = solve(s, c)
        assert s.in_image(c) == (y is not None)
        if y is not None:
            assert np.array_equal(_apply(ring, A, y), c)
        # square: inverse exactly when the residue-field check says so
        M = random_mat(ring, rows, rows, rng)
        ok = is_invertible(M)
        assert ok == _local_inverse_exists(ring, M)
        if ok:
            assert solver(M).inverse() @ M == Mat.identity(ring, rows)
        else:
            with pytest.raises(NotAUnitError):
                solver(M).inverse()
        # a free kernel basis dies under A and stays independent mod p
        try:
            K = free_kernel_basis(A)
        except ValueError:
            assert not ring.is_field
            continue
        assert (A @ K).is_zero()
        if ring.is_field:
            assert K.cols == cols - rank(A)
        if K.cols:
            red = np.vectorize(ring.reduce_mod_p)(K.data)
            assert rank(Mat(ring.residue_ring(), red)) == K.cols


def test_free_kernel_basis_rejects_nonfree_kernel():
    Z4 = ring_make(integers_mod(2, 2))
    with pytest.raises(ValueError):
        free_kernel_basis(Mat(Z4, [[2]]))


def test_rank_of_a_sparse_differential_allocates_no_full_size_R():
    # the weight-7 de Rham differential on rank 5 over F_5: 1260 x 1050
    # with 2440 nonzeros and rank 720.  Its full int64 R alone is 10.6 MB;
    # a rank holds no R and reads the blocks at their nonzero entries
    F5 = ring_make(prime_field(5))
    d = de_rham_weight_complex(F5, 5, 7).d(1)
    assert d.shape == (1260, 1050)
    tracemalloc.start()
    try:
        assert rank(d) == 720
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_de_rham_cohomology_builds_no_dense_differential(monkeypatch):
    # weight 7 on rank 5 over F_5: its differentials are entry matrices, and
    # their ranks come from the entries (at 1260 x 1050, 10.6 MB if dense)
    F5 = ring_make(prime_field(5))
    densify = linalg._Entries.__getattr__

    def refuse(self, name):
        if name == "data":
            raise AssertionError(f"{self.shape} differential made dense")
        return densify(self, name)

    monkeypatch.setattr(linalg._Entries, "__getattr__", refuse)
    tracemalloc.start()
    try:
        W = de_rham_weight_complex(F5, 5, 7)
        assert cohomology_dims(W) == [0] * 8
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6
    monkeypatch.undo()
    # the data built on first read, like the entries, is read-only
    d = W.d(1)
    with pytest.raises(ValueError):
        d.entries[2][0] = F5.one
    data = d.data
    assert data is d.data and data.shape == d.shape
    with pytest.raises(ValueError):
        data[0, 0] = F5.one
