"""Code-table arithmetic of F_q and GR(p^e, r) against independent oracles.

The oracle works on base-m digit lists with the pure-Python
``rings._poly_mulmod``; it never touches a ring's tables or vector ops.
"""

import random
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import (assume, example, given, seed, settings,
                        strategies as st)

from charp import linalg
from charp.linalg import Mat, echelon, kernel_basis, rank
from charp.rings import (CHUNK, TABLE_CAP, _poly_mulmod, galois_field,
                         galois_ring, prime_field, ring_make)

TABLED_SPECS = [
    galois_field(2, 2, (1, 1, 1)),          # F_4
    galois_field(3, 2, (1, 0, 1)),          # F_9, x^2 + 1
    galois_field(3, 2, (2, 2, 1)),          # F_9, x^2 + 2x + 2
    galois_field(5, 2),                     # F_25
    galois_ring(2, 2, 2, (1, 1, 1)),        # GR(4, 2)
    galois_ring(2, 2, 2, (3, 3, 1)),        # GR(4, 2), another lift
    galois_ring(2, 3, 2),                   # GR(8, 2)
    galois_ring(3, 2, 2),                   # GR(9, 2)
]
UNTABLED_SPECS = [galois_field(2, 11), galois_field(37, 2)]


class Oracle:
    """Scalar arithmetic of Z/m[x]/(modulus) on digit lists."""

    def __init__(self, ring):
        self.m, self.r, self.modulus = ring.m, ring.r, list(ring.modulus)

    def digits(self, code):
        return [(code // self.m ** i) % self.m for i in range(self.r)]

    def code(self, digits):
        return sum((d % self.m) * self.m ** i for i, d in enumerate(digits))

    def add(self, a, b):
        return self.code([x + y for x, y in
                          zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        return self.code([-x for x in self.digits(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return self.code(_poly_mulmod(self.digits(a), self.digits(b),
                                      self.modulus, self.m))

    def matmul(self, A, B):
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
        for i in range(A.shape[0]):
            for j in range(B.shape[1]):
                acc = 0
                for k in range(A.shape[1]):
                    acc = self.add(acc, self.mul(int(A[i, k]), int(B[k, j])))
                out[i, j] = acc
        return out


def _table(fn, a, b):
    return np.array([fn(int(x), int(y)) for x, y in zip(a, b)],
                    dtype=np.int64)


@pytest.mark.parametrize("spec", TABLED_SPECS, ids=repr)
def test_tables_match_oracle_on_every_pair(spec):
    ring = ring_make(spec)
    assert ring.size <= TABLE_CAP and ring._tab is not None
    orc = Oracle(ring)
    q = ring.size
    a = np.repeat(np.arange(q, dtype=np.int64), q)
    b = np.tile(np.arange(q, dtype=np.int64), q)
    assert np.array_equal(ring.vadd(a, b), _table(orc.add, a, b))
    assert np.array_equal(ring.vsub(a, b), _table(orc.sub, a, b))
    assert np.array_equal(ring.vmul(a, b), _table(orc.mul, a, b))
    codes = np.arange(q, dtype=np.int64)
    assert np.array_equal(ring.vneg(codes),
                          np.array([orc.neg(int(x)) for x in codes]))
    for c in range(q):
        assert np.array_equal(ring.vscale(c, codes),
                              _table(orc.mul, np.full(q, c), codes))
    assert np.array_equal(ring.vouter(codes, codes), ring.vmul(
        a, b).reshape(q, q))
    # decode agrees with the base-m digits
    assert [ring.coeffs(x) for x in range(q)] == \
        [orc.digits(x) for x in range(q)]


@pytest.mark.parametrize("spec", TABLED_SPECS + UNTABLED_SPECS, ids=repr)
def test_vmatmul_matches_oracle(spec):
    ring = ring_make(spec)
    orc = Oracle(ring)
    rng = np.random.default_rng(ring.size)
    # inner 1, empty sides, one row chunk and one row past it, a small
    # square product and a tall thin one over several chunks
    for rows, inner, cols in [(3, 1, 4), (0, 3, 4), (3, 0, 4), (3, 4, 0),
                              (0, 0, 0), (CHUNK, 2, 2), (CHUNK + 1, 2, 3),
                              (16, 16, 17), (1100, 40, 1)]:
        A = rng.integers(0, ring.size, size=(rows, inner), dtype=np.int64)
        B = rng.integers(0, ring.size, size=(inner, cols), dtype=np.int64)
        got = ring.vmatmul(A, B)
        assert got.shape == (rows, cols) and got.dtype == np.int64
        assert np.array_equal(got, orc.matmul(A, B))


@pytest.mark.parametrize("spec", TABLED_SPECS, ids=repr)
def test_decode_matches_digits(spec):
    ring = ring_make(spec)
    assert ring._tab is not None
    rng = np.random.default_rng(ring.size)
    codes = [ring.size - 1, np.int64(ring.size // 2)] + [
        rng.integers(0, ring.size, size=shape, dtype=np.int64)
        for shape in [(7,), (4, 5), (2, 3, 4)]]
    for a in codes:
        got = ring.decode(a)
        assert got.shape == np.shape(a) + (ring.r,)
        assert np.array_equal(got, ring._decode(a))


def test_tall_vmatmul_decodes_in_row_chunks():
    # the 6962 x 118 bar-kernel row test of alpha-sl2-f4: decoding all of
    # A at once would hold 6962 * 118 * 2 int64 digits (13 MB)
    ring = ring_make(galois_field(2, 2))
    rng = np.random.default_rng(6962)
    A = rng.integers(0, ring.size, size=(6962, 118), dtype=np.int64)
    B = rng.integers(0, ring.size, size=(118, 1), dtype=np.int64)
    ring.vmatmul(A[:2], B)          # the code tables are built once
    tracemalloc.start()
    try:
        ring.vmatmul(A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize("spec", UNTABLED_SPECS, ids=repr)
def test_polynomial_ops_above_cap_match_oracle(spec):
    ring = ring_make(spec)
    assert ring.size > TABLE_CAP and ring._tab is None
    orc = Oracle(ring)
    rng = np.random.default_rng(7)
    a = rng.integers(0, ring.size, size=300, dtype=np.int64)
    b = rng.integers(0, ring.size, size=300, dtype=np.int64)
    assert np.array_equal(ring.vadd(a, b), _table(orc.add, a, b))
    assert np.array_equal(ring.vsub(a, b), _table(orc.sub, a, b))
    assert np.array_equal(ring.vmul(a, b), _table(orc.mul, a, b))
    # the scalar product is the same digit-list schoolbook as the oracle,
    # so it is checked against the vector product
    assert [ring.mul(int(x), int(y)) for x, y in zip(a, b)] == \
        ring.vmul(a, b).tolist()
    assert np.array_equal(ring.vneg(a), [orc.neg(int(x)) for x in a])
    c = int(b[0])
    assert np.array_equal(ring.vscale(c, a),
                          _table(orc.mul, np.full(a.size, c), a))
    assert np.array_equal(ring.vouter(a[:5], b[:7]),
                          orc.matmul(a[:5, None], b[None, :7]))


class LogField:
    """Scalar arithmetic of a finite field by exp, log and Zech-log tables,
    built once from the ring's scalar mul and add; after that every
    operation is a pure-Python table lookup."""

    def __init__(self, ring):
        q = ring.size
        for g in range(q):
            exp, x = [ring.one], g
            while x not in (ring.zero, ring.one):
                exp.append(x)
                x = ring.mul(x, g)
            if len(exp) == q - 1 and x == ring.one:
                break
        self.exp, self.n = exp, q - 1
        self.log = {v: i for i, v in enumerate(exp)}
        # zech[i] = log(1 + g^i), None where 1 + g^i = 0
        self.zech = [self.log.get(ring.add(ring.one, e)) for e in exp]
        self.minus_one = ring.neg(ring.one)

    def mul(self, a, b):
        if not a or not b:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.n]

    def add(self, a, b):
        if not a or not b:
            return a or b
        la = self.log[a]
        z = self.zech[(self.log[b] - la) % self.n]
        return 0 if z is None else self.exp[(la + z) % self.n]

    def inv(self, a):
        return self.exp[-self.log[a] % self.n]


def _scalar_rref(F, rows):
    """RREF and pivot columns by scalar Gauss-Jordan elimination with the
    arithmetic of a :class:`LogField`."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        k = len(pivots)
        piv = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        inv = F.inv(rows[k][c])
        rows[k] = [F.mul(inv, x) for x in rows[k]]
        for i in range(len(rows)):
            f = F.mul(F.minus_one, rows[i][c])
            if i != k and f:
                rows[i] = [F.add(x, F.mul(f, y))
                           for x, y in zip(rows[i], rows[k])]
        pivots.append(c)
    return rows, pivots


def _low_rank(ring, rng, rows, cols, k):
    """A random rows x cols matrix of rank at most k whose pivot columns
    are spread over all of its columns."""
    if not k:
        return Mat.zeros(ring, rows, cols)
    B = Mat(ring, [[ring.random(rng) for _ in range(k)] for _ in range(rows)])
    C = Mat(ring, [[ring.random(rng) for _ in range(cols)] for _ in range(k)])
    for i, lead in enumerate(sorted(rng.sample(range(cols), k))):
        C.data[i, :lead] = ring.zero
    return B @ C


@pytest.mark.parametrize("spec", [prime_field(5), galois_field(2, 2),
                                  galois_field(3, 2), galois_field(2, 11)],
                         ids=repr)
def test_echelon_matches_scalar_elimination(spec):
    ring = ring_make(spec)
    rng = random.Random(23)
    cases = []
    for _ in range(40):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        # rank at most k, with some columns and rows forced to zero
        A = _low_rank(ring, rng, rows, cols,
                      rng.randrange(0, min(rows, cols) + 1))
        if rng.random() < 0.3:
            A.data[:, rng.randrange(cols)] = ring.zero
            A.data[rng.randrange(rows)] = ring.zero
        cases.append(A)
    # several column blocks, rank deficient, zero rows and columns (one on
    # a block edge)
    for rows, cols, k in [(100, 96, 16), (60, 100, 8)]:
        A = _low_rank(ring, rng, rows, cols, k)
        A.data[:, [0, 32, cols - 1]] = ring.zero
        A.data[[1, rows // 2]] = ring.zero
        cases.append(A)
    # full row rank, reached in the first block of four
    cases.append(_low_rank(ring, rng, 8, 100, 8))
    # tall and sparse: about 3 % of the entries are nonzero
    cases.append(Mat(ring, [[ring.random(rng) if rng.random() < 0.03
                             else ring.zero for _ in range(40)]
                            for _ in range(300)]))
    F = LogField(ring)
    for A in cases:
        R_ref, piv_ref = _scalar_rref(F, A.data.tolist())
        for transform in (True, False):
            ech = echelon(A, transform=transform)
            assert ech.rank == len(piv_ref)
            assert ech.pivots == piv_ref
            assert ech.R.tolist() == R_ref
            if transform:
                assert np.array_equal(ring.vmatmul(ech.T, A.data), ech.R)


TALL_SPECS = [prime_field(5), galois_field(2, 2), galois_field(3, 2),
              galois_field(2, 11)]


@lru_cache(maxsize=None)
def _field(spec):
    ring = ring_make(spec)
    return ring, LogField(ring)


def _check_against_scalar_rref(ring, F, A, ech):
    """Rank, pivots, R and kernel() of an untransformed echelon equal those
    of scalar elimination, and the kernel annihilates A."""
    R_ref, piv_ref = _scalar_rref(F, A.data.tolist())
    assert ech.rank == len(piv_ref) and ech.pivots == piv_ref
    assert ech.R.tolist() == R_ref
    free = [c for c in range(A.cols) if c not in piv_ref]
    K_ref = np.full((A.cols, len(free)), ring.zero, dtype=np.int64)
    for j, f in enumerate(free):
        K_ref[f, j] = ring.one
        for i, c in enumerate(piv_ref):
            K_ref[c, j] = F.mul(F.minus_one, R_ref[i][f])
    K = ech.kernel_gens()
    assert np.array_equal(K.data, K_ref)
    assert (A @ K).is_zero()


@seed(2037)
@settings(max_examples=80, deadline=None, database=None)
@given(spec=st.sampled_from(TALL_SPECS), cols=st.integers(1, 10),
       extra=st.integers(1, 40), k=st.integers(0, 10),
       density=st.sampled_from([1.0, 0.3, 0.05]), salt=st.integers(0, 9999))
def test_tall_echelon_matches_scalar_elimination(spec, cols, extra, k,
                                                 density, salt):
    # rows > 4 cols without transform: reduced on a row subset; sparse rows
    # make the sample miss part of the row space, so both rounds occur
    ring, F = _field(spec)
    rng = random.Random(salt)
    rows = 4 * cols + extra
    A = _low_rank(ring, rng, rows, cols, min(k, cols))
    A.data[np.array([rng.random() > density for _ in range(rows)])] = \
        ring.zero
    _check_against_scalar_rref(ring, F, A, echelon(A, transform=False))


@pytest.mark.parametrize("spec", TALL_SPECS, ids=repr)
def test_tall_echelon_second_round(spec, monkeypatch):
    ring, F = _field(spec)
    rows, cols = 60, 7
    reduced = []
    real = linalg._reduce

    def counting(ring_, M, cols_):
        reduced.append(len(M))
        return real(ring_, M, cols_)

    monkeypatch.setattr(linalg, "_reduce", counting)
    rng = random.Random(41)
    # every sampled row is zero: the sample's kernel is everything, so each
    # nonzero row is off it and the second round reduces them
    A = _low_rank(ring, rng, rows, cols, 5)
    sample = np.linspace(0, rows - 1, 2 * cols, dtype=np.int64)
    A.data[sample] = ring.zero
    nonzero = int(np.count_nonzero(np.any(A.data != ring.zero, axis=1)))
    _check_against_scalar_rref(ring, F, A, echelon(A, transform=False))
    assert reduced == [2 * cols, 2 * cols + nonzero] and nonzero
    # a dense full-rank A: the sample has its kernel, one round
    reduced.clear()
    A = _low_rank(ring, rng, rows, cols, cols)
    _check_against_scalar_rref(ring, F, A, echelon(A, transform=False))
    assert reduced == [2 * cols]
    # with transform, T stays rows x rows: no row subset
    reduced.clear()
    assert echelon(A).T.shape == (rows, rows) and reduced == [rows]


def _block_diagonal(ring, rng, shapes, zero_rows, zero_cols, block):
    """A block-diagonal matrix of blocks ``block(r, c)`` of the given
    shapes plus zero rows and columns, its rows and columns shuffled."""
    rows = sum(r for r, _ in shapes) + zero_rows
    cols = sum(c for _, c in shapes) + zero_cols
    A = np.full((rows, cols), ring.zero, dtype=np.int64)
    r0 = c0 = 0
    for r, c in shapes:
        A[r0:r0 + r, c0:c0 + c] = block(r, c)
        r0, c0 = r0 + r, c0 + c
    rperm, cperm = list(range(rows)), list(range(cols))
    rng.shuffle(rperm)
    rng.shuffle(cperm)
    return Mat(ring, A[rperm][:, cperm])


@seed(2041)
@settings(max_examples=50, deadline=None, database=None)
@given(spec=st.sampled_from(TALL_SPECS),
       wide=st.tuples(st.integers(1, 12), st.integers(linalg._BLOCK + 1, 36)),
       small=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                      min_size=1, max_size=10),
       ones=st.integers(0, 3), zero_rows=st.integers(0, 3),
       zero_cols=st.integers(0, 3), density=st.sampled_from([1.0, 0.5]),
       salt=st.integers(0, 9999))
def test_block_diagonal_echelon_matches_scalar_elimination(
        spec, wide, small, ones, zero_rows, zero_cols, density, salt):
    # the nonzero pattern splits into components: the wide block is reduced
    # by _reduce, the small and 1 x 1 blocks by the batched sweep
    ring, F = _field(spec)
    rng = random.Random(salt)
    shapes = [wide] + small + [(1, 1)] * ones

    def block(r, c):
        B = _low_rank(ring, rng, r, c, rng.randint(1, min(r, c))).data
        B[np.array([[rng.random() > density for _ in range(c)]
                    for _ in range(r)])] = ring.zero
        return B

    A = _block_diagonal(ring, rng, shapes, zero_rows, zero_cols, block)
    _check_against_scalar_rref(ring, F, A, echelon(A, transform=False))


def test_only_wide_blocks_reach_the_blocked_loop(monkeypatch):
    ring = ring_make(prime_field(5))
    rng = random.Random(43)
    reduced = []
    real = linalg._reduce

    def counting(ring_, M, cols_):
        reduced.append(M.shape)
        return real(ring_, M, cols_)

    monkeypatch.setattr(linalg, "_reduce", counting)
    # a sparse block-diagonal matrix: only its block of 40 columns is wider
    # than _BLOCK
    A = _block_diagonal(
        ring, rng, [(30, 40), (6, 20), (4, 4), (1, 1)], 2, 3,
        lambda r, c: [[rng.randrange(1, 5) for _ in range(c)]
                      for _ in range(r)])
    ech = echelon(A, transform=False)
    assert reduced == [(30, 40)]
    # the same matrix with the split off: one pass over all of it
    reduced.clear()
    monkeypatch.setattr(linalg, "_components", lambda i, j, shape: None)
    plain = echelon(A, transform=False)
    assert reduced == [A.data.shape]
    assert plain.pivots == ech.pivots and np.array_equal(plain.R, ech.R)
    monkeypatch.undo()
    monkeypatch.setattr(linalg, "_reduce", counting)
    # more than half the cells nonzero: no search, the unchanged path
    reduced.clear()
    D = _low_rank(ring, rng, 50, 40, 30)
    assert 2 * np.count_nonzero(D.data) > D.data.size
    echelon(D, transform=False)
    assert reduced == [(50, 40)]
    # sparse but one component: one row meets every block
    reduced.clear()
    A.data[0] = ring.one
    assert 2 * np.count_nonzero(A.data) <= A.data.size
    echelon(A, transform=False)
    assert reduced == [A.data.shape]


def test_cartier_differentials_reduce_alike_with_and_without_split(
        monkeypatch):
    from charp.doldkan import de_rham_weight_complex
    p = 5
    ring = ring_make(prime_field(p))
    weights = [(n, None) for n in range(p + 2, 0, -1) if n % p] + \
        [(p, None), (p, p - 1)]
    diffs = [W.d(i) for W in (de_rham_weight_complex(ring, p, n, upto=upto)
                              for n, upto in weights)
             for i in range(W.lo - 1, W.hi + 1) if W.d(i).rows * W.d(i).cols]
    assert len(diffs) == 29
    # the entry path (split from the kept entries) against the densified
    # one-pass path
    assert all(d.entries is not None for d in diffs)
    split = [echelon(d, transform=False) for d in diffs]
    monkeypatch.setattr(linalg, "_components", lambda i, j, shape: None)
    for d, ech in zip(diffs, split):
        plain = echelon(d, transform=False)
        assert plain.pivots == ech.pivots and np.array_equal(plain.R, ech.R)


ENTRY_SPECS = [prime_field(2), prime_field(5), prime_field(2 ** 31 - 1),
               galois_field(2, 2), galois_field(3, 2)]


def _unit(ring, rng):
    while True:
        x = ring.random(rng)
        if x != ring.zero:
            return x


def _is_dense(m):
    """Whether m's ``data`` is set, read without building it."""
    try:
        Mat.data.__get__(m)
    except AttributeError:
        return False
    return True


def _entry_twin(ring, rng, A, zeros):
    """A as an entry matrix: its nonzero cells and ``zeros`` of its zero
    cells, explicitly, in a shuffled order."""
    i, j = np.nonzero(A.data != ring.zero)
    zi, zj = np.nonzero(A.data == ring.zero)
    pick = rng.sample(range(zi.size), min(zeros, zi.size))
    i, j = np.concatenate([i, zi[pick]]), np.concatenate([j, zj[pick]])
    order = rng.sample(range(i.size), i.size)
    i, j = i[order], j[order]
    return Mat.from_entries(ring, A.data.shape, i, j, A.data[i, j])


@seed(2053)
@settings(max_examples=100, deadline=None, database=None)
@given(spec=st.sampled_from(ENTRY_SPECS),
       mode=st.sampled_from(["blocks", "zero", "path", "dense"]),
       wide=st.tuples(st.integers(1, 12), st.integers(linalg._BLOCK + 1, 40)),
       small=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                      min_size=1, max_size=8),
       zeros=st.integers(0, 30), salt=st.integers(0, 9999))
def test_entry_matrix_reduces_as_its_dense_twin(spec, mode, wide, small,
                                                zeros, salt):
    ring = ring_make(spec)
    rng = random.Random(salt)
    r, c = wide
    if mode == "blocks":
        # planted diagonal blocks, each with an entry: a low-rank one wider
        # than _BLOCK (zero rows keep A at most half nonzero), sparse others
        def block(r, c):
            if c > linalg._BLOCK:
                B = _low_rank(ring, rng, r, c, rng.randint(1, r)).data
            else:
                B = np.array([[ring.random(rng) if rng.random() < 0.4
                               else ring.zero for _ in range(c)]
                              for _ in range(r)], dtype=np.int64)
            B[0, 0] = _unit(ring, rng)
            return B
        A = _block_diagonal(ring, rng, [wide] + small, rng.randint(r, r + 3),
                            rng.randint(0, 3), block)
    elif mode == "zero":
        A = Mat.zeros(ring, r, c)
    elif mode == "path":
        # row k meets columns k and k + 1: sparse, one component
        A = Mat.zeros(ring, c, c + 1)
        for k in range(c):
            A.data[k, [k, k + 1]] = _unit(ring, rng), _unit(ring, rng)
    else:
        # more than half of the cells nonzero
        A = _low_rank(ring, rng, r, c, rng.randint(1, r))
        A.data[A.data == ring.zero] = ring.one
        A.data[rng.randrange(r), rng.randrange(c)] = ring.zero
    nnz = np.count_nonzero(A.data != ring.zero)
    assume(mode != "blocks" or 2 * nnz <= A.data.size)
    E = _entry_twin(ring, rng, A, zeros)
    assert E.entries[0].size == nnz
    dense, ech = echelon(A, transform=False), echelon(E, transform=False)
    assert ech.pivots == dense.pivots and ech.rank == dense.rank
    assert np.array_equal(ech.R, dense.R)
    assert np.array_equal(ech.kernel_gens().data, dense.kernel_gens().data)
    assert rank(E) == rank(A)
    # and both as one blocked pass over all of A, with no split
    M = A.data.copy()
    pivots, order = linalg._reduce(ring, M, M.shape[1])
    assert ech.pivots == pivots
    assert np.array_equal(ech.R[:ech.rank], M[order[:len(pivots)]])
    # planted blocks and no entries at all split; the one component and the
    # more than half dense pattern take the dense path
    assert _is_dense(E) == (mode in ("path", "dense"))
    assert np.array_equal(E.data, A.data)


@seed(2063)
@settings(max_examples=60, deadline=None, database=None)
@given(spec=st.sampled_from([prime_field(2), prime_field(5), galois_field(2, 2),
                             prime_field(2 ** 31 - 1)]),
       mode=st.sampled_from(["sparse", "planted", "empty"]),
       cols=st.integers(0, 10), extra=st.integers(1, 2 * CHUNK + 100),
       k=st.integers(0, 10), m=st.integers(0, 3), zeros=st.integers(0, 30),
       salt=st.integers(0, 9999))
# no entries; no columns; a planted row past the first chunk
@example(spec=prime_field(5), mode="empty", cols=3, extra=CHUNK, k=2, m=2,
         zeros=5, salt=1)
@example(spec=galois_field(2, 2), mode="sparse", cols=0, extra=CHUNK + 1,
         k=0, m=1, zeros=0, salt=2)
@example(spec=prime_field(2 ** 31 - 1), mode="planted", cols=6,
         extra=2 * CHUNK, k=3, m=2, zeros=10, salt=3)
def test_tall_entry_matrix_reads_as_its_dense_twin(spec, mode, cols, extra,
                                                   k, m, zeros, salt):
    # rows > 4 cols: a product reads CHUNK rows at a time, and an
    # untransformed echelon its sampled and off-kernel rows, from the
    # entries; neither builds the dense data
    ring = ring_make(spec)
    rng = random.Random(salt)
    rows, k = 4 * cols + extra, min(k, cols)
    A = _low_rank(ring, rng, rows, cols, 0 if mode == "empty" else k)
    if mode == "sparse":
        A.data[np.array([rng.random() < 0.7 for _ in range(rows)])] = \
            ring.zero
    elif mode == "planted":
        # a unit row off the kernel of _tall's sample: its second round runs
        assume(k < cols)
        sample = np.linspace(0, rows - 1, 2 * cols, dtype=np.int64)
        K = kernel_basis(Mat(ring, A.data[sample])).data
        at = rng.choice(np.setdiff1d(np.arange(rows), sample).tolist())
        A.data[at] = ring.zero
        A.data[at, np.flatnonzero(np.any(K != ring.zero, axis=1))[0]] = \
            ring.one
        assert np.any(ring.vmatmul(A.data[at:at + 1], K) != ring.zero)
    E = _entry_twin(ring, rng, A, zeros)
    assert E.entries[0].size == np.count_nonzero(A.data != ring.zero)
    B = Mat(ring, np.array([ring.random(rng) for _ in range(cols * m)],
                           dtype=np.int64).reshape(cols, m))
    assert np.array_equal((E @ B).data, (A @ B).data)
    ech, dense = echelon(E, transform=False), echelon(A, transform=False)
    assert ech.pivots == dense.pivots and np.array_equal(ech.R, dense.R)
    assert np.array_equal(ech.kernel_gens().data, dense.kernel_gens().data)
    # exact on every row, the planted one too: a plain dense product
    assert (A @ ech.kernel_gens()).is_zero()
    assert not _is_dense(E)


def _union_find_labels(nz):
    """Component root of every row and column vertex of the pattern nz, by
    scalar union-find."""
    rows = nz.shape[0]
    parent = list(range(rows + nz.shape[1]))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in zip(*np.nonzero(nz)):
        a, b = find(int(i)), find(rows + int(j))
        parent[max(a, b)] = min(a, b)
    return [find(x) for x in range(len(parent))]


def _staircase(n):
    """A path of 2n - 1 edges: row k meets columns k and k + 1."""
    nz = np.zeros((n, n + 1), dtype=bool)
    nz[np.arange(n), np.arange(n)] = nz[np.arange(n), np.arange(1, n + 1)] = 1
    return nz


@pytest.mark.parametrize("case", range(8))
def test_components_match_union_find(case):
    rng = np.random.default_rng(case)
    if case < 2:
        # two long paths side by side, shuffled: many hooking rounds
        a, b = _staircase(40 + case), _staircase(25)
        nz = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]),
                      dtype=bool)
        nz[:a.shape[0], :a.shape[1]] = a
        nz[a.shape[0]:, a.shape[1]:] = b
        nz = nz[rng.permutation(nz.shape[0])][:, rng.permutation(nz.shape[1])]
    else:
        shape = tuple(rng.integers(2, 70, 2))
        nz = rng.random(shape) < [0.01, 0.03, 0.06][case % 3]
    roots = _union_find_labels(nz)
    edge = np.zeros(len(roots), dtype=bool)
    i, j = np.nonzero(nz)
    edge[i] = edge[nz.shape[0] + j] = True
    count = len({roots[x] for x in np.flatnonzero(edge)})
    found = linalg._components(i, j, nz.shape)
    if count == 1:
        assert found is None
        return
    comp, n = found
    assert n == count and np.array_equal(comp < 0, ~edge)
    # labels and union-find roots match one to one
    pairs = {(roots[x], int(comp[x])) for x in np.flatnonzero(edge)}
    assert len(pairs) == len({c for _, c in pairs}) == count
