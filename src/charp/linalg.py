"""Exact dense linear algebra over the coded rings.

Matrices are thin wrappers around numpy int64 arrays of ring codes.
Two elimination kernels:

- :func:`echelon` -- reduced row echelon form over a field, with rank,
  kernel basis and image basis.
- :func:`diagonalize` -- Smith-type diagonalisation U*m*V = diag(p^a_i)
  over the local rings Z/p^e and GR(p^e, r), with cokernel invariant
  factors and kernel generators.

Callers that work over both ring families use :func:`solver`,
:func:`free_kernel_basis` and :func:`is_invertible`; the ring picks the
kernel.

Everything is deliberately dense; desk-scale sizes only.
"""

import numpy as np

from .rings import NotAUnitError


class Mat:
    """Dense matrix of ring codes."""

    __slots__ = ("ring", "data")

    def __init__(self, ring, data):
        self.ring = ring
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("matrix data must be 2-dimensional")
        self.data = arr

    # constructors -----------------------------------------------------------
    @classmethod
    def zeros(cls, ring, rows, cols):
        return cls(ring, np.full((rows, cols), ring.zero, dtype=np.int64))

    @classmethod
    def identity(cls, ring, n):
        m = np.full((n, n), ring.zero, dtype=np.int64)
        np.fill_diagonal(m, ring.one)
        return cls(ring, m)

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    def copy(self):
        return Mat(self.ring, self.data.copy())

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.ring is other.ring
                and self.data.shape == other.data.shape
                and bool(np.array_equal(self.data, other.data)))

    def __repr__(self):
        return f"Mat({self.ring}, {self.rows}x{self.cols})"

    def is_zero(self):
        return bool(np.all(self.data == self.ring.zero))

    # arithmetic ---------------------------------------------------------------
    def __add__(self, other):
        return Mat(self.ring, self.ring.vadd(self.data, other.data))

    def __sub__(self, other):
        return Mat(self.ring, self.ring.vsub(self.data, other.data))

    def __neg__(self):
        return Mat(self.ring, self.ring.vneg(self.data))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.data.shape} @ "
                             f"{other.data.shape}")
        if self.rows == 0 or other.cols == 0:
            return Mat.zeros(self.ring, self.rows, other.cols)
        if self.cols == 0:
            return Mat.zeros(self.ring, self.rows, other.cols)
        return Mat(self.ring, self.ring.vmatmul(self.data, other.data))

    def scale(self, c):
        return Mat(self.ring, self.ring.vscale(c, self.data))

    def transpose(self):
        return Mat(self.ring, self.data.T.copy())

    def map_entries(self, fn):
        out = np.empty_like(self.data)
        flat_in, flat_out = self.data.ravel(), out.ravel()
        for i, v in enumerate(flat_in):
            flat_out[i] = fn(int(v))
        return Mat(self.ring, out)

    def frobenius_entries(self):
        return Mat(self.ring, self.ring.vfrob(self.data))

    def hstack(self, other):
        return Mat(self.ring, np.hstack([self.data, other.data]))

    def vstack(self, other):
        return Mat(self.ring, np.vstack([self.data, other.data]))

    def col(self, j):
        return self.data[:, j].copy()

    def submatrix(self, rows, cols):
        return Mat(self.ring, self.data[np.ix_(rows, cols)])


def kron(A, B):
    """Kronecker product over the ring (codes multiplied ring-wise)."""
    ring = A.ring
    if A.data.size == 0 or B.data.size == 0:
        return Mat.zeros(ring, A.rows * B.rows, A.cols * B.cols)
    out = ring.vouter(A.data.ravel(), B.data.ravel())
    out = out.reshape(A.rows, A.cols, B.rows, B.cols)
    out = out.transpose(0, 2, 1, 3).reshape(A.rows * B.rows,
                                            A.cols * B.cols)
    return Mat(ring, np.ascontiguousarray(out))


# ---------------------------------------------------------------------------
# field elimination

class Echelon:
    """RREF data: R = T @ A, pivot columns, rank."""

    def __init__(self, ring, R, T, pivots, cols):
        self.ring = ring
        self.R = R
        self.T = T
        self.pivots = pivots
        self.rank = len(pivots)
        self.cols = cols

    def kernel(self):
        """Columns form a basis of {x : A x = 0}."""
        ring = self.ring
        free = [j for j in range(self.cols) if j not in self.pivots]
        K = Mat.zeros(ring, self.cols, len(free))
        for idx, j in enumerate(free):
            K.data[j, idx] = ring.one
            for i, pj in enumerate(self.pivots):
                K.data[pj, idx] = ring.neg(int(self.R[i, j]))
        return K

    def solve(self, b):
        """One solution of A x = b (b: codes, shape (rows,)) or None."""
        return _solve_column(self, b)

    def solve_mat(self, B):
        """Solve A X = B columnwise; None if any column is inconsistent."""
        ring = self.ring
        Y = ring.vmatmul(self.T, B.data)
        if self.rank < Y.shape[0] and np.any(Y[self.rank:] != ring.zero):
            return None
        X = Mat.zeros(ring, self.cols, B.cols)
        X.data[self.pivots] = Y[:self.rank]
        return X

    def in_image(self, b):
        ring = self.ring
        y = ring.vmatmul(self.T, np.asarray(b, dtype=np.int64)[:, None])[:, 0]
        return not np.any(y[self.rank:] != ring.zero)

    def inverse(self):
        """A^-1 of a square invertible A: the transform T."""
        if self.T.shape[0] != self.cols:
            raise ValueError("inverse of a non-square matrix")
        if self.rank != self.cols:
            raise NotAUnitError(self.ring, -1)
        return Mat(self.ring, self.T)


def _solve_column(solver_, b):
    X = solver_.solve_mat(Mat(solver_.ring,
                              np.asarray(b, dtype=np.int64)[:, None]))
    return None if X is None else X.data[:, 0]


# Column block of the blocked prime-field elimination.  Its float64 replay
# sums at most this many products below (m-1)^2, so it is exact only while
# _BLOCK * (m-1)^2 < 2^53; larger primes take the generic path.
_BLOCK = 48


def _rref_blocked_prime(m, A, pivot_limit=None, block=_BLOCK):
    """In-place RREF of an int64 matrix mod a prime m.

    Only columns < pivot_limit are searched for pivots (trailing columns
    just receive the row operations; used for transform tracking).  The
    trailing effect of each column block is replayed with one float64
    matmul (exact while block * (m-1)^2 < 2^53).  Returns pivot columns;
    rows are permuted at the end so pivot j sits in row j.
    """
    rows, cols = A.shape
    limit = cols if pivot_limit is None else pivot_limit
    piv_cols = []
    piv_rows = []
    is_piv_row = np.zeros(rows, dtype=bool)
    c0 = 0
    while c0 < limit and len(piv_cols) < rows:
        c1 = min(c0 + block, limit)
        slab = A[:, c0:c1]
        f_cols = []        # factor column per block pivot (rows,), f[q_t]=0
        b_rows = []        # pivot row per block pivot
        b_invs = []        # pivot scale inverses
        buf = np.empty_like(slab)
        # reductions mod m are deferred; values stay far below 2**63
        for c in range(c0, c1):
            slab[:, c - c0] %= m
            col = slab[:, c - c0]
            cand = np.nonzero((col != 0) & ~is_piv_row)[0]
            if cand.size == 0:
                continue
            q = int(cand[0])
            inv = pow(int(col[q]), -1, m)
            b_invs.append(inv)
            slab[q, :] %= m
            if inv != 1:
                slab[q, :] = slab[q, :] * inv % m
            fac = col.copy()
            fac[q] = 0
            if np.any(fac):
                np.multiply(fac[:, None], slab[q][None, :], out=buf)
                slab -= buf
            f_cols.append(fac)
            b_rows.append(q)
            is_piv_row[q] = True
            piv_cols.append(c)
            piv_rows.append(q)
        slab %= m
        if b_rows and c1 < cols:
            k = len(b_rows)
            F = np.stack(f_cols, axis=1)            # (rows, k)
            W = A[b_rows, c1:]                      # stale pivot-row tails
            S = np.empty_like(W)
            for t in range(k):
                row = W[t].astype(np.int64)
                gk = F[b_rows[t], :t]
                if t and np.any(gk):
                    row = row - (gk.astype(np.float64) @
                                 S[:t].astype(np.float64)).astype(np.int64)
                S[t] = row % m * b_invs[t] % m
            # pivot rows: final = S_t - sum_{t'>t} f_{t'}[q_t] S_{t'}
            U = np.zeros((k, k), dtype=np.float64)
            for t in range(k):
                for t2 in range(t + 1, k):
                    U[t, t2] = F[b_rows[t], t2]
            A[b_rows, c1:] = (S - (U @ S.astype(np.float64))
                              .astype(np.int64)) % m
            others = np.nonzero(~np.isin(np.arange(rows), b_rows))[0]
            if others.size:
                Fo = F[others].astype(np.float64)
                if np.any(Fo):
                    prod = (Fo @ S.astype(np.float64)).astype(np.int64)
                    A[others, c1:] = (A[others, c1:] - prod) % m
        c0 = c1
    perm = piv_rows + [i for i in range(rows) if not is_piv_row[i]]
    A[...] = A[perm]
    return piv_cols


def echelon(mat, transform=True):
    """Reduced row echelon form over a field.

    With ``transform`` a matrix T with T @ A = R is tracked (needed for
    solving); kernel/rank queries can skip it.
    """
    ring = mat.ring
    if not ring.is_field:
        raise TypeError(f"echelon needs a field, got {ring}")
    R = mat.data.copy()
    rows, cols = R.shape
    if getattr(ring, "r", 0) == 1 and rows * cols > 20000 and rows > 1 \
            and _BLOCK * (ring.m - 1) ** 2 < 2 ** 53:
        if transform:
            aug = np.hstack([R, Mat.identity(ring, rows).data])
            pivots = _rref_blocked_prime(ring.m, aug, pivot_limit=cols)
            return Echelon(ring, np.ascontiguousarray(aug[:, :cols]),
                           np.ascontiguousarray(aug[:, cols:]), pivots, cols)
        pivots = _rref_blocked_prime(ring.m, R)
        return Echelon(ring, R, None, pivots, cols)
    T = Mat.identity(ring, rows).data if transform else None
    pivots = []
    r = 0
    # forward sweep on a shrinking window (leading blocks stay zero)
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(R[r:, c] != ring.zero)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
            if transform:
                T[[r, i]] = T[[i, r]]
        piv = ring.inv(int(R[r, c]))
        if piv != ring.one:
            R[r, c:] = ring.vscale(piv, R[r, c:])
            if transform:
                T[r] = ring.vscale(piv, T[r])
        # rows r + nz[1:] lie below the swapped pair, so they are unmoved
        _eliminate(ring, R, T, r, c, r + nz[1:])
        pivots.append(c)
        r += 1
    # back substitution to reach RREF
    for i in range(len(pivots) - 1, 0, -1):
        c = pivots[i]
        _eliminate(ring, R, T, i, c, np.nonzero(R[:i, c] != ring.zero)[0])
    return Echelon(ring, R, T, pivots, cols)


def _eliminate(ring, R, T, i, c, nz):
    """Clear column c in rows nz (nonzero there) with pivot row i."""
    if not nz.size:
        return
    fac = R[nz, c]
    R[nz, c:] = ring.vsub(R[nz, c:], ring.vouter(fac, R[i, c:]))
    if T is not None:
        T[nz] = ring.vsub(T[nz], ring.vouter(fac, T[i]))


def rank(mat):
    return echelon(mat, transform=False).rank


def kernel_basis(mat):
    return echelon(mat, transform=False).kernel()


def image_basis(mat):
    """Columns of the original matrix at the pivot positions."""
    ech = echelon(mat, transform=False)
    return Mat(mat.ring, mat.data[:, ech.pivots]) if ech.pivots else \
        Mat.zeros(mat.ring, mat.rows, 0)


def solve(mat, b):
    return solver(mat).solve(b)


def inverse(mat):
    return solver(mat).inverse()


# ---------------------------------------------------------------------------
# local-ring diagonalisation (Z/p^e, GR(p^e, r))

class ModuleStructure:
    """Finitely generated module over Z/p^e as a multiset of p-power factors.

    ``factors`` lists the exponents a with one summand R/p^a per entry
    (a == e means a free summand R = R/p^e).
    """

    def __init__(self, p, e, exponents):
        self.p = p
        self.e = e
        self.exponents = tuple(sorted(int(a) for a in exponents if a > 0))

    def is_zero(self):
        return not self.exponents

    def annihilated_by(self, k):
        """True if p^k kills the module."""
        return all(a <= k for a in self.exponents)

    def __eq__(self, other):
        return (isinstance(other, ModuleStructure)
                and (self.p, self.e, self.exponents)
                == (other.p, other.e, other.exponents))

    def __repr__(self):
        if not self.exponents:
            return "0"
        return " + ".join(f"Z/{self.p}^{a}" if a > 1 else f"Z/{self.p}"
                          for a in self.exponents)


class Diagonalization:
    """U @ m @ V = D with D = diag(p^a_i) (exponent e encodes the zero)."""

    def __init__(self, ring, U, V, exps, shape):
        self.ring = ring
        self.U = U
        self.V = V
        self.exps = exps      # length min(shape), values in [0, e]
        self.shape = shape

    def diagonal_matrix(self):
        ring = self.ring
        D = Mat.zeros(ring, *self.shape)
        for i, a in enumerate(self.exps):
            D.data[i, i] = ring.from_int(self.ring.p ** a) if a < ring.e \
                else ring.zero
        return D

    def cokernel(self):
        # summand R/p^a for diagonal entry p^a; extra rows are free
        ring = self.ring
        return ModuleStructure(ring.p, ring.e,
                               list(self.exps)
                               + [ring.e] * (self.shape[0] - len(self.exps)))

    def kernel_gens(self):
        """Columns generate {x : m x = 0}."""
        ring = self.ring
        gens = []
        n = self.shape[1]
        for j in range(n):
            a = self.exps[j] if j < len(self.exps) else ring.e
            if a == 0:
                continue
            scale = ring.from_int(ring.p ** (ring.e - a))
            col = ring.vscale(scale, self.V.data[:, j])
            gens.append(col)
        if not gens:
            return Mat.zeros(ring, n, 0)
        return Mat(ring, np.stack(gens, axis=1))

    def solve(self, b):
        """One solution of m x = b, or None."""
        return _solve_column(self, b)

    def solve_mat(self, B):
        """Solve m X = B columnwise; None if any column is inconsistent."""
        ring = self.ring
        Y = (self.U @ B).data
        X = np.full((self.shape[1], B.cols), ring.zero, dtype=np.int64)
        for i in range(self.shape[0]):
            a = self.exps[i] if i < len(self.exps) else ring.e
            if a >= ring.e:
                if np.any(Y[i] != ring.zero):
                    return None
                continue
            if a == 0:
                X[i] = Y[i]
                continue
            for j in range(B.cols):
                yij = int(Y[i, j])
                if ring.valuation(yij) < a:
                    return None
                X[i, j] = _exact_divide(ring, yij, a)
        return self.V @ Mat(ring, X)

    def in_image(self, b):
        return self.solve(b) is not None

    def inverse(self):
        """m^-1 = V U of a square m whose diagonal is all units."""
        if self.shape[0] != self.shape[1]:
            raise ValueError("inverse of a non-square matrix")
        if any(self.exps):
            raise NotAUnitError(self.ring, -1)
        return self.V @ self.U


def _exact_divide(ring, code, a):
    """Divide a code by p^a; the code must have valuation >= a."""
    if a == 0:
        return code
    q = ring.p ** a
    if hasattr(ring, "coeffs"):
        return ring.from_coeffs([c // q for c in ring.coeffs(code)])
    return code // q


def diagonalize(mat):
    """Smith-type diagonalisation over a local ring with maximal ideal (p)."""
    ring = mat.ring
    if ring.is_field:
        raise TypeError("diagonalize expects Z/p^e or GR(p^e,r) with e > 1; "
                        "use echelon over fields")
    A = mat.data.copy()
    rows, cols = A.shape
    U = Mat.identity(ring, rows).data
    V = Mat.identity(ring, cols).data
    e = ring.e
    exps = []
    k = 0
    while k < min(rows, cols):
        # find the minimal-valuation entry in A[k:, k:]
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                v = ring.valuation(int(A[i, j]))
                if v < e and (best is None or v < best[0]):
                    best = (v, i, j)
                    if v == 0:
                        break
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        v, i, j = best
        if i != k:
            A[[k, i]] = A[[i, k]]
            U[[k, i]] = U[[i, k]]
        if j != k:
            A[:, [k, j]] = A[:, [j, k]]
            V[:, [k, j]] = V[:, [j, k]]
        # normalise the pivot to exactly p^v
        unit = _exact_divide(ring, int(A[k, k]), v)
        uinv = ring.inv(unit)
        A[k] = ring.vscale(uinv, A[k])
        U[k] = ring.vscale(uinv, U[k])
        # clear the column below/above: every entry has valuation >= v
        colf = np.array([ring.zero] * rows, dtype=np.int64)
        for i2 in range(rows):
            if i2 == k or A[i2, k] == ring.zero:
                continue
            colf[i2] = _exact_divide(ring, int(A[i2, k]), v)
        if np.any(colf != ring.zero):
            A[...] = ring.vsub(A, ring.vouter(colf, A[k]))
            U[...] = ring.vsub(U, ring.vouter(colf, U[k]))
        # clear the row (column operations act on V from the right)
        rowf = np.array([ring.zero] * cols, dtype=np.int64)
        for j2 in range(cols):
            if j2 == k or A[k, j2] == ring.zero:
                continue
            rowf[j2] = _exact_divide(ring, int(A[k, j2]), v)
        if np.any(rowf != ring.zero):
            A[...] = ring.vsub(A, ring.vouter(A[:, k].copy(), rowf))
            V[...] = ring.vsub(V, ring.vouter(V[:, k].copy(), rowf))
        exps.append(v)
        k += 1
    exps += [e] * (min(rows, cols) - len(exps))
    return Diagonalization(ring, Mat(ring, U), Mat(ring, V), exps,
                           (rows, cols))


# ---------------------------------------------------------------------------
# one interface over fields and local rings

def solver(mat):
    """Solver for mat: ``solve``, ``solve_mat``, ``in_image``, ``inverse``.

    An :class:`Echelon` with transform over a field, a
    :class:`Diagonalization` over Z/p^e and GR(p^e, r).
    """
    if mat.ring.is_field:
        return echelon(mat)
    return diagonalize(mat)


def free_kernel_basis(mat):
    """Basis of ker mat; over a local ring it must be a free summand.

    Raises ValueError when the kernel over Z/p^e or GR(p^e, r) is not
    free (e.g. ker 2 on Z/4).
    """
    ring = mat.ring
    if ring.is_field:
        return kernel_basis(mat)
    K = diagonalize(mat).kernel_gens()
    if K.cols == 0:
        return K
    kd = diagonalize(K)
    if any(0 < a < ring.e for a in kd.exps):
        raise ValueError(f"kernel of a {mat.rows}x{mat.cols} matrix is not "
                         f"free over {ring}")
    keep = [j for j, a in enumerate(kd.exps) if a == 0]
    return diagonalize(kd.U).inverse().submatrix(range(K.rows), keep)


def is_invertible(mat):
    """True iff mat is square with full rank over the residue field."""
    ring = mat.ring
    if mat.rows != mat.cols:
        return False
    if not ring.is_field:
        mat = Mat(ring.residue_ring(),
                  mat.map_entries(ring.reduce_mod_p).data)
    return rank(mat) == mat.rows
