"""Exact linear algebra over the coded rings.

Matrices are numpy int64 arrays of ring codes, or the entries of their
nonzero cells (:meth:`Mat.from_entries`).  Two elimination kernels:

- :func:`echelon` -- reduced row echelon form over a field, with rank,
  kernel basis and image basis.  One blocked loop serves every field:
  Gauss-Jordan steps inside a column block, then one ``ring.vmatmul``
  to the right of it.  Exact products are the ring's business; this
  module knows no floating-point bound.  A tall matrix without transform
  is reduced on 2 cols evenly spaced rows plus every row off their kernel.
  Those rows have its kernel, so the result is exact and deterministic.
  Without transform, a matrix wider than one block and at most half
  nonzero is split into the connected components of its nonzero pattern
  (rows and columns joined by each nonzero entry); with more than one,
  it is block diagonal up to a permutation.  The RREF is unique, that of
  a block-diagonal matrix is its blocks' RREFs with the rows sorted by
  pivot, and zero padding leaves a block's RREF as it is.  So the wide
  blocks go through the blocked loop, and the others, padded to
  power-of-two shapes, through one batched Gauss-Jordan sweep per shape:
  the same pivot step over a leading batch axis.  R, pivots and kernel
  are those of the whole matrix, with no tolerance and no fallback.
- :func:`diagonalize` -- Smith-type diagonalisation U*m*V = diag(p^a_i)
  over the local rings Z/p^e and GR(p^e, r), with cokernel invariant
  factors and kernel generators.

Callers that work over both ring families use :func:`solver`,
:func:`kernel_basis`, :func:`quotient`, :func:`free_kernel_basis` and
:func:`is_invertible`; the ring picks the kernel, and no other module
asks which family a ring is in.

Entries are read by the split, tall reductions and products; desk scale.
"""

import numpy as np

from .rings import CHUNK, NotAUnitError


class Mat:
    """Matrix of ring codes: a dense array, or :meth:`from_entries`."""

    __slots__ = ("ring", "shape", "entries", "data")

    def __init__(self, ring, data):
        self.ring = ring
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("matrix data must be 2-dimensional")
        self.data = arr
        self.shape, self.entries = arr.shape, None

    # constructors -----------------------------------------------------------
    @classmethod
    def from_entries(cls, ring, shape, rows, cols, values):
        """values[k] at (rows[k], cols[k]), each cell at most once, else 0;
        nonzeros kept in row order; ``data`` built on first read; read-only."""
        m = _Entries.__new__(_Entries)
        m.ring, m.shape = ring, tuple(shape)
        keep = np.flatnonzero(np.asarray(values) != ring.zero)
        keep = keep[np.argsort(np.asarray(rows)[keep], kind="stable")]
        m.entries = tuple(np.asarray(a, dtype=np.int64)[keep]
                          for a in (rows, cols, values))
        return m.freeze()

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
        return self.shape[0]

    @property
    def cols(self):
        return self.shape[1]

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.ring is other.ring
                and self.data.shape == other.data.shape
                and bool(np.array_equal(self.data, other.data)))

    def __repr__(self):
        return f"Mat({self.ring}, {self.rows}x{self.cols})"

    def freeze(self):
        """Make its arrays read-only (an entry matrix's: its entries)."""
        for a in self.entries or (self.data,):
            a.flags.writeable = False
        return self

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
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        if 0 in (self.rows, self.cols, other.cols):
            return Mat.zeros(self.ring, self.rows, other.cols)
        if self.entries is None:
            return Mat(self.ring, self.ring.vmatmul(self.data, other.data))
        return Mat(self.ring, np.vstack(list(_products(self, other.data))))

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

    def submatrix(self, rows, cols):
        return Mat(self.ring, self.data[np.ix_(rows, cols)])


class _Entries(Mat):
    # Mat itself has no __getattr__: it would slow every attribute read
    __slots__ = ()

    def __getattr__(self, name):
        if name != "data":
            raise AttributeError(name)
        self.data = np.full(self.shape, self.ring.zero, dtype=np.int64)
        self.data[self.entries[:2]] = self.entries[2]
        self.data.flags.writeable = False
        return self.data


def _products(mat, B):
    """mat @ B by ``CHUNK`` rows, in one buffer (fresh ones fault pages in)."""
    buf = np.empty((min(CHUNK, mat.rows), mat.cols), dtype=np.int64)
    for s in range(0, mat.rows, CHUNK):
        yield mat.ring.vmatmul(_rows(mat, slice(s, s + CHUNK), buf), B)


def _rows(mat, at, out=None):
    """Rows ``at`` (a slice, mask or sorted indices) of mat, into ``out`` if
    given; an entry matrix reads its entries (a run per row), not data."""
    if mat.entries is None:
        return mat.data[at]
    i, j, v = mat.entries
    at = np.arange(mat.rows)[at]
    lo = np.searchsorted(i, at)
    n = np.searchsorted(i, at, side="right") - lo
    k = np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)
    out = np.empty((at.size, mat.cols), dtype=np.int64) if out is None \
        else out[:at.size]
    out[...] = mat.ring.zero
    out[np.repeat(np.arange(at.size), n), j[k]] = v[k]
    return out


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
    """RREF data: R = T @ A, pivot columns, rank.  Of R it holds the rank
    rows, ``top`` (an array, or a function that builds them on first use);
    ``R`` pads them with zero rows to A's shape on demand."""

    def __init__(self, ring, top, pivots, shape, T=None):
        self.ring = ring
        self._top = top
        self.T = T
        self.pivots = pivots
        self.rank = len(pivots)
        self.rows, self.cols = shape

    @property
    def top(self):
        if callable(self._top):
            self._top = self._top()
        return self._top

    @property
    def R(self):
        R = np.full((self.rows, self.cols), self.ring.zero, dtype=np.int64)
        R[:self.rank] = self.top
        return R

    def kernel_gens(self):
        """Columns form a basis of {x : A x = 0}."""
        free = np.delete(np.arange(self.cols), self.pivots)
        K = Mat.zeros(self.ring, self.cols, free.size)
        K.data[free, np.arange(free.size)] = self.ring.one
        K.data[self.pivots] = self.ring.vneg(self.top[:, free])
        return K

    # a kernel over a field is free, and its generators are a basis
    free_kernel = kernel_gens

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


# Column block width of `echelon`; trailing updates and row tests take
# rings.CHUNK rows per product.
_BLOCK = 32


def echelon(mat, transform=True):
    """Reduced row echelon form over a field.

    With ``transform`` a matrix T with T @ A = R is tracked (needed for
    solving); kernel/rank queries can skip it.  T rides along as trailing
    identity columns, so it receives every row operation.  Without it, a
    tall A (rows > 4 cols) is reduced on a row subset with A's row space
    (:func:`_tall`), and the independent blocks of a sparse A are reduced
    apart (:func:`_reduce_rows`).
    """
    ring = mat.ring
    if not ring.is_field:
        raise TypeError(f"echelon needs a field, got {ring}")
    rows, cols = mat.shape
    if not transform:
        reduce = _reduce_rows if rows <= 4 * cols else _tall
        return Echelon(ring, *reduce(ring, mat), (rows, cols))
    M = np.hstack([mat.data, Mat.identity(ring, rows).data])
    pivots, order = _reduce(ring, M, cols)
    # pivot j to row j
    return Echelon(ring, M[order[:len(pivots)], :cols], pivots, (rows, cols),
                   M[order, cols:])


def _reduce(ring, M, cols):
    """One left-to-right pass over the column blocks of M[:, :cols], in
    place (:func:`_reduce_block`); returns the pivot columns and the row
    order that puts pivot j in row j."""
    pivots, piv_rows = [], []
    is_piv = np.zeros(len(M), dtype=bool)
    for c0 in range(0, cols, _BLOCK):
        if len(pivots) == len(M):
            break
        for c, q in _reduce_block(ring, M, c0, min(c0 + _BLOCK, cols),
                                  is_piv):
            pivots.append(c)
            piv_rows.append(q)
    return pivots, piv_rows + np.flatnonzero(~is_piv).tolist()


def _tall(ring, mat):
    """:func:`_reduce_rows` on rows of A = mat with A's row space, read by
    :func:`_rows`: 2 cols evenly spaced rows, and if any row of A is off
    their kernel K, those rows too.  Exact: a row that is zero on K is zero
    on the kernel of every row set holding the sample."""
    rows, cols = mat.shape
    sample = np.linspace(0, rows - 1, 2 * cols, dtype=np.int64)
    reduced = _reduce_rows(ring, Mat(ring, _rows(mat, sample)))
    K = Echelon(ring, *reduced, (sample.size, cols)).kernel_gens().data
    off = np.concatenate([np.any(p != ring.zero, axis=1)
                          for p in _products(mat, K)])
    if off.any():
        off[sample] = True
        reduced = _reduce_rows(ring, Mat(ring, _rows(mat, off)))
    return reduced


def _reduce_rows(ring, mat):
    """Untransformed reduction of the Mat mat: the RREF's nonzero rows (an
    array, or a function that builds them) and the pivots.

    When mat is at most half nonzero, wider than a block or an entry
    matrix, and its nonzero pattern is not one connected component
    (:func:`_components`), it is block diagonal up to a permutation, and
    each block is reduced apart (:func:`_reduce_split`, which reads the
    nonzero entries only); else one pass reduces a copy of its data.
    """
    ijv, (rows, cols) = mat.entries, mat.shape
    if ijv is None and cols > _BLOCK:
        nz = mat.data != ring.zero
        if 2 * np.count_nonzero(nz) <= nz.size:
            ijv = (*np.nonzero(nz), mat.data[nz])
    split = ijv is not None and 2 * ijv[2].size <= rows * cols and \
        _components(ijv[0], ijv[1], mat.shape)
    if not split:
        M = mat.data.copy()
        pivots, order = _reduce(ring, M, cols)
        return M[order[:len(pivots)]], pivots
    return _reduce_split(ring, cols, *ijv, *split)


def _components(i, j, shape):
    """Connected components of the graph with a vertex per row and per
    column of a matrix of the given shape and an edge (i[k], j[k]) per
    nonzero cell.  Returns each vertex's component (rows first; -1 for an
    empty row or column) and the number of components, or None when one
    component holds every edge.

    Labels by min-label hooking: each round hooks the larger label of
    every edge whose ends differ onto the smaller, then pointer jumping
    flattens the label forest.  Every label with a differing neighbour
    hooks or is hooked, so a component's labels at least halve per round.
    """
    rows = shape[0]
    lab = np.arange(rows + shape[1])
    while True:
        a, b = lab[i], lab[j + rows]
        hook = a != b
        if not hook.any():
            break
        a, b = a[hook], b[hook]
        np.minimum.at(lab, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = lab[lab]
            if np.array_equal(up, lab):
                break
            lab = up
    root = np.zeros(lab.size, dtype=bool)
    root[lab[i]] = True
    count = int(np.count_nonzero(root))
    if count == 1:
        return None
    return np.where(root, np.cumsum(root) - 1, -1)[lab], count


def _reduce_split(ring, cols, i, j, v, comp, count):
    """:func:`_reduce_rows` of a matrix with ``cols`` columns, nonzero
    entries (i, j, v) and ``count`` components (labels ``comp``, rows
    first) that are its diagonal blocks up to permutation, block by
    block: the RREF is the union of the blocks' RREFs, rows sorted by
    pivot, and zero padding leaves a block's RREF as it is; its rows are
    put together when asked for (a rank needs the pivots alone).  Blocks up
    to ``_BLOCK`` columns wide are padded to power-of-two shape classes, one
    batched Gauss-Jordan sweep (:func:`_sweep`) per class; wider blocks
    take :func:`_reduce`.
    """
    row_comp, col_comp = comp[:comp.size - cols], comp[comp.size - cols:]
    # each block's rows and columns in order, and each one's place there
    rpos, nr = _places(row_comp, count)
    cpos, nc = _places(col_comp, count)
    e = row_comp[i]
    pieces = []                 # (pivot columns, their rows, their columns)
    narrow = nc <= _BLOCK
    pad_r, pad_c = _pow2_ceil(nr), _pow2_ceil(nc)
    for r, c in sorted(set(zip(pad_r[narrow].tolist(),
                               pad_c[narrow].tolist()))):
        blocks = np.flatnonzero(narrow & (pad_r == r) & (pad_c == c))
        # slot in the batch; the last entry keeps comp -1 out of it
        slot = np.full(count + 1, -1)
        slot[blocks] = np.arange(blocks.size)
        shape = (blocks.size, r, c)
        P = np.full(shape, ring.zero, dtype=np.int64)
        ours = slot[e] >= 0
        P[slot[e[ours]], rpos[i[ours]], cpos[j[ours]]] = v[ours]
        # each block's columns in the matrix; padding goes to a spare column
        where = np.full(shape[::2], cols)
        ours = np.flatnonzero(slot[col_comp] >= 0)
        where[slot[col_comp[ours]], cpos[ours]] = ours
        # padding columns are zero: the sweep stops at the widest block
        c, g = _sweep(ring, P, np.ones(shape[0] * shape[1], dtype=bool),
                      int(nc[blocks].max()))
        k = np.array(g) // shape[1]
        pieces.append((where[k, c], P.reshape(-1, shape[2])[g], where[k]))
    for b in np.flatnonzero(~narrow):
        where, ours = np.flatnonzero(col_comp == b), e == b
        sub = np.full((nr[b], where.size), ring.zero, dtype=np.int64)
        sub[rpos[i[ours]], cpos[j[ours]]] = v[ours]
        pivots, order = _reduce(ring, sub, where.size)
        order = order[:len(pivots)]
        pieces.append((where[pivots], sub[order],
                       np.broadcast_to(where, (len(order), where.size))))
    pivots = np.concatenate([np.empty(0, int)] + [p[0] for p in pieces])
    order = np.argsort(pivots)

    def rows():
        out = np.full((pivots.size, cols + 1), ring.zero, dtype=np.int64)
        s = 0
        for piv, data, where in pieces:
            out[np.arange(s, s + piv.size)[:, None], where] = data
            s += piv.size
        return out[order, :cols]
    return rows, pivots[order].tolist()


def _places(comp, count):
    """Place of each labelled item among its component's items, in index
    order, and the number of items per component."""
    items = np.flatnonzero(comp >= 0)
    sizes = np.bincount(comp[items], minlength=count)
    items = items[np.argsort(comp[items], kind="stable")]
    place = np.full(comp.size, -1)
    place[items] = np.arange(items.size) - np.repeat(
        np.cumsum(sizes) - sizes, sizes)
    return place, sizes


def _pow2_ceil(n):
    """The least power of two at or above each entry of n (all >= 1)."""
    return 1 << np.ceil(np.log2(n)).astype(np.int64)


def _reduce_block(ring, M, c0, c1, is_piv):
    """Clear columns c0:c1 of M in place, pivoting only on rows not yet in
    ``is_piv`` (which it updates); returns the (column, row) pivots.

    The rows with an entry in the block are reduced by :func:`_sweep` (a
    batch of one), which also builds their combined effect Z (rows x
    block pivots); the columns right of the block receive it as one
    ``ring.vmatmul``, in row chunks.
    """
    w = c1 - c0
    act = np.flatnonzero(np.any(M[:, c0:c1] != ring.zero, axis=1))
    if not act.size:
        return ()
    # the block on its active rows, then one column of Z per pivot
    P = np.full((1, act.size, 2 * w), ring.zero, dtype=np.int64)
    P[0, :, :w] = M[act, c0:c1]
    piv_cols, found = _sweep(ring, P, ~is_piv[act], w, z=w)
    P = P[0]
    M[act, c0:c1] = P[:, :w]
    Q = act[found]
    is_piv[Q] = True
    k = len(found)
    if k and c1 < M.shape[1]:
        # Z = (block operation) - identity, on the pivot-row columns
        Z = P[:, w:w + k]
        Z[found, range(k)] = ring.vsub(Z[found, range(k)], ring.one)
        tail = M[Q, c1:]
        for s in range(0, act.size, CHUNK):
            part = act[s:s + CHUNK]
            M[part, c1:] = ring.vadd(M[part, c1:],
                                     ring.vmatmul(Z[s:s + CHUNK], tail))
    return zip([c0 + c for c in piv_cols], Q.tolist())


def _sweep(ring, P, free, w, z=None):
    """Gauss-Jordan on columns :w of each matrix in the batch P (a
    contiguous batch x rows x cols array), in place, one
    :func:`_pivot_step` per column, pivoting only on rows still ``free``
    (a flag per row of the stacked batch; updated).  Returns the pivots
    in column order: their columns and their rows in the stacked batch
    (batch index * rows + row), as lists.

    With ``z``, pivot t also puts ``ring.one`` in column z + t of its row
    before it is scaled, so that columns z: collect the combined row
    operation; only the columns used so far take part in each step.
    """
    batch, rows, cols = P.shape
    # the batch stacked; P is contiguous, so this is a view that the steps
    # write through
    P = P.reshape(batch * rows, cols)
    starts = np.arange(0, batch * rows, rows)
    cs, gs = [], []
    for c in range(w):
        used = P if z is None else P[:, :z + len(cs) + 1]
        g = _pivot_step(ring, used, starts, c, free, z is not None).tolist()
        cs += [c] * len(g)
        gs += g
    return cs, gs


def _pivot_step(ring, P, starts, c, free, mark):
    """Column c of each matrix in a batch, stacked as P (the matrices'
    rows begin at ``starts``), in place.  Where a row still ``free`` is
    nonzero there, the first such row of the matrix becomes its pivot: it
    leaves ``free``, gets ``ring.one`` in its last column if ``mark``, is
    scaled to one at c, and clears column c of the matrix's other rows.
    Only columns c: change.  Returns the pivot rows."""
    nz = P[:, c] != ring.zero
    cand = nz & free
    first = cand.reshape(starts.size, -1).argmax(axis=1) + starts
    has = cand[first]
    g = first[has]
    if not g.size:
        return g
    # one pivot (always so in a batch of one) is a slice: no gather
    at = slice(g[0], g[0] + 1) if g.size == 1 else g
    head = P[at, c:]
    if mark:
        head[:, -1] = ring.one
    inv = [ring.inv(x) for x in head[:, 0].tolist()]
    if any(x != ring.one for x in inv):
        head = ring.vmul(np.array(inv, dtype=np.int64)[:, None], head)
    P[at, c:] = head
    free[at] = nz[at] = False
    if g.size < starts.size:
        # only the matrices with a pivot clear their column
        nz.reshape(starts.size, -1)[~has] = False
    rows = np.flatnonzero(nz)
    if not rows.size:
        return g
    if g.size > 1:
        # each row takes the pivot row of its own matrix
        head = head[(np.cumsum(has) - 1)[rows // (len(P) // starts.size)]]
    part = P[rows, c:]
    P[rows, c:] = ring.vsub(part, ring.vmul(part[:, :1], head))
    return g


def rank(mat):
    return echelon(mat, transform=False).rank


def image_basis(mat):
    """Columns of the original matrix at the pivot positions."""
    return Mat(mat.ring, mat.data[:, echelon(mat, transform=False).pivots])


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

    def free_kernel(self):
        """Basis of {x : m x = 0}; ValueError unless it is a free summand."""
        ring = self.ring
        K = self.kernel_gens()
        if K.cols == 0:
            return K
        kd = diagonalize(K)
        if any(0 < a < ring.e for a in kd.exps):
            raise ValueError(f"kernel of a {self.shape[0]}x{self.shape[1]} "
                             f"matrix is not free over {ring}")
        keep = [j for j, a in enumerate(kd.exps) if a == 0]
        return diagonalize(kd.U).inverse().submatrix(range(K.rows), keep)

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
        b = np.asarray(b, dtype=np.int64)[:, None]
        return self.solve_mat(Mat(self.ring, b)) is not None

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

def solver(mat, transform=True):
    """Solver for mat: ``solve_mat``, ``in_image``, ``inverse``,
    ``kernel_gens`` and ``free_kernel``.

    An :class:`Echelon` over a field (without ``transform`` it answers
    only ``kernel_gens`` and ``free_kernel``), a :class:`Diagonalization`
    over Z/p^e and GR(p^e, r).
    """
    if mat.ring.is_field:
        return echelon(mat, transform)
    return diagonalize(mat)


def kernel_basis(mat):
    """Columns generate ker mat: a basis over a field."""
    return solver(mat, transform=False).kernel_gens()


def quotient(Z, B):
    """Generators, :class:`ModuleStructure` and ``coords`` of span(Z) /
    span(B), for span(B) inside span(Z), all from one solver of [B | Z].

    Over a field the generators are the columns of Z at its pivots past
    B.  Over Z/p^e and GR(p^e, r) they are all of Z, and the structure is
    the cokernel of a presentation: the relations B in Z's coordinates,
    and the relations among Z's own columns.  ``coords(X)`` reads the
    generators' rows of the solution of [B | Z] Y = X: the classes of X's
    columns over the generators, None when one is outside span(Z).
    """
    ring = Z.ring
    bz = solver(B.hstack(Z))
    if ring.is_field:
        rows = [j for j in bz.pivots if j >= B.cols]
        gens = Mat(ring, Z.data[:, [j - B.cols for j in rows]])
        structure = ModuleStructure(ring.p, 1, [1] * len(rows))
    else:
        zd = diagonalize(Z)
        rel = zd.solve_mat(B)
        if rel is None:
            raise AssertionError("image not inside kernel; complex invalid")
        gens, rows = Z, slice(B.cols, None)
        structure = diagonalize(rel.hstack(zd.kernel_gens())).cokernel()

    def coords(X):
        sol = bz.solve_mat(X)
        return None if sol is None else Mat(ring, sol.data[rows])

    return gens, structure, coords


def free_kernel_basis(mat):
    """Basis of ker mat; over a local ring it must be a free summand.

    Raises ValueError when the kernel over Z/p^e or GR(p^e, r) is not
    free (e.g. ker 2 on Z/4).
    """
    return solver(mat, transform=False).free_kernel()


def is_invertible(mat):
    """True iff mat is square with full rank over the residue field."""
    ring = mat.ring
    if mat.rows != mat.cols:
        return False
    if not ring.is_field:
        mat = Mat(ring.residue_ring(),
                  mat.map_entries(ring.reduce_mod_p).data)
    return rank(mat) == mat.rows
