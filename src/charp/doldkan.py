"""Dold-Kan correspondence and derived polynomial functors.

A graded module C (a cochain complex with zero differential, as are
F_p[-i] and V[-1], the only inputs the paper needs) in degrees [0, D] of
finite free modules determines a cosimplicial module DK(C) with level
n = (+)_{[n] ->> [k]} C^k, summing over monotone surjections.  Applying
Sym^n / Gamma^n / Lambda^n levelwise and conormalizing computes the
derived power functors; the natural maps (norm, restriction, Frobenius
factorisation Delta/psi) are levelwise integer matrices in fixed monomial
bases.  Every basis is one format, the read-only int64 array of
:func:`monomials`: one row of variable indices per monomial, in lex
order, looked up by :func:`_sym_rank` (weakly increasing rows) or
:func:`_lex_rank` (strictly increasing rows):

- Sym: weakly increasing rows;
- Ext: strictly increasing rows;
- Div: the basis dual to the orbit sums e_I, indexed like Sym (so the
  divided power of a matrix is Sym of its transpose, transposed).

Every coface and codegeneracy here is a pullback along a map of basis
sets, held as an :class:`IndexMap` (the codegeneracies along injective
ones); a functor power of an index map is again one (:func:`index_power`).
The conormalization N^n = intersection of ker s^j is then spanned by the
basis vectors that no codegeneracy reads (the nondegenerate ones; for a
functor power, read off the codegeneracies of its base), needs no
elimination, and its differential is the coface sum on those columns
and rows, built as entries (:func:`coface_sum`).
"""

from functools import lru_cache
from itertools import pairwise
from math import comb, factorial, prod

import numpy as np

from .config import DEFAULT, BudgetExceeded
from .complexes import CochainComplex, ComplexMap
from .linalg import Mat

# ---------------------------------------------------------------------------
# simplicial operator combinatorics (monotone maps [m] -> [n] as value tuples)

@lru_cache(maxsize=None)
def surjections(n, k):
    """Monotone surjections [n] ->> [k] as value tuples (lex order).

    The value at x counts the steps at or below x, a k-subset of
    range(1, n + 1); lex order of the subsets reverses that of the tuples.
    """
    if k < 0:
        return ()
    steps = monomials("ext", n, k)[::-1] + 1
    vals = (steps[:, :, None] <= np.arange(n + 1)).sum(axis=1)
    return tuple(map(tuple, vals.tolist()))


def coface_tuple(n, i):
    """delta^i : [n-1] -> [n] skipping i."""
    return tuple(x if x < i else x + 1 for x in range(n))


def codegeneracy_tuple(n, j):
    """sigma^j : [n+1] -> [n] repeating j."""
    return tuple(x if x <= j else x - 1 for x in range(n + 2))


def compose_ops(f, g):
    """f o g as value tuples (g first)."""
    return tuple(f[x] for x in g)


def distinct(a):
    """np.unique(a) by one sort: a bare np.unique imports numpy.ma."""
    a = np.sort(a, axis=None)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


class IndexMap:
    """A matrix with at most one nonzero per row.

    Row r holds ``coef[r]`` in column ``idx[r]``; ``idx[r] = -1`` marks a
    zero row, and so does a zero coefficient.
    """

    __slots__ = ("ring", "idx", "coef", "cols")

    def __init__(self, ring, idx, coef, cols):
        live = (idx >= 0) & (coef != ring.zero)
        self.ring = ring
        self.idx = np.where(live, idx, -1)
        self.coef = np.where(live, coef, ring.zero)
        self.cols = cols

    @classmethod
    def identity(cls, ring, r):
        return cls(ring, np.arange(r), np.full(r, ring.one, dtype=np.int64),
                   r)

    @property
    def rows(self):
        return len(self.idx)

    def dense(self):
        out = Mat.zeros(self.ring, self.rows, self.cols)
        live = np.flatnonzero(self.idx >= 0)
        out.data[live, self.idx[live]] = self.coef[live]
        return out

    def __eq__(self, other):
        # the representation is canonical: zero rows have idx -1, coef 0
        return (isinstance(other, IndexMap) and self.ring is other.ring
                and self.cols == other.cols
                and np.array_equal(self.idx, other.idx)
                and np.array_equal(self.coef, other.coef))

    def __matmul__(self, other):
        """The product with another index map (composed ``idx`` arrays,
        multiplied ``coef``), or with a Mat: row r of the result is
        ``coef[r]`` times row ``idx[r]`` of it."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        ring = self.ring
        if not self.cols:           # every row is zero and reads nothing
            return (IndexMap(ring, self.idx, self.coef, other.cols)
                    if isinstance(other, IndexMap)
                    else Mat.zeros(ring, self.rows, other.cols))
        # a zero row (idx -1, coef 0) reads the last row and stays zero
        if isinstance(other, Mat):
            return Mat(ring, ring.vmul(other.data[self.idx],
                                       self.coef[:, None]))
        return IndexMap(ring, other.idx[self.idx],
                        ring.vmul(self.coef, other.coef[self.idx]),
                        other.cols)


class CosimplicialModule:
    """Levels 0..L of free modules with coface and codegeneracy maps.

    Every structure map is an :class:`IndexMap` (any other raises
    TypeError); ``d(n, i)`` and ``s(n, j)`` are the dense forms.  Every
    codegeneracy is a pullback along an injective map of basis sets, with
    unit coefficients; a non-unit coefficient or a repeated basis vector
    raises ValueError."""

    def __init__(self, ring, ranks, cofaces, codegens, check=True):
        self.ring = ring
        self.ranks = list(ranks)
        self.L = len(ranks) - 1
        self.cofaces = dict(cofaces)      # (n, i): level n-1 -> n, 0<=i<=n
        self.codegens = dict(codegens)    # (n, j): level n+1 -> n, 0<=j<=n
        for kind, maps in (("coface", self.cofaces),
                           ("codegeneracy", self.codegens)):
            if not all(isinstance(m, IndexMap) for m in maps.values()):
                raise TypeError(f"every {kind} must be an IndexMap")
        for m in self.codegens.values():
            live = m.idx >= 0
            if not all(ring.is_unit(int(c)) for c in distinct(m.coef[live])):
                raise ValueError("codegeneracy has a non-unit entry")
            if distinct(m.idx[live]).size != np.count_nonzero(live):
                raise ValueError("codegeneracy is not injective on basis sets")
        if check:
            self.validate()

    def rank(self, n):
        return self.ranks[n] if 0 <= n <= self.L else 0

    def d(self, n, i):
        return self.cofaces[(n, i)].dense()

    def s(self, n, j):
        return self.codegens[(n, j)].dense()

    def coboundary(self, n, cols):
        """Entries of the coface sum sum_i (-1)^i d^i: level n -> n+1, on
        the level-n columns ``cols`` (an index array, or slice(None))."""
        return coface_sum([self.cofaces[(n + 1, i)] for i in range(n + 2)],
                          cols)

    def validate(self):
        """The cosimplicial identities, on the stored index maps (nothing
        is made dense)."""
        d, s = self.cofaces, self.codegens
        for n in range(2, self.L + 1):
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    if d[n, j] @ d[n - 1, i] != d[n, i] @ d[n - 1, j - 1]:
                        raise ValueError(
                            f"coface identity fails at level {n}: "
                            f"d^{j} d^{i}")
        for n in range(0, self.L - 1):
            for j in range(n + 1):
                for i in range(j + 1):
                    if s[n, i] @ s[n + 1, j + 1] != s[n, j] @ s[n + 1, i]:
                        raise ValueError(f"codegeneracy identity at {n}")
        for n in range(0, self.L):
            one = IndexMap.identity(self.ring, self.rank(n))
            for j in range(n + 1):
                for i in range(n + 2):
                    lhs = s[n, j] @ d[n + 1, i]
                    if i in (j, j + 1):
                        ok = lhs == one
                    elif i < j:
                        ok = lhs == d[n, i] @ s[n - 1, j - 1]
                    else:
                        ok = lhs == d[n, i - 1] @ s[n - 1, j]
                    if not ok:
                        raise ValueError(
                            f"mixed identity fails: s^{j} d^{i} level {n}")

    def surjection(self, sigma):
        """The structure map of a monotone surjection sigma: [n] ->> [k],
        level n -> level k, as an index map: the composite of the
        codegeneracies that contract its double points, first one first."""
        out = IndexMap.identity(self.ring, self.rank(len(sigma) - 1))
        work = list(sigma)
        while len(work) - 1 > max(work):
            a = next(x for x in range(len(work) - 1)
                     if work[x] == work[x + 1])
            out = self.codegens[(len(work) - 2, a)] @ out
            work.pop(a + 1)
        return out


def coface_sum(maps, cols, rows=None, message=None):
    """sum_i (-1)^i of the cofaces ``maps`` (index maps of one shape) on
    the columns ``cols`` (an index array, or ``slice(None)``), as entries:
    one signed add per map on the distinct keys row * |cols| + column of
    the hits; a sum that cancels is not stored.  With ``rows`` (sorted),
    those rows only: ValueError(message) unless the others sum to zero."""
    ring, height, width = maps[0].ring, maps[0].rows, maps[0].cols
    cols = np.arange(width)[cols]
    pos = np.full(width + 1, -1, dtype=np.int64)    # idx -1 reads pos[-1]
    pos[cols] = np.arange(cols.size)
    hits = []
    for m in maps:
        read = pos[m.idx]
        r = (read >= 0).nonzero()[0]
        hits.append((r * cols.size + read[r], m.coef[r]))
    keys = distinct(np.concatenate([key for key, _ in hits]))
    out = np.full(len(keys), ring.zero, dtype=np.int64)
    for i, (key, coef) in enumerate(hits):
        at = np.searchsorted(keys, key)
        out[at] = (ring.vadd if i % 2 == 0 else ring.vsub)(out[at], coef)
    r, c = np.divmod(keys, cols.size)
    if rows is not None:
        to = np.full(height, -1, dtype=np.int64)
        to[rows] = np.arange(len(rows))
        r, height = to[r], len(rows)
        if np.any((r < 0) & (out != ring.zero)):
            raise ValueError(message)
    return Mat.from_entries(ring, (height, cols.size), r, c, out)


# ---------------------------------------------------------------------------
# DK construction

class DKBasis:
    """Level basis of DK(C): blocks (k, sigma) of width rank C^k."""

    def __init__(self, C, n):
        self.blocks = []          # (k, sigma, offset)
        off = 0
        for k in range(0, min(n, C.hi) + 1):
            rk = C.rank(k)
            if rk == 0:
                continue
            for sigma in surjections(n, k):
                self.blocks.append((k, sigma, off))
                off += rk
        self.rank = off
        self.index = {(k, s): o for (k, s, o) in self.blocks}


def _dk_map(C, alpha, src_basis, tgt_basis):
    """DK(alpha) of a graded module C for a monotone alpha, as an
    :class:`IndexMap`: block (l, tau) of the target reads block
    (l, tau o alpha) of the source through the identity when that block
    exists (tau o alpha is onto [l]), and nothing otherwise."""
    ring = C.ring
    idx = np.full(tgt_basis.rank, -1, dtype=np.int64)
    for (l, tau, toff) in tgt_basis.blocks:
        soff = src_basis.index.get((l, compose_ops(tau, alpha)))
        if soff is not None:
            idx[toff:toff + C.rank(l)] = np.arange(soff, soff + C.rank(l))
    return IndexMap(ring, idx, np.full(len(idx), ring.one, dtype=np.int64),
                    src_basis.rank)


def dold_kan(C, L):
    """Cosimplicial module with level n = (+)_{[n]->>[k]} C^k, levels <= L,
    of a graded module C (a complex with zero differential); every coface
    and codegeneracy is an :class:`IndexMap`."""
    if C.lo < 0:
        raise ValueError("dold_kan needs a complex in non-negative degrees")
    if any(not d.is_zero() for d in C.diffs):
        raise ValueError("dold_kan needs a complex with zero differential")
    bases = [DKBasis(C, n) for n in range(L + 1)]
    cofaces = {(n, i): _dk_map(C, coface_tuple(n, i), bases[n - 1], bases[n])
               for n in range(1, L + 1) for i in range(n + 1)}
    codegens = {(n, j): _dk_map(C, codegeneracy_tuple(n, j), bases[n + 1],
                                bases[n])
                for n in range(L) for j in range(n + 1)}
    return CosimplicialModule(C.ring, [b.rank for b in bases], cofaces,
                              codegens)


# ---------------------------------------------------------------------------
# conormalization

class Conormalized:
    """The conormalized complex; ``sel[n]`` lists the level-n basis
    vectors spanning N^n, in increasing order."""

    def __init__(self, complex_, sel):
        self.complex = complex_
        self.sel = sel


def nondegenerate(A, n, functor=None):
    """Level-n columns of A, or of F(A), that no codegeneracy s^j_(n-1)
    reads: a basis of N^n = intersection of ker s^j, j < n.  s^j is a unit
    partial injection (:class:`CosimplicialModule`), so F(s^j) reads a
    monomial exactly when s^j reads each of its factors."""
    functor = functor or PolyFunctor("sym", 1)
    mono = monomials(functor.kind, A.rank(n), functor.arity)
    hit = np.zeros(len(mono), dtype=bool)
    for j in range(n):
        read = np.zeros(A.rank(n) + 1, dtype=bool)    # idx -1 sets the last
        read[A.codegens[(n - 1, j)].idx] = True
        hit |= read[mono].all(axis=1)
    return np.flatnonzero(~hit)


def conormalize(A, top=None, functor=None):
    """N^n = intersection of ker s^j for n <= top (default: every level),
    differential = alternating coface sum; H^n is correct for n < top.
    With ``functor``, of the functor power F(A), never built: N^n is read
    off A's codegeneracies and only the cofaces into levels <= top are
    raised to F."""
    top = A.L if top is None else min(top, A.L)
    sel = [nondegenerate(A, n, functor) for n in range(top + 1)]
    diffs, message = [], "conormalized differential does not restrict"
    for n in range(top):
        maps = [A.cofaces[(n + 1, i)] for i in range(n + 2)]
        if functor is not None:
            maps = [index_power(functor, m) for m in maps]
        diffs.append(coface_sum(maps, sel[n], sel[n + 1], message))
    cx = CochainComplex(A.ring, 0, [len(c) for c in sel], diffs)
    return Conormalized(cx, sel)


def conormalize_map(src_conorm, tgt_conorm, level_maps, twist_source=False):
    """ComplexMap induced on conormalizations by levelwise maps.

    ``level_maps[n]``: level n of the source to level n of the target, a
    Mat or an :class:`IndexMap` (selected through ``idx``, never made
    dense).  With ``twist_source`` the source complex is Frobenius-twisted
    first (for semilinear maps out of a twist; the selected basis vectors
    are their own twists).
    """
    message = "levelwise map does not preserve normalized parts"
    comps = {}
    source = src_conorm.complex.twist() if twist_source else \
        src_conorm.complex
    for n in source.degrees():
        if n >= len(level_maps) or level_maps[n] is None:
            continue
        m, cols, rows = level_maps[n], src_conorm.sel[n], tgt_conorm.sel[n]
        if isinstance(m, IndexMap):
            comps[n] = _select(m, rows, cols, message)
        else:
            live = np.any(m.data[:, cols] != source.ring.zero, axis=1)
            live[rows] = False
            if live.any():
                raise ValueError(message)
            comps[n] = Mat(source.ring, m.data[np.ix_(rows, cols)])
    return ComplexMap(source, tgt_conorm.complex, comps)


def _select(m, rows, cols, message):
    """The index map m on ``rows`` and ``cols``, as a Mat; raises
    ValueError unless the other rows vanish on ``cols``."""
    pos = np.full(m.cols + 1, -1, dtype=np.int64)   # idx -1 reads pos[-1]
    pos[cols] = np.arange(len(cols))
    read = pos[m.idx]
    hit = np.flatnonzero(read[rows] >= 0)
    if len(hit) < np.count_nonzero(read >= 0):
        raise ValueError(message)
    out = Mat.zeros(m.ring, len(rows), len(cols))
    out.data[hit, read[rows][hit]] = m.coef[rows][hit]
    return out


# ---------------------------------------------------------------------------
# polynomial functors on free modules

class PolyFunctor:
    def __init__(self, kind, arity):
        if kind not in ("sym", "div", "ext"):
            raise ValueError(f"unknown functor kind {kind}")
        if arity < 0:
            raise ValueError("arity must be >= 0")
        self.kind = kind
        self.arity = arity

    def __repr__(self):
        return f"{self.kind}^{self.arity}"

    def dim(self, d):
        if self.kind == "ext":
            return comb(d, self.arity)
        return comb(d + self.arity - 1, self.arity) if self.arity else 1


def multiset_levels(k, n, strict=False):
    """Levels s = 1..n of the multisets of range(k) (with ``strict``, the
    subsets), in lex order, each as (parent, nxt): the row of level s - 1
    each row extends and the element it appends, at or above the parent's
    last one (above it when strict).  Level 0 is the empty row."""
    low = np.zeros(1, dtype=np.int64)      # the least element a row may add
    for _ in range(n):
        counts = k - low
        parent = np.repeat(np.arange(len(low)), counts)
        nxt = np.arange(len(parent)) - np.repeat(
            np.cumsum(counts) - counts - low, counts)
        low = nxt + strict
        yield parent, nxt


@lru_cache(maxsize=None)
def monomials(kind, d, n):
    """The monomial basis of ``kind``^n on rank d: a read-only (count, n)
    int64 array of weakly (Sym, Div) or strictly (Ext) increasing rows of
    variables, in lex order."""
    if kind == "div":
        return monomials("sym", d, n)
    mono = np.zeros((1, 0), dtype=np.int64)
    for parent, nxt in multiset_levels(d, n, strict=kind == "ext"):
        mono = np.column_stack((mono[parent], nxt))
    mono.flags.writeable = False
    return mono


def sym_power_matrix(ring, f, n):
    """Sym^n of a matrix in the weakly-increasing monomial bases.

    Columns are built degree by degree: the column of a monomial
    (j_1 <= ... <= j_t) is the polynomial product of the columns of f,
    sharing the common prefix (j_1 <= ... <= j_(t-1)).  Row m of a prefix
    column times column j of f sums prefix[m - v] * f[v, j] over the
    variables v of m, touching only the columns where f[v, j] is nonzero.
    The index plan depends on the shapes and n only, and is shared
    (:func:`_sym_plan`).
    """
    if n == 0:
        return Mat(ring, np.full((1, 1), ring.one, dtype=np.int64))
    prev = f.data.copy()
    for plan, count, pre, var in _sym_plan(f.rows, f.cols, n):
        new = np.full((count, len(var)), ring.zero, dtype=np.int64)
        for v, r, drop in plan:
            fv = f.data[v, var]
            nz = np.flatnonzero(fv != ring.zero)
            if not nz.size:
                continue
            contrib = ring.vmul(prev[np.ix_(drop, pre[nz])],
                                np.broadcast_to(fv[nz], (len(r), nz.size)))
            block = np.ix_(r, nz)
            new[block] = ring.vadd(new[block], contrib)
        prev = new
    return Mat(ring, prev)


@lru_cache(maxsize=8)
def _sym_plan(d_tgt, d_src, n):
    """The index plan of :func:`sym_power_matrix` for a d_tgt x d_src
    matrix: per degree t = 2..n the row plan, the row count, and each
    column's prefix position and last variable."""
    steps = []
    for t in range(2, n + 1):
        mono = monomials("sym", d_src, t)
        steps.append((_full_row_plan(d_tgt, t), comb(d_tgt + t - 1, t),
                      _sym_rank(mono[:, :-1], d_src), mono[:, -1]))
    return tuple(steps)


def _sym_rank(mono, d):
    """Positions of the weakly increasing rows of ``mono`` in
    monomials("sym", d, t), through the strictly increasing shift j_a + a."""
    t = mono.shape[1]
    return _lex_rank(mono + np.arange(t), d + t - 1)


def _row_plan(mono, d):
    """How the degree-t rows ``mono`` (a (k, t) array on rank d) arise from
    degree t - 1: per variable v, the rows containing v and the positions
    of those rows with one v dropped among the degree-(t-1) monomials."""
    t = mono.shape[1]
    rows, var, drop = [], [], []
    for a in range(t):
        # the first v of each row: dropping a later copy gives the same row
        r = np.flatnonzero(mono[:, a] != mono[:, a - 1]) if a else \
            np.arange(len(mono))
        rows.append(r)
        var.append(mono[r, a])
        drop.append(_sym_rank(np.delete(mono[r], a, axis=1), d))
    rows, var, drop = (np.concatenate(x) for x in (rows, var, drop))
    order = np.argsort(var, kind="stable")
    vs, starts = np.unique(var[order], return_index=True)
    return tuple((int(v), rows[part], drop[part])
                 for v, part in zip(vs, np.split(order, starts[1:])))


# The row plans of one rank, degrees 2..arity, serve every
# :func:`_sym_plan` and every de Rham weight complex on that rank; eight
# entries hold them up to arity 9 (max_level 8 allows 7).
@lru_cache(maxsize=8)
def _full_row_plan(d, t):
    return _row_plan(monomials("sym", d, t), d)


def _det(ring, rows, cols, data):
    """Determinant of the submatrix data[rows][:, cols] (small sizes)."""
    k = len(rows)
    if k == 0:
        return ring.one
    if k == 1:
        return int(data[rows[0], cols[0]])
    acc = ring.zero
    for t, r in enumerate(rows):
        a = int(data[r, cols[0]])
        if a == ring.zero:
            continue
        sub = _det(ring, rows[:t] + rows[t + 1:], cols[1:], data)
        term = ring.mul(a, sub)
        acc = ring.add(acc, term) if t % 2 == 0 else ring.sub(acc, term)
    return acc


def ext_power_matrix(ring, f, n):
    """Lambda^n of a matrix in the strictly increasing bases.

    Entry (I, J) is the minor f[I, J]; it is computed only for the I
    inside the rows where f[:, J] is nonzero, the others vanish.
    """
    src = monomials("ext", f.cols, n)
    out = Mat.zeros(ring, comb(f.rows, n), len(src))
    for c, J in enumerate(src.tolist()):
        support = np.flatnonzero(np.any(f.data[:, J] != ring.zero, axis=1))
        subsets = support[monomials("ext", len(support), n)]
        for I, r in zip(subsets.tolist(), _lex_rank(subsets, f.rows)):
            out.data[r, c] = _det(ring, I, J, f.data)
    return out


def _lex_rank(rows, N):
    """Lex ranks of strictly increasing rows among the n-subsets of range(N).

    Each term counts the subsets sharing a prefix with the row, so it is
    at most comb(N, n); table entries no valid row reaches (x - y > N - n)
    are left 0 so that the table stays within int64.
    """
    n = rows.shape[1]
    binom = _binom_table(N, n)
    rank = np.zeros(len(rows), dtype=np.int64)
    prev = np.full(len(rows), -1, dtype=np.int64)
    for i in range(n):
        rank += binom[N - prev - 1, n - i] - binom[N - rows[:, i], n - i]
        prev = rows[:, i]
    return rank


@lru_cache(maxsize=None)
def _binom_table(N, n):
    if comb(max(N, 0), n) >= 2 ** 63:
        raise ValueError(f"ranks among the {n}-subsets of range({N}) "
                         "leave int64")
    return np.array([[comb(x, y) if x - y <= N - n else 0
                      for y in range(n + 1)] for x in range(N + 1)],
                    dtype=np.int64)


def index_power(functor, s):
    """The functor of an index map, again an index map.

    Row monomial I reads J, the sorted image s(I), with the product of the
    coefficients over I; I is a zero row when s kills one of its factors.
    Lambda takes the sign that sorts s(I), and vanishes when s(I) repeats
    a column.  Sym takes N(J) / N(I), N the product of the multiplicity
    factorials (:func:`norm_factors`), once per pair of patterns: the
    number of ways the factors of J land on I, 1 when s reads each column
    at most once.  Div takes no factor (one arrangement of J meets I).
    """
    ring, kind, n = s.ring, functor.kind, functor.arity
    rows = monomials(kind, s.rows, n)
    img = s.idx[rows]
    srt = np.sort(img, axis=1)
    live = np.all(img >= 0, axis=1)
    if kind == "ext":
        live &= np.all(srt[:, 1:] != srt[:, :-1], axis=1)
    live = np.flatnonzero(live)
    img, srt = img[live], srt[live]
    coef = np.full(len(live), ring.one, dtype=np.int64)
    for t in range(n):
        coef = ring.vmul(coef, s.coef[rows[live, t]])
    if kind == "ext":
        inversions = sum(img[:, a] > img[:, b]
                         for a in range(n) for b in range(a + 1, n))
        coef = np.where(inversions % 2 == 1, ring.vneg(coef), coef)
        cols = _lex_rank(srt, s.cols)
    else:
        cols = _sym_rank(srt, s.cols)
    read = s.idx[s.idx >= 0]
    if kind == "sym" and n > 1 and distinct(read).size < read.size:
        f_i, of_i = norm_factors(s.rows, n)
        f_j, of_j = norm_factors(s.cols, n)
        pairs, of = np.unique(of_i[live] * len(f_j) + of_j[cols],
                              return_inverse=True)
        ratio = [ring.from_int(f_j[k % len(f_j)] // f_i[k // len(f_j)])
                 for k in pairs.tolist()]
        coef = ring.vmul(coef, np.array(ratio, dtype=np.int64)[of.ravel()])
    idx = np.full(len(rows), -1, dtype=np.int64)
    idx[live] = cols
    full = np.full(len(rows), ring.zero, dtype=np.int64)
    full[live] = coef
    return IndexMap(ring, idx, full, functor.dim(s.cols))


# ---------------------------------------------------------------------------
# derived powers and the natural maps

def _check_power_budget(functor, C, L, budget):
    """Refuse with BudgetExceeded, before anything is built, when
    ``conormalize(dold_kan(C, L), functor=functor)`` needs more than
    ``budget.max_level`` levels or would build a coface sum of more than
    ``budget.max_cells`` cells.

    That sum is level n + 1 by N^n, counted dense though it is built as
    entries.  Level m of dold_kan(C, L) has rank sum_k comb(m, k) rank C^k
    (one block per surjection [m] ->> [k]); the functor power there has
    rank r_m = functor.dim of it and, by Dold-Kan, is (+)_k comb(m, k) N^k,
    so |N^n| = sum_k (-1)^(n-k) comb(n, k) r_k.
    """
    if L > budget.max_level:
        raise BudgetExceeded(
            f"derived power needs {L} cosimplicial levels; budget allows "
            f"{budget.max_level}")
    dims = [functor.dim(sum(comb(m, k) * C.rank(k) for k in range(m + 1)))
            for m in range(L + 1)]
    cells = max(dims[n + 1] * sum((-1) ** (n - k) * comb(n, k) * dims[k]
                                  for k in range(n + 1))
                for n in range(L))
    if cells > budget.max_cells:
        raise BudgetExceeded(
            f"{functor} of {L} Dold-Kan levels needs a {cells}-cell coface; "
            f"budget {budget.max_cells}")


def derived_power(functor, C, bound, budget=None):
    """The conormalized functor power of dold_kan(C), valid in degrees
    <= bound."""
    _check_power_budget(functor, C, bound + 1, budget or DEFAULT)
    return conormalize(dold_kan(C, bound + 1), functor=functor).complex


# the n + 1 coface powers of a level share the factors of both its ranks
@lru_cache(maxsize=8)
def norm_factors(d, n):
    """prod_i mult_i! for the monomials of Sym^n on rank d, as Python ints:
    the tuple of distinct factors and each monomial's index into it (a
    read-only array).

    Along each run of equal entries of a sorted row, pos counts 1, 2, ...;
    the factor is the product of pos, and the sorted pos row depends only
    on the multiplicities, so the product is taken once per pattern.  The
    patterns are numbered in the lex order of their rows.
    """
    mono = monomials("sym", d, n)
    pos = np.ones(mono.shape, dtype=np.int64)
    for a in range(1, n):
        pos[:, a] += pos[:, a - 1] * (mono[:, a] == mono[:, a - 1])
    pos.sort(axis=1)
    order = np.lexsort(pos.T[::-1]) if n else np.arange(len(pos))
    pos = pos[order]
    new = np.ones(len(pos), dtype=bool)
    new[1:] = np.any(pos[1:] != pos[:-1], axis=1)
    of = np.empty(len(pos), dtype=np.int64)
    of[order] = np.cumsum(new) - 1
    of.flags.writeable = False
    return tuple(prod(row) for row in pos[new].tolist()), of


def natural_level_map(name, ring, d, n, budget=None):
    """A natural map on a free module M of rank d, as an :class:`IndexMap`
    in the monomial bases:

    - "N": Sym^n M -> Div^n M, diagonal with prod mult_i!;
    - "r": Div^n M -> Sym^n M, diagonal with n! / prod mult_i!;
    - "Delta": F*M -> Sym^p M, e_i -> e_i^p;
    - "Psi": Div^p M -> F*M, e_I -> [I constant] e_i.

    Delta and Psi need a characteristic-p ring and n = p.  A monomial
    table of Sym^n M, comb(d + n - 1, n) rows of n cells, of more than
    ``budget.max_cells`` cells raises BudgetExceeded before it is built.
    """
    cap = (budget or DEFAULT).max_cells
    rows = _comb_upto(d + n - 1, n, cap)
    if rows * n > cap:
        size = f"a {rows * n}-cell monomial table" if rows <= cap else \
            f"a monomial table of more than {cap} cells"
        raise BudgetExceeded(f"natural map {name} on Sym^{n} of rank {d} "
                             f"needs {size}; budget {cap}")
    if name in ("N", "r"):
        factors, of = norm_factors(d, n)
        if name == "r":
            factors = [factorial(n) // f for f in factors]
        coef = np.array([ring.from_int(f) for f in factors],
                        dtype=np.int64)[of]
        return IndexMap(ring, np.arange(len(of)), coef, len(of))
    if name not in ("Delta", "Psi"):
        raise ValueError(f"unknown natural map {name}")
    if ring.char != ring.p:
        raise ValueError(f"{name} needs a characteristic-p ring")
    if n != ring.p:
        raise ValueError(f"{name} is defined for arity p = {ring.p}")
    rank = comb(d + n - 1, n)
    const = _sym_rank(np.repeat(np.arange(d)[:, None], n, axis=1), d)
    if name == "Psi":
        return IndexMap(ring, const, np.full(d, ring.one, dtype=np.int64),
                        rank)
    idx = np.full(rank, -1, dtype=np.int64)
    idx[const] = np.arange(d)
    return IndexMap(ring, idx, np.full(rank, ring.one, dtype=np.int64), d)


# ---------------------------------------------------------------------------
# de Rham weight complexes Omega^bullet_n

def _comb_upto(N, k, cap):
    """comb(N, k) when it is at most cap, else cap + 1; the binomials of
    the product formula only grow, so it stops once past cap."""
    acc = 1 if 0 <= k <= N else 0
    for j in range(min(k, N - k)):
        acc = acc * (N - j) // (j + 1)
        if acc > cap:
            return cap + 1
    return acc


def de_rham_weight_complex(ring, d, n, upto=None, budget=None):
    """S^n V -> S^(n-1) V (x) V -> ... -> Lambda^n V for dim V = d.

    ``upto`` truncates brutally after the given number of terms (the
    complex with the last term removed is upto = n).  A differential of
    more than ``budget.max_cells`` cells, rank_i rank_(i+1) with rank_i =
    C(d+n-i-1, n-i) C(d, i), raises BudgetExceeded before anything is
    built; the message gives the cells of the first such differential, or
    only that they exceed the budget when one of its ranks alone does.
    """
    terms = n + 1 if upto is None else min(n + 1, upto + 1)
    cap = (budget or DEFAULT).max_cells
    # a rank above the budget counts as cap + 1, so ranks with a million
    # digits (minutes of exact comb) are never computed
    capped = (min(cap + 1, _comb_upto(d + n - i - 1, n - i, cap) *
                  _comb_upto(d, i, cap)) for i in range(terms))
    over = next(((a, b) for a, b in pairwise(capped) if a * b > cap), None)
    if over:
        a, b = over
        size = f"a {a * b}-cell differential" if max(a, b) <= cap else \
            f"a differential of more than {cap} cells"
        raise BudgetExceeded(
            f"de Rham weight {n} on rank {d} needs {size}; budget {cap}")
    ranks = [comb(d + n - i - 1, n - i) * comb(d, i) for i in range(terms)]
    diffs, entries = [], []
    for i in range(terms - 1):
        S, wedges = monomials("sym", d, n - i), _wedge_plan(d, i)
        cells = []
        # d(x^m dx_J) = sum_j m_j x^(m - e_j) dx_j ^ dx_J: per j, the
        # entries at the (m - e_j, j ^ J) by (m, J) cells of the Sym-major
        # bases (each cell once), coded as they are made
        for j, a, rest in _full_row_plan(d, n - i):
            b, sign, wedge = wedges[j]
            mult = np.count_nonzero(S[a] == j, axis=1)
            r = rest[:, None] * comb(d, i + 1) + wedge
            c = a[:, None] * comb(d, i) + b
            cells.append((r.ravel(), c.ravel(),
                          ring.vfrom_int(np.outer(mult, sign)).ravel()))
        entries.append(tuple(map(np.concatenate, zip(*cells))))
        diffs.append(Mat.from_entries(ring, (ranks[i + 1], ranks[i]),
                                      *entries[-1]))
    # d.d = 0 on the written entries: no dense product
    for i, (right, left) in enumerate(pairwise(entries)):
        if np.any(_entry_product(ring, left, right)[2] != ring.zero):
            raise ValueError(f"d.d != 0 at degree {i}")
    return CochainComplex(ring, 0, ranks, diffs, check=False)


def _entry_product(ring, left, right):
    """left @ right for matrices given as entries (rows, cols, values),
    each cell once: on each cell that a left entry in column k and a right
    entry in row k meet, the ``ring.vadd`` sum of such products."""
    (r1, c1, v1), (r0, c0, v0) = left, right
    by_col = np.argsort(c1, kind="stable")
    lo, hi = np.searchsorted(c1[by_col], [r0, r0 + 1])
    b = np.repeat(np.arange(r0.size), hi - lo)
    a = by_col[np.arange(b.size) - np.repeat(np.cumsum(hi - lo) - hi, hi - lo)]
    width = int(c0.max(initial=0)) + 1
    cells, of = np.unique(r1[a] * width + c0[b], return_inverse=True)
    vals = ring.vmul(v1[a], v0[b])
    sums = np.full(cells.size, ring.zero, dtype=np.int64)
    todo = np.arange(of.size)
    while todo.size:            # each round adds one product per cell
        _, first = np.unique(of[todo], return_index=True)
        at = todo[first]
        sums[of[at]] = ring.vadd(sums[of[at]], vals[at])
        todo = np.delete(todo, first)
    return cells // width, cells % width, sums


@lru_cache(maxsize=None)
def _wedge_plan(d, i):
    """Per variable j: the i-subsets J of range(d) without j (positions in
    monomials("ext", d, i)), the sign of dx_j ^ dx_J, and the position of
    J + {j} among the (i + 1)-subsets.  Every weight complex on rank d
    reads the same plans."""
    E = monomials("ext", d, i)
    plan = []
    for j in range(d):
        b = np.flatnonzero(np.all(E != j, axis=1))
        below = np.count_nonzero(E[b] < j, axis=1)
        wedge = _lex_rank(np.sort(np.column_stack(
            (E[b], np.full(len(b), j))), axis=1), d)
        plan.append((b, 1 - 2 * (below % 2), wedge))
    return tuple(plan)
