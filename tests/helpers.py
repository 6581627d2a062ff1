"""Shared oracle constructions for the test suite.

These deliberately avoid the code paths they are used to check.
"""

from collections import Counter
from functools import lru_cache
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)
from math import factorial

import numpy as np

from charp.complexes import (CochainComplex, bockstein, cohomology_dims, cone,
                             shifted_module)
from charp.config import DEFAULT
from charp.cosalg import frobenius_level_matrix
from charp.doldkan import (Conormalized, DKBasis, IndexMap, PolyFunctor,
                           _check_power_budget, compose_ops, conormalize,
                           conormalize_map, dold_kan, ext_power_matrix,
                           index_power, natural_level_map, nondegenerate,
                           sym_power_matrix)
from charp.gcoh import BarEngine, _block_matrix, bar_faces
from charp.groups import FiniteGroup, GModule
from charp.linalg import (Mat, ModuleStructure, _exact_divide, diagonalize,
                          echelon, free_kernel_basis, image_basis, solver)
from charp.rings import coerce_down, lift_up, ring_make, prime_field
from charp.roots import _certified_exponent_bound, _mult_order


# ---------------------------------------------------------------------------
# test builders: complexes, groups and modules, cosimplicial maps

def module_complex(ring, rank, degree=0):
    """A single free module placed in one degree."""
    return CochainComplex(ring, degree, [rank], [])


def two_term(ring, mat, lo=0):
    """[R^cols -> R^rows] with the matrix as the differential."""
    return CochainComplex(ring, lo, [mat.cols, mat.rows], [mat])


def shift(C, s):
    """H^i(shift(C, s)) = H^(i-s)(C)."""
    sign = C.ring.from_int((-1) ** (s % 2))
    diffs = [d.scale(sign) for d in C.diffs]
    return CochainComplex(C.ring, C.lo + s, C.ranks, diffs, check=False)


def direct_sum(C, D):
    ring = C.ring
    lo, hi = min(C.lo, D.lo), max(C.hi, D.hi)
    ranks = [C.rank(i) + D.rank(i) for i in range(lo, hi + 1)]
    diffs = []
    for i in range(lo, hi):
        m = Mat.zeros(ring, C.rank(i + 1) + D.rank(i + 1),
                      C.rank(i) + D.rank(i))
        m.data[:C.rank(i + 1), :C.rank(i)] = C.d(i).data
        m.data[C.rank(i + 1):, C.rank(i):] = D.d(i).data
        diffs.append(m)
    return CochainComplex(ring, lo, ranks, diffs, check=False)


def tensor(C, D):
    """Total complex of the double complex C (x) D."""
    ring = C.ring
    lo, hi = C.lo + D.lo, C.hi + D.hi
    pairs = {n: [(i, n - i) for i in range(C.lo, C.hi + 1)
                 if D.lo <= n - i <= D.hi] for n in range(lo, hi + 1)}
    offs = {}
    ranks = []
    for n in range(lo, hi + 1):
        off = 0
        for (i, j) in pairs[n]:
            offs[(i, j)] = off
            off += C.rank(i) * D.rank(j)
        ranks.append(off)
    diffs = []
    for n in range(lo, hi):
        m = Mat.zeros(ring, ranks[n + 1 - lo], ranks[n - lo])
        for (i, j) in pairs[n]:
            blk = offs[(i, j)]
            rc, rd = C.rank(i), D.rank(j)
            if rc * rd == 0:
                continue
            # kron against a 0/1 identity only places code entries
            if (i + 1, j) in offs and C.rank(i + 1):
                tgt = offs[(i + 1, j)]
                m.data[tgt:tgt + C.rank(i + 1) * rd, blk:blk + rc * rd] = \
                    np.kron(C.d(i).data, np.eye(rd, dtype=np.int64))
            if (i, j + 1) in offs and D.rank(j + 1):
                tgt = offs[(i, j + 1)]
                sgn = ring.from_int((-1) ** (i % 2))
                m.data[tgt:tgt + rc * D.rank(j + 1), blk:blk + rc * rd] = \
                    np.kron(np.eye(rc, dtype=np.int64),
                            ring.vscale(sgn, D.d(j).data))
        diffs.append(Mat(ring, m.data))
    return CochainComplex(ring, lo, ranks, diffs)


def reduce_mod_p(C):
    """The reduction of a free complex over Z/p^e or GR(p^e, r) to the
    residue ring, whose cocycles :func:`charp.complexes.bockstein` takes."""
    R = C.ring
    res = R.residue_ring()
    return CochainComplex(res, C.lo, C.ranks,
                          [Mat(res, d.map_entries(R.reduce_mod_p).data)
                           for d in C.diffs], check=False)


def trivial_module(group, ring, rank=1):
    ident = Mat.identity(ring, rank)
    return GModule(group, ring, [ident] * group.order, check=False)


def direct_product(G, H):
    """G x H; the element (a, b) has index a |H| + b."""
    n, m = G.order, H.order
    table = G.table[:, None, :, None] * m + H.table[None, :, None, :]
    labels = None
    if G.labels is not None and H.labels is not None:
        labels = [(G.labels[a], H.labels[b])
                  for a in range(n) for b in range(m)]
    return FiniteGroup(table.reshape(n * m, n * m), labels=labels,
                       check=False)


def element_order(G, a):
    k, x = 1, a
    while x != G.identity:
        x = G.mul(x, a)
        k += 1
    return k


def validate_algebra(A, upto):
    """Levels 0..upto of a CosimplicialAlgebra are commutative, associative
    and unital, and its cofaces ring maps (on seeded random vectors)."""
    ring = A.ring
    rng = np.random.default_rng(0)
    for n in range(upto + 1):
        r = A.rank(n)
        for _ in range(4):
            u, v, w = (rng.integers(0, ring.size, r).astype(np.int64)
                       for _ in range(3))
            if not np.array_equal(A.multiply(n, u, v), A.multiply(n, v, u)):
                raise ValueError(f"level {n} not commutative")
            if not np.array_equal(A.multiply(n, A.multiply(n, u, v), w),
                                  A.multiply(n, u, A.multiply(n, v, w))):
                raise ValueError(f"level {n} not associative")
            if not np.array_equal(A.multiply(n, A.unit(n), u), u):
                raise ValueError(f"level {n} not unital")
        if n == 0:
            continue
        # cofaces are ring maps (checked on four pairs of vectors)
        for i in range(min(n, 2) + 1):
            d = A.module.cofaces[(n, i)]
            u, v = (Mat(ring, rng.integers(0, ring.size, (A.rank(n - 1), 4)))
                    for _ in range(2))
            lhs = d @ Mat(ring, A.multiply(n - 1, u.data, v.data))
            if not np.array_equal(lhs.data, A.multiply(
                    n, (d @ u).data, (d @ v).data)):
                raise ValueError(f"coface {i} at level {n} is not a ring map")


def index_map_from_mat(mat):
    """The IndexMap of a matrix with at most one nonzero per row."""
    ring = mat.ring
    nonzero = mat.data != ring.zero
    count = np.count_nonzero(nonzero, axis=1)
    if np.any(count > 1):
        raise ValueError("codegeneracy has a row with two nonzeros")
    idx = np.where(count == 1, np.argmax(nonzero, axis=1), -1)
    coef = mat.data[np.arange(mat.rows), np.maximum(idx, 0)]
    return IndexMap(ring, idx, coef, mat.cols)


def natural_map(name, n, C, bound, budget=None):
    """Levelwise natural transformation as a ComplexMap of derived powers.

    name in {"N", "r", "Delta", "Psi"} (``natural_level_map``); the
    Frobenius twist of Delta/Psi is carried by twisting the DK complex.
    """
    L = bound + 1
    _check_power_budget(PolyFunctor("sym", n), C, L, budget or DEFAULT)
    A = dold_kan(C, L)
    maps = [natural_level_map(name, C.ring, A.rank(m), n)
            for m in range(L + 1)]
    sym = conormalize(A, functor=PolyFunctor("sym", n))
    if name == "Delta":
        return conormalize_map(conormalize(A), sym, maps, twist_source=True)
    div = conormalize(A, functor=PolyFunctor("div", n))
    if name == "N":
        return conormalize_map(sym, div, maps)
    if name == "r":
        return conormalize_map(div, sym, maps)
    dk = conormalize(A)
    return conormalize_map(div, Conormalized(dk.complex.twist(), dk.sel),
                           maps)


def frobenius_map(A):
    """The Frobenius as a ComplexMap F*(conormalize A) -> conormalize A.

    Semilinearity is carried by taking the source to be the Frobenius
    twist of the conormalized complex.  Raises over rings that are not of
    characteristic p.
    """
    ring = A.ring
    if ring.char != ring.p:
        raise ValueError("Frobenius needs a characteristic-p ring")
    conorm = conormalize(A.module)
    mats = [frobenius_level_matrix(A, n) for n in range(A.module.L + 1)]
    return conormalize_map(conorm, conorm, mats, twist_source=True)


# ---------------------------------------------------------------------------
# the monomial and surjection enumerations, by itertools, independent of
# doldkan.monomials

@lru_cache(maxsize=None)
def sym_basis(d, n):
    return tuple(combinations_with_replacement(range(d), n))


@lru_cache(maxsize=None)
def surjections(n, k):
    """Monotone surjections [n] ->> [k] as value tuples (lex order)."""
    if k > n or k < 0:
        return ()
    out = []
    for steps in combinations(range(1, n + 1), k):
        vals = []
        cur = 0
        si = 0
        for x in range(n + 1):
            while si < k and steps[si] == x:
                cur += 1
                si += 1
            vals.append(cur)
        out.append(tuple(vals))
    return tuple(sorted(out))


def multi_indices(m, n):
    """Exponent vectors of the degree-n monomials in m variables, sorted."""
    if m == 1:
        return [(n,)]
    out = []
    for first in range(n + 1):
        for rest in multi_indices(m - 1, n - first):
            out.append((first,) + rest)
    return sorted(out)


def nondegenerate_oracle(A, n, functor):
    """The level-n columns of the functor power of A that no
    ``index_power(functor, s^j_(n-1))``, j < n, reads: the codegeneracies
    raised to the functor."""
    hit = np.zeros(functor.dim(A.rank(n)), dtype=bool)
    for j in range(n):
        idx = index_power(functor, A.codegens[(n - 1, j)]).idx
        hit[idx[idx >= 0]] = True
    return np.flatnonzero(~hit)


def dense_conormalize(functor, A):
    """Bases and differentials of the conormalized functor^A, the dense way.

    Every structure map of A is raised to the functor with ``power_matrix``
    (codegeneracies included), N^n is the free kernel of the stacked
    s^j_(n-1), j < n, and each differential is solved on those bases.
    """
    ring = A.ring

    def power(mat):
        return power_matrix(ring, functor, mat)

    bases = [Mat.identity(ring, functor.dim(A.rank(0)))]
    for n in range(1, A.L + 1):
        stacked = power(A.s(n - 1, 0))
        for j in range(1, n):
            stacked = stacked.vstack(power(A.s(n - 1, j)))
        bases.append(free_kernel_basis(stacked))
    diffs = []
    for n in range(A.L):
        total = power(A.d(n + 1, 0))
        for i in range(1, n + 2):
            term = power(A.d(n + 1, i))
            total = total + term if i % 2 == 0 else total - term
        X = solver(bases[n + 1]).solve_mat(total @ bases[n])
        assert X is not None, "dense differential does not restrict"
        diffs.append(X)
    return bases, diffs


def coface_sum_oracle(maps, cols, rows=None, message=None):
    """``doldkan.coface_sum`` the dense way: each map scatters its signed
    coefficients into a rows x |cols| array; with ``rows``, the other rows
    must be zero (else ValueError(message)) and only those are kept."""
    ring, height, width = maps[0].ring, maps[0].rows, maps[0].cols
    cols = np.arange(width)[cols]
    pos = np.full(width + 1, -1, dtype=np.int64)    # idx -1 reads pos[-1]
    pos[cols] = np.arange(len(cols))
    out = np.full((height, len(cols)), ring.zero, dtype=np.int64)
    for i, m in enumerate(maps):
        add = ring.vadd if i % 2 == 0 else ring.vsub
        read = pos[m.idx]
        r = np.flatnonzero(read >= 0)
        out[r, read[r]] = add(out[r, read[r]], m.coef[r])
    if rows is None:
        return Mat(ring, out)
    live = np.any(out != ring.zero, axis=1)
    live[rows] = False
    if live.any():
        raise ValueError(message)
    return Mat(ring, out[rows])


def div_power_matrix(ring, f, n):
    """Gamma^n of a matrix: Sym^n of the transpose, transposed."""
    return sym_power_matrix(ring, f.transpose(), n).transpose()


def power_matrix(ring, functor, f):
    """The functor of a matrix."""
    if functor.kind == "sym":
        return sym_power_matrix(ring, f, functor.arity)
    if functor.kind == "ext":
        return ext_power_matrix(ring, f, functor.arity)
    return div_power_matrix(ring, f, functor.arity)


def power_oracle(ring, kind, f, n):
    """The functor ``kind``^n of the matrix f, entry by entry with
    ring.add/mul, in the lex-ordered monomial bases.

    Sym: the column of J is the product of the linear forms f[:, j],
    j in J, expanded monomial by monomial.  Div: entry (I, J) sums
    prod_k f[I_k, u_k] over the distinct arrangements u of J (the basis
    dual to the orbit sums).  Lambda: entry (I, J) is det f[I, J] as a
    signed permutation sum.
    """
    basis = combinations if kind == "ext" else combinations_with_replacement
    tgt = list(basis(range(f.rows), n))
    src = list(basis(range(f.cols), n))
    out = np.full((len(tgt), len(src)), ring.zero, dtype=np.int64)

    def product(word, I):
        acc = ring.one
        for i, j in zip(I, word):
            acc = ring.mul(acc, int(f.data[i, j]))
        return acc

    for c, J in enumerate(src):
        if kind == "sym":
            poly = {(): ring.one}
            for j in J:
                nxt = {}
                for mono, a in poly.items():
                    for v in range(f.rows):
                        key = tuple(sorted(mono + (v,)))
                        term = ring.mul(a, int(f.data[v, j]))
                        nxt[key] = ring.add(nxt.get(key, ring.zero), term)
                poly = nxt
            for r, I in enumerate(tgt):
                out[r, c] = poly.get(I, ring.zero)
            continue
        for r, I in enumerate(tgt):
            acc = ring.zero
            if kind == "div":
                for word in set(permutations(J)):
                    acc = ring.add(acc, product(word, I))
            else:
                for perm in permutations(range(n)):
                    odd = sum(perm[a] > perm[b] for a in range(n)
                              for b in range(a + 1, n)) % 2
                    term = product([J[k] for k in perm], I)
                    acc = ring.sub(acc, term) if odd else ring.add(acc, term)
            out[r, c] = acc
    return out


def de_rham_oracle(ring, d, n, i):
    """The differential S^(n-i) V (x) Lambda^i V -> S^(n-i-1) V (x)
    Lambda^(i+1) V of the weight-n de Rham complex, dim V = d, entry by
    entry with ring.from_int/add: d(x^m dx_J) = sum_j m_j x^(m - e_j)
    dx_j ^ dx_J."""
    sb = list(combinations_with_replacement(range(d), n - i))
    eb = list(combinations(range(d), i))
    sb2 = list(combinations_with_replacement(range(d), n - i - 1))
    eb2 = list(combinations(range(d), i + 1))
    out = np.full((len(sb2) * len(eb2), len(sb) * len(eb)), ring.zero,
                  dtype=np.int64)
    for a, mono in enumerate(sb):
        for b, J in enumerate(eb):
            for j in sorted(set(mono) - set(J)):
                rest = list(mono)
                rest.remove(j)
                row = sb2.index(tuple(rest)) * len(eb2) + \
                    eb2.index(tuple(sorted(J + (j,))))
                sign = (-1) ** sum(1 for l in J if l < j)
                col = a * len(eb) + b
                out[row, col] = ring.add(int(out[row, col]),
                                         ring.from_int(sign * mono.count(j)))
    return Mat(ring, out)


class SliceOracle:
    """H^i with one body per ring family: gens, structure, express and
    is_coboundary as :class:`charp.complexes.CohomologySlice` answers them.

    Over a field the generators are the kernel columns at the pivots of
    [B | Z] past B, B the pivot columns of d_in; over a local ring they are
    the kernel generators, with the structure of a cokernel presentation.
    """

    def __init__(self, C, degree):
        ring = self.ring = C.ring
        d_out, d_in = C.d(degree), C.d(degree - 1)
        self._d_in = d_in
        n = C.rank(degree)
        if ring.is_field:
            Z = echelon(d_out, transform=False).kernel_gens()
            self._im_solver = echelon(d_in)
            B = Mat(ring, d_in.data[:, self._im_solver.pivots]) \
                if self._im_solver.pivots else Mat.zeros(ring, n, 0)
            ech = echelon(B.hstack(Z), transform=False)
            gens = [j - B.cols for j in ech.pivots if j >= B.cols]
            self.gens = Mat(ring, Z.data[:, gens]) if gens else \
                Mat.zeros(ring, n, 0)
            self.structure = ModuleStructure(ring.p, 1, [1] * len(gens))
            self._express_solver = echelon(B.hstack(self.gens))
            self._b_cols = B.cols
        else:
            K = diagonalize(d_out).kernel_gens()
            self._im_solver = diagonalize(d_in) if d_in.cols else None
            if K.cols == 0:
                self.gens = Mat.zeros(ring, n, 0)
                self.structure = ModuleStructure(ring.p, ring.e, [])
            else:
                kd = diagonalize(K)
                rel = kd.solve_mat(d_in)
                if rel is None:
                    raise AssertionError(
                        "image not inside kernel; complex invalid")
                pres = diagonalize(rel.hstack(kd.kernel_gens()))
                self.structure = pres.cokernel()
                self.gens = K
            self._express_solver = diagonalize(d_in.hstack(self.gens))
            self._b_cols = d_in.cols

    def is_coboundary(self, vec):
        if self._d_in.cols == 0:
            return bool(np.all(vec == self.ring.zero))
        return self._im_solver.in_image(vec)

    def express(self, cols):
        """Coefficients over the generators of each cocycle column."""
        X = self._express_solver.solve_mat(Mat(self.ring, cols))
        if X is None:
            raise ValueError("not a cocycle class element")
        return X.data[self._b_cols:]


def reference_bockstein(d, z):
    """(d . lift z) / p mod p, on Python-int coefficient lists.

    d is over Z/p^e or GR(p^e, r) (coefficients mod p^e of polynomials
    reduced by the monic modulus; Z/p^e is the case r = 1, modulus x), z
    over the residue ring.  z lifts coefficientwise to [0, p).  Raises
    ValueError when a coefficient of d(lift z) is not divisible by p.
    """
    ring = d.ring
    res = ring.residue_ring()
    p, m = ring.p, ring.p ** ring.e
    modulus = [int(c) for c in getattr(ring, "modulus", (0, 1))]
    r = len(modulus) - 1

    def coeffs(R, code):
        return [int(code)] if R.r == 1 else R.coeffs(int(code))

    def mul(a, b):
        full = [0] * (2 * r - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                full[i + j] += ai * bj
        for k in range(2 * r - 2, r - 1, -1):
            c, full[k] = full[k], 0
            for j in range(r):
                full[k - r + j] -= c * modulus[j]
        return full[:r]

    lift = [coeffs(res, c) for c in z]
    out = []
    for row in d.data:
        acc = [0] * r
        for code, zc in zip(row, lift):
            acc = [x + y for x, y in zip(acc, mul(coeffs(ring, code), zc))]
        acc = [c % m for c in acc]
        if any(c % p for c in acc):
            raise ValueError("d(lift z) is not divisible by p")
        q = [(c // p) % p for c in acc]
        out.append(q[0] if res.r == 1 else res.from_coeffs(q))
    return np.array(out, dtype=np.int64)


def cyclic_perm_matrix(ring, d, p):
    """sigma on E^(x p): cyclic shift of tensor factors, with the sign of
    the p-cycle (trivial for odd p, and equal to +1 in characteristic 2)."""
    n = d ** p
    out = Mat.zeros(ring, n, n)
    for idx in range(n):
        digits = []
        x = idx
        for _ in range(p):
            digits.append(x % d)
            x //= d
        digits = digits[::-1]          # (i_1, ..., i_p), i_1 major
        rolled = digits[1:] + digits[:1]
        tgt = 0
        for v in rolled:
            tgt = tgt * d + v
        out.data[tgt, idx] = ring.one
    return out


def hsp_truncated_dims(p, d, top_buffer=2):
    """Dims of H^j(tau^(>=1) (E[-1]^(x p))_{hS_p}) for j = 1..p over F_p.

    Independent oracle: the two-periodic cyclic complex ending in degree p
    with differentials (1 - sigma) and the norm, then (for p = 3) the
    invariants of the normalizer action on the cyclic-group cohomology,
    with the standard comparison multipliers on the periodic resolution.
    """
    ring = ring_make(prime_field(p))
    n = d ** p
    sigma = cyclic_perm_matrix(ring, d, p)
    one = Mat.identity(ring, n)
    norm = Mat.zeros(ring, n, n)
    power = Mat.identity(ring, n)
    for _ in range(p):
        norm = norm + power
        power = power @ sigma
    one_minus = one - sigma
    # degrees lo..p with d into degree p given by (1 - sigma)
    lo = 1 - top_buffer
    diffs = []
    for deg in range(lo, p):
        j = p - deg            # resolution degree of the source
        diffs.append(one_minus if j % 2 == 1 else norm)
    C = CochainComplex(ring, lo, [n] * (p - lo + 1), diffs)
    if p == 2:
        return [cohomology_dims(C)[i - lo] for i in range(1, p + 1)]
    # p = 3: project to the S_3-part = invariants of the normalizer action
    from charp.linalg import echelon
    k = 2                      # generator of (Z/3)^x
    w = transposition_conjugator(ring, d, p, k)
    dims = []
    for ideg in range(1, p + 1):
        j = p - ideg           # resolution degree
        s, odd = divmod(j, 2)
        mult = pow(k, s, p)
        op = w.scale(ring.from_int(mult))
        if odd:
            acc = Mat.identity(ring, n)
            tot = Mat.zeros(ring, n, n)
            for _ in range(k):
                tot = tot + acc
                acc = acc @ sigma
            op = op @ tot
        h = C.slice(ideg)
        if h.gens.cols == 0:
            dims.append(0)
            continue
        A = Mat(ring, h.express((op @ h.gens).data))
        fixed = A - Mat.identity(ring, A.rows)
        dims.append(A.rows - echelon(fixed, transform=False).rank)
    return dims


def transposition_conjugator(ring, d, p, k):
    """Permutation of tensor factors by some w with w sigma w^-1 = sigma^k,
    twisted by its sign."""
    assert p == 3 and k == 2
    # w = transposition of factors 2 and 3 conjugates (123) to (132)
    n = d ** p
    out = Mat.zeros(ring, n, n)
    sign = ring.from_int(-1)
    for idx in range(n):
        a = idx // (d * d)
        b = (idx // d) % d
        c = idx % d
        tgt = a * d * d + c * d + b
        out.data[tgt, idx] = sign
    return out


# ---------------------------------------------------------------------------
# cochain transport of the group-cohomology engines, one tuple at a time

def _small_apply(ring, m, val):
    """m on an (r,) value or on each column of an (r, k) block."""
    return ring.vmatmul(m, val if val.ndim == 2 else val[:, None]
                        ).reshape((m.shape[0],) + val.shape[1:])


def actions_from_generators_oracle(group, degree_mats):
    """extclass.actions_from_generators one element at a time: breadth
    first, one Mat product per new element and degree."""
    gens = list(group.generators)
    ring = next(iter(degree_mats.values()))[0].ring
    full = {i: {group.identity: Mat.identity(ring, mats[0].rows)}
            for i, mats in sorted(degree_mats.items())}
    known, frontier = {group.identity}, [group.identity]
    while frontier:
        nxt = []
        for g in frontier:
            for j, s in enumerate(gens):
                h = group.mul(g, s)
                if h not in known:
                    known.add(h)
                    for i in full:
                        full[i][h] = full[i][g] @ degree_mats[i][j]
                    nxt.append(h)
        frontier = nxt
    return full


def induced_actions_oracle(hy, sl, i):
    """{g: matrix of g on H^i}, one product and one express per element."""
    return {g: Mat(hy.ring, sl.express((hy.ec.act(g, i) @ sl.gens).data))
            for g in hy.G.elements()}


def element_actions_oracle(A, ring, gen_mats):
    """The action matrix of each element of an elementary abelian A, the
    product of gen_mats[j] taken e_j times for its vector (e_j), one Mat
    product at a time."""
    out = []
    for g in A.elements():
        m = Mat.identity(ring, gen_mats[0].rows)
        for j, e in enumerate(A.vector(g)):
            for _ in range(e):
                m = m @ gen_mats[j]
        out.append(m.data)
    return np.array(out)


def closure_evaluator(eng, n, vec):
    """The bar cochain t -> sum of c . act[g] vec_w over the terms
    (w, g): c of eng.phi(t), of a PeriodicEngine cochain vector (of
    (r, k) blocks for the columns of an array)."""
    ring, r = eng.ring, eng.rank
    vec = np.asarray(vec, dtype=np.int64)

    def fn(*t):
        acc = np.full((r,) + vec.shape[1:], ring.zero, dtype=np.int64)
        for (w, g), c in eng.phi(t).items():
            wi = eng.w_index[n][w]
            val = _small_apply(ring, eng._act[g], vec[wi * r:(wi + 1) * r])
            acc = ring.vadd(acc, ring.vscale(c, val))
        return acc

    return fn


def closure_cocycle_from_function(eng, n, fn):
    """The PeriodicEngine cochain whose w block sums c . fn(*t) over the
    terms t: c of eng.psi(w)."""
    ring, r = eng.ring, eng.rank
    out = None
    for wi, w in enumerate(eng.ws[n]):
        for t, c in eng.psi(w).items():
            val = np.asarray(fn(*t), dtype=np.int64)
            if out is None:
                out = np.full((len(eng.ws[n]) * r,) + val.shape[1:],
                              ring.zero, dtype=np.int64)
            blk = out[wi * r:(wi + 1) * r]
            blk[...] = ring.vadd(blk, ring.vscale(c, val))
    return out


def bar_differential_oracle(G, M, k):
    """d^k of the normalized bar complex of G with coefficients M, tuple
    by tuple: the tuples of non-identity elements in lex order
    (itertools.product), the faces of each (k+1)-tuple looked up in a
    dict, one block added at a time (a merged identity is degenerate: not
    in the dict)."""
    ring, r = M.ring, M.rank
    nontriv = [g for g in G.elements() if g != G.identity]
    rows = list(product(nontriv, repeat=k + 1))
    idx = {t: i for i, t in enumerate(product(nontriv, repeat=k))}
    ident = {sgn: Mat.identity(ring, r).scale(ring.from_int(sgn)).data
             for sgn in (1, -1)}

    def terms():
        for ti, t in enumerate(rows):
            faces = bar_faces(G.mul, t)
            yield ti, idx[faces[0]], M.act(t[0]).data
            for i, face in enumerate(faces[1:], 1):
                if face in idx:
                    yield ti, idx[face], ident[(-1) ** i]

    return _block_matrix(ring, r, (len(rows), len(idx)), terms())


def closure_action_matrix(eng, n, perm, u):
    """Generator coordinates of (t.c)(g_1..) = u c(perm^-1 g_1, ..) on the
    H^n generators c: a bar engine reads c tuple by tuple (zero on
    degenerate tuples); a periodic engine moves the twisted closure
    evaluator back through Psi_n."""
    sl = eng.complex.slice(n)
    ring, gens = eng.ring, sl.gens.data
    inv_perm = np.argsort(perm)
    if isinstance(eng, BarEngine):
        r, G = eng.M.rank, eng.G
        index = {t: i for i, t in enumerate(eng.tuples[n])}
        out = np.full_like(gens, ring.zero)
        for ti, t in enumerate(eng.tuples[n]):
            src = tuple(int(inv_perm[g]) for g in t)
            if G.identity in src:
                continue
            si = index[src]
            out[ti * r:(ti + 1) * r] = _small_apply(
                ring, u.data, gens[si * r:(si + 1) * r])
    else:
        ev = closure_evaluator(eng, n, gens)
        out = closure_cocycle_from_function(eng, n, lambda *t: _small_apply(
            ring, u.data, ev(*(int(inv_perm[g]) for g in t))))
    return Mat(ring, sl.express(out))


def expressions_oracle(p, target, gens, max_terms, exponent_bound=None,
                       modulus=0):
    """roots.enumerate_expressions, one multiset at a time: every
    combinations_with_replacement of the options (r, g), g-major, summed
    in Python ints; each multiset as its sorted (r, tuple) terms."""
    target = tuple(int(c) for c in target)
    gens = [tuple(int(c) for c in g) for g in gens]
    if modulus:
        ord_p = _mult_order(p, modulus)
        bound = ord_p - 1 if exponent_bound is None else \
            min(exponent_bound, ord_p - 1)
    elif exponent_bound is None:
        rows = np.array(gens, dtype=np.int64).reshape(-1, p - 1)
        bound = _certified_exponent_bound(p, np.array(target), rows,
                                          max_terms)
    else:
        bound = exponent_bound
    options = [(r, g) for g in gens for r in range(bound + 1)]
    out = []
    for size in range(0, max_terms + 1):
        for combo in combinations_with_replacement(options, size):
            total = [sum(pow(p, r, modulus or None) * g[k] for r, g in combo)
                     for k in range(p - 1)]
            if all((a - b) % modulus == 0 if modulus else a == b
                   for a, b in zip(total, target)):
                out.append(tuple(sorted(combo)))
    return out


def as_expressions(gens, exprs):
    """The (r, g) pairs of roots.enumerate_expressions as the sorted
    (r, tuple) terms of :func:`expressions_oracle`."""
    gens = np.asarray(gens)
    return [tuple(sorted(zip(r.tolist(), map(tuple, gens[g].tolist()))))
            for r, g in exprs]


def monoid_member_oracle(p, target):
    """roots.monoid_member, one multiset of long roots at a time: the
    residual must have sigma 0 and nonnegative partial sums.  The long
    root chi_i + (chi_1 + ... + chi_(p-1)) is 2 at i and 1 elsewhere."""
    target = [int(c) for c in target]
    long_roots = [tuple(1 + (k == i) for k in range(p - 1))
                  for i in range(p - 1)]
    if sum(target) < 0:
        return False
    for count in range(sum(target) // p + 1):
        for combo in combinations_with_replacement(long_roots, count):
            residual = [t - sum(g[k] for g in combo)
                        for k, t in enumerate(target)]
            partial = [sum(residual[:k + 1]) for k in range(p - 1)]
            if partial[-1] == 0 and min(partial) >= 0:
                return True
    return False


# ---------------------------------------------------------------------------
# the natural maps and the structure maps, built densely one entry at a time

def multiset_multiplicity_factorials(mono):
    acc = 1
    for c in Counter(mono).values():
        acc *= factorial(c)
    return acc


def norm_matrix(ring, d, n):
    """N_n : Sym^n -> Div^n, diagonal with prod(mult_i!)."""
    basis = sym_basis(d, n)
    out = Mat.zeros(ring, len(basis), len(basis))
    for i, mono in enumerate(basis):
        out.data[i, i] = ring.from_int(multiset_multiplicity_factorials(mono))
    return out


def restriction_matrix(ring, d, n):
    """r_n : Div^n -> Sym^n, diagonal with n! / prod(mult_i!)."""
    basis = sym_basis(d, n)
    out = Mat.zeros(ring, len(basis), len(basis))
    for i, mono in enumerate(basis):
        out.data[i, i] = ring.from_int(
            factorial(n) // multiset_multiplicity_factorials(mono))
    return out


def delta_matrix(ring, d, p):
    """Delta : F*M -> Sym^p M, e_i -> e_i^p."""
    basis = {m: i for i, m in enumerate(sym_basis(d, p))}
    out = Mat.zeros(ring, len(basis), d)
    for i in range(d):
        out.data[basis[(i,) * p], i] = ring.one
    return out


def psi_matrix(ring, d, p):
    """psi : Div^p M -> F*M, dual-orbit basis e_I -> [I constant] e_i."""
    basis = sym_basis(d, p)
    out = Mat.zeros(ring, d, len(basis))
    for j, mono in enumerate(basis):
        if all(v == mono[0] for v in mono):
            out.data[mono[0], j] = ring.one
    return out


NATURAL_MATRICES = {"N": norm_matrix, "r": restriction_matrix,
                    "Delta": delta_matrix, "Psi": psi_matrix}


def dense_nerve_maps(G, ring, L):
    """The nerve's structure maps as dense 0/1 matrices, from tuples of
    group elements: (cofaces, codegens), keyed like CosimplicialModule's.
    Level n lists G^n as tuples in lex order, and a row reads the tuple
    its face or degeneracy sends it to (the bar construction)."""
    tuples = {0: [()]}
    for n in range(1, L + 1):
        tuples[n] = [t + (g,) for t in tuples[n - 1] for g in G.elements()]
    index = {n: {t: i for i, t in enumerate(ts)} for n, ts in tuples.items()}

    def face(t, i):
        if i == 0:
            return t[1:]
        if i == len(t):
            return t[:-1]
        return t[:i - 1] + (G.mul(t[i - 1], t[i]),) + t[i + 1:]

    def pullback(tgt, src, fn):
        out = Mat.zeros(ring, len(tuples[tgt]), len(tuples[src]))
        for r, t in enumerate(tuples[tgt]):
            out.data[r, index[src][fn(t)]] = ring.one
        return out

    cofaces = {(n, i): pullback(n, n - 1, lambda t, i=i: face(t, i))
               for n in range(1, L + 1) for i in range(n + 1)}
    codegens = {(n, j): pullback(
        n, n + 1, lambda t, j=j: t[:j] + (G.identity,) + t[j:])
        for n in range(L) for j in range(n + 1)}
    return cofaces, codegens


def matrix_group_oracle(ring, gens):
    """(elements, table, generator indices) of the closure of invertible
    matrices, by tuple keys and one Mat product per table cell."""
    def key(m):
        return tuple(int(x) for x in m.data.ravel())

    ident = Mat.identity(ring, gens[0].rows)
    elems = [ident]
    index = {key(ident): 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = m @ g
                k = key(prod)
                if k not in index:
                    index[k] = len(elems)
                    elems.append(prod)
                    nxt.append(prod)
        frontier = nxt
    table = np.array([[index[key(a @ b)] for b in elems] for a in elems],
                     dtype=np.int64)
    return elems, table, [index[key(g)] for g in gens]


def splitting_value_oracle(ring, g):
    """The p = 2 class at one matrix g of V, by hand: the section s picks
    x_0 x_1 in S^2 V, Lambda^2(g) is inverted by elimination, and
    iota^-1(S^2(g) s Lambda^2(g)^-1 - s) is solved against the diagonal."""
    sec = Mat.zeros(ring, 3, 1)
    sec.data[1, 0] = ring.one
    diff = sym_power_matrix(ring, g, 2) @ sec @ \
        solver(ext_power_matrix(ring, g, 2)).inverse() - sec
    iota = natural_level_map("Delta", ring, 2, 2).dense()
    return echelon(iota).solve_mat(diff).data[:, 0]


def v_action_oracle(p, A, F, aidx):
    """The unipotent matrix of a in A on V = F^p, one entry at a time:
    over F_p an entry is one coordinate of a, over F_(p^2) the field
    element with two coordinates of a as coefficients."""
    vec = A.vector(aidx)
    m = Mat.identity(F, p)
    for k in range(p - 1):
        m.data[0, k + 1] = F.from_int(int(vec[k])) if A.m == p - 1 else \
            F.from_coeffs([vec[2 * k], vec[2 * k + 1]])
    return m


def f4_square_pairs_oracle(F4, A2):
    """(permutation of A2 = F_4 by a^2, the character a^2) for each a in
    F_4^x, the multiplication matrix written from the coefficients."""
    pairs = []
    for a in F4.elements():
        if a == F4.zero:
            continue
        a2 = F4.mul(a, a)
        m = np.array([F4.coeffs(F4.mul(a2, b))
                      for b in (F4.one, F4.from_coeffs([0, 1]))]).T
        pairs.append((A2.automorphism_from_matrix(m), Mat(F4, [[a2]])))
    return pairs


def phi_rows_oracle(eng, n, tuples):
    """Rows of a PeriodicEngine's Phi_n at bar tuples, as one block matrix
    built afresh from every tuple's terms (no row cache)."""
    ring = eng.ring
    return _block_matrix(ring, eng.rank, (len(tuples), len(eng.ws[n])), (
        (ti, eng.w_index[n][w], ring.vscale(c, eng._act[g]))
        for ti, t in enumerate(tuples)
        for (w, g), c in eng.phi(t).items())).data


def epi_mono_factor(alpha):
    """alpha = eps o eta with eta surjective, eps injective monotone."""
    image = sorted(set(alpha))
    eta = tuple(image.index(v) for v in alpha)
    eps = tuple(image)
    return eps, eta


def dense_dk_map(C, alpha, m, n):
    """DK(alpha) of a graded module C for monotone alpha: [m] -> [n], as a
    dense Mat from level m to level n built block by block: block (l, tau)
    of level n reads block (k, eta) of level m, tau o alpha = eps o eta, by
    the identity when eps is, and not otherwise."""
    ring, src, tgt = C.ring, DKBasis(C, m), DKBasis(C, n)
    out = Mat.zeros(ring, tgt.rank, src.rank)
    for (l, tau, toff) in tgt.blocks:
        eps, eta = epi_mono_factor(compose_ops(tau, alpha))
        k = max(eta)
        if (k, eta) not in src.index:
            continue
        soff = src.index[(k, eta)]
        if eps == tuple(range(l + 1)):
            rk = C.rank(k)
            out.data[toff:toff + rk, soff:soff + rk] = \
                Mat.identity(ring, rk).data
    return out


def dense_operator(module, alpha, m, n):
    """Matrix of the structure map of a cosimplicial module for monotone
    alpha: [m] -> [n], as a product of dense codegeneracies and cofaces."""
    eps, eta = epi_mono_factor(alpha)
    mat = Mat.identity(module.ring, module.rank(m))
    cur = m
    # peel codegeneracies: contract the first double point repeatedly
    work = list(eta)
    while len(work) - 1 > max(work):
        a = next(x for x in range(len(work) - 1)
                 if work[x] == work[x + 1])
        mat = module.s(cur - 1, a) @ mat
        cur -= 1
        work = work[:a + 1] + work[a + 2:]
    # injection part: insert the missing values in increasing order
    missing = [v for v in range(n + 1) if v not in eps]
    for b in missing:
        mat = module.d(cur + 1, b) @ mat
        cur += 1
    assert cur == n
    return mat


def universal_classes_oracle(p, i):
    """cosalg.universal_classes with dense Delta and norm level matrices:
    (U-conormalization, P0 cocycle, P1 cocycle) over F_p for degree i."""
    ring = ring_make(prime_field(p))
    L = i + 2
    A = dold_kan(shifted_module(ring, 1, i), L)
    conorm_sym = conormalize(A, functor=PolyFunctor("sym", p))
    conorm_div = conormalize(A, functor=PolyFunctor("div", p))
    conorm_dk = conormalize(A)
    dmap = conormalize_map(conorm_dk, conorm_sym,
                           [delta_matrix(ring, A.rank(n), p)
                            for n in range(L + 1)], twist_source=True)
    gen = np.full(conorm_dk.complex.rank(i), ring.zero, dtype=np.int64)
    gen[0] = ring.one
    p0 = ring.vmatmul(dmap.component(i).data, gen[:, None])[:, 0]
    nmap = conormalize_map(conorm_sym, conorm_div,
                           [norm_matrix(ring, A.rank(n), p)
                            for n in range(L + 1)])
    h = cone(nmap).slice(i)
    p1 = h.gens.data[:conorm_sym.complex.rank(i + 1), 0]
    return conorm_sym, p0, p1


def normalization_projector(module, k):
    """(K, proj): the inclusion of N^k and the coordinates of the
    projection level_k ->> N^k along the coface part, by inverting
    N^k (+) image_basis(d^1 | ... | d^k).  Over a field."""
    ring = module.ring
    r = module.rank(k)
    if k == 0:
        return Mat.identity(ring, r), Mat.identity(ring, r)
    K = Mat.identity(ring, r).submatrix(range(r), nondegenerate(module, k))
    stacked = module.d(k, 1)
    for i in range(2, k + 1):
        stacked = stacked.hstack(module.d(k, i))
    full = K.hstack(image_basis(stacked))
    assert full.rows == full.cols, "level does not split as N + coface part"
    inv = solver(full).inverse()
    return K, Mat(ring, inv.data[:K.cols, :])


def cocycle_map_oracle(module, i, x_level_vec, L):
    """cosalg.cosimplicial_map_from_cocycle by inverting the whole Dold-Kan
    decomposition psi: y -> (P_N(A(sigma) y))_(k, sigma) of each level,
    with dense surjection operators."""
    ring = module.ring
    projectors = [normalization_projector(module, k) for k in range(L + 1)]
    x = ring.vmatmul(projectors[i][1].data,
                     np.asarray(x_level_vec, dtype=np.int64)[:, None])[:, 0]
    level_maps = []
    for n in range(L + 1):
        blocks, slots = [], []
        for k in range(n + 1):
            proj = projectors[k][1]
            for sigma in surjections(n, k):
                blocks.append(proj @ dense_operator(module, sigma, n, k))
                slots.extend([(k, sigma)] * proj.rows)
        psi = blocks[0]
        for block in blocks[1:]:
            psi = psi.vstack(block)
        assert psi.rows == module.rank(n)
        phi = solver(psi).inverse()
        src = surjections(n, i)
        out = Mat.zeros(ring, module.rank(n), len(src))
        for t, sigma in enumerate(src):
            cols = [c for c, slot in enumerate(slots) if slot == (i, sigma)]
            out.data[:, t] = ring.vmatmul(phi.data[:, cols], x[:, None])[:, 0]
        level_maps.append(out)
    return level_maps


def algebra_bockstein_oracle(A3, x_modp_full, i):
    """``algebra_bockstein_check`` term by term: Gamma^p of each coface
    expanded as (f e_j)^[p] over the support of its columns, the norm
    solved entry by entry on the p-valuations of prod mult_i!, and mu and
    phi(x) = sum x_j e_j^p formed one product at a time.

    ``A3``: the algebra over Z/p^3 (an exact model of the Z/p^2 algebra);
    ``x_modp_full``: a full-level degree-i cocycle of A3/p.  Returns
    (lhs, rhs) cocycle vectors in degree i+1 of the mod-p full complex.
    """
    ring3 = A3.ring
    p = ring3.p
    if ring3.e != 3:
        raise ValueError("pass the Z/p^3 model of the algebra")
    resp = ring_make(prime_field(p)) if ring3.r == 1 else None
    if resp is None:
        raise ValueError("only Z/p^3 coefficient towers are supported")

    def reduce_vec(v, target):
        return np.array([coerce_down(ring3, target, int(c)) for c in v],
                        dtype=np.int64)

    def lift_vec(v, src):
        return np.array([lift_up(src, ring3, int(c)) for c in v],
                        dtype=np.int64)

    r_i = A3.rank(i)
    r_i1 = A3.rank(i + 1)
    basis = sym_basis(r_i, p)
    # lift of F*(x) into the divided power level: constant slots
    const_index = {j: basis.index((j,) * p) for j in range(r_i)}
    x3 = lift_vec(x_modp_full, resp)
    w = np.full(len(basis), ring3.zero, dtype=np.int64)
    for j in range(r_i):
        w[const_index[j]] = x3[j]
    # d_Gamma(w) via Gamma^p(coface)(e_const) = (f e_j)^(x p)
    tgt_basis = sym_basis(r_i1, p)
    tgt_index = {mono: t for t, mono in enumerate(tgt_basis)}
    y = np.full(len(tgt_basis), ring3.zero, dtype=np.int64)
    for idx in range(i + 2):
        d = A3.module.d(i + 1, idx)
        sgn = ring3.from_int((-1) ** idx)
        for j in range(r_i):
            cj = int(w[const_index[j]])
            if cj == ring3.zero:
                continue
            col = d.data[:, j]
            support = [(v, int(col[v])) for v in range(r_i1)
                       if col[v] != ring3.zero]
            # expand (sum c_v e_v)^(tensor p) over the orbit basis
            for mono_combo in combinations_with_replacement(support, p):
                mono = tuple(sorted(v for v, _ in mono_combo))
                coef = ring3.one
                for v, cv in mono_combo:
                    coef = ring3.mul(coef, cv)
                contrib = ring3.mul(ring3.mul(sgn, cj), coef)
                t = tgt_index[mono]
                y[t] = ring3.add(int(y[t]), contrib)
    # solve the diagonal norm N z = y (z is 0 where y is)
    z = np.full(len(tgt_basis), ring3.zero, dtype=np.int64)
    for t, mono in enumerate(tgt_basis):
        yt = int(y[t])
        if yt == ring3.zero:
            continue
        nval = multiset_multiplicity_factorials(mono)
        v = 0
        nn = nval
        while nn % p == 0:
            nn //= p
            v += 1
        if v:
            if ring3.valuation(yt) < v:
                raise AssertionError("norm solve fails: connecting is not "
                                     "defined")
            yt = _exact_divide(ring3, yt, v)
        z[t] = ring3.mul(yt, ring3.inv(ring3.from_int(nn)))
    # lhs = mu(z) mod p
    lhs3 = np.full(r_i1, ring3.zero, dtype=np.int64)
    for t, mono in enumerate(tgt_basis):
        if z[t] == ring3.zero:
            continue
        ej = np.full(r_i1, ring3.zero, dtype=np.int64)
        prod = A3.unit(i + 1)
        for v in mono:
            ej[:] = ring3.zero
            ej[v] = ring3.one
            prod = A3.multiply(i + 1, prod, ej)
        lhs3 = ring3.vadd(lhs3, ring3.vscale(int(z[t]), prod))
    lhs = reduce_vec(lhs3, resp)
    # rhs = Bock(phi(x)) via the Z/p^2 reduction
    phi_x3 = np.full(r_i, ring3.zero, dtype=np.int64)
    for j in range(r_i):
        if x3[j] == ring3.zero:
            continue
        ej = np.full(r_i, ring3.zero, dtype=np.int64)
        ej[j] = ring3.one
        power = A3.unit(i)
        for _ in range(p):
            power = A3.multiply(i, power, ej)
        phi_x3 = ring3.vadd(phi_x3, ring3.vscale(int(x3[j]), power))
    rhs = bockstein(A3.module.coboundary(i, slice(None)),
                    reduce_vec(phi_x3, resp))
    return lhs, rhs

