"""Group cohomology engines.

Three exact engines, all producing :class:`charp.complexes.CohomologySlice`
objects over coded rings:

- :class:`BarEngine`: the normalized inhomogeneous bar complex of a finite
  group (dense; budget-guarded).
- :class:`PeriodicEngine`: for elementary abelian p-groups, the tensor
  product of two-periodic resolutions.  Carries explicit comparison maps
  to and from the bar resolution (built from contracting homotopies), so
  bar cocycles, automorphism actions and transfers all work at desk scale
  for groups as large as (Z/3)^4.
- :class:`KoszulEngine`: for lattices Z^m acting by commuting invertible
  matrices, the Koszul complex on rho(e_j) - 1.

On top of the periodic engine: semidirect reduction by averaging a
prime-to-p group of automorphisms.  The Bockstein along a ring lift of an
engine's module is :func:`charp.complexes.bockstein` applied to the
lifted engine's differential.
"""

import numpy as np

from .complexes import CochainComplex, slice_at
from .config import DEFAULT, BudgetExceeded
from .doldkan import _det, monomials
from .linalg import Mat, image_basis, is_invertible, kron
from .rings import IntegerRing

# exact integers for lattice determinants (no prime is involved)
_ZZ = IntegerRing(None)


def _apply(ring, m, block):
    """The matrix m on a vector, or on each column of a (rows, k) block."""
    return ring.vmatmul(m, block if block.ndim == 2 else block[:, None]
                        ).reshape(m.shape[:1] + block.shape[1:])


def _apply_blocks(ring, u, vals):
    """u on each r-row block of an (N*r, k) stack, as one product of u with
    the blocks side by side (no kron(I_N, u))."""
    r, k = u.shape[0], vals.shape[1]
    N = vals.shape[0] // r
    side = vals.reshape(N, r, k).transpose(1, 0, 2).reshape(r, N * k)
    return ring.vmatmul(u, side).reshape(r, N, k).transpose(1, 0, 2
                                                          ).reshape(N * r, k)


def _combine_blocks(ring, P, vals):
    """Block i of the result is the sum over j of P[i, j] times block j of
    vals: the scalar matrix P on equal row blocks (no kron(P, I_r))."""
    return ring.vmatmul(P, vals.reshape(P.shape[1], -1)).reshape(
        (-1,) + vals.shape[1:])


def _block_matrix(ring, r, shape, terms):
    """The matrix of shape[0] x shape[1] blocks of size r x r that sums the
    r x r array of each (block row, block column, array) term."""
    out = Mat.zeros(ring, shape[0] * r, shape[1] * r)
    for i, j, blk in terms:
        cell = out.data[i * r:(i + 1) * r, j * r:(j + 1) * r]
        cell[...] = ring.vadd(cell, blk)
    return out


def _sparse_add(ring, acc, key, c):
    """acc[key] += c in a sparse {key: coefficient} dict, dropping zeros."""
    tot = ring.add(acc.get(key, ring.zero), c)
    if tot == ring.zero:
        acc.pop(key, None)
    else:
        acc[key] = tot


def _induced_matrix(sl, images):
    """Generator coordinates of the cochain images of sl's generators."""
    if not sl.is_cocycle(images):
        raise ValueError("automorphism action does not preserve "
                         "cocycles; incompatible (phi, u) pair")
    return Mat(sl.ring, sl.express(images))


class _Engine:
    """A cochain complex of r x r blocks over a list of bases (one per
    degree), with cohomology slices in degrees 0..D built on demand."""

    def _build(self, r, bases, D, check):
        diffs = [_block_matrix(self.ring, r, (len(tgt), len(src)),
                               self._d_terms(k))
                 for k, (src, tgt) in enumerate(zip(bases, bases[1:]))]
        self.complex = CochainComplex(self.ring, 0,
                                      [len(b) * r for b in bases], diffs,
                                      check=check)
        self.D = D
        self._slices = {}

    def slice(self, i):
        if i not in self._slices:
            self._slices[i] = slice_at(self.complex, i)
        return self._slices[i]

    def dims(self):
        return [self.slice(i).dim() for i in range(self.D + 1)]


# ---------------------------------------------------------------------------
# normalized bar complex

def bar_faces(mul, t):
    """The faces of the inhomogeneous bar tuple t = (g_1, ..., g_n), face i
    taken with sign (-1)^i: face 0 is t[1:] (acted on by g_1), face i for
    0 < i < n merges g_i g_(i+1), face n is t[:-1]."""
    return [t[1:]] + [t[:i - 1] + (mul(t[i - 1], t[i]),) + t[i + 1:]
                      for i in range(1, len(t))] + [t[:-1]]


class BarEngine(_Engine):
    """Normalized bar cochains of a finite group with GModule coefficients."""

    def __init__(self, G, M, degree_bound, budget=None):
        budget = budget or DEFAULT
        self.G = G
        self.M = M
        self.ring = M.ring
        if G.order > budget.max_group_order:
            raise BudgetExceeded(
                f"group order {G.order} over budget "
                f"{budget.max_group_order}")
        n = G.order - 1
        cells = sum((n ** k) * (n ** (k + 1)) * M.rank * M.rank
                    for k in range(degree_bound + 1))
        if cells > budget.max_cells:
            raise BudgetExceeded(
                f"normalized bar complex needs ~{cells} matrix cells; "
                f"budget {budget.max_cells}")
        nontriv = [g for g in G.elements() if g != G.identity]
        self.tuples = {0: [()]}
        for k in range(1, degree_bound + 2):
            self.tuples[k] = [t + (g,) for t in self.tuples[k - 1]
                              for g in nontriv]
        self.index = {k: {t: i for i, t in enumerate(self.tuples[k])}
                      for k in self.tuples}
        self._build(M.rank, [self.tuples[k] for k in range(degree_bound + 2)],
                    degree_bound, check=False)

    def _d_terms(self, k):
        """(df)(g_1..g_(k+1)) = g_1 f(g_2..) + sum (-1)^i f(..g_i g_(i+1)..)
        + (-1)^(k+1) f(g_1..g_k), on normalized cochains."""
        G, idx = self.G, self.index[k]
        # the signed identity blocks of the middle and last terms
        ident = {sgn: Mat.identity(self.ring, self.M.rank).scale(
            self.ring.from_int(sgn)).data for sgn in (1, -1)}
        for ti, t in enumerate(self.tuples[k + 1]):
            faces = bar_faces(G.mul, t)
            yield ti, idx[faces[0]], self.M.act(t[0]).data
            for i, face in enumerate(faces[1:], 1):
                # a merged identity is degenerate: not in idx
                if face in idx:
                    yield ti, idx[face], ident[(-1) ** i]

    def cocycle_from_function(self, n, fn):
        """Vector of the normalized cochain t -> fn(*t) (M-coordinates)."""
        return np.concatenate([np.asarray(fn(*t), dtype=np.int64)
                               for t in self.tuples[n]])


# ---------------------------------------------------------------------------
# elementary abelian engine

def _multi_indices(m, n):
    """The exponent vectors of the degree-n monomials in m variables, in
    lex order: reversed, the variable counts of the Sym^n basis."""
    counts = np.count_nonzero(
        monomials("sym", m, n)[:, :, None] == np.arange(m), axis=1)
    return list(map(tuple, counts[::-1].tolist()))


class PeriodicEngine(_Engine):
    """Tensor-periodic resolution cohomology for A = (Z/p)^m.

    gen_mats: action matrices of the coordinate generators on the module
    (any coded ring; commuting, of multiplicative order dividing p).
    Cochains move to and from the bar complex through the comparison maps
    Phi_n (bar to periodic) and Psi_n (periodic to bar), built from the
    contracting homotopies and applied as block matrices.
    """

    def __init__(self, A, ring, gen_mats, degree_bound):
        self.A = A
        self.ring = ring
        self.p = A.p
        self.m = A.m
        self.rank = gen_mats[0].rows
        for i, g in enumerate(gen_mats):
            power = g
            for _ in range(self.p - 1):
                power = power @ g
            if not (power - Mat.identity(ring, self.rank)).is_zero():
                raise ValueError(f"generator {i} has order above p")
            for h in gen_mats[i + 1:]:
                if not (g @ h - h @ g).is_zero():
                    raise ValueError("generator actions do not commute")
        # per-element action matrices
        self._act = {}
        for g in A.elements():
            vec = A.vector(g)
            m = Mat.identity(ring, self.rank)
            for j, e in enumerate(vec):
                for _ in range(e):
                    m = m @ gen_mats[j]
            self._act[g] = m
        # tau operators
        self._tau_odd = [g - Mat.identity(ring, self.rank)
                         for g in gen_mats]
        norms = []
        for g in gen_mats:
            acc = Mat.identity(ring, self.rank)
            tot = Mat.zeros(ring, self.rank, self.rank)
            for _ in range(self.p):
                tot = tot + acc
                acc = acc @ g
            norms.append(tot)
        self._tau_even = norms
        self.ws = {n: _multi_indices(self.m, n)
                   for n in range(degree_bound + 2)}
        self.w_index = {n: {w: i for i, w in enumerate(self.ws[n])}
                        for n in self.ws}
        self._build(self.rank, [self.ws[n] for n in range(degree_bound + 2)],
                    degree_bound, check=True)
        self._phi_memo = {(): {((0,) * self.m, A.identity): ring.one}}
        self._phi_rows_memo = {}
        self._psi_memo = {((0,) * self.m): {(): ring.one}}
        self._psi_mats = {}

    # -- the small cochain complex -------------------------------------------
    def _d_terms(self, n):
        for ti, w in enumerate(self.ws[n + 1]):
            for j in range(self.m):
                if w[j] == 0:
                    continue
                tau = self._tau_odd[j] if w[j] % 2 == 1 else \
                    self._tau_even[j]
                blk = tau.data if sum(w[:j]) % 2 == 0 else \
                    self.ring.vneg(tau.data)
                yield ti, self.w_index[n][w[:j] + (w[j] - 1,) + w[j + 1:]], blk

    # -- contracting homotopy of the tensor-periodic resolution ---------------
    def _h_element(self, w, g):
        """H applied to the basis element e_w . a^g (sparse output)."""
        ring, p = self.ring, self.p
        gvec = self.A.vector(g)
        out = {}
        for j in range(self.m):
            if j and w[j - 1] != 0:
                break          # a factor of positive degree blocks eta-eps
            wj, gj = w[j], gvec[j]
            neww = w[:j] + (wj + 1,) + w[j + 1:]
            prefix_zero = (0,) * j
            tail = gvec[j + 1:]
            if wj % 2 == 0:
                # h-even: a^i e -> (1 + a + ... + a^(i-1)) e
                for l in range(gj):
                    _sparse_add(ring, out, (neww, self.A.from_vector(
                        prefix_zero + (l,) + tail)), ring.one)
            elif gj == p - 1:
                _sparse_add(ring, out, (neww, self.A.from_vector(
                    prefix_zero + (0,) + tail)), ring.one)
        return out

    def _homotopy(self, elem):
        ring = self.ring
        out = {}
        for (w, g), coeff in elem.items():
            for key, c in self._h_element(w, g).items():
                _sparse_add(ring, out, key, ring.mul(coeff, c))
        return out

    def _d_resolution(self, elem):
        """Differential of the resolution on a sparse F-element."""
        ring, p = self.ring, self.p
        out = {}
        for (w, g), coeff in elem.items():
            gvec = self.A.vector(g)
            for j in range(self.m):
                if w[j] == 0:
                    continue
                sgn = (-1) ** (sum(w[:j]) % 2)
                c = coeff if sgn == 1 else ring.neg(coeff)
                w2 = w[:j] + (w[j] - 1,) + w[j + 1:]
                if w[j] % 2 == 1:
                    # (a_j - 1)
                    g_up = list(gvec)
                    g_up[j] = (g_up[j] + 1) % p
                    _sparse_add(ring, out,
                                (w2, self.A.from_vector(tuple(g_up))), c)
                    _sparse_add(ring, out, (w2, g), ring.neg(c))
                else:
                    for l in range(p):
                        g_up = list(gvec)
                        g_up[j] = (g_up[j] + l) % p
                        _sparse_add(ring, out,
                                    (w2, self.A.from_vector(tuple(g_up))), c)
        return out

    # -- comparison maps -------------------------------------------------------
    def phi(self, t):
        """Phi_n([g_1|...|g_n]) in F_n, memoized (t: tuple of indices)."""
        t = tuple(t)
        if t in self._phi_memo:
            return self._phi_memo[t]
        ring, A = self.ring, self.A
        signs = (ring.one, ring.neg(ring.one))
        faces = bar_faces(A.mul, t)
        acc = {}
        for (w, g), coeff in self.phi(faces[0]).items():
            _sparse_add(ring, acc, (w, A.mul(t[0], g)), coeff)
        for i, face in enumerate(faces[1:], 1):
            for key, coeff in self.phi(face).items():
                _sparse_add(ring, acc, key, ring.mul(signs[i % 2], coeff))
        out = self._homotopy(acc)
        self._phi_memo[t] = out
        return out

    def psi(self, w):
        """Psi_n(e_w) in Bar_n: sparse {tuple: coeff}.  The bar contraction
        moves each prefactor g into the tuple, so no term has one."""
        w = tuple(w)
        if w in self._psi_memo:
            return self._psi_memo[w]
        ring = self.ring
        acc = {}
        df = self._d_resolution({(w, self.A.identity): ring.one})
        for (w2, g), coeff in df.items():
            for t, c in self.psi(w2).items():
                _sparse_add(ring, acc, (g,) + t, ring.mul(coeff, c))
        self._psi_memo[w] = acc
        return acc

    def _psi_matrix(self, n):
        """(T_n, P_n): the sorted bar tuples that Psi_n reaches, and the
        scalar matrix of the coefficients c of the terms t: c of
        Psi_n(e_w).  Psi_n on cochains is P_n on whole r-row blocks."""
        if n not in self._psi_mats:
            psis = [self.psi(w) for w in self.ws[n]]
            T = sorted({t for ps in psis for t in ps})
            t_index = {t: i for i, t in enumerate(T)}
            P = np.full((len(psis), len(T)), self.ring.zero, dtype=np.int64)
            for wi, ps in enumerate(psis):
                for t, c in ps.items():
                    P[wi, t_index[t]] = c
            self._psi_mats[n] = T, P
        return self._psi_mats[n]

    def _phi_rows(self, n, tuples):
        """Rows of Phi_n at bar tuples: the block matrix whose (t, w) block
        is the sum of c . act[g] over the terms (w, g): c of Phi_n([t]).
        Each tuple's block row is built once per engine."""
        if any(len(t) != n for t in tuples):
            raise ValueError("wrong tuple length")
        ring, ws, rows = self.ring, self.ws[n], self._phi_rows_memo
        tuples = list(map(tuple, tuples))
        for t in tuples:
            if t not in rows:
                rows[t] = _block_matrix(ring, self.rank, (1, len(ws)), (
                    (0, self.w_index[n][w], ring.vscale(c, self._act[g].data))
                    for (w, g), c in self.phi(t).items())).data
        return np.array([rows[t] for t in tuples], dtype=np.int64).reshape(
            -1, len(ws) * self.rank)

    # -- cochain transports ------------------------------------------------------
    def cocycle_from_function(self, n, fn):
        """F-cochain vector of a bar cochain evaluator fn(*tuple) -> M-vec:
        P_n on the values at T_n.

        An evaluator of (r, k) blocks gives the (rank, k) array of the k
        F-cochains at once.
        """
        T, P = self._psi_matrix(n)
        return _combine_blocks(self.ring, P, np.concatenate(
            [np.asarray(fn(*t), dtype=np.int64) for t in T]))

    def evaluate(self, n, vec, tuples):
        """Values at bar tuples of the bar cochain of an F-cochain vector
        (or of each column of an array), stacked in blocks of rank rows."""
        return _apply(self.ring, self._phi_rows(n, tuples),
                      np.asarray(vec, dtype=np.int64))

    def action_matrix(self, n, perm, module_map):
        """Induced matrix on H^n of (phi, u): (t.c)(g..) = u c(phi^-1 g..),
        as P_n . (u on each block) . Phi_n rows at phi^-1(T_n)."""
        sl = self.slice(n)
        T, P = self._psi_matrix(n)
        src = np.argsort(perm)[np.asarray(T, dtype=np.int64)].tolist()
        twisted = _apply_blocks(self.ring, module_map.data,
                                self.evaluate(n, sl.gens.data, src))
        return _induced_matrix(sl, _combine_blocks(self.ring, P, twisted))


# ---------------------------------------------------------------------------
# lattice (Koszul) engine

class KoszulEngine(_Engine):
    """H^*(Z^m, M) from the Koszul complex on B_j = rho(e_j) - 1."""

    def __init__(self, ring, gen_mats):
        self.ring = ring
        self.m = len(gen_mats)
        self.rank = gen_mats[0].rows
        for i, g in enumerate(gen_mats):
            if not is_invertible(g):
                raise ValueError(f"lattice generator {i} not invertible")
            for h in gen_mats[i + 1:]:
                if not (g @ h - h @ g).is_zero():
                    raise ValueError("lattice generators do not commute")
        self.B = [g - Mat.identity(ring, self.rank) for g in gen_mats]
        self.subsets = {
            i: list(map(tuple, monomials("ext", self.m, i).tolist()))
            for i in range(self.m + 1)}
        self.sub_index = {i: {s: k for k, s in enumerate(self.subsets[i])}
                          for i in self.subsets}
        self._build(self.rank, [self.subsets[i] for i in range(self.m + 1)],
                    self.m, check=True)

    def _d_terms(self, i):
        for ti, J in enumerate(self.subsets[i + 1]):
            for pos, j in enumerate(J):
                blk = self.B[j].data if pos % 2 == 0 else \
                    self.ring.vneg(self.B[j].data)
                yield ti, self.sub_index[i][J[:pos] + J[pos + 1:]], blk

    def cocycle_from_values(self, values):
        """Degree-1 cocycle from the values c(e_j); checks the condition."""
        vec = np.concatenate([np.asarray(v, dtype=np.int64)
                              for v in values])
        sl = self.slice(1)
        if not sl.is_cocycle(vec):
            raise ValueError("values do not satisfy the 1-cocycle relations")
        return vec

    def cochain_action(self, i, phi_int, module_map):
        """Action of (phi, u) on K^i: c -> u . c(Lambda^i phi^-1 .), the
        Lambda^i phi^-1 minors tensor u."""
        ring, subs = self.ring, self.subsets[i]
        inv = _integer_inverse(np.asarray(phi_int, dtype=np.int64))
        minors = Mat(ring, [[ring.from_int(_det(_ZZ, list(Jp), list(J), inv))
                             for Jp in subs] for J in subs])
        return kron(minors, module_map)


def _integer_inverse(phi):
    n = phi.shape[0]
    det = _det(_ZZ, list(range(n)), list(range(n)), phi)
    if det not in (1, -1):
        raise ValueError("lattice automorphism must have det +-1")
    adj = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            rows = [r for r in range(n) if r != j]
            cols = [c for c in range(n) if c != i]
            adj[i, j] = ((-1) ** (i + j)) * _det(_ZZ, rows, cols, phi)
    return adj * det


# ---------------------------------------------------------------------------
# semidirect reduction

def invariant_subspace(engine, i, action_pairs):
    """Image of the averaging idempotent of a finite automorphism group
    acting on H^i of a :class:`PeriodicEngine`.

    action_pairs: one (permutation, module_map) per group element (the
    identity included); their number must be prime to p.  Returns
    (dimension, basis matrix on H^i generator coordinates).
    """
    ring = engine.ring
    k = len(action_pairs)
    if k % ring.p == 0:
        raise ValueError("|Phi| divisible by p; averaging not defined")
    sl = engine.slice(i)
    h = sl.gens.cols
    if h == 0:
        return 0, Mat.zeros(ring, 0, 0)
    total = Mat.zeros(ring, h, h)
    for perm, u in action_pairs:
        total = total + engine.action_matrix(i, perm, u)
    avg = total.scale(ring.inv(ring.from_int(k)))
    # sanity: averaging is idempotent
    if not (avg @ avg - avg).is_zero():
        raise AssertionError("averaging operator is not idempotent")
    img = image_basis(avg)
    return img.cols, img
