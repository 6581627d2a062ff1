"""Group cohomology engines.

Three exact engines over coded rings.  Each holds its cochain complex as
``complex``, and :meth:`charp.complexes.CochainComplex.slice` builds and
keeps its cohomology slices:

- :class:`BarEngine`: the normalized inhomogeneous bar complex of a finite
  group (entry differentials; budget-guarded in dense cells).
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

from .complexes import CochainComplex
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


def _apply_each(ring, us, vals):
    """us[k] on each r-row block of the k-th cochain: a (K, r, r) stack of
    module maps on a (..., K, r, h) stack of blocks, by r products and
    r - 1 sums of entries whatever K is."""
    out = None
    for b in range(us.shape[2]):
        term = ring.vmul(us[:, :, b, None], vals[..., b:b + 1, :])
        out = term if out is None else ring.vadd(out, term)
    return out


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


class _Engine:
    """A cochain complex of r x r blocks over a list of bases (one per
    degree); its slices are ``complex.slice(i)``, read in degrees 0..D."""

    def _build(self, r, bases, D, check):
        diffs = [self._differential(k, r, (len(tgt), len(src)))
                 for k, (src, tgt) in enumerate(zip(bases, bases[1:]))]
        self.complex = CochainComplex(self.ring, 0,
                                      [len(b) * r for b in bases], diffs,
                                      check=check)
        self.D = D

    def _differential(self, k, r, shape):
        """d^k from the (block row, block column, block) terms of
        ``_d_terms``."""
        return _block_matrix(self.ring, r, shape, self._d_terms(k))

    def dims(self):
        return [self.complex.slice(i).dim() for i in range(self.D + 1)]


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
        self._nontriv = np.array([g for g in G.elements()
                                  if g != G.identity], dtype=np.int64)
        # the base-n digits of the k-tuples of non-identity elements, in
        # lex order: tuple entries are nontriv[digits]; the cochain
        # degrees 0..degree_bound also keep their tuples
        self._digits = {k: np.indices((n,) * k).reshape(k, n ** k).T
                        for k in range(degree_bound + 2)}
        self.tuples = {k: list(map(tuple, self._nontriv[D].tolist()))
                       for k, D in self._digits.items() if k <= degree_bound}
        self._mats = np.array([m.data for m in M.mats], dtype=np.int64)
        self._build(M.rank, list(self._digits.values()), degree_bound,
                    check=False)

    def _differential(self, k, r, shape):
        """(df)(g_1..g_(k+1)) = g_1 f(g_2..) + sum (-1)^i f(..g_i g_(i+1)..)
        + (-1)^(k+1) f(g_1..g_k), on normalized cochains, as entries: each
        row's face block columns (-1: a merge to the identity, degenerate)
        and r x r blocks; a face on an earlier one's column adds into it."""
        G, ring, D = self.G, self.ring, self._digits[k + 1]
        t = self._nontriv[D]
        pos = np.zeros(G.order, dtype=np.int64)
        pos[self._nontriv] = np.arange(len(self._nontriv))
        place = len(self._nontriv) ** np.arange(k - 1, -1, -1)
        ident, a = Mat.identity(ring, r).data, np.arange(r)
        col = np.empty((len(D), k + 2), dtype=np.int64)
        blk = np.empty((len(D), k + 2, r, r), dtype=np.int64)
        col[:, 0], blk[:, 0] = D[:, 1:] @ place, self._mats[t[:, 0]]
        for i in range(1, k + 1):
            merged = G.table[t[:, i - 1], t[:, i]]
            face = np.hstack([D[:, :i - 1], pos[merged, None], D[:, i + 1:]])
            col[:, i] = np.where(merged != G.identity, face @ place, -1)
        col[:, k + 1] = D[:, :-1] @ place
        for f in range(1, k + 2):
            blk[:, f] = ring.vscale(ring.from_int((-1) ** f), ident)
            same = (col[:, :f] == col[:, f:f + 1]) & (col[:, f:f + 1] >= 0)
            at = np.flatnonzero(same.any(axis=1))
            to = same[at].argmax(axis=1)
            blk[at, to] = ring.vadd(blk[at, to], blk[at, f])
            col[at, f] = -1
        # axes (tuple, face, block row, block column)
        keep = np.broadcast_to(col[:, :, None, None] >= 0, blk.shape)
        rows = np.arange(len(D))[:, None, None, None] * r + a[:, None]
        cols = col[:, :, None, None] * r + a
        return Mat.from_entries(ring, (shape[0] * r, shape[1] * r),
                                *(np.broadcast_to(x, blk.shape)[keep]
                                  for x in (rows, cols, blk)))

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
        # the action matrix of each element sum e_j p^j, prod_j gen_j^(e_j),
        # stacked: one product per power of a generator on all before it
        acts = Mat.identity(ring, self.rank).data[None]
        for g in gen_mats:
            powers = [acts]
            for _ in range(self.p - 1):
                powers.append(ring.vmatmul(powers[-1].reshape(-1, self.rank),
                                           g.data).reshape(acts.shape))
            acts = np.concatenate(powers)
        self._act = acts
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
                    (0, self.w_index[n][w], ring.vscale(c, self._act[g]))
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

    def action_matrix(self, n, pairs):
        """Induced matrices on H^n of (phi, u) pairs, one per pair:
        (t.c)(g..) = u c(phi^-1 g..), as (u on each block) . P_n . Phi_n
        rows at phi^-1(T_n).  All pairs go through one evaluate, one P_n
        product, one cocycle check and one express."""
        sl, (T, P) = self.complex.slice(n), self._psi_matrix(n)
        K, r, h = len(pairs), self.rank, sl.gens.cols
        perms = np.array([perm for perm, _ in pairs], dtype=np.int64)
        src = np.argsort(perms, axis=1)[:, np.asarray(T, dtype=np.int64)]
        vals = self.evaluate(n, sl.gens.data,
                             src.reshape(K * len(T), n).tolist())
        blocks = _combine_blocks(self.ring, P, vals.reshape(
            K, len(T), r, h).transpose(1, 0, 2, 3))
        twisted = _apply_each(self.ring, np.array(
            [u.data for _, u in pairs], dtype=np.int64), blocks)
        images = twisted.transpose(0, 2, 1, 3).reshape(len(P) * r, K * h)
        if not self.complex.is_cocycle(n, images):
            raise ValueError("automorphism action does not preserve "
                             "cocycles; incompatible (phi, u) pair")
        coeffs = sl.express(images).reshape(h, K, h).transpose(1, 0, 2)
        return [Mat(self.ring, c) for c in coeffs.copy()]


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
        if not self.complex.is_cocycle(1, vec):
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
    if engine.complex.slice(i).gens.cols == 0:
        return 0, Mat.zeros(ring, 0, 0)
    first, *rest = engine.action_matrix(i, action_pairs)
    avg = sum(rest, first).scale(ring.inv(ring.from_int(k)))
    # sanity: averaging is idempotent
    if not (avg @ avg - avg).is_zero():
        raise AssertionError("averaging operator is not idempotent")
    img = image_basis(avg)
    return img.cols, img
