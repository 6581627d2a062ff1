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

On top of these: semidirect reduction by averaging a prime-to-p group of
automorphisms.  The Bockstein along a ring lift of an engine's module is
:func:`charp.complexes.bockstein` applied to the lifted engine's
differential.
"""

import numpy as np

from .complexes import CochainComplex, slice_at
from .config import DEFAULT, BudgetExceeded
from .doldkan import _det
from .linalg import Mat, is_invertible, kron
from .rings import IntegerRing

# exact integers for lattice determinants (no prime is involved)
_ZZ = IntegerRing(None)


def _apply(ring, m, block):
    """The matrix m on an M-vector, or on each column of an (r, k) block."""
    return ring.vmatmul(m, block if block.ndim == 2 else block[:, None]
                        ).reshape(block.shape)


def _induced_matrix(sl, images):
    """Generator coordinates of the cochain images of sl's generators."""
    if not sl.is_cocycle(images):
        raise ValueError("automorphism action does not preserve "
                         "cocycles; incompatible (phi, u) pair")
    return Mat(sl.ring, sl.express(images))


# ---------------------------------------------------------------------------
# normalized bar complex

class BarEngine:
    """Normalized bar cochains of a finite group with GModule coefficients."""

    def __init__(self, G, M, degree_bound, budget=None):
        budget = budget or DEFAULT
        self.G = G
        self.M = M
        self.ring = M.ring
        self.D = degree_bound
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
        self.nontriv = [g for g in G.elements() if g != G.identity]
        self.tuples = {0: [()]}
        for k in range(1, degree_bound + 2):
            self.tuples[k] = [t + (g,) for t in self.tuples[k - 1]
                              for g in self.nontriv]
        self.index = {k: {t: i for i, t in enumerate(self.tuples[k])}
                      for k in self.tuples}
        diffs = [self._differential(k) for k in range(degree_bound + 1)]
        ranks = [len(self.tuples[k]) * M.rank
                 for k in range(degree_bound + 2)]
        self.complex = CochainComplex(self.ring, 0, ranks, diffs,
                                      check=False)
        self._slices = {}

    def _differential(self, k):
        """(df)(g_1..g_(k+1)) = g_1 f(g_2..) + sum (-1)^i f(..g_i g_(i+1)..)
        + (-1)^(k+1) f(g_1..g_k), on normalized cochains."""
        G, M, ring = self.G, self.M, self.ring
        r = M.rank
        rows = len(self.tuples[k + 1]) * r
        cols = len(self.tuples[k]) * r
        out = Mat.zeros(ring, rows, cols)
        idx_k = self.index[k]
        # the signed identity blocks of the middle and last terms
        ident = {sgn: Mat.identity(ring, r).scale(ring.from_int(sgn)).data
                 for sgn in (1, -1)}
        for ti, t in enumerate(self.tuples[k + 1]):
            row0 = ti * r
            # leading term with the module action
            rest = t[1:]
            if rest in idx_k:
                c0 = idx_k[rest] * r
                blk = M.act(t[0]).data
                out.data[row0:row0 + r, c0:c0 + r] = ring.vadd(
                    out.data[row0:row0 + r, c0:c0 + r], blk)
            # middle terms
            for i in range(k):
                merged = G.mul(t[i], t[i + 1])
                tt = t[:i] + (merged,) + t[i + 2:]
                if merged == G.identity or tt not in idx_k:
                    continue
                c0 = idx_k[tt] * r
                out.data[row0:row0 + r, c0:c0 + r] = ring.vadd(
                    out.data[row0:row0 + r, c0:c0 + r], ident[(-1) ** (i + 1)])
            # last term
            head = t[:-1]
            if head in idx_k:
                c0 = idx_k[head] * r
                out.data[row0:row0 + r, c0:c0 + r] = ring.vadd(
                    out.data[row0:row0 + r, c0:c0 + r], ident[(-1) ** (k + 1)])
        return out

    def slice(self, i):
        if i not in self._slices:
            self._slices[i] = slice_at(self.complex, i)
        return self._slices[i]

    def dims(self):
        return [self.slice(i).dim() for i in range(self.D + 1)]

    def cocycle_from_function(self, n, fn):
        """Vector of the normalized cochain t -> fn(*t) (M-coordinates)."""
        r = self.M.rank
        out = np.full(len(self.tuples[n]) * r, self.ring.zero,
                      dtype=np.int64)
        for ti, t in enumerate(self.tuples[n]):
            out[ti * r:(ti + 1) * r] = fn(*t)
        return out

    def evaluate(self, n, vec, t):
        """Value of a cochain vector on a tuple (normalized extension);
        an (r, k) block for the columns of an array of cochains."""
        r = self.M.rank
        vec = np.asarray(vec, dtype=np.int64)
        if any(g == self.G.identity for g in t):
            return np.full((r,) + vec.shape[1:], self.ring.zero,
                           dtype=np.int64)
        ti = self.index[n][tuple(t)]
        return vec[ti * r:(ti + 1) * r]

    def action_matrix(self, n, perm, module_map):
        """Matrix of (t.c)(g_1,..) = u c(phi^-1 g_1, ..) on H^n generators."""
        sl = self.slice(n)
        inv_perm = np.argsort(perm)
        r, gens = self.M.rank, sl.gens.data
        out = np.full_like(gens, self.ring.zero)
        for ti, t in enumerate(self.tuples[n]):
            src = tuple(int(inv_perm[g]) for g in t)
            out[ti * r:(ti + 1) * r] = _apply(
                self.ring, module_map.data, self.evaluate(n, gens, src))
        return _induced_matrix(sl, out)


# ---------------------------------------------------------------------------
# elementary abelian engine

def _multi_indices(m, n):
    if m == 1:
        return [(n,)]
    out = []
    for first in range(n + 1):
        for rest in _multi_indices(m - 1, n - first):
            out.append((first,) + rest)
    return sorted(out)


class PeriodicEngine:
    """Tensor-periodic resolution cohomology for A = (Z/p)^m.

    gen_mats: action matrices of the coordinate generators on the module
    (any coded ring; commuting, of multiplicative order dividing p).
    """

    def __init__(self, A, ring, gen_mats, degree_bound):
        self.A = A
        self.ring = ring
        self.p = A.p
        self.m = A.m
        self.D = degree_bound
        self.rank = gen_mats[0].rows
        self.gen_mats = gen_mats
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
        diffs = [self._differential(n) for n in range(degree_bound + 1)]
        ranks = [len(self.ws[n]) * self.rank
                 for n in range(degree_bound + 2)]
        self.complex = CochainComplex(ring, 0, ranks, diffs, check=True)
        self._slices = {}
        self._phi_memo = {(): {((0,) * self.m, A.identity): ring.one}}
        self._psi_memo = {((0,) * self.m): {(A.identity, ()): ring.one}}

    # -- the small cochain complex -------------------------------------------
    def _differential(self, n):
        ring, r = self.ring, self.rank
        src, tgt = self.ws[n], self.ws[n + 1]
        out = Mat.zeros(ring, len(tgt) * r, len(src) * r)
        for ti, w in enumerate(tgt):
            for j in range(self.m):
                if w[j] == 0:
                    continue
                w2 = w[:j] + (w[j] - 1,) + w[j + 1:]
                ci = self.w_index[n][w2]
                tau = self._tau_odd[j] if w[j] % 2 == 1 else \
                    self._tau_even[j]
                sgn = (-1) ** (sum(w[:j]) % 2)
                blk = tau.data if sgn == 1 else ring.vneg(tau.data)
                out.data[ti * r:(ti + 1) * r, ci * r:(ci + 1) * r] = \
                    ring.vadd(out.data[ti * r:(ti + 1) * r,
                                       ci * r:(ci + 1) * r], blk)
        return out

    def slice(self, i):
        if i not in self._slices:
            self._slices[i] = slice_at(self.complex, i)
        return self._slices[i]

    def dims(self):
        return [self.slice(i).dim() for i in range(self.D + 1)]

    def act(self, g):
        return self._act[g]

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
                    key = (neww, self.A.from_vector(
                        prefix_zero + (l,) + tail))
                    out[key] = ring.add(out.get(key, ring.zero), ring.one)
            else:
                if gj == p - 1:
                    key = (neww, self.A.from_vector(
                        prefix_zero + (0,) + tail))
                    out[key] = ring.add(out.get(key, ring.zero), ring.one)
        return out

    def _homotopy(self, elem):
        ring = self.ring
        out = {}
        for (w, g), coeff in elem.items():
            if coeff == ring.zero:
                continue
            for key, c in self._h_element(w, g).items():
                tot = ring.add(out.get(key, ring.zero), ring.mul(coeff, c))
                if tot == ring.zero:
                    out.pop(key, None)
                else:
                    out[key] = tot
        return out

    def _d_resolution(self, elem):
        """Differential of the resolution on a sparse F-element."""
        ring, p = self.ring, self.p
        out = {}

        def add(key, c):
            tot = ring.add(out.get(key, ring.zero), c)
            if tot == ring.zero:
                out.pop(key, None)
            else:
                out[key] = tot

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
                    add((w2, self.A.from_vector(tuple(g_up))), c)
                    add((w2, g), ring.neg(c))
                else:
                    for l in range(p):
                        g_up = list(gvec)
                        g_up[j] = (g_up[j] + l) % p
                        add((w2, self.A.from_vector(tuple(g_up))), c)
        return out

    # -- comparison maps -------------------------------------------------------
    def phi(self, t):
        """Phi_n([g_1|...|g_n]) in F_n, memoized (t: tuple of indices)."""
        t = tuple(t)
        if t in self._phi_memo:
            return self._phi_memo[t]
        ring = self.ring
        n = len(t)
        acc = {}

        def add_elem(elem, scale, left=None):
            for (w, g), coeff in elem.items():
                g2 = self.A.mul(left, g) if left is not None else g
                c = ring.mul(scale, coeff)
                key = (w, g2)
                tot = ring.add(acc.get(key, ring.zero), c)
                if tot == ring.zero:
                    acc.pop(key, None)
                else:
                    acc[key] = tot

        one, minus = ring.one, ring.neg(ring.one)
        add_elem(self.phi(t[1:]), one, left=t[0])
        for i in range(n - 1):
            merged = self.A.mul(t[i], t[i + 1])
            tt = t[:i] + (merged,) + t[i + 2:]
            add_elem(self.phi(tt), one if (i + 1) % 2 == 0 else minus)
        add_elem(self.phi(t[:-1]), one if n % 2 == 0 else minus)
        out = self._homotopy(acc)
        self._phi_memo[t] = out
        return out

    def psi(self, w):
        """Psi_n(e_w) in Bar_n: sparse {(prefactor g, tuple): coeff}."""
        w = tuple(w)
        if w in self._psi_memo:
            return self._psi_memo[w]
        ring = self.ring
        df = self._d_resolution({(w, self.A.identity): ring.one})
        acc = {}
        for (w2, g), coeff in df.items():
            lower = self.psi(w2)
            for (h, t), c in lower.items():
                # act by g, then apply the bar contraction
                h2 = self.A.mul(g, h)
                key = (self.A.identity, (h2,) + t)
                tot = ring.add(acc.get(key, ring.zero), ring.mul(coeff, c))
                if tot == ring.zero:
                    acc.pop(key, None)
                else:
                    acc[key] = tot
        self._psi_memo[w] = acc
        return acc

    # -- cochain transports ------------------------------------------------------
    def cocycle_from_function(self, n, fn):
        """F-cochain vector of a bar cochain evaluator fn(*tuple) -> M-vec.

        An evaluator of (r, k) blocks gives the (rank, k) array of the k
        F-cochains at once.
        """
        ring, r = self.ring, self.rank
        out = None
        for wi, w in enumerate(self.ws[n]):
            for (g, t), coeff in self.psi(w).items():
                val = np.asarray(fn(*t), dtype=np.int64)
                if out is None:
                    out = np.full((len(self.ws[n]) * r,) + val.shape[1:],
                                  ring.zero, dtype=np.int64)
                blk = out[wi * r:(wi + 1) * r]
                blk[...] = ring.vadd(blk, ring.vscale(
                    coeff, _apply(ring, self._act[g].data, val)))
        if out is None:
            return np.full(len(self.ws[n]) * r, ring.zero, dtype=np.int64)
        return out

    def evaluator_from_cocycle(self, n, vec):
        """Bar-cochain evaluator of an F-cochain vector; of (r, k) blocks
        for the columns of an array of F-cochains."""
        ring, r = self.ring, self.rank
        vec = np.asarray(vec, dtype=np.int64)

        def fn(*t):
            if len(t) != n:
                raise ValueError("wrong tuple length")
            acc = np.full((r,) + vec.shape[1:], ring.zero, dtype=np.int64)
            for (w, g), coeff in self.phi(t).items():
                wi = self.w_index[n][w]
                val = _apply(ring, self._act[g].data, vec[wi * r:(wi + 1) * r])
                acc = ring.vadd(acc, ring.vscale(coeff, val))
            return acc

        return fn

    def action_matrix(self, n, perm, module_map):
        """Induced matrix on H^n of (phi, u): (t.c)(g..) = u c(phi^-1 g..)."""
        sl = self.slice(n)
        inv_perm = np.argsort(perm)
        ev = self.evaluator_from_cocycle(n, sl.gens.data)

        def twisted(*t):
            return _apply(self.ring, module_map.data,
                          ev(*(int(inv_perm[g]) for g in t)))

        return _induced_matrix(sl, self.cocycle_from_function(n, twisted))


# ---------------------------------------------------------------------------
# lattice (Koszul) engine

class KoszulEngine:
    """H^*(Z^m, M) from the Koszul complex on B_j = rho(e_j) - 1."""

    def __init__(self, ring, gen_mats, degree_bound=None):
        from itertools import combinations
        self.ring = ring
        self.m = len(gen_mats)
        self.rank = gen_mats[0].rows
        self.gen_mats = gen_mats
        for i, g in enumerate(gen_mats):
            if not is_invertible(g):
                raise ValueError(f"lattice generator {i} not invertible")
            for h in gen_mats[i + 1:]:
                if not (g @ h - h @ g).is_zero():
                    raise ValueError("lattice generators do not commute")
        self.D = self.m if degree_bound is None else degree_bound
        self.B = [g - Mat.identity(ring, self.rank) for g in gen_mats]
        self.subsets = {i: list(combinations(range(self.m), i))
                        for i in range(self.m + 1)}
        self.sub_index = {i: {s: k for k, s in enumerate(self.subsets[i])}
                          for i in self.subsets}
        diffs = [self._differential(i) for i in range(self.m)]
        ranks = [len(self.subsets[i]) * self.rank
                 for i in range(self.m + 1)]
        self.complex = CochainComplex(ring, 0, ranks, diffs, check=True)
        self._slices = {}

    def _differential(self, i):
        ring, r = self.ring, self.rank
        src, tgt = self.subsets[i], self.subsets[i + 1]
        out = Mat.zeros(ring, len(tgt) * r, len(src) * r)
        for ti, J in enumerate(tgt):
            for pos, j in enumerate(J):
                rest = J[:pos] + J[pos + 1:]
                ci = self.sub_index[i][rest]
                blk = self.B[j].data if pos % 2 == 0 else \
                    ring.vneg(self.B[j].data)
                out.data[ti * r:(ti + 1) * r, ci * r:(ci + 1) * r] = blk
        return out

    def slice(self, i):
        if i not in self._slices:
            self._slices[i] = slice_at(self.complex, i)
        return self._slices[i]

    def dims(self):
        return [self.slice(i).dim() for i in range(self.m + 1)]

    def cocycle_from_values(self, values):
        """Degree-1 cocycle from the values c(e_j); checks the condition."""
        vec = np.concatenate([np.asarray(v, dtype=np.int64)
                              for v in values])
        sl = self.slice(1)
        if not sl.is_cocycle(vec):
            raise ValueError("values do not satisfy the 1-cocycle relations")
        return vec

    def action_matrix(self, i, phi_int, module_map):
        """Action of (phi, u) on H^i: c -> u . c(Lambda^i phi^-1 .)."""
        ring, subs = self.ring, self.subsets[i]
        inv = _integer_inverse(np.asarray(phi_int, dtype=np.int64))
        minors = Mat(ring, [[ring.from_int(_det(_ZZ, list(Jp), list(J), inv))
                             for Jp in subs] for J in subs])
        sl = self.slice(i)
        return _induced_matrix(sl, (kron(minors, module_map) @ sl.gens).data)


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

def invariant_subspace(engine, i, action_pairs, require_prime_to_p=True):
    """Image of the averaging idempotent of a finite automorphism group.

    action_pairs: one (permutation-or-phi, module_map) per group element
    (the identity included).  Returns (dimension, basis matrix on H^i
    generator coordinates).
    """
    ring = engine.ring
    k = len(action_pairs)
    if require_prime_to_p and k % ring.p == 0:
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
    from .linalg import image_basis
    img = image_basis(avg)
    return img.cols, img


def closure_of_action(engine, i, gen_pairs, bound=10000):
    """Finite closure of induced H^i matrices of generator pairs.

    Returns the list of matrices of the generated group (for lattice
    contexts where the acting unit group is infinite but acts through a
    finite quotient on cohomology).
    """
    ring = engine.ring
    mats = [engine.action_matrix(i, phi, u) for phi, u in gen_pairs]
    h = mats[0].rows if mats else 0
    ident = Mat.identity(ring, h)
    seen = {tuple(ident.data.ravel()): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in mats:
                prod = m @ g
                key = tuple(prod.data.ravel())
                if key not in seen:
                    seen[key] = prod
                    nxt.append(prod)
                    if len(seen) > bound:
                        raise ValueError(
                            "induced action closure exceeds bound: the "
                            "action does not factor through a small "
                            "finite quotient")
        frontier = nxt
    return list(seen.values())


def invariants_of_matrices(ring, mats):
    """(dimension, basis) of the common fixed space of matrices on H-coords."""
    if not mats:
        return 0, None
    h = mats[0].rows
    if h == 0:
        return 0, Mat.zeros(ring, 0, 0)
    stacked = None
    for m in mats:
        diff = m - Mat.identity(ring, h)
        stacked = diff if stacked is None else stacked.vstack(diff)
    from .linalg import kernel_basis
    K = kernel_basis(stacked)
    return K.cols, K

