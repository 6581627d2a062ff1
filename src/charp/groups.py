"""Finite groups as dense multiplication tables, and their linear actions.

Groups are built by explicit constructors (cyclic groups, semidirect
products, matrix groups generated to closure).  Elements are
integer indices into the table; optional labels keep constructors
readable.  A GModule carries one action matrix per element over a coded
ring; lattice actions (Z^m) are handled separately in :mod:`charp.gcoh`.
"""

import random

import numpy as np

from .config import DEFAULT, BudgetExceeded
from .linalg import Mat


class FiniteGroup:
    def __init__(self, table, labels=None, generators=None, check=True):
        self.table = np.asarray(table, dtype=np.int64)
        self.order = self.table.shape[0]
        self.labels = labels
        self.generators = generators or []
        self.identity = self._find_identity()
        self.inverse = self._build_inverses()
        if check:
            self.validate()

    def _find_identity(self):
        for e in range(self.order):
            if np.array_equal(self.table[e], np.arange(self.order)) and \
                    np.array_equal(self.table[:, e], np.arange(self.order)):
                return e
        raise ValueError("no identity element")

    def _build_inverses(self):
        inv = np.full(self.order, -1, dtype=np.int64)
        for g in range(self.order):
            hits = np.nonzero(self.table[g] == self.identity)[0]
            if hits.size != 1 or self.table[hits[0], g] != self.identity:
                raise ValueError(f"element {g} has no two-sided inverse")
            inv[g] = hits[0]
        return inv

    def validate(self):
        """(ab)c == a(bc) on all triples, or on 10000 seeded ones if n > 100."""
        n, T = self.order, self.table
        if n <= 100:
            if not all(np.array_equal(T[T[a]], T[a][T]) for a in range(n)):
                raise ValueError("associativity fails")
        else:
            rng = random.Random(0)
            a, b, c = np.array([rng.randrange(n) for _ in range(30000)],
                               dtype=np.int64).reshape(-1, 3).T
            if not np.array_equal(T[T[a, b], c], T[a, T[b, c]]):
                raise ValueError("associativity fails (spot check)")

    def mul(self, a, b):
        return int(self.table[a, b])

    def inv(self, a):
        return int(self.inverse[a])

    def elements(self):
        return range(self.order)

    def __repr__(self):
        return f"FiniteGroup(order {self.order})"


def cyclic_group(n, budget=None):
    """Z/n; refuses (:func:`check_table_budget`) before it builds the
    table."""
    check_table_budget(n, budget)
    table = np.add.outer(np.arange(n), np.arange(n)) % n
    return FiniteGroup(table, labels=list(range(n)), generators=[1 % n])


def semidirect_product(H, A, act, budget=None):
    """H acting on A: act[h] is a permutation array on A's indices.

    Elements are pairs (h, a) with (h1,a1)(h2,a2) = (h1 h2, act[h2^-1](a1) a2)
    -- i.e. A is normal and H acts by the given automorphisms.  The pair
    (h, a) has index h |A| + a.  Refuses (:func:`check_table_budget`)
    before it builds the table.
    """
    n, m = H.order, A.order
    check_table_budget(n * m, budget)
    # moved[a1, h2] = act[h2^-1](a1)
    moved = np.array([act[H.inv(h2)] for h2 in range(n)], dtype=np.int64).T
    table = H.table[:, None, :, None] * m + \
        A.table[moved[None, :, :, None], np.arange(m)]
    return FiniteGroup(table.reshape(n * m, n * m), check=n * m <= 400)


class ElementaryAbelian(FiniteGroup):
    """(Z/p)^m with labelled vectors and the coordinate generators; refuses
    (:func:`check_table_budget`) before it builds the table."""

    def __init__(self, p, m, budget=None):
        check_table_budget(p ** m, budget)
        self.p = p
        self.m = m
        # element i has the base-p digits of i as its coordinates
        self._pows = p ** np.arange(m, dtype=np.int64)
        V = np.arange(p ** m, dtype=np.int64)[:, None] // self._pows % p
        self._coords = V
        self._vecs = list(map(tuple, V.tolist()))
        self._index = {v: i for i, v in enumerate(self._vecs)}
        # digitwise addition mod p, one coordinate at a time
        table = np.zeros((p ** m, p ** m), dtype=np.int64)
        for k, pk in enumerate(self._pows):
            table += (V[:, None, k] + V[None, :, k]) % p * pk
        super().__init__(table, labels=self._vecs,
                         generators=[int(x) for x in self._pows],
                         check=p ** m <= 100)

    def vector(self, idx):
        return self._vecs[idx]

    def from_vector(self, vec):
        return self._index[tuple(x % self.p for x in vec)]

    def automorphism_from_matrix(self, mat):
        """Permutation of element indices induced by a matrix in GL_m(F_p)."""
        mat = np.asarray(mat, dtype=np.int64)
        return self._coords @ mat.T % self.p @ self._pows


def check_table_budget(order, budget=None):
    """Raise BudgetExceeded when a group of this order is over
    ``budget.max_group_order`` or its |G|^2 table over ``budget.max_cells``
    cells."""
    budget = budget or DEFAULT
    if order > budget.max_group_order:
        raise BudgetExceeded(f"group order {order} over budget "
                             f"{budget.max_group_order}")
    if order * order > budget.max_cells:
        raise BudgetExceeded(f"group table needs {order * order} cells; "
                             f"budget {budget.max_cells}")


def matrix_group(ring, gens):
    """Closure of invertible matrices over a coded ring, breadth first.

    Elements are keyed by the bytes of their codes.  Each level takes one
    product per generator, the level's elements stacked times it; the
    table is one product, all elements stacked times all side by side.
    The closure stops with BudgetExceeded (:func:`check_table_budget`,
    default budget) as soon as it outgrows the budget, before the table
    is built.
    """
    n = gens[0].rows
    elems = [Mat.identity(ring, n).data]
    index = {elems[0].tobytes(): 0}
    level = elems
    while level:
        stack = np.concatenate(level)
        prods = [ring.vmatmul(stack, g.data).reshape(-1, n, n)
                 for g in gens]
        level = []
        for m in range(len(prods[0])):
            for prod in prods:
                k = prod[m].tobytes()
                if k not in index:
                    index[k] = len(elems)
                    elems.append(prod[m])
                    level.append(prod[m])
                    check_table_budget(len(elems))
    size = len(elems)
    E = np.array(elems)
    blocks = ring.vmatmul(E.reshape(size * n, n),
                          E.transpose(1, 0, 2).reshape(n, size * n))
    # block (a, b) of the product is a b
    keys = blocks.reshape(size, n, size, n).transpose(0, 2, 1, 3).reshape(
        size * size, n * n)
    table = np.array([index[k.tobytes()] for k in keys]).reshape(size, size)
    G = FiniteGroup(table, labels=[Mat(ring, e) for e in elems],
                    check=size <= 100)
    G.matrices = G.labels
    G.generators = [index[g.data.tobytes()] for g in gens]
    return G


def sl2_group(ring):
    """SL_2 over a finite field, generated by elementary matrices."""
    gens = []
    one = ring.one
    # multiplicative generators of the field give all elementary matrices
    for a in ring.elements():
        if a == ring.zero:
            continue
        gens.append(Mat(ring, [[one, a], [ring.zero, one]]))
        gens.append(Mat(ring, [[one, ring.zero], [a, one]]))
    return matrix_group(ring, gens)


class GModule:
    """A finite group acting linearly on a free coded-ring module."""

    def __init__(self, group, ring, mats, check=True):
        self.group = group
        self.ring = ring
        self.rank = mats[group.identity].rows
        self.mats = list(mats)
        if check:
            self.validate()

    def validate(self):
        G = self.group
        ident = self.mats[G.identity]
        if not (ident - Mat.identity(self.ring, self.rank)).is_zero():
            raise ValueError("identity does not act as identity")
        rng = random.Random(1)
        pairs = [(a, b) for a in G.elements() for b in G.elements()] \
            if G.order <= 30 else \
            [(rng.randrange(G.order), rng.randrange(G.order))
             for _ in range(400)]
        for a, b in pairs:
            lhs = self.mats[a] @ self.mats[b]
            if not (lhs - self.mats[G.mul(a, b)]).is_zero():
                raise ValueError("action is not a homomorphism")

    def act(self, g):
        return self.mats[g]

    @classmethod
    def from_function(cls, group, ring, fn, check=True):
        return cls(group, ring, [fn(g) for g in group.elements()],
                   check=check)
