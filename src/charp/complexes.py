"""Bounded cochain complexes of finite free modules.

Cohomology is exact: reduced row echelon over fields, Smith-type
diagonalisation over Z/p^e and GR(p^e, r).  Every Bockstein in scope is
the connecting map of a mod-p reduction, and
:func:`bockstein` is the one lift-differentiate-divide that computes it:
the mod-p Bockstein of a free complex, the group-cohomology Bocksteins
along Z/p^2 and GR(4, 2) lifts, and the Bockstein side of the algebra
comparison in :mod:`charp.cosalg`.
"""

import numpy as np

from .linalg import (Mat, _exact_divide, free_kernel_basis, image_basis,
                     kernel_basis, quotient, rank, solver)
from .rings import coerce_down, lift_up


class CochainComplex:
    """Complex C^lo -> ... -> C^hi of free modules with d.d = 0.

    The differentials' arrays are frozen (read-only), so the cohomology
    slice that :meth:`slice` keeps for a degree cannot go stale.
    """

    def __init__(self, ring, lo, ranks, diffs, check=True):
        self.ring = ring
        self.lo = lo
        self.ranks = list(ranks)
        self.diffs = list(diffs)
        if len(self.diffs) != max(0, len(self.ranks) - 1):
            raise ValueError("need one differential per adjacent pair")
        for k, d in enumerate(self.diffs):
            if (d.rows, d.cols) != (self.ranks[k + 1], self.ranks[k]):
                raise ValueError(f"differential {k} has shape "
                                 f"{(d.rows, d.cols)}, expected "
                                 f"{(self.ranks[k + 1], self.ranks[k])}")
        if check:
            for k in range(len(self.diffs) - 1):
                if not (self.diffs[k + 1] @ self.diffs[k]).is_zero():
                    raise ValueError(f"d.d != 0 at degree {lo + k}")
        for d in self.diffs:
            d.freeze()
        self._slice_cache = {}

    @property
    def hi(self):
        return self.lo + len(self.ranks) - 1

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def rank(self, i):
        if self.lo <= i <= self.hi:
            return self.ranks[i - self.lo]
        return 0

    def d(self, i):
        """Differential C^i -> C^(i+1) (zero matrix outside range)."""
        k = i - self.lo
        if 0 <= k < len(self.diffs):
            return self.diffs[k]
        return Mat.zeros(self.ring, self.rank(i + 1), self.rank(i))

    def slice(self, i):
        """H^i, built on first use and kept; zero outside the range."""
        if i not in self._slice_cache:
            self._slice_cache[i] = CohomologySlice(self, i)
        return self._slice_cache[i]

    def is_cocycle(self, i, vec):
        """True when vec, or every column of an (n x k) array, is a
        cocycle in degree i."""
        return (self.d(i) @ _columns(self.ring, vec)).is_zero()

    def twist(self):
        """Frobenius twist: same ranks, entrywise-Frobenius differentials."""
        return CochainComplex(self.ring, self.lo, self.ranks,
                              [d.frobenius_entries() for d in self.diffs],
                              check=False)

    def __repr__(self):
        return (f"CochainComplex({self.ring}, deg [{self.lo},{self.hi}], "
                f"ranks {self.ranks})")


def shifted_module(ring, rank, deg=1):
    """R^rank[-deg]: a free module in degree deg, zero in degrees 0..deg-1."""
    ranks = [0] * deg + [rank]
    return CochainComplex(ring, 0, ranks,
                          [Mat.zeros(ring, ranks[k + 1], ranks[k])
                           for k in range(deg)])


class ComplexMap:
    """Degreewise map of complexes commuting with the differentials."""

    def __init__(self, source, target, components, check=True):
        self.source = source
        self.target = target
        self.components = dict(components)
        for i, f in self.components.items():
            if (f.rows, f.cols) != (target.rank(i), source.rank(i)):
                raise ValueError(f"component {i} has wrong shape")
        if check:
            self.validate()

    def component(self, i):
        if i in self.components:
            return self.components[i]
        return Mat.zeros(self.source.ring, self.target.rank(i),
                         self.source.rank(i))

    def validate(self):
        lo = min(self.source.lo, self.target.lo)
        hi = max(self.source.hi, self.target.hi)
        for i in range(lo, hi):
            f, g = self.components.get(i), self.components.get(i + 1)
            lhs = None if f is None else self.target.d(i) @ f
            rhs = None if g is None else g @ self.source.d(i)
            diff = rhs if lhs is None else lhs if rhs is None else lhs - rhs
            if diff is not None and not diff.is_zero():
                raise ValueError(f"map does not commute with d at degree {i}")


# ---------------------------------------------------------------------------
# cohomology

class CohomologySlice:
    """H^i of a complex: structure, generating cocycles, comparison data.

    Built by :meth:`CochainComplex.slice`; it keeps no reference to the
    complex.  ``im_solver`` is the solver of d^(i-1).
    """

    def __init__(self, complex_, degree):
        self.ring = complex_.ring
        d_in = complex_.d(degree - 1)
        self.im_solver = solver(d_in)
        self.gens, self.structure, self._coords = quotient(
            kernel_basis(complex_.d(degree)), d_in)

    def dim(self):
        """Dimension over a field; length of the factor list otherwise."""
        return len(self.structure.exponents)

    def is_coboundary(self, vec):
        return self.im_solver.in_image(vec)

    def classes_equal(self, v1, v2):
        return self.is_coboundary(self.ring.vsub(
            np.asarray(v1, dtype=np.int64), np.asarray(v2, dtype=np.int64)))

    def express(self, vec):
        """Coefficients of the class of vec over the generators.

        ``vec`` is a cocycle vector, or an (n x k) array of cocycle
        columns; the result is a vector, or the (h x k) coefficient array.
        """
        X = self._coords(_columns(self.ring, vec))
        if X is None:
            raise ValueError("not a cocycle class element")
        return _like(vec, X.data)


def _columns(ring, vec):
    """A vector as one column, or an (n x k) array as k columns."""
    vec = np.asarray(vec, dtype=np.int64)
    return Mat(ring, vec[:, None] if vec.ndim == 1 else vec)


def _like(vec, cols):
    """cols shaped like the input of :func:`_columns`."""
    return cols[:, 0] if np.ndim(vec) == 1 else cols


def cohomology_dims(C):
    """List of H^i dimensions over a field, for i in range, from ranks."""
    rk = {i: rank(C.d(i)) for i in range(C.lo - 1, C.hi + 1)}
    return [C.rank(i) - rk[i] - rk[i - 1] for i in C.degrees()]


# ---------------------------------------------------------------------------
# constructions

def truncate_le(C, n):
    """Canonical truncation: degrees <= n with C^n replaced by ker d^n.

    Returns (complex, K, restrict): K's columns are a basis of ker d^n,
    and ``restrict`` solves for coordinates over K (None outside ker d^n);
    both are None when n is outside [C.lo, C.hi).
    """
    if n >= C.hi:
        return C, None, None
    if n < C.lo:
        return CochainComplex(C.ring, C.lo, [], []), None, None
    K = free_kernel_basis(C.d(n))
    restrict = solver(K).solve_mat
    ranks = C.ranks[: n - C.lo] + [K.cols]
    diffs = list(C.diffs[: max(0, n - C.lo - 1)])
    if n > C.lo:
        X = restrict(C.d(n - 1))
        if X is None:
            raise ValueError("image of d^(n-1) not inside ker d^n")
        diffs.append(X)
    return (CochainComplex(C.ring, C.lo, ranks, diffs, check=False), K,
            restrict)


def truncate_ge(C, n):
    """Canonical truncation from below (fields only): kills H^(<n).

    Degree n becomes C^n / im d^(n-1), realised on a complement Q of the
    image; higher degrees are untouched.  Returns (complex, Q, project):
    the columns of Q are the section of the quotient at degree n, and
    ``project`` maps columns of C^n to their coordinates over Q along the
    image.  Both are None when n is outside (C.lo, C.hi].
    """
    if n <= C.lo:
        return C, None, None
    if n > C.hi:
        return CochainComplex(C.ring, n, [], []), None, None
    ring = C.ring
    B = image_basis(C.d(n - 1))
    # the pivots of [B | I] past B pick a complement; the same solver
    # projects along im(d)
    Q, _, project = quotient(Mat.identity(ring, C.rank(n)), B)
    ranks = [Q.cols] + C.ranks[n - C.lo + 1:]
    diffs = []
    if n < C.hi:
        diffs.append(Mat(ring, ring.vmatmul(C.d(n).data, Q.data)))
        diffs.extend(C.diffs[n - C.lo + 1:])
    return CochainComplex(ring, n, ranks, diffs, check=False), Q, project


def cone(f):
    """cone(f)^i = C^(i+1) (+) D^i with d = [[-d_C, 0], [f, d_D]]."""
    C, D = f.source, f.target
    ring = C.ring
    lo = min(C.lo - 1, D.lo)
    hi = max(C.hi - 1, D.hi)
    ranks = [C.rank(i + 1) + D.rank(i) for i in range(lo, hi + 1)]
    diffs = []
    for i in range(lo, hi):
        rc1, rd = C.rank(i + 1), D.rank(i)
        rc2, rd2 = C.rank(i + 2), D.rank(i + 1)
        m = Mat.zeros(ring, rc2 + rd2, rc1 + rd)
        dc = C.d(i + 1)
        m.data[:rc2, :rc1] = ring.vneg(dc.data)
        m.data[rc2:, :rc1] = f.component(i + 1).data
        m.data[rc2:, rc1:] = D.d(i).data
        diffs.append(m)
    return CochainComplex(ring, lo, ranks, diffs)


# ---------------------------------------------------------------------------
# the Bockstein

def bockstein(d, z):
    """(d . lift z) / p over the residue ring: the Bockstein of z.

    ``d`` is a differential over Z/p^e or GR(p^e, r) with e >= 2, ``z`` a
    vector over ``d.ring.residue_ring()`` (a cocycle of the reduced
    complex), lifted entrywise along the canonical section.  Raises
    ValueError when an entry of d(lift z) is not divisible by p.
    """
    ring = d.ring
    if ring.e < 2:
        raise ValueError("the Bockstein needs Z/p^e or GR(p^e, r), e >= 2")
    res = ring.residue_ring()
    lift = np.array([lift_up(res, ring, int(c)) for c in z], dtype=np.int64)
    dz = (d @ Mat(ring, lift[:, None])).data[:, 0]
    out = np.empty(dz.shape[0], dtype=np.int64)
    for k, c in enumerate(dz):
        if ring.valuation(int(c)) < 1:
            raise ValueError("d(lift z) is not divisible by p; "
                             "z is not a cocycle mod p")
        out[k] = coerce_down(ring, res, _exact_divide(ring, int(c), 1))
    return out
