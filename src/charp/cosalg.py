"""Cosimplicial commutative algebras and their power operations.

The main inhabitants are nerve cochain algebras: levelwise rings of
functions on G^n with pointwise multiplication, whose conormalization is
the normalized bar complex.  On cohomology of any levelwise algebra over
F_p we provide:

- the Frobenius (the degree-0 operation),
- the degree-1 operation, computed by pushing the universal class of the
  norm fiber of Sym^p(F_p[-i]) through a cosimplicial realisation of the
  cocycle,
- the Witt-vector Bockstein: the connecting map of the levelwise sequence
  A -> W_2(A) -> A, computed with :class:`charp.rings.Witt2Ring` over one
  level of A (level vectors as the base, the algebra product as its
  multiplication),
- the mod-p comparison of a Z/p^2-algebra: multiplication against the
  norm-fiber lift versus Bockstein-after-Frobenius (checked through an
  exact Z/p^3 model; the Bockstein side is
  :func:`charp.complexes.bockstein`).
"""

from functools import lru_cache, partial

import numpy as np

from .complexes import CochainComplex, bockstein, cone, shifted_module
from .config import DEFAULT, BudgetExceeded
from .doldkan import (CosimplicialModule, IndexMap, PolyFunctor,
                      _check_power_budget, _sym_rank, coface_sum,
                      conormalize, conormalize_map, dold_kan, index_power,
                      monomials, natural_level_map, nondegenerate,
                      surjections)
from .linalg import Mat
from .rings import Ring, Witt2Ring, prime_field, ring_make


class CosimplicialAlgebra:
    """A cosimplicial module whose levels are commutative unital rings.

    ``multiply(n, u, v)`` multiplies level-n coordinate vectors, or two
    (rank, k) arrays column by column;
    ``diagonal`` marks function algebras (e_a e_b = delta e_a), where
    multiplication is pointwise.
    """

    def __init__(self, module, mult_tensors=None, units=None,
                 diagonal=False):
        self.module = module
        self.ring = module.ring
        self.diagonal = diagonal
        self._mult = mult_tensors
        self._units = units
        if not diagonal and mult_tensors is None:
            raise ValueError("need multiplication tensors or diagonal=True")

    def rank(self, n):
        return self.module.rank(n)

    def multiply(self, n, u, v):
        ring = self.ring
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if self.diagonal:
            return ring.vmul(u, v)
        out = np.full(u.shape, ring.zero, dtype=np.int64)
        for (a, b, c), coef in self._mult[n].items():
            out[c] = ring.vadd(out[c], ring.vscale(coef,
                                                   ring.vmul(u[a], v[b])))
        return out

    def unit(self, n):
        if self.diagonal:
            return np.full(self.rank(n), self.ring.one, dtype=np.int64)
        return self._units[n]

    def include_normalized(self, n, vec):
        """N^n coordinates (``conormalize(self.module).sel[n]``) -> level-n
        coordinates."""
        out = np.full(self.rank(n), self.ring.zero, dtype=np.int64)
        out[nondegenerate(self.module, n)] = np.asarray(vec, dtype=np.int64)
        return out


# ---------------------------------------------------------------------------
# nerve algebras

class NerveAlgebra(CosimplicialAlgebra):
    """Functions on G^n with pointwise product; conormalization is the
    normalized bar complex with trivial coefficients.

    Level n holds G^n as base-|G| numerals, first coordinate most
    significant.  Every coface and codegeneracy is an :class:`IndexMap`
    (:func:`_splice`): face i drops the first or last digit or multiplies
    digits i-1 and i, codegeneracy j inserts the identity at digit j.
    """

    def __init__(self, G, ring, L, budget=None):
        budget = budget or DEFAULT
        self.G = G
        self.L = L
        q = G.order
        # the index maps (level n: n + 1 cofaces if n >= 1, n + 1
        # codegeneracies if n < L, q^n entries each), and the largest dense
        # coface sum, level L-1 by L-2 in full_complex
        cells = sum((n + 1) * q ** n * ((n >= 1) + (n < L))
                    for n in range(L + 1)) + \
            (q ** (2 * L - 3) if L >= 2 else 0)
        if cells > budget.max_cells:
            raise BudgetExceeded(
                f"nerve algebra needs {cells} cells (index maps and a dense "
                f"coface); budget {budget.max_cells}")

        def pullback(n, at, width, lut, cols):
            return IndexMap(ring, _splice(q, n, at, width, lut),
                            np.full(q ** n, ring.one, dtype=np.int64), cols)

        products = G.table.ravel()
        cofaces = {(n, i): pullback(n, max(i - 1, 0), 1 if i in (0, n) else 2,
                                    None if i in (0, n) else products,
                                    q ** (n - 1))
                   for n in range(1, L + 1) for i in range(n + 1)}
        codegens = {(n, j): pullback(n, j, 0, np.array([G.identity]),
                                     q ** (n + 1))
                    for n in range(L) for j in range(n + 1)}
        module = CosimplicialModule(ring, [q ** n for n in range(L + 1)],
                                    cofaces, codegens)
        super().__init__(module, diagonal=True)

    def full_complex(self, D=None):
        """Unnormalized cochain complex (H^j correct for j <= D)."""
        D = self.L - 2 if D is None else min(D, self.L - 2)
        diffs = [self.module.coboundary(n, slice(None))
                 for n in range(D + 1)]
        return CochainComplex(self.ring, 0, self.module.ranks[:D + 2], diffs,
                              check=False)


def _splice(q, n, at, width, lut):
    """The n-digit base-q numerals 0..q^n - 1 with their ``width`` digits
    from digit ``at`` on (first digit most significant) replaced by one
    digit, ``lut`` at the numeral they form, or dropped if ``lut`` is
    None."""
    low = q ** (n - at - width)
    t = np.arange(q ** n, dtype=np.int64)
    head, tail = t // (low * q ** width), t % low
    if lut is None:
        return head * low + tail
    return (head * q + lut[t // low % q ** width]) * low + tail


class HClass:
    """A degree-``degree`` class of ``algebra``.  The operations take
    ``vec`` in N^degree coordinates and return level coordinates."""

    def __init__(self, algebra, degree, vec):
        self.algebra = algebra
        self.degree = degree
        self.vec = np.asarray(vec, dtype=np.int64)


def _products(A, n, X, monos):
    """The level-n products of the columns of X over each row of the
    (k, t) index array ``monos``, as the k columns of an array."""
    out = np.broadcast_to(A.unit(n)[:, None], (A.rank(n), len(monos)))
    for slots in monos.T:
        out = A.multiply(n, out, X[:, slots])
    return out


# ---------------------------------------------------------------------------
# Frobenius

def frobenius_level_matrix(A, n):
    """Matrix of x -> x^p on level n, as a linear map from the twist."""
    ring, r = A.ring, A.rank(n)
    return Mat(ring, _products(A, n, Mat.identity(ring, r).data,
                               np.repeat(np.arange(r)[:, None], ring.p, 1)))


# ---------------------------------------------------------------------------
# realizing a cocycle as a cosimplicial map out of DK(F_p[-i])

def _project(module, k, Z, lead):
    """N^k coordinates of the Dold-Kan projection of the level-k columns Z:
    (1 - d^k s^(k-1)) ... (1 - d^1 s^0) Z on the nondegenerate rows
    ``lead``.  Factor j kills the image of d^j and fixes N^k, so the
    product is the projection along the coface part (the dual of the
    simplicial product of (1 - s_j d_j), Weibel 8.3)."""
    Z = Mat(module.ring, Z)
    for j in range(1, k + 1):
        Z = Z - module.cofaces[(k, j)] @ (module.codegens[(k - 1, j - 1)] @ Z)
    return Z.data[lead]


def cosimplicial_map_from_cocycle(module, i, x_level_vec, L):
    """Levelwise matrices of the map DK(R[-i]) -> module sending the
    canonical generator to the given normalized degree-i cocycle.

    Level n is the solution y of the Dold-Kan decomposition
    y -> (P_N(A(sigma) y))_sigma, one column per slot [n] ->> [i], with x
    in its own slot and 0 elsewhere.  Ordered by (k, sigma), with block
    (k, sigma) read at its lead rows A(sigma).idx[N^k], the decomposition
    is unit lower triangular, so y comes by forward substitution; k < i
    blocks stay zero.  :func:`steenrod` validates the result.
    """
    ring = module.ring
    lead = {k: nondegenerate(module, k) for k in range(i, L + 1)}
    x = _project(module, i, np.asarray(x_level_vec, dtype=np.int64)[:, None],
                 lead[i])[:, 0]
    level_maps = []
    for n in range(L + 1):
        y = np.full((module.rank(n), len(surjections(n, i))), ring.zero,
                    dtype=np.int64)
        for k in range(i, n + 1):
            for t, sigma in enumerate(surjections(n, k)):
                op = module.surjection(sigma)
                res = ring.vneg(_project(module, k, (op @ Mat(ring, y)).data,
                                         lead[k]))
                if k == i:          # sigma is slot t
                    res[:, t] = ring.vadd(res[:, t], x)
                y[op.idx[lead[k]]] = res
        level_maps.append(Mat(ring, y))
    return level_maps


def validate_cosimplicial_map(module, level_maps, DK):
    """Check X o DK(alpha) = A(alpha) o X on cofaces and codegeneracies."""
    L = DK.L
    for n in range(1, L + 1):
        for idx in range(n + 1):
            lhs = level_maps[n] @ DK.d(n, idx)
            rhs = module.cofaces[(n, idx)] @ level_maps[n - 1]
            if not (lhs - rhs).is_zero():
                raise AssertionError(f"X fails coface {idx} at level {n}")
    for n in range(0, L):
        for j in range(n + 1):
            lhs = level_maps[n] @ DK.s(n, j)
            if lhs != module.codegens[(n, j)] @ level_maps[n + 1]:
                raise AssertionError(f"X fails codegeneracy {j} at {n}")


# ---------------------------------------------------------------------------
# universal classes of the norm fiber

@lru_cache(maxsize=None)
def _line_dold_kan(p, i, L):
    """dold_kan(F_p[-i], L), built and validated once per (p, i, L)."""
    return dold_kan(shifted_module(ring_make(prime_field(p)), 1, i), L)


@lru_cache(maxsize=None)
def universal_classes(p, i):
    """(U-conormalization, P0 cocycle, P1 cocycle) over F_p for degree i.

    P0 is the image of the canonical generator under Delta; P1 is the
    image of the top generator of the norm-fiber cohomology under the
    connecting map of the cone of the levelwise norm.
    """
    L = i + 2
    A = _line_dold_kan(p, i, L)
    ring = A.ring
    conorm_sym = conormalize(A, functor=PolyFunctor("sym", p))
    # Div and the norm stop at degree i + 1, all that H^i of the cone
    # reads: the norm at degree L would be a dense square of rank N^L
    conorm_div = conormalize(A, L - 1, PolyFunctor("div", p))
    conorm_dk = conormalize(A)
    # P0: Delta applied to the canonical generator of N^i(DK(F_p[-i]))
    delta_maps = [natural_level_map("Delta", ring, A.rank(n), p)
                  for n in range(L + 1)]
    dmap = conormalize_map(conorm_dk, conorm_sym, delta_maps,
                           twist_source=True)
    gen = np.full(conorm_dk.complex.rank(i), ring.zero, dtype=np.int64)
    if gen.shape[0] != 1:
        raise AssertionError("DK(F_p[-i]) conormalization is not a line")
    gen[0] = ring.one
    p0 = ring.vmatmul(dmap.component(i).data, gen[:, None])[:, 0]
    # P1: connecting of the cone of the norm
    norm_maps = [natural_level_map("N", ring, A.rank(n), p)
                 for n in range(L)]
    nmap = conormalize_map(conorm_sym, conorm_div, norm_maps)
    cn = cone(nmap)
    h = cn.slice(i)
    if h.gens.cols != 1:
        raise AssertionError(
            f"norm fiber H^{i} is {h.gens.cols}-dimensional, expected 1")
    cocycle = h.gens.data[:, 0]
    # cone^i = Sym^(i+1)-part (+) Div^i-part; the projection to Sym[1]
    sym_rank = conorm_sym.complex.rank(i + 1)
    p1 = np.asarray(cocycle[:sym_rank], dtype=np.int64)
    U = conorm_sym
    if not U.complex.is_cocycle(i + 1, p1):
        raise AssertionError("universal P1 representative is not a cocycle")
    return U, p0, p1


def steenrod(A, x, m, budget=None):
    """P^m on the class of a normalized cocycle, m in {0, 1}.

    Output: HClass in degree i + m, in full-level coordinates of A.
    """
    if m not in (0, 1):
        raise ValueError("only the degree-0 and degree-1 operations exist "
                         "here")
    ring = A.ring
    if ring.char != ring.p:
        raise ValueError("power operations need an F_p-algebra")
    p = ring.p
    i = x.degree
    L = i + 2
    if L > A.module.L:
        raise ValueError(f"algebra needs levels up to {L}")
    C = shifted_module(ring_make(prime_field(p)), 1, i)
    _check_power_budget(PolyFunctor("sym", p), C, L, budget or DEFAULT)
    U, p0, p1 = universal_classes(p, i)
    # realize x as a cosimplicial map and push the universal class
    full_vec = A.include_normalized(i, x.vec)
    level_maps = cosimplicial_map_from_cocycle(A.module, i, full_vec, L)
    validate_cosimplicial_map(A.module, level_maps, _line_dold_kan(p, i, L))
    # slot 0: the identity is the only surjection [i] ->> [i]
    if not np.array_equal(level_maps[i].data[:, 0],
                          np.asarray(full_vec, dtype=np.int64)):
        raise AssertionError("realized map does not restrict to the "
                             "cocycle at the identity slot")
    deg = i + m
    uni = p0 if m == 0 else p1
    # component at degree `deg` of mu o Sym^p(X) restricted to N-parts:
    # each basis monomial of N^deg expands through products in A
    X = level_maps[deg]
    comp = _products(A, deg, X.data,
                     monomials("sym", X.cols, p)[U.sel[deg]])
    vec = ring.vmatmul(comp, np.asarray(uni, dtype=np.int64)[:, None])[:, 0]
    return HClass(A, deg, vec)


# ---------------------------------------------------------------------------
# Witt Bockstein

class _Level(Ring):
    """Level n of a cosimplicial algebra as a ring handle (not finite).

    Elements are level vectors; Witt2Ring over it adds level pairs.
    """

    finite = False

    def __init__(self, A, n):
        ring = A.ring
        self.p = ring.p
        self.add, self.sub, self.neg = ring.vadd, ring.vsub, ring.vneg
        self.mul = partial(A.multiply, n)
        self.one = A.unit(n)
        self.zero = np.full(A.rank(n), ring.zero, dtype=np.int64)
        self._scalar = ring

    def from_int(self, k):
        return self._scalar.vscale(self._scalar.from_int(k), self.one)


def witt_bockstein(A, x):
    """Connecting map of A -> W_2(A) -> A on the class of x.

    Length-2 Witt arithmetic (:class:`charp.rings.Witt2Ring`) over the
    level of degree i+1, whose multiplication gives the carry terms;
    output in degree i+1, full-level coordinates.
    """
    ring = A.ring
    if ring.char != ring.p:
        raise ValueError("Witt Bockstein needs an F_p-algebra")
    i = x.degree
    n = i + 1
    W = Witt2Ring(_Level(A, n))
    full = Mat(ring, A.include_normalized(i, x.vec)[:, None])
    acc = W.zero
    for idx in range(n + 1):
        term = W.teichmuller((A.module.cofaces[(n, idx)] @ full).data[:, 0])
        if idx % 2 == 1:
            term = W.neg(term)
        acc = W.add(acc, term)
    if not np.all(acc[0] == ring.zero):
        raise AssertionError("Witt boundary has nonzero leading component; "
                             "input was not a cocycle")
    return HClass(A, n, acc[1])


# ---------------------------------------------------------------------------
# the algebra Bockstein comparison over Z/p^2

def algebra_bockstein_check(A3, x_modp_full, i, budget=None):
    """Both sides of the norm-fiber multiplication identity, mod p.

    ``A3``: the algebra over Z/p^3 (an exact model of the Z/p^2 algebra);
    ``x_modp_full``: a full-level degree-i cocycle of A3/p.  Returns
    (lhs, rhs) cocycle vectors in degree i+1 of the mod-p full complex:
    lhs = mu(z) for N z = d_Gamma(F*(x)), rhs = Bock(phi(x)).  N comes
    first, under ``budget``: d_Gamma enumerates the same Sym^p table.
    """
    ring3 = A3.ring
    if ring3.e != 3 or ring3.r != 1:
        raise ValueError("pass the Z/p^3 model of the algebra")
    p, r_i, r_i1 = ring3.p, A3.rank(i), A3.rank(i + 1)
    norm = natural_level_map("N", ring3, r_i1, p, budget)
    x3 = ring3.lift_residue(np.asarray(x_modp_full, dtype=np.int64))
    # d_Gamma of F*(x), the lift of x to the constant monomials e_j^[p]
    const = _sym_rank(np.repeat(np.arange(r_i)[:, None], p, 1), r_i)
    div = PolyFunctor("div", p)
    d_gamma = coface_sum([index_power(div, A3.module.cofaces[(i + 1, k)])
                          for k in range(i + 2)], const)
    y = (d_gamma @ Mat(ring3, x3[:, None])).data[:, 0]
    # solve the diagonal norm N z = y on the support of y; the entries
    # prod mult_i! of N have valuation below e
    nz = np.flatnonzero(y != ring3.zero)
    coef = norm.coef[nz]
    q = p ** sum(coef % p ** a == 0 for a in range(1, ring3.e))
    if np.any(y[nz] % q):
        raise AssertionError("norm solve fails: connecting is not defined")
    units, of = np.unique(coef // q, return_inverse=True)
    inv = np.array([ring3.inv(int(u)) for u in units], dtype=np.int64)
    z = ring3.vmul(y[nz] // q, inv[of])
    # lhs = mu(z) mod p; rhs = Bock(phi(x)) via the Z/p^2 reduction
    mu = _products(A3, i + 1, Mat.identity(ring3, r_i1).data,
                   monomials("sym", r_i1, p)[nz])
    lhs = ring3.reduce_mod_p(ring3.vmatmul(mu, z[:, None])[:, 0])
    phi_x3 = ring3.vmatmul(frobenius_level_matrix(A3, i).data,
                           x3[:, None])[:, 0]
    rhs = bockstein(A3.module.coboundary(i, slice(None)),
                    ring3.reduce_mod_p(phi_x3))
    return lhs, rhs
