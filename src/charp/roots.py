"""Weight combinatorics for type A_(p-1) and the quadratic field search.

Weights live in Z^(p-1) in the basis chi_1, ..., chi_(p-1), with
chi_p = -(chi_1 + ... + chi_(p-1)), as int64 arrays with one row per
weight.  The searches are certified complete:

- congruence searches reduce exponents modulo the multiplicative order of
  p (p^r * lambda only depends on r mod ord);
- exact-equality searches with p-power scalings are truncated by two
  positive functionals: the coefficient sum sigma (positive on the long
  roots) and f = -sum(k * coefficient of chi_k) (positive on the short
  roots chi_i - chi_j, i < j), each of which bounds the usable exponents.
"""

from functools import lru_cache
from math import comb, gcd

import numpy as np

from .config import DEFAULT, BudgetExceeded
from .doldkan import monomials, multiset_levels
from .rings import galois_field, galois_ring, is_prime, ring_make


@lru_cache(maxsize=8)
def _chis(p):
    """chi_1, ..., chi_p as the rows of a read-only (p, p - 1) array."""
    out = np.eye(p, p - 1, dtype=np.int64)
    out[-1] = -1
    out.flags.writeable = False
    return out


def chi(p, i):
    """chi_i (1 <= i <= p), a read-only int64 row."""
    if not 1 <= i <= p:
        raise ValueError("index out of range")
    return _chis(p)[i - 1]


@lru_cache(maxsize=8)
def positive_roots(p):
    """Delta_{U_p} as a read-only (k, p - 1) int64 array: the short roots
    chi_i - chi_j (i < j < p) in lex order, then the long roots
    chi_i + (chi_1 + ... + chi_(p-1)), i < p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    eye = _chis(p)[:-1]
    i, j = monomials("ext", p - 1, 2).T
    out = np.concatenate([eye[i] - eye[j], eye + 1])
    out.flags.writeable = False
    return out


def _mult_order(p, m):
    if m <= 1:
        raise ValueError("modulus must be > 1")
    if gcd(p, m) != 1:
        raise ValueError("p must be invertible mod m")
    k, acc = 1, p % m
    while acc != 1:
        acc = acc * p % m
        k += 1
    return k


def enumerate_expressions(p, target, gens, max_terms, exponent_bound=None,
                          modulus=0, budget=None):
    """All multisets {(r_k, lambda_k)} with sum p^(r_k) lambda_k = target.

    modulus = 0 asks for exact equality; modulus m > 0 asks for
    coordinatewise congruence mod m.  With exponent_bound=None the search
    is certified complete: congruences cycle exponents mod ord_m(p), and
    equalities are truncated by the sigma / f functional bounds (every
    generator must have sigma >= 0 and f > 0 or sigma > 0, which holds for
    the type-A sets used here; violations raise).

    The options (r, g) are ordered g-major, and the result lists the
    multisets by size, then in lex order, each as a pair (r, g) of int64
    arrays: the exponents and the row indices into ``gens``.  An exact
    search whose sums could leave int64 raises ValueError; one whose
    largest level exceeds ``budget.max_cells`` raises BudgetExceeded.
    """
    target = np.asarray(target, dtype=np.int64)
    gens = np.asarray(gens, dtype=np.int64).reshape(-1, p - 1)
    if modulus:
        ord_p = _mult_order(p, modulus)
        bound = ord_p - 1 if exponent_bound is None else \
            min(exponent_bound, ord_p - 1)
        reach = 2 * modulus
    else:
        if exponent_bound is None:
            bound = _certified_exponent_bound(p, target, gens, max_terms)
        else:
            bound = exponent_bound
        reach = max_terms * int(np.abs(gens).max(initial=0)) * p ** bound \
            + int(np.abs(target).max())
    if reach >= 2 ** 63:
        raise ValueError("weight sums of this search can leave int64")
    scale = np.array([pow(p, r, modulus or None) for r in range(bound + 1)],
                     dtype=np.int64)
    vals = (gens[:, None] * scale[:, None]).reshape(-1, p - 1)
    goal = target % modulus if modulus else target
    out, links = [], []
    for totals, parent, nxt in _multiset_levels(
            vals, max_terms, modulus, budget or DEFAULT):
        links.append((parent, nxt))
        rows = np.flatnonzero((totals == goal).all(axis=1))
        combos = np.empty((len(rows), len(links) - 1), dtype=np.int64)
        for j in range(len(links) - 1, 0, -1):
            combos[:, j - 1] = links[j][1][rows]
            rows = links[j][0][rows]
        out.extend(zip(combos % (bound + 1), combos // (bound + 1)))
    return out


def is_exact(p, target, gens, expr):
    """Whether the expression (r, g) of :func:`enumerate_expressions` sums
    to target exactly, summed in Python ints."""
    r, g = expr
    rows = np.asarray(gens)[g].tolist()
    total = [sum(p ** e * row[k] for e, row in zip(r.tolist(), rows))
             for k in range(len(target))]
    return total == np.asarray(target).tolist()


def _multiset_levels(vals, max_terms, modulus, budget):
    """Levels s = 0..max_terms of the multisets of rows of vals, each as
    (totals, parent, nxt): the row sums of the multisets of size s in
    lex order (mod modulus when it is nonzero), and for s > 0 the links of
    :func:`charp.doldkan.multiset_levels`.
    """
    k, width = vals.shape
    rows = comb(max(k, 1) + max_terms - 1, max_terms)
    if rows * width > budget.max_cells:
        raise BudgetExceeded(
            f"multisets of {max_terms} of {k} options need a {rows}-row "
            f"level of {rows * width} cells; budget {budget.max_cells}")
    totals = np.zeros((1, width), dtype=np.int64)
    yield totals, None, None
    for parent, nxt in multiset_levels(k, max_terms):
        totals = totals[parent] + vals[nxt]
        if modulus:
            totals %= modulus
        yield totals, parent, nxt


def _certified_exponent_bound(p, target, gens, max_terms):
    """Exponent cap for exact searches, from two positive functionals.

    sigma is >= 0 on every admissible generator, so a term p^r g with
    sigma(g) > 0 contributes p^r sigma(g) <= sigma(target); this caps the
    exponent and the f-deficit any such term can create.  Terms with
    sigma(g) = 0 must have f(g) > 0, and their f-contribution is at most
    f(target) plus the total deficit of the sigma-positive terms.
    """
    w = -np.arange(1, p, dtype=object)      # Python ints: sums cannot wrap
    sig, f = gens.sum(1, dtype=object).tolist(), (gens @ w).tolist()
    if any(s < 0 or (s == 0 and fg <= 0) for s, fg in zip(sig, f)):
        raise ValueError("generator set is not certifiably positive; "
                         "pass an explicit exponent bound")
    s_budget = max(target.sum(dtype=object), 0)
    smax = 0
    deficit = 0
    for s, fg in zip(sig, f):
        if s > 0:
            cap = s_budget // s      # p^r <= sigma(target) / sigma(g)
            smax = max(smax, _log_cap(p, s_budget, s))
            deficit = max(deficit, max(-fg, 0) * cap)
    f_budget = max(int(target @ w), 0) + max_terms * deficit
    fmax = max((_log_cap(p, f_budget, fg) for s, fg in zip(sig, f) if s == 0),
               default=0)
    return max(smax, fmax)


def _log_cap(p, budget, weight):
    r = 0
    while weight * p ** (r + 1) <= budget:
        r += 1
    return r


def monoid_member(p, target, budget=None):
    """Exact membership of target in the N-span of Delta_{U_p} (no
    p-scalings).

    Certified by the sigma-split: at most sigma(target)/p long roots can
    occur, and the short-root residual lies in the A_(p-2) positive cone,
    which is decided by the partial-sum criterion: all partial sums of its
    coordinates nonnegative and the total zero.
    """
    roots = positive_roots(p)
    goal = np.asarray(target, dtype=np.int64)
    sigma = sum(goal.tolist())
    if sigma < 0:
        return False
    max_long = sigma // p
    if (p - 1) * (int(np.abs(goal).max()) + 2 * max_long) >= 2 ** 63:
        raise ValueError("partial sums of this residual can leave int64")
    for totals, _, _ in _multiset_levels(
            roots[roots.sum(1) > 0], max_long, 0, budget or DEFAULT):
        partial = np.cumsum(goal - totals, axis=1)
        if ((partial >= 0).all(axis=1) & (partial[:, -1] == 0)).any():
            return True
    return False


# ---------------------------------------------------------------------------
# quadratic field search

class QuadraticFieldData:
    def __init__(self, p, d, N, unit_desc, order_checked, wieferich_value):
        self.p = p
        self.d = d
        self.N = N
        self.unit_desc = unit_desc
        self.order_checked = order_checked
        self.wieferich_value = wieferich_value

    def __repr__(self):
        return (f"QuadraticFieldData(p={self.p}, d={self.d}, N={self.N}, "
                f"unit={self.unit_desc})")


def norm_subgroup_order(p):
    """Order of {x in F_(p^2)^x : N(x) = +-1} = 2(p+1) for odd p, 3 for 2."""
    return 3 if p == 2 else 2 * (p + 1)


def _unit_order(F, u):
    """Multiplicative order of the unit u of the finite field F."""
    order, acc = 1, u
    while acc != F.one:
        acc = F.mul(acc, u)
        order += 1
        if order > F.size:
            raise AssertionError("order computation ran away")
    return order


def _unit_order_in_fp2(p, d):
    """Multiplicative order of d + sqrt(d^2+1) in F_(p^2)^x."""
    F = ring_make(galois_field(p, 2, _sqrt_modulus(p, d)))
    return _unit_order(F, F.from_coeffs([d % p, 1]))


def _sqrt_modulus(p, d):
    """Modulus x^2 - (d^2+1) over F_p (irreducible when d^2+1 nonresidue)."""
    c = (d * d + 1) % p
    return ((-c) % p, 0, 1)


def _is_residue(p, a):
    a %= p
    if a == 0:
        return True
    return pow(a, (p - 1) // 2, p) == 1


def wieferich_expression(p, d):
    """Tr((d + sqrt(d^2+1))^p) - 2d, computed exactly over Z."""
    # (d + s)^p with s^2 = d^2 + 1: expand in Z[s]/(s^2 - (d^2+1))
    a, b = 1, 0          # a + b s
    base_a, base_b = d, 1
    n = p
    while n:
        if n & 1:
            a, b = (a * base_a + b * base_b * (d * d + 1),
                    a * base_b + b * base_a)
        base_a, base_b = (base_a * base_a + base_b * base_b * (d * d + 1),
                          2 * base_a * base_b)
        n >>= 1
    return 2 * a - 2 * d


def find_quadratic_field(p, search_bound=2000):
    """d with: d^2+1 a nonresidue mod p, d + sqrt(d^2+1) generating the
    norm-(+-1) subgroup of F_(p^2)^x, and the trace expression nonzero
    mod p^2.  For p = 2 the answer is fixed: N = 5 with u = -1 and
    u' = (1 + sqrt 5)/2."""
    if p == 2:
        data = QuadraticFieldData(2, 1, 5, "u = -1, u' = (1+sqrt(5))/2",
                                  order_checked=3, wieferich_value=None)
        _check_p2()
        return data
    target_order = norm_subgroup_order(p)
    for d in range(1, search_bound):
        if _is_residue(p, d * d + 1):
            continue
        if _unit_order_in_fp2(p, d % p) != target_order:
            continue
        w = wieferich_expression(p, d)
        if w % (p * p) == 0:
            continue
        # independent re-check of both conditions
        assert not _is_residue(p, d * d + 1)
        assert wieferich_expression(p, d) % (p * p) != 0
        return QuadraticFieldData(
            p, d, d * d + 1, f"u = {d} + sqrt({d * d + 1})",
            order_checked=target_order, wieferich_value=w % (p * p))
    raise ValueError(f"no admissible d below {search_bound}")


def _check_p2():
    """Conditions (1)-(2) for F = Q(sqrt 5) at p = 2.

    (1) (1+sqrt 5)/2 reduces to a generator of F_4^x (= the norm
    subgroup); (2) Fr(-1) != (-1)^2 in W_2(F_4)."""
    F4 = ring_make(galois_field(2, 2, (1, 1, 1)))
    phi = F4.from_coeffs([0, 1])     # (1+sqrt5)/2 satisfies x^2 = x+1
    if _unit_order(F4, phi) != 3:
        raise AssertionError("unit does not generate F_4^x")
    GR = ring_make(galois_ring(2, 2, 2, (3, 3, 1)))
    minus1 = GR.from_int(-1)
    if GR.frobenius(minus1) == GR.mul(minus1, minus1):
        raise AssertionError("Frobenius condition fails for u = -1")
