"""Scenario registry: each machine-checked claim as a runnable check.

Every scenario returns a Report with computed values, expected values
tagged by provenance (paper / trivial / derived), and a pass flag.
Budget overruns are reported as skipped, never as passes.
"""

import random
import time
from functools import reduce
from itertools import product
from math import comb

import numpy as np

from . import __version__
from .config import DEFAULT, BudgetExceeded
from .complexes import cohomology_dims, shifted_module
from .doldkan import (PolyFunctor, conormalize, de_rham_weight_complex,
                      derived_power, distinct, natural_level_map)
from .linalg import Mat, ModuleStructure
from .rings import (galois_field, galois_ring, integers_mod, prime_field,
                    ring_make)
from .witt import integer_witt, witt_ring


def expected(value, provenance):
    return {"value": value, "provenance": provenance}


class Scenario:
    def __init__(self, id_, title, citation, defaults, tags, fn, min_p=2):
        self.id = id_
        self.title = title
        self.citation = citation
        self.defaults = dict(defaults)
        self.tags = tuple(tags)
        self.fn = fn
        self.min_p = min_p          # the smallest prime the claim covers


REGISTRY = {}


def scenario(id_, title, citation, defaults=None, tags=(), min_p=2):
    def wrap(fn):
        REGISTRY[id_] = Scenario(id_, title, citation, defaults or {},
                                 tags, fn, min_p)
        return fn
    return wrap


def _json_value(v):
    if isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_json_value(x) for x in v]
    raise TypeError(f"non-serialisable value {v!r}")


def run(id_, params=None, budget=None):
    """Run one scenario; returns the report dict."""
    if id_ not in REGISTRY:
        raise KeyError(f"unknown scenario {id_!r}")
    sc = REGISTRY[id_]
    budget = budget or DEFAULT
    resolved = dict(sc.defaults)
    for k, v in (params or {}).items():
        if k not in sc.defaults and k != "seed":
            raise ValueError(f"scenario {id_} has no parameter {k!r}")
        resolved[k] = v
    resolved.setdefault("seed", 0)
    t0 = time.perf_counter()
    report = {
        "id": id_,
        "params": {k: _json_value(v) for k, v in resolved.items()},
        "computed": {},
        "expected": {},
        "pass": False,
        "skipped": False,
        "runtime_ms": 0,
        "version": __version__,
    }
    try:
        computed, expectations = sc.fn(budget=budget, **resolved)
        report["computed"] = {k: _json_value(v) for k, v in computed.items()}
        report["expected"] = {
            k: {"value": _json_value(e["value"]),
                "provenance": e["provenance"]}
            for k, e in expectations.items()}
        ok = all(k in report["computed"] and
                 report["computed"][k] == report["expected"][k]["value"]
                 for k in report["expected"])
        report["pass"] = bool(ok)
    except BudgetExceeded as exc:
        report["skipped"] = True
        report["skip_reason"] = str(exc)
    report["runtime_ms"] = int((time.perf_counter() - t0) * 1000)
    return report


def run_all(tag_filter="", params=None, budget=None):
    """All registered scenarios (optionally filtered by tag), sorted by id."""
    reports = []
    for id_ in sorted(REGISTRY):
        sc = REGISTRY[id_]
        if tag_filter and tag_filter not in sc.tags:
            continue
        reports.append(run(id_, params=params, budget=budget))
    return reports


def exit_code(reports):
    return 0 if all(r["pass"] or r["skipped"] for r in reports) else 1


# ---------------------------------------------------------------------------
# derived functor scenarios

@scenario("decalage", "derived divided power of a shifted module",
          'Gamma^n(E[-1]) has Lambda^n E in degree n',
          defaults={"p": 3, "dim": 3, "n": 0}, tags=("fast", "functors"))
def _decalage(p, dim, n, seed, budget):
    n = n or p
    ring = ring_make(prime_field(p))
    G = derived_power(PolyFunctor("div", n), shifted_module(ring, dim), n,
                      budget=budget)
    dims = cohomology_dims(G)[:n + 1]
    expect = [0] * (n + 1)
    expect[n] = comb(dim, n)
    return ({"h_dims": dims},
            {"h_dims": expected(expect, "paper")})


@scenario("sym-cohomology", "derived symmetric power of a shifted module",
          'H(S^p(E[-1])) = twist, twist, Lambda^p',
          defaults={"p": 3, "dim": 3}, tags=("fast", "functors"))
def _sym_cohomology(p, dim, seed, budget):
    ring = ring_make(prime_field(p))
    S = derived_power(PolyFunctor("sym", p), shifted_module(ring, dim), p,
                      budget=budget)
    dims = cohomology_dims(S)[:p + 1]
    if p == 2:
        expect = [0, dim, comb(dim + 1, 2)]
    else:
        expect = [0, dim, dim] + [0] * (p - 3) + [comb(dim, p)]
    return ({"h_dims": dims}, {"h_dims": expected(expect, "paper")})


@scenario("four-term-exact", "exactness of twist -> Sym -> Div -> twist",
          "the norm's kernel and cokernel are Frobenius twists",
          defaults={"p": 3, "dim": 3}, tags=("fast", "functors"))
def _four_term(p, dim, seed, budget):
    ring = ring_make(prime_field(p))
    Dl, N, Ps = (natural_level_map(name, ring, dim, p, budget)
                 for name in ("Delta", "N", "Psi"))
    sym_dim = comb(dim + p - 1, p)
    # index maps, never densified: a composite is zero when no row is
    # live, and over a field the rank is the number of columns hit
    comp_zero = all(np.all(f.idx < 0) for f in (N @ Dl, Ps @ N))
    ranks = [distinct(f.idx[f.idx >= 0]).size for f in (Dl, N, Ps)]
    exact = (sym_dim - ranks[1] == ranks[0]) and \
        (sym_dim - ranks[2] == ranks[1])
    return ({"ranks": ranks, "compositions_zero": comp_zero,
             "exact": exact},
            {"ranks": expected([dim, sym_dim - dim, dim], "paper"),
             "compositions_zero": expected(True, "trivial"),
             "exact": expected(True, "paper")})


@scenario("norm-cokernel-zp2", "cokernel of the norm over Z/p^2",
          "an injection with cokernel the mod-p Frobenius twist",
          defaults={"p": 3, "dim": 3}, tags=("fast", "functors"))
def _norm_coker(p, dim, seed, budget):
    ring = ring_make(integers_mod(p, 2))
    # N is diagonal: one summand per coefficient, Z/p^(its valuation)
    N = natural_level_map("N", ring, dim, p, budget)
    structure = ModuleStructure(p, 2, map(ring.valuation, N.coef.tolist()))
    return ({"cokernel_exponents": list(structure.exponents)},
            {"cokernel_exponents": expected([1] * dim, "paper")})


@scenario("cartier", "weight complexes of the de Rham algebra",
          "acyclic off weight p; two twists in weights p",
          defaults={"p": 3, "dim": 0}, tags=("fast", "cartier"))
def _cartier(p, dim, seed, budget):
    dim = dim or p
    ring = ring_make(prime_field(p))
    acyclic = True
    # largest weight first: an oversized run is refused before any is built
    for n in range(p + 2, 0, -1):
        if n % p == 0:
            continue
        W = de_rham_weight_complex(ring, dim, n, budget=budget)
        if any(v != 0 for v in cohomology_dims(W)):
            acyclic = False
    Wp = de_rham_weight_complex(ring, dim, p, budget=budget)
    dims_p = cohomology_dims(Wp)
    # the truncation upto = p - 1 is Wp without its last term: its top
    # degree gains the image of the dropped d^(p-1), whose rank is
    # rank C^p - dim H^p (rank-nullity)
    dims_t = dims_p[:p]
    dims_t[p - 1] += Wp.rank(p) - dims_p[p]
    # H^0 = H^1 = V twisted (Cartier); the truncation's top degree C^(p-1)
    # / im d gains the image Lambda^p V of the dropped d
    expect_p = [dim, dim] + [0] * (p - 1)
    expect_t = expect_p[:p]
    expect_t[p - 1] += comb(dim, p)
    return ({"acyclic_off_p": acyclic, "dims_weight_p": dims_p,
             "dims_truncated": dims_t},
            {"acyclic_off_p": expected(True, "paper"),
             "dims_weight_p": expected(expect_p, "paper"),
             "dims_truncated": expected(expect_t, "paper")})


@scenario("omega-trunc-vs-symp", "truncated weight complex vs derived Sym^p",
          "the truncated weight-p complex shifts to S^p(V[-1])",
          defaults={"p": 3}, tags=("fast", "cartier"))
def _omega_trunc(p, seed, budget):
    ring = ring_make(prime_field(p))
    S = derived_power(PolyFunctor("sym", p), shifted_module(ring, p), p,
                      budget=budget)
    sd = cohomology_dims(S)[1:p + 1]
    Wt = de_rham_weight_complex(ring, p, p, upto=p - 1, budget=budget)
    wd = cohomology_dims(Wt)
    return ({"omega_dims": wd, "sym_dims_shifted": sd,
             "agree": wd == sd},
            {"agree": expected(True, "paper")})


# ---------------------------------------------------------------------------
# power operation scenarios

def _nerve_setup(p, ring_spec, L, budget):
    from .groups import cyclic_group
    from .cosalg import NerveAlgebra
    return NerveAlgebra(cyclic_group(p, budget), ring_make(ring_spec), L,
                        budget)


@scenario("steenrod-p0", "degree-0 operation is the identity mod p",
          "the degree-0 operation equals the Frobenius, the identity on "
          "F_p-valued nerves",
          defaults={"p": 3, "max_i": 3}, tags=("fast", "steenrod"))
def _steenrod_p0(p, max_i, seed, budget):
    from .cosalg import HClass, steenrod
    A = _nerve_setup(p, prime_field(p), max_i + 2, budget)
    cx = conormalize(A.module, A.L - 1).complex
    full = A.full_complex(max_i)
    results = []
    for i in range(1, max_i + 1):
        h = cx.slice(i)
        x = HClass(A, i, h.gens.data[:, 0])
        p0 = steenrod(A, x, 0, budget=budget)
        xf = A.include_normalized(i, x.vec)
        results.append(bool(full.slice(i).classes_equal(p0.vec, xf)))
    return ({"identity_on_degrees": results},
            {"identity_on_degrees": expected([True] * max_i, "paper")})


@scenario("steenrod-p1", "degree-1 operation is the Bockstein",
          "the degree-1 operation on the degree-1 generator",
          defaults={"p": 3}, tags=("fast", "steenrod"))
def _steenrod_p1(p, seed, budget):
    from .complexes import bockstein
    from .cosalg import HClass, steenrod
    F = ring_make(prime_field(p))
    A = _nerve_setup(p, prime_field(p), 4, budget)
    A2 = _nerve_setup(p, integers_mod(p, 2), 4, budget)
    cx = conormalize(A.module, A.L - 1).complex
    full = A.full_complex(2)
    x = HClass(A, 1, cx.slice(1).gens.data[:, 0])
    p1 = steenrod(A, x, 1, budget=budget)
    fsl2 = full.slice(2)
    # oracle: connecting map of the mod-p reduction of the Z/p^2 nerve
    xf = A.include_normalized(1, x.vec)
    bock = bockstein(A2.full_complex(2).d(1), xf)
    agree = any(fsl2.classes_equal(p1.vec, F.vscale(F.from_int(lam), bock))
                for lam in range(1, p))
    nonzero = not fsl2.is_coboundary(p1.vec)
    out = {"equals_bockstein_up_to_unit": bool(agree),
           "nonzero": bool(nonzero)}
    exp = {"equals_bockstein_up_to_unit": expected(True, "derived"),
           "nonzero": expected(True, "derived")}
    if p == 2:
        # level n holds G^n as base-|G| numerals: (g, h) is g |G| + h
        cup = F.vouter(xf, xf).ravel()
        out["equals_cup_square"] = bool(fsl2.classes_equal(p1.vec, cup))
        exp["equals_cup_square"] = expected(True, "derived")
    return out, exp


@scenario("witt-bockstein-agree", "Witt Bockstein equals the degree-1 "
          "operation", "the connecting map of the length-2 Witt sequence",
          defaults={"p": 3}, tags=("fast", "steenrod"))
def _witt_bockstein_agree(p, seed, budget):
    from .cosalg import HClass, steenrod, witt_bockstein
    A = _nerve_setup(p, prime_field(p), 4, budget)
    conorm = conormalize(A.module, A.L - 1)
    cx = conorm.complex
    full = A.full_complex(2)
    agree_all = True
    square_zero = True
    for i in (1, 2):
        h = cx.slice(i)
        for j in range(h.gens.cols):
            x = HClass(A, i, h.gens.data[:, j])
            p1 = steenrod(A, x, 1, budget=budget)
            wb = witt_bockstein(A, x)
            sl = full.slice(i + 1)
            if not sl.classes_equal(p1.vec, wb.vec):
                agree_all = False
            if i == 1:
                # beta o beta = 0: normalize wb back and reapply
                wb_norm = wb.vec[conorm.sel[i + 1]]
                wb2 = witt_bockstein(A, HClass(A, i + 1, wb_norm))
                if not full.slice(i + 2).is_coboundary(wb2.vec):
                    square_zero = False
    return ({"agrees_with_p1": agree_all, "square_zero": square_zero},
            {"agrees_with_p1": expected(True, "paper"),
             "square_zero": expected(True, "trivial")})


@scenario("algebra-bockstein", "multiplication against the norm fiber",
          "the composite equals Bockstein after Frobenius (fixed unit -1)",
          defaults={"p": 3}, tags=("fast", "steenrod"))
def _algebra_bockstein(p, seed, budget):
    from .cosalg import HClass, algebra_bockstein_check
    F = ring_make(prime_field(p))
    A = _nerve_setup(p, prime_field(p), 4, budget)
    A3 = _nerve_setup(p, integers_mod(p, 3), 3, budget)
    cx = conormalize(A.module, A.L - 1).complex
    full = A.full_complex(2)
    x = cx.slice(1).gens.data[:, 0]
    xf = A.include_normalized(1, x)
    lhs, rhs = algebra_bockstein_check(A3, xf, 1, budget)
    sl = full.slice(2)
    minus_one = F.from_int(-1)
    agree = sl.classes_equal(lhs, F.vscale(minus_one, rhs))
    nonzero = not sl.is_coboundary(lhs)
    # the unit class has vanishing comparison
    unit_vec = np.full(full.rank(0), F.zero, dtype=np.int64)
    unit_vec[0] = F.one             # level 0 is the one point G^0
    l0, r0 = algebra_bockstein_check(A3, unit_vec, 0, budget)
    z1 = full.slice(1)
    return ({"sides_agree_fixed_unit": bool(agree),
             "nonzero_on_generator": bool(nonzero),
             "zero_on_unit_class": bool(z1.is_coboundary(l0) and
                                        z1.is_coboundary(r0))},
            {"sides_agree_fixed_unit": expected(True, "derived"),
             "nonzero_on_generator": expected(True, "derived"),
             "zero_on_unit_class": expected(True, "trivial")})


# ---------------------------------------------------------------------------
# Witt vector scenarios

@scenario("witt-identity", "p^2 = V(p) in length-2 Witt vectors of Z/p^2",
          "the square of p equals the Verschiebung of p",
          defaults={"p": 5}, tags=("fast", "witt"))
def _witt_identity(p, seed, budget):
    W = witt_ring(integers_mod(p, 2))
    p_one = W.from_int(p)
    lhs = W.mul(p_one, p_one)
    rhs = W.verschiebung(W.pack((W.base.from_int(p), W.base.zero)))
    return ({"identity_holds": lhs == rhs},
            {"identity_holds": expected(True, "paper")})


@scenario("ghost-v", "ghost coordinates of the Verschiebung",
          "ghost(V(a)) = (0, p a_0); ghost additive over integer lifts",
          defaults={"p": 3, "count": 1000}, tags=("fast", "witt"))
def _ghost_v(p, count, seed, budget):
    W = witt_ring(integers_mod(p, 2))
    B = W.base
    WZ = integer_witt(p)
    rng = random.Random(seed)
    ok_v = ok_add = True
    for _ in range(count):
        a = (B.random(rng), B.random(rng))
        if W.ghost(W.verschiebung(W.pack(a))) != \
                (B.zero, B.mul(B.from_int(p), a[0])):
            ok_v = False
        x = (rng.randrange(500), rng.randrange(500))
        y = (rng.randrange(500), rng.randrange(500))
        gx, gy = WZ.ghost(x), WZ.ghost(y)
        if WZ.ghost(WZ.add(x, y)) != (gx[0] + gy[0], gx[1] + gy[1]):
            ok_add = False
    return ({"ghost_of_v": ok_v, "ghost_additive_over_lifts": ok_add},
            {"ghost_of_v": expected(True, "paper"),
             "ghost_additive_over_lifts": expected(True, "derived")})


# ---------------------------------------------------------------------------
# group cohomology scenarios

@scenario("additive-cohomology-dims", "cohomology of finite additive groups",
          "exterior-symmetric dimension count for (F_q^n, +)",
          defaults={"p": 3, "r": 2, "n": 1, "max_deg": 3},
          tags=("fast", "groups"))
def _additive_dims(p, r, n, max_deg, seed, budget):
    from .groups import ElementaryAbelian
    from .gcoh import PeriodicEngine
    ring = ring_make(galois_field(p, r) if r > 1 else prime_field(p))
    A = ElementaryAbelian(p, r * n, budget)
    eng = PeriodicEngine(A, ring, [Mat.identity(ring, 1)] * (r * n),
                         max_deg)
    dims = eng.dims()
    m = r * n
    if p == 2:
        expect = [comb(m + i - 1, i) for i in range(max_deg + 1)]
    else:
        expect = []
        for i in range(max_deg + 1):
            total = 0
            for a in range(0, i + 1):      # a exterior gens, (i-a)/2 sym
                if (i - a) % 2:
                    continue
                total += comb(m, a) * comb(m + (i - a) // 2 - 1,
                                           (i - a) // 2)
            expect.append(total)
    return ({"dims": dims, "h1_dim": dims[1] if max_deg >= 1 else 0},
            {"dims": expected(expect, "paper"),
             "h1_dim": expected(n * r, "paper")})


@scenario("lattice-vanishing", "Koszul cohomology of lattices",
          "binomial dimensions for trivial coefficients; zero for a "
          "nontrivial unit character",
          defaults={"m": 2}, tags=("fast", "groups"))
def _lattice_vanishing(m, seed, budget):
    from .gcoh import KoszulEngine
    F4 = ring_make(galois_field(2, 2))
    triv = KoszulEngine(F4, [Mat.identity(F4, 1)] * m)
    dims_triv = triv.dims()
    lam = F4.from_coeffs([0, 1])
    gens = [Mat(F4, [[lam]])] + [Mat.identity(F4, 1)] * (m - 1)
    char = KoszulEngine(F4, gens)
    dims_char = char.dims()
    return ({"dims_trivial": dims_triv, "dims_character": dims_char},
            {"dims_trivial": expected([comb(m, i) for i in range(m + 1)],
                                      "trivial"),
             "dims_character": expected([0] * (m + 1), "paper")})


@scenario("semidirect-agree", "averaging computes semidirect cohomology",
          "H(Phi x| A) = invariants of H(A) for |Phi| prime to p",
          defaults={"max_deg": 2}, tags=("fast", "groups"))
def _semidirect_agree(max_deg, seed, budget):
    from .groups import (ElementaryAbelian, GModule, cyclic_group,
                         semidirect_product)
    from .gcoh import BarEngine, PeriodicEngine, invariant_subspace
    F3 = ring_make(prime_field(3))
    # S_3 = C_2 x| C_3 acting on F_3-modules: compare against the full bar
    A = ElementaryAbelian(3, 1)
    C2 = cyclic_group(2, budget)
    inv_perm = np.array([A.inv(a) for a in A.elements()], dtype=np.int64)
    act = {0: np.arange(A.order), 1: inv_perm}
    S3 = semidirect_product(C2, A, act, budget)
    agree = []
    for sign in (False, True):
        # trivial and sign modules of S_3 over F_3
        def mats(g):
            h = g // A.order
            val = F3.from_int(-1) if (sign and h == 1) else F3.one
            return Mat(F3, [[val]])
        M = GModule.from_function(S3, F3, mats)
        bar = BarEngine(S3, M, max_deg, budget=budget)
        dims_full = bar.dims()
        eng = PeriodicEngine(A, F3, [Mat.identity(F3, 1)], max_deg)
        pairs = []
        for h in (0, 1):
            perm = act[h]
            u = Mat(F3, [[F3.from_int(-1) if (sign and h == 1) else
                          F3.one]])
            pairs.append((perm, u))
        dims_inv = [invariant_subspace(eng, i, pairs)[0]
                    for i in range(max_deg + 1)]
        agree.append(dims_full == dims_inv)
    return ({"agree_trivial_module": agree[0],
             "agree_sign_module": agree[1]},
            {"agree_trivial_module": expected(True, "derived"),
             "agree_sign_module": expected(True, "derived")})


@scenario("chi1-iso", "the invariant line of the leading character",
          "one invariant line in degree p-1, mapping onto the twist part",
          defaults={"p": 2}, tags=("groups", "alpha"))
def _chi1_iso(p, seed, budget):
    dim, gen_vec, _, A, F = _chi1_invariants(p, budget)
    # the inclusion chi_1^p -> V^(1)-twist coefficients on cohomology
    from .gcoh import PeriodicEngine, invariant_subspace
    engV = PeriodicEngine(A, F, _v_twist_gen_mats(p, A, F), p)
    # push the invariant generator through the twist-part inclusion
    chi_embed = np.zeros(p, dtype=np.int64)
    chi_embed[0] = F.one
    pushed = F.vouter(gen_vec, chi_embed).ravel()
    nonzero = (engV.complex.is_cocycle(p - 1, pushed) and
               not engV.complex.slice(p - 1).is_coboundary(pushed))
    dimV, _ = invariant_subspace(engV, p - 1, _v_twist_pairs(p, A, F))
    return ({"chi_invariant_dim": dim, "image_nonzero": bool(nonzero),
             "twist_invariant_dim": dimV},
            {"chi_invariant_dim": expected(1, "paper"),
             "image_nonzero": expected(True, "derived"),
             "twist_invariant_dim": expected(1, "derived")})


def _mult_matrix(F, a):
    """Multiplication by a on F_(p^2) in the basis 1, x."""
    cols = [F.coeffs(F.mul(a, b)) for b in (F.one, F.from_coeffs([0, 1]))]
    return np.array(cols, dtype=np.int64).T


def _torus_elements(p, F):
    """(t_1, ..., t_(p-1)) with t_p = inverse of the product."""
    units = [a for a in F.elements() if F.is_unit(a)]
    return list(product(units, repeat=p - 1))


def _torus(p, A, F):
    """(diag(t_1, ..., t_p), the permutation of A's indices by conjugation
    with it on A_p(F_q) = F_q^(p-1)) for each torus element."""
    out = []
    for ts in _torus_elements(p, F):
        diag = list(ts) + [F.inv(reduce(F.mul, ts, F.one))]
        m = np.zeros((2 * (p - 1), 2 * (p - 1)), dtype=np.int64)
        for k, ti in enumerate(diag[1:]):
            m[2 * k:2 * k + 2, 2 * k:2 * k + 2] = _mult_matrix(
                F, F.mul(ts[0], F.inv(ti)))
        out.append((diag, A.automorphism_from_matrix(m)))
    return out


def _chi1_invariants(p, budget):
    """The degree-(p-1) invariants of A_p(F_(p^2)) with chi_1^p
    coefficients: (their dimension, the cocycle of the first invariant
    class, the engine, A, F)."""
    from .groups import ElementaryAbelian
    from .gcoh import PeriodicEngine, invariant_subspace
    F = ring_make(galois_field(p, 2))
    A = ElementaryAbelian(p, 2 * (p - 1), budget)
    eng = PeriodicEngine(A, F, [Mat.identity(F, 1)] * (2 * (p - 1)), p)
    pairs = [(perm, Mat(F, [[F.pow(diag[0], p)]]))
             for diag, perm in _torus(p, A, F)]
    dim, basis = invariant_subspace(eng, p - 1, pairs)
    cocycle = F.vmatmul(eng.complex.slice(p - 1).gens.data,
                        basis.data[:, :1])[:, 0]
    return dim, cocycle, eng, A, F


def _v_module(p, A, F):
    """V = F^p, a in A = F^(p-1) acting by the unipotent matrix with first
    row (1, a).  Each entry of a reads r = A.m / (p - 1) coordinates of a,
    the base-p digits of its code in F_p or F_(p^2)."""
    from .groups import GModule
    r = A.m // (p - 1)
    digits = p ** np.arange(r, dtype=np.int64)

    def act(aidx):
        m = Mat.identity(F, p)
        m.data[0, 1:] = np.reshape(A.vector(aidx), (p - 1, r)) @ digits
        return m
    return GModule.from_function(A, F, act, check=False)


def _v_twist_gen_mats(p, A, F):
    V = _v_module(p, A, F)
    return [V.act(g).frobenius_entries() for g in A.generators]


def _v_twist_pairs(p, A, F):
    return [(perm, Mat(F, np.diag([F.frobenius(t) for t in diag])))
            for diag, perm in _torus(p, A, F)]


# ---------------------------------------------------------------------------
# weight combinatorics scenarios

@scenario("weights-1", "p chi_j is outside the positive monoid for j >= 2",
          "certified monoid membership",
          defaults={"p": 3, "exp_bound": 6}, tags=("fast", "combinatorics"))
def _weights_1(p, exp_bound, seed, budget):
    from .roots import (chi, enumerate_expressions, monoid_member,
                        positive_roots)
    du = positive_roots(p)
    # p >= 5 runs are capped at 4 summands (documented runtime budget)
    max_terms = min(2 * (p - 1), budget.max_terms, 4 if p >= 5 else 99)
    in_monoid = [monoid_member(p, p * chi(p, j), budget=budget)
                 for j in range(2, p + 1)]
    counts = [len(enumerate_expressions(
        p, p * chi(p, j), du, max_terms, exponent_bound=exp_bound,
        budget=budget))
        for j in range(2, p + 1)]
    return ({"in_monoid": in_monoid, "expression_counts": counts},
            {"in_monoid": expected([False] * (p - 1), "paper"),
             "expression_counts": expected([0] * (p - 1), "paper")})


@scenario("weights-2", "the unique expression of p chi_1",
          "one expression as a sum of at most p-1 scaled roots",
          defaults={"p": 3}, tags=("fast", "combinatorics"))
def _weights_2(p, seed, budget):
    from .roots import chi, enumerate_expressions, positive_roots
    du = positive_roots(p)
    exprs = enumerate_expressions(p, p * chi(p, 1), du, p - 1,
                                  budget=budget)
    all_exponents_zero = all(not r.any() for r, _ in exprs)
    return ({"count": len(exprs), "all_exponents_zero": all_exponents_zero},
            {"count": expected(1, "paper"),
             "all_exponents_zero": expected(True, "paper")})


@scenario("weights-3", "p chi_j has no congruences mod q-1 for j >= 2",
          "no congruence to a short sum of scaled roots",
          defaults={"p": 3}, tags=("fast", "combinatorics"))
def _weights_3(p, seed, budget):
    from .roots import chi, enumerate_expressions, positive_roots
    du = positive_roots(p)
    q = p * p
    counts = [len(enumerate_expressions(p, p * chi(p, j), du, p - 1,
                                        modulus=q - 1, budget=budget))
              for j in range(2, p + 1)]
    return ({"congruence_counts": counts},
            {"congruence_counts": expected([0] * (p - 1), "paper")})


@scenario("weights-4", "congruences of p chi_1 mod q-1 are equalities",
          "with exponents below r every congruence is exact",
          defaults={"p": 3}, tags=("fast", "combinatorics"))
def _weights_4(p, seed, budget):
    from .roots import chi, enumerate_expressions, is_exact, positive_roots
    du = positive_roots(p)
    q = p * p
    t = p * chi(p, 1)
    cong = enumerate_expressions(p, t, du, p - 1, exponent_bound=1,
                                 modulus=q - 1, budget=budget)
    exact = [is_exact(p, t, du, e) for e in cong]
    shorter = enumerate_expressions(p, t, du, p - 2, exponent_bound=1,
                                    modulus=q - 1, budget=budget)
    return ({"congruences": len(cong), "all_exact": all(exact),
             "with_fewer_terms": len(shorter)},
            {"congruences": expected(1, "paper"),
             "all_exact": expected(True, "paper"),
             "with_fewer_terms": expected(0, "paper")})


def _borel_set(p):
    from .roots import chi
    S = [chi(p, 1) - chi(p, i) for i in range(2, p + 1)]
    return np.vstack(S + [p * v for v in S])


@scenario("borel-1", "no short congruences for p chi_i, i >= 2, mod p+1",
          "the unit-image set detects nothing for the other characters",
          defaults={"p": 3}, tags=("fast", "combinatorics"))
def _borel_1(p, seed, budget):
    from .roots import chi, enumerate_expressions
    S = _borel_set(p)
    counts = [len(enumerate_expressions(p, p * chi(p, i), S, p - 1,
                                        exponent_bound=0, modulus=p + 1,
                                        budget=budget))
              for i in range(2, p + 1)]
    return ({"counts": counts},
            {"counts": expected([0] * (p - 1), "paper")})


@scenario("borel-2", "p chi_1 needs p-1 summands mod p+1",
          "no congruence with p-2 elements of the unit-image set",
          defaults={"p": 3}, tags=("fast", "combinatorics"))
def _borel_2(p, seed, budget):
    from .roots import chi, enumerate_expressions
    S = _borel_set(p)
    short = enumerate_expressions(p, p * chi(p, 1), S, p - 2,
                                  exponent_bound=0, modulus=p + 1,
                                  budget=budget)
    return ({"count": len(short)}, {"count": expected(0, "paper")})


@scenario("borel-3", "the unique congruence for p chi_1 mod p+1 is exact",
          "the product of the short roots",
          defaults={"p": 3}, tags=("fast", "combinatorics"))
def _borel_3(p, seed, budget):
    from .roots import chi, enumerate_expressions, is_exact
    S = _borel_set(p)
    t = p * chi(p, 1)
    cong = enumerate_expressions(p, t, S, p - 1, exponent_bound=0,
                                 modulus=p + 1, budget=budget)
    return ({"count": len(cong),
             "all_exact": all(is_exact(p, t, S, e) for e in cong)},
            {"count": expected(1, "paper"),
             "all_exact": expected(True, "paper")})


@scenario("field-search", "real quadratic field with large unit image",
          "nonresidue discriminant, full norm subgroup, nonzero trace "
          "expression mod p^2",
          defaults={"p": 3}, tags=("fast", "combinatorics"))
def _field_search(p, seed, budget):
    from .roots import (find_quadratic_field, norm_subgroup_order,
                        _unit_order_in_fp2, _is_residue,
                        wieferich_expression)
    data = find_quadratic_field(p, search_bound=budget.field_search_bound)
    out = {"N": data.N, "d": data.d}
    exp = {}
    if p == 2:
        exp["N"] = expected(5, "paper")
        out["unit_order"] = data.order_checked
        exp["unit_order"] = expected(3, "derived")
    else:
        out["nonresidue"] = not _is_residue(p, data.N)
        out["unit_order"] = _unit_order_in_fp2(p, data.d % p)
        out["wieferich_nonzero"] = \
            wieferich_expression(p, data.d) % (p * p) != 0
        exp["nonresidue"] = expected(True, "derived")
        exp["unit_order"] = expected(norm_subgroup_order(p), "derived")
        exp["wieferich_nonzero"] = expected(True, "derived")
    return out, exp


# ---------------------------------------------------------------------------
# extension class scenarios

def _alpha_bar(G, V, budget):
    """AlphaClass of a p = 2 module, on the bar complex of its group."""
    from .extclass import AlphaClass
    from .gcoh import BarEngine
    from .groups import GModule
    return AlphaClass(G, V, lambda hom_action: BarEngine(
        G, GModule.from_function(G, V.ring, hom_action, check=False), 1,
        budget=budget))


@scenario("alpha-sl2-f4", "the characteristic class over SL_2(F_4)",
          "nonzero in degree 1 with twist coefficients",
          defaults={}, tags=("alpha",))
def _alpha_sl2(seed, budget):
    from .groups import GModule, sl2_group
    F4 = ring_make(galois_field(2, 2))
    G = sl2_group(F4)
    alpha = _alpha_bar(G, GModule(G, F4, G.matrices, check=False), budget)
    return ({"group_order": G.order, "is_cocycle": alpha.is_cocycle,
             "nonzero": not alpha.is_coboundary},
            {"group_order": expected(60, "trivial"),
             "is_cocycle": expected(True, "trivial"),
             "nonzero": expected(True, "paper")})


@scenario("alpha-u2-f2-zero", "the class dies on the prime-field unipotent",
          "restriction to U_2(F_2) vanishes",
          defaults={}, tags=("fast", "alpha"))
def _alpha_u2(seed, budget):
    from .groups import GModule, matrix_group
    F4 = ring_make(galois_field(2, 2))
    U = matrix_group(F4, [Mat(F4, [[F4.one, F4.one],
                                   [F4.zero, F4.one]])])
    alpha = _alpha_bar(U, GModule(U, F4, U.matrices, check=False), budget)
    return ({"restriction_zero": alpha.is_coboundary},
            {"restriction_zero": expected(True, "paper")})


@scenario("alpha-ta-f9", "the class over the torus-unipotent group of F_9",
          "nonzero in degree 2, through the leading character line",
          defaults={"p": 3}, tags=("alpha",), min_p=3)
def _alpha_ta_f9(p, seed, budget):
    from .gcoh import PeriodicEngine
    from .extclass import AlphaClass
    dimχ, genχ, _, A, F = _chi1_invariants(p, budget)
    alpha = AlphaClass(A, _v_module(p, A, F), lambda hom_action:
                       PeriodicEngine(A, F, [hom_action(g)
                                             for g in A.generators], p),
                       rng=random.Random(seed))
    for hy, _, _ in alpha.models.values():
        hy.spot_check_cocycle(random.Random(seed + 1))
    results = {f"nonzero_{name}": nonzero
               for name, nonzero in alpha.nonzero_by_model.items()}
    # chi_1^p factorization for the omega model: the alpha class is
    # proportional to the image of the invariant chi-line generator
    hy, eng, vec = alpha.models["omega"]
    line = _chi_line_in_hom(hy, A, F)
    pushed = F.vouter(genχ, line).ravel()
    sl = eng.complex.slice(p - 1)
    units = [lam for lam in range(1, F.size)
             if F.is_unit(lam) and
             sl.classes_equal(vec, F.vscale(lam, pushed))]
    results["chi1_factorization"] = bool(units)
    results["chi_invariant_dim"] = dimχ
    # the open q = p case, computed and reported without an expectation
    results["alpha_nonzero_q_equals_p"] = _alpha_q_equals_p(p, seed, budget)
    return (results,
            {"nonzero_omega": expected(True, "paper"),
             "nonzero_derived": expected(True, "paper"),
             "chi1_factorization": expected(True, "paper"),
             "chi_invariant_dim": expected(1, "derived")})


def _chi_line_in_hom(hy, A, F):
    """The A-fixed vector in Hom(B, A)-coordinates spanning the leading
    character line (unique up to scalar; found as a joint kernel)."""
    from .linalg import kernel_basis
    r = hy.hom_rank()
    stacked = None
    for g in A.generators:
        diff = hy.hom_action(g) - Mat.identity(F, r)
        stacked = diff if stacked is None else stacked.vstack(diff)
    K = kernel_basis(stacked)
    if K.cols != 1:
        raise AssertionError(f"fixed line is {K.cols}-dimensional")
    return K.data[:, 0]


def _alpha_q_equals_p(p, seed, budget):
    from .groups import ElementaryAbelian
    from .gcoh import PeriodicEngine
    from .extclass import HyperextClass, omega_model
    F = ring_make(prime_field(p))
    A = ElementaryAbelian(p, p - 1, budget)
    ec = omega_model(A, _v_module(p, A, F), p)
    hy = HyperextClass(ec, A, rng=random.Random(seed))
    gen_mats = [hy.hom_action(g) for g in A.generators]
    eng = PeriodicEngine(A, F, gen_mats, p)
    vec = eng.cocycle_from_function(p - 1, hy.vec_evaluator())
    sl = eng.complex.slice(p - 1)
    return bool(not sl.is_coboundary(vec))


# ---------------------------------------------------------------------------
# integer-ring scenarios (p = 2, F = Q(sqrt 5))

def _of_tower_data():
    F4 = ring_make(galois_field(2, 2, (1, 1, 1)))
    GR = ring_make(galois_ring(2, 2, 2, (3, 3, 1)))
    Q = np.array([[1, 1], [1, 2]])
    return F4, GR, Q


def _of_rho_V(ring, root):
    """V's matrices at e1, e2, u and w, ``root`` the root of the modulus."""
    one, zero, m1 = ring.one, ring.zero, ring.from_int(-1)
    return {"e1": Mat(ring, [[one, one], [zero, one]]),
            "e2": Mat(ring, [[one, root], [zero, one]]),
            "u": Mat(ring, [[root, zero], [zero, ring.inv(root)]]),
            "w": Mat(ring, [[m1, zero], [zero, m1]])}


def _of_alpha_values(rho_V):
    """The p = 2 class at each matrix of ``rho_V``: the splitting cocycle
    of S^2 V over the group they generate, read at its generators."""
    from .extclass import symmetric_square_extension
    from .groups import GModule, matrix_group
    F = next(iter(rho_V.values())).ring
    G = matrix_group(F, list(rho_V.values()))
    vals = symmetric_square_extension(
        G, GModule(G, F, G.matrices, check=False)).vec_evaluator()(
            [(g,) for g in G.generators])
    return dict(zip(rho_V, vals.reshape(len(G.generators), -1)))


@scenario("integral-facts-p2", "restriction facts over Z[(1+sqrt5)/2]",
          "vanishing of the opposite character, p-torsion of the lifted "
          "character cohomology, injectivity from the finite field",
          defaults={}, tags=("fast", "integral"))
def _integral_facts(seed, budget):
    from .tower import SolvableTower
    from .gcoh import KoszulEngine
    F4, GR, Q = _of_tower_data()
    x = F4.from_coeffs([0, 1])
    x2 = F4.mul(x, x)
    I1 = Mat.identity(F4, 1)
    # (i) H^0 with the inverse-square character vanishes
    tw_a = SolvableTower(F4, [I1, I1], Q, Mat(F4, [[F4.inv(x2)]]),
                         Mat.identity(F4, 1), maxdeg=1)
    h0_dim = tw_a.complex.slice(0).dim()
    # also with chi_1^2 itself (degree p-2 = 0 vanishing)
    tw_a2 = SolvableTower(F4, [I1, I1], Q, Mat(F4, [[x2]]),
                          Mat.identity(F4, 1), maxdeg=1)
    h0_chi2 = tw_a2.complex.slice(0).dim()
    # (ii) the lifted character cohomology is annihilated by 2
    w_ = GR.from_coeffs([0, 1])
    IG = Mat.identity(GR, 1)
    tw_b = SolvableTower(GR, [IG, IG], Q, Mat(GR, [[GR.frobenius(w_)]]),
                         Mat(GR, [[GR.from_int(-1)]]), maxdeg=1)
    tor = tw_b.complex.slice(1).structure
    # (iii) restriction from the finite field detects the invariant line:
    # the invariant H^1(A(F_4), chi^2) generator pulls back nonzero to
    # H^1(A(O_F), chi^2) = Koszul H^1 of Z^2 (trivial action on chi^2|_A)
    _, gen, eng4, A2, _ = _chi1_invariants(2, budget)
    # pull back along Z^2 ->> A(F_4): values at the lattice generators
    kz = KoszulEngine(F4, [Mat.identity(F4, 1)] * 2)
    vals = eng4.evaluate(1, gen, [(A2.from_vector((1, 0)),),
                                  (A2.from_vector((0, 1)),)])
    kvec = kz.cocycle_from_values(vals.reshape(2, -1))
    pullback_nonzero = not kz.complex.slice(1).is_coboundary(kvec)
    return ({"h0_inverse_character": h0_dim,
             "h0_chi_squared": h0_chi2,
             "lifted_character_h1_annihilated_by_p":
                 tor.annihilated_by(1),
             "finite_field_line_restricts_nonzero": pullback_nonzero},
            {"h0_inverse_character": expected(0, "paper"),
             "h0_chi_squared": expected(0, "paper"),
             "lifted_character_h1_annihilated_by_p":
                 expected(True, "paper"),
             "finite_field_line_restricts_nonzero":
                 expected(True, "paper")})


@scenario("bock-alpha-nonzero-p2", "Bockstein of the class over the "
          "integer ring", "the obstruction survives the connecting map",
          defaults={}, tags=("fast", "integral"))
def _bock_alpha(seed, budget):
    from .tower import SolvableTower
    from .complexes import bockstein
    F4, GR, Q = _of_tower_data()
    rho_V = _of_rho_V(F4, F4.from_coeffs([0, 1]))
    alpha = _of_alpha_values(rho_V)
    V1 = {k: m.frobenius_entries() for k, m in rho_V.items()}
    tw = SolvableTower(F4, [V1["e1"], V1["e2"]], Q, V1["u"], V1["w"],
                       maxdeg=2)
    enc = tw.encode_one_cocycle([alpha["e1"], alpha["e2"]], alpha["u"],
                                alpha["w"])
    alpha_nonzero = not tw.complex.slice(1).is_coboundary(enc)
    V1t = {k: m.frobenius_entries()
           for k, m in _of_rho_V(GR, GR.from_coeffs([0, 1])).items()}
    twl = SolvableTower(GR, [V1t["e1"], V1t["e2"]], Q, V1t["u"],
                        V1t["w"], maxdeg=2)
    for i in range(3):
        red = twl.complex.d(i).map_entries(GR.reduce_mod_p)
        if not np.array_equal(red.data, tw.complex.d(i).data):
            raise AssertionError("lifted tower does not reduce correctly")
    b = bockstein(twl.complex.d(1), enc)
    sl2 = tw.complex.slice(2)
    return ({"alpha_nonzero": alpha_nonzero,
             "bockstein_is_cocycle": tw.complex.is_cocycle(2, b),
             "bockstein_alpha_nonzero": not sl2.is_coboundary(b)},
            {"alpha_nonzero": expected(True, "paper"),
             "bockstein_is_cocycle": expected(True, "trivial"),
             "bockstein_alpha_nonzero": expected(True, "paper")})
