"""Extension classes of equivariant complexes.

The characteristic class of a rank-p module V is the connecting class of
the two-cohomology complex tau^(>=2) S^p(V[-1]) (equivalently, of the
truncated weight-p de Rham complex): a (p-1)-cocycle valued in
Hom(Lambda^p V, F*V).  For p = 2 it is the splitting cocycle of the short
exact sequence 0 -> F*V -> S^2 V -> Lambda^2 V -> 0.

For p > 2 the class is computed by a staircase: lift a linear splitting of
the top cohomology through the complex, degree by degree, which is always
possible because the intermediate cohomology vanishes.
"""

import random
from math import comb

import numpy as np

from .complexes import shifted_module, truncate_ge, truncate_le
from .config import DEFAULT
from .doldkan import (PolyFunctor, _check_power_budget, _sym_rank,
                      conormalize, conormalize_map, de_rham_weight_complex,
                      dold_kan, ext_power_matrix, monomials,
                      natural_level_map, sym_power_matrix)
from .gcoh import bar_faces
from .linalg import Mat, echelon, kron


class EquivariantComplex:
    """A field complex with a compatible group action in every degree.

    ``actions``: dict degree -> dict element -> Mat.  Multiplicativity is
    the caller's responsibility (covered by building from generators).
    """

    def __init__(self, complex_, actions, check_elements=None):
        self.complex = complex_
        self.actions = actions
        if check_elements:
            for g in check_elements:
                for i in range(complex_.lo, complex_.hi):
                    lhs = complex_.d(i) @ self.act(g, i)
                    rhs = self.act(g, i + 1) @ complex_.d(i)
                    if not (lhs - rhs).is_zero():
                        raise ValueError(
                            f"action of {g} does not commute with d at {i}")

    def act(self, g, i):
        return self.actions[i][g]


def actions_from_generators(group, degree_mats):
    """Extend generator action matrices multiplicatively to all elements.

    ``degree_mats``: dict degree -> dict generator-position -> Mat.
    Elements are reached breadth-first, so every element's matrix is a
    product of generator matrices (rho(g s) = rho(g) rho(s)): on each
    level, one product per degree and generator, its sources stacked."""
    gens = list(group.generators)
    ring = next(iter(degree_mats.values()))[0].ring
    full = {i: {group.identity: Mat.identity(ring, mats[0].rows)}
            for i, mats in sorted(degree_mats.items())}
    known, level = {group.identity}, [group.identity]
    while level:
        # the new elements h = g s_j of this level in discovery order, and
        # the (h, g) pairs of each generator
        new, by_gen = [], [[] for _ in gens]
        for g in level:
            for j, s in enumerate(gens):
                h = group.mul(g, s)
                if h not in known:
                    known.add(h)
                    new.append(h)
                    by_gen[j].append((h, g))
        for i, acts in full.items():
            prods = {}
            for j, pairs in enumerate(by_gen):
                if pairs:
                    hs, srcs = zip(*pairs)
                    stack = Mat(ring, np.concatenate([acts[g].data
                                                      for g in srcs]))
                    prods.update(zip(hs, (stack @ degree_mats[i][j]).data
                                     .reshape(len(hs), -1, stack.cols)))
            acts.update((h, Mat(ring, prods[h])) for h in new)
        level = new
    if len(known) != group.order:
        raise ValueError("generators do not generate the group")
    return full


class HyperextClass:
    """Connecting class of a complex with exactly two cohomology groups.

    For cohomology A in degree a (the bottom of the complex) and B in
    degree b (the top), produces a (b-a+1)-cocycle of the group valued in
    Hom(B, A), as an evaluator on group tuples.
    """

    def __init__(self, equivariant, group, rng=None):
        self.ec = equivariant
        self.G = group
        C = equivariant.complex
        self.ring = C.ring
        rng = rng or random.Random(0)
        dims = {i: C.slice(i).dim() for i in C.degrees()}
        nonzero = [(i, n) for i, n in dims.items() if n]
        if len(nonzero) != 2:
            raise ValueError(f"expected exactly two cohomology groups, "
                             f"found {nonzero}")
        (self.a, _), (self.b, _) = nonzero
        if self.a != C.lo or self.b != C.hi:
            raise ValueError("cohomology must sit at the ends of the "
                             "complex")
        self.a_slice, self.b_slice = C.slice(self.a), C.slice(self.b)
        self.degree = self.b - self.a + 1
        # induced actions on A = H^a and B = H^b
        self.rho_A = self._induced(self.a_slice, self.a)
        self.rho_B = self._induced(self.b_slice, self.b)
        self.rho_B_inv = {g: self.rho_B[group.inv(g)]
                          for g in group.elements()}
        # linear splitting sigma_0 : B -> D^b of the projection onto H^b,
        # perturbed by a random coboundary part for choice-independence
        sigma = self.b_slice.gens
        d_in = C.d(self.b - 1)
        if d_in.cols:
            # one coefficient column per generator, drawn in turn
            coeffs = np.array([self.ring.random(rng)
                               for _ in range(sigma.cols * d_in.cols)],
                              dtype=np.int64).reshape(sigma.cols, d_in.cols)
            sigma = sigma + d_in @ Mat(self.ring, coeffs.T)
        self.sigma = sigma
        self._lam = {1: {}}

    def _induced(self, sl, i):
        """{g: the matrix of g on H^i over sl's generators}: every
        element's action stacked times the generators in one product,
        the images side by side in one express."""
        order, n, h = self.G.order, sl.gens.rows, sl.gens.cols
        stack = Mat(self.ring, np.concatenate(
            [self.ec.act(g, i).data for g in self.G.elements()]))
        images = (stack @ sl.gens).data.reshape(order, n, h)
        coeffs = sl.express(images.transpose(1, 0, 2).reshape(n, order * h))
        return {g: Mat(self.ring, c) for g, c in zip(
            self.G.elements(),
            coeffs.reshape(h, order, h).transpose(1, 0, 2).copy())}

    def _delta(self, lam, tup):
        """Bar differential of a Hom(B, D^t)-valued cochain at a tuple."""
        t_deg = self.b - len(tup) + 1
        faces = bar_faces(self.G.mul, tup)
        acc = self.ec.act(tup[0], t_deg) @ lam(faces[0]) @ \
            self.rho_B_inv[tup[0]]
        for i, face in enumerate(faces[1:], 1):
            term = lam(face)
            acc = acc + (term if i % 2 == 0 else -term)
        return acc

    def _lambda(self, j, tup):
        """Lift of the j-th defect: d^(b-j) lambda_j(t) = c_j(t)."""
        memo = self._lam.setdefault(j, {})
        if tup in memo:
            return memo[tup]
        ring = self.ring
        if all(g == self.G.identity for g in tup):
            out = Mat.zeros(ring, self.ec.complex.rank(self.b - j),
                            self.sigma.cols)
        else:
            c = self._defect(j, tup)
            # the image solver of H^(b-j+1) solves against d^(b-j)
            sl = self.ec.complex.slice(self.b - j + 1)
            out = sl.im_solver.solve_mat(c)
            if out is None:
                raise AssertionError(
                    "staircase step unsolvable; intermediate cohomology "
                    "should vanish")
        memo[tup] = out
        return out

    def _defect(self, j, tup):
        """c_j valued in Hom(B, D^(b-j+1))."""
        if j == 1:
            g = tup[0]
            return self.ec.act(g, self.b) @ self.sigma @ \
                self.rho_B_inv[g] - self.sigma
        return self._delta(lambda t: self._lambda(j - 1, t), tup)

    def vec_evaluator(self):
        """(g_1, ..., g_(b-a+1)) -> the H^a-coordinates x B-gens matrix,
        flattened row-major (A-coords major) for engine use."""
        top_j = self.b - self.a

        def fn(*tup):
            if len(tup) != self.degree:
                raise ValueError("tuple length mismatch")
            c = self._delta(lambda t: self._lambda(top_j, t), tup)
            return self.a_slice.express(c.data).ravel()

        return fn

    def hom_rank(self):
        return self.a_slice.gens.cols * self.b_slice.gens.cols

    def hom_action(self, g):
        """Action on Hom(B, A)-coordinates: f -> rho_A(g) f rho_B(g)^-1."""
        return kron(self.rho_A[g], self.rho_B_inv[g].transpose())

    def spot_check_cocycle(self, rng, trials=5):
        G, ring = self.G, self.ring
        fn = self.vec_evaluator()
        n = self.degree
        for _ in range(trials):
            tup = tuple(rng.randrange(G.order) for _ in range(n + 1))
            faces = bar_faces(G.mul, tup)
            acc = self.ring.vmatmul(
                self.hom_action(tup[0]).data,
                np.asarray(fn(*faces[0]), dtype=np.int64)[:, None])[:, 0]
            for i, face in enumerate(faces[1:], 1):
                term = np.asarray(fn(*face), dtype=np.int64)
                if i % 2 == 1:
                    term = ring.vneg(term)
                acc = ring.vadd(acc, term)
            if not np.all(acc == ring.zero):
                raise AssertionError("staircase output is not a cocycle")


# ---------------------------------------------------------------------------
# splitting cocycle of a module extension (the p = 2 alpha class)

class ExtensionCocycle:
    """c(g) = iota^-1(rho_E(g) s rho_Q(g)^-1 - s) for 0 -> K -> E -> Q -> 0.

    All data given as matrices: iota (E x K), proj (Q x E), s a linear
    section (E x Q); actions rho_K, rho_E, rho_Q as dicts over the group.
    """

    def __init__(self, group, ring, iota, proj, section, rho_K, rho_E,
                 rho_Q):
        self.G = group
        self.ring = ring
        self.iota = iota
        self.proj = proj
        self.s = section
        self.rho_K = rho_K
        self.rho_E = rho_E
        self.rho_Q = rho_Q
        if not (proj @ section - Mat.identity(ring, proj.rows)).is_zero():
            raise ValueError("section does not split the projection")
        if not (proj @ iota).is_zero():
            raise ValueError("iota does not land in the kernel")
        self._iota_ech = echelon(iota)

    def vec_evaluator(self):
        """g -> c(g) in K x Q coordinates, flattened row-major."""
        G = self.G

        def fn(g):
            diff = self.rho_E[g] @ self.s @ self.rho_Q[G.inv(g)] - self.s
            out = self._iota_ech.solve_mat(diff)
            if out is None:
                raise AssertionError("splitting defect not in the kernel")
            return out.data.ravel()

        return fn

    def hom_action(self, g):
        """Action on Hom(Q, K)-coordinates: f -> rho_K(g) f rho_Q(g)^-1."""
        return kron(self.rho_K[g], self.rho_Q[self.G.inv(g)].transpose())


def symmetric_square_extension(group, Vmod):
    """0 -> F*V -> S^2 V -> Lambda^2 V -> 0 with its splitting cocycle."""
    ring = Vmod.ring
    if ring.p != 2:
        raise ValueError("the short-exact-sequence model is for p = 2")
    d = Vmod.rank
    iota = natural_level_map("Delta", ring, d, 2).dense()
    # dx_a ^ dx_b (a < b) is the image of x_a x_b: proj reads those
    # monomials of S^2 V, sec puts them back
    pairs = _sym_rank(monomials("ext", d, 2), d)
    proj = Mat.zeros(ring, len(pairs), comb(d + 1, 2))
    proj.data[np.arange(len(pairs)), pairs] = ring.one
    sec = proj.transpose()
    rho_K = {g: Vmod.act(g).frobenius_entries()
             for g in group.elements()}
    rho_E = {g: sym_power_matrix(ring, Vmod.act(g), 2)
             for g in group.elements()}
    rho_Q = {g: ext_power_matrix(ring, Vmod.act(g), 2)
             for g in group.elements()}
    return ExtensionCocycle(group, ring, iota, proj, sec, rho_K, rho_E,
                            rho_Q)


# ---------------------------------------------------------------------------
# equivariant models of tau^(>=.) S^p(V[-1])

def omega_model(group, Vmod, p):
    """tau^(>=1) of the truncated weight-p de Rham complex, equivariant.

    Terms S^(p-i)V (x) Lambda^i V for i <= p-1; the group acts through
    Sym and Ext powers of the module action.
    """
    ring = Vmod.ring
    C = de_rham_weight_complex(ring, Vmod.rank, p, upto=p - 1)
    Ct, Q, project = truncate_ge(C, 1)
    gen_mats = {}
    for i in range(0, p):
        gen_mats[i] = {}
    for j, gidx in enumerate(group.generators):
        act = Vmod.act(gidx)
        for i in range(0, p):
            m = kron(sym_power_matrix(ring, act, p - i),
                     ext_power_matrix(ring, act, i))
            gen_mats[i][j] = m
    # transport degree-1 ... p-1 to the truncated complex
    trunc_gens = {}
    for i in range(1, p):
        trunc_gens[i] = {}
        for j in gen_mats[i]:
            if i == 1:
                trunc_gens[1][j] = project(gen_mats[1][j] @ Q)
            else:
                trunc_gens[i][j] = gen_mats[i][j]
    actions = actions_from_generators(group, trunc_gens)
    return EquivariantComplex(Ct, actions,
                              check_elements=list(group.generators))


class AlphaClass:
    """The characteristic class of a rank-p module, with its zero test.

    ``engine_factory`` takes a ``hom_action`` (group element -> Mat) and
    returns an engine exposing cocycle_from_function and complex (bar or
    elementary-abelian).  For p = 2 the one model is the splitting cocycle
    of 0 -> F*V -> S^2 V -> Lambda^2 V -> 0; for p > 2 there are two, the
    staircase classes of the omega and the derived chain models.

    ``models`` maps each model's name to (model, engine, cocycle vector),
    ``flags`` to (is_cocycle, is_coboundary) and ``nonzero_by_model`` to
    whether the vector is a cocycle and not a coboundary; the first
    model's data are also ``engine``, ``vector``, ``is_cocycle``,
    ``is_coboundary`` and ``nonzero``.  ``models_agree`` says whether
    every model decides alike (a disagreement is reported, not raised).
    """

    def __init__(self, group, Vmod, engine_factory, rng=None):
        p = Vmod.ring.p
        if Vmod.rank != p:
            raise ValueError("the class needs a module of rank p")
        self.degree = p - 1
        self.p = p
        rng = rng or random.Random(0)
        builders = ((("extension", symmetric_square_extension),) if p == 2
                    else (("omega", omega_model),
                          ("derived", derived_sym_model)))
        self.models, self.flags = {}, {}
        for name, builder in builders:
            model = builder(group, Vmod) if p == 2 else \
                HyperextClass(builder(group, Vmod, p), group, rng=rng)
            engine = engine_factory(model.hom_action)
            vec = engine.cocycle_from_function(self.degree,
                                               model.vec_evaluator())
            cx = engine.complex
            self.models[name] = (model, engine, vec)
            self.flags[name] = (
                bool(cx.is_cocycle(self.degree, vec)),
                bool(cx.slice(self.degree).is_coboundary(vec)))
        self.nonzero_by_model = {name: c and not b
                                 for name, (c, b) in self.flags.items()}
        first = next(iter(self.models))
        _, self.engine, self.vector = self.models[first]
        self.is_cocycle, self.is_coboundary = self.flags[first]
        self.nonzero = self.nonzero_by_model[first]
        self.models_agree = len(set(self.nonzero_by_model.values())) == 1


def derived_sym_model(group, Vmod, p, budget=None):
    """tau^(>=2) tau^(<=p) of the derived p-th symmetric power of V[-1],
    with the group acting through the Dold-Kan levels."""
    if p < 3:
        raise ValueError("use the short-exact-sequence model for p = 2")
    ring = Vmod.ring
    d = Vmod.rank
    C = shifted_module(ring, d, 1)
    sym = PolyFunctor("sym", p)
    _check_power_budget(sym, C, p + 1, budget or DEFAULT)
    A = dold_kan(C, p + 1)
    conorm = conormalize(A, functor=sym)
    S = conorm.complex
    # generator actions: DK of the chain map rho(g) is rho(g) on each of
    # the rank-d blocks of a level
    gen_maps = {}
    for j, gidx in enumerate(group.generators):
        act = Vmod.act(gidx)
        level_maps = [sym_power_matrix(
            ring, kron(Mat.identity(ring, A.rank(n) // d), act), p)
            for n in range(p + 2)]
        gen_maps[j] = conormalize_map(conorm, conorm, level_maps)
    # canonical truncation above p (the top computed level is unreliable):
    # the new top is ker d^p, and the action restricts to it
    Sle, K, restrict = truncate_le(S, p)
    # then kill H^(<2) from below
    Ct, Q, project = truncate_ge(Sle, 2)
    trunc_gens = {i: {} for i in range(2, p + 1)}
    for j, cm in gen_maps.items():
        for i in range(2, p + 1):
            if i == p:
                restricted = restrict(cm.component(p) @ K)
                if restricted is None:
                    raise AssertionError("action does not preserve ker d^p")
                trunc_gens[p][j] = restricted
            elif i == 2:
                trunc_gens[2][j] = project(cm.component(2) @ Q)
            else:
                trunc_gens[i][j] = cm.component(i)
    actions = actions_from_generators(group, trunc_gens)
    return EquivariantComplex(Ct, actions,
                              check_elements=list(group.generators))
