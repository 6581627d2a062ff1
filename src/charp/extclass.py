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
from .gcoh import _apply_each, bar_faces
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


def _side_by_side(blocks):
    """A (K, rows, h) stack of blocks as one (rows, K h) array."""
    return blocks.transpose(1, 0, 2).reshape(blocks.shape[1], -1)


def _stacked(cols, K):
    """(rows, K h) columns as the (K, rows, h) stack of their blocks."""
    return cols.reshape(len(cols), K, cols.shape[1] // K).transpose(1, 0, 2)


def _conjugation_defects(ring, lefts, s, rights):
    """lefts[k] s rights[k] - s for a list of left matrices and a stack of
    right ones: one product of s with all the lefts stacked."""
    moved = ring.vmatmul(np.concatenate(lefts), s)
    return ring.vsub(_apply_each(ring, moved.reshape((len(lefts),) + s.shape),
                                 rights), s)


class HyperextClass:
    """Connecting class of a complex with exactly two cohomology groups.

    For cohomology A in degree a (the bottom of the complex) and B in
    degree b (the top), produces a (b-a+1)-cocycle of the group valued in
    Hom(B, A), as an evaluator on lists of group tuples.
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
        # stacked in element order: row g is rho_B(g)^-1
        self._rho_B_inv = np.array([m.data for m in self.rho_B_inv.values()],
                                   dtype=np.int64)
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

    def _induced(self, sl, i):
        """{g: the matrix of g on H^i over sl's generators}: every
        element's action stacked times the generators in one product,
        the images side by side in one express."""
        order = self.G.order
        stack = Mat(self.ring, np.concatenate(
            [self.ec.act(g, i).data for g in self.G.elements()]))
        images = (stack @ sl.gens).data.reshape(order, -1, sl.gens.cols)
        coeffs = _stacked(sl.express(_side_by_side(images)), order)
        return {g: Mat(self.ring, c)
                for g, c in zip(self.G.elements(), coeffs.copy())}

    def _lift(self, j, defects):
        """lambda_j with d^(b-j) lambda_j = c_j at every j-tuple, stacked
        like the defects: one solve of all of them side by side, with the
        image solver of H^(b-j+1)."""
        sl = self.ec.complex.slice(self.b - j + 1)
        out = sl.im_solver.solve_mat(Mat(self.ring, _side_by_side(defects)))
        if out is None:
            raise AssertionError("staircase step unsolvable; intermediate "
                                 "cohomology should vanish")
        return _stacked(out.data, len(defects))

    def _delta(self, lam, at, tuples):
        """Bar differential of the Hom(B, D^t)-valued cochain whose value
        at a tuple t is lam[at[t]], at each of ``tuples``: face 0 moved by
        its first element g, one product per g."""
        ring, first = self.ring, [t[0] for t in tuples]
        t_deg = self.b - len(tuples[0]) + 1
        faces = np.array([[at[f] for f in bar_faces(self.G.mul, t)]
                          for t in tuples], dtype=np.int64)
        moved = _apply_each(ring, lam[faces[:, 0]], self._rho_B_inv[first])
        acc = np.empty_like(moved)
        for g in dict.fromkeys(first):
            k = [i for i, f in enumerate(first) if f == g]
            acc[k] = _stacked(ring.vmatmul(self.ec.act(g, t_deg).data,
                                           _side_by_side(moved[k])), len(k))
        for i in range(1, faces.shape[1]):
            acc = (ring.vsub if i % 2 else ring.vadd)(acc, lam[faces[:, i]])
        return acc

    def vec_evaluator(self):
        """[(g_1, ..., g_(b-a+1)), ...] -> the H^a-coordinates x B-gens
        matrix at each tuple, flattened row-major (A-coords major) and
        stacked, for engine use.  The staircase runs on all tuples at
        once: the tuples of each degree are the faces of those above, and
        each degree is one lift; the top one is one express."""
        G = self.G

        def fn(tuples):
            tuples = [tuple(t) for t in tuples]
            if any(len(t) != self.degree for t in tuples):
                raise ValueError("tuple length mismatch")
            levels = [tuples]
            for _ in range(self.degree - 1):
                levels.append(list(dict.fromkeys(
                    f for t in levels[-1] for f in bar_faces(G.mul, t))))
            lower = levels.pop()
            first = [g for g, in lower]
            # c_1(g) = g sigma rho_B(g)^-1 - sigma
            c = _conjugation_defects(self.ring, [
                self.ec.act(g, self.b).data for g in first], self.sigma.data,
                self._rho_B_inv[first])
            while levels:
                lam = self._lift(len(lower[0]), c)
                upper = levels.pop()
                c = self._delta(lam, {t: k for k, t in enumerate(lower)},
                                upper)
                lower = upper
            return _stacked(self.a_slice.express(_side_by_side(c)),
                            len(c)).ravel()

        return fn

    def hom_rank(self):
        return self.a_slice.gens.cols * self.b_slice.gens.cols

    def hom_action(self, g):
        """Action on Hom(B, A)-coordinates: f -> rho_A(g) f rho_B(g)^-1."""
        return kron(self.rho_A[g], self.rho_B_inv[g].transpose())

    def spot_check_cocycle(self, rng, trials=5):
        """The bar differential of the class vanishes at ``trials`` random
        tuples; the class is evaluated at all their faces in one call."""
        G, ring, n = self.G, self.ring, self.degree
        tups = [tuple(rng.randrange(G.order) for _ in range(n + 1))
                for _ in range(trials)]
        vals = self.vec_evaluator()([f for t in tups
                                     for f in bar_faces(G.mul, t)])
        for tup, (v0, *rest) in zip(tups, vals.reshape(trials, n + 2, -1)):
            acc = ring.vmatmul(self.hom_action(tup[0]).data, v0[:, None])[:, 0]
            for i, term in enumerate(rest, 1):
                acc = (ring.vsub if i % 2 else ring.vadd)(acc, term)
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
        """[(g,), ...] -> c(g) in K x Q coordinates at each g, flattened
        row-major and stacked: one product for all rho_E(g) s and one
        solve of all the defects side by side."""
        G, ring = self.G, self.ring

        def fn(tuples):
            gs = [g for g, in tuples]
            diff = _conjugation_defects(
                ring, [self.rho_E[g].data for g in gs], self.s.data,
                np.array([self.rho_Q[G.inv(g)].data for g in gs],
                         dtype=np.int64))
            out = self._iota_ech.solve_mat(Mat(ring, _side_by_side(diff)))
            if out is None:
                raise AssertionError("splitting defect not in the kernel")
            return _stacked(out.data, len(gs)).ravel()

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
    # F*, Sym^2 and Lambda^2 are functors: each element's matrices are
    # products of the generators'
    gens = [Vmod.act(g) for g in group.generators]
    rho_K, rho_E, rho_Q = actions_from_generators(group, {
        0: dict(enumerate(m.frobenius_entries() for m in gens)),
        1: dict(enumerate(sym_power_matrix(ring, m, 2) for m in gens)),
        2: dict(enumerate(ext_power_matrix(ring, m, 2) for m in gens))
    }).values()
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
    # the rank-d blocks of a level, built on the N^n columns only (none
    # where N^n is empty)
    gen_maps = {}
    for j, gidx in enumerate(group.generators):
        act = Vmod.act(gidx)
        level_maps = [sym_power_matrix(
            ring, kron(Mat.identity(ring, A.rank(n) // d), act), p, cols=sel)
            if len(sel) else None for n, sel in enumerate(conorm.sel)]
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
