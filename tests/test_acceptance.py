"""Acceptance suite: one test per criterion, each printing a pass line
and enforcing its stated wall-clock budget.

The p = 5 stretch parts run only under the "full" budget profile
(CHARP_BUDGET_PROFILE=full); under "fast" they are announced as skipped,
which is a first-class outcome, never a silent pass.
"""

import random
import time

from charp.config import DEFAULT
from charp.complexes import cohomology_dims, shifted_module
from charp.doldkan import PolyFunctor, conormalize, derived_power
from charp.linalg import Mat
from charp.rings import prime_field, ring_make
from charp.scenarios import run as run_scenario

from helpers import trivial_module


class Clock:
    def __init__(self, number, limit):
        self.number = number
        self.limit = limit
        self.t0 = time.time()

    def done(self, detail=""):
        dt = time.time() - self.t0
        line = (f"ACCEPTANCE {self.number}: PASS  "
                f"({dt:.1f}s < {self.limit}s) {detail}")
        print(line)
        assert dt < self.limit, f"criterion {self.number} over budget"


def _assert_pass(report):
    assert report["pass"], (report["id"], report["params"],
                            report["computed"], report["expected"])


def test_criterion_01_decalage():
    clock = Clock(1, 10)
    cases = 0
    for p in (2, 3):
        for dim in range(1, 5):
            for n in range(1, p + 1):
                _assert_pass(run_scenario("decalage",
                                          {"p": p, "dim": dim, "n": n}))
                cases += 1
    clock.done(f"exterior power in degree n, {cases} cases")


def test_criterion_02_symmetric_power():
    # the stated budget is for the fast profile; the p = 5 stretch is
    # untimed under "full"
    clock = Clock(2, 60 if DEFAULT.profile != "full" else 900)
    for p in (2, 3):
        for dim in (1, 2, 3):
            _assert_pass(run_scenario("sym-cohomology",
                                      {"p": p, "dim": dim}))
    stretch = ""
    if DEFAULT.profile == "full":
        _assert_pass(run_scenario("sym-cohomology", {"p": 5, "dim": 2}))
        stretch = "+ p=5 stretch"
    else:
        stretch = "(p=5 stretch skipped: fast profile)"
    clock.done(f"twist, twist, top exterior dims {stretch}")


def test_criterion_03_four_term_exactness():
    clock = Clock(3, 5)
    for p in (2, 3):
        for dim in (1, 2, 3):
            _assert_pass(run_scenario("four-term-exact",
                                      {"p": p, "dim": dim}))
    clock.done("norm kernel/cokernel ranks and exactness")


def test_criterion_04_norm_cokernel():
    clock = Clock(4, 5)
    for p in (2, 3):
        for dim in (1, 2, 3):
            _assert_pass(run_scenario("norm-cokernel-zp2",
                                      {"p": p, "dim": dim}))
    clock.done("cokernel (Z/p)^rank over Z/p^2")


def test_criterion_05_cartier():
    clock = Clock(5, 30)
    for p in (2, 3, 5):
        _assert_pass(run_scenario("cartier", {"p": p}))
    clock.done("weight complexes: acyclicity and the two twists")


def test_criterion_06_steenrod_identities():
    clock = Clock(6, 120)
    for p in (2, 3):
        _assert_pass(run_scenario("steenrod-p0", {"p": p, "max_i": 3}))
        _assert_pass(run_scenario("steenrod-p1", {"p": p}))
        _assert_pass(run_scenario("witt-bockstein-agree", {"p": p}))
        _assert_pass(run_scenario("algebra-bockstein", {"p": p}))
    clock.done("P0 = id, P1 = Bockstein, Witt agreement, algebra identity")


def test_criterion_07_witt_identities():
    clock = Clock(7, 1)
    for p in (2, 3, 5):
        _assert_pass(run_scenario("witt-identity", {"p": p}))
    _assert_pass(run_scenario("ghost-v", {"p": 3, "count": 1000}))
    clock.done("p^2 = V(p); ghost of V on 1000 samples")


def test_criterion_08_additive_and_lattice():
    clock = Clock(8, 10)
    for p, r, n in ((2, 2, 1), (3, 2, 1), (2, 1, 2), (3, 1, 2)):
        _assert_pass(run_scenario(
            "additive-cohomology-dims",
            {"p": p, "r": r, "n": n, "max_deg": 3}))
    for m in (1, 2, 3):
        _assert_pass(run_scenario("lattice-vanishing", {"m": m}))
    clock.done("additive group dims; lattice binomials and vanishing")


def test_criterion_09_weight_combinatorics():
    clock = Clock(9, 60 if DEFAULT.profile != "full" else 900)
    for p in (2, 3):
        for sid in ("weights-1", "weights-2", "weights-4"):
            _assert_pass(run_scenario(sid, {"p": p}))
    _assert_pass(run_scenario("weights-3", {"p": 3}))
    # At p = 2 the no-congruence claim of part (3) fails as stated (the
    # source's proof assumes p >= 3): 2^2 chi_1 = -2 chi_1 = 2 chi_2
    # mod q-1 = 3.  The certified search finds exactly that congruence.
    rep2 = run_scenario("weights-3", {"p": 2})
    assert rep2["computed"]["congruence_counts"] == [1], \
        "documented p = 2 counterexample changed"
    for sid in ("borel-1", "borel-2", "borel-3"):
        _assert_pass(run_scenario(sid, {"p": 3}))
    stretch = "(p=5 stretch skipped: fast profile)"
    if DEFAULT.profile == "full":
        for sid in ("weights-2", "weights-3", "weights-4",
                    "borel-1", "borel-2", "borel-3"):
            _assert_pass(run_scenario(sid, {"p": 5}))
        _assert_pass(run_scenario("weights-1", {"p": 5}))
        stretch = "+ p=5 stretch"
    clock.done(f"unique expressions and empty congruence lists {stretch}")


def test_criterion_10_alpha_nonvanishing():
    clock = Clock(10, 300)
    _assert_pass(run_scenario("alpha-sl2-f4"))
    _assert_pass(run_scenario("alpha-u2-f2-zero"))
    rep = run_scenario("alpha-ta-f9", {"p": 3})
    _assert_pass(rep)
    assert "alpha_nonzero_q_equals_p" in rep["computed"]  # reported only
    _assert_pass(run_scenario("chi1-iso", {"p": 2}))
    clock.done("nonzero over SL_2(F_4) and (T x| A)(F_9); zero on U_2(F_2)")


def test_criterion_11_integer_ring_chain():
    clock = Clock(11, 60)
    _assert_pass(run_scenario("integral-facts-p2"))
    _assert_pass(run_scenario("bock-alpha-nonzero-p2"))
    clock.done("H^0 vanishing, p-torsion, Bockstein of the class nonzero")


def test_criterion_12_cross_oracles():
    clock = Clock(12, 180)
    # (a) bar vs nerve dims on the test groups
    from charp.cosalg import NerveAlgebra
    from charp.gcoh import BarEngine
    from charp.groups import ElementaryAbelian, GModule, cyclic_group
    groups = [cyclic_group(2), cyclic_group(3), cyclic_group(4),
              ElementaryAbelian(2, 2), cyclic_group(5), cyclic_group(6),
              ElementaryAbelian(3, 2)]
    for G in groups:
        for p in (2, 3):
            F = ring_make(prime_field(p))
            D = 3 if (G.order - 1) ** 4 < 10 ** 5 else 2
            A = NerveAlgebra(G, F, D + 1)
            nerve = cohomology_dims(conormalize(A.module).complex)[:D + 1]
            bar = BarEngine(G, trivial_module(G, F), D)
            assert nerve == bar.dims()
    # (b) semidirect reduction vs direct bar
    _assert_pass(run_scenario("semidirect-agree"))
    # (c) hyperext choice independence over 10 random splittings
    from charp.extclass import HyperextClass, omega_model
    from charp.gcoh import PeriodicEngine
    from charp.rings import galois_field
    F9 = ring_make(galois_field(3, 2, (1, 0, 1)))
    A3 = ElementaryAbelian(3, 4)

    def act(aidx):
        vec = A3.vector(aidx)
        a2 = F9.from_coeffs([vec[0], vec[1]])
        a3 = F9.from_coeffs([vec[2], vec[3]])
        return Mat(F9, [[F9.one, a2, a3],
                        [F9.zero, F9.one, F9.zero],
                        [F9.zero, F9.zero, F9.one]])
    V = GModule.from_function(A3, F9, act, check=False)
    ec = omega_model(A3, V, 3)
    eng = None
    first = None
    for seed in range(10):
        hy = HyperextClass(ec, A3, rng=random.Random(seed))
        if eng is None:
            eng = PeriodicEngine(A3, F9,
                                 [hy.hom_action(g) for g in A3.generators],
                                 3)
        vec = eng.cocycle_from_function(2, hy.vec_evaluator())
        if first is None:
            first = vec
        else:
            assert eng.complex.slice(2).classes_equal(first, vec)
    # (d) derived power stability under a level-bound increase
    for p in (2, 3):
        F = ring_make(prime_field(p))
        C = shifted_module(F, 2)
        a = derived_power(PolyFunctor("sym", p), C, p)
        b = derived_power(PolyFunctor("sym", p), C, p + 1)
        for i in range(0, p + 1):
            assert a.slice(i).dim() == b.slice(i).dim()
    clock.done("bar/nerve, semidirect, splitting independence, stability")
