import time
from math import comb

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from charp import roots
from charp.config import DEFAULT, Budget, BudgetExceeded
from charp.roots import (chi, enumerate_expressions, find_quadratic_field,
                         is_exact, monoid_member, norm_subgroup_order,
                         positive_roots, wieferich_expression,
                         _unit_order_in_fp2, _is_residue)
from charp.scenarios import _borel_set, run as run_scenario
from helpers import as_expressions, expressions_oracle, monoid_member_oracle


def test_positive_roots_counts():
    for p in (2, 3, 5, 7):
        du = positive_roots(p)
        assert du.shape == (comb(p - 1, 2) + (p - 1), p - 1)
        assert du.dtype == np.int64 and not du.flags.writeable
        rows = set(map(tuple, du.tolist()))
        # Delta_A = {chi_1 - chi_i : 2 <= i <= p} lies in Delta_U
        assert all(tuple((chi(p, 1) - chi(p, i)).tolist()) in rows
                   for i in range(2, p + 1))


def test_positive_roots_p2_p3():
    assert positive_roots(2).tolist() == [[2]]
    assert positive_roots(3).tolist() == [[1, -1], [2, 1], [1, 2]]
    assert chi(3, 3).tolist() == [-1, -1] and not chi(3, 1).flags.writeable


def test_unique_expression_of_p_chi1():
    # p=3: exactly (chi1 - chi2) + (2chi1 + chi2)
    du3 = positive_roots(3)
    exprs = enumerate_expressions(3, 3 * chi(3, 1), du3, 2)
    assert [(r.tolist(), g.tolist()) for r, g in exprs] == [([0, 0], [0, 1])]
    assert as_expressions(du3, exprs) == [((0, (1, -1)), (0, (2, 1)))]


def test_no_congruence_other_characters():
    du3 = positive_roots(3)
    for j in (2, 3):
        t = 3 * chi(3, j)
        assert enumerate_expressions(3, t, du3, 2, modulus=8) == []


def test_borel_unique_congruence_is_exact():
    S = [chi(3, 1) - chi(3, i) for i in (2, 3)]
    S += [3 * v for v in S]
    t = 3 * chi(3, 1)
    found = enumerate_expressions(3, t, S, 2, exponent_bound=0, modulus=4)
    assert len(found) == 1 and is_exact(3, t, S, found[0])
    assert not is_exact(3, t + 4, S, found[0])


def test_is_exact_sums_in_python_ints():
    # 3^40 (1, -1) leaves int64; the sum is still exact
    expr = (np.array([40]), np.array([0]))
    assert is_exact(3, [3 ** 40, -3 ** 40], [[1, -1]], expr)
    assert not is_exact(3, [3 ** 40, 1 - 3 ** 40], [[1, -1]], expr)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_monoid_membership(p):
    assert monoid_member(p, p * chi(p, 1))
    for j in range(2, p + 1):
        assert not monoid_member(p, p * chi(p, j))


@seed(2026)
@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_monoid_member_matches_oracle(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    target = data.draw(st.lists(st.integers(-3, 2 * p), min_size=p - 1,
                                max_size=p - 1))
    assert monoid_member(p, target) == monoid_member_oracle(p, target)


@pytest.mark.parametrize("p", [2, 3])
def test_exact_is_sublist_of_congruence(p):
    # every exact equality shows up among the congruences mod q-1
    du = positive_roots(p)
    t = p * chi(p, 1)
    exact = enumerate_expressions(p, t, du, p - 1, exponent_bound=1)
    cong = enumerate_expressions(p, t, du, p - 1, exponent_bound=1,
                                 modulus=p * p - 1)
    cong = as_expressions(du, cong)
    for e in as_expressions(du, exact):
        assert e in cong


def test_certified_exponent_bound_refuses_bad_generators():
    with pytest.raises(ValueError):
        enumerate_expressions(3, chi(3, 1), [(-1, 0)], 2)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("gen_set", ["U", "borel"])
def test_enumerate_matches_oracle(p, gen_set):
    gens = positive_roots(p) if gen_set == "U" else _borel_set(p)
    targets = [p * chi(p, 1), p * chi(p, p), [0] * (p - 1)]
    for max_terms in range(4):
        for bound in (0, 1, 2, None):
            for modulus in (0, p + 1, p * p - 1):
                for t in targets:
                    args = (p, t, gens, max_terms, bound, modulus)
                    assert as_expressions(
                        gens, enumerate_expressions(*args)) == \
                        expressions_oracle(*args), args


@seed(2027)
@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_enumerate_matches_oracle_on_random_generators(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    vec = st.lists(st.integers(-4, 4), min_size=p - 1, max_size=p - 1)
    gens = data.draw(st.lists(vec, max_size=4))
    target = data.draw(vec)
    max_terms = data.draw(st.integers(0, 3))
    bound = data.draw(st.integers(0, 2))
    modulus = data.draw(st.sampled_from([0, p + 1, p * p - 1, 7 * p + 1]))
    args = (p, target, gens, max_terms, bound, modulus)
    assert as_expressions(gens, enumerate_expressions(*args)) == \
        expressions_oracle(*args)


def test_enumerate_refuses_sums_beyond_int64():
    du3 = positive_roots(3)
    t = 3 * chi(3, 1)
    # 2 terms of coordinate 2 times 3^39 > 2^63; the congruence is bounded
    with pytest.raises(ValueError, match="int64"):
        enumerate_expressions(3, t, du3, 2, exponent_bound=39)
    assert as_expressions(du3, enumerate_expressions(
        3, t, du3, 2, exponent_bound=39, modulus=8)) == \
        as_expressions(du3, enumerate_expressions(3, t, du3, 2, modulus=8))


def test_enumerate_refuses_over_budget_before_building(monkeypatch):
    def built(*_args):
        raise AssertionError("a level was built")

    monkeypatch.setattr(roots.np, "repeat", built)
    du3 = positive_roots(3)
    # 3 roots x 7 exponents: the 4-term level has comb(24, 4) rows
    with pytest.raises(BudgetExceeded, match="10626-row"):
        enumerate_expressions(3, 3 * chi(3, 1), du3, 4, exponent_bound=6,
                              budget=Budget(DEFAULT, max_cells=1000))


def test_deterministic_ordering():
    du3 = positive_roots(3)
    t = 3 * chi(3, 1)
    a = enumerate_expressions(3, t, du3, 3, exponent_bound=2)
    b = enumerate_expressions(3, t, du3, 3, exponent_bound=2)
    assert as_expressions(du3, a) == as_expressions(du3, b)


@pytest.mark.parametrize("id_", ["weights-1", "weights-2", "weights-3",
                                 "weights-4"])
def test_weight_scenarios_skip_at_p101_before_building(id_):
    t0 = time.perf_counter()
    report = run_scenario(id_, {"p": 101})
    assert report["skipped"] and time.perf_counter() - t0 < 5


def test_field_search_p2_fixed_answer():
    data = find_quadratic_field(2)
    assert data.N == 5


@pytest.mark.parametrize("p", [3, 5, 7])
def test_field_search_conditions(p):
    data = find_quadratic_field(p)
    assert not _is_residue(p, data.N)
    assert _unit_order_in_fp2(p, data.d % p) == norm_subgroup_order(p)
    assert wieferich_expression(p, data.d) % (p * p) != 0


def test_wieferich_expression_exact():
    # Tr((d + sqrt(d^2+1))^p) - 2d reduces to 2(d^p - d) mod p
    for p in (3, 5, 7):
        for d in range(1, 12):
            w = wieferich_expression(p, d)
            assert w % p == (2 * (pow(d, p, p * p * p) - d)) % p
