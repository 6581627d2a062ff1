from math import comb

import pytest
from hypothesis import given, seed, settings, strategies as st

from charp import roots
from charp.config import DEFAULT, Budget, BudgetExceeded
from charp.roots import (Expression, WeightVector, chi, enumerate_expressions,
                         find_quadratic_field, monoid_member,
                         norm_subgroup_order, positive_roots,
                         wieferich_expression, _unit_order_in_fp2,
                         _is_residue)
from charp.scenarios import _borel_set
from helpers import expressions_oracle, monoid_member_oracle


def test_positive_roots_counts():
    for p in (2, 3, 5, 7):
        du, da = positive_roots(p)
        assert len(du) == comb(p - 1, 2) + (p - 1)
        assert len(da) == p - 1
        assert all(r in du for r in da)


def test_positive_roots_p2_p3():
    du2, _ = positive_roots(2)
    assert du2 == [WeightVector((2,))]
    du3, _ = positive_roots(3)
    assert set(du3) == {WeightVector((1, -1)), WeightVector((2, 1)),
                        WeightVector((1, 2))}


def test_unique_expression_of_p_chi1():
    # p=3: exactly (chi1 - chi2) + (2chi1 + chi2)
    du3, _ = positive_roots(3)
    t = chi(3, 1).scale(3)
    exprs = enumerate_expressions(3, t, du3, 2)
    assert len(exprs) == 1
    assert exprs[0] == Expression([(0, WeightVector((1, -1))),
                                   (0, WeightVector((2, 1)))])


def test_no_congruence_other_characters():
    du3, _ = positive_roots(3)
    for j in (2, 3):
        t = chi(3, j).scale(3)
        assert enumerate_expressions(3, t, du3, 2, modulus=8) == []


def test_borel_unique_congruence_is_exact():
    S = [chi(3, 1) - chi(3, i) for i in (2, 3)]
    S += [v.scale(3) for v in S]
    t = chi(3, 1).scale(3)
    found = enumerate_expressions(3, t, S, 2, exponent_bound=0, modulus=4)
    assert len(found) == 1 and found[0].is_exact(3, t)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_monoid_membership(p):
    assert monoid_member(p, chi(p, 1).scale(p))
    for j in range(2, p + 1):
        assert not monoid_member(p, chi(p, j).scale(p))


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
    du, _ = positive_roots(p)
    t = chi(p, 1).scale(p)
    exact = enumerate_expressions(p, t, du, p - 1, exponent_bound=1)
    cong = enumerate_expressions(p, t, du, p - 1, exponent_bound=1,
                                 modulus=p * p - 1)
    for e in exact:
        assert e in cong


def test_certified_exponent_bound_refuses_bad_generators():
    with pytest.raises(ValueError):
        enumerate_expressions(3, chi(3, 1), [WeightVector((-1, 0))], 2)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("gen_set", ["U", "borel"])
def test_enumerate_matches_oracle(p, gen_set):
    gens = positive_roots(p)[0] if gen_set == "U" else _borel_set(p)
    targets = [chi(p, 1).scale(p), chi(p, p).scale(p),
               WeightVector([0] * (p - 1))]
    for max_terms in range(4):
        for bound in (0, 1, 2, None):
            for modulus in (0, p + 1, p * p - 1):
                for t in targets:
                    args = (p, t, gens, max_terms, bound, modulus)
                    assert enumerate_expressions(*args) == \
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
    assert enumerate_expressions(*args) == expressions_oracle(*args)


def test_enumerate_refuses_sums_beyond_int64():
    du3, _ = positive_roots(3)
    t = chi(3, 1).scale(3)
    # 2 terms of coordinate 2 times 3^39 > 2^63; the congruence is bounded
    with pytest.raises(ValueError, match="int64"):
        enumerate_expressions(3, t, du3, 2, exponent_bound=39)
    assert enumerate_expressions(3, t, du3, 2, exponent_bound=39,
                                 modulus=8) == \
        enumerate_expressions(3, t, du3, 2, modulus=8)


def test_enumerate_refuses_over_budget_before_building(monkeypatch):
    def built(*_args):
        raise AssertionError("a level was built")

    monkeypatch.setattr(roots.np, "repeat", built)
    du3, _ = positive_roots(3)
    # 3 roots x 7 exponents: the 4-term level has comb(24, 4) rows
    with pytest.raises(BudgetExceeded, match="10626-row"):
        enumerate_expressions(3, chi(3, 1).scale(3), du3, 4, exponent_bound=6,
                              budget=Budget(DEFAULT, max_cells=1000))


def test_deterministic_ordering():
    du3, _ = positive_roots(3)
    t = chi(3, 1).scale(3)
    a = enumerate_expressions(3, t, du3, 3, exponent_bound=2)
    b = enumerate_expressions(3, t, du3, 3, exponent_bound=2)
    assert a == b


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
