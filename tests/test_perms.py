import doctest
import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import coloursym.perms
from coloursym.perms import (
    apply,
    compose,
    cycle_string,
    cycle_type,
    cycles,
    double_coset_lower_bound,
    enumerate_sym,
    fixed_points,
    from_cycles,
    identity,
    inverse,
    is_perm,
    transposition,
)

from helpers import is_involution

perms_of = lambda d: st.permutations(list(range(1, d + 1))).map(tuple)


def test_module_doctests():
    # the seven docstring examples in perms.py run, and none fails
    assert doctest.testmod(coloursym.perms) == (0, 7)


def test_identity():
    assert identity(3) == (1, 2, 3)
    assert identity(1) == (1,)
    assert identity(0) == ()
    with pytest.raises(ValueError):
        identity(-1)


def test_identity_is_neutral():
    for p in enumerate_sym(3):
        assert compose(identity(3), p) == p
        assert compose(p, identity(3)) == p


def test_compose_convention_fixed_by_hand():
    # (1 2) then (2 3): 1 -> 2 -> 3, so the composite sends 1 to 3
    assert compose((2, 1, 3), (1, 3, 2)) == (3, 1, 2)


def test_compose_involution_squared():
    t = transposition(2, 1, 2)
    assert compose(t, t) == identity(2)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


@given(perms_of(5), perms_of(5), st.integers(1, 5))
def test_compose_matches_pointwise_application(g, h, i):
    assert apply(compose(g, h), i) == apply(h, apply(g, i))


@given(perms_of(6))
def test_inverse_law(g):
    assert compose(g, inverse(g)) == identity(6)
    assert compose(inverse(g), g) == identity(6)


def test_inverse_examples():
    assert inverse((2, 3, 1)) == (3, 1, 2)  # (1 2 3) -> (1 3 2)
    assert inverse((2, 1)) == (2, 1)
    assert inverse(identity(4)) == identity(4)


def test_apply_bounds():
    assert apply((2, 1, 3), 1) == 2
    assert apply((2, 1, 3), 3) == 3
    with pytest.raises(IndexError):
        apply((2, 1, 3), 4)
    with pytest.raises(IndexError):
        apply((2, 1, 3), 0)


def test_cycle_type_examples():
    assert cycle_type(from_cycles(4, [(1, 2), (3, 4)])) == (2, 2)
    assert cycle_type(identity(3)) == (1, 1, 1)
    g = from_cycles(6, [(1, 2), (3, 4), (5, 6)])
    assert cycle_type(g) == (2, 2, 2)
    assert sum(1 for c in cycles(g) if len(c) == 2) == 3


@given(perms_of(7))
def test_cycle_lengths_sum_to_degree(g):
    assert sum(cycle_type(g)) == 7


def test_fixed_points():
    assert fixed_points((2, 1, 3)) == {3}
    assert fixed_points(from_cycles(4, [(1, 2), (3, 4)])) == frozenset()
    assert fixed_points(identity(5)) == {1, 2, 3, 4, 5}


def test_is_involution():
    assert is_involution((2, 1))
    assert not is_involution((2, 3, 1))
    assert not is_involution(identity(3))


def test_enumerate_sym_counts():
    assert len(enumerate_sym(3)) == 6
    assert len(enumerate_sym(1)) == 1
    s4 = enumerate_sym(4)
    assert len(s4) == 24
    assert len(set(s4)) == 24
    # derived by brute force: involutions and double transpositions in S4
    assert sum(1 for p in s4 if is_involution(p)) == 9
    assert sum(1 for p in s4 if cycle_type(p) == (2, 2)) == 3


def test_enumerate_sym_is_lexicographic():
    s3 = enumerate_sym(3)
    assert s3 == sorted(s3)
    assert s3[0] == identity(3)


def test_enumerate_sym_guard():
    with pytest.raises(ValueError):
        enumerate_sym(0)
    with pytest.raises(ValueError):
        enumerate_sym(9)


def test_group_laws_exhaustive_small_degrees():
    for d in (1, 2, 3, 4):
        elems = enumerate_sym(d)
        ident = identity(d)
        for g in elems:
            assert compose(g, inverse(g)) == ident
        for g, h, k in itertools.product(elems, repeat=3):
            assert compose(compose(g, h), k) == compose(g, compose(h, k))


@pytest.mark.parametrize("m", [3, 5, 7])
def test_odd_degree_involutions_have_fixed_points(m):
    for g in enumerate_sym(m):
        if is_involution(g):
            assert fixed_points(g)


def test_double_coset_lower_bound_examples():
    assert double_coset_lower_bound(2, 2)  # 16 > 8
    assert not double_coset_lower_bound(3, 1)  # 3 > 3 fails
    assert double_coset_lower_bound(2, 3)  # 512 > 72


def test_double_coset_lower_bound_sweep():
    for m in range(2, 11):
        assert not double_coset_lower_bound(m, 1)
        for k in range(2, 11):
            assert double_coset_lower_bound(m, k)


def test_double_coset_lower_bound_is_exact_arithmetic():
    # large enough that floats would round: the comparison must stay exact
    assert double_coset_lower_bound(10, 10) == (10**100 > 10 * math.factorial(10) ** 2)
    assert double_coset_lower_bound(10, 10)


def test_double_coset_lower_bound_input_validation():
    with pytest.raises(ValueError):
        double_coset_lower_bound(1, 2)
    with pytest.raises(ValueError):
        double_coset_lower_bound(2, 0)


def test_perm_validation():
    assert is_perm((3, 1, 2))
    assert not is_perm((1, 1, 2))
    assert not is_perm((0, 1))


def test_cycle_string():
    assert cycle_string(from_cycles(4, [(1, 2), (3, 4)])) == "(1 2)(3 4)"
    assert cycle_string(identity(3)) == "id"
