"""Progression-free and triangle-free set tests. Oracles: literal cubic
scans written from the definitions, independent of the library's witness
search order. Greedy outputs are frozen from hand enumeration."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccmm.sets import (
    APFreeSet,
    TriangleFreeSet,
    ap_witness,
    greedy_ap_free,
    simplex_slice,
    triangle_free_set,
    triangle_witness,
)
from reference import salem_spencer


def brute_has_ap(elems, n):
    elems = set(x % n for x in elems)
    for i, j, k in product(elems, repeat=3):
        if (i + j - 2 * k) % n == 0 and not (i == j == k):
            return True
    return False


def brute_has_triangle(triples):
    for s, t, u in product(triples, repeat=3):
        if s[0] == t[0] and t[1] == u[1] and u[2] == s[2] and not (s == t == u):
            return True
    return False


# -------------------------------------------------------------- ap-free


def test_ap_witness_matches_brute_force_exhaustive_small():
    for n in range(1, 9):
        for mask in range(1 << n):
            elems = [i for i in range(n) if mask >> i & 1]
            assert (ap_witness(elems, n) is not None) == brute_has_ap(elems, n)


@given(st.integers(2, 40), st.sets(st.integers(0, 200), max_size=8))
@settings(max_examples=120, deadline=None)
def test_ap_witness_matches_brute_force_random(n, elems):
    assert (ap_witness(elems, n) is not None) == brute_has_ap(elems, n)


def test_apfree_constructor_validates():
    APFreeSet(5, (0, 1))
    with pytest.raises(ValueError):
        APFreeSet(5, (0, 1, 2))  # 0 + 2 = 2*1
    with pytest.raises(ValueError):
        APFreeSet(6, (0, 1, 3))  # 0 + 0 = 2*3 mod 6
    with pytest.raises(ValueError):
        APFreeSet(0, ())


def test_apfree_pair_one_four_is_valid():
    s = APFreeSet(5, (1, 4))
    assert s.elements == (1, 4)


def test_salem_spencer_nine():
    s = salem_spencer(9)
    assert s.elements == (0, 1)


def test_salem_spencer_digit_members():
    s = salem_spencer(100)
    # base-3 digit-{0,1} integers below 33: 0,1,3,4,9,10,12,13,27,28,30,31
    assert s.elements == (0, 1, 3, 4, 9, 10, 12, 13, 27, 28, 30, 31)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 27, 50, 100])
def test_salem_spencer_always_valid(n):
    s = salem_spencer(n)
    assert not brute_has_ap(s.elements, n)


def test_greedy_ap_free_frozen_values():
    assert greedy_ap_free(2).elements == (0,)
    assert greedy_ap_free(4).elements == (0, 1)
    assert greedy_ap_free(5).elements == (0, 1)


@pytest.mark.parametrize("n", list(range(1, 20)))
def test_greedy_ap_free_valid_and_maximal(n):
    s = greedy_ap_free(n)
    assert not brute_has_ap(s.elements, n)
    for x in range(n):
        if x not in s.elements:
            assert brute_has_ap(list(s.elements) + [x], n)


# --------------------------------------------------------- triangle-free


def test_simplex_slice_sizes():
    assert simplex_slice(1) == [(1, 1, 1)]
    assert len(simplex_slice(3)) == 6
    for n in range(1, 8):
        for t in simplex_slice(n):
            assert sum(t) == n + 2
            assert all(1 <= v <= n for v in t)


def test_triangle_witness_matches_brute_force():
    for n in (2, 3):
        slice_n = simplex_slice(n)
        for mask in range(1 << len(slice_n)):
            sub = [slice_n[i] for i in range(len(slice_n)) if mask >> i & 1]
            assert (triangle_witness(sub, n) is not None) == brute_has_triangle(
                sub
            )


def test_triangle_free_constructor_validates():
    TriangleFreeSet(2, ((1, 1, 2), (1, 2, 1)))
    with pytest.raises(ValueError):
        TriangleFreeSet(2, ((1, 1, 2), (1, 2, 1), (2, 1, 1)))
    with pytest.raises(ValueError):
        TriangleFreeSet(2, ((1, 1, 1),))  # wrong sum
    with pytest.raises(ValueError):
        TriangleFreeSet(2, ((0, 2, 2),))  # coordinate out of range


def test_triangle_free_greedy_frozen_values():
    assert triangle_free_set(1).triples == ((1, 1, 1),)
    assert triangle_free_set(2).triples == ((1, 1, 2), (1, 2, 1))
    assert triangle_free_set(3).triples == ((1, 1, 3), (1, 2, 2), (1, 3, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_triangle_free_greedy_valid_and_maximal(n):
    s = triangle_free_set(n)
    assert not brute_has_triangle(s.triples)
    for cand in simplex_slice(n):
        if cand not in s.triples:
            assert brute_has_triangle(list(s.triples) + [cand])
