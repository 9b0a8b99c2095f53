"""Group core tests. Expected values are recomputed by independent oracles
defined at the top of this file (brute-force conjugation orbits, a separate
semidirect product model, pure python axiom sweeps) before being compared
with the library's answers."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    TableGroup,
    action_from_function,
    loop_table,
    perm_compose,
    perm_inverse,
    verify_action,
    verify_group,
    wreath_class_key,
)

from ccmm.groups import (
    AbelianGroup,
    CyclicGroup,
    ProductGroup,
    SymmetricGroup,
    WreathGroup,
    conjugation_action,
    count_conjugacy_wreath,
    left_translation_action,
    make_group,
    natural_action,
    perm_rank,
    perm_unrank,
    permutation_array,
    wreath_conjugacy_bound_check,
)

# --- oracles ---------------------------------------------------------------


def brute_conjugacy_classes(G):
    """Conjugation orbits straight from the definition, one mult at a time."""
    classes = []
    seen = set()
    for g in range(G.order):
        if g in seen:
            continue
        orb = {G.mult(G.mult(x, g), G.inverse(x)) for x in range(G.order)}
        seen |= orb
        classes.append(tuple(sorted(orb)))
    return classes


def brute_axioms_ok(table):
    """Pure python group axiom check on an explicit table."""
    n = len(table)
    for a in range(n):
        if table[0][a] != a or table[a][0] != a:
            return False
        if sorted(table[a]) != list(range(n)):
            return False
    for a in range(n):
        inv = [b for b in range(n) if table[a][b] == 0]
        if len(inv) != 1 or table[inv[0]][a] != 0:
            return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return False
    return True


def model_wreath_mult(h_mod, n, e1, e2):
    """Independent semidirect product model on explicit (vector, perm) pairs
    over Z/h_mod, used to cross-check WreathGroup's coded arithmetic."""
    (h1, p1), (h2, p2) = e1, e2
    h = tuple((h1[i] + h2[p1.index(i)]) % h_mod for i in range(n))
    p = tuple(p1[p2[i]] for i in range(n))
    return h, p


SMALL_GROUPS = [
    "cyclic:1",
    "cyclic:2",
    "cyclic:5",
    "cyclic:12",
    "abelian:2x2",
    "abelian:2x4",
    "abelian:2x2x2",
    "abelian:3x3",
    "sym:3",
    "sym:4",
    "wreath:2:cyclic:2",
    "wreath:2:cyclic:3",
    "wreath:3:cyclic:2",
]


# --- permutation codec -----------------------------------------------------


def test_perm_codec_small():
    assert perm_rank((0, 1, 2)) == 0
    assert perm_unrank(0, 3) == (0, 1, 2)
    # lexicographic order of ranks
    perms = sorted(itertools.permutations(range(4)))
    assert [perm_unrank(i, 4) for i in range(24)] == perms
    assert [perm_rank(p) for p in perms] == list(range(24))


def test_perm_compose_applies_right_first():
    p = (1, 2, 0)
    q = (0, 2, 1)
    pq = perm_compose(p, q)
    for i in range(3):
        assert pq[i] == p[q[i]]
    assert perm_compose(p, perm_inverse(p)) == (0, 1, 2)


@given(st.integers(1, 6), st.randoms())
def test_perm_codec_roundtrip(n, rnd):
    r = rnd.randrange(math.factorial(n))
    p = perm_unrank(r, n)
    assert sorted(p) == list(range(n))
    assert perm_rank(p) == r


# --- construction and verification -----------------------------------------


@pytest.mark.parametrize("desc", SMALL_GROUPS)
def test_descriptor_roundtrip_and_identity(desc):
    G = make_group(desc)
    assert G.descriptor == desc
    assert G.mult(0, 3 % G.order) == 3 % G.order
    assert G.inverse(0) == 0


@pytest.mark.parametrize("desc", SMALL_GROUPS)
def test_verify_group_passes(desc):
    G = make_group(desc)
    rep = verify_group(G)
    assert rep.status == "passed", rep
    # the oracle agrees
    assert brute_axioms_ok(G.table().tolist())


def test_verify_group_catches_corruption():
    T = CyclicGroup(5).table().copy()
    T[2, 3], T[2, 4] = T[2, 4], T[2, 3]
    rep = verify_group(TableGroup(T, "corrupted"))
    assert rep.status == "failed"
    assert rep.witness
    assert not brute_axioms_ok(T.tolist())


def test_verify_group_cap():
    G = make_group("wreath:3:cyclic:3")  # order 162, fine
    assert verify_group(G, cap=100).status == "unchecked"
    assert verify_group(G).status == "passed"


def test_abelian_codec():
    G = AbelianGroup((2, 3))
    assert G.order == 6
    for a in range(6):
        assert G.encode(G.decode(a)) == a
    assert G.decode(G.mult(G.encode((1, 2)), G.encode((1, 2)))) == (0, 1)


def test_product_group_table():
    G = ProductGroup(CyclicGroup(3), SymmetricGroup(3))
    assert verify_group(G).status == "passed"
    a = G.join(1, 2)
    b = G.join(2, 3)
    a1, a2 = G.split(a)
    b1, b2 = G.split(b)
    assert G.split(G.mult(a, b)) == (
        CyclicGroup(3).mult(a1, b1),
        SymmetricGroup(3).mult(a2, b2),
    )


def test_wreath_against_independent_model():
    for h_mod, n in [(2, 2), (3, 2), (2, 3)]:
        G = WreathGroup(n, CyclicGroup(h_mod))
        elems = [
            (h, p)
            for h in itertools.product(range(h_mod), repeat=n)
            for p in itertools.permutations(range(n))
        ]
        codes = {e: G.encode(*e) for e in elems}
        assert sorted(codes.values()) == list(range(G.order))
        for e1 in elems:
            for e2 in elems:
                got = G.mult(codes[e1], codes[e2])
                assert got == codes[model_wreath_mult(h_mod, n, e1, e2)]


def test_wreath_inverse_and_decode_roundtrip():
    G = make_group("wreath:3:cyclic:2")
    for a in range(G.order):
        h, p = G.decode(a)
        assert G.encode(h, p) == a
        assert G.mult(a, G.inverse(a)) == 0
        assert G.mult(G.inverse(a), a) == 0


@given(
    st.sampled_from(SMALL_GROUPS),
    st.integers(0, 10**9),
    st.integers(0, 10**9),
    st.integers(0, 10**9),
)
@settings(max_examples=60)
def test_associativity_random_triples(desc, a, b, c):
    G = make_group(desc)
    a, b, c = a % G.order, b % G.order, c % G.order
    assert G.mult(G.mult(a, b), c) == G.mult(a, G.mult(b, c))


# --- conjugacy classes -----------------------------------------------------


def test_conjugacy_small_groups():
    for desc, expected in [("sym:3", 3), ("sym:4", 5), ("cyclic:6", 6)]:
        G = make_group(desc)
        brute = brute_conjugacy_classes(G)
        assert len(brute) == expected
        assert G.conjugacy_classes() == brute


def test_wreath_class_key_matches_orbits():
    for desc in ["wreath:2:cyclic:2", "wreath:2:cyclic:3", "wreath:3:cyclic:2"]:
        G = make_group(desc)
        orbits = brute_conjugacy_classes(G)
        assert G.conjugacy_classes() == orbits
        by_key = {}
        for a in range(G.order):
            by_key.setdefault(wreath_class_key(G, a), []).append(a)
        key_parts = sorted(tuple(v) for v in by_key.values())
        assert key_parts == sorted(orbits)


def test_count_conjugacy_matches_enumeration():
    cases = [(2, 2, 5), (3, 2, 10), (2, 4, 14)]
    for n, h, expected in cases:
        G = WreathGroup(n, CyclicGroup(h))
        assert len(brute_conjugacy_classes(G)) == expected
        assert count_conjugacy_wreath(n, h) == expected
    # large case by complete invariant, table too big for orbit enumeration
    G = WreathGroup(4, CyclicGroup(5))
    keys = {wreath_class_key(G, a) for a in range(G.order)}
    assert len(keys) == 190
    assert count_conjugacy_wreath(4, 5) == 190


def test_count_conjugacy_degenerate_cases():
    for h in [1, 2, 3, 7]:
        assert count_conjugacy_wreath(1, h) == h


def test_wreath_bound_check():
    for n, h in [(2, 2), (2, 4), (3, 3), (4, 5)]:
        count, bound = wreath_conjugacy_bound_check(n, h)
        assert count <= bound
    with pytest.raises(ValueError):
        wreath_conjugacy_bound_check(3, 2)


# --- actions ---------------------------------------------------------------


def test_left_translation_action():
    G = make_group("cyclic:6")
    act = left_translation_action(G)
    verify_action(act)
    assert act.n_points == 6


def test_conjugation_action_values():
    G = make_group("sym:3")
    act = conjugation_action(G)
    verify_action(act)
    big = act.group
    for x, g, y in itertools.product(range(6), repeat=3):
        expected = G.mult(G.mult(x, g), G.inverse(y))
        assert act.act(big.join(x, y), g) == expected


def test_action_from_function_and_verify_rejects():
    G = make_group("cyclic:4")
    act = action_from_function(G, 4, lambda g, x: (x + g) % 4)
    verify_action(act)
    bad = action_from_function(G, 4, lambda g, x: (x + g * g) % 4)
    with pytest.raises(ValueError):
        verify_action(bad)


# --- array-built tables against the per-pair loop ---------------------------

LOOP_TABLE_GROUPS = (
    ["cyclic:1", "cyclic:2", "cyclic:7", "abelian:2x3x5", "abelian:4x4"]
    + ["sym:%d" % n for n in range(1, 6)]
    + ["wreath:%d:%s" % (n, base) for n in (1, 2, 3) for base in ("cyclic:1", "cyclic:3", "abelian:2x2")]
)


@pytest.mark.parametrize("desc", LOOP_TABLE_GROUPS)
def test_table_equals_pair_loop(desc, monkeypatch):
    G = make_group(desc)
    want = loop_table(G)

    def refuse(self, a, b):
        raise AssertionError("table() called scalar mult")

    monkeypatch.setattr(type(G), "mult", refuse)
    T = G.table()
    assert T.dtype == np.int32
    assert np.array_equal(T, want)
    monkeypatch.undo()
    # scalar mult runs the same formula
    for a in range(0, G.order, max(1, G.order // 7)):
        assert [G.mult(a, b) for b in range(G.order)] == want[a].tolist()


def test_table_blocks_do_not_change_the_table(monkeypatch):
    import ccmm.groups as groups

    want = make_group("wreath:2:cyclic:3").table()
    monkeypatch.setattr(groups, "TABLE_BLOCK", 80)  # four of the 18 rows per block, a partial last block
    assert np.array_equal(make_group("wreath:2:cyclic:3").table(), want)
    monkeypatch.setattr(groups, "TABLE_BLOCK", 7)  # fewer entries than one row
    assert np.array_equal(make_group("wreath:2:cyclic:3").table(), want)


def test_product_group_mult_matches_table():
    G = ProductGroup(make_group("sym:3"), make_group("cyclic:4"))
    T = G.table()
    assert all(G.mult(a, b) == T[a, b] for a in range(G.order) for b in range(G.order))


def test_permutation_array_rows_and_cap():
    for n in range(1, 6):
        P = permutation_array(n)
        assert [tuple(row) for row in P.tolist()] == [perm_unrank(r, n) for r in range(math.factorial(n))]
        assert not P.flags.writeable
    assert permutation_array(4) is permutation_array(4)
    with pytest.raises(ValueError, match="exceed cap"):
        permutation_array(9)
    with pytest.raises(ValueError, match="exceed cap"):
        make_group("sym:9").mult(1, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_natural_action_is_the_permutation_array(n):
    act = natural_action(n)
    want = action_from_function(SymmetricGroup(n), n, lambda g, x: perm_unrank(g, n)[x])
    assert act.group.descriptor == "sym:%d" % n
    assert np.array_equal(act.table, want.table)
    verify_action(act)
