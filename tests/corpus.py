"""Shared configuration corpus for the acceptance suite: group schemes of
every group of order <= 12, a spread of Schurian actions, group association
schemes, direct products, fusions, and symmetric powers. Everything is
constructed with full checking; build_corpus() is deliberately uncached so
construction cost can be timed, corpus() caches one copy for reuse."""

import functools

import numpy as np

from ccmm.configuration import CoherentConfiguration
from ccmm.constructions import (
    direct_product,
    fusion,
    group_association_scheme,
    group_scheme,
    schurian,
    symmetric_power,
    trivial_configuration,
)
from ccmm.groups import (
    conjugation_action,
    make_group,
    natural_action,
    perm_unrank,
)
from ccmm.realization import diagonal_action
from reference import TableGroup, verify_group


# -- groups of order <= 12 ---------------------------------------------------


def dihedral_group(n):
    """Order 2n: rotations r in Z_n and flips, code = s*n + r."""
    order = 2 * n
    table = np.zeros((order, order), dtype=np.int32)
    for s1 in range(2):
        for r1 in range(n):
            for s2 in range(2):
                for r2 in range(n):
                    r = (r1 + (r2 if s1 == 0 else -r2)) % n
                    s = s1 ^ s2
                    table[s1 * n + r1, s2 * n + r2] = s * n + r
    g = TableGroup(table, descriptor="dihedral:%d" % n)
    assert verify_group(g).status == "passed"
    return g


def dicyclic_group(m):
    """Order 4m: a of order 2m, b^2 = a^m, b a b^-1 = a^-1; code = s*2m + r.
    m = 2 is the quaternion group."""
    order = 4 * m
    table = np.zeros((order, order), dtype=np.int32)
    for s1 in range(2):
        for r1 in range(2 * m):
            for s2 in range(2):
                for r2 in range(2 * m):
                    r = (r1 + (r2 if s1 == 0 else -r2) + m * (s1 & s2)) % (2 * m)
                    s = s1 ^ s2
                    table[s1 * 2 * m + r1, s2 * 2 * m + r2] = s * 2 * m + r
    g = TableGroup(table, descriptor="dicyclic:%d" % m)
    assert verify_group(g).status == "passed"
    return g


def _parity(p):
    inv = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inv += 1
    return inv % 2


def alternating_group_4():
    """Even permutations of 4 letters, indexed in rank order (identity first)."""
    perms = [perm_unrank(r, 4) for r in range(24)]
    evens = [p for p in perms if _parity(p) == 0]
    index = {p: i for i, p in enumerate(evens)}
    table = np.zeros((12, 12), dtype=np.int32)
    for i, p in enumerate(evens):
        for j, q in enumerate(evens):
            table[i, j] = index[tuple(p[q[x]] for x in range(4))]
    g = TableGroup(table, descriptor="alternating:4")
    assert verify_group(g).status == "passed"
    return g


def groups_up_to_order_12():
    """All 24 groups of order <= 12, one representative per isomorphism type."""
    return [
        make_group("cyclic:1"),
        make_group("cyclic:2"),
        make_group("cyclic:3"),
        make_group("cyclic:4"),
        make_group("abelian:2x2"),
        make_group("cyclic:5"),
        make_group("cyclic:6"),
        make_group("sym:3"),
        make_group("cyclic:7"),
        make_group("cyclic:8"),
        make_group("abelian:4x2"),
        make_group("abelian:2x2x2"),
        dihedral_group(4),
        dicyclic_group(2),
        make_group("cyclic:9"),
        make_group("abelian:3x3"),
        make_group("cyclic:10"),
        dihedral_group(5),
        make_group("cyclic:11"),
        make_group("cyclic:12"),
        make_group("abelian:6x2"),
        alternating_group_4(),
        dihedral_group(6),
        dicyclic_group(3),
    ]


# -- the configuration corpus ------------------------------------------------


def build_corpus():
    """Fresh list of (name, configuration) pairs, every entry fully checked
    at construction time."""
    entries = []
    for g in groups_up_to_order_12():
        entries.append(("grp:%s" % g.descriptor, group_scheme(g, check="full")))

    entries.append(("schurian:natural-sym-3", schurian(natural_action(3))))
    entries.append(("schurian:natural-sym-4", schurian(natural_action(4))))
    entries.append(("schurian:diagonal-2", schurian(diagonal_action(2))))
    entries.append(("schurian:diagonal-3", schurian(diagonal_action(3))))
    entries.append(
        ("schurian:conj-sym-3", schurian(conjugation_action(make_group("sym:3"))))
    )
    entries.append(
        ("schurian:conj-dihedral-4", schurian(conjugation_action(dihedral_group(4))))
    )

    entries.append(("gas:sym-4", group_association_scheme(make_group("sym:4"))))
    entries.append(("gas:dicyclic-3", group_association_scheme(dicyclic_group(3))))

    gas3 = group_association_scheme(make_group("sym:3"))
    c2 = group_scheme(make_group("cyclic:2"))
    c3 = group_scheme(make_group("cyclic:3"))
    c4 = group_scheme(make_group("cyclic:4"))
    c5 = group_scheme(make_group("cyclic:5"))
    c6 = group_scheme(make_group("cyclic:6"))
    c7 = group_scheme(make_group("cyclic:7"))
    t2 = trivial_configuration(2)
    s3 = group_scheme(make_group("sym:3"))
    entries.append(("prod:gas-sym3-x-cyclic2", direct_product(gas3, c2)))
    entries.append(("prod:trivial2-x-trivial2", direct_product(t2, t2)))
    entries.append(("prod:cyclic3-x-cyclic4", direct_product(c3, c4)))

    entries.append(("fuse:cyclic5-all-offdiag", fusion(c5, [[0], [1, 2, 3, 4]])))
    entries.append(("fuse:cyclic6-inverse-pairs", fusion(c6, [[0], [1, 5], [2, 4], [3]])))
    entries.append(("fuse:cyclic7-squares", fusion(c7, [[0], [1, 2, 4], [3, 5, 6]])))

    entries.append(("sym2:cyclic3", symmetric_power(c3, 2)))
    entries.append(("sym2:cyclic5", symmetric_power(c5, 2)))
    entries.append(("sym2:grp-sym3", symmetric_power(s3, 2)))
    entries.append(("sym2:gas-sym3", symmetric_power(gas3, 2)))
    entries.append(("sym3:cyclic2", symmetric_power(c2, 3)))
    entries.append(("sym3:cyclic3", symmetric_power(c3, 3)))
    entries.append(("sym3:trivial2", symmetric_power(t2, 3)))

    entries.append(("trivial:3", trivial_configuration(3)))
    entries.append(("trivial:4", trivial_configuration(4)))
    return entries


@functools.lru_cache(maxsize=1)
def corpus():
    return tuple(build_corpus())


def reverify(config):
    """Run the axiom engine from scratch on the stored class matrix."""
    return CoherentConfiguration.from_class_matrix(
        config.matrix, rank=config.rank, check="full"
    )


def product_identity_witness(config):
    """Check A_i A_j == sum_k p^k_{i,j} A_k with exact int64 arithmetic.
    Returns None, or (i, j) for the first failing product."""
    r = config.rank
    M = config.matrix
    t = config.intersection()
    A = [(M == i).astype(np.int64) for i in range(r)]
    P = np.zeros((r, r, r), dtype=np.int64)
    for i, j, k, p in t.iter_nonzero():
        P[i, j, k] = p
    for i in range(r):
        for j in range(r):
            if not np.array_equal(A[i] @ A[j], P[i, j][M]):
                return (i, j)
    return None
