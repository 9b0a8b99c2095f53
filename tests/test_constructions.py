"""Builder tests. Oracle for products: the residue map Z/6 -> Z/2 x Z/3 is a
group isomorphism, so relabeling points of the product scheme by it must give
exactly the Z/6 scheme. Fusion and power facts are checked against hand
enumerations on groups small enough to verify by eye."""

import inspect
import itertools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ccmm.configuration import AxiomViolation, CoherentConfiguration
from ccmm.constructions import (
    _class_ids,
    _power_points,
    _sorted_rows,
    colex_table,
    direct_product,
    fusion,
    group_association_scheme,
    group_scheme,
    schurian,
    symmetric_power,
    symmetric_power_rank,
    trivial_configuration,
)
from ccmm.realization import diagonal_action, diagonal_example
from corpus import corpus
from reference import (
    action_from_function,
    colex_rank,
    full_row_symmetric_power_rank,
    gas_equals_schurian_conjugation,
    unique_rows_symmetric_power,
)
from ccmm.groups import (
    CyclicGroup,
    SymmetricGroup,
    conjugation_action,
    left_translation_action,
    make_group,
    perm_unrank,
)


# ------------------------------------------------------------- all builders


def test_builders_always_prove_axiom_three():
    """No builder takes a check mode, and the corpus, which holds the
    output of every builder, is fully verified."""
    builders = (
        trivial_configuration,
        group_scheme,
        schurian,
        group_association_scheme,
        direct_product,
        fusion,
        symmetric_power,
    )
    assert not any("check" in inspect.signature(f).parameters for f in builders)
    entries = corpus()
    kinds = {name.split(":")[0] for name, _ in entries}
    assert kinds == {"trivial", "grp", "schurian", "gas", "prod", "fuse", "sym2", "sym3"}
    for name, cfg in entries:
        assert cfg.verification == "full", name


# ------------------------------------------------------------- trivial


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trivial_configuration(n):
    cfg = trivial_configuration(n)
    assert cfg.n_points == n and cfg.rank == n * n
    assert cfg.n_fibers == n
    assert cfg.is_association_scheme() == (n == 1)
    # every class has one pair
    assert all(int(s) == 1 for s in cfg.class_sizes())


@pytest.mark.parametrize("n", [0, -1, -5])
def test_trivial_configuration_needs_a_point(n):
    with pytest.raises(ValueError, match="^need at least one point$"):
        trivial_configuration(n)


# --------------------------------------------------------- group scheme


def test_group_scheme_cyclic_matches_difference_matrix():
    g = make_group("cyclic:6")
    cfg = group_scheme(g)
    idx = np.arange(6)
    assert np.array_equal(cfg.matrix, (idx[None, :] - idx[:, None]) % 6)
    assert cfg.rank == 6 and cfg.is_commutative()


def test_group_scheme_sym3():
    g = make_group("sym:3")
    cfg = group_scheme(g)
    assert cfg.rank == 6
    assert cfg.is_association_scheme()
    assert not cfg.is_commutative()  # S3 is not abelian
    # class sizes all |G| for a group scheme
    assert all(int(s) == 6 for s in cfg.class_sizes())


def test_group_scheme_equals_left_translation_schurian():
    g = make_group("abelian:2x4")
    direct = group_scheme(g)
    via_action = schurian(left_translation_action(g))
    assert np.array_equal(direct.matrix, via_action.matrix)


def test_group_scheme_cap():
    class Fat:
        order = 20001

    with pytest.raises(ValueError):
        group_scheme(Fat())


# ------------------------------------------------------------- schurian


def test_schurian_trivial_action_gives_trivial_configuration():
    g = make_group("cyclic:2")
    act = action_from_function(g, 3, lambda gg, x: x)
    cfg = schurian(act)
    assert np.array_equal(cfg.matrix, trivial_configuration(3).matrix)


def test_schurian_natural_s3_action():
    g = make_group("sym:3")
    act = action_from_function(
        g, 3, lambda code, x: perm_unrank(code, 3)[x]
    )
    cfg = schurian(act)
    # 2-transitive: diagonal plus one off-diagonal class
    assert cfg.rank == 2
    assert cfg.is_association_scheme() and cfg.is_symmetric()


def test_schurian_labels_are_orbit_representatives():
    g = make_group("cyclic:4")
    cfg = schurian(left_translation_action(g))
    for c, (x, y) in enumerate(cfg.class_labels):
        assert cfg.matrix[x, y] == c


# ----------------------------------------------- group association scheme


def test_gas_sym3():
    g = make_group("sym:3")
    cfg = group_association_scheme(g)
    assert cfg.rank == 3  # three conjugacy classes
    assert cfg.is_commutative()  # GAS is commutative even for nonabelian G
    assert cfg.is_association_scheme()
    sizes = sorted(int(s) for s in cfg.class_sizes())
    assert sizes == [6, 12, 18]  # |G| * class size


def test_gas_abelian_is_group_scheme():
    g = make_group("cyclic:5")
    assert np.array_equal(
        group_association_scheme(g).matrix, group_scheme(g).matrix
    )


@pytest.mark.parametrize("desc", ["sym:3", "wreath:2:cyclic:2", "abelian:2x2"])
def test_gas_equals_schurian_of_conjugation(desc):
    assert gas_equals_schurian_conjugation(make_group(desc))


def test_gas_rank_is_class_count_dihedral():
    d4 = make_group("wreath:2:cyclic:2")  # order 8, dihedral
    cfg = group_association_scheme(d4)
    assert cfg.rank == len(d4.conjugacy_classes()) == 5


# ------------------------------------------------------- direct product


def test_product_crt_isomorphism():
    c2 = group_scheme(make_group("cyclic:2"))
    c3 = group_scheme(make_group("cyclic:3"))
    prod = direct_product(c2, c3)
    assert prod.n_points == 6 and prod.rank == 6
    # relabel product points (v mod 2, v mod 3) -> v and compare with Z/6
    perm = np.array([(v % 2) * 3 + (v % 3) for v in range(6)])
    relabeled = CoherentConfiguration.from_class_matrix(
        prod.matrix[np.ix_(perm, perm)]
    )
    c6 = group_scheme(make_group("cyclic:6"))
    assert np.array_equal(relabeled.matrix, c6.matrix)


def test_product_preserves_predicates():
    a = group_scheme(make_group("cyclic:3"))
    b = trivial_configuration(2)
    prod = direct_product(a, b)
    assert prod.n_points == 6 and prod.rank == 12
    assert prod.n_fibers == 2
    assert not prod.is_commutative()
    ab = direct_product(a, a)
    assert ab.is_commutative() and ab.is_association_scheme()


def test_product_labels():
    a = group_scheme(make_group("cyclic:2"))
    prod = direct_product(a, a)
    assert set(prod.class_labels) == {(0, 0), (0, 1), (1, 0), (1, 1)}


# --------------------------------------------------------------- fusion


def test_fusion_z4_pairing_valid():
    c4 = group_scheme(make_group("cyclic:4"))
    fused = fusion(c4, [[0], [1, 3], [2]])
    assert fused.rank == 3
    assert fused.is_association_scheme() and fused.is_symmetric()


def test_fusion_z5_pairing_breaks_axiom_three():
    c5 = group_scheme(make_group("cyclic:5"))
    with pytest.raises(AxiomViolation) as exc:
        fusion(c5, [[0], [1, 2], [3, 4]])
    assert exc.value.axiom == 3


def test_fusion_z5_star_break_is_axiom_two():
    # transposes of the merged class {1,2} split between classes {3} and {4}
    c5 = group_scheme(make_group("cyclic:5"))
    with pytest.raises(AxiomViolation) as exc:
        fusion(c5, [[0], [1, 2], [3], [4]])
    assert exc.value.axiom == 2


def test_fusion_z5_star_closed_but_incoherent():
    # {1,4} is star-closed and {2},{3} swap under star, so axioms 1 and 2
    # hold; the composition counts still disagree across representatives
    c5 = group_scheme(make_group("cyclic:5"))
    with pytest.raises(AxiomViolation) as exc:
        fusion(c5, [[0], [1, 4], [2], [3]])
    assert exc.value.axiom == 3


def test_fusion_complete_graph():
    c3 = group_scheme(make_group("cyclic:3"))
    fused = fusion(c3, [[0], [1, 2]])
    assert fused.rank == 2 and fused.is_symmetric()


def test_fusion_all_classes_breaks_axiom_one():
    c3 = group_scheme(make_group("cyclic:3"))
    with pytest.raises(AxiomViolation) as exc:
        fusion(c3, [[0, 1, 2]])
    assert exc.value.axiom == 1


def test_fusion_partition_validation():
    c4 = group_scheme(make_group("cyclic:4"))
    with pytest.raises(ValueError):
        fusion(c4, [[0, 1], [1, 2, 3]])  # overlap
    with pytest.raises(ValueError):
        fusion(c4, [[0, 1]])  # not covering
    with pytest.raises(ValueError):
        fusion(c4, [[0, 1, 2, 3], []])  # empty block
    with pytest.raises(ValueError):
        fusion(c4, [[0, 1, 2, 3, 4]])  # out of range


# ------------------------------------------------------- symmetric power


def test_sym2_of_z2():
    c2 = group_scheme(make_group("cyclic:2"))
    s = symmetric_power(c2, 2)
    assert s.n_points == 4 and s.rank == 3
    assert s.is_association_scheme()
    assert s.class_labels == [(0, 0), (0, 1), (1, 1)] or set(
        s.class_labels
    ) == {(0, 0), (0, 1), (1, 1)}


def test_sym1_is_identity():
    c4 = group_scheme(make_group("cyclic:4"))
    s = symmetric_power(c4, 1)
    assert np.array_equal(s.matrix, c4.matrix)
    assert s.class_labels == [(0,), (1,), (2,), (3,)]


@pytest.mark.parametrize(
    "desc,k",
    [("cyclic:3", 2), ("cyclic:3", 3), ("cyclic:4", 2), ("cyclic:6", 2)],
)
def test_sym_rank_law_group_schemes(desc, k):
    base = group_scheme(make_group(desc))
    s = symmetric_power(base, k)
    assert s.rank == math.comb(base.rank + k - 1, k)
    assert s.n_points == base.n_points**k
    assert s.verification == "full"


def test_sym_rank_law_trivial():
    base = trivial_configuration(2)
    s = symmetric_power(base, 2)
    assert s.rank == math.comb(4 + 2 - 1, 2) == 10


def test_sym2_equals_power_fusion():
    # fusing the 2-fold direct product along coordinate swaps gives the
    # same configuration as the symmetric power
    base = group_scheme(make_group("cyclic:3"))
    prod = direct_product(base, base)
    blocks = {}
    for c, (i1, i2) in enumerate(prod.class_labels):
        blocks.setdefault(tuple(sorted((i1, i2))), []).append(c)
    fused = fusion(prod, list(blocks.values()))
    s2 = symmetric_power(base, 2)
    assert np.array_equal(fused.matrix, s2.matrix)


def test_sym_labels_are_sorted_multisets():
    base = group_scheme(make_group("cyclic:4"))
    s = symmetric_power(base, 2)
    for lab in s.class_labels:
        assert list(lab) == sorted(lab)
    # star of a multiset is the multiset of stars
    for c, lab in enumerate(s.class_labels):
        starred = tuple(sorted(base.star(i) for i in lab))
        assert s.class_labels[s.star(c)] == starred


def test_sym_point_cap():
    base = group_scheme(make_group("cyclic:6"))
    with pytest.raises(ValueError):
        symmetric_power(base, 6)  # 6**6 = 46656 points
    with pytest.raises(ValueError):
        symmetric_power(base, 0)
    # 2**15 = 32768 points: refused before the 32768 x 32768 class matrix
    two = trivial_configuration(2)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^2\*\*15 = 32768 points exceeds cap 20000$"):
            symmetric_power(two, 15)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_commutative_implies_scheme_across_builders():
    cases = [
        group_scheme(make_group("cyclic:6")),
        group_association_scheme(make_group("sym:3")),
        symmetric_power(group_scheme(make_group("cyclic:3")), 2),
        trivial_configuration(3),
        direct_product(
            group_scheme(make_group("cyclic:2")), trivial_configuration(2)
        ),
    ]
    for cfg in cases:
        if cfg.is_commutative():
            assert cfg.is_association_scheme()
        if cfg.n_fibers > 1:
            assert not cfg.is_commutative()


# -- streaming rank counter ---------------------------------------------------


@pytest.mark.parametrize(
    "cfg_factory,k",
    [
        (lambda: group_scheme(CyclicGroup(3)), 2),
        (lambda: group_scheme(CyclicGroup(2)), 3),
        (lambda: trivial_configuration(2), 3),
        (lambda: group_scheme(SymmetricGroup(3)), 2),
    ],
)
def test_streaming_rank_matches_materialized(cfg_factory, k):
    cfg = cfg_factory()
    assert symmetric_power_rank(cfg, k) == symmetric_power(cfg, k).rank


def test_streaming_rank_law_medium():
    # diagonal scheme of Z/4: 256 points, rank C(64+1, 2)
    cfg = schurian(diagonal_action(4))
    assert symmetric_power_rank(cfg, 2) == math.comb(cfg.rank + 1, 2)


def test_streaming_rank_respects_point_cap():
    with pytest.raises(ValueError):
        symmetric_power_rank(group_scheme(CyclicGroup(12)), 4)


def test_streaming_rank_k1_is_rank():
    cfg = group_scheme(SymmetricGroup(3))
    assert symmetric_power_rank(cfg, 1) == cfg.rank


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_sorting_network_sorts_coordinate_classes(k):
    """_class_ids is the colex rank of each cell's coordinate classes,
    gathered by M[np.ix_(...)] and sorted by np.sort, for a slice of rows
    and for an index array of rows."""
    rng = np.random.default_rng(k)
    M = rng.integers(0, 4, size=(3, 3))
    coords = _power_points(3, k)
    assert len(coords) == k
    for rows in (slice(2, 7), np.array([2, 0, 1])):
        got = _class_ids(M, coords, rows, colex_table(4, k))
        stack = np.sort(np.stack([M[np.ix_(c[rows], c)] for c in coords]), axis=0)
        want = [[colex_rank(cell) for cell in row] for row in np.moveaxis(stack, 0, -1).tolist()]
        assert got.dtype == np.int32
        assert got.tolist() == want


# -- sorted rows against the full-row references ------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sorted_rows_are_ranks_of_multisets(n, k):
    want = [
        sum(t[i] * n ** (k - 1 - i) for i in range(k))
        for t in itertools.combinations_with_replacement(range(n), k)
    ]
    assert _sorted_rows(_power_points(n, k)).tolist() == want


REFERENCE_CELLS = 10**7  # largest N**2 the full-row reference sweeps


@pytest.mark.parametrize("k", [2, 3, 4])
def test_sorted_row_count_equals_full_row_count(k):
    # the rank law on every case up to 20000 points; the full-row reference,
    # which touches all N**2 cells, on those up to REFERENCE_CELLS of them
    checked = referenced = 0
    for name, cfg in corpus():
        N = cfg.n_points**k
        if N > 20000:
            continue
        got = symmetric_power_rank(cfg, k)
        assert got == math.comb(cfg.rank + k - 1, k), (name, k)
        checked += 1
        if N * N <= REFERENCE_CELLS:
            assert got == full_row_symmetric_power_rank(cfg, k), (name, k)
            referenced += 1
    assert checked >= 30 and referenced >= 19


SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
CAPPED_RANK = (
    "import resource; "
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    "from ccmm.constructions import symmetric_power_rank, trivial_configuration; "
    "print(symmetric_power_rank(trivial_configuration(91), 2))"
)


def test_rank_count_of_a_large_base_fits_one_gib():
    """Rank 91**2 = 8281: Sym^2 has C(8282, 2) = 34291621 classes, so the
    count's bitmap takes 34 MB. The child caps its own address space at
    1 GiB, so an oversized allocation fails there, not here."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CAPPED_RANK], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "%d\n" % math.comb(8282, 2)), proc.stderr


def _assert_same_power(got, want):
    assert got.matrix.dtype == want.matrix.dtype
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert got.rank == want.rank
    assert got.class_labels == want.class_labels
    assert all(type(v) is int for lab in got.class_labels for v in lab)


@pytest.mark.parametrize(
    "base_factory,k",
    [
        (lambda: group_scheme(make_group("cyclic:3")), 2),
        (lambda: group_scheme(make_group("cyclic:5")), 2),
        (lambda: group_scheme(make_group("sym:3")), 2),
        (lambda: group_association_scheme(make_group("sym:3")), 2),
        (lambda: group_scheme(make_group("cyclic:2")), 3),
        (lambda: group_scheme(make_group("cyclic:3")), 3),
        (lambda: trivial_configuration(2), 3),
        (lambda: diagonal_example(4)[0], 2),
    ],
)
def test_symmetric_power_matches_unique_rows_reference(base_factory, k):
    base = base_factory()
    _assert_same_power(symmetric_power(base, k), unique_rows_symmetric_power(base, k))


def test_symmetric_power_matches_reference_across_corpus():
    checked = 0
    for name, cfg in corpus():
        for k in (2, 3):
            if cfg.n_points**k > 400:
                continue
            got = symmetric_power(cfg, k)
            _assert_same_power(got, unique_rows_symmetric_power(cfg, k, check="trusted"))
            checked += 1
    assert checked >= 40
