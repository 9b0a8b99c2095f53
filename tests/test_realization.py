"""Realization tests.

Oracles, written first: a point-level triangle check straight from the
definition; a six-nested-loop triple product check using only group mult;
mutation of verified realizations must always be rejected. Search fixtures
(frozen): S3 sets {e,(12)},{e,(13)},{e} satisfy the TPP; Z/2 admits no
two-triple simultaneous family at all (exhausted over all 729 shape
assignments); lex-first Z/4 singleton pair is ({0},{0},{0}),({0},{1},{2});
the largest singleton-free simultaneous family in Z/8 is the single triple
({0,1},{0,2},{0,4}) (no (2,2,2) pair verifies, and no singleton-free triple
with a part of size 3+ exists)."""

import io
import itertools
import re
import tracemalloc
from itertools import product

import numpy as np
import pytest

from ccmm.configuration import CoherentConfiguration
from ccmm.constructions import group_scheme, schurian, trivial_configuration
from ccmm.groups import (
    make_group,
    left_translation_action,
)
from corpus import corpus
from forms import is_triangle
from reference import action_from_function, gas_realization_matches, loop_write_real

from ccmm import realization
from ccmm.tensors import WeightedMatMul

from ccmm.realization import (
    HypothesisViolation,
    Realization,
    RealizationInvalid,
    SymmetricPowerView,
    TripleFamily,
    action_realization,
    diagonal_action,
    diagonal_example,
    fibers_realization,
    grp_as_realization,
    read_real,
    simultaneous_tpp_verify,
    sympow_realization,
    tpp_verify,
    verify_realization,
    verify_simultaneous,
    write_real,
)


# ---------------------------------------------------------------- oracles


def brute_is_triangle(cfg, i, j, k):
    M = cfg.matrix
    n = cfg.n_points
    for x in range(n):
        for y in range(n):
            if M[x, y] != i:
                continue
            for z in range(n):
                if M[y, z] == j and M[z, x] == k:
                    return True
    return False


def brute_tpp(group, S, T, U):
    m = group.mult
    inv = group.inverse
    for s in S:
        for s2 in S:
            for t in T:
                for t2 in T:
                    for u in U:
                        for u2 in U:
                            w = m(m(m(m(m(inv(s), s2), inv(t)), t2), inv(u)), u2)
                            if w == 0 and not (s == s2 and t == t2 and u == u2):
                                return False
    return True


# -------------------------------------------------------------- triangles


@pytest.mark.parametrize("desc", ["cyclic:6", "sym:3"])
def test_is_triangle_matches_point_definition(desc):
    cfg = group_scheme(make_group(desc))
    for i in range(cfg.rank):
        for j in range(cfg.rank):
            for k in range(cfg.rank):
                assert is_triangle(cfg, i, j, k) == brute_is_triangle(
                    cfg, i, j, k
                )


def test_group_scheme_triangles_are_unit_products():
    g = make_group("cyclic:6")
    cfg = group_scheme(g)
    # normalized class ids coincide with group codes for this scheme
    for a in range(6):
        for b in range(6):
            for c in range(6):
                expect = g.mult(g.mult(a, b), c) == 0
                assert is_triangle(cfg, a, b, c) == expect


def test_trivial_triangles():
    cfg = CoherentConfiguration.from_class_matrix([[0]])
    assert is_triangle(cfg, 0, 0, 0)
    t3 = trivial_configuration(3)
    d = int(t3.matrix[1, 1])
    assert is_triangle(t3, d, d, d)


# ------------------------------------------------------------ realization


def test_fibers_realization_trivial():
    for n in (1, 2, 3, 4):
        cfg = trivial_configuration(n)
        real = fibers_realization(cfg)
        assert real.dims == (n, n, n)


def test_fibers_realization_group_scheme():
    real = fibers_realization(group_scheme(make_group("cyclic:5")))
    assert real.dims == (1, 1, 1)


def test_fibers_realization_three_orbits():
    g = make_group("cyclic:2")
    act = action_from_function(g, 3, lambda gg, x: x)
    real = fibers_realization(schurian(act))
    assert real.dims == (3, 3, 3)


def test_mutated_gamma_rejected():
    cfg = trivial_configuration(3)
    real = fibers_realization(cfg)
    bad = Realization(real.alpha, real.beta, real.gamma.copy())
    g = bad.gamma
    g[0, 1], g[0, 2] = g[0, 2], g[0, 1]
    with pytest.raises(RealizationInvalid) as exc:
        verify_realization(cfg, bad)
    assert exc.value.witness[0] == "triangle"


def test_duplicate_entry_rejected():
    cfg = trivial_configuration(2)
    real = fibers_realization(cfg)
    g = real.gamma.copy()
    g[0, 0] = g[0, 1]
    with pytest.raises(RealizationInvalid) as exc:
        verify_realization(cfg, Realization(real.alpha, real.beta, g))
    assert exc.value.witness[0] == "injective"


def test_realization_shape_validation():
    with pytest.raises(ValueError):
        Realization(np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((2, 2)))


# ---------------------------------------------------------------- tpp


def test_tpp_identity_triple():
    g = make_group("cyclic:5")
    assert tpp_verify(g, [0], [0], [0])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tpp_whole_group_fails(n):
    g = make_group("cyclic:%d" % n)
    allg = list(range(n))
    assert not tpp_verify(g, allg, allg, allg)


def test_tpp_s3_fixture():
    # S={e,(12)}, T={e,(13)}, U={e}; codes 2 and 5 in the factorial encoding
    g = make_group("sym:3")
    assert tpp_verify(g, [0, 2], [0, 5], [0]) is True


@pytest.mark.parametrize("S", [[-1], [0, 6]])
def test_tpp_element_outside_group_raises(S):
    # a negative element once wrapped around as a table index
    g = make_group("cyclic:6")
    with pytest.raises(ValueError, match="element out of range"):
        tpp_verify(g, S, [0], [0])


def test_tpp_matches_brute_oracle():
    g = make_group("cyclic:6")
    cases = [
        ([0], [0], [0]),
        ([0, 1], [0, 2], [0]),
        ([0, 1], [0, 2], [0, 3]),
        ([0, 3], [0, 2], [0, 1]),
        ([0, 1, 2], [0], [0, 3]),
    ]
    for S, T, U in cases:
        assert tpp_verify(g, S, T, U) == brute_tpp(g, S, T, U)


def test_tpp_z8_classic():
    g = make_group("cyclic:8")
    assert tpp_verify(g, [0, 1], [0, 2], [0, 4])
    assert brute_tpp(g, [0, 1], [0, 2], [0, 4])


# ------------------------------------------------------ simultaneous tpp


def test_simultaneous_single_reduces_to_tpp():
    g = make_group("cyclic:8")
    for S, T, U in [([0, 1], [0, 2], [0, 4]), ([0, 1], [0, 1], [0])]:
        fam = TripleFamily(g, ((S, T, U),))
        assert simultaneous_tpp_verify(fam) == tpp_verify(g, S, T, U)


def test_simultaneous_z2_pair_fixture_fails():
    g = make_group("cyclic:2")
    fam = TripleFamily(g, (((0,), (0,), (0,)), ((1,), (1,), (1,))))
    assert simultaneous_tpp_verify(fam) is False


def test_simultaneous_z4_pair_fixture_passes():
    g = make_group("cyclic:4")
    fam = TripleFamily(g, (((0,), (0,), (0,)), ((0,), (1,), (2,))))
    assert simultaneous_tpp_verify(fam) is True


def test_triple_family_validation():
    g = make_group("cyclic:4")
    with pytest.raises(ValueError):
        TripleFamily(g, (((0,), (), (1,)),))
    with pytest.raises(ValueError):
        TripleFamily(g, (((0,), (4,), (1,)),))
    with pytest.raises(ValueError):
        TripleFamily(g, (((0,), (1,)),))


# ------------------------------------------------------ fixture searchers
# deterministic, they generate the frozen fixtures below


def _nonempty_subsets(universe, min_size=1, max_size=None, anchored=False):
    universe = list(universe)
    top = len(universe) if max_size is None else min(max_size, len(universe))
    out = []
    for size in range(min_size, top + 1):
        for combo in itertools.combinations(universe, size):
            if anchored and combo[0] != universe[0]:
                continue
            out.append(combo)
    return out


def search_tpp(group, sizes, anchored=True):
    """First (S, T, U) with the given sizes passing tpp_verify, in
    lexicographic order. Translation freedom lets each set be anchored at
    the smallest element for abelian groups."""
    anchor = anchored and group.is_abelian()
    universe = range(group.order)
    for S in _nonempty_subsets(universe, sizes[0], sizes[0], anchor):
        for T in _nonempty_subsets(universe, sizes[1], sizes[1], anchor):
            for U in _nonempty_subsets(universe, sizes[2], sizes[2], anchor):
                if tpp_verify(group, S, T, U):
                    return (S, T, U)
    return None


def search_simultaneous_tpp(group, shapes, anchored=True):
    """First TripleFamily with the given per-triple subset sizes passing
    simultaneous_tpp_verify; shapes is a list of (|A_i|,|B_i|,|C_i|).
    Deterministic lexicographic DFS with incremental verification: the
    partial family of the first t triples must itself pass before any
    extension is attempted."""
    anchor = anchored and group.is_abelian()
    universe = range(group.order)
    slots = []
    for t, (sa, sb, sc) in enumerate(shapes):
        anchor_here = anchor and t == 0
        slots.append(
            (
                _nonempty_subsets(universe, sa, sa, anchor_here),
                _nonempty_subsets(universe, sb, sb, anchor_here),
                _nonempty_subsets(universe, sc, sc, anchor_here),
            )
        )

    def extend(prefix, t):
        if t == len(shapes):
            return TripleFamily(group, tuple(prefix))
        for A in slots[t][0]:
            for B in slots[t][1]:
                for C in slots[t][2]:
                    cand = prefix + [(A, B, C)]
                    if simultaneous_tpp_verify(TripleFamily(group, tuple(cand))):
                        got = extend(cand, t + 1)
                        if got is not None:
                            return got
        return None

    return extend([], 0)


def test_search_finds_frozen_fixtures():
    z4 = make_group("cyclic:4")
    fam = search_simultaneous_tpp(z4, [(1, 1, 1), (1, 1, 1)])
    assert fam.triples == (((0,), (0,), (0,)), ((0,), (1,), (2,)))
    z2 = make_group("cyclic:2")
    assert search_simultaneous_tpp(z2, [(1, 1, 1), (1, 1, 1)]) is None
    z8 = make_group("cyclic:8")
    assert search_tpp(z8, (2, 2, 2)) == ((0, 1), (0, 2), (0, 4))


# ------------------------------------------------------------- actions


def test_action_realization_tpp_equivalence_z6():
    # left translation: the hypothesis is the triple product property
    g = make_group("cyclic:6")
    act = left_translation_action(g)
    subsets = [[0], [0, 1], [0, 2], [0, 3], [1, 4]]
    for A in subsets:
        for B in subsets:
            for C in subsets:
                expected = tpp_verify(g, A, B, C)
                if expected:
                    _, real = action_realization(act, A, B, C)
                    assert real.dims == (len(A), len(B), len(C))
                else:
                    with pytest.raises(HypothesisViolation):
                        action_realization(act, A, B, C)


def test_action_realization_witness_is_genuine():
    g = make_group("cyclic:4")
    act = left_translation_action(g)
    try:
        action_realization(act, [0, 1], [0, 1], [0, 2])
    except HypothesisViolation as exc:
        f, gg, h, a, b, c = exc.witness
        assert g.mult(g.mult(f, gg), h) == 0
        fa, gb, hc = act.act(f, a), act.act(gg, b), act.act(h, c)
        assert fa in (0, 1) and gb in (0, 1) and hc in (0, 2)
        assert (fa, gb, hc) != (a, b, c)
    else:
        raise AssertionError("expected a hypothesis violation")


def test_action_realization_fixed_point():
    g = make_group("cyclic:2")
    act = action_from_function(g, 2, lambda gg, x: x)
    cfg, real = action_realization(act, [0], [0], [0])
    assert real.dims == (1, 1, 1)


def test_action_realization_builds_one_configuration_per_action():
    act = left_translation_action(make_group("cyclic:6"))
    cfg, _ = action_realization(act, [0], [0], [0])
    again, real = action_realization(act, [0], [0, 1], [0])
    assert again is cfg and real.dims == (1, 2, 1)
    assert np.array_equal(cfg.matrix, schurian(act).matrix)
    other, _ = action_realization(left_translation_action(make_group("cyclic:6")), [0], [0], [0])
    assert other is not cfg


def test_action_realization_validation():
    g = make_group("cyclic:4")
    act = left_translation_action(g)
    with pytest.raises(ValueError):
        action_realization(act, [], [0], [0])
    with pytest.raises(ValueError):
        action_realization(act, [0, 0], [0], [0])
    with pytest.raises(ValueError):
        action_realization(act, [0, 9], [0], [0])


# ------------------------------------------------------ diagonal example


def test_diagonal_example_n2():
    cfg, reals = diagonal_example(2, S=[0])
    assert cfg.n_points == 4 and cfg.rank == 8
    assert len(reals) == 1 and reals[0].dims == (2, 2, 2)


def test_diagonal_example_n5():
    cfg, reals = diagonal_example(5, S=[0, 1])
    assert cfg.n_points == 25 and cfg.rank == 125
    assert len(reals) == 2
    assert all(r.dims == (5, 5, 5) for r in reals)


def test_diagonal_example_default_set():
    cfg, reals = diagonal_example(4)
    assert cfg.rank == 64 and len(reals) == 2  # greedy set {0,1}


def test_diagonal_example_rejects_progression():
    with pytest.raises(ValueError):
        diagonal_example(5, S=[0, 1, 2])


def test_diagonal_triangle_structure():
    # triangle between alpha_i, beta_j, gamma_k iff i+j = 2k and the x, y, z
    # coordinates match; checked for every i, j, k without any 3AP condition
    n = 3
    cfg = schurian(diagonal_action(n))
    M = cfg.matrix

    def pt(u, v):
        return (u % n) * n + (v % n)

    alpha = {}
    gamma = {}
    for i in range(n):
        alpha[i] = np.array(
            [[M[pt(0, x), pt(i, i + y)] for y in range(n)] for x in range(n)]
        )
        gamma[i] = np.array(
            [
                [M[pt(0, z), pt(-2 * i, x - 2 * i)] for x in range(n)]
                for z in range(n)
            ]
        )
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for x, y, yp, z, zp, xp in product(range(n), repeat=6):
                    tri = is_triangle(
                        cfg,
                        int(alpha[i][x, yp]),
                        int(alpha[j][y, zp]),  # beta_j shares alpha_j's grid
                        int(gamma[k][z, xp]),
                    )
                    expect = (
                        (i + j) % n == (2 * k) % n
                        and x == xp
                        and y == yp
                        and z == zp
                    )
                    assert tri == expect


def test_diagonal_images_disjoint():
    cfg, reals = diagonal_example(5, S=[0, 1])
    seen = set()
    for r in reals:
        vals = set(r.alpha.reshape(-1).tolist())
        assert not (seen & vals)
        seen |= vals


# ------------------------------------------------------- symmetric power


def test_sympow_k1_identity():
    cfg, reals = diagonal_example(2, S=[0])
    big, real = sympow_realization(cfg, reals)
    assert big.rank == cfg.rank
    assert real.dims == (2, 2, 2)


def test_sympow_two_trivial_components():
    # two <1,1,1> realizations in the rank-2 scheme of Z/2... the scheme of
    # Z/2 has one diagonal class; a simultaneous pair needs disjoint images,
    # so use the trivial configuration on 2 points (two fibers)
    cfg = trivial_configuration(2)
    d0 = int(cfg.matrix[0, 0])
    d1 = int(cfg.matrix[1, 1])
    r0 = Realization([[d0]], [[d0]], [[d0]])
    r1 = Realization([[d1]], [[d1]], [[d1]])
    verify_simultaneous(cfg, [r0, r1])
    big, real = sympow_realization(cfg, [r0, r1])
    assert real.dims == (1, 1, 1)
    assert big.rank == 10  # C(4+2-1, 2)


def test_sympow_diag4_both_modes_agree():
    cfg, reals = diagonal_example(4)  # S = {0,1}, rank 64 on 16 points
    view, vreal = sympow_realization(cfg, reals, materialize=False)
    big, breal = sympow_realization(cfg, reals, materialize=True)
    assert big.n_points == 256 and big.rank == view.rank == 2080
    assert vreal.dims == breal.dims == (16, 16, 16)
    # the staged maps are the canonical ids of the materialized labels
    ids = view.class_ids(big.class_labels)
    for va, ba in zip(vreal.maps(), breal.maps()):
        assert np.array_equal(ids[ba], va)


def test_sympow_rejects_uns_verified_overlap():
    cfg = trivial_configuration(2)
    d0 = int(cfg.matrix[0, 0])
    r0 = Realization([[d0]], [[d0]], [[d0]])
    with pytest.raises(RealizationInvalid):
        sympow_realization(cfg, [r0, r0])


def test_sympow_stages_by_default():
    cfg, reals = diagonal_example(5, S=[0, 1])
    for k in (1, 2):
        view, real = sympow_realization(cfg, reals[:k])
        assert isinstance(view, SymmetricPowerView)
        assert real.dims == (5**k,) * 3


@pytest.mark.parametrize("r", range(1, 7))
def test_sympow_ids_are_the_colex_ranks(r):
    base = group_scheme(make_group("cyclic:%d" % r)).intersection()
    for k in range(1, 5):
        view = SymmetricPowerView(base, k)
        colex = sorted(itertools.combinations_with_replacement(range(r), k), key=lambda t: t[::-1])
        assert view.rank == len(colex)
        ids = np.arange(view.rank)
        assert view.tuples(ids).tolist() == [list(t) for t in colex]
        assert np.array_equal(view.class_ids(colex), ids)
        assert np.array_equal(view.class_ids(view.tuples(ids)), ids)
        # the order of a multiset's entries does not matter
        assert np.array_equal(view.class_ids(np.flip(view.tuples(ids), axis=-1)), ids)


def test_sympow_ids_do_not_depend_on_the_view():
    """Two views built apart, one of them after calls in another order, give
    the same Sym^2 maps and the same star."""
    cfg, reals = diagonal_example(3)
    first, real = sympow_realization(cfg, reals[:2])
    cfg2, reals2 = diagonal_example(3)
    second = SymmetricPowerView(cfg2.intersection(), 2)
    stars = [second.star(c) for c in reversed(range(second.rank))][::-1]
    again = realization._product_maps(reals2[:2], second.class_ids)
    assert all(np.array_equal(a, b) for a, b in zip(real.maps(), again.maps()))
    assert stars == [first.star(c) for c in range(first.rank)]
    assert sorted(stars) == list(range(first.rank))


def test_sympow_of_rank_2_at_power_70():
    """The binomial table of Sym^70 of a rank-2 base has entries up to
    C(70, 36) ~ 1.1e20 beyond the rank, and none of them is built."""
    view = SymmetricPowerView(group_scheme(make_group("cyclic:2")).intersection(), 70)
    assert view.rank == 71
    ids = np.arange(71)
    assert view.tuples(ids).sum(axis=1).tolist() == list(range(71))
    assert np.array_equal(view.class_ids(view.tuples(ids)), ids)


def test_sympow_view_refuses_ids_beyond_64_bits():
    base = trivial_configuration(8).intersection()  # rank 64
    with pytest.raises(ValueError, match=r"^Sym\^20 of rank 64 is too large for 64-bit class ids$"):
        SymmetricPowerView(base, 20)  # C(83, 20) > 2^62
    view = SymmetricPowerView(base, 19)  # C(82, 19) < 2^62
    ids = np.array([0, 1, view.rank // 2, view.rank - 2, view.rank - 1])
    assert np.array_equal(view.class_ids(view.tuples(ids)), ids)
    assert view.tuples(view.rank - 1).tolist() == [63] * 19


def test_sympow_id_in_range_outside_the_images_is_invalid():
    cfg, reals = diagonal_example(3)
    view, real = sympow_realization(cfg, reals[:2])
    assert view.rank == 378
    used = set(np.concatenate([a.ravel() for a in real.maps()]).tolist())
    assert 377 not in used
    alpha = real.alpha.copy()
    alpha[0, 0] = 377
    with pytest.raises(RealizationInvalid) as info:
        verify_realization(view, Realization(alpha, real.beta, real.gamma))
    assert info.value.witness[0] == "triangle"
    for cid in (378, -1):
        with pytest.raises(ValueError, match=r"^Sym\^2 class ids lie in \[0,378\)$"):
            view.tuples([0, cid])


def test_sympow_materialize_cap():
    # Sym^2 of 169 points has 28561 > POINT_CAP points: refused in one line
    # before its 28561 x 28561 class matrix
    cfg, reals = diagonal_example(13)
    cfg.intersection()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^169\*\*2 = 28561 points exceeds cap 20000$"):
            sympow_realization(cfg, reals[:2], materialize=True)
        assert tracemalloc.get_traced_memory()[1] < 64 << 20
    finally:
        tracemalloc.stop()


# ------------------------------------------------------------- grp-as


def test_grp_as_n1_z8():
    g = make_group("cyclic:8")
    fam = TripleFamily(g, (((0, 1), (0, 2), (0, 4)),))
    cfg, real = grp_as_realization(fam)
    assert cfg.rank == 8  # count_conjugacy_wreath(1, 8)
    assert real.dims == (2, 2, 2)


def test_grp_as_n2_z4():
    g = make_group("cyclic:4")
    fam = TripleFamily(g, (((0,), (0,), (0,)), ((0,), (1,), (2,))))
    cfg, real = grp_as_realization(fam)
    assert cfg.rank == 14  # count_conjugacy_wreath(2, 4)
    assert real.dims == (1, 1, 1)


def test_grp_as_matches_direct_gas():
    g = make_group("cyclic:4")
    fam = TripleFamily(g, (((0,), (0,), (0,)), ((0,), (1,), (2,))))
    assert gas_realization_matches(fam)


def test_grp_as_rejects_bad_family():
    g = make_group("cyclic:2")
    fam = TripleFamily(g, (((0, 1), (0, 1), (0, 1)),))
    with pytest.raises(ValueError):
        grp_as_realization(fam)


def test_grp_as_rejects_nonabelian():
    g = make_group("sym:3")
    fam = TripleFamily(g, (((0,), (0,), (0,)),))
    with pytest.raises(ValueError):
        grp_as_realization(fam)


# ------------------------------------------------------------- file io


def test_real_round_trip(tmp_path):
    cfg = trivial_configuration(3)
    real = fibers_realization(cfg)
    path = tmp_path / "t3.real"
    write_real(real, path)
    back = read_real(path)
    assert back.dims == real.dims
    for name in ("alpha", "beta", "gamma"):
        assert np.array_equal(getattr(back, name), getattr(real, name))
    verify_realization(cfg, back)


def test_real_format_errors():
    with pytest.raises(ValueError):
        read_real(io.StringIO("real 2\ndims 1 1 1\n"))
    with pytest.raises(ValueError):
        read_real(io.StringIO("real 1\ndims 1 1\n"))
    with pytest.raises(ValueError):
        read_real(io.StringIO("real 1\ndims 1 1 1\nalpha\n0 0 -> 0\n"))
    good = (
        "real 1\ndims 1 1 1\nalpha\n0 0 -> 5\nbeta\n0 0 -> 6\n"
        "gamma\n0 0 -> 7\n"
    )
    real = read_real(io.StringIO(good))
    assert int(real.alpha[0, 0]) == 5
    with pytest.raises(ValueError):
        read_real(io.StringIO(good + "junk\n"))


def test_real_map_blocks_read_as_the_line_loop_reads_them(monkeypatch):
    """Every text gives the same maps, or the same error, with the one-call
    block parse and with the per-line loop alone (MAP_LINES never matching)."""
    reals = [fibers_realization(cfg) for _, cfg in corpus()][:6] + diagonal_example(4)[1]
    reals.append(Realization([[3, 10**12]], [[1], [2]], [[7]]))
    texts = []
    for real in reals:
        out = io.StringIO()
        write_real(real, out)
        texts.append(out.getvalue())
    head, body = "real 1\ndims 1 2 1\nalpha\n", "\nbeta\n0 0 -> 1\n1 0 -> 2\ngamma\n0 0 -> 7\n"
    for alpha in [
        "0 1 -> 10\n0 0 -> 3",  # lines in any order
        "0 0 -> 007\n0 1 -> 10",  # leading zeros
        "0 0  -> 3\n0 1 -> +10",  # other spacing, a sign
        "0 0 -> 3\n0 0 -> 4",  # a repeated entry leaves one missing
        "0 0 -> 3\n0 2 -> 4",  # an index out of range
        "0 0 -> 3\n0 1 -> 9223372036854775808",  # a class id past int64
        "0 0 -> 3\n0 1 -> 9223372036854775807",
    ]:
        texts.append(head + alpha + body)

    def outcomes():
        out = []
        for text in texts:
            try:
                out.append([a.tolist() for a in read_real(io.StringIO(text)).maps()])
            except ValueError as exc:
                out.append(str(exc))
        return out

    fast = outcomes()
    monkeypatch.setattr(realization, "MAP_LINES", re.compile("(?!)"))
    assert fast == outcomes()
    assert sum(isinstance(o, str) for o in fast) == 3


# -- one sweep per realization -------------------------------------------------


def counted_sweeps(monkeypatch):
    count = [0]
    sweep = realization._sweep

    def spy(t, reals):
        count[0] += 1
        return sweep(t, reals)

    monkeypatch.setattr(realization, "_sweep", spy)
    return count


def test_weighted_matmul_sweeps_each_realization_once(monkeypatch):
    count = counted_sweeps(monkeypatch)
    cfg, reals = diagonal_example(5)  # one simultaneous sweep
    for real in reals:
        WeightedMatMul(cfg, real)
    assert count[0] == 1
    tcfg = trivial_configuration(4)
    real = fibers_realization(tcfg)
    WeightedMatMul(tcfg, real)
    WeightedMatMul(tcfg, real)
    assert count[0] == 2
    # a new realization with the same maps has no record of its own
    WeightedMatMul(tcfg, Realization(real.alpha, real.beta, real.gamma))
    assert count[0] == 3


def test_record_against_another_configuration_is_swept(monkeypatch):
    cfg, reals = diagonal_example(3)
    twin = CoherentConfiguration.from_class_matrix(cfg.matrix)
    count = counted_sweeps(monkeypatch)
    WeightedMatMul(twin, reals[0])
    assert count[0] == 1
    WeightedMatMul(twin, reals[0])  # recorded against the twin now
    WeightedMatMul(cfg, reals[0])  # and no longer against cfg
    assert count[0] == 2


@pytest.mark.parametrize("slot", ["alpha", "beta", "gamma"])
def test_verified_realization_changed_in_place_is_rejected(slot):
    cfg, reals = diagonal_example(5)
    used = set(np.concatenate([a.ravel() for r in reals for a in r.maps()]).tolist())
    spare = min(set(range(cfg.rank)) - used)
    for at in [(0, 0), (2, 3), (4, 4)]:
        real = reals[0]
        WeightedMatMul(cfg, real)
        arr = getattr(real, slot)
        old = arr[at]
        arr[at] = spare
        fresh = Realization(*(a.copy() for a in real.maps()))
        with pytest.raises(RealizationInvalid) as want:
            verify_realization(cfg, fresh)
        with pytest.raises(RealizationInvalid) as got:
            WeightedMatMul(cfg, real)
        assert got.value.witness == want.value.witness
        assert str(got.value) == str(want.value)
        arr[at] = old
        # a map replaced by another array is not the recorded one either
        setattr(real, slot, getattr(fresh, slot))
        with pytest.raises(RealizationInvalid):
            WeightedMatMul(cfg, real)
        setattr(real, slot, arr)


def test_write_real_bytes_equal_entry_loop():
    reals = [fibers_realization(cfg) for _, cfg in corpus()]
    reals += diagonal_example(5)[1]
    # ids spread far wider than the entries, and negative ones: the labels
    # are the distinct values, not the range they span
    reals.append(Realization([[-3, 5], [7, -1]], [[0, 1], [2, 3]], [[10**12, 0], [1, 2]]))
    for real in reals:
        got, want = io.StringIO(), io.StringIO()
        write_real(real, got)
        loop_write_real(real, want)
        assert got.getvalue() == want.getvalue()
