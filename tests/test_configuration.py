"""Core configuration tests: axioms, normalization, intersection numbers,
predicates, file round-trips.

Oracles (written first, frozen): brute-force intersection counting straight
from the definition, and a literal triple count for the double-counting
identity. The library must agree with these on every case tested."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from corpus import corpus
from reference import dense, loop_write_ccfg

from ccmm.configuration import (
    AxiomViolation,
    CoherentConfiguration,
    read_ccfg,
    write_ccfg,
)


# ---------------------------------------------------------------- oracles


def brute_intersection(M, r):
    """p^k_{i,j} counted from the definition at the first pair of each
    class. Pure python, no shared code with the library."""
    n = len(M)
    first = {}
    for x in range(n):
        for y in range(n):
            c = M[x][y]
            if c not in first:
                first[c] = (x, y)
    p = {}
    for k in range(r):
        x, y = first[k]
        for i in range(r):
            for j in range(r):
                cnt = 0
                for z in range(n):
                    if M[x][z] == i and M[z][y] == j:
                        cnt += 1
                if cnt:
                    p[(i, j, k)] = cnt
    return p


def brute_triple_count(M, i, j):
    """#{(x,y,z) : (x,z) in R_i and (z,y) in R_j}, counted literally."""
    n = len(M)
    cnt = 0
    for x in range(n):
        for z in range(n):
            if M[x][z] != i:
                continue
            for y in range(n):
                if M[z][y] == j:
                    cnt += 1
    return cnt


def cyclic_scheme_matrix(n):
    """Class of (x, y) is y - x mod n. Always a coherent configuration."""
    idx = np.arange(n)
    return (idx[None, :] - idx[:, None]) % n


# ---------------------------------------------------------- construction


def test_single_point_rank_one():
    cfg = CoherentConfiguration.from_class_matrix([[0]])
    assert cfg.n_points == 1
    assert cfg.rank == 1
    assert cfg.is_association_scheme()
    assert cfg.is_commutative()
    assert cfg.is_symmetric()


def test_merged_two_by_two_fails_axiom_one():
    with pytest.raises(AxiomViolation) as exc:
        CoherentConfiguration.from_class_matrix([[0, 0], [0, 0]])
    assert exc.value.axiom == 1
    assert exc.value.witness is not None


def test_cyclic_scheme_accepted():
    for n in range(1, 9):
        cfg = CoherentConfiguration.from_class_matrix(cyclic_scheme_matrix(n))
        assert cfg.rank == n
        assert cfg.is_association_scheme()
        assert cfg.is_commutative()


def test_input_validation():
    with pytest.raises(ValueError):
        CoherentConfiguration.from_class_matrix([[0, 1, 2], [2, 0, 1]])
    with pytest.raises(ValueError):
        CoherentConfiguration.from_class_matrix(np.zeros((0, 0), dtype=int))
    with pytest.raises(ValueError):
        CoherentConfiguration.from_class_matrix([[0, 2], [2, 0]])  # missing 1
    with pytest.raises(ValueError):
        CoherentConfiguration.from_class_matrix([[0, -1], [1, 0]])
    with pytest.raises(ValueError):
        CoherentConfiguration.from_class_matrix([[0.5, 1], [1, 0.5]])


def test_class_ids_above_declared_rank_are_named():
    with pytest.raises(ValueError, match=r"class ids \[3, 5\] outside \[0,2\)"):
        CoherentConfiguration.from_class_matrix([[0, 3], [5, 0]], rank=2)
    with pytest.raises(ValueError, match=r"missing \[1\]"):
        CoherentConfiguration.from_class_matrix([[0, 2], [2, 0]], rank=3)


def test_point_cap_enforced():
    with pytest.raises(ValueError):
        CoherentConfiguration.from_class_matrix(
            np.zeros((20001, 20001), dtype=np.int8)
        )


# --------------------------------------------------------------- axioms


def test_axiom_two_violation():
    # transpose of class 1 is split between classes 1 and 2
    M = [[0, 1, 1], [2, 0, 1], [1, 2, 0]]
    with pytest.raises(AxiomViolation) as exc:
        CoherentConfiguration.from_class_matrix(M)
    assert exc.value.axiom == 2
    x, y, c, expected, got = exc.value.witness
    assert M[x][y] == c and M[y][x] == got and expected != got


def test_axiom_three_violation_path_graph():
    # adjacency classes of the 3-vertex path: vertex degrees differ, so the
    # count p^0_{1,1} depends on the diagonal representative
    M = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    with pytest.raises(AxiomViolation) as exc:
        CoherentConfiguration.from_class_matrix(M)
    assert exc.value.axiom == 3
    x, y, xr, yr, i, j, got, want = exc.value.witness
    assert M[x][y] == M[xr][yr]
    cnt = sum(1 for z in range(3) if M[x][z] == i and M[z][y] == j)
    ref = sum(1 for z in range(3) if M[xr][z] == i and M[z][yr] == j)
    assert (cnt, ref) == (got, want) and got != want


def test_diagonal_entry_corruption_caught():
    M = cyclic_scheme_matrix(5)
    M[2, 2] = 3
    with pytest.raises(AxiomViolation) as exc:
        CoherentConfiguration.from_class_matrix(M)
    assert exc.value.axiom == 1


@given(st.integers(1, 5), st.integers(0, 35), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_offdiagonal_corruption_always_caught(x, y, shift):
    # any single off-diagonal reclassification of the rank-6 cyclic scheme
    # must be rejected (star check sees it from the intact first rows)
    M = cyclic_scheme_matrix(6)
    y = y % 6
    if x == y:
        y = (y + 1) % 6
    c = M[x, y]
    M[x, y] = (c + shift) % 6
    if M[x, y] == x == 0:
        M[x, y] = (M[x, y] + 1) % 6  # keep it off-diagonal-classed
    with pytest.raises(AxiomViolation):
        CoherentConfiguration.from_class_matrix(M)


# --------------------------------------------------------- normalization


def test_normalization_canonical_under_relabeling():
    base = cyclic_scheme_matrix(6)
    ref = CoherentConfiguration.from_class_matrix(base).matrix
    rng = np.random.default_rng(7)
    for _ in range(10):
        perm = rng.permutation(6)
        cfg = CoherentConfiguration.from_class_matrix(perm[base])
        assert np.array_equal(cfg.matrix, ref)


def test_normalization_diagonal_first():
    # two fibers: diagonal classes come first, ordered by smallest point
    M = np.array([[3, 1], [2, 0]])
    cfg = CoherentConfiguration.from_class_matrix(M)
    assert cfg.matrix[0, 0] == 0 and cfg.matrix[1, 1] == 1
    assert cfg.matrix[0, 1] == 2 and cfg.matrix[1, 0] == 3
    assert list(cfg.fibers().fiber_classes) == [0, 1]


def test_labels_follow_normalization():
    base = cyclic_scheme_matrix(4)
    perm = np.array([2, 0, 3, 1])
    labels = ["a", "b", "c", "d"]  # label of old class i
    cfg = CoherentConfiguration.from_class_matrix(perm[base], class_labels=labels)
    # normalized class c sits at (0, y) with perm[base][0, y] == old id
    for c in range(4):
        y = int(np.flatnonzero(cfg.matrix[0] == c)[0])
        assert cfg.class_labels[c] == labels[perm[base[0, y]]]
    assert cfg.label_index()[cfg.class_labels[1]] == 1


# ------------------------------------------------- intersection numbers


@pytest.mark.parametrize("n", [2, 3, 5, 6, 8])
def test_tensor_matches_brute_force_cyclic(n):
    cfg = CoherentConfiguration.from_class_matrix(cyclic_scheme_matrix(n))
    oracle = brute_intersection(cfg.matrix.tolist(), cfg.rank)
    t = cfg.intersection()
    seen = {}
    for i, j, k, p in t.iter_nonzero():
        seen[(i, j, k)] = p
    assert seen == oracle


def test_tensor_matches_brute_force_trivial():
    M = np.arange(9).reshape(3, 3)
    cfg = CoherentConfiguration.from_class_matrix(M)
    oracle = brute_intersection(cfg.matrix.tolist(), cfg.rank)
    seen = {(i, j, k): p for i, j, k, p in cfg.intersection().iter_nonzero()}
    assert seen == oracle


@pytest.mark.parametrize("n", [3, 5, 6])
def test_double_counting_identity(n):
    cfg = CoherentConfiguration.from_class_matrix(cyclic_scheme_matrix(n))
    t = cfg.intersection()
    sizes = cfg.class_sizes()
    M = cfg.matrix.tolist()
    for i in range(cfg.rank):
        for j in range(cfg.rank):
            lhs = sum(t.p(i, j, k) * int(sizes[k]) for k in range(cfg.rank))
            assert lhs == brute_triple_count(M, i, j)


@pytest.mark.parametrize("n", [3, 5, 6])
def test_adjacency_product_identity(n):
    # A_i A_j = sum_k p^k_{i,j} A_k, exactly, over integer matrices
    cfg = CoherentConfiguration.from_class_matrix(cyclic_scheme_matrix(n))
    t = cfg.intersection()
    adj = [cfg.adjacency_matrix(i) for i in range(cfg.rank)]
    for i in range(cfg.rank):
        for j in range(cfg.rank):
            lhs = adj[i] @ adj[j]
            rhs = sum(t.p(i, j, k) * adj[k] for k in range(cfg.rank))
            assert np.array_equal(lhs, rhs)


def test_class_sizes_sum_and_star():
    cfg = CoherentConfiguration.from_class_matrix(cyclic_scheme_matrix(8))
    sizes = cfg.class_sizes()
    assert int(sizes.sum()) == 64
    for i in range(cfg.rank):
        assert cfg.star(cfg.star(i)) == i
        assert sizes[i] == sizes[cfg.star(i)]


def test_dense_tensor_and_cap():
    cfg = CoherentConfiguration.from_class_matrix(cyclic_scheme_matrix(5))
    d = dense(cfg.intersection())
    oracle = brute_intersection(cfg.matrix.tolist(), 5)
    for (i, j, k), p in oracle.items():
        assert d[i, j, k] == p
    assert int(d.sum()) == sum(oracle.values())
    big = CoherentConfiguration.from_class_matrix(
        np.arange(529).reshape(23, 23)
    )
    with pytest.raises(ValueError):
        dense(big.intersection())


# ------------------------------------------------------------ predicates


def test_predicates_cyclic():
    cfg = CoherentConfiguration.from_class_matrix(cyclic_scheme_matrix(5))
    assert cfg.is_association_scheme()
    assert cfg.is_commutative()
    assert not cfg.is_symmetric()  # star(1) = 4
    assert cfg.n_fibers == 1


def test_predicates_trivial_two_points():
    cfg = CoherentConfiguration.from_class_matrix([[0, 1], [2, 3]])
    assert cfg.n_fibers == 2
    assert not cfg.is_association_scheme()
    assert not cfg.is_commutative()  # >= 2 fibers forces this
    fs = cfg.fibers()
    assert [len(p) for p in fs.parts] == [1, 1]
    assert list(fs.point_fiber) == [0, 1]


def test_adjacency_out_of_range():
    cfg = CoherentConfiguration.from_class_matrix([[0]])
    with pytest.raises(IndexError):
        cfg.adjacency_matrix(1)


# ------------------------------------------------------- check variants


def test_sampled_and_trusted_modes():
    M = cyclic_scheme_matrix(60)
    full = CoherentConfiguration.from_class_matrix(M, check="full")
    assert full.verification == "full"
    sampled = CoherentConfiguration.from_class_matrix(M, check="sampled")
    assert sampled.verification == "sampled"
    trusted = CoherentConfiguration.from_class_matrix(M, check="trusted")
    assert trusted.verification == "trusted"
    assert np.array_equal(full.matrix, sampled.matrix)
    with pytest.raises(ValueError):
        CoherentConfiguration.from_class_matrix(M, check="bogus")


def test_sampled_never_reports_full():
    M = cyclic_scheme_matrix(12)
    cfg = CoherentConfiguration.from_class_matrix(M, check="sampled")
    assert cfg.verification == "sampled"


# ------------------------------------------------------------- file io


def test_ccfg_round_trip(tmp_path):
    cfg = CoherentConfiguration.from_class_matrix(cyclic_scheme_matrix(7))
    path = tmp_path / "c7.ccfg"
    write_ccfg(cfg, path)
    back = read_ccfg(path)
    assert np.array_equal(back.matrix, cfg.matrix)
    assert back.rank == cfg.rank


def test_ccfg_comments_and_errors():
    text = "# comment\nccfg 1\npoints 2 classes 4\n0 1\n# mid comment\n2 3\n"
    cfg = read_ccfg(io.StringIO(text))
    assert cfg.rank == 4
    with pytest.raises(ValueError):
        read_ccfg(io.StringIO("ccfg 2\npoints 1 classes 1\n0\n"))
    with pytest.raises(ValueError):
        read_ccfg(io.StringIO("ccfg 1\npoints 2 classes 4\n0 1\n"))
    with pytest.raises(ValueError):
        read_ccfg(io.StringIO("ccfg 1\npoints 1 classes 2\n0\n"))
    # invalid matrix content is re-verified on read
    with pytest.raises(AxiomViolation):
        read_ccfg(io.StringIO("ccfg 1\npoints 2 classes 1\n0 0\n0 0\n"))


@given(st.integers(2, 10))
@settings(max_examples=20, deadline=None)
def test_ccfg_round_trip_property(n):
    cfg = CoherentConfiguration.from_class_matrix(cyclic_scheme_matrix(n))
    buf = io.StringIO()
    write_ccfg(cfg, buf)
    buf.seek(0)
    assert np.array_equal(read_ccfg(buf).matrix, cfg.matrix)


def test_write_ccfg_bytes_equal_entry_loop_on_corpus():
    for name, cfg in corpus():
        got, want = io.StringIO(), io.StringIO()
        write_ccfg(cfg, got)
        loop_write_ccfg(cfg, want)
        assert got.getvalue() == want.getvalue(), name


# cyclic:2 group scheme: matrix rows on lines 3-4, the block on lines 5-6
C2_MATRIX = "ccfg 1\npoints 2 classes 2\n0 1\n1 0\n"
C2 = C2_MATRIX + "automorphisms 1\n1 0\n"
FOLLOW = "ccfg line 5: expected 'automorphisms %d' for the rows that follow, found '%s'"


@pytest.mark.parametrize(
    "text, message",
    [
        (C2.replace("0 1\n", "0 x\n"), "ccfg line 3: 'x' is not an integer"),
        ("# note\n\n" + C2.replace("0 1\n", "0 x\n"), "ccfg line 5: 'x' is not an integer"),
        (C2.replace("points 2", "points two"), "ccfg line 2: 'two' is not an integer"),
        (C2.replace("0 1\n", "0 1 1\n"), "ccfg line 3: expected 2 entries, found 3"),
        (C2.replace("0 1\n", "0 99999999999999999999\n"), "ccfg entry (0,1) = 99999999999999999999 does not fit in 64 bits"),
        (C2.replace("automorphisms 1", "automorphisms"), FOLLOW % (1, "automorphisms")),
        (C2.replace("automorphisms 1", "automorphisms 1 2"), FOLLOW % (1, "automorphisms 1 2")),
        (C2.replace("automorphisms 1", "automorphisms one"), "ccfg line 5: 'one' is not an integer"),
        (C2.replace("automorphisms 1", "automorphisms -1"), FOLLOW % (1, "automorphisms -1")),
        (C2.replace("automorphisms 1", "automorphisms 2"), FOLLOW % (1, "automorphisms 2")),
        (C2 + "0 1\n", FOLLOW % (2, "automorphisms 1")),
        (C2 + "automorphisms 1\n1 0\n", FOLLOW % (3, "automorphisms 1")),
        (C2.replace("automorphisms 1", "automorphismsx 1"), FOLLOW % (1, "automorphismsx 1")),
        (C2_MATRIX + "automorphisms 1\n1 0 2\n", "ccfg line 6: expected 2 entries, found 3"),
        (C2_MATRIX + "automorphisms 1\n1\n", "ccfg line 6: expected 2 entries, found 1"),
        (C2_MATRIX + "automorphisms 1\n1 y\n", "ccfg line 6: 'y' is not an integer"),
        (C2_MATRIX + "automorphisms 1\n1 -99999999999999999999\n", "automorphism entry (0,1) = -99999999999999999999 does not fit in 64 bits"),
    ],
)
def test_malformed_ccfg_names_the_line(text, message):
    with pytest.raises(ValueError) as exc:
        read_ccfg(io.StringIO(text))
    assert str(exc.value) == message
