"""Tensor engine tests. Oracles: naive rational matmul, naive Boolean
matmul, and the triangle predicate - all written against definitions,
independent of the tensor code."""

import io
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from ccmm.constructions import group_scheme, trivial_configuration
from ccmm.groups import CyclicGroup, SymmetricGroup
from ccmm.realization import (
    Realization,
    diagonal_example,
    fibers_realization,
)
from ccmm.sets import TriangleFreeSet, simplex_slice, triangle_free_set, triangle_witness
from forms import (
    SparseTensor,
    direct_sum,
    is_triangle,
    matmul_tensor,
    structural_tensor,
    support_equal,
    tensor_product,
)
from reference import adjacency_matmul, loop_unweighting_check
from ccmm.tensors import (
    UnweightingReport,
    WeightedMatMul,
    boolean_matmul,
    embedded_matmul,
    jminusi_demo,
    read_matrix,
    unweighting_check,
    write_matrix,
)


def naive_matmul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    return [
        [
            sum(Fraction(A[a][b]) * Fraction(B[b][c]) for b in range(inner))
            for c in range(cols)
        ]
        for a in range(rows)
    ]


def naive_boolean(A, B):
    A = np.asarray(A, dtype=bool)
    B = np.asarray(B, dtype=bool)
    return (A @ B).astype(np.int64)


def rational_matrix(rng, rows, cols, lo=-9, hi=9):
    return [
        [
            Fraction(int(rng.integers(lo, hi + 1)), int(rng.integers(1, 5)))
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]


# -- sparse tensors ----------------------------------------------------------


def test_matmul_tensor_monomial_counts():
    assert len(matmul_tensor(1, 1, 1).coeffs) == 1
    assert len(matmul_tensor(2, 2, 2).coeffs) == 8
    t = matmul_tensor(2, 3, 4)
    assert len(t.coeffs) == 24
    assert len(t.x_domain) == 6
    assert len(t.y_domain) == 12
    assert len(t.z_domain) == 8
    assert all(v == 1 for v in t.coeffs.values())


def test_matmul_tensor_rejects_bad_dims():
    with pytest.raises(ValueError):
        matmul_tensor(0, 1, 1)


def test_zero_coefficients_never_stored():
    t = SparseTensor([0, 1], [0], [0], {(0, 0, 0): 0, (1, 0, 0): 2})
    assert t.support() == {(1, 0, 0)}


def test_key_outside_domain_rejected():
    with pytest.raises(ValueError):
        SparseTensor([0], [0], [0], {(1, 0, 0): 1})


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        SparseTensor([0, 0], [0], [0], {})


def test_product_of_small_matmul_tensors_pairs_indices():
    # <2,1,1> x <1,2,1> matches <2,2,1> after flattening the label pairs;
    # each index position flattens with the second factor's dimension as radix
    prod = tensor_product(matmul_tensor(2, 1, 1), matmul_tensor(1, 2, 1))
    target = matmul_tensor(2, 2, 1)

    def flat(pair, r1, r2):
        (u1, v1), (u2, v2) = pair
        return (u1 * r1 + u2, v1 * r2 + v2)

    mapped = {
        (flat(x, 1, 2), flat(y, 2, 1), flat(z, 1, 1)): v
        for (x, y, z), v in prod.coeffs.items()
    }
    assert mapped == target.coeffs


def test_cube_of_222_matches_444_support():
    prod = tensor_product(matmul_tensor(2, 2, 2), matmul_tensor(2, 2, 2))

    def flat(pair):
        (a1, b1), (a2, b2) = pair
        return (2 * a1 + a2, 2 * b1 + b2)

    mapped = {
        (flat(x), flat(y), flat(z)) for (x, y, z) in prod.coeffs
    }
    assert mapped == matmul_tensor(4, 4, 4).support()


def test_direct_sum_doubles_support():
    t = matmul_tensor(2, 2, 2)
    s = direct_sum(t, t)
    assert len(s.coeffs) == 2 * len(t.coeffs)
    assert len(s.x_domain) == 2 * len(t.x_domain)


def test_support_equal_ignores_weights():
    t = matmul_tensor(2, 2, 2)
    weighted = SparseTensor(
        t.x_domain,
        t.y_domain,
        t.z_domain,
        {k: Fraction(i + 1, 3) for i, k in enumerate(sorted(t.coeffs))},
    )
    assert support_equal(t, weighted)
    assert not support_equal(t, matmul_tensor(2, 2, 1))


# -- structural tensor -------------------------------------------------------


def test_structural_tensor_z2():
    t = structural_tensor(group_scheme(CyclicGroup(2)))
    # four monomials; class ids are group elements, triangle iff g+h+k = 0
    assert len(t.coeffs) == 4
    for (g, h, k), v in t.coeffs.items():
        assert (g + h + k) % 2 == 0
        assert v == 1


def test_structural_tensor_single_point():
    t = structural_tensor(trivial_configuration(1))
    assert t.coeffs == {(0, 0, 0): Fraction(1)}


@pytest.mark.parametrize(
    "cfg_factory",
    [
        lambda: group_scheme(CyclicGroup(5)),
        lambda: group_scheme(SymmetricGroup(3)),
        lambda: trivial_configuration(3),
    ],
)
def test_structural_tensor_support_is_triangle_relation(cfg_factory):
    cfg = cfg_factory()
    t = structural_tensor(cfg)
    r = cfg.rank
    triangles = {
        (i, j, k)
        for i in range(r)
        for j in range(r)
        for k in range(r)
        if is_triangle(cfg, i, j, k)
    }
    assert t.support() == triangles


# -- weighted matmul ---------------------------------------------------------


def test_weights_all_one_for_group_realization():
    cfg = group_scheme(CyclicGroup(4))
    W = WeightedMatMul(cfg, fibers_realization(cfg))
    assert W.dims == (1, 1, 1)
    assert W.weights.tolist() == [[[1]]]


def test_weights_positive_for_trivial_fibers():
    cfg = trivial_configuration(3)
    W = WeightedMatMul(cfg, fibers_realization(cfg))
    assert W.dims == (3, 3, 3)
    assert (W.weights > 0).all()


def test_weighted_matmul_rejects_broken_realization():
    from ccmm.realization import RealizationInvalid

    cfg = trivial_configuration(3)
    real = fibers_realization(cfg)
    bad = Realization(real.alpha, real.beta, real.gamma.copy())
    bad.gamma[0, 0], bad.gamma[0, 1] = bad.gamma[0, 1], bad.gamma[0, 0]
    with pytest.raises(RealizationInvalid):
        WeightedMatMul(cfg, bad)


def test_identity_times_identity():
    cfg = trivial_configuration(3)
    W = WeightedMatMul(cfg, fibers_realization(cfg))
    I = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
    assert embedded_matmul(W, I, I) == naive_matmul(I, I)


@pytest.mark.parametrize("seed", range(8))
def test_embedded_matmul_trivial_config_random(seed):
    cfg = trivial_configuration(3)
    W = WeightedMatMul(cfg, fibers_realization(cfg))
    rng = np.random.default_rng(seed)
    A = [[int(v) for v in row] for row in rng.integers(-9, 10, (3, 3))]
    B = [[int(v) for v in row] for row in rng.integers(-9, 10, (3, 3))]
    assert embedded_matmul(W, A, B) == naive_matmul(A, B)


@pytest.mark.parametrize("seed", range(4))
def test_embedded_matmul_rational_entries(seed):
    cfg = trivial_configuration(4)
    W = WeightedMatMul(cfg, fibers_realization(cfg))
    rng = np.random.default_rng(100 + seed)
    A = rational_matrix(rng, 4, 4)
    B = rational_matrix(rng, 4, 4)
    assert embedded_matmul(W, A, B) == naive_matmul(A, B)


@pytest.mark.parametrize("seed", range(4))
def test_embedded_matmul_diagonal_component(seed):
    cfg, reals = diagonal_example(5)
    W = WeightedMatMul(cfg, reals[0])  # verified on construction, so not swept again
    rng = np.random.default_rng(200 + seed)
    A = [[int(v) for v in row] for row in rng.integers(-5, 6, (5, 5))]
    B = [[int(v) for v in row] for row in rng.integers(-5, 6, (5, 5))]
    assert embedded_matmul(W, A, B) == naive_matmul(A, B)


def test_adjacency_path_agrees_with_structure_constants():
    cfg = trivial_configuration(3)
    W = WeightedMatMul(cfg, fibers_realization(cfg))
    rng = np.random.default_rng(7)
    A = rational_matrix(rng, 3, 3)
    B = rational_matrix(rng, 3, 3)
    assert adjacency_matmul(W, A, B) == embedded_matmul(W, A, B)


def test_embedded_matmul_shape_validation():
    cfg = trivial_configuration(3)
    W = WeightedMatMul(cfg, fibers_realization(cfg))
    with pytest.raises(ValueError):
        embedded_matmul(W, [[1, 2]], [[1], [2], [3]])


# -- boolean matmul ----------------------------------------------------------


def test_boolean_identity_deterministic():
    cfg = trivial_configuration(4)
    W = WeightedMatMul(cfg, fibers_realization(cfg))
    I = np.eye(4, dtype=np.int64)
    assert np.array_equal(boolean_matmul(W, I, I), I)


def test_boolean_zero_stays_zero():
    cfg = trivial_configuration(3)
    W = WeightedMatMul(cfg, fibers_realization(cfg))
    Z = np.zeros((3, 3), dtype=np.int64)
    B = np.ones((3, 3), dtype=np.int64)
    assert not boolean_matmul(W, Z, B).any()
    assert not boolean_matmul(W, Z, B, seed=3, repetitions=5, deterministic=False).any()


@pytest.mark.parametrize("seed", range(6))
def test_boolean_matmul_randomized_agrees_with_oracle(seed):
    cfg = trivial_configuration(3)
    W = WeightedMatMul(cfg, fibers_realization(cfg))
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 2, (3, 3))
    B = rng.integers(0, 2, (3, 3))
    got = boolean_matmul(W, A, B, seed=seed, repetitions=20, deterministic=False)
    assert np.array_equal(got, naive_boolean(A, B))


def test_boolean_randomized_needs_seed():
    cfg = trivial_configuration(3)
    W = WeightedMatMul(cfg, fibers_realization(cfg))
    I = np.eye(3, dtype=np.int64)
    with pytest.raises(ValueError):
        boolean_matmul(W, I, I, deterministic=False)


def test_boolean_rejects_non_binary_entries():
    cfg = trivial_configuration(3)
    W = WeightedMatMul(cfg, fibers_realization(cfg))
    M = np.full((3, 3), 2)
    with pytest.raises(ValueError):
        boolean_matmul(W, M, M)


# -- support gap demo --------------------------------------------------------


@pytest.mark.parametrize("n,expect_plain", [(2, 2), (5, 5), (8, 8)])
def test_jminusi_ranks(n, expect_plain):
    rep = jminusi_demo(n)
    assert rep.rank_plain == expect_plain
    assert rep.rank_weighted == 2
    assert rep.support_match
    assert rep.ok


def test_jminusi_rejects_small_n():
    with pytest.raises(ValueError):
        jminusi_demo(1)


@pytest.mark.parametrize("n", range(2, 65))
def test_jminusi_certificates_agree_with_floating_point(n):
    # the certified values against SVD ranks and the float support of the
    # complex matrix M_{i,j} = zeta^{i-j}
    idx = np.arange(n)
    M = np.exp(2j * np.pi / n) ** ((idx[:, None] - idx[None, :]) % n)
    J, I = np.ones((n, n)), np.eye(n)
    rep = jminusi_demo(n)
    assert rep.rank_plain == np.linalg.matrix_rank(J - I) == n
    assert rep.rank_weighted == np.linalg.matrix_rank(M - J) == 2
    assert rep.support_match == np.array_equal(np.abs(M - J) > 1e-8, J - I != 0)


# -- the unweighting substitution check --------------------------------------


def test_unweighting_single_point():
    rep = unweighting_check(1, TriangleFreeSet(1, ((1, 1, 1),)))
    assert rep.ok
    assert rep.monomials == 1


@pytest.mark.parametrize("seed", range(10))
def test_unweighting_n2_greedy(seed):
    assert unweighting_check(2, seed=seed).ok


def test_unweighting_n2_every_singleton():
    for s in simplex_slice(2):
        assert unweighting_check(2, [s], seed=1).ok


def test_unweighting_n3_seed7():
    S = triangle_free_set(3)
    rep = unweighting_check(3, S, seed=7)
    assert rep.ok
    assert rep.monomials == len(S) * 3**6


def test_unweighting_detects_triangle():
    # valid subset of the n=3 simplex slice that is not triangle-free
    bad = [(2, 2, 1), (2, 1, 2), (3, 1, 1)]
    rep = unweighting_check(3, bad, seed=0)
    assert not rep.ok
    assert rep.witness is not None
    (ukey, vkey, wkey), coeff = rep.witness
    assert coeff != 1 or ukey[0] != vkey[0] or vkey[0] != wkey[0]


def test_unweighting_input_validation():
    with pytest.raises(ValueError):
        unweighting_check(4)
    with pytest.raises(ValueError):
        unweighting_check(2, [(1, 1, 1)])  # sums to 3, slice needs 4
    with pytest.raises(ValueError):
        unweighting_check(2, [])
    with pytest.raises(ValueError):
        unweighting_check(0)


def test_unweighting_deterministic_given_seed():
    a = unweighting_check(2, seed=0)
    b = unweighting_check(2, seed=0)
    assert a == b == UnweightingReport(True, 2, a.set_size, a.monomials)


def _random_subsets(count=500, seed=10):
    """Seeded non-empty subsets of the slice: n is 2 in four of six draws
    and 1 or 3 in one each, and every triple is kept with probability 3/4,
    so many hold a triangle (the whole n = 2 slice is one). The loop
    reference takes about 0.1 s per n = 3 case, which bounds their share."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((1, 2, 2, 2, 2, 3))
        S = [t for t in simplex_slice(n) if rng.random() < 0.75]
        if S:
            out.append((n, S, rng.randrange(1 << 16)))
    return out


def test_unweighting_matches_loop_reference():
    # reports compare as (ok, n, set_size, monomials, witness)
    cases = [(n, None, seed) for n in (1, 2, 3) for seed in range(10)] + _random_subsets()
    for n, S, seed in cases:
        assert unweighting_check(n, S, seed) == loop_unweighting_check(n, S, seed), (n, S, seed)
    subsets = cases[30:]
    assert len(subsets) >= 500
    assert sum(triangle_witness(S, n) is not None for n, S, _ in subsets) >= 150


# -- matrix files -------------------------------------------------------------


def test_matrix_roundtrip():
    M = [[Fraction(1, 3), Fraction(-2)], [Fraction(5, 7), Fraction(0)]]
    buf = io.StringIO()
    write_matrix(M, buf)
    assert read_matrix(io.StringIO(buf.getvalue())) == M


def test_matrix_write_is_all_or_nothing():
    # an entry past Python's int-to-str digit limit raises before any line,
    # the header included, reaches the handle
    M = [[Fraction(1), Fraction(2)], [Fraction(10**5000), Fraction(3)]]
    buf = io.StringIO()
    with pytest.raises(ValueError):
        write_matrix(M, buf)
    assert buf.getvalue() == ""


def test_matrix_file_format_errors():
    with pytest.raises(ValueError):
        read_matrix(io.StringIO(""))
    with pytest.raises(ValueError):
        read_matrix(io.StringIO("2\n1 2\n"))
    with pytest.raises(ValueError):
        read_matrix(io.StringIO("2 2\n1 2\n"))
    with pytest.raises(ValueError):
        read_matrix(io.StringIO("1 2\n1 2 3\n"))
