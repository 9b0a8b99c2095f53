"""The integer bilinear engine against the per-term Fraction loop in
reference.py: equal products on every corpus configuration, the diagonal
families, materialized Sym^2 of diagonal-4 and the cyclic group families;
the Python-int path above the int64 bound; the Boolean lifts drawn in the
reference's order; and the remainder certificate on realizations that do
not satisfy the triangle condition."""

import random
from fractions import Fraction

import numpy as np
import pytest
from corpus import corpus
from reference import adjacency_matmul, fraction_boolean_matmul, fraction_embedded_matmul

from ccmm import tensors
from ccmm.constructions import schurian, trivial_configuration
from ccmm.groups import make_group, natural_action
from ccmm.realization import (
    Realization,
    TripleFamily,
    diagonal_example,
    fibers_realization,
    grp_as_realization,
    sympow_realization,
)
from ccmm.tensors import WeightedMatMul, boolean_matmul, embedded_matmul


def naive(A, B):
    return [
        [sum((Fraction(A[a][b]) * Fraction(B[b][c]) for b in range(len(B))), Fraction(0))
         for c in range(len(B[0]))]
        for a in range(len(A))
    ]


def rationals(rng, rows, cols):
    return [
        [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(cols)]
        for _ in range(rows)
    ]


def assert_engine_matches(W, seed, products=2):
    rng = random.Random(seed)
    l, m, n = W.dims
    for _ in range(products):
        A, B = rationals(rng, l, m), rationals(rng, m, n)
        got = embedded_matmul(W, A, B)
        assert got == fraction_embedded_matmul(W, A, B)
        assert got == naive(A, B)


@pytest.mark.parametrize("name", [name for name, _ in corpus()])
def test_fibers_realization_of_corpus(name):
    cfg = dict(corpus())[name]
    assert_engine_matches(WeightedMatMul(cfg, fibers_realization(cfg)), seed=len(name))


@pytest.mark.parametrize("n", range(2, 8))
def test_every_diagonal_component(n):
    cfg, reals = diagonal_example(n)
    for ci, real in enumerate(reals):
        assert_engine_matches(WeightedMatMul(cfg, real, check=False), seed=10 * n + ci, products=1)


def test_materialized_sym2_of_diagonal_4():
    cfg, reals = diagonal_example(4)
    power, real = sympow_realization(cfg, reals[:2], materialize=True)
    assert_engine_matches(WeightedMatMul(power, real), seed=4, products=1)


@pytest.mark.parametrize(
    "desc, triples",
    [
        ("cyclic:8", (((0, 1), (0, 2), (0, 4)),)),
        ("cyclic:4", (((0,), (0,), (0,)), ((0,), (1,), (2,)))),
    ],
)
def test_cyclic_group_families(desc, triples):
    cfg, real = grp_as_realization(TripleFamily(make_group(desc), triples))
    W = WeightedMatMul(cfg, real)
    assert_engine_matches(W, seed=len(desc))
    rng = random.Random(3)
    A, B = rationals(rng, *W.dims[:2]), rationals(rng, *W.dims[1:])
    assert adjacency_matmul(W, A, B) == embedded_matmul(W, A, B)


def test_python_int_path_above_the_int64_bound():
    cfg = trivial_configuration(3)
    W = WeightedMatMul(cfg, fibers_realization(cfg))
    big = Fraction(2**40 + 1, 2**41 - 1)
    A = [[big * (a - b) for b in range(3)] for a in range(3)]
    B = [[big + b * c for c in range(3)] for b in range(3)]
    assert embedded_matmul(W, A, B) == naive(A, B) == fraction_embedded_matmul(W, A, B)
    scaled = [[2**40 + 1] * 3] * 3
    assert tensors._integer_product(W, scaled, scaled).dtype == object
    assert tensors._integer_product(W, [[2**20] * 3] * 3, [[2**20] * 3] * 3).dtype == np.int64


def test_int64_bound_is_the_largest_safe_one():
    """With the bound just below 2^62 the int64 path is taken and is still
    exact; one step further the Python-int path takes over."""
    cfg = trivial_configuration(2)
    W = WeightedMatMul(cfg, fibers_realization(cfg))
    l, m, n = W.dims
    top = ((1 << 62) - 1) // (W.run_mass * m)
    below, at = [[top] * m] * l, [[top + 1] * m] * l
    ones = [[1] * n] * m
    got = tensors._integer_product(W, below, ones)
    assert got.dtype == np.int64
    assert got.tolist() == [[top * m] * n] * l
    got = tensors._integer_product(W, at, ones)
    assert got.dtype == object
    assert got.tolist() == [[(top + 1) * m] * n] * l


def test_zero_and_integer_inputs():
    cfg, reals = diagonal_example(3)
    W = WeightedMatMul(cfg, reals[0])
    Z = [[0] * 3 for _ in range(3)]
    M = [[a * 3 + b - 4 for b in range(3)] for a in range(3)]
    assert embedded_matmul(W, Z, M) == [[Fraction(0)] * 3] * 3
    assert embedded_matmul(W, M, Z) == [[Fraction(0)] * 3] * 3
    got = embedded_matmul(W, M, M)
    assert got == naive(M, M) == fraction_embedded_matmul(W, M, M)
    assert all(v.denominator == 1 for row in got for v in row)
    assert embedded_matmul(W, np.array(M), [[str(v) for v in row] for row in M]) == got


@pytest.mark.parametrize("seed", [0, 1, 7, 1234])
def test_randomized_boolean_lifts_follow_the_reference(seed, monkeypatch):
    cfg, reals = diagonal_example(3)
    W = WeightedMatMul(cfg, reals[1])
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 2, (3, 3))
    B = rng.integers(0, 2, (3, 3))
    seen = []

    def recording(W, LA, LB):
        seen.append(([[int(v) for v in row] for row in LA], [[int(v) for v in row] for row in LB]))
        return fraction_embedded_matmul(W, LA, LB)

    want = fraction_boolean_matmul(W, A, B, seed, 5, engine=recording)
    lifts, seen[:] = list(seen), []
    original = tensors._integer_product

    def spy(W, LA, LB):
        seen.append((LA, LB))
        return original(W, LA, LB)

    monkeypatch.setattr(tensors, "_integer_product", spy)
    got = boolean_matmul(W, A, B, seed=seed, repetitions=5, deterministic=False)
    assert np.array_equal(got, want)
    assert seen == lifts


def test_certificate_rejects_a_readout_that_is_not_a_multiple():
    """gamma sends both c to class 1 of the 4-point natural scheme: both
    weights are positive, but the (0,0,0) readout also collects the c = 1
    term, 2 + 1 = 3, which its weight 2 does not divide. The Fraction loop
    returns the wrong product 3/2; the engine refuses."""
    cfg = schurian(natural_action(4))
    bad = Realization(np.array([[1]]), np.array([[1, 0]]), np.array([[1], [1]]))
    W = WeightedMatMul(cfg, bad, check=False)
    assert W.weights.tolist() == [[[2, 1]]]
    assert fraction_embedded_matmul(W, [[1]], [[1, 1]]) == [[Fraction(3, 2), Fraction(3)]]
    with pytest.raises(AssertionError, match=r"^readout 3 at \(a,b,c\) = \(0,0,0\) is not a multiple of its weight 2$"):
        embedded_matmul(W, [[1]], [[1, 1]])
    with pytest.raises(AssertionError):
        boolean_matmul(W, [[1]], [[1, 1]])


def test_invalid_realizations_raise_or_match_the_full_product():
    """On random maps whose weights are positive but which need not satisfy
    the triangle condition (check=False), every nonzero of every pair
    reaches the readouts, not only each pair's own readout class: the engine
    either refuses or returns the Fraction loop's product, which is the
    point-level adjacency product."""
    rng = random.Random(11)
    outcomes = {"refused": 0, "equal": 0, "differs_from_naive": 0}
    for name in ("trivial:3", "schurian:natural-sym-4", "gas:sym-4"):
        cfg = dict(corpus())[name]
        t = cfg.intersection()
        for trial in range(40):
            l, m, n = rng.choice([(1, 1, 2), (2, 1, 1), (2, 1, 2), (3, 1, 2)])
            reach = [[]]
            while not all(reach):
                alpha = [[rng.randrange(cfg.rank) for _ in range(m)] for _ in range(l)]
                beta = [[rng.randrange(cfg.rank) for _ in range(n)] for _ in range(m)]
                reach = [sorted(t.slice(alpha[a][0], beta[0][c])) for a in range(l) for c in range(n)]
            # a readout class that pair (a, 0, c) reaches keeps every weight positive
            gamma = [[t.star(rng.choice(reach[a * n + c])) for a in range(l)] for c in range(n)]
            bad = Realization(np.array(alpha), np.array(beta), np.array(gamma))
            W = WeightedMatMul(cfg, bad, check=False)
            A, B = rationals(rng, l, m), rationals(rng, m, n)
            want = fraction_embedded_matmul(W, A, B)
            if trial < 3:
                assert want == adjacency_matmul(W, A, B)
            try:
                got = embedded_matmul(W, A, B)
            except AssertionError:
                outcomes["refused"] += 1
                continue
            assert got == want
            outcomes["equal"] += 1
            outcomes["differs_from_naive"] += got != naive(A, B)
    assert min(outcomes.values()) > 0, outcomes
