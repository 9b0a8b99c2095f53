"""Adjacency-algebra decomposition tests.

Expected degree profiles come from independent sources fixed before the
implementation ran: representation theory of small symmetric groups
(classical character tables), the block structure of full matrix algebras,
and a float null-space oracle for center dimensions."""

from fractions import Fraction

import numpy as np
import pytest

from corpus import corpus

from ccmm.configuration import CoherentConfiguration
from ccmm.constructions import (
    direct_product,
    fusion,
    group_association_scheme,
    group_scheme,
    schurian,
    trivial_configuration,
)
from ccmm.groups import CyclicGroup, SymmetricGroup
from ccmm.realization import diagonal_action, diagonal_example
from ccmm import spectrum
from ccmm.spectrum import (
    IDEM_TOL,
    PRIMES,
    DegreeComputationError,
    _class_products,
    _degree_counts,
    _exact_degrees,
    _float_degrees,
    _gram_matrices,
    _kernel_vectors,
    _lift,
    _rref_mod,
    center_basis,
    character_degrees,
)
from reference import (
    dense_float_degrees,
    dense_idempotent_residual,
    fraction_degree_counts,
    max_degree_lower_bound_check,
    regular_representation,
)

# frozen oracle values, written before the implementation ran
CLASSICAL_DEGREES = {
    # group scheme of G has one block per irreducible character of G,
    # with block degree equal to the character degree
    "sym3": (1, 1, 2),
    "sym4": (1, 1, 2, 3, 3),
}


def float_center_dim(config):
    """Independent center-dimension oracle: float null space of the stacked
    commutator constraints."""
    r = config.rank
    t = config.intersection()
    rows = []
    for j in range(r):
        D = np.zeros((r, r))
        for i in range(r):
            for k, p in t.slice(i, j).items():
                D[k, i] += p
            for k, p in t.slice(j, i).items():
                D[k, i] -= p
        rows.append(D)
    system = np.vstack(rows)
    sv = np.linalg.svd(system, compute_uv=False)
    tol = 1e-9 * max(float(sv[0]), 1.0)
    return r - int((sv > tol).sum())


def diag_config(n):
    return schurian(diagonal_action(n))


# -- regular representation ------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5])
def test_regular_representation_entries_match_tensor(n):
    cfg = group_scheme(CyclicGroup(n))
    t = cfg.intersection()
    L = regular_representation(cfg)
    for i in range(cfg.rank):
        for j in range(cfg.rank):
            for k in range(cfg.rank):
                assert L[i][k, j] == t.p(i, j, k)


@pytest.mark.parametrize(
    "cfg_factory",
    [
        lambda: group_scheme(CyclicGroup(6)),
        lambda: group_scheme(SymmetricGroup(3)),
        lambda: trivial_configuration(3),
        lambda: group_association_scheme(SymmetricGroup(3)),
        lambda: diag_config(2),
    ],
)
def test_regular_representation_is_homomorphism(cfg_factory):
    # L_i L_j = sum_k p^k_{i,j} L_k, exactly, in integers
    cfg = cfg_factory()
    t = cfg.intersection()
    L = regular_representation(cfg)
    r = cfg.rank
    for i in range(r):
        for j in range(r):
            prod = L[i] @ L[j]
            expect = np.zeros((r, r), dtype=np.int64)
            for k, p in t.slice(i, j).items():
                expect += p * L[k]
            assert np.array_equal(prod, expect)


def test_regular_representation_of_identity_class():
    # class 0 of a scheme is the diagonal; its slice acts as identity
    cfg = group_scheme(CyclicGroup(5))
    L = regular_representation(cfg)
    assert np.array_equal(L[0], np.eye(5, dtype=np.int64))


# -- exact linear algebra ----------------------------------------------------


def fraction_kernel(m):
    """Kernel over the rationals of an integer matrix: RREF modulo a prime,
    then rational reconstruction, as the center computation does it."""
    m = np.array(m, dtype=np.int64)
    R, pivots = _rref_mod(m, PRIMES[0])
    return _kernel_vectors(R, pivots, m.shape[1], PRIMES[0])


def test_fraction_kernel_needs_back_substitution():
    # regression: overlapping pivot columns, kernel is span{(1, -1, 1)}
    m = [[1, 1, 0], [0, 1, 1]]
    basis = fraction_kernel(m)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[2] == -v[1]
    assert (np.array(m) @ np.array(v) == 0).all()


@pytest.mark.parametrize("seed", range(5))
def test_fraction_kernel_random_matrices(seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(-3, 4, size=(6, 5))
    basis = fraction_kernel(m)
    # dimension agrees with a float rank oracle
    assert len(basis) == 5 - np.linalg.matrix_rank(m)
    # every basis vector is annihilated exactly
    for vec in basis:
        for row in m:
            assert sum(int(a) * b for a, b in zip(row, vec)) == 0


@pytest.mark.parametrize("seed", range(5))
def test_fraction_kernel_of_rank_deficient_matrices(seed):
    # products of thin factors have kernels with fractional RREF entries
    rng = np.random.default_rng(seed)
    m = rng.integers(-3, 4, size=(6, 3)) @ rng.integers(-3, 4, size=(3, 7))
    basis = fraction_kernel(m)
    assert len(basis) == 7 - np.linalg.matrix_rank(m)
    for vec in basis:
        assert all(sum(int(a) * b for a, b in zip(row, vec)) == 0 for row in m)


def test_kernel_lift_combines_primes():
    # the kernel entry -99991/100003 is too tall to lift modulo one 31-bit
    # prime, but lifts modulo the product of two
    m = np.array([[100003, 99991]])
    R0, pivots = _rref_mod(m, PRIMES[0])
    R1, pivots1 = _rref_mod(m, PRIMES[1])
    assert pivots == pivots1
    one = _kernel_vectors(R0, pivots, 2, PRIMES[0])
    assert one is None or (m @ np.array(one[0], dtype=object) != 0).any()
    R = spectrum._crt(R0, PRIMES[0], R1, PRIMES[1])
    assert (R % PRIMES[0] == R0).all() and (R % PRIMES[1] == R1).all()
    basis = _kernel_vectors(R, pivots, 2, PRIMES[0] * PRIMES[1])
    assert basis == [[-99991, 100003]]


def test_lift_recovers_small_fractions():
    p = PRIMES[0]
    for frac in [Fraction(0), Fraction(-1), Fraction(3, 7), Fraction(-22, 9)]:
        u = frac.numerator * pow(frac.denominator, -1, p) % p
        assert _lift(u, p) == frac
    # residues of large fractions have no small lift
    assert _lift(p // 3 + 12345, p) is None


# -- exact center ----------------------------------------------------------


@pytest.mark.parametrize(
    "cfg_factory,expected_dim",
    [
        (lambda: group_scheme(CyclicGroup(7)), 7),  # commutative: everything
        (lambda: trivial_configuration(3), 1),  # full matrix algebra
        (lambda: group_scheme(SymmetricGroup(3)), 3),  # conj classes of S3
        (lambda: group_scheme(SymmetricGroup(4)), 5),  # conj classes of S4
        (lambda: diag_config(3), 3),
    ],
)
def test_center_dimension(cfg_factory, expected_dim):
    cfg = cfg_factory()
    basis = center_basis(cfg)
    assert len(basis) == expected_dim
    assert float_center_dim(cfg) == expected_dim


def test_center_vectors_commute_with_everything():
    cfg = group_scheme(SymmetricGroup(3))
    L = regular_representation(cfg)
    for vec in center_basis(cfg):
        Z = sum(int(c) * L[i] for i, c in enumerate(vec))
        for Li in L:
            assert np.array_equal(Z @ Li, Li @ Z)


def test_center_identity_element_present():
    # the all-classes sum J is central in any scheme; check it lies in the
    # span of the computed basis (via float least squares residual)
    cfg = group_scheme(SymmetricGroup(3))
    basis = np.array(center_basis(cfg), dtype=np.float64)
    target = np.ones(cfg.rank)
    sol, *_ = np.linalg.lstsq(basis.T, target, rcond=None)
    assert np.abs(basis.T @ sol - target).max() < 1e-9


def test_tall_center_entries_combine_primes(monkeypatch):
    # with no lift modulo a single prime, as for a center whose echelon
    # entries are tall fractions, the next attempt lifts modulo two primes
    cfg = diag_config(3)
    want = center_basis(cfg)
    real = spectrum._lift
    moduli = []

    def lift(u, m):
        moduli.append(m)
        return None if m < 2**32 else real(u, m)

    monkeypatch.setattr(spectrum, "_lift", lift)
    assert center_basis(cfg) == want
    assert max(moduli) == PRIMES[0] * PRIMES[1]


def test_certificate_and_degrees_exact_beyond_int64():
    # a center basis scaled past 2**62 takes the Python-int paths
    cfg = group_scheme(SymmetricGroup(4))
    big = [[v * 2**70 for v in row] for row in center_basis(cfg)]
    nz = cfg.intersection().arrays()
    B = spectrum._int_array(big)
    left = spectrum._class_products(nz, cfg.rank, cfg.n_points, B, left=True)
    right = spectrum._class_products(nz, cfg.rank, cfg.n_points, B, left=False)
    assert left.dtype == object
    assert np.array_equal(left, right)
    assert _exact_degrees(cfg, big) == CLASSICAL_DEGREES["sym4"]


def _corrupting(monkeypatch, corrupt, times):
    """Make the first `times` lifted center candidates wrong; count calls."""
    real = spectrum._kernel_vectors
    calls = []

    def wrapped(*args):
        basis = real(*args)
        calls.append(basis)
        if len(calls) <= times:
            basis = corrupt([row[:] for row in basis])
        return basis

    monkeypatch.setattr(spectrum, "_kernel_vectors", wrapped)
    return calls


def _drop_last(basis):
    return basis[:-1]


def _perturb(basis):
    # reweight one class inside a sum of conjugate classes: the vectors stay
    # independent, so only the exact commutation check can reject them
    row = next(row for row in basis if sum(1 for v in row if v) > 1)
    row[next(c for c, v in enumerate(row) if v)] += 1
    return basis


@pytest.mark.parametrize("corrupt", [_drop_last, _perturb])
def test_wrong_center_candidate_is_retried(monkeypatch, corrupt):
    cfg = group_scheme(SymmetricGroup(3))
    want = center_basis(cfg)
    calls = _corrupting(monkeypatch, corrupt, times=1)
    assert center_basis(cfg) == want
    assert len(calls) == 2
    assert character_degrees(cfg).degrees == CLASSICAL_DEGREES["sym3"]


@pytest.mark.parametrize("corrupt", [_drop_last, _perturb])
def test_wrong_center_candidate_is_never_returned(monkeypatch, corrupt):
    cfg = group_scheme(SymmetricGroup(3))
    calls = _corrupting(monkeypatch, corrupt, times=2 * len(PRIMES))
    with pytest.raises(DegreeComputationError):
        center_basis(cfg)
    assert len(calls) == len(PRIMES)
    with pytest.raises(DegreeComputationError):
        character_degrees(cfg)
    assert len(calls) == 2 * len(PRIMES)


# -- character degrees -----------------------------------------------------


@pytest.mark.parametrize(
    "cfg_factory",
    [
        lambda: group_scheme(CyclicGroup(4)),
        lambda: group_scheme(CyclicGroup(7)),
        lambda: group_association_scheme(SymmetricGroup(3)),
        lambda: group_association_scheme(SymmetricGroup(4)),
        lambda: fusion(group_scheme(CyclicGroup(5)), [[0], [1, 2, 3, 4]]),
    ],
)
def test_commutative_means_all_degrees_one(cfg_factory):
    cfg = cfg_factory()
    assert cfg.is_commutative()
    prof = character_degrees(cfg)
    assert prof.degrees == (1,) * cfg.rank
    assert prof.residual < 1e-6


@pytest.mark.parametrize("n", [2, 3, 4])
def test_trivial_configuration_single_block(n):
    prof = character_degrees(trivial_configuration(n))
    assert prof.degrees == (n,)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_diagonal_configuration_degrees(n):
    prof = character_degrees(diag_config(n))
    assert prof.degrees == (n,) * n
    assert prof.residual < 1e-6


def test_symmetric_group_schemes_match_character_tables():
    s3 = character_degrees(group_scheme(SymmetricGroup(3)))
    assert s3.degrees == CLASSICAL_DEGREES["sym3"]
    s4 = character_degrees(group_scheme(SymmetricGroup(4)))
    assert s4.degrees == CLASSICAL_DEGREES["sym4"]


def test_sum_of_squares_is_rank():
    for cfg in [
        group_scheme(SymmetricGroup(3)),
        diag_config(3),
        trivial_configuration(4),
        group_scheme(CyclicGroup(9)),
    ]:
        prof = character_degrees(cfg)
        assert sum(d * d for d in prof.degrees) == cfg.rank


def test_product_degrees_multiply():
    c1 = group_scheme(SymmetricGroup(3))
    c2 = group_scheme(CyclicGroup(2))
    prod = direct_product(c1, c2)
    d1 = character_degrees(c1).degrees
    d2 = character_degrees(c2).degrees
    expect = tuple(sorted(a * b for a in d1 for b in d2))
    assert character_degrees(prod).degrees == expect


def test_product_of_trivials_is_trivial_profile():
    prod = direct_product(trivial_configuration(2), trivial_configuration(2))
    assert character_degrees(prod).degrees == (4,)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_degrees_invariant_under_class_relabeling(seed):
    cfg = group_scheme(SymmetricGroup(3))
    want = character_degrees(cfg).degrees
    rng = np.random.default_rng(seed)
    perm = rng.permutation(cfg.rank)
    scrambled = CoherentConfiguration.from_class_matrix(perm[cfg.matrix])
    assert character_degrees(scrambled).degrees == want


def test_degrees_deterministic():
    cfg = diag_config(3)
    a = character_degrees(cfg)
    b = character_degrees(cfg)
    assert a.degrees == b.degrees
    assert a.residual == b.residual


def test_profile_iterates_degrees():
    prof = character_degrees(trivial_configuration(2))
    assert list(prof) == [2]


def test_seed_changes_tolerated():
    cfg = group_scheme(SymmetricGroup(3))
    assert character_degrees(cfg, seed=5).degrees == (1, 1, 2)


@pytest.mark.parametrize(
    "cfg_factory",
    [
        lambda: group_scheme(SymmetricGroup(4)),
        lambda: group_scheme(CyclicGroup(5)),
        lambda: diag_config(3),
        lambda: direct_product(trivial_configuration(2), group_scheme(CyclicGroup(3))),
    ],
)
def test_degrees_do_not_depend_on_seed(cfg_factory):
    cfg = cfg_factory()
    profiles = {character_degrees(cfg, seed=s).degrees for s in range(5)}
    assert len(profiles) == 1


def test_exact_degrees_match_float_cross_check_on_corpus():
    for name, cfg in corpus():
        basis = center_basis(cfg)
        exact = _exact_degrees(cfg, basis)
        check, residual = _float_degrees(cfg, basis, 0)
        assert check == exact, name
        assert sum(d * d for d in exact) == cfg.rank, name
        assert residual < 1e-6, name


def test_commutative_center_is_the_class_basis_and_needs_no_elimination(monkeypatch):
    members = [(name, cfg) for name, cfg in corpus() if cfg.is_commutative()]
    assert len(members) >= 30
    for name, cfg in members:
        B = np.array(center_basis(cfg), dtype=np.int64)
        nz = cfg.intersection().arrays()
        assert np.array_equal(B, np.eye(cfg.rank, dtype=np.int64)), name
        left = _class_products(nz, cfg.rank, cfg.n_points, B, left=True)
        right = _class_products(nz, cfg.rank, cfg.n_points, B, left=False)
        assert np.array_equal(left, right), name

    def refuse(*args):
        raise AssertionError("_rref_mod called on a commutative input")

    monkeypatch.setattr(spectrum, "_rref_mod", refuse)
    for name, cfg in members:
        prof = character_degrees(cfg)
        assert prof.degrees == (1,) * cfg.rank, name
        assert prof.residual < IDEM_TOL, name


@pytest.mark.parametrize("source", ["corpus", "diagonal"])
def test_early_stopped_counts_equal_full_counts(source):
    if source == "corpus":
        members = corpus()
    else:
        members = [("diagonal-%d" % n, diagonal_example(n)[0]) for n in range(2, 6)]
    for name, cfg in members:
        r = cfg.rank
        T, G, s = _gram_matrices(cfg, center_basis(cfg))
        full = {d: c for d, c in fraction_degree_counts(T, G, s, r).items() if c}
        assert sum(full.values()) == len(s), name
        for prime in PRIMES:
            counts = _degree_counts(T, G, s, r, prime)
            assert {d: c for d, c in counts.items() if c} == full, (name, prime)
            # the walk stops at the largest degree
            assert max(counts) == max(full), (name, prime)


def test_cluster_residual_matches_dense_products():
    members = list(corpus()) + [("diagonal-4", diagonal_example(4)[0])]
    for name, cfg in members:
        basis = center_basis(cfg)
        for seed in (0, 1):
            check, residual = _float_degrees(cfg, basis, seed)
            want, dense = dense_float_degrees(cfg, basis, seed)
            assert check == want, name
            assert abs(residual - dense) < 1e-12, name


@pytest.mark.parametrize("seed", range(3))
def test_idempotent_residual_matches_dense_products_off_orthonormal(seed):
    # vectors far from orthonormal give residuals of order one in both terms
    rng = np.random.default_rng(seed)
    n = 12
    vecs = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    for scale in (1e-3, 0.3):
        noisy = vecs + scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        groups = np.split(np.arange(n), [1, 4, 5, 9])
        got = spectrum._idempotent_residual(noisy, groups)
        want = dense_idempotent_residual(noisy, groups)
        assert got > scale / 10
        assert abs(got - want) <= 1e-12 * max(want, 1.0)
    # the |sum e - I| term alone: exact idempotents that miss a direction
    groups = np.split(np.arange(n - 1), [3])
    got = spectrum._idempotent_residual(vecs[:, : n - 1], groups)
    assert abs(got - dense_idempotent_residual(vecs[:, : n - 1], groups)) < 1e-12
    assert got > 1e-3


@pytest.mark.parametrize("block", [1, 2 * 27 * 27])
def test_float_degrees_rank_in_blocks(monkeypatch, block):
    # rank 27, three clusters: one L_e per SVD call, then blocks of 2 and 1
    cfg = diag_config(3)
    basis = center_basis(cfg)
    want = _float_degrees(cfg, basis, 0)
    monkeypatch.setattr(spectrum, "KEY_BLOCK", block)
    assert _float_degrees(cfg, basis, 0) == want


def _wrong_cross_checks(monkeypatch, times):
    """Make the first `times` float cross-checks disagree; count calls."""
    real = spectrum._float_degrees
    calls = []

    def wrapped(config, basis, seed):
        degrees, residual = real(config, basis, seed)
        calls.append(seed)
        return (degrees[:-1] if len(calls) <= times else degrees), residual

    monkeypatch.setattr(spectrum, "_float_degrees", wrapped)
    return calls


def test_disagreeing_cross_check_is_repeated_once(monkeypatch):
    cfg = group_scheme(SymmetricGroup(3))
    calls = _wrong_cross_checks(monkeypatch, times=1)
    assert character_degrees(cfg, seed=3).degrees == (1, 1, 2)
    assert calls == [3, 4]


def test_cross_check_that_keeps_disagreeing_raises(monkeypatch):
    cfg = group_scheme(SymmetricGroup(3))
    calls = _wrong_cross_checks(monkeypatch, times=2)
    with pytest.raises(DegreeComputationError):
        character_degrees(cfg)
    assert calls == [0, 1]


def test_diagonal_configuration_rank_216():
    cfg = diag_config(6)
    assert cfg.rank == 216
    assert character_degrees(cfg).degrees == (6,) * 6


def test_rank_cap_enforced():
    cfg = group_scheme(CyclicGroup(5))
    with pytest.raises(ValueError):
        character_degrees(cfg, cap=4)


def test_conjugate_pair_characters_separate():
    # Z/5 has two conjugate pairs of complex characters; a real symmetric
    # central element cannot separate them, the Hermitian one must
    prof = character_degrees(group_scheme(CyclicGroup(5)))
    assert prof.degrees == (1, 1, 1, 1, 1)


# -- fiber lower bound -----------------------------------------------------


def test_max_degree_bound_trivial_config():
    # n fibers of one point each, single block of degree n: equality
    cfg = trivial_configuration(3)
    assert cfg.n_fibers == 3
    assert max_degree_lower_bound_check(cfg)


def test_max_degree_bound_across_corpus():
    for cfg in [
        group_scheme(CyclicGroup(6)),
        group_scheme(SymmetricGroup(3)),
        diag_config(2),
        trivial_configuration(4),
        direct_product(trivial_configuration(2), group_scheme(CyclicGroup(2))),
    ]:
        assert max_degree_lower_bound_check(cfg)


def test_max_degree_bound_accepts_precomputed_profile():
    cfg = trivial_configuration(2)
    prof = character_degrees(cfg)
    assert max_degree_lower_bound_check(cfg, prof)


def test_degree_error_carries_residual():
    err = DegreeComputationError("boom", 0.25)
    assert err.residual == 0.25
