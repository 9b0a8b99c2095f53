"""Acceptance gate. Eight criteria, each encoded with its stated tolerance
or runtime budget:

1. axiom engine over the construction corpus, exact product identity, < 60 s
2. symmetric-power rank law, exact, for every corpus case with n^k <= 20000
3. degree profiles: commutative all-ones, trivial {n}, diagonal n x n,
   sum of squares exact, residuals < 1e-6
4. embedded matmul == naive product on 200 seeded rational instances over
   four distinct realizations; Boolean variant sound and oracle-exact
5. unweighting substitution check, n in {1,2,3} x seeds 0..9, < 120 s at n=3
6. exponent arithmetic reproduces the published reference numbers
7. wreath conjugacy count vs direct enumeration, plus the growth estimate
8. realization mutation rejection and the TPP / action-realization
   equivalence, exhaustively on Z/6 subsets of size <= 2
"""

import functools
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from corpus import (
    build_corpus,
    corpus,
    groups_up_to_order_12,
    product_identity_witness,
    reverify,
)
from ccmm.constructions import (
    schurian,
    symmetric_power_rank,
    trivial_configuration,
)
from ccmm.exponent import (
    construction_family_bound,
    geometric_mean_bound,
    omega_from_omega_s,
    reference_conversion_checks,
    solve_asi,
)
from ccmm.groups import (
    WreathGroup,
    count_conjugacy_wreath,
    left_translation_action,
    make_group,
    wreath_conjugacy_bound_check,
)
from ccmm.realization import (
    HypothesisViolation,
    Realization,
    RealizationInvalid,
    TripleFamily,
    action_realization,
    diagonal_action,
    diagonal_example,
    fibers_realization,
    grp_as_realization,
    tpp_verify,
    verify_realization,
)
from ccmm.spectrum import character_degrees
from ccmm.tensors import (
    WeightedMatMul,
    boolean_matmul,
    embedded_matmul,
    unweighting_check,
)


# -- criterion 1: axiom engine over the corpus --------------------------------


def test_criterion_1_corpus_axioms_and_product_identity():
    t0 = time.monotonic()
    entries = build_corpus()
    assert len(entries) >= 20
    for name, cfg in entries:
        redone = reverify(cfg)
        assert np.array_equal(redone.matrix, cfg.matrix), name
        assert product_identity_witness(cfg) is None, name
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, "corpus verification took %.1fs" % elapsed

    names = [name for name, _ in entries]
    assert sum(1 for n in names if n.startswith("grp:")) == 24
    assert sum(1 for n in names if n.startswith("schurian:")) >= 5
    assert sum(1 for n in names if n.startswith("gas:")) >= 2
    assert any(n.startswith("prod:") for n in names)
    assert any(n.startswith("fuse:") for n in names)
    assert any(n.startswith("sym2:") for n in names)
    assert any(n.startswith("sym3:") for n in names)


def test_criterion_1_group_catalogue_is_complete():
    # one representative per isomorphism type, order <= 12; the profile of
    # (order, abelian, class count, involution count, max element order)
    # separates every pair of types
    groups = groups_up_to_order_12()
    assert sorted(g.order for g in groups) == sorted(
        o for o in range(1, 13) for _ in range({
            1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5,
            9: 2, 10: 2, 11: 1, 12: 5,
        }[o])
    )

    def element_order(g, a):
        k, x = 1, a
        while x != g.identity:
            x = g.mult(x, a)
            k += 1
        return k

    profiles = set()
    for g in groups:
        orders = [element_order(g, a) for a in range(g.order)]
        profiles.add(
            (
                g.order,
                g.is_abelian(),
                len(g.conjugacy_classes()),
                orders.count(2),
                max(orders),
            )
        )
    assert len(profiles) == len(groups)


# -- criterion 2: symmetric-power rank law ------------------------------------


def test_criterion_2_symmetric_power_rank_law():
    checked = 0
    for name, cfg in corpus():
        n, r = cfg.n_points, cfg.rank
        for k in (2, 3):
            if n**k > 20000:
                continue
            got = symmetric_power_rank(cfg, k)
            assert got == math.comb(r + k - 1, k), (name, k, got)
            checked += 1
    assert checked >= 40


# -- criterion 3: degree profiles ----------------------------------------------


def test_criterion_3_corpus_degree_profiles():
    for name, cfg in corpus():
        prof = character_degrees(cfg)
        assert sum(d * d for d in prof.degrees) == cfg.rank, name
        assert prof.residual < 1e-6, (name, prof.residual)
        if cfg.is_commutative():
            assert all(d == 1 for d in prof.degrees), name


def test_criterion_3_trivial_configuration_profiles():
    for n in (2, 3, 4):
        prof = character_degrees(trivial_configuration(n))
        assert prof.degrees == (n,)
        assert prof.residual < 1e-6


def test_criterion_3_diagonal_configuration_profiles():
    for n in (2, 3, 4, 5):
        prof = character_degrees(schurian(diagonal_action(n)))
        assert prof.degrees == (n,) * n
        assert prof.residual < 1e-6


# -- criterion 4: end-to-end matrix multiplication -----------------------------


@functools.lru_cache(maxsize=1)
def acceptance_realizations():
    """Four distinct verified realizations: trivial fibers at sizes 3 and 4,
    one diagonal-example component at n=5, and a translation family inside
    the wreath association scheme of Z/8."""
    out = []
    for n in (3, 4):
        cfg = trivial_configuration(n)
        out.append(("fibers-trivial-%d" % n, cfg, fibers_realization(cfg)))
    dcfg, dreals = diagonal_example(5)
    out.append(("diagonal-5-component-0", dcfg, dreals[0]))
    fam = TripleFamily(make_group("cyclic:8"), (((0, 1), (0, 2), (0, 4)),))
    gcfg, greal = grp_as_realization(fam)
    out.append(("grp-as-cyclic8", gcfg, greal))
    return out


def _rational(rng):
    return Fraction(rng.randint(-99, 99), rng.randint(1, 9))


def test_criterion_4_rational_instances_match_naive_product():
    instances = 0
    for tag, (name, cfg, real) in enumerate(acceptance_realizations()):
        W = WeightedMatMul(cfg, real)
        l, m, n = real.dims
        for s in range(50):
            rng = random.Random(1000 * tag + s)
            A = [[_rational(rng) for _ in range(m)] for _ in range(l)]
            B = [[_rational(rng) for _ in range(n)] for _ in range(m)]
            got = embedded_matmul(W, A, B)
            want = [
                [sum(A[a][b] * B[b][c] for b in range(m)) for c in range(n)]
                for a in range(l)
            ]
            assert got == want, (name, s)
            instances += 1
    assert instances == 200


def test_criterion_4_boolean_no_false_positives_exhaustive():
    # a Boolean product entry depends only on (row of A, column of B), so
    # sweeping all 16 x 16 row/column 0/1 patterns at size 4 covers every
    # entry of every 4x4 pair; deterministic output must agree exactly and
    # the randomized variant must never report a 1 where the truth is 0
    cfg = trivial_configuration(4)
    W = WeightedMatMul(cfg, fibers_realization(cfg))
    for u in range(16):
        row = [(u >> b) & 1 for b in range(4)]
        A = [row] * 4
        for v in range(16):
            col = [(v >> b) & 1 for b in range(4)]
            B = [[col[b]] * 4 for b in range(4)]
            expect = 1 if sum(x * y for x, y in zip(row, col)) else 0
            got = boolean_matmul(W, A, B)
            assert (got == expect).all(), (u, v)
            rand = boolean_matmul(
                W, A, B, seed=16 * u + v, repetitions=3, deterministic=False
            )
            if expect == 0:
                assert not rand.any(), (u, v)


def test_criterion_4_boolean_full_pairs_sample():
    cfg = trivial_configuration(4)
    W = WeightedMatMul(cfg, fibers_realization(cfg))
    for s in range(300):
        rng = random.Random(9000 + s)
        A = [[rng.randint(0, 1) for _ in range(4)] for _ in range(4)]
        B = [[rng.randint(0, 1) for _ in range(4)] for _ in range(4)]
        want = np.array(
            [
                [1 if any(A[a][b] and B[b][c] for b in range(4)) else 0
                 for c in range(4)]
                for a in range(4)
            ]
        )
        assert np.array_equal(boolean_matmul(W, A, B), want), s


def test_criterion_4_boolean_oracle_agreement_8x8():
    cfg = trivial_configuration(8)
    W = WeightedMatMul(cfg, fibers_realization(cfg))
    for s in range(100):
        rng = random.Random(5000 + s)
        A = [[rng.randint(0, 1) for _ in range(8)] for _ in range(8)]
        B = [[rng.randint(0, 1) for _ in range(8)] for _ in range(8)]
        got = boolean_matmul(W, A, B, seed=s, repetitions=20, deterministic=False)
        want = np.array(
            [
                [1 if any(A[a][b] and B[b][c] for b in range(8)) else 0
                 for c in range(8)]
                for a in range(8)
            ]
        )
        assert np.array_equal(got, want), s


# -- criterion 5: unweighting substitution -------------------------------------


def test_criterion_5_unweighting_small_sizes():
    for n in (1, 2):
        for seed in range(10):
            rep = unweighting_check(n, seed=seed)
            assert rep.ok, (n, seed, rep.witness)
            assert rep.monomials == rep.set_size * n**6


def test_criterion_5_unweighting_n3_within_budget():
    t0 = time.monotonic()
    for seed in range(10):
        rep = unweighting_check(3, seed=seed)
        assert rep.ok, (seed, rep.witness)
        assert rep.monomials == rep.set_size * 3**6
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, "n=3 sweep took %.1fs" % elapsed


# -- criterion 6: exponent arithmetic ------------------------------------------


def test_criterion_6_family_formula_at_ten():
    value = construction_family_bound(10).value
    assert 2.403 < value <= 2.41


def _given(value):
    from ccmm.exponent import ExponentBound

    return ExponentBound("omega_s", value, (), (("given", value),))


def test_criterion_6_reference_conversions():
    for omega_s, target in ((2.48, 2.72), (2.41, 2.62), (2.376, 2.564)):
        bound = omega_from_omega_s(_given(omega_s))
        assert bound.value <= target + 1e-9, (omega_s, bound.value)
    rows = reference_conversion_checks()
    assert len(rows) == 3 and all(row["ok"] for row in rows)


def test_criterion_6_closed_form_vs_bisection():
    cases = [
        ([(5, 5, 5)] * 2, 125),
        ([(4, 4, 4)] * 3, 100),
        ([(3, 3, 3)] * 2, 20),
        ([(1, 8, 8), (4, 4, 4)], 40),
    ]
    for blocks, rank in cases:
        got = solve_asi(blocks, rank).value
        volume = blocks[0][0] * blocks[0][1] * blocks[0][2]
        closed = 3.0 * math.log(rank / len(blocks)) / math.log(volume)
        assert abs(got - closed) <= 1e-10, (blocks, rank, got, closed)
    gm = geometric_mean_bound([(2, 2, 2), (8, 8, 8)], 40).value
    closed = 3.0 * math.log(20.0) / math.log(64.0)
    assert abs(gm - closed) <= 1e-10


# -- criterion 7: wreath conjugacy counting ------------------------------------


def test_criterion_7_count_matches_direct_enumeration():
    for n, h in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        G = WreathGroup(n, make_group("cyclic:%d" % h))
        direct = len(G.conjugacy_classes())
        assert count_conjugacy_wreath(n, h) == direct, (n, h, direct)


def test_criterion_7_growth_estimate():
    for n, h in ((2, 2), (2, 3), (2, 4), (3, 3)):
        count, bound = wreath_conjugacy_bound_check(n, h)
        assert count <= bound
    with pytest.raises(ValueError):
        wreath_conjugacy_bound_check(3, 2)


# -- criterion 8: realization soundness ----------------------------------------


def test_criterion_8_mutation_rejection():
    for tag, (name, cfg, real) in enumerate(acceptance_realizations()):
        rng = random.Random(77000 + tag)
        for _ in range(50):
            maps = [real.alpha.copy(), real.beta.copy(), real.gamma.copy()]
            which = rng.randrange(3)
            arr = maps[which]
            idx = rng.randrange(arr.size)
            old = int(arr.flat[idx])
            new = rng.randrange(cfg.rank - 1)
            if new >= old:
                new += 1
            arr.flat[idx] = new
            mutated = Realization(*maps)
            with pytest.raises(RealizationInvalid):
                verify_realization(cfg, mutated)


def test_criterion_8_tpp_action_realization_equivalence():
    G = make_group("cyclic:6")
    act = left_translation_action(G)
    subsets = [(i,) for i in range(6)] + list(itertools.combinations(range(6), 2))
    assert len(subsets) == 21
    satisfied = 0
    for S in subsets:
        for T in subsets:
            for U in subsets:
                want = tpp_verify(G, S, T, U)
                try:
                    action_realization(act, S, T, U)
                    got = True
                except (HypothesisViolation, RealizationInvalid):
                    got = False
                assert got == want, (S, T, U)
                satisfied += want
    assert satisfied > 0
