"""Exponent arithmetic tests. Closed forms derived by hand serve as the
oracles for the bisection solvers; published conversion pairs are frozen
as literals."""

import math

import pytest

from ccmm.exponent import (
    PRODUCERS,
    ExponentBound,
    construction_family_bound,
    describe,
    format_bound,
    geometric_mean_bound,
    given_bound,
    omega_from_omega_s,
    omega_s_commutative,
    omega_s_noncommutative,
    reference_conversion_checks,
    replay,
    solve_asi,
)

# frozen references: (omega_s published, omega published)
CONVERSION_TABLE = ((2.48, 2.72), (2.41, 2.62), (2.376, 2.564))


# -- bound type ----------------------------------------------------------------


def test_bound_validation():
    with pytest.raises(ValueError):
        ExponentBound("omega_s", 1.9, (), (("given", 1.9),))
    with pytest.raises(ValueError):
        ExponentBound("omega_s", 2.5, (), ())
    with pytest.raises(ValueError):
        ExponentBound("sideways", 2.5, (), (("given", 2.5),))


def test_format_bound_truncates_toward_zero():
    assert format_bound(2.60544787) == "2.6054"
    assert format_bound(2.99999) == "2.9999"
    assert format_bound(2.5) == "2.5000"


# -- commutative closed form ---------------------------------------------------


def test_commutative_vacuous_cube():
    b = omega_s_commutative(5, 5, 5, 125)
    assert b.value == 3.0
    assert b.kind == "omega_s"


def test_commutative_target_rank():
    # rank n^2 for <n,n,n> is the conjectured optimum: bound 2
    b = omega_s_commutative(3, 3, 3, 9)
    assert abs(b.value - 2.0) < 1e-12


def test_commutative_generic_value():
    b = omega_s_commutative(2, 2, 2, 6)
    assert abs(b.value - 3 * math.log(6) / math.log(8)) < 1e-15


def test_commutative_rejects_unit_product():
    with pytest.raises(ValueError):
        omega_s_commutative(1, 1, 1, 5)
    with pytest.raises(ValueError):
        omega_s_commutative(2, 2, 2, 0)


def test_commutative_clamps_below_two():
    b = omega_s_commutative(4, 4, 4, 2)  # raw well below 2
    assert b.value == 2.0
    assert any(step[0] == "clamp" for step in b.provenance)


# -- simultaneous-components solver ---------------------------------------------


def test_asi_single_full_rank_cube():
    assert solve_asi([(8, 8, 8)], 512).value == 3.0


def test_asi_degenerate_all_units():
    b = solve_asi([(1, 1, 1)] * 4, 4)
    assert b.value == 3.0
    assert any(step[0] == "note" for step in b.provenance)


def test_asi_rejects_more_blocks_than_rank():
    with pytest.raises(ValueError):
        solve_asi([(1, 1, 1)] * 5, 4)


def test_asi_two_diagonal_components_closed_form():
    # 2 * 125^{tau/3} = 125 has the closed form tau = 3 (1 - ln2/ln125)
    b = solve_asi([(5, 5, 5), (5, 5, 5)], 125)
    closed = 3 * (1 - math.log(2) / math.log(125))
    assert abs(b.value - closed) < 1e-10
    assert abs(closed - 2.5693) < 5e-5


def test_asi_single_block_matches_commutative():
    a = solve_asi([(2, 2, 2)], 6)
    c = omega_s_commutative(2, 2, 2, 6)
    assert abs(a.value - c.value) < 1e-10


def test_asi_clamps_vacuous():
    b = solve_asi([(2, 2, 2), (4, 4, 4)], 100)
    assert b.value == 3.0
    assert any(step[0] == "clamp" for step in b.provenance)


def test_asi_clamps_below_two():
    # sum of (lmn)^{2/3} already exceeds r: impossible instance, report 2
    b = solve_asi([(8, 8, 8)], 3)
    assert b.value == 2.0
    assert any(step[0] == "clamp" for step in b.provenance)


# -- geometric mean solver -------------------------------------------------------


def test_gm_equal_blocks_match_asi():
    blocks = [(2, 2, 2)] * 3
    a = solve_asi(blocks, 30)
    g = geometric_mean_bound(blocks, 30)
    assert abs(a.value - g.value) < 1e-10


def test_gm_closed_form():
    blocks = [(2, 2, 2), (4, 4, 4)]
    g = geometric_mean_bound(blocks, 50)
    if g.value < 3.0:
        mean = math.sqrt(8 * 64)
        closed = 3 * math.log(50 / 2) / math.log(mean)
        assert abs(g.value - closed) < 1e-10


def test_gm_mixed_blocks_fixture():
    # both solvers on the mixed pair at r=100: both roots land above 3
    a = solve_asi([(2, 2, 2), (4, 4, 4)], 100)
    g = geometric_mean_bound([(2, 2, 2), (4, 4, 4)], 100)
    assert a.value == 3.0 and g.value == 3.0


@pytest.mark.parametrize(
    "blocks,r",
    [
        ([(2, 2, 2), (4, 4, 4)], 50),
        ([(2, 3, 4), (5, 5, 5), (2, 2, 2)], 60),
        ([(3, 3, 3)] * 4, 90),
        ([(2, 2, 2), (2, 2, 2), (6, 6, 6)], 80),
    ],
)
def test_asi_bound_never_exceeds_gm_bound(blocks, r):
    # sum x^{tau/3} >= k (prod x)^{tau/3k}, so the asi root is smaller
    a = solve_asi(blocks, r)
    g = geometric_mean_bound(blocks, r)
    assert a.value <= g.value + 1e-12


def test_gm_single_block_matches_commutative():
    g = geometric_mean_bound([(2, 2, 2)], 6)
    c = omega_s_commutative(2, 2, 2, 6)
    assert abs(g.value - c.value) < 1e-10


# -- noncommutative form -----------------------------------------------------


def test_noncommutative_trivial_config_returns_assumption():
    # degrees {n} for <n,n,n>: the bound collapses to the assumed omega
    for n in (2, 3, 4):
        b = omega_s_noncommutative(n, n, n, [n], assumed=2.3727)
        assert abs(b.value - 2.3727) < 1e-12
        assert b.assumptions


def test_noncommutative_diagonal_config_is_vacuous():
    b = omega_s_noncommutative(5, 5, 5, [5] * 5, assumed=2.3727)
    assert b.value == 3.0
    assert any(step[0] == "clamp" for step in b.provenance)


def test_noncommutative_all_ones_matches_commutative():
    b = omega_s_noncommutative(2, 2, 2, [1] * 6, assumed=2.9)
    c = omega_s_commutative(2, 2, 2, 6)
    assert abs(b.value - c.value) < 1e-12


def test_noncommutative_validation():
    with pytest.raises(ValueError):
        omega_s_noncommutative(2, 2, 2, [])
    with pytest.raises(ValueError):
        omega_s_noncommutative(2, 2, 2, [1], assumed=1.5)


# -- conversion ----------------------------------------------------------------


def test_convert_fixed_point_at_two():
    b = omega_from_omega_s(ExponentBound("omega_s", 2.0, (), (("given", 2.0),)))
    assert b.value == 2.0
    assert b.kind == "omega"


def test_convert_reference_pairs():
    for omega_s, target in CONVERSION_TABLE:
        b = omega_from_omega_s(
            ExponentBound("omega_s", omega_s, (), (("given", omega_s),))
        )
        assert b.value <= target + 1e-9
        assert abs(b.value - (3 * omega_s - 2) / 2) < 1e-12


def test_convert_caps_at_three():
    b = omega_from_omega_s(ExponentBound("omega_s", 3.0, (), (("given", 3.0),)))
    assert b.value == 3.0


def test_convert_monotone():
    vals = [2.0, 2.1, 2.3, 2.41, 2.66, 3.0]
    outs = [
        omega_from_omega_s(
            ExponentBound("omega_s", v, (), (("given", v),))
        ).value
        for v in vals
    ]
    assert outs == sorted(outs)


def test_convert_requires_omega_s():
    b = ExponentBound("omega", 2.5, (), (("given", 2.5),))
    with pytest.raises(ValueError):
        omega_from_omega_s(b)


def test_reference_conversion_checks_pass():
    rows = reference_conversion_checks()
    assert len(rows) == 3
    assert all(row["ok"] for row in rows)
    assert abs(rows[1]["omega"] - 2.615) < 1e-12


# -- published family bound ------------------------------------------------------


def test_family_bound_at_ten():
    b = construction_family_bound(10)
    assert 2.403 < b.value <= 2.41


def test_family_bound_argmin_is_ten():
    vals = {m: construction_family_bound(m).value for m in range(4, 101)}
    best = min(vals, key=vals.get)
    assert best == 10


def test_family_bound_domain():
    for m in (0, 2, 3):
        with pytest.raises(ValueError):
            construction_family_bound(m)


@pytest.mark.parametrize("m", [float("nan"), float("inf")])
def test_family_bound_refuses_non_finite_m(m):
    # NaN passed the old m <= 3 guard and inf gave inf/inf; both surfaced as
    # a clamp error about the bound instead of the input
    with pytest.raises(ValueError, match="need a finite m > 3"):
        construction_family_bound(m)


def test_family_pipeline_display():
    omega = omega_from_omega_s(construction_family_bound(10))
    assert format_bound(omega.value) == "2.6054"
    assert omega.value <= 2.62


# -- provenance replay -----------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: omega_s_commutative(5, 5, 5, 100),
        lambda: solve_asi([(5, 5, 5), (5, 5, 5)], 125),
        lambda: geometric_mean_bound([(2, 2, 2), (4, 4, 4)], 50),
        lambda: omega_s_noncommutative(3, 3, 3, [1, 1, 2], 2.5),
        lambda: construction_family_bound(10),
        lambda: omega_from_omega_s(construction_family_bound(10)),
        lambda: omega_from_omega_s(solve_asi([(4, 4, 4)], 40)),
        lambda: solve_asi([(1, 1, 1)] * 3, 3),
        lambda: omega_s_commutative(4, 4, 4, 2),
    ],
)
def test_provenance_replays_bit_for_bit(make):
    b = make()
    again = replay(b.provenance)
    assert again.value == b.value
    assert again.kind == b.kind


def test_replay_rejects_unknown_step():
    with pytest.raises(ValueError):
        replay((("astrology", 7),))
    with pytest.raises(ValueError, match=r"unknown provenance step \(\)"):
        replay(((),))
    with pytest.raises(ValueError):
        replay(())


def test_replay_rejects_transform_before_any_producer():
    with pytest.raises(ValueError, match=r"\('convert',\): no producer step before it"):
        replay((("convert",),))


@pytest.mark.parametrize(
    "step",
    [("asi", ((2, 2, 2),)), ("commutative", 2, 2, 2, 8, 1), ("family",), ("given", 2.5, 2.6)],
)
def test_replay_rejects_producer_with_wrong_arity(step):
    with pytest.raises(ValueError, match="provenance step .*'%s'.*: wrong number of arguments" % step[0]):
        replay((step,))


# Each producer's chain, step by step, as the CLI prints it.
PROVENANCE_TEXT = [
    (lambda: omega_s_commutative(2, 2, 2, 6), ["commutative(2x2x2, r=6)"]),
    (
        lambda: omega_s_commutative(4, 4, 4, 2),
        ["commutative(4x4x4, r=2)", "clamp(raw value 0.5 below 2)"],
    ),
    (
        lambda: omega_s_commutative(5, 5, 5, 200),
        [
            "commutative(5x5x5, r=200)",
            "clamp(raw value 3.2920296742201787 above 3 is vacuous)",
        ],
    ),
    (
        lambda: solve_asi([(5, 5, 5), (5, 5, 5)], 125),
        ["asi([5x5x5, 5x5x5], r=125)"],
    ),
    (
        lambda: solve_asi([(1, 1, 1)] * 3, 3),
        [
            "asi([1x1x1, 1x1x1, 1x1x1], r=3)",
            "note(all blocks are <1,1,1>; no information)",
        ],
    ),
    (
        lambda: solve_asi([(8, 8, 8)], 3),
        ["asi([8x8x8], r=3)", "clamp(root below 2; instance cannot be realized)"],
    ),
    (
        lambda: geometric_mean_bound([(2, 2, 2), (4, 4, 4)], 50),
        ["geometric-mean([2x2x2, 4x4x4], r=50)", "clamp(root above 3 is vacuous)"],
    ),
    (
        lambda: geometric_mean_bound([(1, 1, 1)] * 2, 2),
        [
            "geometric-mean([1x1x1, 1x1x1], r=2)",
            "note(all blocks are <1,1,1>; no information)",
        ],
    ),
    (
        lambda: omega_s_noncommutative(3, 3, 3, [1, 1, 2], 2.5),
        [
            "noncommutative(3x3x3, degrees=[1, 1, 2], assumed=2.5)",
            "clamp(raw value 1.8528840865973835 below 2)",
        ],
    ),
    (
        lambda: omega_s_noncommutative(5, 5, 5, [5] * 5),
        [
            "noncommutative(5x5x5, degrees=[5, 5, 5, 5, 5], assumed=2.3727)",
            "clamp(raw value 3.3726999999999996 above 3 is vacuous)",
        ],
    ),
    (lambda: construction_family_bound(10), ["family(m=10)"]),
    (lambda: omega_from_omega_s(given_bound(2.4)), ["given(2.4)", "convert"]),
    (
        lambda: omega_from_omega_s(construction_family_bound(4)),
        [
            "family(m=4)",
            "clamp(raw value 3.2451124978365313 above 3 is vacuous)",
            "convert",
            "clamp(raw value 3.5 above 3 is vacuous)",
        ],
    ),
]


def test_every_step_kind_renders_and_replays():
    producers = set()
    for make, text in PROVENANCE_TEXT:
        b = make()
        assert [describe(step) for step in b.provenance] == text
        again = replay(b.provenance)
        assert (again.value, again.provenance) == (b.value, b.provenance)
        producers.add(b.provenance[0][0])
    assert producers == set(PRODUCERS)
    assert describe(("astrology", 7)) == "('astrology', 7)"
