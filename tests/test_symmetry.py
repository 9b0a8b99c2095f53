"""Certified symmetry in the axiom-3 sweep. Constructions hand
from_class_matrix point permutations; each is checked exactly against the
class matrix, and the sweep then covers the least point of every orbit of
the group they generate. The configuration, and every witness and message
of a rejection, must equal those of the sweep over all rows."""

import io
import random
import re

import numpy as np
import pytest
from corpus import build_corpus, dihedral_group

from ccmm import configuration
from ccmm.cli import main
from ccmm.configuration import (
    AxiomViolation,
    CoherentConfiguration,
    orbit_minima,
    read_ccfg,
    write_ccfg,
)
from ccmm.constructions import (
    _orbit_generators,
    direct_product,
    fusion,
    group_association_scheme,
    group_scheme,
    schurian,
    symmetric_power,
)
from ccmm.groups import conjugation_action, make_group, natural_action
from ccmm.realization import diagonal_action

BARE = CoherentConfiguration.from_class_matrix.__func__


def verdict(build):
    try:
        cfg = build()
    except AxiomViolation as exc:
        return exc.axiom, repr(exc.witness), str(exc)
    return "ok", cfg.rank, cfg.verification, cfg.matrix.tobytes()


def bare(matrix, **kw):
    return BARE(CoherentConfiguration, matrix, **kw)


def recorded(monkeypatch, build):
    """Run build() and return every from_class_matrix call it made, as
    (matrix, rank, class_labels, check, automorphisms, configuration)."""
    calls = []

    def spy(cls, matrix, rank=None, class_labels=None, check="full", automorphisms=()):
        automorphisms = list(automorphisms)
        cfg = BARE(cls, matrix, rank, class_labels, check, automorphisms)
        calls.append((np.array(matrix), rank, class_labels, check, automorphisms, cfg))
        return cfg

    monkeypatch.setattr(CoherentConfiguration, "from_class_matrix", classmethod(spy))
    build()
    return calls


def closure_minima(gens, n):
    """Least point of each orbit, from the group generated by gens listed
    element by element."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        fresh = []
        for p in frontier:
            for g in gens:
                q = tuple(int(g[x]) for x in p)
                if q not in group:
                    group.add(q)
                    fresh.append(q)
        frontier = fresh
    return [min(p[x] for p in group) for x in range(n)]


def extra_constructions():
    return [
        group_scheme(make_group("sym:5")),
        group_association_scheme(make_group("wreath:2:cyclic:4")),
        schurian(conjugation_action(make_group("wreath:2:cyclic:2"))),
        symmetric_power(group_scheme(make_group("cyclic:4")), 3),
        direct_product(group_scheme(make_group("abelian:2x2")), schurian(natural_action(3))),
    ]


def test_constructions_equal_the_bare_full_sweep(monkeypatch):
    calls = recorded(monkeypatch, lambda: (build_corpus(), extra_constructions()))
    with_gens = 0
    for matrix, rank, labels, check, gens, cfg in calls:
        assert cfg.automorphisms.shape == (len(gens), len(matrix))
        assert not cfg.automorphisms.flags.writeable
        ref = bare(matrix, rank=rank, class_labels=labels, check=check)
        assert ref.automorphisms.shape == (0, len(matrix))
        assert cfg.matrix.dtype == ref.matrix.dtype
        assert np.array_equal(cfg.matrix, ref.matrix)
        assert cfg.class_labels == ref.class_labels
        assert cfg.verification == ref.verification == "full"
        for got, want in zip(cfg.intersection().arrays(), ref.intersection().arrays()):
            assert np.array_equal(got, want)
        # only the trivial configurations (every pair its own class, no
        # symmetry) come without automorphisms
        assert len(gens) > 0 or cfg.rank == len(matrix) ** 2
        with_gens += len(gens) > 0
    assert with_gens >= 55


def fusion_bases():
    groups = ("cyclic:6", "cyclic:8", "cyclic:9", "abelian:4x2", "abelian:3x3", "cyclic:12")
    return [group_scheme(make_group(d)) for d in groups + ("sym:3",)] + [
        group_scheme(dihedral_group(4)),
        group_association_scheme(make_group("sym:4")),
        schurian(diagonal_action(3)),
        direct_product(group_scheme(make_group("cyclic:3")), group_scheme(make_group("cyclic:4"))),
        symmetric_power(group_scheme(make_group("cyclic:5")), 2),
    ]


def random_fusions(base, rng, count):
    """Partitions of the classes that keep the diagonal classes apart and
    merge whole star pairs, so axioms 1 and 2 hold and only axiom 3 can
    fail."""
    diag = sorted(set(np.diagonal(base.matrix).tolist()))
    pairs = sorted({tuple(sorted({c, base.star(c)})) for c in range(base.rank) if c not in diag})
    for _ in range(count):
        groups = {}
        for pair in pairs:
            groups.setdefault(rng.randrange(1 + len(pairs) // 2), []).extend(pair)
        yield [[c] for c in diag] + list(groups.values())


def test_failing_fusions_raise_the_bare_sweep_violation():
    rng = random.Random(11)
    rejected = accepted = 0
    for base in fusion_bases():
        assert len(base.automorphisms)
        for blocks in random_fusions(base, rng, 12):
            blockmap = np.empty(base.rank, dtype=np.int64)
            for b, block in enumerate(blocks):
                blockmap[block] = b
            got = verdict(lambda: fusion(base, blocks))
            want = verdict(lambda: bare(blockmap[base.matrix]))
            assert got == want, blocks
            rejected += got[0] == 3
            accepted += got[0] == "ok"
    assert rejected >= 60 and accepted >= 10


@pytest.mark.parametrize(
    "bad",
    [
        [0, 1, 2],
        [0, 0, 1, 2],
        [1, 2, 3, 4],
        [-1, 0, 1, 2],
        np.arange(4.0),
        np.array([True, False, True, True]),
        [[0, 1, 2, 3]],
    ],
    ids=["short", "repeat", "outside", "negative", "float", "bool", "2d"],
)
def test_non_permutation_is_refused(bad):
    M = group_scheme(make_group("cyclic:4")).matrix
    with pytest.raises(ValueError, match=r"^automorphism 1 is not a permutation of range\(4\)$"):
        CoherentConfiguration.from_class_matrix(M, automorphisms=[np.arange(4), bad])


@pytest.mark.parametrize("check", ["full", "trusted"])
def test_non_automorphism_is_refused(check):
    M = group_scheme(make_group("cyclic:4")).matrix
    with pytest.raises(ValueError, match=r"^automorphism 1 does not preserve the class matrix$"):
        CoherentConfiguration.from_class_matrix(
            M, check=check, automorphisms=[[1, 2, 3, 0], [1, 0, 2, 3]]
        )


def test_derived_lists_are_checked_again():
    base = group_scheme(make_group("cyclic:4"))
    base.automorphisms = np.array([[1, 0, 2, 3]])  # not an automorphism
    with pytest.raises(ValueError, match="does not preserve"):
        fusion(base, [[c] for c in range(base.rank)])
    with pytest.raises(ValueError, match="does not preserve"):
        direct_product(base, group_scheme(make_group("cyclic:2")))
    with pytest.raises(ValueError, match="does not preserve"):
        symmetric_power(base, 2)


def swept_rows(monkeypatch):
    """A list that records the rows argument of every axiom-3 sweep from
    now on (None for all rows)."""
    seen = []
    sweep = configuration._check_axiom3

    def spy(matrix, r, x0, y0, sizes, rows=None):
        seen.append(None if rows is None else list(rows))
        return sweep(matrix, r, x0, y0, sizes, rows=rows)

    monkeypatch.setattr(configuration, "_check_axiom3", spy)
    return seen


def test_sweep_rows_are_the_orbit_minima(monkeypatch):
    seen = swept_rows(monkeypatch)
    cfg = group_scheme(make_group("cyclic:12"))
    power = symmetric_power(schurian(diagonal_action(3)), 2)
    plain = CoherentConfiguration.from_class_matrix(cfg.matrix)
    assert seen[0] == [0]  # left translations are transitive
    # Z/3 on (Z/3)^2: one orbit per difference x2 - x1, least points 0, 1, 2
    assert seen[1] == [0, 1, 2]
    # Sym^2 of it: one orbit per multiset of two of those orbits
    assert seen[2] == [0, 1, 2, 10, 11, 20]
    assert seen[3:] == [None]
    assert (plain.verification, power.verification) == ("full", "full")


def test_orbit_minima_equal_group_closure():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(1, 8)
        gens = [rng.sample(range(n), n) for _ in range(rng.randrange(0, 3))]
        got = orbit_minima(np.array(gens, dtype=np.int64).reshape(-1, n), np.arange(n))
        assert got.tolist() == closure_minima(gens, n), gens
    cycle = np.roll(np.arange(97), 1)[None]
    assert orbit_minima(cycle, np.arange(97)).tolist() == [0] * 97


def test_corpus_orbits_equal_group_closure(monkeypatch):
    calls = recorded(monkeypatch, build_corpus)
    checked = 0
    for matrix, _, _, _, gens, cfg in calls:
        n = len(matrix)
        if not gens or n > 30:
            continue
        want = closure_minima(cfg.automorphisms.tolist(), n)
        assert orbit_minima(cfg.automorphisms, np.arange(n)).tolist() == want
        checked += 1
    assert checked >= 40


@pytest.mark.parametrize(
    "action",
    [
        natural_action(4),
        diagonal_action(3),
        conjugation_action(make_group("sym:3")),
        conjugation_action(dihedral_group(4)),
    ],
    ids=["natural-4", "diagonal-3", "conj-sym-3", "conj-dihedral-4"],
)
def test_orbit_generators_reach_the_table_orbits(action):
    T = action.table
    gens = _orbit_generators(T)
    n = T.shape[1]
    assert orbit_minima(np.array(gens), np.arange(n)).tolist() == T.min(axis=0).tolist()
    for i, g in enumerate(gens):
        # each kept row merges two orbits of the rows kept before it
        lab = orbit_minima(np.array(gens[:i], dtype=np.int64).reshape(-1, n), np.arange(n))
        assert (lab[g] != lab).any()
        assert any(np.array_equal(g, row) for row in T)


def test_group_table_generators():
    for desc in ("cyclic:1", "cyclic:12", "abelian:4x4", "sym:4", "wreath:2:cyclic:3"):
        G = make_group(desc)
        gens = _orbit_generators(G.table())
        gens = np.array(gens, dtype=np.int64).reshape(-1, G.order)
        assert orbit_minima(gens, np.arange(G.order)).tolist() == [0] * G.order
        assert len(gens) <= max(1, G.order.bit_length())


# -- the automorphisms block of a ccfg file ----------------------------------


def ccfg_text(cfg):
    buf = io.StringIO()
    write_ccfg(cfg, buf)
    return buf.getvalue()


def without_block(text):
    return text[: text.index("automorphisms")]


def info_exit(tmp_path, capsys, text):
    path = tmp_path / "x.ccfg"
    path.write_text(text)
    rc = main(["info", str(path)])
    return rc, capsys.readouterr().err


def test_ccfg_round_trip_keeps_automorphisms_on_corpus():
    blocks = 0
    for name, cfg in build_corpus():
        text = ccfg_text(cfg)
        back = read_ccfg(io.StringIO(text))
        assert back.rank == cfg.rank, name
        assert np.array_equal(back.matrix, cfg.matrix), name
        assert np.array_equal(back.automorphisms, cfg.automorphisms), name
        assert back.verification == "full", name
        if len(cfg.automorphisms):
            blocks += 1
            bare = read_ccfg(io.StringIO(without_block(text)))
            assert np.array_equal(bare.matrix, cfg.matrix), name
        else:
            assert "automorphisms" not in text, name
    assert blocks >= 40


@pytest.mark.parametrize(
    "row, message",
    [
        ("1 2 3 3", "automorphism 0 is not a permutation of range(4)"),
        ("1 0 2 3", "automorphism 0 does not preserve the class matrix"),
    ],
)
def test_tampered_generator_is_refused(tmp_path, capsys, row, message):
    text = ccfg_text(group_scheme(make_group("cyclic:4")))
    assert text.endswith("automorphisms 1\n1 2 3 0\n")
    text = text.replace("1 2 3 0\n", row + "\n")
    for check in ("full", "trusted"):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            read_ccfg(io.StringIO(text), check=check)
    assert info_exit(tmp_path, capsys, text) == (2, "error: %s\n" % message)


def test_tampered_matrix_gives_the_full_sweep_witness(tmp_path, capsys):
    # merging only g and g^-1 in Z/5 breaks axiom 3, and every translation
    # still keeps each merged class, so the block checks out
    base = group_scheme(make_group("cyclic:5"))
    merged = np.array([0, 1, 2, 3, 1])[base.matrix]
    text = ccfg_text(
        CoherentConfiguration.from_class_matrix(merged, check="trusted", automorphisms=base.automorphisms)
    )
    assert "automorphisms 1\n" in text
    with pytest.raises(AxiomViolation) as certified:
        read_ccfg(io.StringIO(text))
    with pytest.raises(AxiomViolation) as swept:
        read_ccfg(io.StringIO(without_block(text)))
    assert certified.value.axiom == 3
    assert certified.value.witness == swept.value.witness
    assert str(certified.value) == str(swept.value)
    assert info_exit(tmp_path, capsys, text)[0] == 1


def test_read_sweeps_the_orbit_minima_of_the_block(monkeypatch):
    text = ccfg_text(schurian(diagonal_action(3)))
    seen = swept_rows(monkeypatch)
    read_ccfg(io.StringIO(text))
    read_ccfg(io.StringIO(without_block(text)))
    assert seen == [[0, 1, 2], None]
