"""from_class_matrix against its first form. The library finds each class's
size and first pair in one blocked scatter pass over the cells, and its
second pair only where axiom 3 is unproven; sort_from_class_matrix in
reference.py finds them by one stable argsort of all cells. Both must give
the same normalized matrix, representatives, sizes, labels, automorphism
rows and ccfg text, or the same error with the same witness, on every
builder input of the corpus and of the build benchmark's constructions,
on relabeled copies of them in every layout, on corrupted matrices and on
ccfg files read without the axiom-3 sweep."""

import functools
import io
import random
import tracemalloc

import numpy as np
import pytest
from corpus import build_corpus
from reference import sort_from_class_matrix

from ccmm.configuration import KEY_BLOCK, AxiomViolation, CoherentConfiguration, read_ccfg, write_ccfg
from ccmm.constructions import (
    direct_product,
    fusion,
    group_association_scheme,
    group_scheme,
    schurian,
    symmetric_power,
)
from ccmm.groups import conjugation_action, make_group
from ccmm.realization import diagonal_action

BUILD_GROUPS = ["wreath:2:cyclic:8", "wreath:3:cyclic:4", "sym:5", "abelian:4x4", "cyclic:12"]


def builders():
    """(name, thunk): the corpus, then the build benchmark's constructions."""
    yield "corpus", build_corpus
    yield "schurian:diagonal-4", lambda: schurian(diagonal_action(4))
    for desc in BUILD_GROUPS:
        yield "gs:" + desc, lambda d=desc: group_scheme(make_group(d))
        yield "gas:" + desc, lambda d=desc: group_association_scheme(make_group(d))
    yield "conjugation:wreath:2:cyclic:4", lambda: schurian(conjugation_action(make_group("wreath:2:cyclic:4")))
    c12 = group_scheme(make_group("cyclic:12"))
    blocks = sorted({tuple(sorted({i, c12.star(i)})) for i in range(c12.rank)})
    yield "fusion:cyclic:12", lambda: fusion(c12, blocks)
    yield "product:abelian:4x4-x-cyclic:12", lambda: direct_product(group_scheme(make_group("abelian:4x4")), c12)
    yield "sym3:cyclic:4", lambda: symmetric_power(group_scheme(make_group("cyclic:4")), 3)


@functools.cache
def builder_inputs():
    """(name, matrix, keywords) of every from_class_matrix call the
    builders make, named by the builder and the call's place in it; the
    last call of a builder makes its output."""
    calls = []
    library = CoherentConfiguration.from_class_matrix.__func__

    def record(cls, matrix, rank=None, class_labels=None, check="full", automorphisms=()):
        kw = dict(rank=rank, class_labels=class_labels, check=check, automorphisms=[np.array(g) for g in automorphisms])
        calls.append((np.array(matrix), kw))
        return library(cls, matrix, rank, class_labels, check, automorphisms)

    out = []
    CoherentConfiguration.from_class_matrix = classmethod(record)
    try:
        for name, build in builders():
            build()
            out += [("%s:%d" % (name, k), m, kw) for k, (m, kw) in enumerate(calls)]
            out.append((name, calls[-1][0], calls[-1][1]))
            calls.clear()
    finally:
        CoherentConfiguration.from_class_matrix = classmethod(library)
    return out


def outcome(build, matrix, **kw):
    """Everything a configuration holds, or the error raised."""
    try:
        cfg = build(matrix, **kw)
    except (AxiomViolation, ValueError, AssertionError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)
    text = io.StringIO()
    write_ccfg(cfg, text)
    reps = (cfg._x0, cfg._y0) + ((cfg._x1, cfg._y1) if cfg.verification == "trusted" else ())
    return (
        cfg.matrix.dtype.str,
        cfg.matrix.tolist(),
        cfg.rank,
        cfg.verification,
        [a.tolist() for a in reps],
        cfg.class_sizes().tolist(),
        cfg.class_labels,
        cfg.automorphisms.tolist(),
        text.getvalue(),
    )


def assert_same(name, matrix, **kw):
    got = outcome(CoherentConfiguration.from_class_matrix, matrix, **kw)
    want = outcome(sort_from_class_matrix, matrix, **kw)
    assert got == want, name
    if len(got) > 3:
        assert CoherentConfiguration.from_class_matrix(matrix, **kw).matrix.flags.c_contiguous, name


def relabeled(matrix, kw, rng):
    """The matrix with its class ids permuted at random, labels to match."""
    r = int(matrix.max()) + 1 if kw["rank"] is None else kw["rank"]
    sigma = np.array(rng.sample(range(r), r))
    kw = dict(kw)
    if kw["class_labels"] is not None:
        labels = [None] * r
        for old, lab in enumerate(kw["class_labels"]):
            labels[sigma[old]] = lab
        kw["class_labels"] = labels
    return sigma[matrix], kw


def test_builder_inputs_normalize_as_by_the_sort():
    inputs = builder_inputs()
    assert len(inputs) >= 70
    for name, matrix, kw in inputs:
        assert_same(name, matrix, **kw)


@pytest.mark.parametrize("check", ["full", "trusted"])
def test_relabeled_builder_inputs_in_every_layout_normalize_as_by_the_sort(check):
    """Ids permuted at random, in int32 and int64, C and Fortran order."""
    rng = random.Random(41)
    for name, matrix, kw in builder_inputs():
        M, kw = relabeled(matrix, dict(kw, check=check), rng)
        for dtype in (np.int32, np.int64):
            for order in "CF":
                assert_same(name, np.asarray(M, dtype=dtype, order=order), **kw)


def test_corrupted_matrices_are_refused_as_by_the_sort():
    """The build benchmark's corruptions, one cell and its transpose set to
    another class, 24 per target, and the other ways a matrix fails: a
    diagonal class off the diagonal, a lone transposed cell, ids not onto
    the rank, and automorphisms that are no permutation or move a class."""
    rng = random.Random(43)
    built = {name: m for name, m, _ in builder_inputs()}
    for target in ["gs:abelian:4x4", "gs:cyclic:12", "fusion:cyclic:12", "conjugation:wreath:2:cyclic:4", "gas:sym:5"]:
        cfg = CoherentConfiguration.from_class_matrix(built[target])
        M = cfg.matrix.astype(np.int64)
        n, r = len(M), cfg.rank
        for stratum in range(24):
            x = (stratum * n) // 24
            y = (x + 1 + int(rng.random() * (n - 1))) % n
            new = int(rng.random() * (r - 1))
            new += new >= int(M[x, y])
            bad = M.copy()
            bad[x, y] = new
            bad[y, x] = cfg.star(new)
            assert_same("%s:%d" % (target, stratum), bad, rank=None, class_labels=None, check="full")
        bad = M.copy()
        bad[0, 1] = bad[0, 0]
        assert_same(target + ":diagonal", bad, rank=None, class_labels=None, check="full")
        bad = M.copy()
        bad[n - 1, 0] = (bad[n - 1, 0] + 1) % r
        assert_same(target + ":transpose", bad, rank=None, class_labels=None, check="trusted")
        assert_same(target + ":onto", M, rank=r + 1, class_labels=None, check="trusted")
        gens = [np.roll(np.arange(n), 1)]
        assert_same(target + ":moved", M, rank=None, class_labels=None, automorphisms=gens)
        for g in ([0] * n, np.arange(n) - 1, np.arange(n) + 1, np.arange(n - 1), np.arange(n) * 1.0):
            assert_same(target + ":no permutation", M, rank=None, class_labels=None, automorphisms=[g])


def test_matrices_of_several_row_bands_are_checked_as_by_the_sort():
    """On 1100 points a band of KEY_BLOCK cells holds 953 rows: a lone
    transposed cell in the second band, a translation (an automorphism)
    and a swap of two points in the last rows (not one)."""
    n = 1100
    M = group_scheme(make_group("cyclic:%d" % n)).matrix
    assert KEY_BLOCK // n < 1000
    bad = M.copy()
    bad[1000, 1050] = (bad[1000, 1050] + 1) % n
    assert_same("transpose", bad, check="trusted")
    swap = np.arange(n)
    swap[[n - 2, n - 1]] = swap[[n - 1, n - 2]]
    for g in (np.roll(np.arange(n), 1), swap):
        assert_same("automorphism", M, check="trusted", automorphisms=[g])


def test_trusted_ccfg_files_read_as_by_the_sort():
    rng = random.Random(47)
    for name, matrix, kw in builder_inputs():
        M, kw = relabeled(matrix, kw, rng)
        n, r = M.shape[0], int(M.max()) + 1
        gens = kw["automorphisms"]
        text = "ccfg 1\npoints %d classes %d\n" % (n, r) + "".join(" ".join(map(str, row)) + "\n" for row in M.tolist())
        if len(gens):
            text += "automorphisms %d\n" % len(gens) + "".join(" ".join(map(str, g)) + "\n" for g in np.array(gens).tolist())
        got = outcome(lambda _, **k: read_ccfg(io.StringIO(text), check="trusted"), M)
        want = outcome(sort_from_class_matrix, M, rank=r, check="trusted", automorphisms=gens)
        assert got == want, name


def test_trusted_build_of_cyclic_2048_keeps_its_scratch_within_four_key_blocks():
    """The int32 C-ordered matrix is read in place: beyond the 16 MiB of the
    normalized matrix, no more than 4 KEY_BLOCK int64 arrays of scratch.
    The argsort normalization took 20 bytes per cell (80 MiB)."""
    M = group_scheme(make_group("cyclic:2048")).matrix
    assert M.dtype == np.int32 and M.flags.c_contiguous and M.size == 1 << 22
    tracemalloc.start()
    try:
        cfg = CoherentConfiguration.from_class_matrix(M, check="trusted")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(cfg.matrix, M)
    assert peak <= M.nbytes + 4 * KEY_BLOCK * 8
