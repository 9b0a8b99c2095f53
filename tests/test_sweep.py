"""The array intersection tensor and the single realization sweep against
their references in reference.py: the dict-of-dicts builder and the pair
loops of the realization check. Every verdict, witness and message must be
identical, on valid realizations and on seeded single-entry corruptions of
each map, early and late in the sweep."""

import random
import tracemalloc

import numpy as np
import pytest
from corpus import corpus
from reference import (
    MaskTriangles,
    colex_rank,
    dict_tensor,
    lexsort_build_tensor,
    loop_disjoint,
    loop_product_maps,
    loop_verify_realization,
    loop_verify_simultaneous,
    packed_build_tensor,
)

from ccmm import configuration, realization
from ccmm.configuration import AxiomViolation, CoherentConfiguration
from ccmm.constructions import group_scheme, symmetric_power, trivial_configuration
from ccmm.groups import make_group
from ccmm.realization import (
    Realization,
    RealizationInvalid,
    SymmetricPowerView,
    diagonal_example,
    fibers_realization,
    sympow_realization,
    verify_realization,
    verify_simultaneous,
)
from ccmm.tensors import WeightedMatMul, embedded_matmul


class Memo:
    """Caches slice() of a tensor or view across reference runs."""

    def __init__(self, t):
        self.t = t
        self.slices = {}

    def star(self, i):
        return self.t.star(i)

    def slice(self, i, j):
        if (i, j) not in self.slices:
            self.slices[(i, j)] = self.t.slice(i, j)
        return self.slices[(i, j)]


def outcome(fn, *args):
    try:
        return fn(*args)
    except RealizationInvalid as exc:
        return repr(exc.witness), str(exc)


def corruptions(real, new_class, rng):
    """Copies of real with one entry replaced, in each map, one early and
    one late in the sweep."""
    out = []
    for which in ("alpha", "beta", "gamma"):
        size = getattr(real, which).size
        for idx in {rng.randrange(max(1, size // 3)), size - 1 - rng.randrange(max(1, size // 3))}:
            maps = {name: getattr(real, name).copy() for name in ("alpha", "beta", "gamma")}
            old = int(maps[which].flat[idx])
            maps[which].flat[idx] = new_class(old)
            out.append(Realization(maps["alpha"], maps["beta"], maps["gamma"]))
    return out


def other_class(rank, rng):
    def pick(old):
        new = rng.randrange(rank - 1) if rank > 1 else 0
        return new + (new >= old and rank > 1)

    return pick


def assert_single_matches(config, real, new_class, rng):
    ref = Memo(config.intersection())
    cases = [real] + corruptions(real, new_class, rng)
    for case in cases:
        assert outcome(verify_realization, config, case) == outcome(
            loop_verify_realization, ref, case
        )
    return cases


def test_corpus_fibers_realizations_match_reference_loop():
    rng = random.Random(11)
    rejected = 0
    for name, cfg in corpus():
        real = fibers_realization(cfg)
        cases = assert_single_matches(cfg, real, other_class(cfg.rank, rng), rng)
        rejected += sum(
            isinstance(outcome(verify_realization, cfg, c), tuple) for c in cases
        )
    assert rejected > 0


def test_random_realizations_match_reference_loop():
    # random injective maps mostly fail, often with several unexpected
    # triangles at the first failing position
    rng = random.Random(3)
    extras = 0
    for name, cfg in corpus():
        if cfg.rank < 4:
            continue
        ref = Memo(cfg.intersection())
        for _ in range(10):
            l, m, n = (rng.randint(1, 2) for _ in range(3))
            maps = [
                np.array(rng.sample(range(cfg.rank), rows * cols)).reshape(rows, cols)
                for rows, cols in ((l, m), (m, n), (n, l))
            ]
            real = Realization(*maps)
            got = outcome(verify_realization, cfg, real)
            assert got == outcome(loop_verify_realization, ref, real), name
            extras += "extra" in str(got)
    assert extras > 0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_diagonal_family_matches_reference_loop(n):
    rng = random.Random(n)
    cfg, reals = diagonal_example(n)
    ref = Memo(cfg.intersection())
    pick = other_class(cfg.rank, rng)
    families = [reals]
    for ci, real in enumerate(reals):
        assert_single_matches(cfg, real, pick, rng)
        for bad in corruptions(real, pick, rng):
            families.append(reals[:ci] + [bad] + reals[ci + 1 :])
    verdicts = [outcome(verify_simultaneous, cfg, f) for f in families]
    assert verdicts == [outcome(loop_verify_simultaneous, ref, f) for f in families]
    assert verdicts[0] is True


def test_sym2_of_diagonal_4_matches_reference_loop():
    rng = random.Random(4)
    cfg, reals = diagonal_example(4)
    view, vreal = sympow_realization(cfg, reals, materialize=False)
    assert isinstance(view, SymmetricPowerView)
    r = cfg.rank
    assert_single_matches(
        view, vreal, lambda old: int(view.class_ids([rng.randrange(r), rng.randrange(r)])), rng
    )
    big, breal = sympow_realization(cfg, reals, materialize=True)
    assert_single_matches(big, breal, other_class(big.rank, rng), rng)


@pytest.mark.parametrize(
    "name, k",
    [
        ("grp:sym:3", 2),
        ("schurian:diagonal-2", 2),
        ("schurian:conj-sym-3", 2),
        ("fuse:cyclic6-inverse-pairs", 2),
        ("trivial:3", 2),
        ("schurian:natural-sym-3", 3),
        ("grp:cyclic:3", 3),
    ],
)
def test_view_slice_equals_the_materialized_tensor(name, k):
    """Every class pair of Sym^k C, the tuples that repeat a base class
    (the identity among them) included."""
    cfg = dict(corpus())[name]
    big = symmetric_power(cfg, k)
    tensor = big.intersection()
    view = SymmetricPowerView(cfg.intersection(), k)
    ids = view.class_ids(big.class_labels)
    index = np.empty(view.rank, dtype=np.int64)  # view id -> materialized id
    index[ids] = np.arange(big.rank)
    assert any(len(set(label)) < k for label in big.class_labels)
    for i, vi in enumerate(ids.tolist()):
        for j, vj in enumerate(ids.tolist()):
            got = {int(index[v]): p for v, p in view.slice(vi, vj).items()}
            assert got == tensor.slice(i, j), (big.class_labels[i], big.class_labels[j])


def test_staged_triangles_do_not_depend_on_chunk_size(monkeypatch):
    cfg, reals = diagonal_example(4)
    view, real = sympow_realization(cfg, reals)
    args = (real.alpha.ravel(), real.beta.ravel(), real.gamma.ravel())
    whole = set(zip(*(a.tolist() for a in view.triangles(*args))))
    for chunk in (1, 7, 1000):
        monkeypatch.setattr(realization, "SYM_CHUNK", chunk)
        assert set(zip(*(a.tolist() for a in view.triangles(*args)))) == whole
    # a matched triple per (a, b, c), and nothing else, for a valid realization
    assert len(whole) == 16**3


def test_tensor_nonzeros_match_dict_builder():
    for name, cfg in corpus():
        t = cfg.intersection()
        want = dict_tensor(cfg)
        assert {(i, j, k): p for i, j, k, p in t.iter_nonzero()} == want, name
        i, j, k, p = t.arrays()
        assert len(i) == len(want)
        assert list(zip(i.tolist(), j.tolist(), k.tolist())) == sorted(want), name
        for (a, b, c), v in list(want.items())[:50]:
            assert t.p(a, b, c) == v and t.slice(a, b)[c] == v


def test_tensor_lookups_outside_the_nonzeros():
    cfg = dict(corpus())["grp:sym:3"]
    t = cfg.intersection()
    r = cfg.rank
    assert t.slice(-1, 0) == {} and t.slice(0, r) == {} and t.slice(r, 0) == {}
    assert t.p(0, 1, 0) == 0 and t.p(0, r, 0) == 0 and t.p(0, 0, r) == 0
    # pairs (i, j) over i in (0, -1, r, 1) and j in (0, 1), flat in that order
    pair, k, p = t.pair_nonzeros(np.array([0, -1, r, 1]), np.array([[0], [1]]))
    got = list(zip(pair.tolist(), k.tolist(), p.tolist()))
    assert got == [(0, 0, 1), (3, 1, 1), (4, 1, 1), (7, 0, 1)]


def test_is_commutative_matches_pairwise_slices():
    seen = set()
    for name, cfg in corpus():
        t = cfg.intersection()
        want = all(
            t.slice(i, j) == t.slice(j, i)
            for i in range(cfg.rank)
            for j in range(i + 1, cfg.rank)
        )
        assert cfg.is_commutative() == want, name
        seen.add(want)
    assert seen == {True, False}


def test_weights_match_pointwise_lookup():
    cfg, reals = diagonal_example(5)
    t = cfg.intersection()
    for real in reals:
        W = WeightedMatMul(cfg, real)
        l, m, n = real.dims
        for a in range(l):
            for b in range(m):
                for c in range(n):
                    want = t.slice(int(real.alpha[a, b]), int(real.beta[b, c])).get(
                        t.star(int(real.gamma[c, a])), 0
                    )
                    assert W.weights[a, b, c] == want


def test_class_ids_outside_the_rank_are_value_errors():
    cfg, reals = diagonal_example(3)
    r = cfg.rank
    real = reals[0]
    gamma = real.gamma.copy()
    gamma[1, 2] = r
    with pytest.raises(ValueError, match=r"^gamma entry \(1,2\) is class %d, outside \[0,%d\)$" % (r, r)):
        verify_realization(cfg, Realization(real.alpha, real.beta, gamma))
    alpha = reals[1].alpha.copy()
    alpha[0, 1] = -1
    bad = Realization(alpha, reals[1].beta, reals[1].gamma)
    with pytest.raises(ValueError, match=r"^alpha\[1\] entry \(0,1\) is class -1, outside \[0,%d\)$" % r):
        verify_simultaneous(cfg, [reals[0], bad] + list(reals[2:]))
    with pytest.raises(ValueError, match=r"^alpha entry \(0,1\) is class -1"):
        WeightedMatMul(cfg, bad)


# -- the sweep's parts against their first forms -----------------------------------


def test_tensor_arrays_are_byte_identical_to_the_lexsort_build():
    for name, cfg in corpus():
        got, want = cfg.intersection().arrays(), lexsort_build_tensor(cfg)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.int64, name
            assert a.tobytes() == b.tobytes(), name


def test_trusted_fusion_raises_the_lexsort_witness():
    c5 = group_scheme(make_group("cyclic:5"))
    # classes 1 and 4 (g and g^-1) merged, which breaks axiom 3
    fused = CoherentConfiguration.from_class_matrix(
        np.array([0, 1, 2, 3, 1])[c5.matrix], check="trusted", automorphisms=c5.automorphisms
    )
    with pytest.raises(AxiomViolation) as want:
        lexsort_build_tensor(fused)
    with pytest.raises(AxiomViolation) as got:
        fused.intersection()
    assert (got.value.axiom, got.value.witness, str(got.value)) == (
        want.value.axiom,
        want.value.witness,
        str(want.value),
    )


def test_tensor_beyond_64_bit_codes_is_refused():
    # r**3 * (n + 1) first reaches 2**63 at 512 points; 511 stays below
    assert ((511**2) ** 3) * 512 < 1 << 63 <= ((512**2) ** 3) * 513
    cfg = trivial_configuration(513)
    with pytest.raises(ValueError, match=r"^intersection tensor of rank 263169 on 513 points exceeds 64-bit codes$"):
        cfg.intersection()


def test_class_row_triangles_are_the_masked_nonzeros():
    rng = random.Random(5)
    for name, cfg in corpus():
        r = cfg.rank
        star = cfg.star_vector()
        for _ in range(4):
            A, B, C = (np.array(rng.sample(range(-2, r + 2), min(r + 4, rng.randint(1, 6)))) for _ in range(3))
            got = list(zip(*(a.tolist() for a in cfg.triangles(A, B, C))))
            want = set(zip(*(a.tolist() for a in MaskTriangles(cfg).triangles(A, B, C))))
            assert set(got) == want, name
            # a triangle (x, y, z) is read p^{C[z]*}_{A[x], B[y]} times
            K = [int(star[c]) if 0 <= c < r else -1 for c in C.tolist()]
            pos = [{c: x for x, c in enumerate(ids)} for ids in (A.tolist(), B.tolist(), K)]
            counts = {
                (pos[0][a], pos[1][b], pos[2][c]): v
                for a, b, c, v in cfg.intersection().iter_nonzero()
                if a in pos[0] and b in pos[1] and c in pos[2]
            }
            assert {t: got.count(t) for t in set(got)} == counts, name


def test_sweep_matches_the_masked_sweep_on_diagonal_families():
    rng = random.Random(13)
    valid = []
    for n in range(2, 8):
        cfg, reals = diagonal_example(n)
        valid += [(cfg, reals)] + [(cfg, [real]) for real in reals]
    cases = list(valid)
    for _ in range(200):
        cfg, reals = rng.choice(valid)
        ci = rng.randrange(len(reals))
        bad = rng.choice(corruptions(reals[ci], other_class(cfg.rank, rng), rng))
        cases.append((cfg, reals[:ci] + [bad] + reals[ci + 1 :]))
    rejected = 0
    for cfg, reals in cases:
        masked = MaskTriangles(cfg)
        if len(reals) == 1:
            got = outcome(verify_realization, cfg, reals[0])
            assert got == outcome(verify_realization, masked, reals[0])
        else:
            got = outcome(verify_simultaneous, cfg, reals)
            assert got == outcome(verify_simultaneous, masked, reals)
        rejected += got is not True
    assert 100 < rejected < len(cases)


class Passed(Exception):
    pass


class Unread:
    """A configuration that stops _verify at its first attribute read."""

    def __getattr__(self, name):
        raise Passed


def test_disjointness_matches_the_loop():
    rng = random.Random(17)
    kinds = set()
    for trial in range(300):
        reals = []
        for _ in range(rng.randint(1, 4)):
            l, m, n = (rng.randint(1, 3) for _ in range(3))
            maps = [
                np.array([rng.randrange(12) for _ in range(rows * cols)]).reshape(rows, cols)
                for rows, cols in ((l, m), (m, n), (n, l))
            ]
            reals.append(Realization(*maps))
        name = (lambda slot, ci: "%s[%d]" % (slot, ci)) if trial % 2 else (lambda slot, ci: slot)

        def checks(fn):
            try:
                fn(reals, name)
            except RealizationInvalid as exc:
                return exc.witness, str(exc)
            except Passed:
                pass

        # _verify runs these checks before it reads the configuration
        want = checks(loop_disjoint)
        got = checks(lambda reals, name: realization._verify(Unread(), reals, name))
        assert got == want
        kinds.add(want[0][0] if want else None)
    assert kinds == {"injective", "disjoint", None}


def _product_cases():
    """(configuration, realization) pairs: the fibers realization of every
    corpus configuration with several fibers and at most 12 points, one of
    a single fiber, and the diagonal components of n = 3."""
    out = [
        (cfg, fibers_realization(cfg))
        for name, cfg in corpus()
        if (cfg.n_fibers > 1 and cfg.n_points <= 12) or name == "grp:cyclic:5"
    ]
    cfg, reals = diagonal_example(3)
    out += [(cfg, r) for r in reals]
    return out


@pytest.mark.parametrize("k", [2, 3])
def test_product_maps_equal_the_loop(k):
    rng = random.Random(k)
    for cfg, real in _product_cases():
        reals = [real] * k
        if real.dims[0] > 1:  # a coordinate that differs from the others
            reals[rng.randrange(k)] = Realization(*(np.flip(a) for a in real.maps()))
        big = symmetric_power(cfg, k)
        index = {label: i for i, label in enumerate(big.class_labels)}
        view = SymmetricPowerView(cfg.intersection(), k)
        lookup = np.empty(view.rank, dtype=np.int64)  # view id -> materialized id
        lookup[view.class_ids(big.class_labels)] = np.arange(big.rank)
        got = realization._product_maps(reals, lambda cells: lookup[view.class_ids(cells)])
        want = loop_product_maps(reals, lambda t: index[tuple(sorted(t))])
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got.maps(), want))
        got = realization._product_maps(reals, view.class_ids)
        want = loop_product_maps(reals, colex_rank)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got.maps(), want))


# -- the row read ------------------------------------------------------------------


def test_row_read_equals_the_full_tensor_on_class_subsets():
    """The nonzeros of the rows of random class sets I restricted to random
    J, and their pair_nonzeros over every (i, j), are the full tensor's."""
    rng = random.Random(29)
    for name, cfg in corpus():
        r = cfg.rank
        full = cfg.intersection()
        for trial in range(6):
            I = np.array(rng.sample(range(r), rng.randint(1, r)))
            J = None if trial == 0 else np.array(rng.sample(range(r), rng.randint(1, r)))
            got = cfg.intersection_rows(I, J)
            i, j, k, p = full.arrays()
            keep = np.isin(i, I) & (True if J is None else np.isin(j, J))
            for a, b in zip(got.arrays(), (i, j, k, p)):
                assert a.dtype == np.int64 and np.array_equal(a, b[keep]), name
            cols = np.arange(r) if J is None else J
            pairs = (I[:, None], cols[None, :])
            for a, b in zip(got.pair_nonzeros(*pairs), full.pair_nonzeros(*pairs)):
                assert np.array_equal(a, b), name


def test_all_rows_read_equals_the_packed_code_build():
    cases = list(corpus())
    cases += [("diagonal:%d" % n, diagonal_example(n)[0]) for n in (5, 7)]
    cases.append(("sym2:diagonal:3", symmetric_power(diagonal_example(3)[0], 2)))
    for name, cfg in cases:
        got = cfg.intersection().arrays()
        for a, b in zip(got, packed_build_tensor(cfg)):
            assert a.dtype == b.dtype == np.int64, name
            assert a.tobytes() == b.tobytes(), name


def full_tensor_matmul(cfg, real):
    """WeightedMatMul of a copy of real that reads its pairs from the whole
    intersection tensor, as it did before the row read: the copy's record
    holds the tensor in place of the rows."""
    twin = Realization(*(a.copy() for a in real.maps()))
    twin.record = (cfg, cfg.intersection()) + tuple(a.copy() for a in real.maps())
    return WeightedMatMul(cfg, twin)


def test_weighted_matmul_arrays_equal_the_full_tensor_reads():
    cases = [(cfg, fibers_realization(cfg)) for _, cfg in corpus()]
    for n in range(3, 8):
        cfg, reals = diagonal_example(n)
        cases += [(cfg, r) for r in reals]
    cases.append(sympow_realization(*diagonal_example(4), materialize=True))
    for cfg, real in cases:
        got, want = WeightedMatMul(cfg, real), full_tensor_matmul(cfg, real)
        for name in ("ab", "bc", "p", "starts", "run", "weights"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (cfg, real, name)
        assert got.run_mass == want.run_mass


def test_fully_checked_realizations_build_no_tensor(monkeypatch):
    """Verifying and multiplying through realizations in fully checked
    configurations reads class rows only."""

    def refuse(config):
        raise AssertionError("the whole intersection tensor was built")

    monkeypatch.setattr(configuration, "_build_tensor", refuse)
    cfg, reals = diagonal_example(5)
    power, real = sympow_realization(*diagonal_example(4), materialize=True)
    rng = random.Random(3)
    for c, x in [(cfg, r) for r in reals] + [(power, real)]:
        W = WeightedMatMul(c, x)
        l, m, n = x.dims
        A = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(l)]
        B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        assert embedded_matmul(W, A, B) == (np.array(A) @ np.array(B)).tolist()
    with pytest.raises(AssertionError, match="whole intersection tensor"):
        cfg.intersection()


def test_materialized_sym2_of_diagonal_4_peak_memory():
    """Sym^2 of two diagonal components at n = 4 (256 points, rank 2080)
    with its weighted product. Read from the whole tensor, 524,800
    nonzeros, the peak was 46 MB; read from the class rows it is 7.5 MB."""
    cfg, reals = diagonal_example(4)
    tracemalloc.start()
    try:
        power, real = sympow_realization(cfg, reals, materialize=True)
        WeightedMatMul(power, real)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
