"""The array intersection tensor and the single realization sweep against
their references in reference.py: the dict-of-dicts builder and the pair
loops of the realization check. Every verdict, witness and message must be
identical, on valid realizations and on seeded single-entry corruptions of
each map, early and late in the sweep."""

import random

import numpy as np
import pytest
from corpus import corpus
from reference import (
    dict_tensor,
    loop_verify_realization,
    loop_verify_simultaneous,
)

from ccmm import realization
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
from ccmm.tensors import WeightedMatMul


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
        real = fibers_realization(cfg, check=False)
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
        view, vreal, lambda old: view.intern((rng.randrange(r), rng.randrange(r))), rng
    )
    big, breal = sympow_realization(cfg, reals, materialize=True)
    assert_single_matches(big, breal, other_class(big.rank, rng), rng)


def test_staged_triangles_do_not_depend_on_chunk_size(monkeypatch):
    cfg, reals = diagonal_example(4)
    view, real = sympow_realization(cfg, reals, materialize=False)
    K = np.array([view.star(int(v)) for v in real.gamma.ravel()])
    args = (real.alpha.ravel(), real.beta.ravel(), K)
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
    for check in (True, False):
        with pytest.raises(ValueError, match=r"^alpha entry \(0,1\) is class -1"):
            WeightedMatMul(cfg, bad, check=check)
