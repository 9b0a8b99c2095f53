"""The axiom-3 sweep against the row sweep in reference.py, which sorts
int64 keys along the strided axis: the same verdict, witness and message on
every corpus configuration, on seeded single-pair corruptions early and late
in the row order, in full and sampled mode, and with int64 keys."""

import random

import numpy as np
import pytest
from corpus import corpus
from reference import loop_check_axiom3

from ccmm import configuration
from ccmm.configuration import AxiomViolation, CoherentConfiguration, _key_arrays
from ccmm.constructions import trivial_configuration


def verdict(matrix, check):
    try:
        cfg = CoherentConfiguration.from_class_matrix(matrix, check=check)
    except AxiomViolation as exc:
        return exc.axiom, repr(exc.witness), str(exc)
    except ValueError as exc:
        return "ValueError", str(exc)
    return "ok", cfg.rank, cfg.verification


def sweep_and_reference(matrix, monkeypatch, check="full"):
    got = verdict(matrix, check)
    with monkeypatch.context() as m:
        m.setattr(configuration, "_check_axiom3", loop_check_axiom3)
        want = verdict(matrix, check)
    return got, want


def corrupted(cfg, rng, late):
    """A copy of the class matrix with one off-diagonal pair (x, y), x in
    the first or last quarter of the rows, moved to another off-diagonal
    class, and (y, x) moved to its transpose class, so that axioms 1 and 2
    still hold."""
    M = cfg.matrix.astype(np.int64)
    n = len(M)
    quarter = max(1, n // 4)
    x = rng.randrange(n - quarter, n) if late else rng.randrange(quarter)
    y = rng.choice([v for v in range(n) if v != x])
    diag = set(np.diagonal(M).tolist())
    choices = [c for c in range(cfg.rank) if c not in diag and c != M[x, y]]
    if not choices:
        return None
    new = rng.choice(choices)
    M[x, y] = new
    M[y, x] = cfg.star(new)
    return M


CORPUS = corpus()


@pytest.mark.parametrize("name,cfg", CORPUS, ids=[name for name, _ in CORPUS])
def test_corpus_sweep_equals_reference(name, cfg, monkeypatch):
    for check in ("full", "sampled"):
        got, want = sweep_and_reference(cfg.matrix, monkeypatch, check)
        assert got == want
        assert got[0] == "ok"


def test_corruptions_sweep_equals_reference(monkeypatch):
    rng = random.Random(20121)
    axiom3 = 0
    for name, cfg in CORPUS:
        if cfg.n_points < 3:
            continue
        for late in (False, True):
            for _ in range(3):
                bad = corrupted(cfg, rng, late)
                if bad is None:
                    continue
                for check in ("full", "sampled"):
                    got, want = sweep_and_reference(bad, monkeypatch, check)
                    assert got == want, (name, late, check)
                    axiom3 += got[0] == 3
    assert axiom3 >= 100


def test_sweep_blocks_do_not_change_the_witness(monkeypatch):
    """Blocks of a few rows, of part of one row, and of a single pair."""
    rng = random.Random(7)
    name, cfg = next(e for e in CORPUS if e[0] == "sym2:grp-sym3")
    bads = [corrupted(cfg, rng, late) for late in (False, True, True)]
    want = [verdict(bad, "full") for bad in bads]
    assert all(w[0] == 3 for w in want)
    for block in (cfg.n_points * 5, cfg.n_points // 2, 1):
        monkeypatch.setattr(configuration, "KEY_BLOCK", block)
        assert [verdict(bad, "full") for bad in bads] == want


def test_key_width_follows_rank():
    one = np.zeros((1, 1), dtype=np.int32)
    assert _key_arrays(one, 46340)[0].dtype == np.int32  # 46340**2 < 2**31
    assert _key_arrays(one, 46341)[0].dtype == np.int64


def test_int64_keys_on_trivial_216(monkeypatch):
    M = trivial_configuration(216, check="trusted").matrix
    assert M.max() + 1 == 46656
    assert _key_arrays(M, 46656)[0].dtype == np.int64
    got, want = sweep_and_reference(M, monkeypatch)
    assert got == want == ("ok", 46656, "full")
    # merge class (0,1) into (0,2) and (1,0) into (2,0): profiles differ
    bad = M.astype(np.int64)
    bad[0, 1], bad[1, 0] = bad[0, 2], bad[2, 0]
    bad = np.unique(bad, return_inverse=True)[1].reshape(bad.shape)
    assert bad.max() + 1 == 46654  # two classes merged away
    got, want = sweep_and_reference(bad, monkeypatch)
    assert got == want
    assert got[0] == 3
