"""Reference implementations kept for the tests: the pure-Python pair
loops of the realization sweep, the dict-of-dicts intersection builder, the
dense r x r x r intersection array, the per-pair group table loop over
scalar products written on tuples, and the axiom-3 row sweep with int64
keys sorted along the strided axis. The realization loops read the
intersection data only through slice(), star() and iter_nonzero(), so they
run against tensors and symmetric-power views alike. The embedded product
is kept twice: the per-term Fraction loop over the structure constants of
each (alpha(a,b), beta(b,c)) pair, and the point-level adjacency-matrix
product. Then the cross-checks of the group association scheme. Last, the
symmetric-power routines over all n**k rows: the rank count that marks the
cells of every row, and the class build by np.unique(axis=0) over the
(N*N, k) array of sorted coordinate classes."""

import math
import random
from fractions import Fraction

import numpy as np

from ccmm.configuration import (
    POINT_CAP,
    AxiomViolation,
    CoherentConfiguration,
    _profile_mismatch_witness,
)
from ccmm.constructions import (
    _power_points,
    _sorted_classes,
    group_association_scheme,
    schurian,
)
from ccmm.groups import (
    GroupAction,
    WreathGroup,
    conjugation_action,
    perm_compose,
    perm_inverse,
    perm_rank,
    perm_unrank,
)
from ccmm.realization import RealizationInvalid, _check_injective, grp_as_realization

DENSE_TENSOR_CAP = 512


def dense(t):
    """The intersection numbers as an r x r x r array, below a rank cap."""
    if t.rank > DENSE_TENSOR_CAP:
        raise ValueError("rank %d exceeds dense cap %d" % (t.rank, DENSE_TENSOR_CAP))
    out = np.zeros((t.rank, t.rank, t.rank), dtype=np.int64)
    for i, j, k, p in t.iter_nonzero():
        out[i, j, k] = p
    return out


def dict_tensor(config):
    """{(i, j, k): p} from one column profile per class, as the first
    builder computed it."""
    M = config.matrix.astype(np.int64)
    r = config.rank
    out = {}
    for k in range(r):
        x, y = config.rep_pair(k)
        keys, counts = np.unique(M[x] * r + M[:, y], return_counts=True)
        for key, cnt in zip(keys.tolist(), counts.tolist()):
            i, j = divmod(key, r)
            out[(i, j, k)] = cnt
    return out


def loop_verify_realization(t, real):
    """verify_realization as a loop over (a, b') x (b, c')."""
    l, m, n = real.dims
    for name, arr in (("alpha", real.alpha), ("beta", real.beta), ("gamma", real.gamma)):
        _check_injective(name, arr)
    owner = {}
    for c in range(n):
        for a in range(l):
            owner[t.star(int(real.gamma[c, a]))] = (c, a)
    for a in range(l):
        for bp in range(m):
            i = int(real.alpha[a, bp])
            for b in range(m):
                for cp in range(n):
                    j = int(real.beta[b, cp])
                    zs = {owner[kp] for kp in t.slice(i, j) if kp in owner}
                    want = {(cp, a)} if b == bp else set()
                    if zs == want:
                        continue
                    extra = zs - want
                    if extra:
                        c, ap = sorted(extra)[0]
                        raise RealizationInvalid(
                            ("triangle", a, ap, b, bp, c, cp, "extra"),
                            "unexpected triangle for a=%d a'=%d b=%d b'=%d "
                            "c=%d c'=%d" % (a, ap, b, bp, c, cp),
                        )
                    c, ap = sorted(want - zs)[0]
                    raise RealizationInvalid(
                        ("triangle", a, ap, b, bp, c, cp, "missing"),
                        "matched triple is not a triangle for a=%d a'=%d "
                        "b=%d b'=%d c=%d c'=%d" % (a, ap, b, bp, c, cp),
                    )
    return True


def loop_verify_simultaneous(t, reals):
    """verify_simultaneous as a loop over (ia, a, b') x (ib, b, c')."""
    reals = list(reals)
    for slot in ("alpha", "beta", "gamma"):
        seen = {}
        for ci, real in enumerate(reals):
            arr = getattr(real, slot)
            _check_injective("%s[%d]" % (slot, ci), arr)
            for v in arr.reshape(-1).tolist():
                if v in seen and seen[v] != ci:
                    raise RealizationInvalid(
                        ("disjoint", slot, seen[v], ci, v),
                        "%s images of components %d and %d share class %d"
                        % (slot, seen[v], ci, v),
                    )
                seen[v] = ci
    owner = {}
    for ci, real in enumerate(reals):
        nn, ll = real.gamma.shape
        for c in range(nn):
            for a in range(ll):
                owner[t.star(int(real.gamma[c, a]))] = (ci, c, a)
    for ia, ra in enumerate(reals):
        la, ma = ra.alpha.shape
        for a in range(la):
            for bp in range(ma):
                i = int(ra.alpha[a, bp])
                for ib, rb in enumerate(reals):
                    mb, nb = rb.beta.shape
                    for b in range(mb):
                        for cp in range(nb):
                            j = int(rb.beta[b, cp])
                            zs = {owner[kp] for kp in t.slice(i, j) if kp in owner}
                            want = {(ia, cp, a)} if ia == ib and b == bp else set()
                            if zs != want:
                                raise RealizationInvalid(
                                    (
                                        "triangle",
                                        (ia, a),
                                        (ib, b, bp),
                                        (cp,),
                                        sorted(zs - want or want - zs)[0],
                                    ),
                                    "simultaneous triangle condition fails "
                                    "between components %d and %d at "
                                    "a=%d b'=%d b=%d c'=%d"
                                    % (ia, ib, a, bp, b, cp),
                                )
    return True


def action_from_function(group, n_points, f, name="action"):
    """The action whose table holds f(g, x), one call per (g, x)."""
    T = np.empty((group.order, n_points), dtype=np.int32)
    for g in range(group.order):
        for x in range(n_points):
            T[g, x] = f(g, x)
    return GroupAction(group, T, name)


def loop_mult(G, a, b):
    """a*b in a cyclic, abelian, sym or wreath group, on digit and
    permutation tuples, one pair at a time."""
    if G.kind == "cyclic":
        return (a + b) % G.m
    if G.kind == "abelian":
        va, vb = G.decode(a), G.decode(b)
        return G.encode([x + y for x, y in zip(va, vb)])
    if G.kind == "sym":
        return perm_rank(perm_compose(perm_unrank(a, G.n), perm_unrank(b, G.n)))
    if G.kind == "wreath":
        h1, p1 = G.decode(a)
        h2, p2 = G.decode(b)
        p1inv = perm_inverse(p1)
        h = tuple(loop_mult(G.base, h1[i], h2[p1inv[i]]) for i in range(G.n))
        return G.encode(h, perm_compose(p1, p2))
    raise ValueError("no loop product for kind %r" % G.kind)


def loop_table(G):
    """The multiplication table filled one loop_mult call per pair."""
    T = np.empty((G.order, G.order), dtype=np.int32)
    for a in range(G.order):
        for b in range(G.order):
            T[a, b] = loop_mult(G, a, b)
    return T


def loop_check_axiom3(matrix, r, x0, y0, rows=None):
    """_check_axiom3 as a row sweep: int64 keys[z, y] sorted along axis 0,
    each column compared with the profile of its class's first pair, seen
    earlier in the same ascending row order."""
    n = matrix.shape[0]
    m64 = matrix.astype(np.int64)
    by_row = [[] for _ in range(n)]
    for c in range(r):
        by_row[x0[c]].append(c)
    ref = np.empty((n, r), dtype=np.int64)
    seen = np.zeros(r, dtype=bool)
    chunk = n if n <= 2048 else max(256, (1 << 22) // n)
    row_iter = range(n) if rows is None else rows
    for x in row_iter:
        base = m64[x] * r
        for ys in range(0, n, chunk):
            ye = min(n, ys + chunk)
            keys = base[:, None] + m64[:, ys:ye]  # keys[z, y-ys]
            keys.sort(axis=0)
            for c in by_row[x]:
                if ys <= y0[c] < ye and not seen[c]:
                    ref[:, c] = keys[:, y0[c] - ys]
                    seen[c] = True
            row_classes = matrix[x, ys:ye]
            assert seen[row_classes].all()
            expected = ref[:, row_classes]
            if not np.array_equal(keys, expected):
                bad_cols = np.flatnonzero((keys != expected).any(axis=0))
                yy = ys + int(bad_cols[0])
                c = int(matrix[x, yy])
                wit = _profile_mismatch_witness(
                    matrix, r, x, yy, int(x0[c]), int(y0[c])
                )
                raise AxiomViolation(
                    3,
                    wit,
                    "pairs (%d,%d) and (%d,%d) of class %d disagree on the "
                    "count for composition (%d,%d): %d vs %d"
                    % ((wit[0], wit[1], wit[2], wit[3], c) + wit[4:]),
                )


def _as_fraction_rows(M, rows, cols, name):
    out = [[Fraction(v) for v in row] for row in M]
    if len(out) != rows or any(len(row) != cols for row in out):
        raise ValueError(
            "%s must be %dx%d" % (name, rows, cols)
        )
    return out


def fraction_embedded_matmul(W, A, B):
    """embedded_matmul as a per-term Fraction loop: for each b, accumulate
    A[a][b] B[b][c] p^k over every nonzero k of every pair, then divide the
    gamma(c,a)* coefficient by the weight."""
    l, m, n = W.dims
    A = _as_fraction_rows(A, l, m, "A")
    B = _as_fraction_rows(B, m, n, "B")
    t = W.config.intersection()
    alpha, beta, gamma = W.real.alpha, W.real.beta, W.real.gamma
    readout = [[t.star(int(gamma[c, a])) for c in range(n)] for a in range(l)]
    C = [[Fraction(0)] * n for _ in range(l)]
    for b in range(m):
        acc = {}
        for a in range(l):
            if not A[a][b]:
                continue
            for c in range(n):
                if B[b][c]:
                    f = A[a][b] * B[b][c]
                    for k, p in t.slice(int(alpha[a, b]), int(beta[b, c])).items():
                        acc[k] = acc.get(k, Fraction(0)) + f * p
        for a in range(l):
            for c in range(n):
                val = acc.get(readout[a][c])
                if val:
                    C[a][c] += val / int(W.weights[a, b, c])
    return C


def fraction_boolean_matmul(W, A, B, seed, repetitions, engine=fraction_embedded_matmul):
    """The randomized mode of boolean_matmul with Fraction lifts: the same
    rnd.randint(1, 2) draws, A row by row and then B, per repetition."""
    l, m, n = W.dims
    A = np.asarray(A)
    B = np.asarray(B)
    rnd = random.Random(seed)
    out = np.zeros((l, n), dtype=np.int64)
    for _ in range(repetitions):
        LA = [
            [Fraction(rnd.randint(1, 2)) if A[a, b] else Fraction(0) for b in range(m)]
            for a in range(l)
        ]
        LB = [
            [Fraction(rnd.randint(1, 2)) if B[b, c] else Fraction(0) for c in range(n)]
            for b in range(m)
        ]
        C = engine(W, LA, LB)
        for a in range(l):
            for c in range(n):
                if C[a][c]:
                    out[a, c] = 1
    return out

def adjacency_matmul(W, A, B):
    """Cross-check oracle for embedded_matmul: the same embedding carried
    out with explicit point-level adjacency matrices."""
    l, m, n = W.dims
    A = _as_fraction_rows(A, l, m, "A")
    B = _as_fraction_rows(B, m, n, "B")
    cfg = W.config
    N = cfg.n_points
    alpha, beta, gamma = W.real.alpha, W.real.beta, W.real.gamma
    adj = {}

    def mat(k):
        if k not in adj:
            adj[k] = cfg.adjacency_matrix(k).astype(object)
        return adj[k]

    C = [[Fraction(0)] * n for _ in range(l)]
    for b in range(m):
        X = np.zeros((N, N), dtype=object)
        Y = np.zeros((N, N), dtype=object)
        for a in range(l):
            if A[a][b]:
                X = X + A[a][b] * mat(int(alpha[a, b]))
        for c in range(n):
            if B[b][c]:
                Y = Y + B[b][c] * mat(int(beta[b, c]))
        Z = np.dot(X, Y)
        for a in range(l):
            for c in range(n):
                k = cfg.intersection().star(int(gamma[c, a]))
                x0, y0 = cfg.rep_pair(k)
                val = Z[x0, y0]
                if val:
                    C[a][c] += Fraction(val) / int(W.weights[a, b, c])
    return C


def gas_equals_schurian_conjugation(G):
    """Cross-check helper: the group association scheme has the same
    normalized class matrix as the Schurian configuration of the two-sided
    conjugation action."""
    direct = group_association_scheme(G)
    via_action = schurian(conjugation_action(G))
    return bool(np.array_equal(direct.matrix, via_action.matrix))


def gas_realization_matches(family):
    """Cross-check: the ambient scheme of grp_as_realization equals the
    group association scheme built directly."""
    H = family.group
    n = len(family.triples)
    G = WreathGroup(n, H)
    cfg, _ = grp_as_realization(family)
    direct = group_association_scheme(G)
    return bool(np.array_equal(cfg.matrix, direct.matrix))


def full_row_symmetric_power_rank(
    config, k, point_cap=POINT_CAP, chunk=64, bitmap_cap=1 << 26
):
    """The Sym^k class count over all n**k rows: each chunk's sorted k-tuples
    of coordinate classes encoded in base r (int64) and marked in a bitmap,
    or in a set when r**k exceeds bitmap_cap."""
    r = config.rank
    coords = _power_points(config.n_points, k, point_cap)
    N = len(coords[0])
    codes = r**k
    if codes > 1 << 62:
        raise ValueError("class encoding does not fit 63 bits")
    M = config.matrix.astype(np.int64)
    use_bitmap = codes <= bitmap_cap
    seen_bitmap = np.zeros(codes, dtype=bool) if use_bitmap else None
    seen_set = set() if not use_bitmap else None
    for lo in range(0, N, chunk):
        stack = _sorted_classes(M, coords, slice(lo, lo + chunk))
        enc = stack[0]
        for c in range(1, k):
            enc = enc * r + stack[c]
        if use_bitmap:
            seen_bitmap[enc.ravel()] = True
        else:
            seen_set.update(np.unique(enc).tolist())
    return int(seen_bitmap.sum()) if use_bitmap else len(seen_set)


def unique_rows_symmetric_power(config, k, check="full", point_cap=POINT_CAP):
    """Sym^k C with its classes found as the distinct rows of the (N*N, k)
    array of sorted coordinate classes, by np.unique(axis=0)."""
    r = config.rank
    coords = _power_points(config.n_points, k, point_cap)
    N = len(coords[0])
    stack = _sorted_classes(config.matrix.astype(np.int64), coords, slice(None))
    flat = np.stack(stack).reshape(k, -1).T
    uniq, inverse = np.unique(flat, axis=0, return_inverse=True)
    assert len(uniq) == math.comb(r + k - 1, k)
    labels = [tuple(int(v) for v in row) for row in uniq]
    return CoherentConfiguration.from_class_matrix(
        inverse.reshape(N, N), class_labels=labels, check=check
    )
