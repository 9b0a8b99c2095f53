"""Reference implementations kept for the tests: the pure-Python pair
loops of the realization sweep, the dict-of-dicts intersection builder, the
dense r x r x r intersection array, the per-pair group table loop over
scalar products written on tuples, and the axiom-3 row sweep with int64
keys sorted along the strided axis. The realization loops read the
intersection data only through slice(), star() and iter_nonzero(), so they
run against tensors and symmetric-power views alike. Beside them sit the
first forms of the sweep's parts: the per-entry disjointness loop, the
triangles read by masking every tensor nonzero (MaskTriangles), the tensor
build by lexsort of per-run keys, and the per-cell loop of the
symmetric-power product maps. Next to the group
table loop sit its tuple helpers (perm_compose, perm_inverse, perm_cycles),
the wreath conjugacy key built on cycles, groups given by an explicit
table (TableGroup, for hand-built and corrupted tables), and the exhaustive
axiom checks verify_group and verify_action. The embedded product
is kept twice: the per-term Fraction loop over the structure constants of
each (alpha(a,b), beta(b,c)) pair, and the point-level adjacency-matrix
product. Then the cross-checks of the group association scheme. Then the
symmetric-power routines over all n**k rows: the rank count that marks the
cells of every row, and the class build by np.unique(axis=0) over the
(N*N, k) array of sorted coordinate classes. Then the per-entry text
writers of the ccfg and real formats. Then the unweighting check as the
literal loop over all n**9 monomials, building the expected and the
substituted tensors as dicts of Fractions and comparing them. Last, the
regular representation i -> L_i as r x r integer matrices, the check that
some character degree reaches the fiber count, the degree counts at every
d <= isqrt(r) from rational ranks of the Gram matrices, the floating-point
cross-check with its n x n idempotent products per cluster, and the
Salem-Spencer digit construction of a 3AP-free set."""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ccmm.configuration import (
    KEY_BLOCK,
    AxiomViolation,
    CoherentConfiguration,
    _key_arrays,
    _positions,
    _sorted_keys,
)
from ccmm.constructions import (
    _power_points,
    group_association_scheme,
    schurian,
)
from ccmm.groups import (
    FiniteGroup,
    GroupAction,
    WreathGroup,
    conjugation_action,
    perm_rank,
    perm_unrank,
)
from ccmm.realization import RealizationInvalid, _check_injective, grp_as_realization
from ccmm.sets import APFreeSet, triangle_free_set
from ccmm.spectrum import CLUSTER_TOL, character_degrees
from ccmm.tensors import UNWEIGHT_CAP, UnweightingReport

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



def loop_disjoint(reals, name):
    """The injectivity and disjointness checks of _verify as the per-entry
    loop: map by map, each component is checked injective, then its
    entries against a dict of the classes of the earlier components."""
    for slot in ("alpha", "beta", "gamma"):
        owner = {}
        for ci, real in enumerate(reals):
            arr = getattr(real, slot)
            _check_injective(name(slot, ci), arr)
            flat = arr.reshape(-1).tolist()
            for v in flat:
                if v in owner:
                    raise RealizationInvalid(
                        ("disjoint", slot, owner[v], ci, v),
                        "%s images of components %d and %d share class %d"
                        % (slot, owner[v], ci, v),
                    )
            owner.update(dict.fromkeys(flat, ci))


class MaskTriangles:
    """A configuration whose triangles come from masking every nonzero of
    its intersection tensor by class, as the sweep first read them: each
    triple once. triangles takes gamma classes C and masks k by their
    stars. Its intersection data is itself, so verify_realization and
    verify_simultaneous run the sweep on it unchanged."""

    def __init__(self, config):
        self.t = config.intersection()
        self.rank = config.rank

    def intersection(self):
        return self

    def triangles(self, A, B, C):
        i, j, k, _ = self.t.arrays()
        C = np.asarray(C)
        inside = (C >= 0) & (C < self.rank)
        K = np.where(inside, self.t.star_vector[np.where(inside, C, 0)], -1)
        x, y, z = (_positions(ids, self.rank)[c] for ids, c in ((A, i), (B, j), (K, k)))
        keep = (x >= 0) & (y >= 0) & (z >= 0)
        return x[keep], y[keep], z[keep]


def lexsort_build_tensor(config):
    """The intersection arrays (i, j, k, p) as the tensor build first made
    them: per chunk of classes, the runs of each sorted key row as (key,
    k, p), then one lexsort by (key, k) and a divmod of the key."""
    n, r = config.n_points, config.rank
    x0, y0 = config._x0, config._y0
    left, right = _key_arrays(config.matrix, r)
    flat = config.matrix.ravel()
    order = np.argsort(flat, kind="stable")
    starts = np.zeros(r + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=r), out=starts[1:])
    x1, y1 = np.divmod(order[np.minimum(starts[:-1] + 1, starts[1:] - 1)], n)
    chunk = max(1, KEY_BLOCK // n)
    parts = []
    for lo in range(0, r, chunk):
        ks = np.arange(lo, min(r, lo + chunk))
        rows = _sorted_keys(left[x0[ks]], right[y0[ks]])
        bad = (rows != _sorted_keys(left[x1[ks]], right[y1[ks]])).any(axis=1)
        if bad.any():
            k = int(ks[np.argmax(bad)])
            raise AxiomViolation(
                3,
                (int(x0[k]), int(y0[k]), int(x1[k]), int(y1[k]), k),
                "intersection numbers differ between representatives of "
                "class %d" % k,
            )
        new = np.ones(rows.shape, dtype=bool)
        new[:, 1:] = rows[:, 1:] != rows[:, :-1]
        run = np.flatnonzero(new)
        parts.append((rows.ravel()[run], ks[run // n], np.diff(np.r_[run, rows.size])))
    key, k, p = (np.concatenate(a).astype(np.int64) for a in zip(*parts))
    order = np.lexsort((k, key))
    i, j = np.divmod(key[order], r)
    return i, j, k[order], p[order]


def loop_product_maps(reals, combine):
    """_product_maps as the double loop over the (l^k) x (m^k) cells of
    each map, one combine call per cell on the unsorted coordinate tuple."""
    k = len(reals)

    def build(slot):
        arrs = [getattr(r, slot) for r in reals]
        rows = list(itertools.product(*[range(a.shape[0]) for a in arrs]))
        cols = list(itertools.product(*[range(a.shape[1]) for a in arrs]))
        out = np.empty((len(rows), len(cols)), dtype=np.int64)
        for ri, rv in enumerate(rows):
            for ci, cv in enumerate(cols):
                out[ri, ci] = combine(tuple(int(arrs[c][rv[c], cv[c]]) for c in range(k)))
        return out

    return build("alpha"), build("beta"), build("gamma")

def colex_rank(multiset):
    """The colexicographic rank of a multiset of class ids among all
    multisets of its size: sum_c C(t_c + c, c + 1) over its entries sorted
    as t_0 <= t_1 <= ..., one Python comb per entry."""
    return sum(math.comb(v + c, c + 1) for c, v in enumerate(sorted(multiset)))


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


def perm_compose(p, q):
    """[p.q](i) = p(q(i)), so q is applied first."""
    return tuple(p[q[i]] for i in range(len(p)))


def perm_inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def perm_cycles(p):
    """Cycles of p as tuples of positions, each starting at its minimum."""
    n = len(p)
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        cycles.append(tuple(cyc))
    return cycles


def wreath_class_key(G, a):
    """Conjugacy invariant of element a of the wreath group G: multiset of
    (cycle length, cycle sum) pairs, the sum taken in the base group over
    the coordinates of each cycle of the permutation part. Two elements are
    conjugate iff keys match."""
    h, p = G.decode(a)
    parts = []
    for cyc in perm_cycles(p):
        s = 0
        for i in cyc:
            s = G.base.mult(s, h[i])
        parts.append((len(cyc), s))
    return tuple(sorted(parts))


class TableGroup(FiniteGroup):
    """Group given by an explicit multiplication table. Plumbing for oracle
    tests; verify_group is the guard against corrupted tables."""

    kind = "table"

    def __init__(self, table, descriptor="table"):
        super().__init__()
        table = np.asarray(table, dtype=np.int32)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("table must be square")
        self.order = table.shape[0]
        self.descriptor = descriptor
        self._table = table

    def _product(self, a, b):
        return self._table[a, b]


VERIFY_CAP = 1024  # largest order for which verify_group runs the exhaustive sweep


@dataclass
class GroupCheck:
    status: str  # "passed", "failed", or "unchecked"
    witness: tuple = ()
    reason: str = ""


def verify_group(group, cap=VERIFY_CAP):
    """Exhaustively check the group axioms on the multiplication table:
    closure, identity 0, two-sided inverses, associativity. Orders above
    cap are reported unchecked rather than silently trusted."""
    n = group.order
    if n > cap:
        return GroupCheck("unchecked", reason="order %d exceeds cap %d" % (n, cap))
    T = group.table()
    if T.min() < 0 or T.max() >= n:
        bad = np.argwhere((T < 0) | (T >= n))[0]
        return GroupCheck(
            "failed", (int(bad[0]), int(bad[1])), "entry out of range (closure)"
        )
    ar = np.arange(n)
    if not np.array_equal(T[0], ar):
        b = int(np.flatnonzero(T[0] != ar)[0])
        return GroupCheck("failed", (0, b), "identity fails on the left")
    if not np.array_equal(T[:, 0], ar):
        a = int(np.flatnonzero(T[:, 0] != ar)[0])
        return GroupCheck("failed", (a, 0), "identity fails on the right")
    for a in range(n):
        hits = np.flatnonzero(T[a] == 0)
        if len(hits) != 1 or T[hits[0], a] != 0:
            return GroupCheck("failed", (a,), "no two-sided inverse")
    for a in range(n):
        # (a*b)*c vs a*(b*c), whole b,c plane at once
        if not np.array_equal(T[T[a]], T[a][T]):
            diff = np.argwhere(T[T[a]] != T[a][T])[0]
            return GroupCheck(
                "failed", (a, int(diff[0]), int(diff[1])), "associativity fails"
            )
    return GroupCheck("passed")


def verify_action(action):
    """Check identity row and the compatibility law on all pairs of group
    elements. Raises ValueError with a witness on failure."""
    T = action.table
    G = action.group
    if not np.array_equal(T[0], np.arange(action.n_points)):
        x = int(np.flatnonzero(T[0] != np.arange(action.n_points))[0])
        raise ValueError("identity moves point %d" % x)
    GT = G.table()
    for g in range(G.order):
        # act(g, act(h, x)) for all h, x
        lhs = T[g][T]
        rhs = T[GT[g]]
        if not np.array_equal(lhs, rhs):
            h, x = map(int, np.argwhere(lhs != rhs)[0])
            raise ValueError(
                "compatibility fails at g=%d h=%d x=%d" % (g, h, x)
            )


def loop_profile_mismatch_witness(matrix, r, x, y, xr, yr):
    """Locate the least composition pair (i,j) whose z-count differs
    between the pairs (x,y) and (xr,yr) of the same class, from both
    profiles counted in full."""
    m64 = matrix.astype(np.int64)
    keys_here = m64[x] * r + m64[:, y]
    keys_ref = m64[xr] * r + m64[:, yr]
    uh, ch = np.unique(keys_here, return_counts=True)
    here = dict(zip(uh.tolist(), ch.tolist()))
    ur, cr = np.unique(keys_ref, return_counts=True)
    ref = dict(zip(ur.tolist(), cr.tolist()))
    for key in sorted(set(here) | set(ref)):
        if here.get(key, 0) != ref.get(key, 0):
            i, j = divmod(key, r)
            return (
                int(x),
                int(y),
                int(xr),
                int(yr),
                int(i),
                int(j),
                here.get(key, 0),
                ref.get(key, 0),
            )
    raise AssertionError("no differing composition count found")


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
                wit = loop_profile_mismatch_witness(
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


def fancy_sorted_classes(M, coords, rows):
    """For the points rows (as an index into coords) against every point,
    the k coordinate classes of each cell in ascending order: k arrays of
    shape (len(rows), N), each gathered by M[np.ix_(...)] and sorted
    elementwise by a network of k(k-1)/2 compare-exchanges."""
    s = [M[np.ix_(c[rows], c)] for c in coords]
    for top in range(len(s) - 1, 0, -1):
        for a in range(top):
            lo = np.minimum(s[a], s[a + 1])
            np.maximum(s[a], s[a + 1], out=s[a + 1])
            s[a] = lo
    return s


def full_row_symmetric_power_rank(config, k, chunk=64, bitmap_cap=1 << 26):
    """The Sym^k class count over all n**k rows: each chunk's sorted k-tuples
    of coordinate classes encoded in base r (int32 when r**k < 2**31, else
    int64) and marked in a bitmap, or in a set when r**k exceeds
    bitmap_cap."""
    r = config.rank
    coords = _power_points(config.n_points, k)
    N = len(coords[0])
    codes = r**k
    if codes > 1 << 62:
        raise ValueError("class encoding does not fit 63 bits")
    dtype = np.int32 if codes < 1 << 31 else np.int64
    M = config.matrix.astype(dtype)
    use_bitmap = codes <= bitmap_cap
    seen_bitmap = np.zeros(codes, dtype=bool) if use_bitmap else None
    seen_set = set() if not use_bitmap else None
    for lo in range(0, N, chunk):
        stack = fancy_sorted_classes(M, coords, slice(lo, lo + chunk))
        enc = stack[0]
        for c in range(1, k):
            enc = enc * dtype(r) + stack[c]
        if use_bitmap:
            seen_bitmap[enc.ravel()] = True
        else:
            seen_set.update(np.unique(enc).tolist())
    return int(seen_bitmap.sum()) if use_bitmap else len(seen_set)


def unique_rows_symmetric_power(config, k, check="full"):
    """Sym^k C with its classes found as the distinct rows of the (N*N, k)
    array of sorted coordinate classes, by np.unique(axis=0)."""
    r = config.rank
    coords = _power_points(config.n_points, k)
    N = len(coords[0])
    stack = fancy_sorted_classes(config.matrix.astype(np.int64), coords, slice(None))
    flat = np.stack(stack).reshape(k, -1).T
    uniq, inverse = np.unique(flat, axis=0, return_inverse=True)
    assert len(uniq) == math.comb(r + k - 1, k)
    labels = [tuple(int(v) for v in row) for row in uniq]
    return CoherentConfiguration.from_class_matrix(
        inverse.reshape(N, N), class_labels=labels, check=check
    )


def loop_write_ccfg(config, fh):
    """The ccfg text, one str(int(v)) call per matrix and automorphism
    entry."""
    fh.write("ccfg 1\n")
    fh.write("points %d classes %d\n" % (config.n_points, config.rank))
    for row in config.matrix:
        fh.write(" ".join(str(int(v)) for v in row) + "\n")
    if len(config.automorphisms):
        fh.write("automorphisms %d\n" % len(config.automorphisms))
        for g in config.automorphisms:
            fh.write(" ".join(str(int(v)) for v in g) + "\n")


def loop_write_real(real, fh):
    """The real text, one write per map entry."""
    l, m, n = real.dims
    fh.write("real 1\n")
    fh.write("dims %d %d %d\n" % (l, m, n))
    for name, arr in (("alpha", real.alpha), ("beta", real.beta), ("gamma", real.gamma)):
        fh.write("%s\n" % name)
        rows, cols = arr.shape
        for x in range(rows):
            for y in range(cols):
                fh.write("%d %d -> %d\n" % (x, y, int(arr[x, y])))


def loop_unweighting_check(n, S=None, seed=0):
    """Constructive core of the weighted-to-unweighted exponent transfer:
    give the n x n matrix multiplication form seeded random nonzero
    rational weights, cube it, and apply the triangle-free-set variable
    substitution. Passes iff the substituted cube is exactly the sum of
    |S| unit-coefficient n^2 x n^2 matrix multiplication forms.

    S may be a TriangleFreeSet or any iterable of 1-based triples from the
    simplex slice; sets that are not triangle-free fail with a witness."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > UNWEIGHT_CAP:
        raise ValueError("n > %d is too large for the full sweep" % UNWEIGHT_CAP)
    if S is None:
        S = triangle_free_set(n)
    triples = set()
    for t in S:
        t = tuple(int(v) for v in t)
        if len(t) != 3 or not all(1 <= v <= n for v in t) or sum(t) != n + 2:
            raise ValueError("%r is not in the simplex slice" % (t,))
        triples.add(t)
    if not triples:
        raise ValueError("empty set")

    rnd = random.Random(seed)
    rng = range(1, n + 1)
    lam = {
        key: Fraction(rnd.randint(1, 97))
        for key in itertools.product(rng, rng, rng)
    }

    expected = {}
    for s in sorted(triples):
        for i in itertools.product(rng, rng):
            for j in itertools.product(rng, rng):
                for k in itertools.product(rng, rng):
                    expected[((s, i, j), (s, j, k), (s, k, i))] = Fraction(1)

    got = {}
    for a, b, c in itertools.product(
        itertools.product(rng, rng, rng),
        itertools.product(rng, rng, rng),
        itertools.product(rng, rng, rng),
    ):
        # x_{a,b} is kept iff a = (i1, i2, s3), b = (s1, j1, j2) for s in S
        s = (b[0], n + 2 - b[0] - a[2], a[2])
        if s not in triples:
            continue
        # y_{b,c} is kept iff b = (t1, j1, j2), c = (k1, t2, k2) for t in S
        t = (b[0], c[1], n + 2 - b[0] - c[1])
        if t not in triples:
            continue
        # z_{c,a} is kept iff c = (k1, u2, k2), a = (i1, i2, u3) for u in S
        u = (n + 2 - c[1] - a[2], c[1], a[2])
        if u not in triples:
            continue
        coeff = (
            lam[(a[0], b[0], c[0])]
            * lam[(a[1], b[1], c[1])]
            * lam[(a[2], b[2], c[2])]
        )
        # scalings attached to the substituted variables
        coeff /= lam[(a[1], b[1], s[1])]  # x side
        coeff /= lam[(t[2], b[2], c[2])]  # y side
        coeff /= lam[(a[0], u[0], c[0])]  # z side
        i = (a[0], a[1])
        j = (b[1], b[2])
        k = (c[0], c[2])
        key = ((s, i, j), (t, j, k), (u, k, i))
        got[key] = got.get(key, Fraction(0)) + coeff

    got = {k: v for k, v in got.items() if v}
    size = len(triples)
    if got == expected:
        return UnweightingReport(True, n, size, len(got))
    for key, val in got.items():
        if expected.get(key) != val:
            return UnweightingReport(False, n, size, len(got), (key, val))
    missing = next(iter(set(expected) - set(got)))
    return UnweightingReport(
        False, n, size, len(got), (missing, Fraction(0))
    )


def regular_representation(config):
    """The r x r integer matrices (L_i)[k, j] = p^k_{i,j}; i -> L_i is an
    exact algebra homomorphism."""
    i, j, k, p = config.intersection().arrays()
    r = config.rank
    L = np.zeros((r, r, r), dtype=np.int64)
    np.add.at(L, (i, k, j), p)
    return list(L)


def max_degree_lower_bound_check(config, profile=None):
    """Every configuration with f fibers has a character degree >= f."""
    if profile is None:
        profile = character_degrees(config)
    return max(profile.degrees) >= config.n_fibers


def fraction_rank(rows):
    """Rank over the rationals by Fraction elimination."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((x for x in range(rank, len(rows)) if rows[x][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for x in range(rank + 1, len(rows)):
            f = rows[x][c] / rows[rank][c]
            if f:
                rows[x] = [a - f * b for a, b in zip(rows[x], rows[rank])]
        rank += 1
    return rank


def fraction_degree_counts(T, G, s, r):
    """Components per degree d, for every d <= isqrt(r): t - rank(T - d^2 E)
    over the rationals, with E_ab = sum_c G[a, c, b] w_c / s_c and
    w_c = sum_d G[c, d, d] / s_d (the Gram matrices of the spectrum
    module)."""
    t = len(s)
    w = [sum(Fraction(int(G[c, d, d]), s[d]) for d in range(t)) for c in range(t)]
    E = [
        [sum(Fraction(int(G[a, c, b]), s[c]) * w[c] for c in range(t)) for b in range(t)]
        for a in range(t)
    ]
    return {
        d: t - fraction_rank([[int(T[a, b]) - d * d * E[a][b] for b in range(t)] for a in range(t)])
        for d in range(1, math.isqrt(r) + 1)
    }


def dense_idempotent_residual(vecs, groups):
    """max(|e @ e - e|, |sum e - I|) with each e = V V^H formed and squared
    explicitly (n^3 per cluster) and the sum accumulated."""
    n = vecs.shape[0]
    residual = 0.0
    total = np.zeros((n, n), dtype=np.complex128)
    for grp in groups:
        V = vecs[:, grp]
        e = V @ V.conj().T
        total += e
        residual = max(residual, float(np.abs(e @ e - e).max()))
    return max(residual, float(np.abs(total - np.eye(n)).max()))


def dense_float_degrees(config, basis, seed):
    """The floating-point cross-check with one SVD per cluster and the
    dense idempotent residual: the same seeded Hermitian central element,
    each e = V V^H spread over the classes with np.add.at."""
    r, n, M = config.rank, config.n_points, config.matrix
    i, j, k, p = config.intersection().arrays()
    sizes = config.class_sizes()
    rnd = random.Random(seed)
    coef = np.array(
        [[rnd.randint(1, 1 << 20) for _ in range(2)] for _ in basis],
        dtype=np.float64,
    ) / (1 << 10)
    Bf = np.array(basis, dtype=np.float64)
    sym = (coef[:, 0] @ Bf)[M]
    skew = (coef[:, 1] @ Bf)[M]
    H = (sym + sym.T) + 1j * (skew - skew.T)
    scale = max(float(np.abs(H).max()), 1.0)
    vals, vecs = np.linalg.eigh(H)
    cuts = np.flatnonzero(np.diff(vals) > CLUSTER_TOL * scale) + 1
    groups = np.split(np.arange(n), cuts)
    degrees = []
    for grp in groups:
        V = vecs[:, grp]
        c = np.zeros(r, dtype=np.complex128)
        np.add.at(c, M.ravel(), (V @ V.conj().T).ravel())
        L = np.zeros((r, r), dtype=np.complex128)
        np.add.at(L, (k, j), c[i] / sizes[i] * p)
        sv = np.linalg.svd(L, compute_uv=False)
        dim = int((sv > CLUSTER_TOL * max(float(sv[0]), 1.0)).sum())
        d = math.isqrt(dim)
        degrees.append(d if d >= 1 and d * d == dim else None)
    residual = dense_idempotent_residual(vecs, groups)
    if None in degrees:
        return None, residual
    return tuple(sorted(degrees)), residual


def salem_spencer(n):
    """Digit construction: integers below floor(n/3) whose base-3 digits are
    all 0 or 1. Small enough that integer progressions and mod-n progressions
    coincide, and carry-free so digit equality forces i = j = k."""
    if n < 1:
        raise ValueError("modulus must be >= 1")
    bound = n // 3
    out = []
    for x in range(bound):
        v = x
        while v:
            if v % 3 == 2:
                break
            v //= 3
        else:
            out.append(x)
    return APFreeSet(n, tuple(out))
